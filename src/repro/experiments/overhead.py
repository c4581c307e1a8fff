"""Experiment E9 — heartbeat-registration overhead (paper Section 5.1).

The paper reports that the framework's overhead is negligible for eight of
the ten PARSEC benchmarks, that registering a heartbeat after *every* option
in blackscholes adds an order of magnitude of slow-down (fixed by beating
every 25 000 options), and that facesim's per-frame heartbeat costs less than
5%.  This experiment measures the same three quantities in wall-clock time
with the real kernels — each as the time spent in heartbeat calls relative
to the time of the work they mark, measured unit by unit inside one
instrumented run — plus the raw per-call latency of each storage backend.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

from repro.core.backends import FileBackend, MemoryBackend, SharedMemoryBackend
from repro.core.heartbeat import Heartbeat
from repro.experiments.base import ExperimentResult
from repro.workloads.base import Workload
from repro.workloads.blackscholes import BlackscholesWorkload
from repro.workloads.facesim import FacesimWorkload

__all__ = ["OverheadConfig", "run", "measure_backend_latency"]


@dataclass(frozen=True, slots=True)
class OverheadConfig:
    """Configuration of the overhead study (sizes keep wall time modest)."""

    #: Batches of 25 000 options priced for the blackscholes comparison.
    blackscholes_batches: int = 6
    #: Frames simulated for the facesim comparison.
    facesim_frames: int = 20
    #: Heartbeat calls timed per backend for the latency table.
    backend_calls: int = 20_000
    seed: int = 0


def _beat_share(workload: Workload, units: int, beats_per_unit: int, heartbeat: Heartbeat) -> float:
    """Time spent in heartbeat calls over time spent in the work they mark.

    Each unit of work (a frame, a batch) is timed on its own and its beats
    right after it, in the one instrumented run, so every beat cost is
    paired with the work beside it instead of with a separate uninstrumented
    run that host noise moves independently.
    """
    work = beats = 0.0
    for unit in range(units):
        start = time.perf_counter()
        workload.execute_beat(unit)
        done = time.perf_counter()
        for _ in range(beats_per_unit):
            heartbeat.heartbeat(tag=unit)
        beats += time.perf_counter() - done
        work += done - start
    return beats / work


def _blackscholes_slowdown(config: OverheadConfig, beats_per_batch: int) -> float:
    """Slowdown from ``beats_per_batch`` heartbeats per batch of options.

    The heartbeats use the file backend because that is what the paper's
    reference implementation does ("a new entry ... is written into a file"),
    and the file write is precisely what makes a beat per option expensive.
    Write-through mode reproduces the reference implementation's one-write-
    per-beat behaviour; the buffered default would amortize the syscall away
    and understate the Table 2 slowdown this experiment reproduces (the
    buffered win is measured separately in ``bench_overhead.py``).
    """
    with tempfile.TemporaryDirectory(prefix="hb-blackscholes-") as directory:
        path = os.path.join(directory, "heartbeat.log")
        heartbeat = Heartbeat(window=20, backend=FileBackend(path, buffered=False))
        workload = BlackscholesWorkload(seed=config.seed)
        share = _beat_share(workload, config.blackscholes_batches, beats_per_batch, heartbeat)
        heartbeat.finalize()
    return 1.0 + share


def measure_backend_latency(calls: int = 20_000) -> dict[str, float]:
    """Mean per-call latency (microseconds) of ``Heartbeat.heartbeat`` per backend."""
    results: dict[str, float] = {}
    # Memory backend.
    hb = Heartbeat(window=20, backend=MemoryBackend(4096))
    start = time.perf_counter()
    for i in range(calls):
        hb.heartbeat(tag=i)
    results["memory"] = (time.perf_counter() - start) / calls * 1e6
    # File backend — write-through, like the paper's one-write-per-beat
    # reference implementation (the buffered default would amortize the
    # syscall this row exists to measure).
    with tempfile.TemporaryDirectory(prefix="hb-overhead-") as directory:
        path = os.path.join(directory, "heartbeat.log")
        hb_file = Heartbeat(window=20, backend=FileBackend(path, buffered=False))
        start = time.perf_counter()
        for i in range(calls):
            hb_file.heartbeat(tag=i)
        results["file"] = (time.perf_counter() - start) / calls * 1e6
        hb_file.finalize()
    # Shared-memory backend.
    shm = SharedMemoryBackend(capacity=4096)
    hb_shm = Heartbeat(window=20, backend=shm)
    start = time.perf_counter()
    for i in range(calls):
        hb_shm.heartbeat(tag=i)
    results["shared_memory"] = (time.perf_counter() - start) / calls * 1e6
    hb_shm.finalize()
    return results


def run(config: OverheadConfig = OverheadConfig()) -> ExperimentResult:
    per_batch = _blackscholes_slowdown(config, beats_per_batch=1)
    per_option = _blackscholes_slowdown(config, beats_per_batch=25_000)
    facesim = FacesimWorkload(seed=config.seed)
    facesim_share = _beat_share(facesim, config.facesim_frames, 1, Heartbeat(window=20))
    latency = measure_backend_latency(config.backend_calls)
    metrics = {
        "per_batch_slowdown": per_batch,
        "per_option_over_per_batch": per_option / per_batch,
        "facesim_overhead_pct": facesim_share * 100.0,
    }
    rows = [
        ("blackscholes, heartbeat per 25000 options (slowdown)", "negligible", round(per_batch, 3)),
        ("blackscholes, heartbeat per option (slowdown)", "order of magnitude", round(per_option, 2)),
        ("facesim, heartbeat per frame (overhead)", "< 5%", f"{metrics['facesim_overhead_pct']:.2f}%"),
        ("memory backend latency (us/beat)", "n/a", round(latency["memory"], 2)),
        ("file backend latency (us/beat)", "n/a", round(latency["file"], 2)),
        ("shared-memory backend latency (us/beat)", "n/a", round(latency["shared_memory"], 2)),
    ]
    result = ExperimentResult(
        name="overhead",
        description="Heartbeat API overhead (paper Section 5.1)",
        headers=("Quantity", "Paper", "Measured"),
        rows=rows,
        metrics=metrics,
    )
    result.notes.append(
        "wall-clock measurement with the real kernels, each beat timed beside the work it "
        "marks; absolute slowdowns depend on "
        "the host, but the per-option configuration must be dramatically worse than "
        "the per-25000 configuration while facesim's per-frame beat stays cheap"
    )
    return result
