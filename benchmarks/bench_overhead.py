"""Benchmark E9 — heartbeat API overhead (paper Section 5.1).

Microbenchmarks of the heartbeat call itself on each storage backend, plus
the single-beat vs. batched ingestion comparison that justifies
``heartbeat_batch`` with a measurement instead of an assertion.  The
paper's own overhead claims (blackscholes per-option vs per-25 000, facesim
under 5%) are rows of ``repro.experiments.claims`` (see docs/claims.md).

Run under pytest for the benchmark suite, or directly —

    python benchmarks/bench_overhead.py [--mode ingest|network|all]

— to write the ingestion numbers to ``BENCH_overhead.json`` (CI's
benchmark-smoke artifact).  ``--mode network`` measures the network backend:
beats/sec into a live localhost collector (single vs batched) and the
drop-oldest path with the collector down, extending the paper's Table 2
overhead story to the wire.  ``BENCH_QUICK=1`` selects a fast iteration
count; ``BENCH_BEATS`` overrides it explicitly.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.backends import FileBackend, MemoryBackend, SharedMemoryBackend
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HeartbeatMonitor
from repro.net import HeartbeatCollector, NetworkBackend

#: Batch size at which the tentpole speedup is measured and asserted.
BATCH_SIZE = 64


def _ingest_beats() -> int:
    """Number of beats each ingestion measurement pushes (env-gated)."""
    beats = os.environ.get("BENCH_BEATS")
    if beats is not None:
        value = int(beats)
        if value < 1:
            raise ValueError(f"BENCH_BEATS must be >= 1, got {value}")
        return value
    if os.environ.get("BENCH_QUICK"):
        return 64 * BATCH_SIZE
    return 1024 * BATCH_SIZE


def _make_backend(kind: str, tmp_path=None):
    if kind == "memory":
        return MemoryBackend(8192)
    if kind == "file":
        return FileBackend(tmp_path / f"ingest-{kind}.log")
    return SharedMemoryBackend(capacity=8192)


def measure_single(backend, beats: int) -> float:
    """Beats/second through the per-call ``heartbeat`` path."""
    hb = Heartbeat(window=20, backend=backend)
    try:
        beat = hb.heartbeat
        start = time.perf_counter()
        for _ in range(beats):
            beat()
        elapsed = time.perf_counter() - start
    finally:
        hb.finalize()
    return beats / elapsed


def measure_batched(backend, beats: int, batch_size: int = BATCH_SIZE) -> float:
    """Beats/second through the ``heartbeat_batch`` path."""
    hb = Heartbeat(window=20, backend=backend)
    try:
        batches, remainder = divmod(beats, batch_size)
        batch = hb.heartbeat_batch
        start = time.perf_counter()
        for _ in range(batches):
            batch(batch_size)
        if remainder:
            batch(remainder)
        elapsed = time.perf_counter() - start
    finally:
        hb.finalize()
    return beats / elapsed


def run_ingest_comparison(tmp_path, kinds=("memory", "file", "shared_memory")) -> dict:
    """Measure single vs. batched ingestion on each backend."""
    beats = _ingest_beats()
    results: dict = {"beats": beats, "batch_size": BATCH_SIZE, "backends": {}}
    for kind in kinds:
        single = measure_single(_make_backend(kind, tmp_path), beats)
        batched = measure_batched(_make_backend(kind, tmp_path), beats)
        results["backends"][kind] = {
            "single_beats_per_sec": single,
            "batched_beats_per_sec": batched,
            "speedup": batched / single,
        }
    return results


def run_file_buffering_comparison(tmp_path) -> dict:
    """Measure buffered vs write-through file appends (the before/after).

    ``FileBackend`` historically issued one ``write`` syscall per beat;
    buffered mode batches lines in a userspace buffer drained on
    ``flush()``, on the staleness interval, or at ~64 KiB.  Measured on the
    raw ``append`` path where the difference lives (the ``heartbeat``
    wrapper adds identical lock/clock cost to both arms and would dilute
    the ratio).  The win scales with the real cost of a ``write`` syscall:
    on tmpfs it is a few tens of percent, on an actual disk-backed
    filesystem several-fold.
    """
    beats = _ingest_beats()

    def raw_append(buffered: bool, name: str) -> float:
        backend = FileBackend(tmp_path / name, buffered=buffered)
        try:
            append = backend.append
            start = time.perf_counter()
            for i in range(beats):
                append(i, 0.5, 0, 1)
            elapsed = time.perf_counter() - start
        finally:
            backend.close()
        return beats / elapsed

    unbuffered = raw_append(False, "ingest-file-unbuffered.log")
    buffered = raw_append(True, "ingest-file-buffered.log")
    return {
        "beats": beats,
        "unbuffered_beats_per_sec": unbuffered,
        "buffered_beats_per_sec": buffered,
        "speedup": buffered / unbuffered,
    }


def run_network_comparison() -> dict:
    """Measure the network backend: live collector vs collector down.

    With the collector up this is the wire-mode counterpart of
    :func:`run_ingest_comparison`; with it down, the numbers demonstrate the
    drop-oldest contract — the beat path keeps its throughput and sheds the
    oldest queued records instead of blocking on a dead peer.
    """
    beats = _ingest_beats()
    results: dict = {"beats": beats, "batch_size": BATCH_SIZE, "mode": "network"}
    with HeartbeatCollector() as collector:
        single = measure_single(
            NetworkBackend(collector.endpoint, stream="bench-single", capacity=8192), beats
        )
        batched = measure_batched(
            NetworkBackend(collector.endpoint, stream="bench-batched", capacity=8192), beats
        )
        results["collector_up"] = {
            "single_beats_per_sec": single,
            "batched_beats_per_sec": batched,
            "speedup": batched / single,
        }
        endpoint = collector.endpoint
    # The collector above is now closed: same endpoint, nobody listening.
    # The ring (the send backlog's one bound) sits below the beat count so
    # drop-oldest must engage.
    backend = NetworkBackend(
        endpoint,
        stream="bench-down",
        capacity=max(256, beats // 4),
        backoff_initial=0.05,
        close_deadline=0.5,
    )
    hb = Heartbeat(window=20, backend=backend)
    batches, remainder = divmod(beats, BATCH_SIZE)
    start = time.perf_counter()
    for _ in range(batches):
        hb.heartbeat_batch(BATCH_SIZE)
    if remainder:
        hb.heartbeat_batch(remainder)
    elapsed = time.perf_counter() - start
    time.sleep(0.3)  # let the sender thread observe the refused connection
    stats = backend.stats()
    hb.finalize()
    results["collector_down"] = {
        "batched_beats_per_sec": beats / elapsed,
        "dropped_records": stats["dropped_records"],
        "pending_records": stats["pending_records"],
        "connect_failures": stats["connect_failures"],
    }
    return results


@pytest.mark.parametrize("backend_kind", ["memory", "file", "shared_memory"])
def test_heartbeat_call_latency(benchmark, backend_kind, tmp_path):
    """Latency of one HB_heartbeat call per storage backend."""
    if backend_kind == "memory":
        backend = MemoryBackend(8192)
    elif backend_kind == "file":
        backend = FileBackend(tmp_path / "bench.log")
    else:
        backend = SharedMemoryBackend(capacity=8192)
    hb = Heartbeat(window=20, backend=backend)
    try:
        benchmark(hb.heartbeat, 1)
    finally:
        hb.finalize()


def test_current_rate_query_latency(benchmark):
    """Latency of a windowed heart-rate query on a warm history."""
    hb = Heartbeat(window=100, history=8192)
    for i in range(5000):
        hb.heartbeat(tag=i)
    rate = benchmark(hb.current_rate)
    assert rate > 0.0


@pytest.mark.parametrize("backend_kind", ["memory", "file", "shared_memory"])
def test_heartbeat_batch_latency(benchmark, backend_kind, tmp_path):
    """Latency of one 64-beat heartbeat_batch call per storage backend."""
    backend = _make_backend(backend_kind, tmp_path)
    hb = Heartbeat(window=20, backend=backend)
    try:
        benchmark(hb.heartbeat_batch, BATCH_SIZE)
    finally:
        hb.finalize()


def test_batched_ingest_speedup(tmp_path):
    """Batched ingestion must beat the per-call path by >= 5x at batch 64.

    This is the tentpole acceptance measurement: one lock acquisition and one
    vectorized slab write per 64 beats versus 64 full heartbeat() calls.  The
    memory backend is the apples-to-apples comparison (the file backend adds
    I/O amortization on top, the shared-memory backend a single seqlock cycle
    per batch).  Best of three runs, so a scheduler stall on a noisy CI host
    cannot fail a real speedup; an actual regression fails all three.
    """
    best: dict[str, float] = {}
    for _ in range(3):
        results = run_ingest_comparison(tmp_path)
        for kind, row in results["backends"].items():
            best[kind] = max(best.get(kind, 0.0), row["speedup"])
        if best["memory"] >= 5.0 and min(best.values()) > 1.0:
            break
    assert best["memory"] >= 5.0, (
        f"batched ingestion only {best['memory']:.1f}x faster than per-call "
        f"on the memory backend (best of 3)"
    )
    for kind, speedup in best.items():
        assert speedup > 1.0, f"{kind}: batched path never beat single-beat ({speedup:.2f}x)"


def test_shm_current_rate_cost_does_not_grow_with_depth():
    """``current_rate()`` on ``shm://`` reads its window, not the ring.

    The application's own rate query copies the ``window`` newest records,
    so a 65 536-slot history must cost about what a 64-slot one does (the
    whole-ring copy it replaced was ~100x).  A ratio between two timings
    taken back to back, best of three — no absolute floor to tune per host.
    """

    def per_call(depth: int) -> float:
        hb = Heartbeat(window=20, backend=f"shm://?depth={depth}")
        try:
            for i in range(depth + 100):  # a full, wrapped ring
                hb.heartbeat(tag=i)
            hb.current_rate()
            start = time.perf_counter()
            for _ in range(2000):
                hb.current_rate()
            return (time.perf_counter() - start) / 2000
        finally:
            hb.finalize()

    best = min(per_call(65536) / per_call(64) for _ in range(3))
    assert best <= 5.0, f"current_rate() at depth 65536 costs {best:.1f}x depth 64 (best of 3)"


def test_file_buffered_appends_beat_write_through(tmp_path):
    """Buffered file appends must beat syscall-per-beat write-through.

    Best of three runs for the same CI-noise immunity as the ingest-speedup
    test; a genuine regression (buffering removed or flushed per beat) fails
    all three.  The 1.05 floor is calibrated to the worst case — tmpfs,
    where a write syscall costs almost nothing — so it passes on any
    filesystem while still failing if buffering stops working (write-
    through plus the staleness check is strictly slower than write-through
    alone).
    """
    best = 0.0
    for _ in range(3):
        best = max(best, run_file_buffering_comparison(tmp_path)["speedup"])
        if best >= 1.10:
            break
    assert best >= 1.05, (
        f"buffered file appends only {best:.2f}x the write-through path (best of 3)"
    )


def test_network_batch_latency(benchmark):
    """Latency of one 64-beat heartbeat_batch call through the network backend.

    The beat path only copies into the local buffer and the bounded send
    queue — the socket lives on the background sender thread — so this must
    sit in the same order of magnitude as the memory backend, not the wire.
    """
    with HeartbeatCollector() as collector:
        backend = NetworkBackend(collector.endpoint, stream="bench-latency", capacity=8192)
        hb = Heartbeat(window=20, backend=backend)
        try:
            benchmark(hb.heartbeat_batch, BATCH_SIZE)
        finally:
            hb.finalize()


def test_monitor_read_latency(benchmark):
    """Latency of an external observer's full health reading."""
    hb = Heartbeat(window=100, history=8192)
    hb.set_target_rate(1.0, 1e9)
    for i in range(5000):
        hb.heartbeat(tag=i)
    monitor = HeartbeatMonitor.attach(hb)
    reading = benchmark(monitor.read)
    assert reading.total_beats == 5000


def main(argv: list[str] | None = None) -> int:
    """Standalone mode: measure ingestion and write the JSON artifact."""
    import argparse
    import pathlib
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--mode",
        choices=("ingest", "network", "all"),
        default="ingest",
        help="ingest: local backends; network: beats/sec over TCP (collector up and down)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="artifact path (default: $BENCH_OUTPUT or BENCH_overhead.json)",
    )
    args = parser.parse_args(argv)
    out_path = pathlib.Path(
        args.output or os.environ.get("BENCH_OUTPUT", "BENCH_overhead.json")
    )

    results: dict = {"timestamp": time.time()}
    if args.mode in ("ingest", "all"):
        with tempfile.TemporaryDirectory() as tmp:
            results.update(run_ingest_comparison(pathlib.Path(tmp)))
            results["file_buffering"] = run_file_buffering_comparison(pathlib.Path(tmp))
        for kind, row in results["backends"].items():
            print(
                f"{kind:>14}: single {row['single_beats_per_sec']:>12,.0f} beats/s   "
                f"batched({results['batch_size']}) {row['batched_beats_per_sec']:>14,.0f} beats/s   "
                f"speedup {row['speedup']:6.1f}x"
            )
        buffering = results["file_buffering"]
        print(
            f"{'file buffering':>14}: write-through {buffering['unbuffered_beats_per_sec']:>9,.0f} beats/s   "
            f"buffered {buffering['buffered_beats_per_sec']:>14,.0f} beats/s   "
            f"speedup {buffering['speedup']:6.1f}x"
        )
    if args.mode in ("network", "all"):
        network = run_network_comparison()
        results["network"] = network
        results.setdefault("beats", network["beats"])
        results.setdefault("batch_size", network["batch_size"])
        up, down = network["collector_up"], network["collector_down"]
        print(
            f"{'network (up)':>14}: single {up['single_beats_per_sec']:>12,.0f} beats/s   "
            f"batched({network['batch_size']}) {up['batched_beats_per_sec']:>14,.0f} beats/s   "
            f"speedup {up['speedup']:6.1f}x"
        )
        print(
            f"{'network (down)':>14}: batched {down['batched_beats_per_sec']:>14,.0f} beats/s   "
            f"dropped {down['dropped_records']:,} records   "
            f"connect failures {down['connect_failures']}"
        )
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
