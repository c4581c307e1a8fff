"""Helpers shared by the ledger's generator, observer, probes and trace replay.

Importing this module puts the repository's ``src/`` on ``sys.path``, so the
benchmark runs from a bare checkout without ``PYTHONPATH``.  Everything here
is benchmark-side arithmetic; nothing reaches into the program.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import time
from pathlib import Path
from typing import IO, Any, Callable, Sequence

import numpy as np

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"

_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Every latency in the ledger is taken in this time base: the producers'
#: ``WallClock(rebase=False)`` is ``time.perf_counter``, which on Linux is
#: CLOCK_MONOTONIC and therefore shared by the generator and the observer.
now = time.perf_counter

#: ``lost_share`` (beats stamped but never seen ÷ beats stamped) has an
#: absolute bound, not a relative one: a run above it is invalid.
LOST_SHARE_BOUND = 1e-4
#: Rates are the median of this many equal windows of the measured interval.
RATE_WINDOWS = 10


#: One rule for every stream, with a window no rate can reach: every step
#: moves the knob, so the actuator sees every decision.  The factory that
#: builds the ``ledger`` actuator is supplied by whoever builds the engine.
ALWAYS_DECIDE = {"loops": [{"match": "*", "target": [1e12, 2e12], "actuator": "ledger"}]}


class Owner:
    """Keeps what it opens and releases it, newest first, on ``close``."""

    def __init__(self) -> None:
        self._closers: list[Callable[[], None]] = []

    def owned(self, thing: Any) -> Any:
        """Register ``thing.close`` and hand ``thing`` back."""
        self._closers.append(thing.close)
        return thing

    def defer(self, release: Callable[[], None]) -> None:
        self._closers.append(release)

    def close(self) -> None:
        """Idempotent: each release runs once."""
        while self._closers:
            self._closers.pop()()


def cell_actuator(*_: object) -> Any:
    """A ``FunctionActuator`` over one private float (an actuator factory)."""
    from repro.adapt import FunctionActuator

    cell = [0.0]

    def set_value(value: float) -> None:
        cell[0] = value

    return FunctionActuator(lambda: cell[0], set_value)


def hello(name: str, **fields: int) -> Any:
    """The ``Hello`` a producer named ``name`` would register with."""
    from repro.net import protocol

    return protocol.decode_hello(protocol.strip_header(protocol.encode_hello(name, pid=1, nonce=1, **fields)))


def encode_frames(records: np.ndarray, per_frame: int) -> bytes:
    """``records`` as consecutive BATCH frames of ``per_frame`` records each."""
    from repro.net import protocol

    payload = protocol.batch_payload(records)
    step = per_frame * records.dtype.itemsize
    parts: list[Any] = []
    for offset in range(0, records.shape[0] * records.dtype.itemsize, step):
        parts.extend(protocol.frame_buffers(protocol.FRAME_BATCH, payload[offset : offset + step]))
    return b"".join(parts)


def emit(stream: IO[str], message: dict[str, Any]) -> None:
    """Write one JSON line and flush (the generator/observer pipe protocol)."""
    stream.write(json.dumps(message, separators=(",", ":")) + "\n")
    stream.flush()


def weighted_quantiles(
    values: np.ndarray, weights: np.ndarray, qs: Sequence[float]
) -> list[float]:
    """Quantiles (``qs`` in [0, 1]) of ``values`` carrying ``weights``."""
    if values.size == 0:
        return [float("nan")] * len(qs)
    order = np.argsort(values, kind="stable")
    values = values[order]
    cumulative = np.cumsum(weights[order])
    cumulative /= cumulative[-1]
    picks = np.searchsorted(cumulative, np.asarray(qs, dtype=np.float64), side="left")
    return [float(values[min(int(i), values.size - 1)]) for i in picks]


def value_at(times: np.ndarray, values: np.ndarray, when: float) -> float:
    """Linear interpolation of a sampled, non-decreasing timeline at ``when``."""
    return float(np.interp(when, times, values))


def window_rates(
    times: np.ndarray, totals: np.ndarray, start: float, end: float
) -> list[float]:
    """Per-window rates of a cumulative count over ``RATE_WINDOWS`` equal windows."""
    edges = np.linspace(start, end, RATE_WINDOWS + 1)
    at_edges = np.interp(edges, times, totals)
    return [float(v) for v in np.diff(at_edges) / np.diff(edges)]


def window_ratios(
    times: np.ndarray, numerator: np.ndarray, denominator: np.ndarray, start: float, end: float
) -> list[float]:
    """Per-window ratio of two cumulative timelines (CPU seconds per beat).

    A window in which the denominator did not move reads NaN, so the list
    keeps one entry per window and lines up with :meth:`HostMeter.window_speeds`.
    """
    edges = np.linspace(start, end, RATE_WINDOWS + 1)
    top = np.diff(np.interp(edges, times, numerator))
    bottom = np.diff(np.interp(edges, times, denominator))
    return [float(t / b) if b > 0 else float("nan") for t, b in zip(top, bottom)]


class HostMeter:
    """What the host gave this process, sampled beside the measurement.

    The benchmark gets a few CPUs of a shared host, and two things change
    under it.  How much work a CPU second buys: the same interpreter code took
    30-45 % more CPU from one second, or one five-minute stretch, to the next,
    and every CPU-bound metric moved with it (26-31 % between the quartiles of
    twenty same-code runs).  And how many CPU seconds a second holds: the
    hypervisor takes a vCPU away for 0-20 % of a second at a time, which the
    kernel reports as steal in ``/proc/stat`` and leaves out of the process's
    CPU time.  No estimator over one run's own windows can take either out; a
    yardstick run on the same CPU, in the same process, at the same time can.

    So each process runs a fixed piece of work about forty times a second
    (about 1 % of its CPU) and reads its CPUs' steal counters beside it.
    ``speed`` = (``REFERENCE_NS`` / the median yardstick of a window) **
    ``FOLLOW``, the yardstick timed in thread CPU time (a wait for the GIL or
    a stolen vCPU is not in it); ``pace`` = ``speed`` x the share of the
    window that was not stolen.  A metric is reported as it would read on a
    host where the yardstick takes ``REFERENCE_NS`` and nothing is stolen: a
    CPU cost is multiplied by ``speed``, a wall time multiplied and a rate
    divided by ``pace``.

    The work is what the program's layers are made of: dict updates, struct
    unpacking and bytes slicing, then small numpy slices and reductions.  A
    bare arithmetic loop followed the host less well than this mix (it
    spread by 13-17 % where the collector's ingest path spread by 10 %, and
    left 8-11 % of it unexplained against 6-7 %).  It is all interpreter
    work, the part of the program that follows the host most closely; system
    calls, numpy's C loops and memory copies follow it less.  ``FOLLOW`` says
    how much of the yardstick's swing the program shows (see its comment).
    """

    #: CPU ns the yardstick takes on the reference host (a unit, chosen near
    #: the reference VM's usual reading).
    REFERENCE_NS = 150_000.0
    #: Share of the yardstick's swing, in logarithms, that the program's own
    #: paths show.  Over two ten-seed passes in which the yardstick ranged over
    #: 0.8-1.5 of the reference, every time-based metric followed it (|r| =
    #: 0.8-0.99) with a log-log slope between 0.4 (wire-tree's producers, big
    #: frames and system calls) and 1.1 (fleet-observe's ticks); fully scaled,
    #: the same-code spread between quartiles was at worst 26 %, unscaled 38 %,
    #: and 13-16 % for any value from 0.5 to 0.75, where the medians of the two
    #: passes also agreed best.  One value for every metric and workload.
    FOLLOW = 0.65
    #: Least time between two samples.
    GAP_S = 0.025

    def __init__(self) -> None:
        self.times: list[float] = []
        self.yardsticks_ns: list[int] = []
        self.stolen_s: list[float] = []
        #: CPU seconds the meter itself has used: the caller takes them off
        #: the process's CPU time, so the yardstick is in no reported cost.
        self.cpu_s = 0.0
        self._next = 0.0
        self._counts: dict[int, int] = {}
        self._bytes = bytes(2048)
        self._unpack = struct.Struct("!IHH").unpack_from
        self._array = np.zeros(256)
        self._tick_s = 1.0 / os.sysconf("SC_CLK_TCK")

    def _yardstick_ns(self) -> int:
        counts, data, unpack, array = self._counts, self._bytes, self._unpack, self._array
        start = time.thread_time_ns()
        total = 0
        for i in range(300):
            key = i & 63
            counts[key] = counts.get(key, 0) + 1
            total += unpack(data, key)[0] + len(data[key : key + 16])
        for i in range(30):
            (array[i : i + 64] * 2.0).sum()
        return time.thread_time_ns() - start

    def _stolen_s(self) -> float:
        """Steal seconds so far, averaged over the CPUs this process may run on."""
        cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
        try:
            with open("/proc/stat") as stat:
                fields = [line.split() for line in stat if line.startswith("cpu")]
        except OSError:
            return 0.0
        ticks = [int(f[8]) for f in fields if f[0] in cpus and len(f) > 8]
        return sum(ticks) / len(ticks) * self._tick_s if ticks else 0.0

    def sample(self, at: float) -> None:
        """Take one sample if the last one is at least ``GAP_S`` old.

        The yardstick runs twice and the quicker run counts: an interrupt
        lands in one of them, not in the work being measured.
        """
        if at >= self._next:
            began = time.thread_time()
            self._next = at + self.GAP_S
            self.yardsticks_ns.append(min(self._yardstick_ns(), self._yardstick_ns()))
            self.stolen_s.append(self._stolen_s())
            self.times.append(at)
            self.cpu_s += time.thread_time() - began

    def speed(self, start: float, end: float) -> float:
        """(Reference / median yardstick sampled in ``[start, end]``) ** FOLLOW; NaN without samples."""
        times = np.asarray(self.times)
        inside = np.asarray(self.yardsticks_ns, dtype=np.float64)[(times >= start) & (times <= end)]
        return (self.REFERENCE_NS / float(np.median(inside))) ** self.FOLLOW if inside.size else float("nan")

    def available(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` the hypervisor left to this process's CPUs."""
        if len(self.times) < 2 or end <= start:
            return 1.0
        stolen = np.interp([start, end], self.times, self.stolen_s)
        return min(1.0, max(0.5, 1.0 - float(stolen[1] - stolen[0]) / (end - start)))

    def pace(self, start: float, end: float) -> float:
        return self.speed(start, end) * self.available(start, end)

    def _windows(self, measure: Callable[[float, float], float], start: float, end: float) -> list[float]:
        """``measure`` per rate window; a window without a sample takes the interval's."""
        edges = np.linspace(start, end, RATE_WINDOWS + 1)
        values = [measure(a, b) for a, b in zip(edges[:-1], edges[1:])]
        whole = measure(start, end)
        return [whole if np.isnan(v) else v for v in values]

    def window_speeds(self, start: float, end: float) -> list[float]:
        return self._windows(self.speed, start, end)

    def window_paces(self, start: float, end: float) -> list[float]:
        return self._windows(self.pace, start, end)


def median(values: Sequence[float] | np.ndarray) -> float:
    """Median of the values that are not NaN."""
    return float(np.nanmedian(np.asarray(values, dtype=np.float64)))


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return float("nan")
    return float(np.percentile(array, q))
