"""The load generator: one thread, at most two connections.

Each workload is a :class:`Generator` that reaches the program only through
its front door (``repro.Heartbeat``, ``repro.endpoints.open_backend`` /
``open_arena``, the ``repro.net.protocol`` encoders) and a :class:`Session`
that owns the observer child process (``observer.py``) for one set-up.
``--seed`` fixes tags, hot sets and the observer's tick jitter; the program
sees only the generated inputs.
"""

from __future__ import annotations

import itertools
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import common  # noqa: F401  (puts src/ on sys.path before repro is imported)
import numpy as np
import spec
from common import (
    LEDGER_DIR,
    LOST_SHARE_BOUND,
    Owner,
    HostMeter,
    emit,
    encode_frames,
    median,
    now,
    percentile,
    value_at,
    window_ratios,
)
from observer import LineReader

from repro import Heartbeat, WallClock, open_backend
from repro.core.record import RECORD_DTYPE
from repro.endpoints import Endpoint, open_arena
from repro.net import protocol

#: Set-ups per run; ``setup_s`` is their median (the last one is measured on).
SETUP_REPEATS = 5
#: Seconds the generator waits for any single answer from the observer.
_ANSWER_TIMEOUT_S = 60.0
#: Two-phase workloads: share of the measured seconds spent in the closed loop
#: (phase A, throughput); the rest is the open loop (phase B, latency), whose
#: head is left to drain phase A's queues.
_CLOSED_SHARE = 0.4
_SETTLE_S = 1.0
#: A paced send is late when it starts more than this after it was due.  Beats
#: stamped while the generator was behind its schedule are left out of the
#: latency sample, and a run with more than ``_LATE_SHARE_LIMIT`` of its sends
#: late is marked disturbed: what is left hardly stands for the open loop.  (A
#: sleeping vCPU of a busy hypervisor wakes late: the share is 0.1-9 % in the
#: host's quiet minutes and reached 71 % in its worst, with the program's
#: outputs all correct -- which is why this marks the run and does not fail it.)
_LATE_LIMIT_S = 0.001
_LATE_SHARE_LIMIT = 0.25
#: A process busy at least this share of the closed loop sets the loop's
#: rate, and an observer that busy pays its CPU per beat, not per poll.
_BUSY_SHARE = 0.5
#: wire-tree closed loop: do not queue on an exporter already holding this
#: many records (its drop-oldest bound is 65 536).
_EXPORTER_BACKLOG = 32_768

_ns = time.perf_counter_ns
_segment_counter = itertools.count()


def _segment_name() -> str:
    return f"ledger-{os.getpid()}-{next(_segment_counter)}"


@dataclass(slots=True)
class Marks:
    """What the generator measured on its own side of one run."""

    #: Interval the observer's rates and CPU cost are taken over: the closed
    #: loop where there is one, because per-beat ingest cost is what it is at
    #: saturation.
    rate: tuple[float, float]
    #: Interval whose beats are given latencies, and over which the producer's
    #: own costs are taken: the open loop where there is one, because a
    #: producer held back by flow control mostly measures how it is parked.
    lat: tuple[float, float]
    #: Two-phase workloads: the open loop's rate per stream.
    paced_per_stream: float | None = None


class Generator(Owner):
    """Base of the five generators: samples plus the closed/open loop shape.

    ``close`` (from :class:`Owner`) releases what the generator opened;
    segments are unlinked there.
    """

    #: Beats/s over all streams in the open-loop phase B; ``None``: one phase only.
    paced_rate: float | None = None
    #: False when ``run`` itself is an open loop: its rate is the schedule's,
    #: not the host's, and is reported as it reads.
    closed_loop = True

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.clock = WallClock(rebase=False)
        self.meter = HostMeter()
        #: Wall ns per beat inside the call that hands beats to the program.
        self.call_ns: list[float] = []
        #: Open loop: how late each paced send started, seconds.
        self.late_s: list[float] = []
        #: Open loop: intervals from a late send's due time until the next send
        #: that started on time, and the due time of the one still open.
        self.late_spans: list[tuple[float, float]] = []
        self._behind_since: float | None = None
        #: ``(time, process CPU seconds, beats stamped)`` once per loop round.
        self.timeline: list[tuple[float, float, int]] = []
        #: Ungated extras for the detail table.
        self.detail: dict[str, float] = {}

    def prepare(self) -> dict[str, Any]:
        """Create what must exist before the observer starts; returns its config."""
        return {}

    def open(self, ready: dict[str, Any]) -> None:
        """Open the endpoints that need the observer's addresses."""

    def first_beat(self) -> None:
        raise NotImplementedError

    def run(self, session: "Session", seconds: float) -> None:
        """The workload's main loop (closed, except on fleet-observe)."""
        raise NotImplementedError

    def run_paced(self, session: "Session", seconds: float) -> None:
        """Phase B of a two-phase workload: the open loop at ``paced_rate``."""
        raise NotImplementedError

    def measure(self, session: "Session", seconds: float) -> Marks:
        self.call_ns.clear()
        self.late_s.clear()
        self.late_spans.clear()
        self._behind_since = None
        self.timeline.clear()
        start = now()
        if self.paced_rate is None:
            self.run(session, seconds)
            whole = (start, self._caught_up(now()))
            return Marks(rate=whole, lat=whole)
        self.run(session, seconds * _CLOSED_SHARE)
        self.detail["beat_ns_p50_closed"] = percentile(self.call_ns, 50)
        self.call_ns.clear()
        middle = now()
        self.run_paced(session, seconds * (1.0 - _CLOSED_SHARE))
        end = self._caught_up(now())
        settled = middle + min(_SETTLE_S, (end - middle) / 3)
        return Marks(rate=(start, middle), lat=(settled, end), paced_per_stream=self.paced_rate / 2)

    def stamped(self) -> dict[str, int]:
        raise NotImplementedError

    def stamped_total(self) -> int:
        raise NotImplementedError

    def _mark(self) -> None:
        at = now()
        self.timeline.append((at, time.process_time() - self.meter.cpu_s, self.stamped_total()))
        self.meter.sample(at)

    def flush(self) -> None:
        """Hand every stamped beat to the program (wire producers close here)."""

    def _pace(self, session: "Session", due: float) -> None:
        """Sleep until ``due`` (no spinning: pacing must cost the producer no
        CPU) and record how late the send then starts."""
        while now() < due:
            session.poll(due - now())
        started = now()
        self.late_s.append(started - due)
        if started - due <= _LATE_LIMIT_S:
            self._caught_up(started)
        elif self._behind_since is None:
            self._behind_since = due
        self._mark()

    def _caught_up(self, at: float) -> float:
        """Close the interval in which the generator was behind, if one is open."""
        if self._behind_since is not None:
            self.late_spans.append((self._behind_since, at))
            self._behind_since = None
        return at


class BeatLocal(Generator):
    """``heartbeat()`` once per item on ``shm://``, ``current_rate()`` every 100."""

    ITEMS_PER_BLOCK = 100

    def prepare(self) -> dict[str, Any]:
        name = _segment_name()
        self.tags = [int(t) for t in self.rng.integers(0, 1 << 31, size=self.ITEMS_PER_BLOCK)]
        self.rate_ns: list[int] = []
        self.hb = Heartbeat(
            name="local", clock=self.clock, backend=open_backend(f"shm://{name}?depth=65536")
        )
        self.defer(self.hb.finalize)
        return {"shm": f"shm://{name}"}

    def first_beat(self) -> None:
        self.hb.heartbeat(0)

    def run(self, session: "Session", seconds: float) -> None:
        beat, rate, tags = self.hb.heartbeat, self.hb.current_rate, self.tags
        calls, rates = self.call_ns, self.rate_ns
        per_block = float(len(tags))
        end = _ns() + int(seconds * 1e9)
        while True:
            t0 = _ns()
            for tag in tags:
                beat(tag)
            t1 = _ns()
            rate()
            t2 = _ns()
            calls.append((t1 - t0) / per_block)
            rates.append(t2 - t1)
            self._mark()
            if t2 >= end:
                break
        self.detail["current_rate_us_p50"] = percentile(rates, 50) / 1e3

    def stamped(self) -> dict[str, int]:
        return {"local": self.hb.count}

    def stamped_total(self) -> int:
        return self.hb.count


class WireTree(Generator):
    """Two real ``tcp://`` producers, ``heartbeat_batch(64)``, closed then open loop."""

    paced_rate = spec.TREE_PACED_RATE

    def open(self, ready: dict[str, Any]) -> None:
        self.tags = self.rng.integers(0, 1 << 31, size=spec.TREE_BATCH)
        self.hbs = []
        for i in range(2):
            hb = Heartbeat(
                window=4096,
                name=f"p{i}",
                clock=self.clock,
                backend=f"{ready['dial']}?capacity=65536&stream=p{i}",
            )
            self.defer(hb.finalize)
            self.hbs.append(hb)

    def first_beat(self) -> None:
        for hb in self.hbs:
            hb.heartbeat_batch(spec.TREE_BATCH, self.tags)

    def stamped_total(self) -> int:
        return self.hbs[0].count + self.hbs[1].count

    def run(self, session: "Session", seconds: float) -> None:
        """Closed loop: a bounded number of beats between stamp and root records."""
        batch, tags, calls = spec.TREE_BATCH, self.tags, self.call_ns
        end = now() + seconds
        rounds = 0
        while now() < end:
            if rounds % 8 == 0:
                session.poll(0.0)
                # Per stream, not over both: the edge keeps 65 536 records of
                # each, and one stream relayed late while the other is not
                # would otherwise be lapped there (8 192 beats lost, once).
                while now() < end and any(
                    hb.count - at_root > spec.TREE_WINDOW or hb.backend.stats()["pending_records"] > _EXPORTER_BACKLOG
                    for hb, at_root in zip(self.hbs, session.root_records)
                ):
                    session.poll(0.001)
            for hb in self.hbs:
                t0 = _ns()
                hb.heartbeat_batch(batch, tags)
                calls.append((_ns() - t0) / batch)
            self._mark()
            rounds += 1

    def run_paced(self, session: "Session", seconds: float) -> None:
        """Open loop: one batch every ``batch / rate`` seconds, streams alternating."""
        batch, tags = spec.TREE_BATCH, self.tags
        interval = batch / self.paced_rate
        due = now()
        end = due + seconds
        turn = 0
        while due < end:
            self._pace(session, due)
            t0 = _ns()
            self.hbs[turn & 1].heartbeat_batch(batch, tags)
            self.call_ns.append((_ns() - t0) / batch)
            turn += 1
            due += interval

    def stamped(self) -> dict[str, int]:
        return {hb.name: hb.count for hb in self.hbs}

    def flush(self) -> None:
        dropped = sent = 0
        for hb in self.hbs:
            hb.finalize()
            stats = hb.backend.stats()
            dropped += stats["dropped_records"]
            sent += stats["sent_records"]
        self.detail["exporter_dropped_records"] = dropped
        self.detail["exporter_sent_records"] = sent


class WireSmall(Generator):
    """Raw blocking sockets: HELLO, then 4-record BATCH frames.

    Phase A is closed by TCP flow control (``sendall`` blocks); phase B sends
    one chunk every ``chunk / rate`` seconds, connections alternating.
    """

    paced_rate = spec.SMALL_PACED_RATE

    def open(self, ready: dict[str, Any]) -> None:
        address = Endpoint.parse(ready["dial"]).address
        n = spec.SMALL_CHUNK_FRAMES * spec.SMALL_FRAME_RECORDS
        self.records = np.empty(n, dtype=RECORD_DTYPE)
        self.records["tag"] = self.rng.integers(0, 1 << 31, size=n)
        self.offsets = np.arange(n, dtype=np.int64)
        self.fractions = np.arange(1, n + 1, dtype=np.float64) / n
        self.sent = [0, 0]
        self.last_stamp = [0.0, 0.0]
        self.socks = []
        for i in range(2):
            sock = self.owned(socket.create_connection(address, timeout=_ANSWER_TIMEOUT_S))
            hello = protocol.encode_hello(
                f"s{i}", pid=os.getpid(), nonce=i + 1, capacity=4096, default_window=4096
            )
            sock.sendall(hello)
            self.socks.append(sock)

    def _send_chunk(self, i: int) -> None:
        """Stamp, encode and send one chunk of frames on connection ``i``."""
        records, n = self.records, self.records.shape[0]
        stamp, previous = now(), self.last_stamp[i]
        records["beat"] = self.offsets + self.sent[i]
        # Spread like heartbeat_batch does: evenly since the previous chunk.
        records["timestamp"] = stamp if previous == 0.0 else previous + (stamp - previous) * self.fractions
        records["thread_id"] = i
        self.socks[i].sendall(encode_frames(records, spec.SMALL_FRAME_RECORDS))
        self.sent[i] += n
        self.last_stamp[i] = stamp

    def first_beat(self) -> None:
        for i in range(2):
            self._send_chunk(i)

    def run(self, session: "Session", seconds: float) -> None:
        calls, n = self.call_ns, float(self.records.shape[0])
        end = now() + seconds
        while now() < end:
            for i in range(2):
                t0 = _ns()
                self._send_chunk(i)
                calls.append((_ns() - t0) / n)
            self._mark()

    def run_paced(self, session: "Session", seconds: float) -> None:
        interval = self.records.shape[0] / self.paced_rate
        due = now()
        end = due + seconds
        turn = 0
        n = float(self.records.shape[0])
        while due < end:
            self._pace(session, due)
            t0 = _ns()
            self._send_chunk(turn & 1)
            self.call_ns.append((_ns() - t0) / n)
            turn += 1
            due += interval

    def stamped(self) -> dict[str, int]:
        return {f"s{i}": self.sent[i] for i in range(2)}

    def stamped_total(self) -> int:
        return self.sent[0] + self.sent[1]

    def flush(self) -> None:
        for i, sock in enumerate(self.socks):
            sock.sendall(protocol.encode_close(self.sent[i]))
            sock.close()


class FleetObserve(Generator):
    """4-beat bursts into a rotating hot set of a ``shm-arena://`` slab, open loop."""

    closed_loop = False

    def prepare(self) -> dict[str, Any]:
        name = _segment_name()
        url = f"shm-arena://{name}?streams={spec.FLEET_ROWS}&depth={spec.FLEET_DEPTH}"
        self.owned(open_arena(url))
        self.names = [f"r{i:05d}" for i in range(spec.FLEET_ROWS)]
        rows = [open_backend(f"{url}&stream={row}") for row in self.names]
        order = self.rng.permutation(spec.FLEET_ROWS).reshape(-1, spec.FLEET_BURST_ROWS)
        self.hot_sets = [[rows[i] for i in hot] for hot in order]
        self.hot_names = [[self.names[i] for i in hot] for hot in order]
        self.record = np.zeros(spec.FLEET_BURST_BEATS, dtype=RECORD_DTYPE)
        self.record["tag"] = self.rng.integers(0, 1 << 31, size=spec.FLEET_BURST_BEATS)
        self.offsets = np.arange(spec.FLEET_BURST_BEATS, dtype=np.int64)
        self.bursts = 0
        return {"arena": f"shm-arena://{name}"}

    def _burst(self) -> None:
        record, beats = self.record, spec.FLEET_BURST_BEATS
        visit, hot = divmod(self.bursts, len(self.hot_sets))
        t0 = _ns()
        record["beat"] = self.offsets + visit * beats
        record["timestamp"] = self.clock.now()
        for row in self.hot_sets[hot]:
            row.append_many(record)
        self.call_ns.append((_ns() - t0) / (beats * spec.FLEET_BURST_ROWS))
        self.bursts += 1

    def first_beat(self) -> None:
        self._burst()

    def run(self, session: "Session", seconds: float) -> None:
        low, high = 0.5 * spec.FLEET_BURST_GAP_S, 1.5 * spec.FLEET_BURST_GAP_S
        due = now()
        end = due + seconds
        while due < end:
            self._pace(session, due)
            self._burst()
            # Seeded-uniform gaps around the period: a fixed one phase-locks
            # with back-to-back ticks that take about as long.
            due += float(self.rng.uniform(low, high))

    def stamped_total(self) -> int:
        return self.bursts * spec.FLEET_BURST_BEATS * spec.FLEET_BURST_ROWS

    def stamped(self) -> dict[str, int]:
        visits, partial = divmod(self.bursts, len(self.hot_sets))
        beats = spec.FLEET_BURST_BEATS
        return {
            name: (visits + (1 if hot < partial else 0)) * beats
            for hot, names in enumerate(self.hot_names)
            for name in names
        }


GENERATORS: dict[str, type[Generator]] = {
    "beat-local": BeatLocal,
    "wire-tree": WireTree,
    "wire-small-frames": WireSmall,
    "wire-small-durable": WireSmall,
    "fleet-observe": FleetObserve,
}


class Session:
    """One set-up: the generator's endpoints plus a live observer process.

    ``setup_s`` runs from before anything is created until the observer
    reports the first beat visible in a ``FleetSample``: process spawn,
    endpoint open, HELLO/registration and the first observation.
    """

    def __init__(self, workload: spec.Workload, seed: int, scratch: Path, cpus: list[int] | None = None) -> None:
        started = now()
        self.workload = workload
        self.root_records = [0, 0]
        self.proc: subprocess.Popen[bytes] | None = None
        self.gen = GENERATORS[workload.name](seed)
        self.stderr_path = Path(tempfile.mkstemp(dir=scratch, suffix=".stderr")[1])
        self.journal_dir: str | None = None
        try:
            config = {"workload": workload.name, "seed": seed, "cpus": cpus, **self.gen.prepare()}
            if workload.attach in ("durable", "tree"):
                self.journal_dir = tempfile.mkdtemp(dir=scratch, prefix="journal-")
                config["journal_dir"] = self.journal_dir
            with open(self.stderr_path, "wb") as stderr:
                self.proc = subprocess.Popen(
                    [sys.executable, str(LEDGER_DIR / "observer.py")],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=stderr,
                )
            assert self.proc.stdin is not None and self.proc.stdout is not None
            self.commands = open(self.proc.stdin.fileno(), "w", closefd=False)
            self.answers = LineReader(self.proc.stdout.fileno())
            emit(self.commands, config)
            self.gen.open(self.wait_for("ready"))
            self.gen.first_beat()
            self.wait_for("first")
        except BaseException:
            self.fail()
            raise
        self.setup_s = now() - started

    def poll(self, timeout: float) -> list[dict[str, Any]]:
        """Sleep up to ``timeout`` on the observer's pipe; keeps ``root_records`` fresh."""
        messages = self.answers.lines(timeout)
        for message in messages:
            if "r" in message:
                self.root_records = message["r"]
        return messages

    def wait_for(self, key: str) -> Any:
        deadline = now() + _ANSWER_TIMEOUT_S
        while now() < deadline:
            for message in self.poll(0.05):
                if key in message:
                    return message[key]
        raise TimeoutError(f"{self.workload.name}: observer did not answer {key!r}")

    def finish(self, marks: Marks) -> tuple[dict[str, Any], str]:
        """Flush, stop the observer, and return its result and its stderr."""
        self.gen.flush()
        stop = {
            "stamped": self.gen.stamped(),
            "rate": marks.rate,
            "lat": marks.lat,
            "paced_per_stream": marks.paced_per_stream,
            "late_spans": self.gen.late_spans,
        }
        emit(self.commands, {"stop": stop})
        result = self.wait_for("result")
        return result, self._reap()

    def abort(self) -> None:
        """Tear a set-up down without measuring on it."""
        emit(self.commands, {"stop": {"abort": True}})
        self._reap()

    def _reap(self) -> str:
        assert self.proc is not None
        try:
            self.proc.wait(timeout=_ANSWER_TIMEOUT_S)
        finally:
            self.kill()
        return self.stderr_path.read_text(errors="replace")

    def fail(self) -> None:
        """Kill, and show what the observer wrote to stderr before its file goes."""
        self.kill()
        stderr = self.stderr_path.read_text(errors="replace").strip()
        if stderr:
            print(f"{self.workload.name}: observer stderr:\n{stderr}", file=sys.stderr)

    def kill(self) -> None:
        """Stop the observer if it is still alive and release everything."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            for pipe in (self.proc.stdin, self.proc.stdout):
                if pipe is not None:
                    pipe.close()
        self.gen.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


#: Measured on every run and printed, but not gated (see the README).
UNGATED = (
    "staleness_ms_p90",
    "staleness_ms_p99",
    "decision_ms_p99",
    "latency_dropped_share",
    "decisions_per_s",
    "poll_ms_p50",
    "tick_ms_p50",
    "tick_ms_p99",
    "ticks",
    "observer_busy_share",
)


def split_cpus() -> tuple[set[int], set[int]] | None:
    """``(generator CPUs, observer CPUs)``, or ``None`` on a one-CPU host.

    With the two processes free to roam over two CPUs, a sleeping generator
    wakes either beside the busy observer or on top of it, and which one
    sticks for a whole run: ``beat_ns_p50`` on fleet-observe read 1.05 us or
    2.1 us per run.  Giving each process its own CPUs removes the lottery.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


def warmup_seconds(seconds: float) -> float:
    return min(3.0, max(1.0, seconds / 5.0))


def run_workload(workload: spec.Workload, seed: int, seconds: float, scratch: Path) -> dict[str, Any]:
    """Set up ``SETUP_REPEATS`` times, warm up, measure, and check the outputs."""
    setups: list[float] = []
    session: Session | None = None
    allowed = os.sched_getaffinity(0)
    split = split_cpus()
    try:
        if split is not None:
            os.sched_setaffinity(0, split[0])
        for attempt in range(SETUP_REPEATS):
            session = Session(workload, seed, scratch, cpus=None if split is None else sorted(split[1]))
            setups.append(session.setup_s)
            if attempt < SETUP_REPEATS - 1:
                session.abort()
        assert session is not None
        gen = session.gen
        gen.run(session, warmup_seconds(seconds))
        marks = gen.measure(session, seconds)
        observed, stderr = session.finish(marks)
    except BaseException:
        if session is not None:
            session.fail()
        raise
    finally:
        os.sched_setaffinity(0, allowed)

    times, cpu, stamps = (np.asarray(column, dtype=np.float64) for column in zip(*gen.timeline))

    def generator_busy_share(start: float, end: float) -> float:
        return (value_at(times, cpu, end) - value_at(times, cpu, start)) / (end - start)

    # What each metric is scaled by (see HostMeter): a CPU cost, or the median
    # of many short wall times, by the speed of the process that paid it; a
    # rate or a latency made of long computations by the pace (speed x share
    # not stolen) of the process that set it.  A closed loop goes as fast as
    # its busy process, or as both allow when both are busy; an open loop's
    # rate is its schedule's.  An observer that ticks back to back uses its
    # whole CPU at any speed, so its CPU per beat is the paced rate's
    # reciprocal and only its latencies, which are made of tick times, move
    # with the host; the other observers tick on timers, so their latencies
    # are the timers'.  An observer on a timer beside a closed loop spends CPU
    # per poll, not per beat, so its cost per beat moves with the beat rate.
    unscaled = [1.0] * len(observed["rates"])
    flat_out = workload.tick == "back_to_back"
    observer_busy = observed["observer_busy_share"] >= _BUSY_SHARE
    generator_busy = generator_busy_share(*marks.rate) >= _BUSY_SHARE
    if not gen.closed_loop or not (observer_busy or generator_busy):
        rate_paces = unscaled
    elif observer_busy and generator_busy:
        rate_paces = list(np.sqrt(np.multiply(gen.meter.window_paces(*marks.rate), observed["paces"])))
    elif generator_busy:
        rate_paces = gen.meter.window_paces(*marks.rate)
    else:
        rate_paces = observed["paces"]
    if flat_out:
        observer_speeds = unscaled
    elif observer_busy:
        observer_speeds = observed["speeds"]
    else:
        observer_speeds = rate_paces
    latency_pace = observed["latency_pace"] if flat_out else 1.0
    call_speed, producer_speeds = gen.meter.speed(*marks.lat), gen.meter.window_speeds(*marks.lat)
    # Set-up is over before anything can be measured beside it; what the two
    # processes' yardsticks read over the whole measured interval says which
    # phase the host was in during those seconds (set-up followed it from
    # pass to pass, 0.23 s against 0.29 s, though not from one set-up to the
    # next), and both processes take part in a set-up.
    setup_speed = float(np.sqrt(gen.meter.speed(marks.rate[0], marks.lat[1]) * observed["run_speed"]))
    producer_cpu = window_ratios(times, cpu, stamps, *marks.lat)
    raw = {
        "setup_s": median(setups),
        "beats_per_s": median(observed["rates"]),
        "beat_ns_p50": percentile(gen.call_ns, 50),
        "producer_cpu_s_per_mbeat": median(producer_cpu) * 1e6,
        "observer_cpu_s_per_mbeat": median(observed["cpu_per_beat"]) * 1e6,
        "staleness_ms_p50": observed["staleness_ms_p50"],
        "decision_ms_p50": observed["decision_ms_p50"],
    }
    metrics = {
        "setup_s": raw["setup_s"] * setup_speed,
        "beats_per_s": median(np.divide(observed["rates"], rate_paces)),
        "beat_ns_p50": raw["beat_ns_p50"] * call_speed,
        "producer_cpu_s_per_mbeat": median(np.multiply(producer_cpu, producer_speeds)) * 1e6,
        "observer_cpu_s_per_mbeat": median(np.multiply(observed["cpu_per_beat"], observer_speeds)) * 1e6,
        "staleness_ms_p50": raw["staleness_ms_p50"] * latency_pace,
        "decision_ms_p50": raw["decision_ms_p50"] * latency_pace,
        "rss_mb_peak": observed["rss_mb_peak"],
    }
    checks: dict[str, bool] = dict(observed["checks"])
    checks["observer_stderr_quiet"] = stderr.strip() == ""
    #: What the open loop needs from the host to mean what it says.  A run that
    #: lacks it is marked ``disturbed`` and left out by ``compare``; the
    #: program's outputs were still checked, so it is not a failed run.
    conditions: dict[str, bool] = {}
    detail: dict[str, Any] = {key: observed[key] for key in UNGATED}
    detail.update(observed["detail"])
    detail.update(gen.detail)
    detail.update({f"{name}_raw": value for name, value in raw.items()})
    detail.update(
        host_speed_generator=gen.meter.speed(*marks.lat),
        host_speed_observer=median(observed["speeds"]),
        host_stolen_share_generator=1.0 - gen.meter.available(*marks.rate),
        host_stolen_share_observer=1.0 - median(np.divide(observed["paces"], observed["speeds"])),
        generator_busy_share=generator_busy_share(*marks.rate),
        beat_ns_p99=percentile(gen.call_ns, 99),
        setups_s=setups,
        rate_windows=observed["rates"],
    )
    if marks.rate != marks.lat:
        closed = median(window_ratios(times, cpu, stamps, *marks.rate)) * 1e6
        detail["producer_cpu_s_per_mbeat_closed"] = closed
    if gen.late_s:  # an open loop ran: its latency interval is the paced one
        late = np.asarray(gen.late_s)
        detail["generator_late_ms_p50"] = percentile(late, 50) * 1e3
        detail["generator_late_ms_p99"] = percentile(late, 99) * 1e3
        detail["generator_late_share"] = float((late > _LATE_LIMIT_S).mean())
        detail["generator_cpu_share_paced"] = generator_busy_share(*marks.lat)
        conditions["generator_on_time"] = detail["generator_late_share"] <= _LATE_SHARE_LIMIT
        conditions["generator_not_saturated"] = detail["generator_cpu_share_paced"] <= 0.9
    attempted = sum(gen.stamped().values())
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "correct": all(checks.values()) and observed["lost"] <= attempted * LOST_SHARE_BOUND,
        "attempted": attempted,
        "failed": int(observed["lost"]),
        "metrics": metrics,
        "checks": checks,
        "disturbed": sorted(name for name, ok in conditions.items() if not ok),
        "detail": detail,
        "stderr": stderr,
    }
