"""The observer process: everything that watches beats runs here.

Spawned by the generator (``workloads.py``) so the load generator and the
observers do not share a GIL.  One implementation serves all five workloads:
whatever the workload attaches (a ``shm://`` segment, a ``shm-arena://`` slab,
a collector, a durable collector, or an edge → root tree) is observed through
a ``HeartbeatAggregator`` and adapted by a spec-built ``AdaptationEngine``
whose actuator is a benchmark-owned ``FunctionActuator`` that records when
each decision was applied.

Protocol (JSON lines): the first stdin line is the configuration; the
observer answers ``{"ready": ...}`` once its endpoints are open,
``{"first": t}`` when the first beat is visible in a ``FleetSample``,
``{"r": [records per stream]}`` root-record feedback for the closed loop (tree only), and
``{"result": ...}`` after the ``{"stop": ...}`` command.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import sys
import threading
from typing import Any

import common  # noqa: F401  (puts src/ on sys.path before repro is imported)
import numpy as np
from common import (
    ALWAYS_DECIDE,
    HostMeter,
    emit,
    now,
    percentile,
    value_at,
    weighted_quantiles,
    window_rates,
    window_ratios,
)
from spec import BY_NAME

from repro import AdaptSpec, HeartbeatAggregator, WallClock, open_collector, open_source
from repro.adapt import FunctionActuator
from repro.core.errors import MonitorAttachError
from repro.endpoints import TcpEndpoint, open_arena
from repro.net.persistence import StreamJournal

#: Gap between ticks while waiting for the first beat and while draining.
_FAST_GAP_S = 0.002
#: 10 Hz external observer (beat-local).
_FIXED_GAP_S = 0.1
#: Seeded-uniform tick gaps that de-phase the 50 ms relay sweep.
_JITTER_GAP_S = (0.02, 0.08)
#: Points standing in for the beats one sample newly covers.
_POINTS_PER_ENTRY = 16
#: Root/edge ``records`` sampling period (closed-loop feedback, forward lag).
_SAMPLER_PERIOD_S = 0.005
#: The wire-tree producers' stream names, in the generator's order.
_TREE_STREAMS = ("p0", "p1")


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB.

    ``VmHWM`` belongs to the address space this program was exec'ed into;
    ``ru_maxrss`` also remembers the spawning process's size, so it would
    report the generator's memory whenever that is the larger one.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TimedAggregator(HeartbeatAggregator):
    """The aggregator, with the wall time of its last ``poll()`` kept."""

    last_poll_s = 0.0

    def poll(self):  # type: ignore[no-untyped-def]
        start = now()
        sample = super().poll()
        self.last_poll_s = now() - start
        return sample


class LineReader:
    """Non-blocking line reader over a pipe file descriptor."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self._buffer = b""

    def lines(self, timeout: float) -> list[dict[str, Any]]:
        """Messages available within ``timeout`` seconds (possibly none)."""
        ready, _, _ = select.select([self.fd], [], [], max(timeout, 0.0))
        if not ready:
            return []
        data = os.read(self.fd, 1 << 16)
        if not data:
            raise EOFError("pipe closed")
        self._buffer += data
        *complete, self._buffer = self._buffer.split(b"\n")
        return [json.loads(line) for line in complete if line]


class Observer:
    def __init__(self, config: dict[str, Any]) -> None:
        self.config = config
        self.workload = BY_NAME[config["workload"]]
        self.rng = np.random.default_rng(config["seed"])
        self.clock = WallClock(rebase=False)
        self.meter = HostMeter()
        self.out_lock = threading.Lock()
        self.root = None
        self.edge = None
        self.journal_dir: str | None = config.get("journal_dir")

        # Decision bookkeeping, one slot per managed stream.
        self.slot: dict[str, int] = {}
        self.values: list[float] = []
        self.applied_at: list[float] = []

        self.aggregator = TimedAggregator(clock=self.clock)
        self.engine = AdaptSpec.from_dict(ALWAYS_DECIDE).build_engine(
            aggregator=self.aggregator, actuators={"ledger": self._make_actuator}
        )

        # Per-tick timeline.
        self.t_taken: list[float] = []
        self.t_total: list[int] = []
        self.t_cpu: list[float] = []
        self.t_tick_s: list[float] = []
        self.t_poll_s: list[float] = []
        self.t_decisions: list[int] = []
        self.t_errors: list[tuple[float, str]] = []
        # Per (tick, stream with new beats) latency entries.
        self.e_new: list[np.ndarray] = []
        self.e_last: list[np.ndarray] = []
        self.e_prev: list[np.ndarray] = []
        self.e_taken: list[np.ndarray] = []
        self.e_applied: list[np.ndarray] = []
        self.e_rate: list[tuple[float, np.ndarray]] = []
        self._names: tuple[str, ...] = ()
        self._perm = np.empty(0, dtype=np.int64)
        self._prev_total = np.empty(0, dtype=np.int64)
        self._prev_last = np.empty(0, dtype=np.float64)
        self.decided = np.empty(0, dtype=bool)
        # Root/edge records timeline (tree only).
        self.s_time: list[float] = []
        self.s_root: list[int] = []
        self.s_edge: list[int] = []
        self._sampler_stop = threading.Event()
        self._sampler: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def _make_actuator(self, name: str, reading: object, options: object) -> FunctionActuator:
        index = len(self.values)
        self.slot[name] = index
        self.values.append(0.0)
        self.applied_at.append(0.0)
        values, applied_at, clock_now = self.values, self.applied_at, self.clock.now

        def set_value(value: float) -> None:
            applied_at[index] = clock_now()
            values[index] = value

        return FunctionActuator(lambda: values[index], set_value)

    def send(self, message: dict[str, Any]) -> None:
        with self.out_lock:
            emit(sys.stdout, message)

    def open(self) -> dict[str, Any]:
        attach = self.workload.attach
        ready: dict[str, Any] = {}
        if attach == "shm":
            self.aggregator.attach_endpoint(self.config["shm"], name="local")
        elif attach == "arena":
            self.aggregator.attach_endpoint(self.config["arena"])
        else:
            journal = self.journal_dir if attach == "durable" else None
            self.root = open_collector(TcpEndpoint(host="127.0.0.1", port=0, journal=journal))
            dial = self.root
            if attach == "tree":
                self.edge = open_collector(
                    TcpEndpoint(
                        host="127.0.0.1",
                        port=0,
                        upstream=self.root.endpoint,
                        journal=self.journal_dir,
                    )
                )
                dial = self.edge
                self._sampler = threading.Thread(target=self._sample_records, daemon=True)
                self._sampler.start()
            self.engine.attach_collector(self.root)
            ready["dial"] = dial.endpoint_url
        return ready

    def _sample_records(self) -> None:
        assert self.root is not None and self.edge is not None
        while not self._sampler_stop.wait(_SAMPLER_PERIOD_S):
            root = self.root.stats()["records"]
            self.s_time.append(now())
            self.s_root.append(root)
            self.s_edge.append(self.edge.stats()["records"])
            self.send({"r": [self._root_total(name) for name in _TREE_STREAMS]})

    def _root_total(self, stream: str) -> int:
        """Records the root holds for ``stream`` so far (0 before it registers)."""
        assert self.root is not None
        try:
            return self.root.version_source(stream)()[0]
        except MonitorAttachError:
            return 0

    # ------------------------------------------------------------------ #
    # Ticking
    # ------------------------------------------------------------------ #
    def tick(self) -> int:
        """One engine tick plus its bookkeeping; returns beats visible so far."""
        start = now()
        tick = self.engine.tick()
        tick_s = now() - start
        sample = tick.sample
        readings = sample.readings
        n = len(readings)
        if sample.names != self._names:
            self._remember_membership(sample.names)
        total = np.fromiter((r.total_beats for r in readings), dtype=np.int64, count=n)
        last = np.fromiter(
            (np.nan if r.last_timestamp is None else r.last_timestamp for r in readings),
            dtype=np.float64,
            count=n,
        )
        applied = np.asarray(self.applied_at, dtype=np.float64)[self._perm] if n else last
        # A slot not touched by this tick's step keeps an older time.
        decided_now = (applied >= start) & (self._perm >= 0)
        self.decided |= decided_now
        new = total - self._prev_total
        fresh = (new > 0) & ~np.isnan(self._prev_last)
        if fresh.any():
            self.e_new.append(new[fresh])
            self.e_last.append(last[fresh])
            self.e_prev.append(self._prev_last[fresh])
            self.e_taken.append(np.full(int(fresh.sum()), sample.taken_at))
            self.e_applied.append(np.where(decided_now, applied, np.nan)[fresh])
        if self.root is not None:  # the paced-rate check is for the wire workloads
            self.e_rate.append((sample.taken_at, sample.rates()))
        # The first sight of a stream has no previous stamp to spread from;
        # its beats are warm-up and are not given a latency.
        self._prev_last = np.where(new > 0, last, self._prev_last)
        self._prev_last = np.where(np.isnan(self._prev_last), last, self._prev_last)
        self._prev_total = total
        visible = int(total.sum())
        self.t_taken.append(sample.taken_at)
        self.t_total.append(visible)
        self.t_tick_s.append(tick_s)
        self.t_poll_s.append(self.aggregator.last_poll_s)
        self.t_decisions.append(tick.decisions)
        for errors in (tick.errors, sample.errors):
            self.t_errors.extend((sample.taken_at, f"{name}: {text}") for name, text in errors.items())
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.t_cpu.append(usage.ru_utime + usage.ru_stime - self.meter.cpu_s)
        # Loops keep every trace for ever; drop them so memory is a steady
        # state, not a function of how many ticks the run fitted in.
        for loop in self.engine.loops.values():
            loop.traces.clear()
        self.meter.sample(start)
        return visible

    def _remember_membership(self, names: tuple[str, ...]) -> None:
        known = dict(zip(self._names, range(len(self._names))))
        n = len(names)
        prev_total = np.zeros(n, dtype=np.int64)
        prev_last = np.full(n, np.nan)
        decided = np.zeros(n, dtype=bool)
        for i, name in enumerate(names):
            j = known.get(name)
            if j is not None:
                prev_total[i] = self._prev_total[j]
                prev_last[i] = self._prev_last[j]
                decided[i] = self.decided[j]
        self._names = names
        self._prev_total, self._prev_last, self.decided = prev_total, prev_last, decided
        # -1: the loop factory refused the stream, so it has no actuator slot.
        self._perm = np.asarray([self.slot.get(name, -1) for name in names], dtype=np.int64)

    def run(self, commands: LineReader) -> dict[str, Any]:
        """Tick until the generator says stop; returns the stop command."""
        first_seen = False
        low, high = _JITTER_GAP_S
        next_fixed = now()
        while True:
            visible = self.tick()
            if not first_seen and visible > 0:
                first_seen = True
                self.send({"first": now()})
                next_fixed = now()
            if not first_seen:
                gap = _FAST_GAP_S
            elif self.workload.tick == "fixed":
                next_fixed += _FIXED_GAP_S
                gap = next_fixed - now()
            elif self.workload.tick == "jitter":
                gap = float(self.rng.uniform(low, high))
            else:
                gap = 0.0
            for message in commands.lines(gap):
                if "stop" in message:
                    return message["stop"]

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def finish(self, stop: dict[str, Any]) -> dict[str, Any]:
        stamped: dict[str, int] = stop["stamped"]
        want = sum(stamped.values())
        deadline = now() + 5.0
        while self.tick() < want and now() < deadline:
            select.select([], [], [], _FAST_GAP_S)
        self._sampler_stop.set()
        if self._sampler is not None:
            self._sampler.join(timeout=2.0)

        rate_start, rate_end = stop["rate"]
        lat_start, lat_end = stop["lat"]
        taken = np.asarray(self.t_taken)
        totals = np.asarray(self.t_total, dtype=np.float64)
        cpu = np.asarray(self.t_cpu)
        tick_s = np.asarray(self.t_tick_s)
        poll_s = np.asarray(self.t_poll_s)
        decisions = np.asarray(self.t_decisions, dtype=np.float64)
        measured = (taken >= rate_start) & (taken <= lat_end)

        cpu_s = value_at(taken, cpu, rate_end) - value_at(taken, cpu, rate_start)
        result: dict[str, Any] = {
            "rates": window_rates(taken, totals, rate_start, rate_end),
            "cpu_per_beat": window_ratios(taken, cpu, totals, rate_start, rate_end),
            "speeds": self.meter.window_speeds(rate_start, rate_end),
            "paces": self.meter.window_paces(rate_start, rate_end),
            "latency_pace": self.meter.pace(lat_start, lat_end),
            "run_speed": self.meter.speed(rate_start, lat_end),
            "observer_busy_share": cpu_s / (rate_end - rate_start),
            "rss_mb_peak": peak_rss_mb(),
            "ticks": int(measured.sum()),
            "tick_ms_p50": percentile(tick_s[measured], 50) * 1e3,
            "tick_ms_p99": percentile(tick_s[measured], 99) * 1e3,
            "poll_ms_p50": percentile(poll_s[measured], 50) * 1e3,
            "decisions_per_s": float(decisions[measured].sum() / tick_s[measured].sum()),
        }
        result.update(self._latencies(lat_start, lat_end, stop["late_spans"]))
        # Warm-up is warm-up for the checks too: a poll that fails before the
        # measured interval (a cold shm reader starved by the hot writer) is
        # reported, not fatal.
        measured_errors = [text for when, text in self.t_errors if rate_start <= when <= lat_end]
        seen = dict(zip(self._names, self._prev_total.tolist()))
        observed = {name: seen.get(name, 0) for name in stamped}
        lost = sum(max(stamped[name] - observed[name], 0) for name in stamped)
        checks: dict[str, bool] = {
            "totals_equal_stamped": observed == stamped,
            "no_sample_errors": not measured_errors,
            "every_stream_decided": bool(self.decided.all()) and self.decided.size == len(stamped),
        }
        detail: dict[str, Any] = {
            "sample_errors_measured": len(measured_errors),
            "sample_errors_warmup": len(self.t_errors) - len(measured_errors),
            "first_sample_errors": measured_errors[:3],
        }
        checks.update(self._check_beat_numbers(stamped))
        paced = stop.get("paced_per_stream")
        if paced:
            in_phase = [r for t, r in self.e_rate if lat_start <= t <= lat_end]
            medians = np.median(np.asarray(in_phase), axis=0)
            detail["paced_rate_error_max"] = float(np.max(np.abs(medians / paced - 1.0)))
            checks["paced_rates_within_5pct"] = detail["paced_rate_error_max"] <= 0.05
        if self.root is not None:
            checks.update(self._collector_results(stamped, lat_start, lat_end, detail))
        result.update(lost=lost, checks=checks, detail=detail)
        self.engine.close(close_aggregator=True)
        return result

    def _latencies(self, start: float, end: float, late_spans: list[list[float]]) -> dict[str, float]:
        """Per-beat staleness and decision latency for beats stamped in [start, end].

        Beats stamped inside ``late_spans`` — while the generator was behind
        its schedule — are not what the open loop was to offer; they are left out.
        """
        keys = (
            "staleness_ms_p50",
            "staleness_ms_p90",
            "staleness_ms_p99",
            "decision_ms_p50",
            "decision_ms_p99",
            "latency_dropped_share",
        )
        if not self.e_new:
            return dict.fromkeys(keys, float("nan"))
        new = np.concatenate(self.e_new).astype(np.float64)
        last = np.concatenate(self.e_last)
        prev = np.concatenate(self.e_prev)
        taken = np.concatenate(self.e_taken)
        applied = np.concatenate(self.e_applied)
        if self.workload.burst:
            stamps, weights = last[:, None], new[:, None]
        else:
            points = np.minimum(new, _POINTS_PER_ENTRY)[:, None]
            k = np.arange(_POINTS_PER_ENTRY)[None, :]
            # Point k stands for an equal share of the entry's beats, stamped
            # evenly over (prev, last] — exactly how heartbeat_batch spreads
            # its records, and the steady state of the other generators.
            fraction = (k + 1.0) / points
            stamps = prev[:, None] + (last - prev)[:, None] * fraction
            weights = np.where(k < points, (new[:, None] / points), 0.0)
        # The spans are disjoint and in order, so a stamp is inside one when
        # an odd number of their edges lie at or before it.
        edges = np.asarray(late_spans, dtype=np.float64).ravel()
        on_schedule = np.searchsorted(edges, stamps, side="right") % 2 == 0
        in_phase = (stamps >= start) & (stamps <= end) & (weights > 0)
        keep = in_phase & on_schedule
        dropped = 1.0 - float(weights[keep].sum() / max(weights[in_phase].sum(), 1.0))
        stale = (taken[:, None] - stamps)[keep] * 1e3
        s50, s90, s99 = weighted_quantiles(stale, weights[keep], (0.5, 0.9, 0.99))
        decided = keep & ~np.isnan(applied)[:, None]
        decide = (applied[:, None] - stamps)[decided] * 1e3
        d50, d99 = weighted_quantiles(decide, weights[decided], (0.5, 0.99))
        return dict(zip(keys, (s50, s90, s99, d50, d99, dropped)))

    def _check_beat_numbers(self, stamped: dict[str, int]) -> dict[str, bool]:
        """Retained beat numbers are contiguous and end at the last stamped beat."""
        attach = self.workload.attach
        names = list(stamped)
        if attach == "shm":
            source = open_source(self.config["shm"])
            try:
                beats = {"local": source.snapshot().records["beat"]}
            finally:
                source.close()
        elif attach == "arena":
            arena = open_arena(self.config["arena"])
            rows = {name: i for i, name in enumerate(arena.row_names())}
            names = [names[i] for i in self.rng.choice(len(names), size=256, replace=False)]
            beats = {name: arena.row(rows[name]).snapshot().records["beat"] for name in names}
        else:
            assert self.root is not None
            beats = {name: self.root.snapshot(name).records["beat"] for name in names}
        ok = all(
            b.size > 0 and bool(np.all(np.diff(b) == 1)) and int(b[-1]) == stamped[name] - 1
            for name, b in beats.items()
        )
        return {"beat_numbers_increasing": ok}

    def _collector_results(
        self, stamped: dict[str, int], lat_start: float, lat_end: float, detail: dict[str, Any]
    ) -> dict[str, bool]:
        assert self.root is not None
        root_stats = self.root.stats()
        errors = root_stats["protocol_errors"]
        detail["root_duplicates"] = root_stats["relay_duplicates"]
        if self.edge is not None:
            errors += self.edge.stats()["protocol_errors"]
            relay = self.edge.relay_stats()
            detail["relay_records_per_frame"] = relay["records_sent"] / max(relay["frames_sent"], 1)
            detail["relay_send_errors"] = relay["send_errors"]
            times = np.asarray(self.s_time)
            root = np.asarray(self.s_root, dtype=np.float64)
            edge = np.asarray(self.s_edge, dtype=np.float64)
            phase = (times >= lat_start) & (times <= lat_end)
            # When did the edge hold what the root holds now?
            reached = np.interp(root[phase], edge, times)
            detail["forward_lag_ms_p50"] = percentile((times[phase] - reached) * 1e3, 50)
            self.edge.close()
            detail["edge_records"] = self.edge.stats()["records"]
        detail["protocol_errors"] = errors
        detail["root_records"] = root_stats["records"]
        checks = {"no_protocol_errors": errors == 0, "no_root_duplicates": root_stats["relay_duplicates"] == 0}
        self.root.close()
        if self.workload.attach == "durable":
            checks["journal_replays_acknowledged"] = self._reopen(stamped, detail)
        return checks

    def _reopen(self, stamped: dict[str, int], detail: dict[str, Any]) -> bool:
        """Warm restart on the run's journal, then an exact replay count."""
        assert self.journal_dir is not None
        start = now()
        reopened = open_collector(TcpEndpoint(host="127.0.0.1", port=0, journal=self.journal_dir))
        detail["reopen_s"] = now() - start
        restored = {info.stream_id: info for info in reopened.streams()}
        reopened.close()
        files = [os.path.join(self.journal_dir, f) for f in os.listdir(self.journal_dir)]
        detail["journal_bytes_per_beat"] = sum(map(os.path.getsize, files)) / max(sum(stamped.values()), 1)
        start = now()
        replayed = {r.stream_id: r for r in StreamJournal(self.journal_dir).replay()}
        elapsed = now() - start
        records = sum(int(r.records.shape[0]) for r in replayed.values())
        detail["replay_s_per_mbeat"] = elapsed / max(records, 1) * 1e6
        detail["replayed_records"] = records
        # Compaction keeps the retained ring window, so the journal's
        # high-water mark — not its record count — is what must equal the
        # acknowledged count, with a contiguous tail behind it.
        return set(replayed) == set(stamped) == set(restored) and all(
            r.last_beat + 1 == stamped[name]
            and bool(np.all(np.diff(r.records["beat"]) == 1))
            and restored[name].total_beats == r.records.shape[0]
            for name, r in replayed.items()
        )

    def close(self) -> None:
        self._sampler_stop.set()
        for collector in (self.edge, self.root):
            if collector is not None:
                collector.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


def main() -> int:
    commands = LineReader(sys.stdin.fileno())
    config: dict[str, Any] | None = None
    while config is None:
        for message in commands.lines(1.0):
            config = message
    if config.get("cpus"):
        os.sched_setaffinity(0, config["cpus"])
    observer = Observer(config)
    try:
        observer.send({"ready": observer.open()})
        stop = observer.run(commands)
        if stop.get("abort"):
            return 0
        observer.send({"result": observer.finish(stop)})
    except EOFError:
        return 1  # the generator went away; nothing left to report to
    finally:
        observer.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
