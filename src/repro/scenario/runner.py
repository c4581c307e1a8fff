"""Scenario execution: a spec → real processes, scripted chaos, a verdict.

:class:`ScenarioRunner` stands up the topology a
:class:`~repro.scenario.spec.ScenarioSpec` describes — an in-process *root*
collector (which hosts the invariant checks and never dies), optionally a
killable *edge* collector subprocess relaying through a
:class:`~repro.scenario.proxy.ChaosProxy`, and a fleet of subprocess
producers — then drives the spec's :class:`~repro.faults.Timeline` while
polling the root's :class:`~repro.core.aggregator.HeartbeatAggregator`.

Every observation that an invariant could need is recorded as it happens
(per-stream totals, health transitions, event application times), so the
verdict is computed from the run's own evidence and the whole history can
be written as a JSONL report (a :class:`~repro.obs.tracing.FlightRecorder`
file: one ``kind``-first record per line)::

    result = ScenarioRunner(ScenarioSpec.preset("partition")).run()
    assert result.passed, result.failures()

Invariants (see :data:`~repro.scenario.spec.INVARIANT_KINDS`):

``no_lost_acked``
    No stream's root-side total ever decreases — dedup/replay regressions
    show up as counts moving backwards.
``stalled_within``
    At least ``count`` streams classify STALLED within ``deadline`` seconds
    of the first disruptive event (partition, flap, kill).
``converged_within``
    Within ``deadline`` of the fleet finishing, every gracefully-closed
    producer's full count is visible at the root.
``all_beats_delivered``
    Final root totals equal the totals each graceful producer printed.
``closed_reported``
    The root marks each graceful stream closed with the producer's exact
    reported total.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.aggregator import HeartbeatAggregator
from repro.core.monitor import HealthStatus
from repro.faults.timeline import TimelineEvent
from repro.net import HeartbeatCollector
from repro.obs.tracing import FlightRecorder
from repro.scenario.proxy import ChaosProxy
from repro.scenario.spec import PROXY_ACTIONS, InvariantSpec, ScenarioError, ScenarioSpec

__all__ = ["InvariantResult", "ScenarioResult", "ScenarioRunner"]

_POLL_INTERVAL = 0.03
_SAMPLE_EVERY = 0.25
_LIVENESS_TIMEOUT = 1.0


@dataclass(frozen=True, slots=True)
class InvariantResult:
    """Verdict for one invariant."""

    kind: str
    passed: bool
    detail: str

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "passed": self.passed, "detail": self.detail}


@dataclass(slots=True)
class ScenarioResult:
    """Outcome of one scenario run."""

    name: str
    passed: bool
    duration: float
    invariants: list[InvariantResult] = field(default_factory=list)
    #: Producer-acknowledged totals for gracefully-exited producers.
    producer_totals: dict[str, int] = field(default_factory=dict)
    #: Final root-side totals per stream.
    root_totals: dict[str, int] = field(default_factory=dict)
    report_path: str | None = None

    def failures(self) -> list[str]:
        return [f"{r.kind}: {r.detail}" for r in self.invariants if not r.passed]

    def as_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.name,
            "passed": self.passed,
            "duration": round(self.duration, 3),
            "invariants": [r.as_dict() for r in self.invariants],
            "producer_totals": self.producer_totals,
            "root_totals": self.root_totals,
        }


class _Producer:
    """One subprocess producer and what we know about it."""

    __slots__ = ("stream", "beats", "proc", "killed", "reported")

    def __init__(self, stream: str, beats: int, proc: subprocess.Popen) -> None:
        self.stream = stream
        self.beats = beats
        self.proc = proc
        self.killed = False
        self.reported: int | None = None


def _free_port(host: str = "127.0.0.1") -> int:
    """Reserve an ephemeral port number for a process started later.

    Racy by nature (the port is free *now*); scenario runs bind it within
    milliseconds, and a lost race fails the run loudly, not silently.
    """
    with socket.socket() as sock:
        sock.bind((host, 0))
        return int(sock.getsockname()[1])


class ScenarioRunner:
    """Run one :class:`ScenarioSpec` end to end.

    Parameters
    ----------
    spec:
        The drill to execute.
    report_path:
        Optional JSONL file receiving one record per observation (events as
        they land, coarse fleet samples, invariant verdicts, final summary),
        each stamped with ``t``, seconds since setup.
    workdir:
        Directory for journals and port files; kept as-is when given (so a
        failed run's journals can be inspected), a self-cleaning temporary
        directory when omitted.
    serve:
        Publish the run's aggregator as a live HTTP/SSE dashboard
        (:mod:`repro.obs.serve`) for the duration of the run.
    serve_port:
        Dashboard port when ``serve`` is on (0 = ephemeral).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        report_path: "str | os.PathLike[str] | None" = None,
        workdir: "str | os.PathLike[str] | None" = None,
        serve: bool = False,
        serve_port: int = 0,
    ) -> None:
        self.spec = spec
        self._report_path = None if report_path is None else os.fspath(report_path)
        self._workdir = None if workdir is None else os.fspath(workdir)
        self._serve = serve
        self._serve_port = serve_port

        self._recorder = FlightRecorder()
        self._epoch = 0.0
        self._producers: list[_Producer] = []
        self._next_producer = 0
        self._proxy: ChaosProxy | None = None
        self._root: HeartbeatCollector | None = None
        self._aggregator: HeartbeatAggregator | None = None
        self._edge_proc: "subprocess.Popen[bytes] | None" = None
        self._edge_url = ""
        self._edge_address = ""
        self._server: Any = None
        self._producer_address = ""
        self._child_env: dict[str, str] = {}
        self._rundir = ""
        self._tmp: Any = None

        # Evidence the invariants are judged on.
        self._max_totals: dict[str, int] = {}
        self._monotonic_ok = True
        self._monotonic_detail = ""
        self._stalled_at: dict[str, float] = {}
        self._disruption_at: float | None = None
        self._last_sample_logged = 0.0

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        return time.monotonic() - self._epoch

    def _log(self, kind: str, **fields: Any) -> None:
        self._recorder.write(kind, t=round(self._now(), 4), **fields)

    def _log_verdict(self, result: InvariantResult) -> None:
        self._log("invariant", invariant=result.kind, passed=result.passed, detail=result.detail)

    # ------------------------------------------------------------------ #
    # Fleet management
    # ------------------------------------------------------------------ #
    def _spawn_producer(self) -> _Producer:
        fleet = self.spec.fleet
        index = self._next_producer
        self._next_producer += 1
        stream = f"{fleet.prefix}-{index}"
        cmd = [
            sys.executable,
            "-m",
            "repro.scenario._producer",
            "--address",
            self._producer_address,
            "--stream",
            stream,
            "--beats",
            str(fleet.beats),
            "--rate",
            str(fleet.rate),
            "--skew",
            str(fleet.skew),
        ]
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=self._child_env,
        )
        producer = _Producer(stream, fleet.beats, proc)
        self._producers.append(producer)
        self._log("spawn", stream=stream, pid=proc.pid)
        return producer

    def _kill_producers(self, count: int) -> None:
        victims = [p for p in self._producers if not p.killed and p.proc.poll() is None]
        for producer in victims[-count:]:
            producer.killed = True
            try:
                producer.proc.kill()
            except OSError:  # pragma: no cover - already gone
                pass
            producer.proc.wait()
            self._log("kill_producer", stream=producer.stream)

    def _reap_producer(self, producer: _Producer) -> None:
        """Collect the final JSON line of a gracefully-exited producer."""
        out, _ = producer.proc.communicate()
        if producer.killed:
            return
        for line in reversed((out or "").splitlines()):
            line = line.strip()
            if line.startswith("{"):
                try:
                    producer.reported = int(json.loads(line)["beats"])
                except (ValueError, KeyError):
                    break
                return
        self._log("producer_no_report", stream=producer.stream)

    def _wait_producers(self, deadline: float) -> bool:
        """Wait for every live producer to exit (True) or the deadline."""
        while any(p.proc.poll() is None for p in self._producers):
            if time.monotonic() >= deadline:
                return False
            self._tick()
            time.sleep(_POLL_INTERVAL)
        return True

    # ------------------------------------------------------------------ #
    # Edge collector management
    # ------------------------------------------------------------------ #
    def _start_edge(self) -> None:
        port_file = os.path.join(self._rundir, "edge.port")
        try:
            os.unlink(port_file)
        except OSError:
            pass
        self._edge_proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "collect",
                self._edge_url,
                "--quiet",
                "--port-file",
                port_file,
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=self._child_env,
        )
        deadline = time.monotonic() + 10.0
        while not os.path.exists(port_file):
            if self._edge_proc.poll() is not None:
                raise ScenarioError(
                    f"edge collector exited with {self._edge_proc.returncode} before binding"
                )
            if time.monotonic() >= deadline:
                raise ScenarioError("edge collector did not bind within 10s")
            time.sleep(0.02)
        self._log("edge_up", address=self._edge_address, pid=self._edge_proc.pid)

    def _kill_edge(self, *, log: bool = True) -> None:
        if self._edge_proc is None or self._edge_proc.poll() is not None:
            return
        self._edge_proc.send_signal(signal.SIGKILL)
        self._edge_proc.wait()
        if log:
            self._log("edge_killed")

    # ------------------------------------------------------------------ #
    # Timeline dispatch
    # ------------------------------------------------------------------ #
    def _apply_event(self, event: TimelineEvent) -> None:
        if event.action in PROXY_ACTIONS:
            assert self._proxy is not None  # guaranteed by spec validation
            self._proxy.apply(event)
            if event.action in ("partition", "flap") and self._disruption_at is None:
                self._disruption_at = self._now()
        elif event.action == "spawn":
            for _ in range(int(event.param("producers", 1))):
                self._spawn_producer()
        elif event.action == "kill_producers":
            self._kill_producers(int(event.param("producers", 1)))
            if self._disruption_at is None:
                self._disruption_at = self._now()
        elif event.action == "kill_collector":
            if event.param("after_producers", False):
                # Barrier: the drill needs every acknowledged beat inside
                # the journal before the collector dies.
                self._wait_producers(time.monotonic() + self.spec.deadline / 2)
            self._kill_edge()
            if self._disruption_at is None:
                self._disruption_at = self._now()
        elif event.action == "restart_collector":
            self._start_edge()
        else:  # pragma: no cover - spec validation rejects unknown actions
            raise ScenarioError(f"unknown timeline action {event.action!r}")
        self._log("event", action=event.action, at=event.at, params=dict(event.params))

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def _tick(self) -> None:
        assert self._aggregator is not None
        sample = self._aggregator.poll()
        now = self._now()
        totals: dict[str, int] = {}
        for name, reading in sample:
            totals[name] = reading.total_beats
            previous = self._max_totals.get(name, 0)
            if reading.total_beats < previous and self._monotonic_ok:
                self._monotonic_ok = False
                self._monotonic_detail = (
                    f"stream {name!r} went backwards: {previous} -> {reading.total_beats}"
                )
            self._max_totals[name] = max(previous, reading.total_beats)
            if reading.status is HealthStatus.STALLED and name not in self._stalled_at:
                self._stalled_at[name] = now
                self._log("stalled", stream=name)
        if now - self._last_sample_logged >= _SAMPLE_EVERY:
            self._last_sample_logged = now
            self._log("sample", totals=totals)

    def _root_infos(self) -> dict[str, Any]:
        assert self._root is not None
        return {info.stream_id: info for info in self._root.streams()}

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    def _graceful_totals(self) -> dict[str, int]:
        return {
            p.stream: p.reported
            for p in self._producers
            if not p.killed and p.reported is not None
        }

    def _converged(self) -> bool:
        infos = self._root_infos()
        for stream, total in self._graceful_totals().items():
            info = infos.get(stream)
            if info is None or info.total_beats < total:
                return False
        return True

    def _check_invariant(self, inv: InvariantSpec, fleet_done_at: float) -> InvariantResult:
        if inv.kind == "no_lost_acked":
            return InvariantResult(
                inv.kind,
                self._monotonic_ok,
                "all stream totals monotonic" if self._monotonic_ok else self._monotonic_detail,
            )
        if inv.kind == "stalled_within":
            if self._disruption_at is None:
                return InvariantResult(
                    inv.kind, False, "no disruptive event in the timeline"
                )
            # "Within N seconds" is a wait, not a snapshot: keep observing
            # until the stall shows up or its deadline truly passes (the
            # fleet usually drains long before the liveness timeout fires).
            anchor = self._disruption_at

            def stalled() -> list[str]:
                return [
                    name
                    for name, at in self._stalled_at.items()
                    if at - anchor <= inv.deadline
                ]

            while len(stalled()) < inv.count and self._now() < anchor + inv.deadline:
                self._tick()
                time.sleep(_POLL_INTERVAL)
            within = stalled()
            passed = len(within) >= inv.count
            return InvariantResult(
                inv.kind,
                passed,
                f"{len(within)}/{inv.count} streams stalled within {inv.deadline}s "
                f"of disruption at t={anchor:.2f}s",
            )
        if inv.kind == "converged_within":
            deadline = fleet_done_at + inv.deadline
            while not self._converged():
                if self._now() >= deadline:
                    missing = {
                        stream: (self._max_totals.get(stream, 0), total)
                        for stream, total in self._graceful_totals().items()
                        if self._max_totals.get(stream, 0) < total
                    }
                    return InvariantResult(
                        inv.kind,
                        False,
                        f"not converged within {inv.deadline}s; "
                        f"root/producer totals: {missing}",
                    )
                self._tick()
                time.sleep(_POLL_INTERVAL)
            return InvariantResult(
                inv.kind, True, f"converged {self._now() - fleet_done_at:.2f}s after fleet exit"
            )
        if inv.kind == "all_beats_delivered":
            infos = self._root_infos()
            wrong = {}
            for stream, total in self._graceful_totals().items():
                info = infos.get(stream)
                got = 0 if info is None else info.total_beats
                if got != total:
                    wrong[stream] = (got, total)
            return InvariantResult(
                inv.kind,
                not wrong,
                "every graceful beat delivered" if not wrong else f"root != producer: {wrong}",
            )
        if inv.kind == "closed_reported":
            infos = self._root_infos()
            wrong = {}
            for stream, total in self._graceful_totals().items():
                info = infos.get(stream)
                if info is None or not info.closed or info.reported_total != total:
                    wrong[stream] = (
                        None
                        if info is None
                        else {"closed": info.closed, "reported": info.reported_total}
                    )
            return InvariantResult(
                inv.kind,
                not wrong,
                "every graceful stream closed+reported"
                if not wrong
                else f"missing close accounting: {wrong}",
            )
        raise ScenarioError(f"unknown invariant {inv.kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # The run
    # ------------------------------------------------------------------ #
    def run(self) -> ScenarioResult:
        """Execute the scenario; never raises for invariant failures."""
        spec = self.spec
        started = time.monotonic()
        if self._workdir is None:
            import tempfile

            self._tmp = tempfile.TemporaryDirectory(prefix=f"scenario-{spec.name}-")
            self._rundir = self._tmp.name
        else:
            self._tmp = None
            os.makedirs(self._workdir, exist_ok=True)
            self._rundir = self._workdir
        if self._report_path is not None:
            self._recorder = FlightRecorder(self._report_path)
        try:
            return self._run_inner(started)
        finally:
            self._teardown()

    def _run_inner(self, started: float) -> ScenarioResult:
        spec = self.spec
        # Report timestamps count from setup; the chaos timeline counts
        # from fleet launch (below), so spec offsets are unaffected by how
        # long collectors take to bind.
        self._epoch = started
        self._child_env = {**os.environ}
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        existing = self._child_env.get("PYTHONPATH")
        self._child_env["PYTHONPATH"] = (
            src_root if not existing else f"{src_root}{os.pathsep}{existing}"
        )

        # Root collector + aggregator: the observation plane. Never dies.
        self._root = HeartbeatCollector("127.0.0.1", 0)
        self._aggregator = HeartbeatAggregator(liveness_timeout=_LIVENESS_TIMEOUT)
        self._aggregator.attach_collector(self._root)

        root_address = f"127.0.0.1:{self._root.port}"
        if spec.topology == "edge":
            # root <- [proxy] <- edge subprocess <- producers
            uplink = root_address
            if spec.proxy:
                self._proxy = self._make_proxy(root_address)
                uplink = self._proxy.endpoint
            edge_port = _free_port()
            journal_dir = os.path.join(self._rundir, "edge-journal")
            params = [f"upstream={uplink}", "relay_interval=0.02",
                      "backoff_initial=0.02", "backoff_max=0.25"]
            if spec.journal:
                params.append(f"journal={journal_dir}")
            self._edge_address = f"127.0.0.1:{edge_port}"
            self._edge_url = f"tcp://{self._edge_address}?{'&'.join(params)}"
            self._start_edge()
            self._producer_address = self._edge_address
        else:
            # root <- [proxy] <- producers
            self._producer_address = root_address
            if spec.proxy:
                self._proxy = self._make_proxy(root_address)
                self._producer_address = self._proxy.endpoint

        if self._serve:
            from repro.obs.serve import TelemetryServer

            self._server = TelemetryServer(
                self._aggregator,
                collectors=[self._root],
                port=self._serve_port,
            )
            self._log("dashboard", url=self._server.url)

        fleet_epoch = time.monotonic()
        self._log(
            "start",
            scenario=spec.name,
            topology=spec.topology,
            root=root_address,
            producers_dial=self._producer_address,
            proxy=spec.proxy,
            journal=spec.journal,
        )
        for _ in range(spec.fleet.producers):
            self._spawn_producer()

        hard_deadline = fleet_epoch + spec.deadline
        timeline = spec.build_timeline()
        while len(timeline.pending()) > 0:
            if time.monotonic() >= hard_deadline:
                return self._fail_deadline(started)
            for event in timeline.pop_due(time.monotonic() - fleet_epoch):
                self._apply_event(event)
            self._tick()
            time.sleep(_POLL_INTERVAL)

        # Fleet drains: graceful producers finish their budgets and CLOSE.
        if not self._wait_producers(hard_deadline):
            return self._fail_deadline(started)
        for producer in self._producers:
            self._reap_producer(producer)
        fleet_done_at = self._now()
        self._log("fleet_done", graceful=self._graceful_totals())

        results = [
            self._check_invariant(inv, fleet_done_at) for inv in self.spec.invariants
        ]
        self._tick()
        for result in results:
            self._log_verdict(result)

        result = ScenarioResult(
            name=spec.name,
            passed=all(r.passed for r in results),
            duration=time.monotonic() - started,
            invariants=results,
            producer_totals=self._graceful_totals(),
            root_totals={s: i.total_beats for s, i in self._root_infos().items()},
            report_path=self._report_path,
        )
        self._log("summary", **result.as_dict())
        return result

    def _make_proxy(self, target: str) -> ChaosProxy:
        spec = self.spec
        return ChaosProxy(
            target,
            latency=spec.latency,
            jitter=spec.jitter,
            bandwidth=spec.bandwidth,
            drop_probability=spec.drop_probability,
            seed=spec.seed,
        )

    def _fail_deadline(self, started: float) -> ScenarioResult:
        detail = f"scenario exceeded its {self.spec.deadline}s deadline"
        results = [InvariantResult("deadline", False, detail)]
        self._log_verdict(results[0])
        result = ScenarioResult(
            name=self.spec.name,
            passed=False,
            duration=time.monotonic() - started,
            invariants=results,
            producer_totals=self._graceful_totals(),
            root_totals=dict(self._max_totals),
            report_path=self._report_path,
        )
        self._log("summary", **result.as_dict())
        return result

    def _teardown(self) -> None:
        for producer in self._producers:
            if producer.proc.poll() is None:
                producer.proc.kill()
            try:
                producer.proc.communicate(timeout=5)
            except (ValueError, OSError, subprocess.TimeoutExpired):
                pass
        self._kill_edge(log=False)
        if self._server is not None:
            self._server.close()
        if self._proxy is not None:
            self._proxy.close()
        if self._aggregator is not None:
            self._aggregator.close()
        if self._root is not None:
            self._root.close()
        self._recorder.close()
        if self._tmp is not None:
            self._tmp.cleanup()
