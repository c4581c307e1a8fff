"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Every subcommand speaks **telemetry endpoint URLs** (see
:mod:`repro.endpoints`) as positional arguments — the same strings the
library APIs accept::

    repro collect tcp://0.0.0.0:7717
    repro watch tcp://127.0.0.1:0 shm://svc file:///var/log/enc.hblog
    repro adapt --spec fleet.toml tcp://127.0.0.1:7717

Every command that takes endpoints *is* a session: it opens a
:class:`~repro.session.TelemetrySession`, lets ``collect`` / ``fleet`` /
``adapt`` wire and own whatever the URLs name (closed newest-first when the
command ends), and maps failures one way — a URL that cannot mean what was
asked (:class:`~repro.endpoints.EndpointError`) exits 2, a URL that is fine
in a world that is not (``OSError``, any other ``HeartbeatError``) exits 1.

``collect``
    Run a :class:`repro.net.HeartbeatCollector` and periodically
    print a one-line fleet summary.  Defaults to ``tcp://127.0.0.1:0`` (an
    ephemeral port) and prints the actual endpoint on startup
    (machine-readable via ``--port-file``, written atomically), so scripted
    producers can discover the port.

``watch``
    Render a live fleet table over any mix of endpoints: ``tcp://`` runs a
    collector and watches whatever producers dial in, ``shm://`` and
    ``file://`` attach local streams, so one table can mix remote and
    same-host streams.  With ``--serve`` the same fleet is also published
    as a live HTTP/SSE dashboard (:mod:`repro.obs.serve`) with a
    ``/metrics`` scrape endpoint.

``scenario``
    Run a chaos drill (:mod:`repro.scenario`): real subprocess producers
    and collectors, a scripted timeline of partitions/kills/churn, and
    invariant checks that must survive it.  ``repro scenario list`` shows
    the built-in presets; ``repro scenario run NAME --report out.jsonl``
    executes one and exits non-zero when an invariant is violated.

``adapt``
    Drive a declarative :class:`repro.adapt.AdaptSpec` over the observed
    streams.  Endpoints come from the spec's own ``[engine] attach`` list
    plus any positional arguments.  Spec loops bind to the built-in advisory
    ``log`` actuator, so the command shows the decisions the controllers
    *would* take against the live fleet — the dry run an operator does
    before wiring real knobs to the engine in code.

All commands are bounded by ``--duration`` (handy for tests and demos) and
exit cleanly on Ctrl-C.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Any, Callable, Iterable, Sequence, TextIO

from repro._version import __version__
from repro.adapt.engine import AdaptationEngine, EngineTick
from repro.adapt.spec import AdaptSpec, SpecError
from repro.core.aggregator import FleetSample
from repro.core.errors import HeartbeatError
from repro.endpoints import SCHEMES, Endpoint, EndpointError, describe_schemes
from repro.net import HeartbeatCollector
from repro.session import TelemetrySession

__all__ = ["main"]

#: The endpoint schemes, rendered from the scheme table: in full for
#: ``--help``, by name for one-line errors.
_SCHEMES = describe_schemes()
_SCHEME_NAMES = ", ".join(f"{scheme}://" for scheme in SCHEMES)
_ENDPOINT_HELP = (
    f"telemetry endpoint URL (repeatable): {_SCHEMES}; tcp:// binds a "
    "collector (port 0: ephemeral), shm-arena:// attaches a whole fleet slab"
)


def _add_run_options(
    parser: argparse.ArgumentParser,
    *,
    interval: tuple[float | None, str] | None = None,
    duration: bool = False,
    liveness: bool = False,
    once: str | None = None,
    serve: str | None = None,
) -> None:
    """Add the run-shape options a subcommand takes, spelled one way everywhere.

    ``interval`` is the command's own ``(default, help)`` for ``--interval``;
    ``once`` and ``serve`` are the help lines of ``--once`` and of
    ``--serve`` (which brings ``--port`` along).
    """
    if interval is not None:
        default, help_text = interval
        parser.add_argument("--interval", type=float, default=default, help=help_text)
    if duration:
        parser.add_argument(
            "--duration", type=float, default=None, help="stop after this many seconds"
        )
    if liveness:
        parser.add_argument(
            "--liveness", type=float, default=5.0, help="seconds without a beat before 'stalled'"
        )
    if once is not None:
        parser.add_argument("--once", action="store_true", help=once)
    if serve is not None:
        parser.add_argument("--serve", action="store_true", help=serve)
        parser.add_argument(
            "--port",
            type=int,
            default=0,
            help="dashboard port for --serve (default 0: an ephemeral port)",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heartbeat telemetry tools (Application Heartbeats reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect", help="run a TCP heartbeat collector")
    collect.add_argument(
        "endpoint",
        nargs="?",
        default="tcp://127.0.0.1:0",
        metavar="ENDPOINT",
        help="endpoint to bind (default tcp://127.0.0.1:0 — an ephemeral port); "
        f"of the schemes — {_SCHEMES} — collectors bind tcp://",
    )
    collect.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening (atomic, for scripts)",
    )
    _add_run_options(
        collect, interval=(2.0, "seconds between summary lines"), duration=True, liveness=True
    )
    collect.add_argument(
        "--quiet", action="store_true", help="no periodic summaries, just collect"
    )
    collect.add_argument(
        "--stats-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print a one-line registry stats summary (conns, streams, relay "
        "frames/dupes, errors) every N seconds; independent of --quiet",
    )
    collect.add_argument(
        "--arena",
        default=None,
        metavar="URL",
        help="keep registered streams in this arena slab first "
        "(mem-arena://name?streams=N&depth=D, or shm-arena:// to let other "
        "processes observe it) instead of private slabs",
    )

    watch = sub.add_parser("watch", help="live fleet table from any mix of endpoints")
    watch.add_argument(
        "endpoints", nargs="*", default=[], metavar="ENDPOINT", help=_ENDPOINT_HELP
    )
    watch.add_argument("--window", type=int, default=0, help="rate window (0: producer default)")
    _add_run_options(
        watch,
        interval=(1.0, "seconds between table refreshes"),
        duration=True,
        liveness=True,
        once="print one table and exit",
        serve="also serve the live dashboard over HTTP (SSE /events, scrape /metrics)",
    )

    adapt = sub.add_parser(
        "adapt",
        help="drive a declarative adaptation spec over observed streams (advisory actuators)",
    )
    adapt.add_argument(
        "endpoints",
        nargs="*",
        default=[],
        metavar="ENDPOINT",
        help=_ENDPOINT_HELP + "; extends the spec's own [engine] attach list",
    )
    adapt.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="adaptation spec file (.toml on Python 3.11+, or JSON)",
    )
    _add_run_options(
        adapt,
        interval=(None, "seconds between engine ticks (default: the spec's engine.interval)"),
        duration=True,
        once="run one tick and exit",
    )

    scenario = sub.add_parser(
        "scenario",
        help="run chaos drills against real producer/collector topologies",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_run = scenario_sub.add_parser(
        "run", help="execute one scenario; exits non-zero on invariant violation"
    )
    scenario_run.add_argument(
        "scenario",
        metavar="SCENARIO",
        help="preset name (see 'repro scenario list') or a .toml/.json spec file",
    )
    scenario_run.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write a JSONL evidence trail (events, samples, verdicts) to PATH",
    )
    scenario_run.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="keep journals/port files under DIR instead of a self-cleaning tempdir",
    )
    _add_run_options(
        scenario_run, serve="publish the run's fleet as a live HTTP/SSE dashboard while it runs"
    )
    scenario_sub.add_parser("list", help="list the built-in scenario presets")

    tune = sub.add_parser(
        "tune",
        help="search controller gains for a spec's tune=true rules against simulated fleets",
    )
    tune.add_argument(
        "--spec",
        required=True,
        metavar="SPEC",
        help="baseline spec: a preset name ('scheduler') or a .toml/.json spec file",
    )
    tune.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="write the tuned, round-trip-validated AdaptSpec TOML here",
    )
    tune.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="write a JSONL tuning flight log (one event per evaluation/generation)",
    )
    tune.add_argument(
        "--strategy",
        choices=["cmaes", "random"],
        default="cmaes",
        help="search strategy (default: cmaes with IPOP restarts)",
    )
    tune.add_argument(
        "--budget", type=int, default=64, help="objective evaluations to spend (default 64)"
    )
    tune.add_argument(
        "--popsize", type=int, default=None, help="population per generation (default: auto)"
    )
    tune.add_argument(
        "--streams", type=int, default=16, help="simulated streams per evaluation (default 16)"
    )
    tune.add_argument(
        "--ticks", type=int, default=30, help="adaptation ticks per evaluation (default 30)"
    )
    tune.add_argument(
        "--beats-per-tick", type=int, default=4, help="simulated beats per tick (default 4)"
    )
    tune.add_argument(
        "--profile",
        choices=["steady", "step-load", "churn", "skewed"],
        default="steady",
        help="workload profile the evaluation fleet replays (default steady)",
    )
    tune.add_argument("--seed", type=int, default=0, help="tuning seed (default 0)")
    tune.add_argument(
        "--workers",
        type=int,
        default=0,
        help="evaluation worker processes (0: evaluate inline, default)",
    )
    return parser


def _emit(line: str, *, stream: TextIO | None = None) -> None:
    print(line, file=stream if stream is not None else sys.stdout, flush=True)


def _fmt_age(age: float | None) -> str:
    return f"{age:6.1f}" if age is not None else "     -"


def _fleet_table(sample: FleetSample) -> str:
    lines = [f"{'stream':<24} {'beats':>9} {'rate':>10} {'target':>17} {'age(s)':>6} status"]
    for name, reading in sample:
        target = f"[{reading.target_min:.1f}, {reading.target_max:.1f}]"
        lines.append(
            f"{name:<24} {reading.total_beats:>9d} {reading.rate:>10.2f} "
            f"{target:>17} {_fmt_age(reading.age)} {reading.status.value}"
        )
    for name, error in sample.errors.items():
        lines.append(f"{name:<24} {'-':>9} {'-':>10} {'-':>17} {'-':>6} error: {error}")
    summary = sample.summary()
    lines.append(
        f"-- {summary.streams} streams, {summary.measurable} measurable | "
        f"mean {summary.mean:.2f} p50 {summary.percentiles[50.0]:.2f} "
        f"p90 {summary.percentiles[90.0]:.2f} p99 {summary.percentiles[99.0]:.2f} | "
        f"{summary.lagging} lagging, {summary.stalled} stalled"
    )
    return "\n".join(lines)


def _run_loop(duration: float | None, interval: float, tick: Callable[[], None]) -> bool:
    """Call ``tick()`` every ``interval`` seconds until duration/Ctrl-C.

    Returns ``True`` when the loop ended on Ctrl-C (so callers can label
    their final summary line) and ``False`` when the duration ran out.
    """
    deadline = None if duration is None else time.monotonic() + duration
    try:
        while True:
            tick()
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                time.sleep(min(interval, remaining))
            else:
                time.sleep(interval)
    except KeyboardInterrupt:
        return True


def _write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically (temp file + rename).

    Watchers polling the path can never read a partially-written file: the
    rename makes the fully-flushed content appear in one step.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"{port}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _stats_line(collector: HeartbeatCollector) -> str:
    """One-line registry summary for ``collect --stats-interval``.

    Reads the same counters :meth:`HeartbeatCollector.stats` exposes (now
    views over the collector's metrics registry), plus the upstream relay
    counters when the collector runs in edge mode.
    """
    stats = collector.stats()
    parts = [
        f"conns={stats['open_connections']}/{stats['connections_accepted']}",
        f"streams={stats['streams']}",
        f"frames={stats['frames']}",
        f"records={stats['records']}",
        f"relay_frames={stats['relay_frames']}",
        f"relay_dupes={stats['relay_duplicates']}",
        f"protocol_errors={stats['protocol_errors']}",
    ]
    relay = collector.relay_stats()
    if relay:
        parts.append(f"relay_sent={relay['frames_sent']}")
        parts.append(f"relay_send_errors={relay['send_errors']}")
    return "stats: " + " ".join(parts)


def _observable(urls: Iterable[str | Endpoint]) -> list[Endpoint]:
    """Parse the endpoints a *separate* observer process was pointed at.

    Process-local schemes (the scheme table says which) live inside their
    producer; no URL can reach them from here, so they are refused up front
    rather than attached as an empty stream.
    """
    endpoints = [Endpoint.parse(url) for url in urls]
    for ep in endpoints:
        if ep.process_local:
            raise EndpointError(
                f"cannot observe {ep}: {ep.scheme}:// endpoints are process-local"
            )
    return endpoints


def _announce(collectors: Iterable[Any]) -> None:
    """Say where each collector the session bound is listening."""
    for collector in collectors:
        _emit(f"collector listening on {collector.endpoint}")
        _emit(f"producers dial {collector.endpoint_url}")


def _cmd_collect(args: argparse.Namespace) -> int:
    try:
        with TelemetrySession(liveness_timeout=args.liveness) as session:
            collector = session.collect(args.endpoint, arena=args.arena)
            _announce([collector])
            arena = collector.arena
            _emit(
                "streams: private slab rows as deep as each HELLO's capacity"
                if arena is None
                else f"streams: rows of {args.arena} ({arena.streams} rows x {arena.depth} "
                f"records, {arena.nbytes / 1e6:.1f} MB), then private slabs of that depth"
            )
            if collector.is_edge:
                up_host, up_port = collector.upstream_address or ("", 0)
                _emit(f"forwarding upstream to {up_host}:{up_port}")
            if args.port_file:
                _write_port_file(args.port_file, collector.port)
            aggregator = session.fleet(collector)

            # The summary and the stats line tick on independent cadences;
            # one loop runs at the faster of the two and each tick emits
            # whichever lines are due (time.sleep never wakes early, so a
            # due deadline is always reached).
            now = time.monotonic()
            next_summary = now
            next_stats = None if args.stats_interval is None else now + args.stats_interval

            def tick() -> None:
                nonlocal next_summary, next_stats
                now = time.monotonic()
                if not args.quiet and now >= next_summary:
                    summary = aggregator.summary()
                    stats = collector.stats()
                    _emit(
                        f"streams={summary.streams} beats={stats['records']} "
                        f"mean={summary.mean:.2f} p99={summary.percentiles[99.0]:.2f} "
                        f"lagging={summary.lagging} stalled={summary.stalled} "
                        f"protocol_errors={stats['protocol_errors']}"
                    )
                    next_summary = now + args.interval
                if next_stats is not None and now >= next_stats:
                    _emit(_stats_line(collector))
                    next_stats = now + args.stats_interval

            loop_interval = (
                args.interval
                if args.stats_interval is None
                else min(args.interval, args.stats_interval)
            )
            _run_loop(args.duration, loop_interval, tick)
    finally:
        # Never leave a stale port file: scripts poll it for discovery.
        if args.port_file:
            try:
                os.unlink(args.port_file)
            except OSError:
                pass
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    endpoints = _observable(args.endpoints)
    if not endpoints:
        _emit(f"watch: nothing to watch — pass endpoint URLs ({_SCHEME_NAMES})", stream=sys.stderr)
        return 2
    session = TelemetrySession(window=args.window, liveness_timeout=args.liveness)
    with session, contextlib.ExitStack() as dashboard:
        aggregator = session.fleet(*endpoints)
        _announce(aggregator.collectors)
        if args.serve:
            # Deferred import: the dashboard pulls in the adaptation layer,
            # which plain table watching does not need.  It serves the same
            # aggregator the table polls, and closes before the session.
            from repro.obs.serve import TelemetryServer

            server = dashboard.enter_context(
                TelemetryServer(
                    aggregator,
                    collectors=aggregator.collectors,
                    port=args.port,
                    interval=args.interval,
                )
            )
            _emit(f"dashboard at {server.url} (SSE /events, scrape /metrics)")

        def tick() -> None:
            _emit(_fleet_table(aggregator.poll()))

        if args.once:
            tick()
        else:
            interrupted = _run_loop(args.duration, args.interval, tick)
            summary = aggregator.summary()
            _emit(
                f"-- watch {'interrupted' if interrupted else 'done'}: "
                f"{summary.streams} streams, mean {summary.mean:.2f} "
                f"p99 {summary.percentiles[99.0]:.2f}, "
                f"{summary.lagging} lagging, {summary.stalled} stalled"
            )
    return 0


def _tick_line(tick: EngineTick, engine: AdaptationEngine) -> str:
    """One engine tick as a summary line (the adapt command's heartbeat)."""
    parts = [
        f"tick={tick.index}",
        f"streams={len(tick.sample)}",
        f"loops={len(engine.loops)}",
        f"decisions={tick.decisions}",
        f"changed={tick.changes}",
        f"lagging={len(engine.lagging(tick.sample))}",
    ]
    if tick.attached:
        parts.append(f"attached={','.join(tick.attached)}")
    if tick.detached:
        parts.append(f"detached={','.join(tick.detached)}")
    if tick.sample.errors:
        parts.append(f"errors={len(tick.sample.errors)}")
    if tick.errors:
        parts.append(f"loop_errors={len(tick.errors)}")
    return " ".join(parts)


def _loop_table(engine: AdaptationEngine) -> str:
    """Final per-loop report: knob values and last observations."""
    lines = [f"{'loop':<24} {'value':>9} {'target':>17} {'rate':>10} {'decisions':>9}"]
    for name, loop in sorted(engine.loops.items()):
        trace = loop.last_trace
        rate = f"{trace.observed_rate:10.2f}" if trace is not None else f"{'-':>10}"
        target = f"[{loop.target.minimum:.1f}, {loop.target.maximum:.1f}]"
        lines.append(
            f"{name:<24} {loop.actuator.current():>9.2f} {target:>17} {rate} {loop.decisions:>9d}"
        )
    return "\n".join(lines)


def _cmd_adapt(args: argparse.Namespace) -> int:
    try:
        spec = AdaptSpec.from_file(args.spec)
    except (OSError, SpecError) as exc:
        _emit(f"cannot load adaptation spec {args.spec!r}: {exc}", stream=sys.stderr)
        return 2
    if not _observable([*spec.attach, *args.endpoints]):
        _emit(
            f"adapt: nothing to adapt — pass endpoint URLs ({_SCHEME_NAMES}) "
            "or add [engine] attach to the spec",
            stream=sys.stderr,
        )
        return 2
    with TelemetrySession() as session:
        engine = session.adapt(spec, attach=args.endpoints)
        _announce(engine.aggregator.collectors)
        _emit(
            f"adaptation engine: {len(spec.loops)} loop rule(s), advisory actuators "
            f"(decisions are logged, not applied)"
        )

        def tick() -> None:
            _emit(_tick_line(engine.tick(), engine))

        if args.once:
            tick()
        else:
            interval = args.interval if args.interval is not None else spec.interval
            _run_loop(args.duration, interval, tick)
        if engine.loops:
            _emit(_loop_table(engine))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    # Deferred import: the scenario harness pulls in the chaos proxy and
    # subprocess machinery that collect/watch/adapt never need.
    from repro.scenario import PRESETS, ScenarioError, ScenarioRunner, ScenarioSpec

    if args.scenario_command == "list":
        for name in sorted(PRESETS):
            spec = ScenarioSpec.preset(name)
            _emit(f"{name:<16} {spec.description}")
        return 0
    assert args.scenario_command == "run"
    try:
        if args.scenario in PRESETS:
            spec = ScenarioSpec.preset(args.scenario)
        else:
            spec = ScenarioSpec.from_file(args.scenario)
    except OSError as exc:
        _emit(f"scenario: cannot load {args.scenario!r}: {exc}", stream=sys.stderr)
        return 2
    except ScenarioError as exc:
        _emit(f"scenario: invalid spec {args.scenario!r}: {exc}", stream=sys.stderr)
        return 2
    _emit(
        f"scenario {spec.name}: {spec.fleet.producers} producers x "
        f"{spec.fleet.beats} beats, topology={spec.topology}"
        f"{', proxied' if spec.proxy else ''}{', journaled' if spec.journal else ''}"
    )
    try:
        result = ScenarioRunner(
            spec,
            report_path=args.report,
            workdir=args.workdir,
            serve=args.serve,
            serve_port=args.port,
        ).run()
    except ScenarioError as exc:
        _emit(f"scenario: {exc}", stream=sys.stderr)
        return 1
    for inv in result.invariants:
        _emit(f"  {'PASS' if inv.passed else 'FAIL'} {inv.kind}: {inv.detail}")
    verdict = "passed" if result.passed else "FAILED"
    _emit(f"scenario {spec.name} {verdict} in {result.duration:.1f}s")
    if args.report:
        _emit(f"report: {args.report}")
    return 0 if result.passed else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    # Deferred import: the tuning subsystem pulls in the simulated plant and
    # the optimizer, which no observation command needs.
    from repro.obs.tracing import FlightRecorder
    from repro.tune import EvaluationConfig, PRESET_SPECS, Tuner, write_tuned_spec
    from repro.tune.space import TuneError

    try:
        if args.spec in PRESET_SPECS:
            spec = PRESET_SPECS[args.spec]()
        else:
            spec = AdaptSpec.from_file(args.spec)
    except OSError as exc:
        _emit(f"tune: cannot load spec {args.spec!r}: {exc}", stream=sys.stderr)
        return 2
    except SpecError as exc:
        _emit(f"tune: invalid spec {args.spec!r}: {exc}", stream=sys.stderr)
        return 2
    config = EvaluationConfig(
        streams=args.streams,
        ticks=args.ticks,
        beats_per_tick=args.beats_per_tick,
        profile=args.profile,
    )
    log = FlightRecorder(args.log) if args.log else None
    try:
        tuner = Tuner(
            spec,
            config=config,
            strategy=args.strategy,
            budget=args.budget,
            popsize=args.popsize,
            workers=args.workers,
            seed=args.seed,
            flight_log=log,
        )
        _emit(
            f"tuning {len(tuner.space.params)} parameter(s) "
            f"[{', '.join(tuner.space.names)}] with {args.strategy}, "
            f"budget {args.budget}, {args.streams} streams x {args.ticks} ticks "
            f"({args.profile})"
        )
        result = tuner.run()
    except TuneError as exc:
        _emit(f"tune: {exc}", stream=sys.stderr)
        return 2
    finally:
        if log is not None:
            log.close()
    text = write_tuned_spec(result.spec, args.out)
    baseline, tuned = result.baseline_result, result.tuned_result
    _emit(
        f"searched {result.evaluations} evaluations in {result.generations} "
        f"generation(s), {result.restarts} restart(s)"
    )
    for name, value in sorted(result.best_values.items()):
        shown = f"{value:.4g}" if isinstance(value, float) else str(value)
        _emit(f"  {name} = {shown}")
    _emit(
        f"baseline: score {baseline.score:.3f}, settle_median {baseline.settle_median:.3f}s, "
        f"in-window {baseline.in_window_fraction:.0%}"
    )
    _emit(
        f"tuned:    score {tuned.score:.3f}, settle_median {tuned.settle_median:.3f}s, "
        f"in-window {tuned.in_window_fraction:.0%}"
    )
    verdict = "beats" if result.improved else "does NOT beat"
    _emit(f"tuned spec {verdict} the baseline on median settle time (held-out seed)")
    _emit(f"wrote {args.out} ({len(text.splitlines())} lines)")
    if args.log:
        _emit(f"flight log: {args.log}")
    return 0


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "collect": _cmd_collect,
    "watch": _cmd_watch,
    "adapt": _cmd_adapt,
    "scenario": _cmd_scenario,
    "tune": _cmd_tune,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pipe closed (e.g. `repro collect | head`): exit quietly
        # the way any well-behaved CLI does, with stdout pointed at devnull
        # so interpreter shutdown doesn't print a second traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (EndpointError, SpecError) as exc:
        # A URL or spec that cannot mean what was asked of it: usage error.
        _emit(f"{args.command}: {exc}", stream=sys.stderr)
        return 2
    except (OSError, HeartbeatError) as exc:
        # The URL was fine, the world was not (address in use, no such log
        # or segment): the traceback would bury the one fact that matters.
        _emit(f"{args.command}: {exc}", stream=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Ctrl-C outside the steady-state loop (during bind, attach or
        # teardown): exit with the conventional SIGINT status, no traceback.
        _emit(f"{args.command}: interrupted", stream=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
