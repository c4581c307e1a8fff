"""The context-managed front door: one object that opens and owns everything.

:class:`TelemetrySession` is the composition root of the telemetry API.  Give
it endpoint URLs (see :mod:`repro.endpoints`) and it hands back live,
correctly-wired objects — producers (:meth:`produce`), single-stream
observers (:meth:`observe`), fleet observers (:meth:`fleet`), collectors
(:meth:`collect`) and adaptation engines (:meth:`adapt`) — while keeping
ownership of every resource it created: leaving the ``with`` block flushes,
closes and detaches them all, in reverse creation order, exactly once.

>>> from repro import TelemetrySession
>>> with TelemetrySession() as session:
...     hb = session.produce("mem://worker", window=20)
...     hb.set_target_rate(100.0, 200.0)
...     monitor = session.observe("mem://worker")
...     for item in range(40):
...         _ = hb.heartbeat(tag=item)   # returns the beat number
...     monitor.read().total_beats
40

The same URLs cross process boundaries: a producer in one process runs
``session.produce("shm://svc?depth=65536")`` (or ``tcp://host:port``,
or ``file:///var/log/svc.hblog``) and an observer anywhere else runs
``session.observe("shm://svc")`` or ``session.fleet("tcp://0.0.0.0:7717")``
with no other coordination.

One session, one time base: unless a ``clock`` is supplied (to the session,
or per call), every stream a session produces or observes is stamped and
read with the default :class:`~repro.clock.WallClock`, the host-wide
monotonic clock, so liveness ages are consistent across processes.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable

from repro.clock import Clock
from repro.core.aggregator import HeartbeatAggregator
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HeartbeatMonitor
from repro.endpoints import (
    Endpoint,
    EndpointError,
    open_collector,
    open_source,
    stream_name_for,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adapt.engine import AdaptationEngine
    from repro.adapt.spec import ActuatorFactory, AdaptSpec
    from repro.net import HeartbeatCollector
    from repro.obs.serve import TelemetryServer

__all__ = ["TelemetrySession"]


class TelemetrySession:
    """Context-managed facade over producers, observers and fleets.

    Parameters
    ----------
    clock:
        Default time source for everything the session creates.  ``None``
        keeps each object's default, the host-wide monotonic ``WallClock``.
    window:
        Default rate window for produced and observed streams (``0``: the
        library / producer default).
    liveness_timeout:
        Default seconds-without-a-beat before observers classify a stream
        ``STALLED``; ``None`` disables the check.
    """

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        window: int = 0,
        liveness_timeout: float | None = None,
    ) -> None:
        self._clock = clock
        self._window = int(window)
        self._liveness_timeout = liveness_timeout
        self._lock = threading.Lock()
        #: LIFO of ``(label, close callable)`` — closed in reverse creation
        #: order so observers detach before the producers they read.
        self._resources: list[tuple[str, Callable[[], None]]] = []
        self._produced: dict[str, Heartbeat] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def produce(
        self,
        endpoint: str | Endpoint = "mem://",
        *,
        name: str | None = None,
        window: int | None = None,
        history: int = 2048,
        target: tuple[float, float] | None = None,
        clock: Clock | None = None,
        thread_safe: bool = True,
    ) -> Heartbeat:
        """Open a heartbeat stream that publishes to ``endpoint``.

        ``name`` defaults to the endpoint's natural stream name (the
        ``mem://``/``shm://`` name, the ``tcp://...?stream=`` parameter, the
        log file's basename; a bare ``tcp://host:port`` gets the per-process
        ``hb-<pid>`` so producers on different hosts never collide at the
        collector).  ``target=(min, max)`` publishes a heart-rate goal
        immediately.  ``history`` sizes the retained history of ``mem://``
        streams without an explicit ``?capacity=``, exactly like a bare
        :class:`Heartbeat`; the other schemes size their storage with URL
        parameters (``capacity``/``depth``).

        Returns
        -------
        Heartbeat
            A session-owned heartbeat: it is finalised (backend flushed and
            closed) when the session closes, and can also be finalised
            earlier by the caller — finalisation is idempotent.

        Raises
        ------
        EndpointError
            On an unparseable URL, producer-invalid parameters (e.g.
            ``upstream=`` on a producer endpoint) or a duplicate stream
            name within this session.
        OSError
            When the endpoint's storage cannot be opened (file path,
            shared-memory segment).

        >>> with TelemetrySession() as session:
        ...     hb = session.produce("mem://svc", window=8, target=(5.0, 10.0))
        ...     hb.heartbeat_batch(4)
        ...     (hb.name, hb.target_min, hb.target_max)
        0
        ('svc', 5.0, 10.0)
        """
        ep = Endpoint.parse(endpoint)
        label = f"produce:{ep}"
        if name is not None:
            stream_name = name
        elif ep.wire and getattr(ep, "stream", None) is None:
            stream_name = f"hb-{os.getpid()}"
        else:
            stream_name = stream_name_for(ep)
        # Heartbeat opens the endpoint itself (one layer owns URL → backend,
        # including mem:// history sizing and tcp:// stream naming).
        heartbeat = Heartbeat(
            self._window if window is None else window,
            name=stream_name,
            clock=clock or self._clock,
            backend=ep,
            history=history,
            thread_safe=thread_safe,
        )
        try:
            if target is not None:
                heartbeat.set_target_rate(target[0], target[1])
            with self._lock:
                # observe()/fleet() resolve mem:// URLs through this
                # registry; a silent alias would split one name across two
                # streams, so duplicates are rejected.
                if stream_name in self._produced:
                    raise EndpointError(
                        f"a stream named {stream_name!r} was already produced "
                        "in this session; pass name= (or ?stream=) to "
                        "distinguish them"
                    )
            self._register(label, heartbeat.finalize)
            with self._lock:
                self._produced[stream_name] = heartbeat
        except Exception:
            heartbeat.finalize()  # a rejected stream must not leak its backend
            raise
        return heartbeat

    # ------------------------------------------------------------------ #
    # Observer side
    # ------------------------------------------------------------------ #
    def observe(
        self,
        endpoint: str | Endpoint,
        *,
        window: int | None = None,
        liveness_timeout: float | None = None,
        clock: Clock | None = None,
    ) -> HeartbeatMonitor:
        """Attach a read-only monitor to one stream named by ``endpoint``.

        ``file://`` and ``shm://`` endpoints attach across processes;
        ``mem://NAME`` resolves to the stream this session produced under
        that name.  ``tcp://`` observation is fleet-shaped — use
        :meth:`fleet` (or :meth:`collect`) and let producers dial in.

        Returns
        -------
        HeartbeatMonitor
            A session-owned read-only monitor over the stream.

        Raises
        ------
        EndpointError
            For a ``tcp://`` endpoint (fleet-shaped), a ``mem://`` name
            this session never produced, or an unparseable URL.

        >>> with TelemetrySession() as session:
        ...     hb = session.produce("mem://svc")
        ...     hb.heartbeat_batch(3)
        ...     session.observe("mem://svc").read().total_beats
        0
        3
        """
        ep = Endpoint.parse(endpoint)
        source: object
        if ep.inline:
            source = heartbeat = self._lookup(ep)
            if clock is None and self._clock is None:
                clock = heartbeat.clock  # override > session > the producer's own
        else:
            # Fleet-shaped schemes (tcp://, a whole arena) are refused here,
            # with guidance towards fleet().
            source = open_source(ep)
        monitor = HeartbeatMonitor(
            source,
            clock=clock or self._clock,
            window=self._window if window is None else int(window),
            liveness_timeout=(
                self._liveness_timeout if liveness_timeout is None else liveness_timeout
            ),
            own=not ep.inline,
        )
        self._register(f"observe:{ep}", monitor.close)
        return monitor

    def fleet(
        self,
        *endpoints: str | Endpoint | object,
        window: int | None = None,
        liveness_timeout: float | None = None,
        clock: Clock | None = None,
    ) -> HeartbeatAggregator:
        """Open a fleet observer over any mix of endpoints.

        Each argument may be an endpoint URL/:class:`Endpoint` — ``tcp://``
        binds a session-owned collector and observes every producer that
        dials in (dynamically, as they appear); ``file://`` / ``shm://`` /
        ``mem://NAME`` attach single streams; ``mem-arena://`` /
        ``shm-arena://`` attach a whole arena slab
        (every allocated row, including rows allocated later) — or an
        already-running collector-like object (anything with
        ``slabs()``), which is observed without taking ownership.

        Returns
        -------
        HeartbeatAggregator
            A session-owned fleet observer; one :meth:`poll` samples every
            attached stream.

        Raises
        ------
        EndpointError
            On an unparseable URL or an entry that is neither an endpoint
            nor collector-like.
        OSError
            When a ``tcp://`` entry's bind address is already in use.

        >>> with TelemetrySession() as session:
        ...     hb = session.produce("mem://svc")
        ...     hb.heartbeat_batch(5)
        ...     fleet = session.fleet("mem://svc")
        ...     fleet.poll().reading("svc").total_beats
        0
        5
        """
        aggregator = HeartbeatAggregator(
            clock=clock or self._clock,
            window=self._window if window is None else int(window),
            liveness_timeout=(
                self._liveness_timeout if liveness_timeout is None else liveness_timeout
            ),
        )
        self._register("fleet", aggregator.close)
        for entry in endpoints:
            self._attach_fleet_entry(aggregator, entry)
        return aggregator

    def collect(
        self,
        endpoint: str | Endpoint = "tcp://127.0.0.1:0",
        *,
        arena: str | None = None,
    ) -> "HeartbeatCollector":
        """Bind a session-owned TCP collector at a ``tcp://`` endpoint.

        A ``?upstream=host:port`` parameter binds an *edge* collector that
        forwards every stream to the named upstream collector, so a
        federation tree is built from URLs alone (see
        ``docs/architecture.md`` §3).

        Every incoming stream is a slab row, so fleet observers read the
        collector's slabs whole, one vectorized pass per slab.  ``arena``
        (a ``mem-arena://`` / ``shm-arena://`` URL) only puts the rows in
        that slab first, so other processes can map them (``shm-arena://``).

        Returns
        -------
        HeartbeatCollector
            The bound collector; producers dial ``collector.endpoint_url``.

        Raises
        ------
        EndpointError
            When ``endpoint`` is not ``tcp://`` or carries producer-side
            parameters (``stream``/``capacity``/``flush_interval``).
        OSError
            When the listen address is already bound.

        >>> with TelemetrySession() as session:
        ...     collector = session.collect("tcp://127.0.0.1:0")
        ...     collector.stream_ids()
        []
        """
        collector = open_collector(endpoint, arena=arena)
        self._register(f"collect:tcp://{collector.endpoint}", collector.close)
        return collector

    def watch(
        self,
        *endpoints: "str | Endpoint | object",
        serve: bool | int = True,
        host: str = "127.0.0.1",
        interval: float = 1.0,
        window: int | None = None,
        liveness_timeout: float | None = None,
        engine: "AdaptationEngine | None" = None,
        max_streams: int = 200,
    ) -> "TelemetryServer":
        """Open a live dashboard server over a fleet of endpoints.

        Builds a session-owned fleet observer over ``endpoints`` (the same
        wiring rules as :meth:`fleet` — ``tcp://`` binds collectors,
        ``mem://``/``file://``/``shm://`` attach streams, collector-like
        objects attach without ownership) and mounts a
        :class:`~repro.obs.serve.TelemetryServer` over it: an HTML dashboard
        at ``/``, SSE fleet snapshots at ``/events``, and the merged metric
        registries at ``/metrics``.  Collectors bound (or passed) here also
        contribute their relay-link latency histograms to the page.

        ``serve`` picks the port: ``True`` binds an ephemeral one (read
        ``.url``), an integer binds that port.  ``engine`` optionally feeds
        the live decision stream.  The server is session-owned: leaving the
        ``with`` block closes it along with the fleet it watches.

        >>> with TelemetrySession() as session:
        ...     hb = session.produce("mem://svc")
        ...     server = session.watch("mem://svc", interval=0.05)
        ...     server.url.startswith("http://127.0.0.1:")
        True
        """
        from repro.obs.serve import TelemetryServer

        aggregator = self.fleet(
            *endpoints, window=window, liveness_timeout=liveness_timeout
        )
        port = 0 if serve is True else int(serve)
        server = TelemetryServer(
            aggregator,
            collectors=aggregator.collectors,
            engine=engine,
            host=host,
            port=port,
            interval=interval,
            max_streams=max_streams,
        )
        self._register(f"watch:{server.url}", server.close)
        return server

    # ------------------------------------------------------------------ #
    # Adaptation
    # ------------------------------------------------------------------ #
    def adapt(
        self,
        spec: "AdaptSpec | str",
        *,
        actuators: "dict[str, ActuatorFactory] | None" = None,
        attach: "tuple[str | Endpoint, ...] | list[str | Endpoint]" = (),
        clock: Clock | None = None,
    ) -> "AdaptationEngine":
        """Build a session-owned adaptation engine from a declarative spec.

        ``spec`` is an :class:`~repro.adapt.AdaptSpec` or a path to one.  The
        spec's own ``[engine] attach`` endpoints are wired first, then any
        extra ``attach`` entries, through exactly the same rules as
        :meth:`fleet` — so a spec can carry its full wiring
        (``attach = ["tcp://0.0.0.0:7717"]``) and need nothing but
        ``session.adapt("spec.toml")`` at runtime.

        Returns
        -------
        AdaptationEngine
            A session-owned engine over a session-owned aggregator; call
            :meth:`~repro.adapt.engine.AdaptationEngine.tick` (or
            ``run``) to observe-and-act.

        Raises
        ------
        EndpointError
            From the attach wiring, exactly as :meth:`fleet`.
        HeartbeatError
            When the spec file cannot be parsed or its rules are invalid.
        """
        from repro.adapt.spec import AdaptSpec

        if not isinstance(spec, AdaptSpec):
            spec = AdaptSpec.from_file(spec)
        aggregator = self.fleet(
            *spec.attach,
            *attach,
            window=spec.window,
            liveness_timeout=spec.liveness_timeout,
            clock=clock,
        )
        engine = spec.build_engine(aggregator=aggregator, actuators=actuators)
        # The aggregator is already session-owned; the engine must not close
        # it a second time (engine.close is idempotent about its own state).
        self._register("adapt", lambda: engine.close(close_aggregator=False))
        return engine

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release everything the session created, newest first.  Idempotent.

        Every resource's close is attempted even if an earlier one raises;
        the first failure is re-raised once teardown has run to completion.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            resources = list(self._resources)
            self._resources.clear()
            self._produced.clear()
        first_error: BaseException | None = None
        for _, closer in reversed(resources):
            try:
                closer()
            except BaseException as exc:  # noqa: BLE001 - teardown must finish
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetrySession(resources={len(self._resources)}, "
            f"closed={self._closed})"
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _register(self, label: str, closer: Callable[[], None]) -> None:
        with self._lock:
            if not self._closed:
                self._resources.append((label, closer))
                return
        # Too late to own anything: release the resource and refuse.
        closer()
        raise EndpointError("telemetry session is closed")

    def _lookup(self, ep: Endpoint) -> Heartbeat:
        name = stream_name_for(ep)
        with self._lock:
            heartbeat = self._produced.get(name)
        if heartbeat is None:
            raise EndpointError(
                f"no stream named {name!r} was produced in this session; "
                "mem:// endpoints are process-local"
            )
        return heartbeat

    def _attach_fleet_entry(
        self, aggregator: HeartbeatAggregator, entry: "str | Endpoint | object"
    ) -> None:
        """Attach one fleet entry: an endpoint URL or a collector-like object.

        The one place a parsed endpoint becomes an aggregator attachment —
        ``fleet``, ``watch``, ``adapt`` and every CLI command come through
        here, reading the scheme's row rather than its class.
        """
        if not isinstance(entry, (str, Endpoint)):
            if callable(getattr(entry, "slabs", None)):
                aggregator.attach_collector(entry)  # type: ignore[arg-type]
                return
            raise EndpointError(
                f"fleet entries are endpoint URLs or collector-like objects, "
                f"got {type(entry).__name__}"
            )
        ep = Endpoint.parse(entry)
        if ep.wire:
            aggregator.attach_collector(self.collect(ep))
        elif ep.inline:
            heartbeat = self._lookup(ep)
            aggregator.attach_stream(heartbeat.name, heartbeat)
        else:
            aggregator.attach_endpoint(ep)
