"""Chaos proxy: a TCP shim that degrades the wire on a scripted timeline.

:class:`ChaosProxy` sits between any two peers of the telemetry wire
protocol — producer → collector, or edge collector → root — and forwards
bytes transparently (it never parses frames, so every protocol version and
frame type passes through unchanged) while injecting the failures that live
*between* processes:

* **latency / jitter** — each forwarded chunk is held for ``latency`` plus a
  uniform random share of ``jitter`` seconds before delivery;
* **bandwidth caps** — a per-direction byte budget serialises delivery at
  ``bandwidth`` bytes/second, so a replay burst drains like a thin WAN link;
* **byte drops** — each received chunk is discarded with probability
  ``drop_probability``.  Dropping bytes from a framed TCP stream corrupts
  framing, which is the point: the receiver's CRC/length checks must poison
  *only* that connection, and the sender must reconnect and recover;
* **partitions** — ``partition("blackhole")`` stops forwarding while keeping
  connections parked (the silent-partition case: peers see no FIN, only
  stalled liveness), ``partition("drop")`` severs every link and refuses new
  ones (the hard-partition case: peers see dead connections and enter their
  reconnect/backoff loops).  ``heal()`` restores normal forwarding either way.

Impairments change at runtime — from the control methods, or from a scripted
:class:`~repro.faults.timeline.Timeline` of events applied as their
deadlines pass — so one proxy can drive a whole degrade-then-heal story.

Insert it by address: producers dial the proxy instead of the collector
(``tcp://host:port?via=proxyhost:proxyport`` does this at the endpoint
layer), and an edge collector's ``upstream=`` can point at a proxy fronting
the root.

>>> from repro.net import HeartbeatCollector
>>> with HeartbeatCollector() as collector:
...     with ChaosProxy(collector.address) as proxy:
...         proxy.endpoint == f"{proxy.host}:{proxy.port}"
True
"""

from __future__ import annotations

import random
import selectors
import socket
import threading
import time
from collections import deque

from repro.faults.timeline import Timeline, TimelineEvent
from repro.net import protocol
from repro.net.link import SelectorServer, dial, hang_up, nodelay
from repro.obs.registry import MetricsRegistry

__all__ = ["ChaosProxy"]

_RECV_SIZE = 1 << 16

#: Time-out for dialling the target per accepted connection, in seconds.
_CONNECT_TIMEOUT = 1.0

#: Partition modes: silent (park connections, forward nothing) and hard
#: (sever every link, refuse new ones).
_PARTITION_MODES = ("blackhole", "drop")


class _Pipe:
    """One direction of one link: src socket → impairments → dst socket."""

    __slots__ = ("src", "dst", "queue", "bw_cursor", "src_eof", "blocked")

    def __init__(self, src: socket.socket, dst: socket.socket) -> None:
        self.src = src
        self.dst = dst
        #: (release_time, pending bytes) in arrival order.
        self.queue: deque[tuple[float, memoryview]] = deque()
        #: Bandwidth serialisation point: no chunk releases before it.
        self.bw_cursor = 0.0
        self.src_eof = False
        #: True while the head chunk is due but ``dst`` would block.
        self.blocked = False

    def next_release(self) -> float | None:
        return self.queue[0][0] if self.queue else None


class _Link:
    """One proxied connection: a downstream/upstream socket pair."""

    __slots__ = ("down", "up", "inbound", "outbound")

    def __init__(self, down: socket.socket, up: socket.socket) -> None:
        self.down = down
        self.up = up
        #: downstream → upstream (what the dialling peer sends).
        self.inbound = _Pipe(down, up)
        #: upstream → downstream (what the target answers).
        self.outbound = _Pipe(up, down)

    def pipes(self) -> tuple[_Pipe, _Pipe]:
        return (self.inbound, self.outbound)

    def pipe_into(self, sock: socket.socket) -> _Pipe:
        """The pipe that writes into ``sock``."""
        return self.inbound if sock is self.up else self.outbound

    def pipe_from(self, sock: socket.socket) -> _Pipe:
        """The pipe that reads from ``sock``."""
        return self.inbound if sock is self.down else self.outbound


class ChaosProxy(SelectorServer):
    """Transparent TCP proxy with scriptable link impairments.

    It binds by the collector's rule (:class:`~repro.net.link.SelectorServer`):
    the family follows ``host``, so ``host="::1"`` listens on IPv6.

    Parameters
    ----------
    target:
        ``"host:port"`` (or ``(host, port)``) of the real peer — the
        collector or root the proxied traffic is destined for.
    host, port:
        Listening address; the defaults bind a loopback ephemeral port
        (read :attr:`port` / :attr:`endpoint` for the assigned one).
    latency, jitter:
        Initial one-way delay applied to every forwarded chunk: ``latency``
        seconds plus a uniform random value in ``[0, jitter)``.
    bandwidth:
        Per-direction delivery cap in bytes/second (``None``: unlimited).
    drop_probability:
        Probability in ``[0, 1]`` that a received chunk is discarded.
    seed:
        Seed for the proxy's private RNG (jitter and drops), so a scripted
        scenario replays deterministically.
    schedule:
        Optional :class:`~repro.faults.timeline.Timeline` of impairment
        events applied as the proxy's clock passes their deadlines
        (``partition`` / ``heal`` / ``latency`` / ``bandwidth`` / ``drop`` /
        ``flap`` — see :meth:`apply`).  The clock starts when the proxy
        starts.
    metrics:
        :class:`~repro.obs.registry.MetricsRegistry` for the proxy's
        counters; a private registry is created when omitted.

    Raises
    ------
    OSError
        When the listening address cannot be bound (the message names it).
    ValueError
        For an unparseable target address or invalid impairment values.
    """

    def __init__(
        self,
        target: str | tuple[str, int],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        latency: float = 0.0,
        jitter: float = 0.0,
        bandwidth: float | None = None,
        drop_probability: float = 0.0,
        seed: int | None = None,
        schedule: Timeline | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.target = protocol.parse_address(target)
        self._rng = random.Random(seed)
        self._schedule = schedule if schedule is not None else Timeline()
        self._epoch: float | None = None

        self._lock = threading.Lock()
        self._latency = 0.0
        self._jitter = 0.0
        self._bandwidth: float | None = None
        self._drop_probability = 0.0
        self.set_latency(latency, jitter=jitter)
        self.set_bandwidth(bandwidth)
        self.set_drop_probability(drop_probability)
        self._partition_mode: str | None = None

        #: Control operations handed to the loop thread (structural changes
        #: — partition/heal/flap — must run on the thread that owns sockets).
        self._ops: deque[TimelineEvent] = deque()

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = {"target": f"{self.target[0]}:{self.target[1]}"}
        self._m_connections = self.metrics.counter(
            "proxy_connections_total", help="downstream connections accepted", labels=labels
        )
        self._m_refused = self.metrics.counter(
            "proxy_connections_refused_total",
            help="connections refused (hard partition or target unreachable)", labels=labels,
        )
        self._m_bytes = self.metrics.counter(
            "proxy_bytes_forwarded_total", help="bytes delivered through the proxy", labels=labels
        )
        self._m_dropped_chunks = self.metrics.counter(
            "proxy_chunks_dropped_total", help="received chunks discarded by loss injection",
            labels=labels,
        )
        self._m_dropped_bytes = self.metrics.counter(
            "proxy_bytes_dropped_total", help="bytes discarded by loss injection", labels=labels
        )
        self._m_partitions = self.metrics.counter(
            "proxy_partitions_total", help="partition events applied", labels=labels
        )
        self._m_severed = self.metrics.counter(
            "proxy_links_severed_total", help="links torn down by drop-partitions and flaps",
            labels=labels,
        )
        self.metrics.gauge(
            "proxy_active_links", help="currently proxied connections", labels=labels,
            fn=lambda: float(len(self._links)),
        )

        #: Live links and the parked (blackholed) ones; loop thread only.
        self._links: dict[int, _Link] = {}
        self._parked: set[socket.socket] = set()
        self._write_interest: set[int] = set()

        super().__init__(host, port, 128, "hb-proxy")
        self._start()

    # ------------------------------------------------------------------ #
    # Impairment controls (any thread)
    # ------------------------------------------------------------------ #
    def set_latency(self, latency: float, *, jitter: float = 0.0) -> None:
        """Set the one-way delay: ``latency`` plus uniform ``[0, jitter)``."""
        if latency < 0 or jitter < 0:
            raise ValueError(f"latency/jitter must be >= 0, got {latency!r}/{jitter!r}")
        with self._lock:
            self._latency = float(latency)
            self._jitter = float(jitter)

    def set_bandwidth(self, bytes_per_second: float | None) -> None:
        """Cap per-direction delivery rate (``None`` removes the cap)."""
        if bytes_per_second is not None and bytes_per_second <= 0:
            raise ValueError(f"bandwidth must be positive, got {bytes_per_second!r}")
        with self._lock:
            self._bandwidth = None if bytes_per_second is None else float(bytes_per_second)

    def set_drop_probability(self, probability: float) -> None:
        """Set the per-chunk loss probability in ``[0, 1]``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {probability!r}")
        with self._lock:
            self._drop_probability = float(probability)

    def partition(self, mode: str = "blackhole") -> None:
        """Cut the link: ``"blackhole"`` parks connections silently,
        ``"drop"`` severs them and refuses new ones."""
        if mode not in _PARTITION_MODES:
            raise ValueError(f"partition mode must be one of {_PARTITION_MODES}, got {mode!r}")
        self._post(TimelineEvent(at=0.0, action="partition", params={"mode": mode}))

    def heal(self) -> None:
        """End the partition and resume normal forwarding."""
        self._post(TimelineEvent(at=0.0, action="heal"))

    def flap(self) -> None:
        """Sever every live link once (peers reconnect immediately)."""
        self._post(TimelineEvent(at=0.0, action="flap"))

    @property
    def partitioned(self) -> str | None:
        """The active partition mode, or ``None`` while healthy."""
        with self._lock:
            return self._partition_mode

    def apply(self, event: TimelineEvent) -> None:
        """Apply one timeline event (the schedule dispatch, usable directly).

        Actions: ``latency`` (``latency``/``jitter``), ``bandwidth``
        (``bytes_per_second``), ``drop`` (``probability``), ``partition``
        (``mode``), ``heal``, ``flap``.
        """
        action = event.action
        if action == "latency":
            self.set_latency(
                float(event.param("latency", 0.0)), jitter=float(event.param("jitter", 0.0))
            )
        elif action == "bandwidth":
            raw = event.param("bytes_per_second")
            self.set_bandwidth(None if raw is None else float(raw))
        elif action == "drop":
            self.set_drop_probability(float(event.param("probability", 0.0)))
        elif action in ("partition", "heal", "flap"):
            self._post(TimelineEvent(at=0.0, action=action, params=dict(event.params)))
        else:
            raise ValueError(f"unknown proxy action {action!r}")

    def _post(self, event: TimelineEvent) -> None:
        with self._lock:
            self._ops.append(event)
        self._wake()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        """Forwarding counters (views over :attr:`metrics`)."""
        return {
            "connections": int(self._m_connections.value),
            "refused": int(self._m_refused.value),
            "active_links": len(self._links),
            "bytes_forwarded": int(self._m_bytes.value),
            "chunks_dropped": int(self._m_dropped_chunks.value),
            "bytes_dropped": int(self._m_dropped_bytes.value),
            "partitions": int(self._m_partitions.value),
            "links_severed": int(self._m_severed.value),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChaosProxy({self.endpoint} -> {self.target[0]}:{self.target[1]}, "
            f"links={len(self._links)})"
        )

    # ------------------------------------------------------------------ #
    # Event loop (loop thread only below; ``close()`` severs every link)
    # ------------------------------------------------------------------ #
    def _after_events(self) -> None:
        self._drain_ops()
        self._apply_schedule()
        self._flush_all()

    def _teardown(self) -> None:
        for link in list(self._links.values()):
            self._close_link(link)
        for sock in self._parked:
            hang_up(sock)
        self._parked.clear()

    def _select_timeout(self) -> float:
        """Sleep until the next due chunk or schedule event, capped."""
        timeout = super()._select_timeout()
        now = time.monotonic()
        for link in self._links.values():
            for pipe in link.pipes():
                release = pipe.next_release()
                if release is not None:
                    timeout = min(timeout, max(0.0, release - now))
        if self._epoch is not None:
            next_at = self._schedule.next_at()
            if next_at is not None:
                timeout = min(timeout, max(0.0, self._epoch + next_at - now))
        return timeout

    def _accepted(self, down: socket.socket, peer: object) -> None:
        # An op posted before this peer dialled (a heal, a partition)
        # may share this wake-up; apply it before the mode is read.
        self._drain_ops()
        with self._lock:
            mode = self._partition_mode
        if mode == "drop":
            # Hard partition: the dialling peer sees an immediate close,
            # exactly like a refused route, and keeps backing off.
            self._m_refused.inc()
            down.close()
            return
        try:
            up = dial(self.target, _CONNECT_TIMEOUT)
        except OSError:
            self._m_refused.inc()
            down.close()
            return
        down.setblocking(False)
        up.setblocking(False)
        nodelay(down)
        link = _Link(down, up)
        self._links[down.fileno()] = link
        self._links[up.fileno()] = link
        self._m_connections.inc()
        if mode == "blackhole":
            # Parked from birth: the connection exists but nothing flows.
            self._parked.update((down, up))
        else:
            self._selector.register(down, selectors.EVENT_READ, link)
            self._selector.register(up, selectors.EVENT_READ, link)

    def _ready(self, key: selectors.SelectorKey, mask: int) -> None:
        sock: socket.socket = key.fileobj  # type: ignore[assignment]
        link = self._links.get(sock.fileno())
        if link is None or not mask & selectors.EVENT_READ:  # stale, or only writable
            return
        pipe = link.pipe_from(sock)
        try:
            data = sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_link(link)
            return
        if not data:
            pipe.src_eof = True
            self._unregister(sock)
            self._maybe_finish(link)
            return
        with self._lock:
            latency, jitter = self._latency, self._jitter
            bandwidth = self._bandwidth
            drop_p = self._drop_probability
        if drop_p > 0.0 and self._rng.random() < drop_p:
            self._m_dropped_chunks.inc()
            self._m_dropped_bytes.inc(len(data))
            return
        now = time.monotonic()
        release = now + latency + (self._rng.uniform(0.0, jitter) if jitter > 0.0 else 0.0)
        if bandwidth is not None:
            pipe.bw_cursor = max(release, pipe.bw_cursor) + len(data) / bandwidth
            release = pipe.bw_cursor
        pipe.queue.append((release, memoryview(bytes(data))))

    def _flush_all(self) -> None:
        now = time.monotonic()
        for link in list(dict.fromkeys(self._links.values())):
            for pipe in link.pipes():
                self._flush_pipe(link, pipe, now)

    def _flush_pipe(self, link: _Link, pipe: _Pipe, now: float) -> None:
        while pipe.queue:
            release, chunk = pipe.queue[0]
            if release > now:
                break
            try:
                sent = pipe.dst.send(chunk)
            except (BlockingIOError, InterruptedError):
                self._set_blocked(pipe, True)
                return
            except OSError:
                self._close_link(link)
                return
            self._m_bytes.inc(sent)
            if sent < len(chunk):
                pipe.queue[0] = (release, chunk[sent:])
                self._set_blocked(pipe, True)
                return
            pipe.queue.popleft()
        self._set_blocked(pipe, False)
        self._maybe_finish(link)

    def _set_blocked(self, pipe: _Pipe, blocked: bool) -> None:
        """Track write interest on ``pipe.dst`` so blocked data resumes fast."""
        if pipe.blocked == blocked:
            return
        pipe.blocked = blocked
        sock = pipe.dst
        fd = sock.fileno()
        if fd < 0 or sock in self._parked:
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if blocked else 0)
        try:
            self._selector.modify(sock, events, self._links.get(fd))
        except (KeyError, ValueError):  # pragma: no cover - already unregistered
            pass

    def _maybe_finish(self, link: _Link) -> None:
        """Propagate EOF once a direction drains; close when both are done."""
        done = 0
        for pipe in link.pipes():
            if pipe.src_eof and not pipe.queue:
                try:
                    pipe.dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                done += 1
        if done == 2:
            self._close_link(link)

    def _close_link(self, link: _Link) -> None:
        for sock in (link.down, link.up):
            fd = sock.fileno()
            if fd >= 0:
                self._links.pop(fd, None)
            self._unregister(sock)
            self._parked.discard(sock)
            hang_up(sock)

    # ------------------------------------------------------------------ #
    # Control operations and the scripted schedule (loop thread)
    # ------------------------------------------------------------------ #
    def _drain_ops(self) -> None:
        while True:
            with self._lock:
                if not self._ops:
                    return
                op = self._ops.popleft()
            self._apply_structural(op)

    def _apply_schedule(self) -> None:
        if self._epoch is None:
            self._epoch = time.monotonic()
        elapsed = time.monotonic() - self._epoch
        for event in self._schedule.pop_due(elapsed):
            try:
                if event.action in ("partition", "heal", "flap"):
                    self._apply_structural(event)
                else:
                    self.apply(event)
            except ValueError:
                # A bad scheduled event must not kill the loop; scenario
                # specs validate actions up front, this is the backstop.
                continue

    def _apply_structural(self, event: TimelineEvent) -> None:
        if event.action == "partition":
            mode = str(event.param("mode", "blackhole"))
            if mode not in _PARTITION_MODES:
                return
            with self._lock:
                self._partition_mode = mode
            self._m_partitions.inc()
            if mode == "drop":
                self._sever_all()
            else:
                self._park_all()
        elif event.action == "heal":
            with self._lock:
                self._partition_mode = None
            self._unpark_all()
        elif event.action == "flap":
            self._sever_all()

    def _sever_all(self) -> None:
        links = list(dict.fromkeys(self._links.values()))
        for link in links:
            self._close_link(link)
        self._m_severed.inc(len(links))

    def _park_all(self) -> None:
        for link in dict.fromkeys(self._links.values()):
            for sock in (link.down, link.up):
                if sock not in self._parked:
                    self._unregister(sock)
                    self._parked.add(sock)

    def _unpark_all(self) -> None:
        for sock in list(self._parked):
            self._parked.discard(sock)
            fd = sock.fileno()
            link = self._links.get(fd) if fd >= 0 else None
            if link is None:
                continue
            try:
                self._selector.register(sock, selectors.EVENT_READ, link)
            except (KeyError, ValueError):  # pragma: no cover - already registered
                pass
            # Delivery deadlines kept ticking while parked; blocked flags are
            # stale either way, so force one fresh flush pass.
            link.pipe_into(sock).blocked = False
