"""Telemetry endpoint URLs — one front door for every wiring style.

Every place a heartbeat stream can live is named by a URL:

==========================================  =====================================
URL                                         meaning
==========================================  =====================================
``mem://``                                  in-process memory backend
``mem://worker?capacity=4096``              named in-process stream
``file:///var/log/svc.hblog``               heartbeat log file (absolute path)
``file://svc.hblog?buffered=0``             log file, write-through appends
``shm://svc?depth=65536``                   shared-memory segment, 65536 slots
``mem-arena://fleet?streams=100000``        one row of an in-process arena slab
``shm-arena://fleet?streams=100000``        one row of a shared-memory arena
``tcp://collector:7717?stream=svc``         ship beats to / collect from TCP
``tcp://0.0.0.0:7717?upstream=root:7717``   edge collector forwarding upstream
==========================================  =====================================

The same string works everywhere: :class:`~repro.session.TelemetrySession`
(``produce`` / ``observe`` / ``fleet``), the declarative
:class:`~repro.adapt.AdaptSpec` (``[engine] attach = [...]``), every ``repro``
CLI subcommand (positional endpoint arguments), ``Heartbeat(backend=url)``
and ``HB_initialize(endpoint=url)``.

URLs parse into frozen, round-trippable :class:`Endpoint` dataclasses —
``Endpoint.parse(str(ep)) == ep`` always holds — and the three factories turn
them into live objects:

* :func:`open_backend` — the producer side: a
  :class:`~repro.core.backends.base.Backend` (which is also a
  :class:`~repro.core.stream.StreamSink`).
* :func:`open_source` — the observer side: a
  :class:`~repro.core.stream.StreamSource` for ``file://`` and ``shm://``
  endpoints (``mem://`` streams are process-local — observe them through the
  session that produced them; ``tcp://`` observation is fleet-shaped — bind a
  collector with :func:`open_collector`).
* :func:`open_sink` — :func:`open_backend` typed as the protocol, for code
  written against :class:`~repro.core.stream.StreamSink` only.

Arena endpoints (``mem-arena://`` / ``shm-arena://``) name *fleets*, not
single streams: the whole fleet's history lives in one columnar slab (see
:mod:`repro.core.backends.arena`), every ``open_backend`` call allocates one
row of it, and observers attach the slab itself — :func:`open_arena`,
``HeartbeatAggregator.attach_arena`` or ``session.fleet`` — to poll all N
streams as one vectorized pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping
from urllib.parse import parse_qsl, quote, unquote, urlencode

from repro.core.errors import HeartbeatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backends.arena import Arena
    from repro.core.backends.base import Backend
    from repro.core.stream import StreamSink, StreamSource
    from repro.net.collector import HeartbeatCollector

__all__ = [
    "Endpoint",
    "MemEndpoint",
    "FileEndpoint",
    "ShmEndpoint",
    "MemArenaEndpoint",
    "ShmArenaEndpoint",
    "TcpEndpoint",
    "EndpointError",
    "SCHEMES",
    "open_backend",
    "open_source",
    "open_sink",
    "open_collector",
    "open_arena",
    "stream_name_for",
]


class EndpointError(HeartbeatError, ValueError):
    """A telemetry endpoint URL is malformed or unusable in this role."""


#: The canonical URL schemes, one per storage/transport backend.
SCHEMES = ("mem", "file", "shm", "mem-arena", "shm-arena", "tcp")


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise EndpointError(f"query parameter {key}={raw!r} is not a boolean")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise EndpointError(f"query parameter {key}={raw!r} is not an integer") from exc


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise EndpointError(f"query parameter {key}={raw!r} is not a number") from exc


def _positive(key: str, value: int) -> int:
    if value <= 0:
        raise EndpointError(f"{key} must be positive, got {value}")
    return value


def _split_url(url: str) -> tuple[str, str, str]:
    """``(scheme, body, query)`` of a ``scheme://body?query`` URL.

    Deliberately simpler than :func:`urllib.parse.urlsplit`: the body is an
    opaque (percent-encoded) name, path or address — no userinfo, fragments
    or parameter components — so round-tripping stays exact for any name a
    backend accepts.
    """
    scheme, sep, rest = url.partition("://")
    if not sep:
        raise EndpointError(
            f"not an endpoint URL: {url!r} (expected scheme://..., one of {SCHEMES})"
        )
    body, _, query = rest.partition("?")
    return scheme.strip().lower(), body, query


def _query_dict(url: str, query: str, known: tuple[str, ...]) -> dict[str, str]:
    params: dict[str, str] = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key not in known:
            raise EndpointError(
                f"unknown query parameter {key!r} in {url!r}; known: {sorted(known)}"
            )
        if key in params:
            raise EndpointError(f"duplicate query parameter {key!r} in {url!r}")
        params[key] = value
    return params


def _format_query(pairs: "list[tuple[str, object]]") -> str:
    if not pairs:
        return ""
    return "?" + urlencode([(k, _format_value(v)) for k, v in pairs])


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True, slots=True)
class Endpoint:
    """Base class of the parsed, canonical form of one endpoint URL.

    Instances are frozen value objects: ``Endpoint.parse(str(ep)) == ep``
    holds for every endpoint, so URLs can be carried through configs, specs
    and CLIs without drift.  Use :meth:`parse` (or the scheme classes
    directly) to construct one.
    """

    scheme: ClassVar[str] = ""

    @staticmethod
    def parse(url: "str | Endpoint") -> "Endpoint":
        """Parse an endpoint URL (idempotent on already-parsed endpoints)."""
        if isinstance(url, Endpoint):
            return url
        scheme, body, query = _split_url(str(url))
        parser = _PARSERS.get(scheme)
        if parser is None:
            raise EndpointError(
                f"unknown endpoint scheme {scheme!r} in {url!r}; known: {SCHEMES}"
            )
        return parser(str(url), body, query)

    def url(self) -> str:
        """The canonical URL string (``Endpoint.parse`` round-trips it)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.url()


@dataclass(frozen=True, slots=True)
class MemEndpoint(Endpoint):
    """``mem://[name][?capacity=N]`` — an in-process memory backend.

    ``name`` names the stream inside a :class:`~repro.session.TelemetrySession`
    (so ``session.observe("mem://worker")`` finds what
    ``session.produce("mem://worker")`` created); an empty name is anonymous.
    """

    scheme: ClassVar[str] = "mem"

    name: str = ""
    capacity: int | None = None

    def __post_init__(self) -> None:
        if self.capacity is not None:
            _positive("capacity", self.capacity)

    @classmethod
    def _parse(cls, url: str, body: str, query: str) -> "MemEndpoint":
        params = _query_dict(url, query, ("capacity",))
        capacity = params.get("capacity")
        return cls(
            name=unquote(body),
            capacity=None if capacity is None else _parse_int("capacity", capacity),
        )

    def url(self) -> str:
        pairs: list[tuple[str, object]] = []
        if self.capacity is not None:
            pairs.append(("capacity", self.capacity))
        return f"mem://{quote(self.name, safe='')}{_format_query(pairs)}"


@dataclass(frozen=True, slots=True)
class FileEndpoint(Endpoint):
    """``file://PATH[?capacity=N&buffered=0|1&flush_interval=S]`` — a log file.

    ``file:///var/log/x.hblog`` is the absolute path ``/var/log/x.hblog``;
    ``file://x.hblog`` is the relative path ``x.hblog``.  ``buffered=0``
    restores write-through appends (the paper-faithful overhead
    configuration); ``flush_interval`` bounds how long a buffered beat can
    stay invisible to external observers.
    """

    scheme: ClassVar[str] = "file"

    path: str
    capacity: int | None = None
    buffered: bool = True
    flush_interval: float | None = None

    def __post_init__(self) -> None:
        if not self.path:
            raise EndpointError("file endpoint needs a path, got file://")
        if self.capacity is not None:
            _positive("capacity", self.capacity)
        if self.flush_interval is not None and self.flush_interval <= 0:
            raise EndpointError(
                f"flush_interval must be positive, got {self.flush_interval}"
            )

    @classmethod
    def _parse(cls, url: str, body: str, query: str) -> "FileEndpoint":
        params = _query_dict(url, query, ("capacity", "buffered", "flush_interval"))
        capacity = params.get("capacity")
        flush = params.get("flush_interval")
        return cls(
            path=unquote(body),
            capacity=None if capacity is None else _parse_int("capacity", capacity),
            buffered=(
                True
                if "buffered" not in params
                else _parse_bool("buffered", params["buffered"])
            ),
            flush_interval=None if flush is None else _parse_float("flush_interval", flush),
        )

    def url(self) -> str:
        pairs: list[tuple[str, object]] = []
        if self.capacity is not None:
            pairs.append(("capacity", self.capacity))
        if not self.buffered:
            pairs.append(("buffered", False))
        if self.flush_interval is not None:
            pairs.append(("flush_interval", self.flush_interval))
        return f"file://{quote(self.path, safe='/')}{_format_query(pairs)}"


@dataclass(frozen=True, slots=True)
class ShmEndpoint(Endpoint):
    """``shm://NAME[?depth=N]`` — a shared-memory segment on this host.

    ``depth`` is the number of record slots in the segment's circular
    history (the producer sizes the segment; observers ignore it).  An empty
    name lets the producer auto-generate a segment name.

    Each ``shm://`` stream is its own POSIX segment, and hosts commonly cap
    the number of mapped segments around ~512 — fine for hundreds of
    producers, a hard ceiling for large fleets.  Point fleets past that at
    ``shm-arena://`` (:class:`ShmArenaEndpoint`), which packs N streams into
    *one* segment.
    """

    scheme: ClassVar[str] = "shm"

    name: str = ""
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.depth is not None:
            _positive("depth", self.depth)

    @classmethod
    def _parse(cls, url: str, body: str, query: str) -> "ShmEndpoint":
        params = _query_dict(url, query, ("depth", "capacity"))
        if "depth" in params and "capacity" in params:
            raise EndpointError(f"pass depth= or capacity=, not both, in {url!r}")
        depth = params.get("depth", params.get("capacity"))
        return cls(
            name=unquote(body),
            depth=None if depth is None else _parse_int("depth", depth),
        )

    def url(self) -> str:
        pairs: list[tuple[str, object]] = []
        if self.depth is not None:
            pairs.append(("depth", self.depth))
        return f"shm://{quote(self.name, safe='')}{_format_query(pairs)}"


@dataclass(frozen=True, slots=True)
class _ArenaEndpoint(Endpoint):
    """Shared shape of the two arena schemes (see the subclasses).

    ``streams`` / ``depth`` fix the slab geometry when this URL is the first
    in the process to open the arena (later opens inherit — and must not
    conflict).  ``stream`` names the row a producer-side ``open_backend``
    allocates (defaulting to the producing heartbeat's name).
    """

    name: str = ""
    streams: int | None = None
    depth: int | None = None
    stream: str | None = None

    def __post_init__(self) -> None:
        if self.streams is not None:
            _positive("streams", self.streams)
        if self.depth is not None:
            _positive("depth", self.depth)

    @classmethod
    def _parse(cls, url: str, body: str, query: str) -> "_ArenaEndpoint":
        params = _query_dict(url, query, ("streams", "depth", "stream"))
        streams = params.get("streams")
        depth = params.get("depth")
        return cls(
            name=unquote(body),
            streams=None if streams is None else _parse_int("streams", streams),
            depth=None if depth is None else _parse_int("depth", depth),
            stream=params.get("stream"),
        )

    def url(self) -> str:
        pairs: list[tuple[str, object]] = []
        if self.streams is not None:
            pairs.append(("streams", self.streams))
        if self.depth is not None:
            pairs.append(("depth", self.depth))
        if self.stream is not None:
            pairs.append(("stream", self.stream))
        return f"{self.scheme}://{quote(self.name, safe='')}{_format_query(pairs)}"


@dataclass(frozen=True, slots=True)
class MemArenaEndpoint(_ArenaEndpoint):
    """``mem-arena://[name][?streams=N&depth=D&stream=ROW]`` — an in-process arena.

    One anonymous columnar slab holds up to ``streams`` heartbeat streams of
    ``depth`` retained records each (:class:`repro.core.backends.arena.Arena`).
    Producers resolving the same URL in one process share the slab — each
    ``open_backend`` allocates one row — and ``session.fleet`` /
    ``HeartbeatAggregator.attach_arena`` observe all of them as one
    vectorized poll with zero per-stream dispatch.
    """

    scheme: ClassVar[str] = "mem-arena"


@dataclass(frozen=True, slots=True)
class ShmArenaEndpoint(_ArenaEndpoint):
    """``shm-arena://NAME[?streams=N&depth=D&stream=ROW]`` — a shared-memory arena.

    Like ``mem-arena://`` but the slab is a single
    ``multiprocessing.shared_memory`` segment any process on the host can
    attach, so a 100k-stream fleet needs *one* segment instead of one per
    stream (POSIX hosts cap mapped segments around ~512 — the ceiling that
    bounds large ``shm://`` fleets).  The first process to resolve the URL
    creates the segment and owns its lifetime; every later resolver
    attaches.
    """

    scheme: ClassVar[str] = "shm-arena"

    def __post_init__(self) -> None:
        # Explicit base call: dataclass(slots=True) recreates the class, so
        # the zero-argument super() closure would point at the pre-slots one.
        _ArenaEndpoint.__post_init__(self)
        if not self.name:
            raise EndpointError("shm-arena endpoint needs a segment name, got shm-arena://")


@dataclass(frozen=True, slots=True)
class TcpEndpoint(Endpoint):
    """``tcp://HOST:PORT[?stream=NAME&capacity=N&upstream=H:P&...]`` — networked telemetry.

    On the producer side the endpoint is the collector address beats are
    shipped to (``stream`` names the registered stream, ``capacity`` sizes
    the local mirror buffer, ``via=HOST:PORT`` dials the named intermediary
    — typically a :class:`~repro.scenario.ChaosProxy` — instead of the
    collector itself).  On the observer side it is the address a
    :class:`~repro.net.collector.HeartbeatCollector` binds; port ``0`` asks
    the OS for an ephemeral port, ``upstream=HOST:PORT`` binds an *edge*
    collector that forwards every stream to the named parent collector
    (federation — see :mod:`repro.net.relay`), and ``journal=DIR`` enables
    collector persistence (:mod:`repro.net.persistence`): streams are
    journaled behind ingest and replayed when a collector rebinds over the
    same directory.  IPv6 literals use brackets: ``tcp://[::1]:7717``.

    Link-discipline tuning rides along: ``backoff_initial`` /
    ``backoff_max`` set the reconnect backoff window of the endpoint's
    outbound link (the exporter's when producing, the relay forwarder's
    when collecting with ``upstream=``); ``relay_interval`` and
    ``probe_interval`` set an edge collector's forwarding sweep cadence and
    idle-EOF probe cadence.  Defaults are unchanged when the parameters are
    absent.

    >>> ep = Endpoint.parse("tcp://0.0.0.0:7717?upstream=root.example:7717")
    >>> ep.upstream
    'root.example:7717'
    >>> Endpoint.parse(str(ep)) == ep
    True
    """

    scheme: ClassVar[str] = "tcp"

    host: str
    port: int
    stream: str | None = None
    capacity: int | None = None
    flush_interval: float | None = None
    upstream: str | None = None
    via: str | None = None
    backoff_initial: float | None = None
    backoff_max: float | None = None
    journal: str | None = None
    relay_interval: float | None = None
    probe_interval: float | None = None

    def __post_init__(self) -> None:
        if not self.host:
            raise EndpointError("tcp endpoint needs a host, got tcp://")
        if not 0 <= self.port <= 65535:
            raise EndpointError(f"tcp port must be in [0, 65535], got {self.port}")
        if self.capacity is not None:
            _positive("capacity", self.capacity)
        for key in ("flush_interval", "backoff_initial", "backoff_max",
                    "relay_interval", "probe_interval"):
            value = getattr(self, key)
            if value is not None and value <= 0:
                raise EndpointError(f"{key} must be positive, got {value}")
        for key in ("upstream", "via"):
            address = getattr(self, key)
            if address is not None:
                from repro.net.protocol import parse_address

                try:
                    parse_address(address)
                except ValueError as exc:
                    raise EndpointError(
                        f"{key} must be host:port, got {address!r}: {exc}"
                    ) from exc
        if self.journal is not None and not self.journal:
            raise EndpointError("journal= needs a directory path")
        if self.upstream is None:
            for key in ("relay_interval", "probe_interval"):
                if getattr(self, key) is not None:
                    raise EndpointError(
                        f"{key}= tunes the relay link and needs upstream= on {self.url()!r}"
                    )

    @classmethod
    def _parse(cls, url: str, body: str, query: str) -> "TcpEndpoint":
        # host:port syntax (incl. IPv6 bracketing) has exactly one owner:
        # the wire protocol's address parser.
        from repro.net.protocol import parse_address

        params = _query_dict(
            url,
            query,
            ("stream", "capacity", "flush_interval", "upstream", "via",
             "backoff_initial", "backoff_max", "journal",
             "relay_interval", "probe_interval"),
        )
        try:
            host, port = parse_address(unquote(body))
        except ValueError as exc:
            raise EndpointError(
                f"tcp endpoint must be tcp://host:port, got {url!r}: {exc}"
            ) from exc

        def opt_float(key: str) -> float | None:
            raw = params.get(key)
            return None if raw is None else _parse_float(key, raw)

        capacity = params.get("capacity")
        return cls(
            host=host,
            port=port,
            stream=params.get("stream"),
            capacity=None if capacity is None else _parse_int("capacity", capacity),
            flush_interval=opt_float("flush_interval"),
            upstream=params.get("upstream"),
            via=params.get("via"),
            backoff_initial=opt_float("backoff_initial"),
            backoff_max=opt_float("backoff_max"),
            journal=params.get("journal"),
            relay_interval=opt_float("relay_interval"),
            probe_interval=opt_float("probe_interval"),
        )

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` pair for the socket layer."""
        return (self.host, self.port)

    @property
    def dial_address(self) -> tuple[str, int]:
        """Where a producer actually connects: ``via`` if set, else the host.

        The ``via=`` intermediary (a chaos proxy, a port forward) is a
        producer-side concern; the endpoint still *names* the collector.
        """
        if self.via is None:
            return self.address
        from repro.net.protocol import parse_address

        return parse_address(self.via)

    def url(self) -> str:
        host = f"[{self.host}]" if ":" in self.host else self.host
        pairs: list[tuple[str, object]] = []
        for key in ("stream", "capacity", "flush_interval", "upstream", "via",
                    "backoff_initial", "backoff_max", "journal",
                    "relay_interval", "probe_interval"):
            value = getattr(self, key)
            if value is not None:
                pairs.append((key, value))
        return f"tcp://{quote(host, safe='[]:')}:{self.port}{_format_query(pairs)}"


_PARSERS: Mapping[str, Callable[[str, str, str], Endpoint]] = {
    "mem": MemEndpoint._parse,
    "file": FileEndpoint._parse,
    "shm": ShmEndpoint._parse,
    "mem-arena": MemArenaEndpoint._parse,
    "shm-arena": ShmArenaEndpoint._parse,
    "tcp": TcpEndpoint._parse,
}


# --------------------------------------------------------------------------- #
# Factories
# --------------------------------------------------------------------------- #
def open_backend(endpoint: "str | Endpoint", *, stream: str | None = None) -> "Backend":
    """Open the producer side of an endpoint as a storage backend.

    ``stream`` is the default stream name for ``tcp://`` endpoints that do
    not carry a ``?stream=`` parameter themselves (other schemes name their
    storage in the URL and ignore it).

    Returns
    -------
    Backend
        A live :class:`~repro.core.backends.base.Backend` (and therefore
        also a :class:`~repro.core.stream.StreamSink`); the caller owns it
        and must ``close()`` it.

    Raises
    ------
    EndpointError
        On an unparseable URL or collector-side parameters (``upstream=``)
        on a producer endpoint.
    OSError
        When the endpoint's storage cannot be created (file path,
        shared-memory segment).

    >>> backend = open_backend("mem://?capacity=64")
    >>> backend.append(1, 0.01, 0, 1)
    >>> backend.snapshot().total_beats
    1
    >>> backend.close()
    """
    ep = Endpoint.parse(endpoint)
    if isinstance(ep, MemEndpoint):
        from repro.core.backends.memory import MemoryBackend

        return MemoryBackend(ep.capacity if ep.capacity is not None else 2048)
    if isinstance(ep, FileEndpoint):
        from repro.core.backends.file import FileBackend

        kwargs: dict[str, Any] = {"buffered": ep.buffered}
        if ep.flush_interval is not None:
            kwargs["flush_interval"] = ep.flush_interval
        return FileBackend(
            ep.path,
            ep.capacity if ep.capacity is not None else 65536,
            **kwargs,
        )
    if isinstance(ep, ShmEndpoint):
        from repro.core.backends.shared_memory import SharedMemoryBackend

        return SharedMemoryBackend(
            name=ep.name or None,
            capacity=ep.depth if ep.depth is not None else 2048,
        )
    if isinstance(ep, _ArenaEndpoint):
        # One row of the (process-shared) arena slab; the row name defaults
        # to the producing heartbeat's name so fleet observers see it.
        row_name = ep.stream if ep.stream is not None else stream
        return open_arena(ep).allocate(row_name if row_name is not None else "")
    if isinstance(ep, TcpEndpoint):
        from repro.net.exporter import NetworkBackend

        collector_only = [
            key
            for key, value in (
                ("upstream", ep.upstream),
                ("journal", ep.journal),
                ("relay_interval", ep.relay_interval),
                ("probe_interval", ep.probe_interval),
            )
            if value is not None
        ]
        if collector_only:
            raise EndpointError(
                f"{', '.join(collector_only)} are collector-side parameters "
                f"and have no meaning when producing to {ep}; bind the "
                f"collector with open_collector()"
            )
        net_kwargs: dict[str, Any] = {}
        if ep.capacity is not None:
            net_kwargs["capacity"] = ep.capacity
        if ep.flush_interval is not None:
            net_kwargs["flush_interval"] = ep.flush_interval
        if ep.backoff_initial is not None:
            net_kwargs["backoff_initial"] = ep.backoff_initial
        if ep.backoff_max is not None:
            net_kwargs["backoff_max"] = ep.backoff_max
        name = ep.stream if ep.stream is not None else stream
        if name is not None:
            net_kwargs["stream"] = name
        # via= routes the dial through an intermediary (chaos proxy, port
        # forward) without renaming the collector the endpoint refers to.
        return NetworkBackend(ep.dial_address, **net_kwargs)
    raise EndpointError(f"cannot open {ep!r} as a backend")  # pragma: no cover


def open_sink(endpoint: "str | Endpoint", *, stream: str | None = None) -> "StreamSink":
    """Open the producer side of an endpoint, typed as a :class:`StreamSink`.

    Identical to :func:`open_backend`; exists so code written purely against
    the capability protocols never has to name the ``Backend`` ABC.
    """
    return open_backend(endpoint, stream=stream)


def open_source(endpoint: "str | Endpoint") -> "StreamSource":
    """Open the observer side of an endpoint as a :class:`StreamSource`.

    ``file://`` endpoints return a
    :class:`~repro.core.backends.file.FileReader` (incremental cursored
    tailing included); ``shm://`` endpoints attach a read-only
    :class:`~repro.core.backends.shared_memory.SharedMemoryReader`.  The
    returned object owns its attachment: call ``close()`` (or let the owning
    session do it) to detach.

    ``mem://`` streams are process-local — observe them through the
    :class:`~repro.session.TelemetrySession` that produced them.  ``tcp://``
    observation is fleet-shaped — bind a collector with
    :func:`open_collector` (or ``session.fleet``) and producers dial in.

    Raises
    ------
    EndpointError
        On an unparseable URL, a ``mem://``/``tcp://`` endpoint (see
        above), or a nameless ``shm://``.
    OSError
        When the file or shared-memory segment does not exist.

    >>> open_source("mem://svc")
    Traceback (most recent call last):
        ...
    repro.endpoints.EndpointError: mem://svc is process-local: observe it \
through the TelemetrySession that produced it (session.observe)
    """
    ep = Endpoint.parse(endpoint)
    if isinstance(ep, FileEndpoint):
        from repro.core.backends.file import FileReader

        return FileReader(ep.path)
    if isinstance(ep, ShmEndpoint):
        from repro.core.backends.shared_memory import SharedMemoryReader

        if not ep.name:
            raise EndpointError("observing shm:// needs a segment name")
        return SharedMemoryReader(ep.name)
    if isinstance(ep, MemEndpoint):
        raise EndpointError(
            f"{ep} is process-local: observe it through the TelemetrySession "
            "that produced it (session.observe)"
        )
    if isinstance(ep, _ArenaEndpoint):
        if ep.stream is not None:
            arena = open_arena(ep)
            for index, row_name in enumerate(arena.row_names()):
                if row_name == ep.stream:
                    return arena.row(index)
            raise EndpointError(f"arena {ep.name!r} has no row named {ep.stream!r}")
        raise EndpointError(
            f"{ep} is fleet-shaped: observe the whole slab through "
            "TelemetrySession.fleet() / HeartbeatAggregator.attach_arena() "
            "(or name one row with ?stream=)"
        )
    if isinstance(ep, TcpEndpoint):
        raise EndpointError(
            f"{ep} is fleet-shaped: bind a collector with open_collector() or "
            "observe it through TelemetrySession.fleet()"
        )
    raise EndpointError(f"cannot open {ep!r} as a source")  # pragma: no cover


def open_collector(
    endpoint: "str | Endpoint" = "tcp://127.0.0.1:0",
    *,
    arena: "str | Arena | None" = None,
) -> "HeartbeatCollector":
    """Bind a :class:`~repro.net.collector.HeartbeatCollector` at a ``tcp://`` endpoint.

    Port ``0`` resolves to an ephemeral port; the collector's ``endpoint_url``
    property reports the actually-bound ``tcp://host:port``.  An
    ``?upstream=HOST:PORT`` parameter binds an *edge* collector that forwards
    every registered stream to the named parent collector, so collectors
    compose into a federation tree (producers → edges → root).

    ``arena`` (an :class:`~repro.core.backends.arena.Arena` or a
    ``mem-arena://`` / ``shm-arena://`` URL) puts the collector in arena
    mode: registered streams demux into slab rows, so fleet observers poll
    them through one vectorized pass instead of per-stream dispatch.

    A ``?journal=DIR`` parameter makes the collector durable: every ingested
    frame is appended to a per-stream journal under ``DIR`` and replayed if
    a collector later rebinds over the same directory (failover recovery —
    see :mod:`repro.net.persistence`).  ``relay_interval=``,
    ``probe_interval=``, ``backoff_initial=`` and ``backoff_max=`` tune an
    edge collector's forwarding link.

    Raises
    ------
    EndpointError
        When the endpoint is not ``tcp://`` or carries producer-side
        parameters (``stream``, ``capacity``, ``flush_interval``, ``via``).
    OSError
        When the address cannot be bound (already in use, unresolvable).

    >>> with open_collector("tcp://127.0.0.1:0") as root:
    ...     root.is_edge
    False
    """
    ep = Endpoint.parse(endpoint)
    if not isinstance(ep, TcpEndpoint):
        raise EndpointError(f"collectors bind tcp:// endpoints, not {ep}")
    producer_only = [
        key
        for key, value in (
            ("stream", ep.stream),
            ("capacity", ep.capacity),
            ("flush_interval", ep.flush_interval),
            ("via", ep.via),
        )
        if value is not None
    ]
    if producer_only:
        # Silently dropping them would read as "configured"; stay loud like
        # every other unusable-input path in this module.
        raise EndpointError(
            f"{', '.join(producer_only)} are producer-side parameters and "
            f"have no meaning when binding a collector at {ep}"
        )
    if ep.upstream is None and (ep.backoff_initial is not None or ep.backoff_max is not None):
        raise EndpointError(
            f"backoff_initial/backoff_max tune the relay link and need "
            f"upstream= when binding a collector at {ep}"
        )
    from repro.net.collector import HeartbeatCollector

    collector_kwargs: dict[str, Any] = {}
    if ep.journal is not None:
        collector_kwargs["journal"] = ep.journal
    if ep.relay_interval is not None:
        collector_kwargs["relay_interval"] = ep.relay_interval
    if ep.probe_interval is not None:
        collector_kwargs["relay_probe_interval"] = ep.probe_interval
    if ep.backoff_initial is not None:
        collector_kwargs["relay_backoff_initial"] = ep.backoff_initial
    if ep.backoff_max is not None:
        collector_kwargs["relay_backoff_max"] = ep.backoff_max
    return HeartbeatCollector(
        ep.host, ep.port, upstream=ep.upstream, arena=arena, **collector_kwargs
    )


def open_arena(endpoint: "str | Endpoint") -> "Arena":
    """Resolve an arena endpoint to its (process-shared) slab.

    Producers, observers and sessions resolving the same
    ``mem-arena://``/``shm-arena://`` URL in one process get the same
    :class:`~repro.core.backends.arena.Arena`; for ``shm-arena://`` the
    first process creates the segment and later processes attach.  The URL's
    ``streams``/``depth`` fix the geometry on first open and must not
    conflict afterwards.

    >>> arena = open_arena("mem-arena://doc-fleet?streams=4&depth=16")
    >>> arena.streams, arena.depth
    (4, 16)
    >>> open_arena("mem-arena://doc-fleet") is arena
    True
    """
    from repro.core.backends.arena import arena_for

    ep = Endpoint.parse(endpoint)
    if not isinstance(ep, _ArenaEndpoint):
        raise EndpointError(f"open_arena needs a mem-arena:// or shm-arena:// URL, not {ep}")
    kind = "shm" if isinstance(ep, ShmArenaEndpoint) else "mem"
    return arena_for(kind, ep.name, ep.streams, ep.depth)


def stream_name_for(endpoint: "str | Endpoint") -> str:
    """The default observer-facing stream name of one endpoint.

    The same convention the CLI has always used: ``file:<basename>`` for log
    files, ``shm:<segment>`` for shared memory, the stream/segment name
    otherwise.  Collector streams keep their producer-registered ids.
    """
    ep = Endpoint.parse(endpoint)
    if isinstance(ep, FileEndpoint):
        return f"file:{os.path.basename(ep.path)}"
    if isinstance(ep, ShmEndpoint):
        return f"shm:{ep.name}"
    if isinstance(ep, _ArenaEndpoint):
        return ep.stream if ep.stream is not None else f"arena:{ep.name}"
    if isinstance(ep, MemEndpoint):
        return ep.name or "heartbeat"
    if isinstance(ep, TcpEndpoint):
        return ep.stream if ep.stream is not None else f"tcp:{ep.host}:{ep.port}"
    raise EndpointError(f"no stream name for {ep!r}")  # pragma: no cover
