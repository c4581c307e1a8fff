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
CLI subcommand (positional endpoint arguments — the CLI *is* a session: each
command opens a ``TelemetrySession`` and lets it wire and own what the URLs
name), ``Heartbeat(backend=url)`` and ``HB_initialize(endpoint=url)``.

**One scheme table.**  Everything the front door knows about a scheme is
declared once, on its :class:`Endpoint` subclass.  The per-scheme facts are
class attributes (``noun``, ``process_local``, ``arena_kind``, ``wire``,
``inline`` — the scheme's *row*), and every query parameter is one dataclass
field declared with ``_q(...)``: its wire type, whether it must be positive,
which role may carry it (``producer`` / ``collector`` / ``both``) and the
constructor keyword it feeds.  Parsing, ``url()``, validation, the
producer-/collector-side role check, the ``open_*`` keyword arguments, the
CLI ``--help`` text (:func:`describe_schemes`) and README's parameter
reference (:func:`parameter_reference`) are generic passes over those
declarations, so adding a parameter to a scheme is a one-line change.

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

import functools
import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping, NamedTuple
from urllib.parse import parse_qsl, quote, unquote, urlencode

from repro.core.backends.arena import arena_for
from repro.core.errors import HeartbeatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backends.arena import Arena
    from repro.core.backends.base import Backend
    from repro.core.stream import StreamSink, StreamSource
    from repro.net import HeartbeatCollector

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
    "describe_schemes",
    "parameter_reference",
]


class EndpointError(HeartbeatError, ValueError):
    """A telemetry endpoint URL is malformed or unusable in this role."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


#: Wire type → (converter, how the error message names it).  ``str`` and
#: ``host:port`` values are carried verbatim (the latter validated on
#: construction by the wire protocol's address parser).
_WIRE: Mapping[str, tuple[Callable[[str], Any], str]] = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (_parse_bool, "a boolean"),
}


class _Param(NamedTuple):
    """One query parameter of one scheme — the unit the generic passes read."""

    name: str
    kind: str  # "int" | "float" | "bool" | "str" | "host:port"
    role: str  # "producer" | "collector" | "both"
    positive: bool  # numbers must be > 0, strings non-empty
    keywords: Mapping[str, str | None]  # role -> constructor keyword it feeds
    default: Any
    convert: Callable[[str], Any] | None  # query text -> value; None carries it verbatim
    what: str  # how a conversion error names the wire type


def _q(
    kind: str,
    role: str = "both",
    *,
    feeds: "str | tuple[str, str] | None" = "",
    positive: bool = False,
    default: Any = None,
) -> Any:
    """Declare one query parameter (a dataclass field) — the single place it is written.

    ``feeds`` is the constructor keyword the value is passed as when the
    endpoint is opened: ``""`` (the default) means the field's own name, a
    ``(producer, collector)`` pair names it per role, and ``None`` means the
    opener consumes the value itself (no keyword).
    """
    return field(default=default, metadata={"q": (kind, role, positive, feeds)})


class _Table(NamedTuple):
    """One endpoint class's query parameters, indexed once for the per-call passes."""

    #: Field name → parameter, in field order.
    params: Mapping[str, _Param]
    #: Every query key the class accepts, aliases included → its parameter.
    spellings: Mapping[str, _Param]
    #: The parameters validated on construction (``host:port`` or positive).
    checked: tuple[_Param, ...]
    #: Role → the parameters that feed a keyword in that role or are refused there.
    roles: Mapping[str, tuple[_Param, ...]]


@functools.cache
def _table(cls: "type[Endpoint]") -> _Table:
    """Read one endpoint class's ``_q(...)`` declarations (once per class)."""
    params: dict[str, _Param] = {}
    for f in fields(cls):
        if "q" not in f.metadata:
            continue
        kind, role, positive, feeds = f.metadata["q"]
        pair = feeds if isinstance(feeds, tuple) else (feeds, feeds)
        producer, collector = (f.name if kw == "" else kw for kw in pair)
        keywords = {
            "producer": None if role == "collector" else producer,
            "collector": None if role == "producer" else collector,
        }
        convert, what = _WIRE.get(kind, (None, ""))
        params[f.name] = _Param(f.name, kind, role, positive, keywords, f.default, convert, what)
    return _Table(
        params,
        {**params, **{alias: params[name] for alias, name in cls.aliases.items()}},
        tuple(p for p in params.values() if p.positive or p.kind == "host:port"),
        {
            role: tuple(
                p for p in params.values() if p.role not in (role, "both") or p.keywords[role] is not None
            )
            for role in ("producer", "collector")
        },
    )


def _params(cls: "type[Endpoint]") -> Mapping[str, _Param]:
    """The declared query parameters of one endpoint class, in field order."""
    return _table(cls).params


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

    Each subclass is one row of the scheme table: the class attributes below
    are the per-scheme facts every layer reads (instead of ``isinstance``
    ladders), and its ``_q(...)`` fields are the scheme's query parameters.
    """

    scheme: ClassVar[str] = ""
    #: What the thing the URL names is called (``--help``, the README).
    noun: ClassVar[str] = ""
    #: The dataclass field holding the URL body, the characters left
    #: unescaped in it, and (when the body is mandatory) what it must name.
    body_field: ClassVar[str] = "name"
    body_safe: ClassVar[str] = ""
    needs: ClassVar[str] = ""
    #: Accepted alternative spellings of query parameters.
    aliases: ClassVar[Mapping[str, str]] = {}
    #: Reachable only from inside the producing process.
    process_local: ClassVar[bool] = False
    #: Fleet-shaped, as one columnar slab: the
    #: :func:`~repro.core.backends.arena.arena_for` kind behind the scheme.
    arena_kind: ClassVar[str] = ""
    #: Fleet-shaped, over a socket: producers dial, observers bind a collector.
    wire: ClassVar[bool] = False
    #: The stream lives inside the ``Heartbeat`` object itself (what a bare
    #: ``Heartbeat()`` has): sized by ``history=``, stamped by the
    #: heartbeat's own clock rather than the host-wide time base.
    inline: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.needs and not getattr(self, self.body_field):
            raise EndpointError(
                f"{self.scheme} endpoint needs a {self.needs}, got {self.scheme}://"
            )
        for param in _table(type(self)).checked:
            name, value = param.name, getattr(self, param.name)
            if value is None:
                continue
            if param.kind == "host:port":
                from repro.net.protocol import parse_address

                try:
                    parse_address(value)
                except ValueError as exc:
                    raise EndpointError(
                        f"{name} must be host:port, got {value!r}: {exc}"
                    ) from exc
            elif param.kind == "str":
                if not value:
                    raise EndpointError(f"{name}= needs a non-empty value")
            elif value <= 0:
                raise EndpointError(f"{name} must be positive, got {value}")

    @staticmethod
    def parse(url: "str | Endpoint") -> "Endpoint":
        """Parse an endpoint URL (idempotent on already-parsed endpoints).

        Deliberately simpler than :func:`urllib.parse.urlsplit`: the body is
        an opaque (percent-encoded) name, path or address — no userinfo,
        fragments or parameter components — so round-tripping stays exact
        for any name a backend accepts.
        """
        if isinstance(url, Endpoint):
            return url
        text = str(url)
        scheme, sep, rest = text.partition("://")
        if not sep:
            raise EndpointError(
                f"not an endpoint URL: {url!r} (expected scheme://..., one of {SCHEMES})"
            )
        scheme = scheme.strip().lower()
        cls = _SCHEMES.get(scheme)
        if cls is None:
            raise EndpointError(
                f"unknown endpoint scheme {scheme!r} in {url!r}; known: {SCHEMES}"
            )
        body, _, query = rest.partition("?")
        spellings = _table(cls).spellings
        values = cls._parse_body(text, body)
        if "%" in query or "+" in query:
            pairs = parse_qsl(query, keep_blank_values=True)
        else:  # nothing to unquote: parse_qsl's own split, minus its per-part unquote
            pairs = [part.partition("=")[::2] for part in query.split("&") if part]
        for key, raw in pairs:
            param = spellings.get(key)
            if param is None:
                raise EndpointError(
                    f"unknown query parameter {key!r} in {url!r}; known: {sorted(spellings)}"
                )
            name = param.name
            if name in values:
                given = {k for k, _ in pairs if spellings.get(k) is param}
                if len(given) == 1:
                    raise EndpointError(f"duplicate query parameter {key!r} in {url!r}")
                (alias,) = given - {name}
                raise EndpointError(f"pass {name}= or {alias}=, not both, in {url!r}")
            if param.convert is None:
                values[name] = raw
            else:
                try:
                    values[name] = param.convert(raw)
                except ValueError as exc:
                    raise EndpointError(f"query parameter {key}={raw!r} is not {param.what}") from exc
        return cls(**values)

    @classmethod
    def _parse_body(cls, url: str, body: str) -> dict[str, Any]:
        return {cls.body_field: unquote(body)}

    def _body(self) -> str:
        return quote(getattr(self, self.body_field), safe=self.body_safe)

    def _given(self) -> dict[str, Any]:
        """The query parameters that differ from their declared default."""
        given = {}
        for name, param in _params(type(self)).items():
            value = getattr(self, name)
            if value != param.default:
                given[name] = value
        return given

    def url(self) -> str:
        """The canonical URL string (``Endpoint.parse`` round-trips it)."""
        pairs = [(name, _format_value(value)) for name, value in self._given().items()]
        query = "?" + urlencode(pairs) if pairs else ""
        return f"{self.scheme}://{self._body()}{query}"

    def __str__(self) -> str:
        return self.url()

    def _kwargs(self, role: str) -> dict[str, Any]:
        """Constructor keywords for opening this endpoint as ``role``.

        Rejects parameters that belong to the other side: silently dropping
        them would read as "configured".
        """
        kwargs: dict[str, Any] = {}
        misplaced = []
        for param in _table(type(self)).roles[role]:
            value = getattr(self, param.name)
            if value == param.default:
                continue
            if param.role not in (role, "both"):
                misplaced.append(param.name)
            else:
                kwargs[param.keywords[role]] = value  # type: ignore[index]
        if misplaced:
            other, doing = {
                "producer": ("collector", f"producing to {self}; bind the collector with open_collector()"),
                "collector": ("producer", f"binding a collector at {self}"),
            }[role]
            raise EndpointError(
                f"{', '.join(misplaced)} are {other}-side parameters and have "
                f"no meaning when {doing}"
            )
        return kwargs

    def _backend(self, kwargs: dict[str, Any], stream: str | None) -> "Backend":
        raise NotImplementedError

    def _source(self) -> "StreamSource":
        raise NotImplementedError

    def _stream_name(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class MemEndpoint(Endpoint):
    """``mem://[name][?capacity=N]`` — an in-process memory backend.

    ``name`` names the stream inside a :class:`~repro.session.TelemetrySession`
    (so ``session.observe("mem://worker")`` finds what
    ``session.produce("mem://worker")`` created); an empty name is anonymous.
    """

    scheme: ClassVar[str] = "mem"
    noun: ClassVar[str] = "in-process stream"
    process_local: ClassVar[bool] = True
    inline: ClassVar[bool] = True

    name: str = ""
    capacity: int | None = _q("int", "producer", positive=True)

    def _backend(self, kwargs: dict[str, Any], stream: str | None) -> "Backend":
        from repro.core.backends.memory import MemoryBackend

        return MemoryBackend(**{"capacity": 2048, **kwargs})

    def _source(self) -> "StreamSource":
        raise EndpointError(
            f"{self} is process-local: observe it through the TelemetrySession "
            "that produced it (session.observe)"
        )

    def _stream_name(self) -> str:
        return self.name or "heartbeat"


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
    noun: ClassVar[str] = "heartbeat log"
    body_field: ClassVar[str] = "path"
    body_safe: ClassVar[str] = "/"
    needs: ClassVar[str] = "path"

    path: str
    capacity: int | None = _q("int", "producer", positive=True)
    buffered: bool = _q("bool", "producer", default=True)
    flush_interval: float | None = _q("float", "producer", positive=True)

    def _backend(self, kwargs: dict[str, Any], stream: str | None) -> "Backend":
        from repro.core.backends.file import FileBackend

        return FileBackend(self.path, **kwargs)

    def _source(self) -> "StreamSource":
        from repro.core.backends.file import FileReader

        return FileReader(self.path)

    def _stream_name(self) -> str:
        return f"file:{os.path.basename(self.path)}"


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
    noun: ClassVar[str] = "shared-memory segment"
    aliases: ClassVar[Mapping[str, str]] = {"capacity": "depth"}

    name: str = ""
    depth: int | None = _q("int", "producer", feeds="capacity", positive=True)

    def _backend(self, kwargs: dict[str, Any], stream: str | None) -> "Backend":
        from repro.core.backends.shared_memory import SharedMemoryBackend

        return SharedMemoryBackend(name=self.name or None, **kwargs)

    def _source(self) -> "StreamSource":
        from repro.core.backends.shared_memory import SharedMemoryReader

        if not self.name:
            raise EndpointError("observing shm:// needs a segment name")
        return SharedMemoryReader(self.name)

    def _stream_name(self) -> str:
        return f"shm:{self.name}"


@dataclass(frozen=True, slots=True)
class _ArenaEndpoint(Endpoint):
    """Shared shape of the two arena schemes (see the subclasses).

    ``streams`` / ``depth`` fix the slab geometry when this URL is the first
    in the process to open the arena (later opens inherit — and must not
    conflict).  ``stream`` names the row a producer-side ``open_backend``
    allocates (defaulting to the producing heartbeat's name).
    """

    noun: ClassVar[str] = "arena slab"

    name: str = ""
    streams: int | None = _q("int", feeds=None, positive=True)
    depth: int | None = _q("int", feeds=None, positive=True)
    stream: str | None = _q("str", feeds=None)

    def _backend(self, kwargs: dict[str, Any], stream: str | None) -> "Backend":
        # One row of the (process-shared) arena slab; the row name defaults
        # to the producing heartbeat's name so fleet observers see it.
        row_name = self.stream if self.stream is not None else stream
        return self._arena().allocate(row_name if row_name is not None else "")

    def _source(self) -> "StreamSource":
        if self.stream is None:
            raise EndpointError(
                f"{self} is fleet-shaped: observe the whole slab through "
                "TelemetrySession.fleet() / HeartbeatAggregator.attach_arena() "
                "(or name one row with ?stream=)"
            )
        arena = self._arena()
        for index, row_name in enumerate(arena.row_names()):
            if row_name == self.stream:
                return arena.row(index)
        raise EndpointError(f"arena {self.name!r} has no row named {self.stream!r}")

    def _stream_name(self) -> str:
        return self.stream if self.stream is not None else f"arena:{self.name}"

    def _arena(self) -> "Arena":
        return arena_for(self.arena_kind, self.name, self.streams, self.depth)


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
    arena_kind: ClassVar[str] = "mem"
    process_local: ClassVar[bool] = True


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
    arena_kind: ClassVar[str] = "shm"
    needs: ClassVar[str] = "segment name"


@dataclass(frozen=True, slots=True)
class TcpEndpoint(Endpoint):
    """``tcp://HOST:PORT[?stream=NAME&capacity=N&upstream=H:P&...]`` — networked telemetry.

    On the producer side the endpoint is the collector address beats are
    shipped to (``stream`` names the registered stream, ``capacity`` sizes
    the local mirror buffer, ``via=HOST:PORT`` dials the named intermediary
    — typically a :class:`~repro.scenario.ChaosProxy` — instead of the
    collector itself).  On the observer side it is the address a
    :class:`~repro.net.HeartbeatCollector` binds; port ``0`` asks
    the OS for an ephemeral port, ``upstream=HOST:PORT`` binds an *edge*
    collector that forwards every stream to the named parent collector
    (federation — see :mod:`repro.net.relay`), and ``journal=DIR`` enables
    collector persistence (:mod:`repro.net.persistence`): streams are
    journaled behind ingest and replayed when a collector rebinds over the
    same directory.  IPv6 literals use brackets: ``tcp://[::1]:7717``.

    Link-discipline tuning rides along: ``backoff_initial`` /
    ``backoff_max`` set the reconnect backoff window of the endpoint's
    outbound link (the exporter's when producing, the relay forwarder's
    when collecting with ``upstream=``); ``relay_interval`` is an edge
    collector's idle cadence (how often a quiet upstream link is probed
    for EOF; forwarding itself runs on news, not on this timer).  Defaults
    are unchanged when the parameters are absent.

    >>> ep = Endpoint.parse("tcp://0.0.0.0:7717?upstream=root.example:7717")
    >>> ep.upstream
    'root.example:7717'
    >>> Endpoint.parse(str(ep)) == ep
    True
    """

    scheme: ClassVar[str] = "tcp"
    noun: ClassVar[str] = "collector"
    body_field: ClassVar[str] = "host"
    needs: ClassVar[str] = "host"
    wire: ClassVar[bool] = True

    host: str
    port: int
    stream: str | None = _q("str", "producer")
    capacity: int | None = _q("int", "producer", positive=True)
    flush_interval: float | None = _q("float", "producer", positive=True)
    upstream: str | None = _q("host:port", "collector")
    via: str | None = _q("host:port", "producer", feeds=None)
    backoff_initial: float | None = _q(
        "float", feeds=("backoff_initial", "relay_backoff_initial"), positive=True
    )
    backoff_max: float | None = _q(
        "float", feeds=("backoff_max", "relay_backoff_max"), positive=True
    )
    journal: str | None = _q("str", "collector", positive=True)
    relay_interval: float | None = _q("float", "collector", positive=True)

    def __post_init__(self) -> None:
        # Explicit base call: dataclass(slots=True) recreates the class, so
        # the zero-argument super() closure would point at the pre-slots one.
        Endpoint.__post_init__(self)
        if not 0 <= self.port <= 65535:
            raise EndpointError(f"tcp port must be in [0, 65535], got {self.port}")
        if self.upstream is None and self.relay_interval is not None:
            raise EndpointError(
                f"relay_interval= tunes the relay link and needs upstream= on {self.url()!r}"
            )

    @classmethod
    def _parse_body(cls, url: str, body: str) -> dict[str, Any]:
        # host:port syntax (incl. IPv6 bracketing) has exactly one owner:
        # the wire protocol's address parser.
        from repro.net.protocol import parse_address

        try:
            host, port = parse_address(unquote(body))
        except ValueError as exc:
            raise EndpointError(
                f"tcp endpoint must be tcp://host:port, got {url!r}: {exc}"
            ) from exc
        return {"host": host, "port": port}

    def _body(self) -> str:
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"{quote(host, safe='[]:')}:{self.port}"

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

    def _backend(self, kwargs: dict[str, Any], stream: str | None) -> "Backend":
        from repro.net.exporter import NetworkBackend

        if stream is not None:
            kwargs.setdefault("stream", stream)
        # via= routes the dial through an intermediary (chaos proxy, port
        # forward) without renaming the collector the endpoint refers to.
        return NetworkBackend(self.dial_address, **kwargs)

    def _source(self) -> "StreamSource":
        raise EndpointError(
            f"{self} is fleet-shaped: bind a collector with open_collector() or "
            "observe it through TelemetrySession.fleet()"
        )

    def _stream_name(self) -> str:
        return self.stream if self.stream is not None else f"tcp:{self.host}:{self.port}"


#: The scheme table: one :class:`Endpoint` subclass (one row) per scheme.
_SCHEMES: Mapping[str, type[Endpoint]] = {
    cls.scheme: cls
    for cls in (
        MemEndpoint, FileEndpoint, ShmEndpoint, MemArenaEndpoint, ShmArenaEndpoint, TcpEndpoint
    )
}

#: The canonical URL schemes, one per storage/transport backend.
SCHEMES = tuple(_SCHEMES)


def _usage(cls: type[Endpoint]) -> str:
    """``scheme://BODY`` with an optional body bracketed, e.g. ``shm://[NAME]``."""
    body = cls.body_field.upper() + (":PORT" if cls.wire else "")
    return f"{cls.scheme}://{body if cls.needs else f'[{body}]'}"


def describe_schemes() -> str:
    """The schemes as one ``--help`` line, rendered from the scheme table.

    >>> describe_schemes().split(", ")[:2]
    ['mem://[NAME] (in-process stream; process-local)', 'file://PATH (heartbeat log)']
    """
    return ", ".join(
        f"{_usage(cls)} ({cls.noun}{'; process-local' if cls.process_local else ''})"
        for cls in _SCHEMES.values()
    )


def parameter_reference() -> str:
    """Every scheme's query parameters as a Markdown table (README embeds it).

    One row per declared parameter: name, wire type (``> 0`` when it must be
    positive), the role that may carry it, and the default written into the
    URL's absence (``—``: unset, the backend's own default applies).
    """
    lines = ["| endpoint | parameter | type | role | default |", "|---|---|---|---|---|"]
    for cls in _SCHEMES.values():
        for param in _params(cls).values():
            kind = param.kind + (" > 0" if param.positive and param.kind != "str" else "")
            names = [param.name, *(a for a, target in cls.aliases.items() if target == param.name)]
            default = "—" if param.default is None else f"`{_format_value(param.default)}`"
            lines.append(
                f"| `{_usage(cls)}` | {' / '.join(f'`{n}`' for n in names)} | {kind} "
                f"| {param.role} | {default} |"
            )
    return "\n".join(lines)


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
    return ep._backend(ep._kwargs("producer"), stream)


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
    return Endpoint.parse(endpoint)._source()


def open_collector(
    endpoint: "str | Endpoint" = "tcp://127.0.0.1:0",
    *,
    arena: "str | Arena | None" = None,
) -> "HeartbeatCollector":
    """Bind a :class:`~repro.net.HeartbeatCollector` at a ``tcp://`` endpoint.

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
    ``backoff_initial=`` and ``backoff_max=`` tune an edge collector's
    forwarding link.

    Raises
    ------
    EndpointError
        When the endpoint is not ``tcp://``, carries producer-side
        parameters (``stream``, ``capacity``, ``flush_interval``, ``via``),
        or ``arena`` is a URL of a non-arena scheme.
    OSError
        When the address cannot be bound (already in use, unresolvable).

    >>> with open_collector("tcp://127.0.0.1:0") as root:
    ...     root.is_edge
    False
    """
    ep = Endpoint.parse(endpoint)
    if not isinstance(ep, TcpEndpoint):
        raise EndpointError(f"collectors bind tcp:// endpoints, not {ep}")
    kwargs = ep._kwargs("collector")
    if ep.upstream is None and (ep.backoff_initial is not None or ep.backoff_max is not None):
        raise EndpointError(
            f"backoff_initial/backoff_max tune the relay link and need "
            f"upstream= when binding a collector at {ep}"
        )
    from repro.net import HeartbeatCollector

    # An arena URL is resolved (and a non-arena one refused) by the collector.
    return HeartbeatCollector(ep.host, ep.port, arena=arena, **kwargs)


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
    ep = Endpoint.parse(endpoint)
    if not isinstance(ep, _ArenaEndpoint):
        raise EndpointError(f"open_arena needs a mem-arena:// or shm-arena:// URL, not {ep}")
    return ep._arena()


def stream_name_for(endpoint: "str | Endpoint") -> str:
    """The default observer-facing stream name of one endpoint.

    The same convention the CLI has always used: ``file:<basename>`` for log
    files, ``shm:<segment>`` for shared memory, the stream/segment name
    otherwise.  Collector streams keep their producer-registered ids.
    """
    return Endpoint.parse(endpoint)._stream_name()
