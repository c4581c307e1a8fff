"""Fleet-level aggregation of many heartbeat streams.

The paper's external observer (Figure 1b) reads *one* application's
heartbeats.  Scaling that idea to a cluster manager or load balancer watching
thousands of instrumented applications turns the observer into a fan-in
problem: polling streams one at a time from one thread makes the observation
period grow linearly with the fleet, which is exactly the single-stream
bottleneck batched fan-in aggregation removes in massively parallel
evaluation loops.

:class:`HeartbeatAggregator` is that fan-in stage.  It attaches to any mix of
stream kinds — every one a :class:`~repro.core.stream.StreamSource` object
handed to :meth:`HeartbeatAggregator.attach_stream` (endpoint URLs and
registries end there), plus whole arena slabs, a collector's among them —
and turns one :meth:`poll` into a
:class:`FleetSample`: a columnar view of every stream's rate, goal and health
on which fleet-level queries (:meth:`rates`, :meth:`lagging`,
:meth:`FleetSample.percentiles`) are vectorized numpy operations rather than
per-stream loops.

Polling is incremental, and there is one read path: every stream is a
slab row, read where it lies.  A source that is a row (a ``MemoryBackend``
or a ``Heartbeat`` on one, an ``shm://`` reader, an arena row, a
collector's ``source(stream_id)`` view: see
:func:`repro.core.stream.capabilities_of`) joins its slab by row index.  Any
other is mirrored into a row of a private ``mem-arena`` slab: a poll probes
its change token (``version``) and, only when it moved, replays
``snapshot_since(cursor)`` into the row.  Then one loop reads every group
of rows — the per-object rows of one slab, or a whole attached slab, a
collector's among them — in one vectorized column pass each, and
:func:`~repro.core.monitor.classify_codes` classifies the whole fleet in one
vectorized pass.

The per-stream :class:`~repro.core.monitor.HeartbeatMonitor` is the same
path for one row, so "slow" means the same thing to a fleet observer as to
a dedicated one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from repro.clock import Clock, WallClock
from repro.core.backends.arena import Arena, _SlabPool
from repro.core.errors import HeartbeatError, MonitorAttachError
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import (
    _SLOW,
    _STALLED,
    _STATUS_BY_CODE,
    HealthStatus,
    MonitorReading,
    _Mirror,
    _rows,
    _values,
    classify_codes,
)
from repro.core.rate import BACKWARDS
from repro.core.registry import HeartbeatRegistry
from repro.core.stream import SourceCapabilities, capabilities_of
from repro.obs.registry import MetricsRegistry

__all__ = [
    "HeartbeatAggregator",
    "FleetSample",
    "FleetSummary",
    "CollectorLike",
]


class CollectorLike(Protocol):
    """A fan-in stage holding named streams as rows of arena slabs.

    :class:`repro.net.HeartbeatCollector` satisfies it.
    :meth:`HeartbeatAggregator.attach_collector` calls only :meth:`slabs`:
    every slab with its live row → stream-id table, in creation order.
    """

    def slabs(self) -> list[tuple[Arena, list[str]]]: ...  # pragma: no cover - protocol stub


@dataclass(frozen=True, slots=True)
class FleetSummary:
    """Aggregate statistics over one :class:`FleetSample`.

    ``streams`` counts every attached stream; ``measurable`` only those with
    at least two beats (streams still warming up have no defined rate and are
    excluded from the rate statistics and percentiles).
    """

    streams: int
    measurable: int
    mean: float
    minimum: float
    maximum: float
    std: float
    percentiles: Mapping[float, float]
    lagging: int
    stalled: int


class _Readings(Sequence[MonitorReading]):
    """A :class:`FleetSample`'s per-stream readings: a read-only sequence view.

    The columns become Python values once, on first use (one ``tolist()``
    per column, see :func:`~repro.core.monitor._values`), and a row is
    built only as it is iterated.  Iteration keeps no row: a row holds a
    :class:`HealthStatus`, so the cyclic collector tracks it, and 10 000
    rows kept per sample set off a gen-0 collection every 700 of them and
    a full one every few samples.  A row fetched by index is built once
    and kept, so ``readings[i] is readings[i]`` as for a tuple.  The view
    equals a tuple of the same readings; it is not hashable.
    """

    __slots__ = ("_columns", "_lists", "_indexed")

    def __init__(self, columns: tuple[np.ndarray, ...]) -> None:
        self._columns = columns
        self._lists: tuple[list, ...] | None = None
        self._indexed: dict[int, MonitorReading] = {}

    def _converted(self) -> tuple[list, ...]:
        if self._lists is None:
            self._lists = _values(self._columns)
        return self._lists

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[MonitorReading]:
        return _rows(self._converted())

    def __getitem__(self, index: int | slice) -> MonitorReading | tuple[MonitorReading, ...]:  # type: ignore[override]
        if isinstance(index, slice):
            return tuple(_rows([values[index] for values in self._converted()]))
        i = range(len(self))[index]  # IndexError, and negative i, as a tuple would
        row = self._indexed.get(i)
        if row is None:
            row = self._indexed[i] = next(_rows([values[i : i + 1] for values in self._converted()]))
        return row

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _Readings)):
            return tuple(self) == tuple(other)
        return NotImplemented


class FleetSample:
    """One consistent observation of every attached stream.

    ``names`` is in attachment order; the per-stream measurements live in
    parallel numpy columns (:meth:`rates`, :meth:`totals`,
    :meth:`stalled_mask`, plus the internal target/age/status arrays the
    fleet queries operate on), so fleet-level questions are vectorized
    instead of per-stream loops.  ``readings`` is the per-stream view of
    the whole fleet, a read-only sequence of :class:`MonitorReading` rows
    built as they are read (:class:`_Readings`); :meth:`reading_at` and
    :meth:`reading` build one row's.  Streams whose source failed to
    answer (e.g. their writer exited and the segment vanished mid-poll)
    appear in ``errors`` instead, so one dead producer never poisons the
    fleet view.
    """

    __slots__ = (
        "names", "errors", "taken_at",
        "_rate", "_total", "_tmin", "_tmax", "_last_ts", "_age", "_codes",
        "_readings", "_index",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        errors: Mapping[str, str],
        taken_at: float,
        *,
        rate: np.ndarray,
        total: np.ndarray,
        target_min: np.ndarray,
        target_max: np.ndarray,
        last_ts: np.ndarray,
        age: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        self.names = names
        self.errors = errors
        self.taken_at = taken_at
        self._rate = rate
        self._total = total
        self._tmin = target_min
        self._tmax = target_max
        self._last_ts = last_ts
        self._age = age
        self._codes = codes
        self._readings: _Readings | None = None
        self._index: dict[str, int] | None = None

    # ------------------------------------------------------------------ #
    # Per-stream view
    # ------------------------------------------------------------------ #
    @property
    def readings(self) -> Sequence[MonitorReading]:
        """Per-stream readings in attachment order, as a read-only sequence view.

        Rows are built as they are read and iteration keeps none of them;
        see :class:`_Readings`.
        """
        if self._readings is None:
            self._readings = _Readings(self._columns())
        return self._readings

    def reading_at(self, i: int) -> MonitorReading:
        """The reading of row ``i`` of :attr:`names`, built for that row alone.

        Equal to ``readings[i]``, without converting the other rows (and
        the same object once ``readings`` exists).
        """
        if self._readings is not None:
            return self._readings[i]
        i = range(len(self.names))[i]  # IndexError, and negative i, as a tuple would
        return next(_rows(_values([column[i : i + 1] for column in self._columns()])))

    def _columns(self) -> tuple[np.ndarray, ...]:
        """The per-stream columns, in :class:`MonitorReading` field order."""
        return (
            self._rate, self._total, self._tmin, self._tmax,
            self._last_ts, self._age, self._codes,
        )

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[tuple[str, MonitorReading]]:
        return iter(zip(self.names, self.readings))

    def reading(self, name: str) -> MonitorReading:
        """The reading for one stream (``KeyError`` if absent or errored)."""
        return self.reading_at(self._rows_by_name()[name])

    def get(self, name: str) -> MonitorReading | None:
        """Like :meth:`reading`, but ``None`` for absent or errored streams."""
        i = self._rows_by_name().get(name)
        return None if i is None else self.reading_at(i)

    def _rows_by_name(self) -> dict[str, int]:
        if self._index is None:
            self._index = dict(zip(self.names, range(len(self.names))))
        return self._index

    # ------------------------------------------------------------------ #
    # Vectorized fleet queries
    # ------------------------------------------------------------------ #
    def rates(self) -> np.ndarray:
        """Per-stream windowed heart rates, in attachment order."""
        return self._rate.copy()

    def totals(self) -> np.ndarray:
        """Per-stream beats ever produced, in attachment order (a read-only view)."""
        view = self._total.view()
        view.flags.writeable = False
        return view

    def stalled_mask(self) -> np.ndarray:
        """True for each stream classified STALLED, in attachment order."""
        return self._codes == _STALLED

    def total_beats(self) -> int:
        """Total beats ever produced across the fleet."""
        return int(self._total.sum())

    def lagging(self, target: float | None = None) -> list[str]:
        """Streams making less progress than required, worst first.

        With ``target=None`` a stream lags when it is classified SLOW or
        STALLED against its own published goal; with an explicit ``target``
        every measurable stream whose rate is below it (and every stalled
        stream) lags.  Results are sorted by rate ascending so the most
        starved stream leads — the order a balancer wants to service.
        """
        stalled = self.stalled_mask()
        if target is None:
            mask = stalled | (self._codes == _SLOW)
        else:
            mask = stalled | ((self._total >= 2) & (self._rate < float(target)))
        picked = sorted(
            (float(self._rate[i]), self.names[i]) for i in np.nonzero(mask)[0]
        )
        return [name for _, name in picked]

    def stalled(self) -> list[str]:
        """Streams whose last beat is older than the liveness timeout."""
        return [self.names[i] for i in np.nonzero(self.stalled_mask())[0]]

    def by_status(self) -> dict[HealthStatus, list[str]]:
        """Stream names grouped by health classification."""
        out: dict[HealthStatus, list[str]] = {status: [] for status in HealthStatus}
        for name, status in zip(self.names, _STATUS_BY_CODE[self._codes].tolist()):
            out[status].append(name)
        return out

    def _measurable_rates(self) -> np.ndarray:
        """Rates of streams with a defined rate (at least two beats)."""
        return self._rate[self._total >= 2]

    def percentiles(self, q: Sequence[float] = (50.0, 90.0, 99.0)) -> dict[float, float]:
        """Rate percentiles over the measurable streams (empty fleet: zeros)."""
        return _rate_percentiles(self._measurable_rates(), q)

    def summary(self, q: Sequence[float] = (50.0, 90.0, 99.0)) -> FleetSummary:
        """Compact fleet-health roll-up (the observer's dashboard line)."""
        measurable = self._measurable_rates()
        empty = measurable.size == 0
        return FleetSummary(
            streams=len(self.names),
            measurable=int(measurable.size),
            mean=0.0 if empty else float(np.mean(measurable)),
            minimum=0.0 if empty else float(np.min(measurable)),
            maximum=0.0 if empty else float(np.max(measurable)),
            std=0.0 if empty else float(np.std(measurable)),
            percentiles=_rate_percentiles(measurable, q),
            lagging=int((self._codes == _SLOW).sum()),
            stalled=int((self._codes == _STALLED).sum()),
        )


def _rate_percentiles(rates: np.ndarray, q: Sequence[float]) -> dict[float, float]:
    """Percentile dict over a rate array; an empty array yields all zeros."""
    if rates.size == 0:
        return {float(p): 0.0 for p in q}
    values = np.percentile(rates, list(q))
    return {float(p): float(v) for p, v in zip(q, values, strict=True)}


#: Empty ``(rate, total, target_min, target_max, last_ts, retained)`` columns.
_NO_COLUMNS = tuple(
    np.zeros(0, dtype=dtype)
    for dtype in (np.float64, np.int64, np.float64, np.float64, np.float64, np.int64)
)


def _concat(parts: Sequence[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Column-wise concatenation of slab reads (each read's arrays are fresh)."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(_NO_COLUMNS, *parts))


def _zero_if_closed(fn: Callable[[], float]) -> Callable[[], float]:
    """A gauge function that reads 0 once a slab was closed under it."""

    def call() -> float:
        try:
            return float(fn())
        except HeartbeatError:
            return 0.0

    return call


class _Stream(_Mirror):
    """One attached per-object stream.  Holding its capabilities holds the
    source, so a pooled row is not handed on while the stream is attached."""

    __slots__ = ("name", "close")

    def __init__(self, name: str, caps: SourceCapabilities, close: Callable[[], None] | None) -> None:
        super().__init__(caps)
        self.name = name
        self.close = close


class _Group:
    """Rows of one slab, read by one column pass (``Arena._columns``).

    A group of per-object streams holds the slab ``rows`` they attached,
    ``at``, their positions in the sample, and ``held``, which caps
    mirrored rows only.  A whole slab (``rows`` is ``None``: every
    allocated row) joins the sample after them as ``prefix + row name``,
    named from ``table`` (a collector's stream-id list) when given, else
    from the slab header, which keeps only a name's first 64 bytes.
    """

    __slots__ = ("arena", "rows", "at", "held", "label", "prefix", "table", "names", "close")

    def __init__(
        self,
        arena: Arena,
        rows: np.ndarray | None = None,
        at: np.ndarray | None = None,
        held: np.ndarray | None = None,
        *,
        label: str = "",
        prefix: str = "",
        table: list[str] | None = None,
        close: Callable[[], None] | None = None,
    ) -> None:
        self.arena, self.rows, self.at, self.held = arena, rows, at, held
        self.label, self.prefix, self.table, self.close = label, prefix, table, close
        self.names: tuple[str, ...] = ()

    def named(self, count: int) -> tuple[str, ...]:
        """A whole slab's first ``count`` row names (fewer while a row's name is unpublished)."""
        if count != len(self.names):
            self.names = tuple(
                self.prefix + (name if name else f"{self.label}[{i}]")
                for i, name in enumerate(self.arena.row_names() if self.table is None else list(self.table))
            )
        return self.names[:count]


def _by_slab(streams: Sequence[_Stream]) -> list[_Group]:
    """One group per slab holding a per-object stream's row."""
    groups: dict[int, tuple[Arena, list[int], list[int], np.ndarray | None]] = {}
    for position, stream in enumerate(streams):
        if stream.caps.row is not None:
            (arena, row), held = stream.caps.row, None
        elif stream.slab is not None:
            arena, row, held = stream.slab.arena, stream.index, stream.slab.held
        else:
            continue  # a mirror whose first read failed has no row yet
        group = groups.setdefault(id(arena), (arena, [], [], held))
        group[1].append(row)
        group[2].append(position)
    return [_Group(arena, np.array(rows), np.array(at), held) for arena, rows, at, held in groups.values()]


class HeartbeatAggregator:
    """Fan-in observer over many heartbeat streams.

    A stream joins the fleet as one :class:`~repro.core.stream.StreamSource`
    object through :meth:`attach_stream` — :meth:`attach_endpoint` and
    :meth:`attach_registry` open or look up such objects and end there — or
    as a row of a slab attached with :meth:`attach_arena` or, a collector's
    slabs, with :meth:`attach_collector`.  A per-object source that is a
    slab row is read in place; :meth:`poll` mirrors any other into a
    private slab row the cursored way (version probe, then
    ``snapshot_since`` only when the token moved).  One loop then reads
    each slab's attached rows, or a whole attached slab, in one vectorized
    column pass.

    Parameters
    ----------
    clock:
        Time base used for beat ages and liveness; it must match the clock
        the producers stamp beats with (simulated fleets pass the shared
        simulated clock).
    window:
        Rate window applied to every stream; ``0`` uses each producer's
        published default window.
    liveness_timeout:
        Seconds without a beat after which a stream is classified STALLED.
        ``None`` disables the check.
    metrics:
        The :class:`~repro.obs.registry.MetricsRegistry` holding poll
        counters and the poll-duration histogram.  A private registry is
        created when omitted.
    """

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        window: int = 0,
        liveness_timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._clock = clock if clock is not None else WallClock()
        self._window = int(window)
        self._liveness_timeout = liveness_timeout
        self._lock = threading.Lock()
        #: Serialises whole polls: the per-stream cursors and the private
        #: slabs are aggregator state, so concurrent poll() calls (e.g. a
        #: balancer loop racing a metrics thread) take turns.
        self._poll_lock = threading.Lock()
        self._streams: dict[str, _Stream] = {}
        self._pool = _SlabPool()
        #: Detached streams whose rows the next poll frees (a poll may be
        #: replaying into them right now).
        self._released: list[_Stream] = []
        #: Whole slabs (``attach_arena``, a collector's), in attach order.
        self._arenas: list[_Group] = []
        #: ``[prefix, collector, slabs attached so far]`` per collector.
        self._collectors: list[list] = []
        self._closed = False
        #: Bumped on every attach/detach: it keys ``_members``, the streams,
        #: the mirrored ones among them and their names, and with the pool's
        #: layout ``_groups``, the groups one poll reads.
        self._membership = 0
        self._members: tuple[int, tuple[_Stream, ...], tuple[_Stream, ...], tuple[str, ...], tuple[_Group, ...]] = (
            -1, (), (), (), ()
        )
        self._groups: tuple[tuple[int, int], list[_Group]] = ((-1, -1), [])

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_polls = self.metrics.counter("aggregator_polls_total", help="fleet polls run")
        self._m_stream_errors = self.metrics.counter(
            "aggregator_stream_errors_total", help="per-stream read failures across polls"
        )
        self._m_poll_duration = self.metrics.histogram(
            "aggregator_poll_duration_seconds", help="wall time of one fleet poll"
        )
        self.metrics.gauge("aggregator_streams", help="attached streams", fn=_zero_if_closed(lambda: len(self)))

    # ------------------------------------------------------------------ #
    # Attachment
    # ------------------------------------------------------------------ #
    def attach_stream(self, name: str, source: object, *, own: bool = False) -> None:
        """Attach any :class:`~repro.core.stream.StreamSource`-shaped object.

        The one per-stream attachment: capabilities (``snapshot_since``
        deltas, ``version`` probes, a ``close`` hook) are discovered with
        :func:`repro.core.stream.capabilities_of`, so backends, readers,
        collector per-stream views, arena rows, ``Heartbeat`` objects,
        monitors and bare snapshot callables all come in through the same
        door.  A source that is a slab row (``capabilities_of`` reports its
        ``row``) is read in place under ``name``; any other is mirrored.
        ``own=True`` hands the source's ``close`` to
        :meth:`detach`/:meth:`close`.
        """
        caps = capabilities_of(source)
        close = caps.close if own else None
        try:
            with self._lock:
                if self._closed:
                    raise MonitorAttachError("aggregator is closed")
                if name in self._streams:
                    raise MonitorAttachError(f"stream {name!r} is already attached")
                self._streams[name] = _Stream(str(name), caps, close)
                self._membership += 1
        except MonitorAttachError:
            if close is not None:
                close()  # don't leak the attachment on a rejected stream
            raise

    def attach_endpoint(self, endpoint: object, *, name: str | None = None) -> str:
        """Attach the stream(s) named by an endpoint URL; returns the stream name.

        ``file://`` and ``shm://`` endpoints attach one observed stream
        (named ``file:<basename>`` / ``shm:<segment>`` unless ``name`` is
        given), owned by the aggregator.  A fleet-shaped arena endpoint
        (``mem-arena://`` / ``shm-arena://`` without ``?stream=``) attaches
        the *whole slab* via :meth:`attach_arena`
        (``name`` becomes the row-name prefix) and returns that prefix; with
        ``?stream=`` it attaches just that row like any single stream.
        ``tcp://`` endpoints are whole fleets — bind a collector
        (:func:`repro.endpoints.open_collector` or
        :meth:`TelemetrySession.fleet <repro.session.TelemetrySession.fleet>`)
        and use :meth:`attach_collector`.
        """
        from repro.endpoints import Endpoint, open_arena, open_source, stream_name_for

        ep = Endpoint.parse(endpoint)  # type: ignore[arg-type]
        if ep.arena_kind and ep.stream is None:
            prefix = name if name is not None else ""
            self.attach_arena(open_arena(ep), prefix=prefix)
            return prefix
        stream_name = name if name is not None else stream_name_for(ep)
        self.attach_stream(stream_name, open_source(ep), own=True)
        return stream_name

    def attach_arena(
        self, arena: Arena, *, prefix: str = "", own: bool = False
    ) -> None:
        """Attach every row of an arena slab; its rows follow the per-object streams.

        The slab is read by the poll's one column pass, the capture step of
        :meth:`Arena.snapshot_since_all` — one masked numpy pass over all
        allocated rows, per-stream Python only for a row a writer keeps
        racing — and its rows join the fleet sample named
        ``prefix + row_name``.  Rows allocated *after* this call appear
        automatically on the next poll (the slab header is the membership).
        ``own=True`` hands the arena's ``close`` to :meth:`close`.

        Attaching also registers live slab gauges
        (``aggregator_arena_streams`` / ``_bytes`` / ``_occupancy``) labelled
        with the slab name, so dashboards see the arena fill up.
        """
        with self._lock:
            if self._closed:
                raise MonitorAttachError("aggregator is closed")
            label = arena.name if arena.name else f"arena-{len(self._arenas)}"
            self._arenas.append(_Group(arena, label=label, prefix=prefix, close=arena.close if own else None))
            self._membership += 1
        labels = {"arena": label}
        self.metrics.gauge(
            "aggregator_arena_streams", help="allocated rows in the arena slab",
            labels=labels, fn=_zero_if_closed(lambda: arena.rows_in_use),
        )
        self.metrics.gauge(
            "aggregator_arena_bytes", help="arena slab size in bytes",
            labels=labels, fn=_zero_if_closed(lambda: arena.nbytes),
        )
        self.metrics.gauge(
            "aggregator_arena_occupancy", help="fraction of arena rows allocated",
            labels=labels, fn=_zero_if_closed(lambda: arena.occupancy),
        )

    def attach_registry(
        self, registry: HeartbeatRegistry | None = None, *, prefix: str = ""
    ) -> list[str]:
        """Attach every stream of a process registry; returns the names used.

        ``registry`` defaults to the process-wide registry behind the
        functional Table 1 API, so ``attach_registry()`` turns the aggregator
        into an observer of everything this process instruments.
        """
        if registry is None:
            from repro.core.api import get_registry

            registry = get_registry()
        attached: list[str] = []
        streams: list[tuple[str, Heartbeat]] = []
        if registry.has_global:
            hb = registry.get(local=False)
            streams.append((prefix + hb.name, hb))
        streams.extend(
            (f"{prefix}{hb.name}", hb) for _, hb in registry.iter_locals()
        )
        for name, hb in streams:
            self.attach_stream(name, hb)
            attached.append(name)
        return attached

    def attach_collector(self, collector: CollectorLike, *, prefix: str = "") -> list[str]:
        """Observe every stream of a network collector; returns the names added.

        A collector keeps each stream as a row of one of its slabs, so each
        slab attaches whole, as :meth:`attach_arena` attaches one, and its
        rows join the sample as ``prefix + stream_id``.  The attachment is
        *dynamic*: rows and slabs that appear after this call join at the
        start of every :meth:`poll`, so a fleet observer attaches once and
        new producers simply appear.  A collector's rows cannot be detached
        one by one.
        """
        with self._lock:
            if self._closed:
                raise MonitorAttachError("aggregator is closed")
            self._collectors.append([str(prefix), collector, 0])
        return self._sync_collectors()

    @property
    def collectors(self) -> tuple[CollectorLike, ...]:
        """The collectors attached through :meth:`attach_collector`, in order."""
        with self._lock:
            return tuple(collector for _, collector, _ in self._collectors)

    def _sync_collectors(self) -> list[str]:
        """Attach collector slabs that appeared since the last sync; returns their rows' names."""
        with self._lock:
            collectors = list(self._collectors)
        added: list[str] = []
        for entry in collectors:
            prefix, collector, _ = entry
            slabs = collector.slabs()
            with self._lock:
                if self._closed:
                    break
                for arena, table in slabs[entry[2] :]:
                    label = arena.name if arena.name else f"arena-{len(self._arenas)}"
                    group = _Group(arena, label=label, prefix=prefix, table=table)
                    added.extend(group.named(len(table)))
                    self._arenas.append(group)
                    self._membership += 1
                entry[2] = max(entry[2], len(slabs))
        return added

    def detach(self, name: str) -> None:
        """Detach one stream, releasing its reader resources."""
        with self._lock:
            stream = self._streams.pop(name, None)
            if stream is not None:
                self._membership += 1
                self._released.append(stream)
        if stream is None:
            raise MonitorAttachError(f"no stream named {name!r} is attached")
        if stream.close is not None:
            stream.close()

    @property
    def names(self) -> list[str]:
        """Names of the attached streams, in attachment order.

        Whole slabs' rows follow the per-object streams; their names reflect
        the slab's *current* allocation table.
        """
        with self._lock:
            names = list(self._streams)
            wholes = list(self._arenas)
        for group in wholes:
            names.extend(group.named(group.arena.rows_in_use))
        return names

    def __len__(self) -> int:
        with self._lock:
            return len(self._streams) + sum(group.arena.rows_in_use for group in self._arenas)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            if name in self._streams:
                return True
            if not self._arenas:
                return False
        return name in self.names  # arena rows: the slab header is the membership

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def poll(self) -> FleetSample:
        """Observe every attached stream and classify the whole fleet.

        A poll costs one vectorized column pass per group: a slab's
        attached rows, or a whole attached slab.  A stream that is no row adds one cheap change-token
        probe: a delta is read only from such a source when it reports news,
        and replayed into its private slab row.  One vectorized
        classification then covers the whole fleet.

        A stream whose read fails — its source raises a
        :class:`~repro.core.errors.HeartbeatError` (writer gone, segment
        unlinked, slab closed) or its rate window holds a backwards
        timestamp — is left out of the sample and reported in
        ``FleetSample.errors`` under its name; a failed mirror read is redone
        in full on the next poll.  A whole attached slab that fails is
        reported as ``arena:<label>``.

        Concurrent ``poll`` calls from different threads are serialised
        internally (the mirrors' cursors and private slabs are aggregator
        state).
        """
        with self._poll_lock:
            start = time.perf_counter()
            sample = self._poll_locked()
            self._m_poll_duration.observe(time.perf_counter() - start)
        self._m_polls.inc()
        self._m_stream_errors.inc(len(sample.errors))
        return sample

    def _poll_locked(self) -> FleetSample:
        if self._collectors:
            self._sync_collectors()
        with self._lock:
            layout = self._membership
            if self._members[0] != layout:
                streams = tuple(self._streams.values())
                mirrored = tuple(s for s in streams if s.caps.row is None)
                self._members = (layout, streams, mirrored, tuple(s.name for s in streams), tuple(self._arenas))
            _, streams, mirrored, names, wholes = self._members
            released, self._released = self._released, []
        pool, window = self._pool, self._window
        for stream in released:
            if stream.slab is not None:
                pool.give(stream.slab, stream.index)
        now = self._clock.now()

        errors: dict[str, str] = {}
        for stream in mirrored:
            try:
                stream.sync(pool, window)
            except (HeartbeatError, ValueError) as exc:
                # ValueError: records the row cannot hold — one producer's
                # bad data must not fail the fleet's poll.
                errors[stream.name] = str(exc)
        if self._groups[0] != (layout, pool.layout):
            self._groups = ((layout, pool.layout), _by_slab(streams) + list(wholes))
        # Per-object streams land at their positions in one block; each whole
        # slab is a part of its own, so a fleet of whole slabs builds no block.
        block = tuple(np.zeros(len(names), dtype=column.dtype) for column in _NO_COLUMNS) if names else ()
        parts: list[tuple[np.ndarray, ...]] = []
        tail: tuple[str, ...] = ()
        for group in self._groups[1]:
            try:
                part = group.arena._columns(group.rows, window, group.held)
            except (HeartbeatError, ValueError) as exc:  # as a mirror's sync fails
                if group.at is None:
                    errors[f"arena:{group.label}"] = str(exc)
                else:
                    errors.update((names[i], str(exc)) for i in group.at.tolist())
                continue
            if group.at is not None:
                for column, values in zip(block, part):
                    column[group.at] = values
                continue
            rows = group.named(part[0].shape[0])  # a collector row published ahead of its id waits
            tail = tail + rows
            parts.append(tuple(column[: len(rows)] for column in part[:6]))
        if names and errors:
            keep = np.array([name not in errors for name in names], dtype=bool)
            names, block = tuple(compress(names, keep)), tuple(column[keep] for column in block)
        if names:
            parts.insert(0, block)
        names = names + tail
        rate, total, tmin, tmax, last_ts, retained = _concat(parts)
        backwards = np.isnan(rate)
        if backwards.any():
            for i in np.flatnonzero(backwards):
                errors[names[i]] = BACKWARDS
            keep = ~backwards
            names = tuple(compress(names, keep))
            rate, total, tmin, tmax, last_ts, retained = (
                column[keep] for column in (rate, total, tmin, tmax, last_ts, retained)
            )
        age = now - last_ts  # nan where no beat has been observed
        codes = classify_codes(rate, retained, tmin, tmax, age, self._liveness_timeout)
        return FleetSample(
            names,
            errors,
            now,
            rate=rate,
            total=total,
            target_min=tmin,
            target_max=tmax,
            last_ts=last_ts,
            age=age,
            codes=codes,
        )

    def rates(self) -> dict[str, float]:
        """Convenience: poll once and return ``{stream name: rate}``."""
        sample = self.poll()
        return dict(zip(sample.names, sample.rates().tolist()))

    def lagging(self, target: float | None = None) -> list[str]:
        """Convenience: poll once and return the lagging streams, worst first."""
        return self.poll().lagging(target)

    def summary(self, q: Sequence[float] = (50.0, 90.0, 99.0)) -> FleetSummary:
        """Convenience: poll once and roll the fleet up into one summary."""
        return self.poll().summary(q)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach every stream and release what the aggregator owns.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            streams = list(self._streams.values())
            self._streams.clear()
            wholes = list(self._arenas)
            self._arenas.clear()
            self._collectors.clear()
            self._membership += 1
        for stream in streams:
            if stream.close is not None:
                stream.close()
        for group in wholes:
            if group.close is not None:
                group.close()

    def __enter__(self) -> "HeartbeatAggregator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeartbeatAggregator(streams={len(self)}, window={self._window})"
        )
