"""The stream contract: one object shape every observer attaches to.

A heartbeat stream answers three questions for whoever watches it — *what
is the state now* (``snapshot``), *what changed since my cursor*
(``snapshot_since``) and *did anything change at all* (``version``) — and a
producer needs one place to publish beats and goals.  This module names
both sides once:

* :class:`StreamSource` — the read side.  ``snapshot()`` is the only
  required method; ``snapshot_since`` (cursored deltas), ``version`` (cheap
  change probe) and ``close`` (detach) are optional and *discovered*, never
  ``isinstance``-checked, so any object that grew the methods gets the
  incremental fast paths for free.  Every
  :class:`~repro.core.backends.base.Backend`, the ``shm://`` and ``file://``
  readers, an arena row, a collector's ``source(stream_id)`` view and a
  :class:`~repro.core.monitor.HeartbeatMonitor` satisfy it.
* :class:`StreamSink` — the write side: what a producer needs to publish
  beats and goals.  Every :class:`~repro.core.backends.base.Backend`
  satisfies it.
* :func:`capabilities_of` — the single discovery routine.  It accepts a
  source object, a ``Heartbeat`` (unwrapping its backend) or a bare
  zero-argument snapshot callable, and returns the normalized
  :class:`SourceCapabilities` bundle the two observers
  (:class:`~repro.core.monitor.HeartbeatMonitor`,
  :class:`~repro.core.aggregator.HeartbeatAggregator`) read through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.backends.base import (
    BackendSnapshot,
    DeltaSnapshot,
    SnapshotCursor,
    delta_from_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.core.backends.arena import Arena

__all__ = [
    "StreamSource",
    "StreamSink",
    "DeltaSource",
    "ProbeSource",
    "SourceCapabilities",
    "capabilities_of",
]

#: Cursored delta provider (the incremental-read capability).
DeltaSource = Callable[
    [SnapshotCursor | None], "tuple[DeltaSnapshot, SnapshotCursor]"
]

#: Cheap change-token provider (the optional idle-skip capability).
ProbeSource = Callable[[], object]


@runtime_checkable
class StreamSource(Protocol):
    """The read side of a heartbeat stream: anything with ``snapshot()``.

    ``snapshot_since`` / ``version`` / ``close`` are optional capabilities on
    top of this minimum; use :func:`capabilities_of` to discover them rather
    than testing types.
    """

    def snapshot(self) -> BackendSnapshot:  # pragma: no cover - protocol stub
        ...


@runtime_checkable
class StreamSink(Protocol):
    """The write side of a heartbeat stream: where a producer publishes.

    Every storage backend satisfies it (``mem://``, ``file://``, ``shm://``
    and ``tcp://`` endpoints all open into one); so can anything else that
    wants to receive beats — a test double, a metrics bridge, a fan-out tee.
    """

    def append(
        self, beat: int, timestamp: float, tag: int, thread_id: int
    ) -> None:  # pragma: no cover - protocol stub
        ...

    def append_many(self, records: np.ndarray) -> None:  # pragma: no cover
        ...

    def set_targets(
        self, target_min: float, target_max: float
    ) -> None:  # pragma: no cover - protocol stub
        ...

    def set_default_window(self, window: int) -> None:  # pragma: no cover
        ...

    def close(self) -> None:  # pragma: no cover - protocol stub
        ...


@dataclass(frozen=True, slots=True)
class SourceCapabilities:
    """The normalized capability bundle of one stream source.

    ``snapshot`` and ``delta`` are always present: ``delta`` is the source's
    own ``snapshot_since`` when it has one, otherwise its full snapshot
    re-expressed as a delta (:func:`~repro.core.backends.base.
    delta_from_snapshot`), so observers read every source the same cursored
    way.  ``probe`` and ``close`` are ``None`` when the source does not offer
    them.  ``close`` is *reported*, not exercised — whether detaching the
    consumer should also release the source is an ownership decision the
    attacher makes (``own=True`` on the attach surfaces).  ``row`` is the
    ``(slab, row index)`` of a source that is a slab row (its
    ``slab_row()``), which observers read in place; ``None`` for the rest.
    """

    snapshot: Callable[[], BackendSnapshot]
    delta: DeltaSource
    probe: ProbeSource | None = None
    close: Callable[[], None] | None = None
    row: tuple[Arena, int] | None = None


def capabilities_of(obj: object) -> SourceCapabilities:
    """Discover what stream capabilities ``obj`` offers.

    Accepted shapes, probed in order:

    * anything with ``snapshot`` (a ``Backend``, a ``SharedMemoryReader`` or
      ``FileReader``, an arena row, a collector's ``source(stream_id)``
      view of its row, a ``HeartbeatMonitor``, ...) — ``snapshot_since`` /
      ``version`` / ``close`` / ``slab_row`` ride along when present, and a
      source with ``slab_row`` is read in place by both observers.  An object's own ``snapshot``
      always wins over any ``backend`` it wraps;
    * anything with a ``backend`` attribute that is itself a source (a
      ``Heartbeat`` — the backend's capabilities are adopted);
    * a bare zero-argument callable, treated as a snapshot provider with no
      optional capabilities.

    Raises ``TypeError`` for anything else.  Capabilities are discovered by
    attribute, never by ``isinstance``: a third-party object that grew
    ``snapshot_since`` yesterday gets incremental polling today.
    """
    if callable(getattr(obj, "slabs", None)):
        # A collector-like object is a *set* of streams, and its snapshot
        # surface takes a stream id — accepting it here would wire a source
        # whose every read fails.  Reject loudly.
        raise TypeError(
            f"{type(obj).__name__} is collector-like (it has slabs); "
            "attach it with attach_collector() / TelemetrySession.fleet(), "
            "or pick one stream via its source(stream_id) view"
        )
    # The object's own snapshot wins over any `backend` attribute it holds:
    # what an object's reads mean is its own to define.
    snapshot = getattr(obj, "snapshot", None)
    if snapshot is not None and callable(snapshot):
        close, slab_row = getattr(obj, "close", None), getattr(obj, "slab_row", None)
        return SourceCapabilities(
            snapshot=snapshot,
            delta=getattr(obj, "snapshot_since", None) or _delta_of(snapshot),
            probe=getattr(obj, "version", None),
            close=close if callable(close) else None,
            row=slab_row() if callable(slab_row) else None,
        )
    backend = getattr(obj, "backend", None)
    if backend is not None and callable(getattr(backend, "snapshot", None)):
        return capabilities_of(backend)
    if callable(obj):
        return SourceCapabilities(snapshot=obj, delta=_delta_of(obj))  # type: ignore[arg-type]
    raise TypeError(
        f"{type(obj).__name__} is not a stream source: expected snapshot(), "
        "a Heartbeat, or a zero-argument snapshot callable"
    )


def _delta_of(snapshot: Callable[[], BackendSnapshot]) -> DeltaSource:
    """A snapshot provider's full read re-expressed as a cursored delta."""

    def delta(
        cursor: SnapshotCursor | None = None,
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        return delta_from_snapshot(snapshot(), cursor)

    return delta
