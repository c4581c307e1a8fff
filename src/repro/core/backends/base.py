"""Backend interface shared by all heartbeat storage implementations."""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.record import RECORD_DTYPE, HeartbeatRecord, array_to_records

__all__ = [
    "Backend",
    "BackendSnapshot",
    "DeltaSnapshot",
    "SnapshotCursor",
    "delta_bounds",
    "delta_from_snapshot",
]


@dataclass(frozen=True, slots=True)
class SnapshotCursor:
    """Opaque resume point for :meth:`Backend.snapshot_since`.

    ``total`` is the number of beats the holder has observed — cursors are
    keyed on the monotonically increasing beat sequence, so every backend can
    compute "what is new" with integer arithmetic.  ``position``, ``stamp``
    and ``check`` are backend-specific resume hints (the file backend stores
    the byte offset of the next unread record line, the log file's inode and
    the beat number of the last consumed record; ring-buffer backends leave
    them at their defaults).  Treat cursors as opaque values: obtain them
    from ``snapshot_since`` and hand them back unchanged.
    """

    total: int
    position: int = 0
    stamp: int = 0
    check: int = -1


@dataclass(frozen=True, slots=True)
class DeltaSnapshot:
    """What changed in a backend since a :class:`SnapshotCursor` was taken.

    Attributes
    ----------
    records:
        Structured array (dtype :data:`repro.core.record.RECORD_DTYPE`) of
        the records that became visible since the cursor, in production
        order.  When :attr:`resync` is true this is the *full* retained
        history instead of an increment.
    total_beats, target_min, target_max, default_window:
        Same meaning as on :class:`BackendSnapshot`; always current, so a
        consumer refreshes goals even from an empty delta.
    retained:
        Number of records the backend currently retains.  A consumer
        replaying deltas trims its reconstruction to the last ``retained``
        records to mirror the backend's eviction.  The cross-process rings
        (``shm://`` segments, arena rows) copy once and never re-read, so
        when a write overlaps the read this is the number of beats ending at
        ``total_beats`` the ring still held *intact* afterwards — shorter
        than the ring by however far the writer advanced meanwhile.
    gap:
        Beats produced since the cursor that are *not* in ``records``
        because the writer overwrote them before — or, on the cross-process
        rings, during — this read (a reader lapped by the producer, or a
        truncated log).  ``gap > 0`` always comes with ``resync=True``.
    resync:
        True when ``records`` is the full retained history rather than an
        increment — the consumer must replace, not append.  Set on the first
        read (no cursor), on overwrite gaps, and on file truncation or
        rotation.

    Replay rule: ``state = records if resync else concat(state, records)``,
    then trim ``state`` to its last ``retained`` records.  The invariant the
    contract tests enforce is that this reconstruction equals
    ``backend.snapshot().records`` at every step — and, when a writer
    overlapped the read, exactly the records ending at ``total_beats`` that
    were still intact, always contiguous and never torn.
    """

    records: np.ndarray
    total_beats: int
    retained: int
    target_min: float
    target_max: float
    default_window: int
    gap: int = 0
    resync: bool = False

    @property
    def new(self) -> int:
        """Number of records carried by this delta."""
        return int(self.records.shape[0])


def delta_bounds(
    cursor: SnapshotCursor | None, total: int, retained: int
) -> tuple[int, int, bool]:
    """``(included, gap, resync)`` for a delta read against ``cursor``.

    The one statement of the cursor arithmetic every ring-retention backend
    shares: a missing cursor or one ahead of the stream (restart) resyncs in
    full; otherwise the delta carries the newest ``included`` of the ``new``
    beats, and any overwritten remainder is a ``gap`` (which forces resync).
    """
    if cursor is None or cursor.total > total:
        return retained, 0, True
    new = total - cursor.total
    included = min(new, retained)
    gap = new - included
    return included, gap, gap > 0


def delta_from_snapshot(
    snap: BackendSnapshot, cursor: SnapshotCursor | None
) -> tuple[DeltaSnapshot, SnapshotCursor]:
    """Derive a delta from a full snapshot (the generic fallback path).

    Backends that can read incrementally override
    :meth:`Backend.snapshot_since` instead; this helper only guarantees the
    delta *contract* on top of any full :meth:`Backend.snapshot` read, so
    third-party backends are delta-correct without changes (at full-read
    cost).
    """
    included, gap, resync = delta_bounds(cursor, snap.total_beats, snap.retained)
    delta = DeltaSnapshot(
        records=snap.records[snap.retained - included :],
        total_beats=snap.total_beats,
        retained=snap.retained,
        target_min=snap.target_min,
        target_max=snap.target_max,
        default_window=snap.default_window,
        gap=gap,
        resync=resync,
    )
    return delta, SnapshotCursor(total=snap.total_beats)


@dataclass(frozen=True, slots=True)
class BackendSnapshot:
    """A consistent read of a backend's state taken at one instant.

    Attributes
    ----------
    records:
        Structured array (dtype :data:`repro.core.record.RECORD_DTYPE`) of the
        retained history in production order.
    total_beats:
        Total number of heartbeats ever registered.
    target_min, target_max:
        Published target heart-rate range; ``0.0`` for both when no target has
        been set.
    default_window:
        The producer's default rate window.
    """

    records: np.ndarray
    total_beats: int
    target_min: float
    target_max: float
    default_window: int

    def as_records(self) -> list[HeartbeatRecord]:
        """Return the retained history as :class:`HeartbeatRecord` objects."""
        return array_to_records(self.records)

    @property
    def retained(self) -> int:
        return int(self.records.shape[0])


class Backend(abc.ABC):
    """Abstract storage backend for a single heartbeat stream.

    A backend is written by exactly one producer (the instrumented
    application, possibly from several threads serialised by the owning
    :class:`~repro.core.heartbeat.Heartbeat`) and read by any number of
    observers.
    """

    #: Capacity of the retained history window.
    capacity: int

    @abc.abstractmethod
    def append(self, beat: int, timestamp: float, tag: int, thread_id: int) -> None:
        """Persist one heartbeat record."""

    def append_many(self, records: np.ndarray) -> None:
        """Persist a batch of heartbeat records in production order.

        ``records`` is a structured array of dtype
        :data:`repro.core.record.RECORD_DTYPE`.  Backends override this with
        a vectorized implementation (one slab write, one seqlock cycle, one
        file write); the base implementation falls back to per-record
        :meth:`append` so third-party backends stay correct without changes.
        """
        if records.dtype != RECORD_DTYPE:
            raise ValueError(f"records dtype must be {RECORD_DTYPE}, got {records.dtype}")
        for row in records:
            self.append(
                int(row["beat"]), float(row["timestamp"]), int(row["tag"]), int(row["thread_id"])
            )

    @abc.abstractmethod
    def set_targets(self, target_min: float, target_max: float) -> None:
        """Publish the application's target heart-rate range."""

    @abc.abstractmethod
    def set_default_window(self, window: int) -> None:
        """Publish the producer's default rate window."""

    @abc.abstractmethod
    def snapshot(self, n: int | None = None) -> BackendSnapshot:
        """Return a consistent snapshot of the last ``n`` records (all when None)."""

    def snapshot_since(
        self, cursor: SnapshotCursor | None = None
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        """Return what changed since ``cursor`` plus a new cursor.

        The base implementation derives the delta from a full
        :meth:`snapshot` read, which is correct for any backend but pays
        O(history) per call.  The built-in backends override it with true
        incremental reads: ring-index arithmetic (memory), a persisted byte
        offset (file) or one copy of just the unseen ring region (shared
        memory, arena rows), so the cost is O(new beats) instead.
        """
        return delta_from_snapshot(self.snapshot(), cursor)

    def version(self) -> object | None:
        """Cheap change token for idle-skip polling, or ``None`` if unknown.

        Two equal non-``None`` versions guarantee :meth:`snapshot_since`
        would return an empty delta with unchanged targets, letting a fleet
        observer skip the read entirely.  The base implementation returns
        ``None`` ("cannot tell — always poll me"), which is always safe.
        """
        return None

    @abc.abstractmethod
    def close(self) -> None:
        """Release any resources held by the backend (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
