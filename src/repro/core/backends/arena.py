"""Single-arena columnar heartbeat history: one slab, N streams.

Every other backend gives each stream its own object — its own numpy ring,
its own file, its own shared-memory segment (and hosts cap POSIX shm around
~512 segments).  Observing a 100k-stream fleet through per-stream objects
therefore costs 100k Python-level ``snapshot_since`` calls per poll no matter
how cheap each one is.  This module keeps the paper's "universally accessible
location such as coherent shared memory" discipline but puts the *whole
fleet* in one mmap-able slab:

* a single ``(streams, depth)`` records matrix in
  :data:`repro.core.record.RECORD_DTYPE` — stream *i*'s circular history is
  row *i*;
* a per-stream header table with one fixed 128-byte row per stream carrying
  the beat total, target range, default window and a per-row sequence
  counter (odd while a write is in progress) — every row is one ring of the
  kernel in :mod:`repro.core.backends.ring`, exactly like a ``shm://``
  segment;
* one arena header naming the geometry.

Producers write through :class:`ArenaRowView` — a full
:class:`~repro.core.backends.base.Backend` over one row, so ``Heartbeat``,
``HeartbeatMonitor`` and the delta-cursor contract all work unchanged — and
stay lock-free with respect to every observer.  Observers get the fast path
that is the point of the layout: :meth:`Arena.snapshot_since_all` reads the
*entire fleet* — totals, targets, last timestamps, windowed rates and the
new records since a cursor vector — as a handful of vectorized numpy passes
with zero per-stream Python dispatch.

The slab is anonymous process memory for ``mem-arena://`` endpoints and a
``multiprocessing.shared_memory`` segment for ``shm-arena://``, so one
segment (not ~512) serves an arbitrarily large fleet across processes.

Slab layout (little-endian, 8-byte aligned)
-------------------------------------------
=====================  ========  =============================================
offset                 type      field
=====================  ========  =============================================
0                      header    one :data:`ARENA_HEADER_SIZE`-byte arena
                                 header (magic ``"HBARENA1"``, layout
                                 version, streams, depth, writer PID,
                                 rows-in-use publication word)
128                    table     ``streams`` row headers of
                                 :data:`ROW_HEADER_SIZE` bytes each (see
                                 ``docs/arena.md`` for the byte-level spec)
128 + streams * 128    records   ``(streams, depth)`` records of dtype
                                 :data:`~repro.core.record.RECORD_DTYPE`
=====================  ========  =============================================

>>> from repro.core.backends.arena import Arena
>>> with Arena(streams=2, depth=8) as arena:
...     row = arena.allocate("worker-0")
...     row.append(1, 0.5, 0, 0)
...     row.append(2, 1.0, 0, 0)
...     fleet = arena.snapshot_since_all()
...     (int(fleet.totals[0]), int(fleet.new[0]), bool(fleet.resync[0]))
(2, 2, True)
"""

from __future__ import annotations

import atexit
import os
import struct
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.backends.base import (
    Backend,
    BackendSnapshot,
    DeltaSnapshot,
    SnapshotCursor,
    delta_bounds,
)
from repro.core.backends.ring import Ring
from repro.core.backends.shared_memory import _attach_untracked, _untrack_segment
from repro.core.errors import BackendError, BackendFormatError, InvalidWindowError
from repro.core.record import RECORD_DTYPE, pack_record

__all__ = [
    "Arena",
    "ArenaRowView",
    "ArenaFleetDelta",
    "arena_size",
    "arena_for",
    "ARENA_HEADER_SIZE",
    "ROW_HEADER_SIZE",
    "MAGIC",
]

MAGIC = 0x48424152454E4131  # "HBARENA1"
LAYOUT_VERSION = 1
ARENA_HEADER_SIZE = 128
ROW_HEADER_SIZE = 128
#: Maximum bytes of a row's UTF-8 stream name stored in the slab.
NAME_SIZE = 64

#: Default geometry applied by the endpoint layer when a URL names neither.
DEFAULT_STREAMS = 1024
DEFAULT_DEPTH = 1024

_ARENA_HEADER_DTYPE = np.dtype(
    [
        ("magic", np.int64),
        ("version", np.int64),
        ("streams", np.int64),
        ("depth", np.int64),
        ("writer_pid", np.int64),
        ("rows_in_use", np.int64),
        ("reserved", np.int64, 10),
    ]
)
assert _ARENA_HEADER_DTYPE.itemsize == ARENA_HEADER_SIZE

_ROW_HEADER_DTYPE = np.dtype(
    [
        ("total", np.int64),
        ("sequence", np.int64),
        ("default_window", np.int64),
        ("target_min", np.float64),
        ("target_max", np.float64),
        ("state", np.int64),
        ("name", f"S{NAME_SIZE}"),
        ("reserved", np.int64, 2),
    ]
)
assert _ROW_HEADER_DTYPE.itemsize == ROW_HEADER_SIZE
#: The same row header as one packed record, so a new row's header is a
#: single store (``total, sequence, default_window, target_min,
#: target_max, state, name, reserved[2]``).
_ROW_HEADER = struct.Struct(f"=3q2dq{NAME_SIZE}s2q")
assert _ROW_HEADER.size == ROW_HEADER_SIZE

#: A row header as 8-byte words: ``total``, ``sequence`` and the default
#: window lead it (``target_min`` and ``target_max`` follow the window).
_ROW_WORDS = ROW_HEADER_SIZE // 8
_TOTAL_AT, _SEQUENCE_AT, _WINDOW_AT = 0, 1, 2

#: The arena header's ``rows_in_use`` publication word, as an int64 index.
_ROWS_IN_USE_AT = _ARENA_HEADER_DTYPE.fields["rows_in_use"][1] // 8

#: Row ``state`` values.
_ROW_FREE, _ROW_IN_USE = 0, 1


def arena_size(streams: int, depth: int) -> int:
    """Total slab size in bytes for an ``(streams, depth)`` arena."""
    return ARENA_HEADER_SIZE + streams * ROW_HEADER_SIZE + streams * depth * RECORD_DTYPE.itemsize


def _validate_geometry(streams: int, depth: int) -> tuple[int, int]:
    if streams <= 0:
        raise BackendError(f"arena streams must be positive, got {streams}")
    if depth <= 0:
        raise BackendError(f"arena depth must be positive, got {depth}")
    return int(streams), int(depth)


@dataclass(frozen=True)
class ArenaFleetDelta:
    """One consistent fleet-wide read of an arena (see ``snapshot_since_all``).

    All arrays have one entry per allocated row, in allocation order.  The
    per-row delta semantics are exactly those of
    :class:`~repro.core.backends.base.DeltaSnapshot` /
    :func:`~repro.core.backends.base.delta_bounds`: ``new[i]`` records of row
    *i* are carried in ``records[offsets[i]:offsets[i+1]]``; ``resync[i]``
    means they are the full retained history, not an increment; ``gap[i]``
    counts beats overwritten before this read.  ``cursors`` is the cursor
    vector to hand back to the next ``snapshot_since_all`` call.
    """

    totals: np.ndarray
    retained: np.ndarray
    new: np.ndarray
    gap: np.ndarray
    resync: np.ndarray
    target_min: np.ndarray
    target_max: np.ndarray
    default_window: np.ndarray
    last_timestamp: np.ndarray
    rate: np.ndarray
    cursors: np.ndarray
    records: np.ndarray
    offsets: np.ndarray

    @property
    def rows(self) -> int:
        """Number of allocated rows this read covers."""
        return int(self.totals.shape[0])

    def records_for(self, index: int) -> np.ndarray:
        """The new records of row ``index`` (production order)."""
        return self.records[int(self.offsets[index]) : int(self.offsets[index + 1])]

    def delta_for(self, index: int) -> tuple[DeltaSnapshot, SnapshotCursor]:
        """Row ``index``'s slice as a per-stream :class:`DeltaSnapshot`."""
        delta = DeltaSnapshot(
            records=self.records_for(index),
            total_beats=int(self.totals[index]),
            retained=int(self.retained[index]),
            target_min=float(self.target_min[index]),
            target_max=float(self.target_max[index]),
            default_window=int(self.default_window[index]),
            gap=int(self.gap[index]),
            resync=bool(self.resync[index]),
        )
        return delta, SnapshotCursor(total=int(self.totals[index]))


class Arena:
    """One columnar slab holding the circular history of N heartbeat streams.

    Parameters
    ----------
    streams:
        Number of stream rows the slab holds (fixed at creation).
    depth:
        Records retained per stream (each row is a ``depth``-slot ring).

    The plain constructor builds an *anonymous* in-process slab (the
    ``mem-arena://`` flavour).  :meth:`create` / :meth:`attach` build the
    ``shm-arena://`` flavour on a ``multiprocessing.shared_memory`` segment
    any process on the host can map — one segment for the whole fleet, so
    the ~512-segments-per-host POSIX ceiling no longer bounds fleet size.

    Rows are handed out by :meth:`allocate` (append-only, guarded by an
    in-process lock: allocate from one process per arena — observers in
    other processes only read).  Producers write through the returned
    :class:`ArenaRowView`; observers either treat rows as ordinary backends
    or read the whole fleet at once with :meth:`snapshot_since_all`.
    """

    def __init__(self, streams: int = DEFAULT_STREAMS, depth: int = DEFAULT_DEPTH) -> None:
        streams, depth = _validate_geometry(streams, depth)
        self._mem: bytearray | None = bytearray(arena_size(streams, depth))
        self._shm: Any = None
        self._owner = True
        self.name: str | None = None
        self._init_views(memoryview(self._mem), streams, depth)
        self._format_header()

    @classmethod
    def create(
        cls, name: str | None = None, *, streams: int = DEFAULT_STREAMS, depth: int = DEFAULT_DEPTH
    ) -> "Arena":
        """Create a shared-memory arena (the ``shm-arena://`` flavour).

        The creator owns the segment's lifetime: :meth:`close` unlinks it.
        ``name=None`` lets the OS assign a unique segment name (exposed as
        :attr:`name`).
        """
        streams, depth = _validate_geometry(streams, depth)
        self = object.__new__(cls)
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=arena_size(streams, depth)
            )
        except OSError as exc:
            raise BackendError(f"cannot create arena segment: {exc}") from exc
        self._mem = None
        self._shm = shm
        self._owner = True
        self.name = shm.name
        self._init_views(shm.buf, streams, depth)
        self._format_header()
        return self

    @classmethod
    def attach(cls, name: str) -> "Arena":
        """Attach to an existing shared-memory arena by segment name.

        Attachments never unlink the segment on :meth:`close`; only the
        creator owns its lifetime.  The mapping is read/write, so a
        cooperating producer process may append to rows the creator handed
        it (by index) — but only the creating process should :meth:`allocate`.
        """
        self = object.__new__(cls)
        try:
            shm = _attach_untracked(name)
        except (OSError, ValueError) as exc:
            raise BackendFormatError(f"cannot attach to arena segment {name!r}: {exc}") from exc
        probe = np.ndarray(shape=(), dtype=_ARENA_HEADER_DTYPE, buffer=shm.buf[:ARENA_HEADER_SIZE])
        if int(probe["magic"]) != MAGIC:
            shm.close()
            raise BackendFormatError(f"segment {name!r} is not a heartbeat arena")
        if int(probe["version"]) != LAYOUT_VERSION:
            shm.close()
            raise BackendFormatError(f"unsupported arena layout version {int(probe['version'])}")
        streams, depth = int(probe["streams"]), int(probe["depth"])
        del probe  # drop the view before any close() can be reached
        self._mem = None
        self._shm = shm
        self._owner = False
        self.name = name
        self._init_views(shm.buf, streams, depth)
        return self

    # ------------------------------------------------------------------ #
    # Construction internals
    # ------------------------------------------------------------------ #
    def _init_views(self, buf: memoryview, streams: int, depth: int) -> None:
        self.streams = streams
        self.depth = depth
        table_end = ARENA_HEADER_SIZE + streams * ROW_HEADER_SIZE
        # Bound once per arena: row views index these instead of paying a
        # structured-field lookup per header access.
        self._buf = buf
        table = buf[ARENA_HEADER_SIZE:table_end]
        self._words = table.cast("q")
        self._reals = table.cast("d")
        self._records_offset = table_end
        self._header = np.ndarray(
            shape=(), dtype=_ARENA_HEADER_DTYPE, buffer=buf[:ARENA_HEADER_SIZE]
        )
        self._head_words = buf[:ARENA_HEADER_SIZE].cast("q")
        self._rows = np.ndarray(
            shape=(streams,), dtype=_ROW_HEADER_DTYPE, buffer=buf[ARENA_HEADER_SIZE:table_end]
        )
        self._records = np.ndarray(
            shape=(streams, depth),
            dtype=RECORD_DTYPE,
            buffer=buf[table_end : table_end + streams * depth * RECORD_DTYPE.itemsize],
        )
        self._alloc_lock = threading.Lock()
        self._closed = False

    def _format_header(self) -> None:
        header = self._header
        header["magic"] = MAGIC
        header["version"] = LAYOUT_VERSION
        header["streams"] = self.streams
        header["depth"] = self.depth
        header["writer_pid"] = os.getpid()
        header["rows_in_use"] = 0

    def _check_open(self) -> None:
        if self._closed:
            raise BackendError("arena is closed")

    # ------------------------------------------------------------------ #
    # Row management
    # ------------------------------------------------------------------ #
    @property
    def rows_in_use(self) -> int:
        """Number of rows handed out so far (allocation is append-only)."""
        self._check_open()
        return self._head_words[_ROWS_IN_USE_AT]

    @property
    def nbytes(self) -> int:
        """Total slab size in bytes."""
        return arena_size(self.streams, self.depth)

    @property
    def occupancy(self) -> float:
        """Fraction of rows allocated, in ``[0, 1]``."""
        return self.rows_in_use / self.streams

    def writer_pid(self) -> int:
        """PID of the creating process (useful for liveness checks)."""
        self._check_open()
        return int(self._header["writer_pid"])

    def allocate(self, name: str = "") -> "ArenaRowView":
        """Claim the next free row and return its writer/backend view.

        Raises :class:`~repro.core.errors.BackendError` when the arena is
        full.  Allocation is append-only (closed rows are not recycled) and
        must happen in the process that owns the arena; the in-process lock
        makes it thread-safe there.
        """
        self._check_open()
        with self._alloc_lock:
            index = self._head_words[_ROWS_IN_USE_AT]
            if index >= self.streams:
                raise BackendError(
                    f"arena is full ({self.streams} rows allocated); "
                    "create a larger arena (?streams=N)"
                )
            # The whole row header in one store (the name is truncated to
            # NAME_SIZE bytes), then the publication word: observers scanning
            # [0, rows_in_use) never see a half-initialised row header.
            _ROW_HEADER.pack_into(
                self._buf, ARENA_HEADER_SIZE + index * ROW_HEADER_SIZE,
                0, 0, 0, 0.0, 0.0, _ROW_IN_USE, name.encode("utf-8", "replace"), 0, 0,
            )
            self._head_words[_ROWS_IN_USE_AT] = index + 1
        return ArenaRowView(self, index)

    def row(self, index: int) -> "ArenaRowView":
        """A view of row ``index`` (which must already be allocated)."""
        self._check_open()
        if not 0 <= index < self.rows_in_use:
            raise BackendError(
                f"row {index} is not allocated (rows in use: {self.rows_in_use})"
            )
        return ArenaRowView(self, index)

    def row_name(self, index: int) -> str:
        """The stream name recorded for row ``index`` at allocation time."""
        self._check_open()
        return bytes(self._rows["name"][index]).decode("utf-8", "replace")

    def row_names(self) -> list[str]:
        """Names of all allocated rows, in allocation order."""
        count = self.rows_in_use
        return [raw.decode("utf-8", "replace") for raw in self._rows["name"][:count].tolist()]

    # ------------------------------------------------------------------ #
    # The fleet fast path
    # ------------------------------------------------------------------ #
    def snapshot_since_all(
        self,
        cursors: np.ndarray | None = None,
        *,
        window: int = 0,
        include_records: bool = True,
    ) -> ArenaFleetDelta:
        """Read the whole fleet's state — and new beats — in one masked pass.

        ``cursors`` is the ``cursors`` vector returned by the previous call
        (``None`` or shorter-than-the-fleet entries mean "never read": those
        rows resync in full, exactly like a per-stream ``snapshot_since``
        with no cursor).  ``window`` is the observer's requested rate window
        (``0``: each producer's published default), resolved per row by the
        same rule :func:`repro.core.window.resolve_window` applies to single
        streams.  ``include_records=False`` skips gathering the new record
        payloads and returns columns only — the aggregator's classification
        pass needs nothing more.

        Consistency: header columns are captured under a vectorized seqlock
        check (rows whose writer raced the read are retried as a shrinking
        subset); the record gather is then validated against the captured
        sequences and any row a writer touched mid-gather is re-read through
        the scalar ring kernel (copy once, drop what the writer can have
        reached).  Cost is a handful of O(rows) numpy passes — no per-stream
        Python dispatch.
        """
        self._check_open()
        if isinstance(window, bool) or not isinstance(window, int):
            raise InvalidWindowError(f"window must be an int, got {window!r}")
        if window < 0:
            raise InvalidWindowError(f"window must be >= 0, got {window}")
        requested = int(window)
        count = self.rows_in_use
        depth = self.depth

        cur = np.zeros(count, dtype=np.int64)
        explicit = np.zeros(count, dtype=bool)
        if cursors is not None:
            arr = np.asarray(cursors, dtype=np.int64).reshape(-1)
            k = min(int(arr.shape[0]), count)
            cur[:k] = arr[:k]
            explicit[:k] = True

        rows = self._rows
        ts2d = self._records["timestamp"]

        out_seq = np.zeros(count, dtype=np.int64)
        out_total = np.zeros(count, dtype=np.int64)
        out_dw = np.zeros(count, dtype=np.int64)
        out_tmin = np.zeros(count, dtype=np.float64)
        out_tmax = np.zeros(count, dtype=np.float64)
        out_last = np.full(count, np.nan, dtype=np.float64)
        out_rate = np.zeros(count, dtype=np.float64)

        pending = np.arange(count, dtype=np.int64)
        for attempt in range(256):
            if attempt:
                # Yield so writers mid-batch (possibly sharing our GIL) can
                # publish; escalate to a real sleep if they keep winning.
                time.sleep(0.0001 if attempt % 32 == 31 else 0)
            idx = pending
            # The first pass covers every row: contiguous slice copies beat
            # fancy indexing there, and when no writer raced us the whole
            # capture is adopted without a per-row scatter.
            full_pass = attempt == 0
            if full_pass:
                seq0 = rows["sequence"][:count].copy()
                totals = rows["total"][:count].copy()
                dw = rows["default_window"][:count].copy()
                tmin = rows["target_min"][:count].copy()
                tmax = rows["target_max"][:count].copy()
            else:
                seq0 = rows["sequence"][idx].copy()
                totals = rows["total"][idx].copy()
                dw = rows["default_window"][idx].copy()
                tmin = rows["target_min"][idx].copy()
                tmax = rows["target_max"][idx].copy()
            retained = np.minimum(totals, depth)
            has = retained > 0
            safe_total = np.maximum(totals, 1)
            last_ts = ts2d[idx, (safe_total - 1) % depth]
            # Effective window per row: resolve_window(requested, dw, retained)
            # with the same dw<=0 fallback reading_from_snapshot applies.
            dw_eff = np.where(dw > 0, dw, max(requested, 1))
            base = dw_eff if requested == 0 else np.minimum(requested, dw_eff)
            effective = np.minimum(base, retained)
            first_ts = ts2d[idx, (safe_total - np.maximum(effective, 1)) % depth]
            span = last_ts - first_ts
            measurable = (effective >= 2) & (span > 0)
            rate = np.where(
                measurable,
                (np.maximum(effective, 2) - 1) / np.where(span > 0, span, 1.0),
                0.0,
            )
            seq1 = rows["sequence"][:count] if full_pass else rows["sequence"][idx]
            ok = (seq0 % 2 == 0) & (seq1 == seq0)
            if full_pass and bool(ok.all()):
                out_seq, out_total, out_dw = seq0, totals, dw
                out_tmin, out_tmax = tmin, tmax
                out_last = np.where(has, last_ts, np.nan)
                out_rate = rate
                pending = idx[:0]
                break
            good = idx[ok]
            out_seq[good] = seq0[ok]
            out_total[good] = totals[ok]
            out_dw[good] = dw[ok]
            out_tmin[good] = tmin[ok]
            out_tmax[good] = tmax[ok]
            out_last[good] = np.where(has[ok], last_ts[ok], np.nan)
            out_rate[good] = rate[ok]
            pending = idx[~ok]
            if pending.size == 0:
                break
        else:  # pragma: no cover - requires a pathologically hot writer
            raise BackendError("could not obtain a consistent arena read")

        out_retained = np.minimum(out_total, depth)

        def bounds() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # delta_bounds, vectorized: (included, gap, resync) per row.
            produced = out_total - cur
            behind = (~explicit) | (produced < 0)
            included = np.where(behind, out_retained, np.minimum(produced, out_retained))
            gap = np.where(behind, 0, produced - included)
            return included, gap, behind | (gap > 0)

        included, gap, resync = bounds()
        offsets = np.zeros(count + 1, dtype=np.int64)
        if include_records and count:
            counts = included.astype(np.int64)
            np.cumsum(counts, out=offsets[1:])
            flat, bad = self._gather(counts, offsets, out_total, out_seq)
            if bad is not None and bad.any():
                flat, offsets = self._repair(
                    bad, cur, explicit, requested, flat, offsets,
                    out_total, out_retained, out_dw, out_tmin, out_tmax, out_last, out_rate,
                )
                included, gap, resync = bounds()
            records = flat
        else:
            records = np.empty(0, dtype=RECORD_DTYPE)

        return ArenaFleetDelta(
            totals=out_total,
            retained=out_retained,
            new=included,
            gap=gap,
            resync=resync,
            target_min=out_tmin,
            target_max=out_tmax,
            default_window=out_dw,
            last_timestamp=out_last,
            rate=out_rate,
            cursors=out_total.copy(),
            records=records,
            offsets=offsets,
        )

    def _gather(
        self,
        counts: np.ndarray,
        offsets: np.ndarray,
        totals: np.ndarray,
        seqs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One vectorized gather of every row's newest ``counts`` records.

        Returns ``(flat, bad)`` where ``bad`` flags rows whose writer moved
        between the header capture and the gather (``None`` when the gather
        was empty) — those rows' slices in ``flat`` may be torn.
        """
        total_new = int(offsets[-1])
        if total_new == 0:
            return np.empty(0, dtype=RECORD_DTYPE), None
        count = counts.shape[0]
        reps = np.repeat(np.arange(count, dtype=np.int64), counts)
        starts = totals - counts
        positions = np.arange(total_new, dtype=np.int64) - np.repeat(offsets[:-1], counts)
        slots = (np.repeat(starts, counts) + positions) % self.depth
        flat = self._records[reps, slots]
        seq_after = self._rows["sequence"][:count]
        bad = seq_after != seqs
        return flat, bad

    def _repair(
        self,
        bad: np.ndarray,
        cur: np.ndarray,
        explicit: np.ndarray,
        requested: int,
        flat: np.ndarray,
        offsets: np.ndarray,
        out_total: np.ndarray,
        out_retained: np.ndarray,
        out_dw: np.ndarray,
        out_tmin: np.ndarray,
        out_tmax: np.ndarray,
        out_last: np.ndarray,
        out_rate: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Re-read the (rare) rows a writer touched mid-gather, scalar-ly.

        Splits the flat gather back into per-row segments, replaces the torn
        ones with one ring-kernel read each — the delta and the rate window
        come out of the same copy — and reassembles.  Only rows with an
        actively racing writer pay this path.
        """
        count = bad.shape[0]
        parts: list[np.ndarray] = np.split(flat, offsets[1:-1]) if count else []
        for i in np.nonzero(bad)[0]:
            i = int(i)
            row_cursor = SnapshotCursor(total=int(cur[i])) if explicit[i] else None
            ring = self._ring(i)
            total, dw, tmin, tmax = ring.capture()
            retained = min(total, self.depth)
            dw_eff = dw if dw > 0 else max(requested, 1)
            eff = min(dw_eff if requested == 0 else min(requested, dw_eff), retained)
            inc, _gap, _resync = delta_bounds(row_cursor, total, retained)
            recs, retained = ring.copy_newest(total, max(inc, eff))
            inc, eff = min(inc, retained), min(eff, retained)
            stamps = recs["timestamp"]
            last, rate = (float(stamps[-1]) if retained else np.nan), 0.0
            if eff >= 2:
                span = last - float(stamps[-eff])
                if span > 0:
                    rate = (eff - 1) / span
            out_total[i] = total
            out_retained[i] = retained
            out_dw[i] = dw
            out_tmin[i] = tmin
            out_tmax[i] = tmax
            out_last[i] = last
            out_rate[i] = rate
            parts[i] = recs[recs.shape[0] - inc :]
        new_offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum([part.shape[0] for part in parts], out=new_offsets[1:])
        merged = np.concatenate(parts) if parts else np.empty(0, dtype=RECORD_DTYPE)
        return merged, new_offsets

    def _ring(self, index: int) -> Ring:
        """The ring kernel over row ``index``.

        It borrows the arena's own views and makes none, so a row view may
        keep it: :meth:`close` releases those views and nothing pins the slab.
        """
        base = index * _ROW_WORDS
        return Ring(
            self._words,
            self._reals,
            base + _SEQUENCE_AT,
            base + _TOTAL_AT,
            base + _WINDOW_AT,
            self._buf,
            self._records_offset + index * self.depth * RECORD_DTYPE.itemsize,
            self.depth,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the slab.  The creating process also unlinks shm arenas."""
        if self._closed:
            return
        self._closed = True
        # Drop views before releasing the buffer, otherwise close() raises.
        self._header = None  # type: ignore[assignment]
        self._rows = None  # type: ignore[assignment]
        self._records = None  # type: ignore[assignment]
        # Released, not just dropped: rings kept by row views borrow them.
        self._head_words.release()
        self._words.release()
        self._reals.release()
        self._buf.release()
        self._buf = None  # type: ignore[assignment]
        if self._shm is not None:
            self._shm.close()
            if self._owner:
                try:
                    self._shm.unlink()
                except FileNotFoundError:
                    _untrack_segment(self._shm)
        self._mem = None

    def __enter__(self) -> "Arena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "shm" if self._shm is not None else "mem"
        return (
            f"Arena({kind}, name={self.name!r}, streams={self.streams}, "
            f"depth={self.depth}, in_use={0 if self._closed else self.rows_in_use})"
        )


class ArenaRowView(Backend):
    """One arena row exposed as a full per-stream :class:`Backend`.

    Everything that speaks the Backend ABC — ``Heartbeat``, monitors, the
    aggregator's per-stream attachments, the delta-cursor contract — works
    against a row view unchanged.  Writes and reads are the ring kernel's
    (:mod:`repro.core.backends.ring`); a row view reloads the kernel's copy
    of the row's two words from the slab before every write, because
    ``Arena.row(i)`` hands out fresh views of one row and only the slab is
    shared between them.  Closing a row view is a no-op on the slab: the
    arena owns the storage.
    """

    __slots__ = ("_arena", "_ring", "index", "capacity", "_closed")

    def __init__(self, arena: Arena, index: int) -> None:
        self._arena = arena
        self.index = int(index)
        self.capacity = arena.depth
        self._ring = arena._ring(self.index)
        self._closed = False

    @property
    def name(self) -> str:
        """The stream name recorded at allocation time."""
        return self._arena.row_name(self.index)

    def _open_ring(self) -> Ring:
        if self._closed:
            raise BackendError("arena row view is closed")
        self._arena._check_open()
        return self._ring

    def _writer(self) -> Ring:
        ring = self._open_ring()
        ring.reload()  # another view of this row may have written since this one did
        return ring

    def append(self, beat: int, timestamp: float, tag: int, thread_id: int) -> None:
        pack_record(beat, timestamp, tag, thread_id)  # the ring's precondition, checked first
        self._writer().append(beat, timestamp, tag, thread_id)

    def append_many(self, records: np.ndarray) -> None:
        self._writer().append_many(records)

    def set_targets(self, target_min: float, target_max: float) -> None:
        self._writer().set_targets(target_min, target_max)

    def set_default_window(self, window: int) -> None:
        self._writer().set_default_window(window)

    def snapshot(self, n: int | None = None) -> BackendSnapshot:
        return self._open_ring().snapshot(n)

    def snapshot_since(
        self, cursor: SnapshotCursor | None = None
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        """Copy-once delta of only this row's unseen ring region."""
        return self._open_ring().snapshot_since(cursor)

    def version(self) -> tuple[int, int]:
        """Cheap change token: ``(total, sequence)``, same contract as shm."""
        return self._open_ring().version()

    def close(self) -> None:
        """Mark this view closed.  The slab (and the row's history) remain."""
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaRowView(arena={self._arena.name!r}, index={self.index})"


# --------------------------------------------------------------------- #
# Process-level arena registry (the endpoint layer's get-or-create)
# --------------------------------------------------------------------- #
_REGISTRY: dict[tuple[str, str], Arena] = {}
_REGISTRY_LOCK = threading.Lock()


def arena_for(
    kind: str, name: str, streams: int | None = None, depth: int | None = None
) -> Arena:
    """Get-or-create the process-shared arena behind an endpoint URL.

    ``kind`` is ``"mem"`` or ``"shm"``.  Producers, observers and sessions
    resolving the same URL in one process share one :class:`Arena` (and for
    ``shm`` one mapping), mirroring how ``mem://`` streams share the process
    registry.  The first resolver fixes the geometry; later callers passing
    conflicting explicit ``streams``/``depth`` get a
    :class:`~repro.core.errors.BackendError`.  Registry arenas live for the
    process lifetime (``shm`` segments are unlinked by their creator's exit
    hooks / resource tracker); close an arena you constructed directly when
    you need deterministic teardown.
    """
    if kind not in ("mem", "shm"):
        raise BackendError(f"unknown arena kind {kind!r}")
    key = (kind, name)
    with _REGISTRY_LOCK:
        arena = _REGISTRY.get(key)
        if arena is not None and not arena._closed:
            for label, want, have in (
                ("streams", streams, arena.streams),
                ("depth", depth, arena.depth),
            ):
                if want is not None and int(want) != have:
                    raise BackendError(
                        f"arena {name!r} already open with {label}={have}, requested {want}"
                    )
            return arena
        use_streams = int(streams) if streams is not None else DEFAULT_STREAMS
        use_depth = int(depth) if depth is not None else DEFAULT_DEPTH
        if kind == "mem":
            arena = Arena(streams=use_streams, depth=use_depth)
        else:
            try:
                arena = Arena.attach(name)
            except BackendFormatError:
                arena = Arena.create(name or None, streams=use_streams, depth=use_depth)
        _REGISTRY[key] = arena
        return arena


def _close_registry_arenas() -> None:  # pragma: no cover - interpreter teardown
    """Release registry-owned slabs at exit (creators unlink their segments)."""
    with _REGISTRY_LOCK:
        arenas = list(_REGISTRY.values())
        _REGISTRY.clear()
    for arena in arenas:
        try:
            arena.close()
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass


atexit.register(_close_registry_arenas)


if TYPE_CHECKING:  # pragma: no cover - typing aid only
    _: Backend = ArenaRowView(Arena(1, 1), 0)
