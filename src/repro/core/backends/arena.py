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
  kernel in :mod:`repro.core.backends.ring`;
* one arena header naming the geometry.

This is the tree's one cross-process layout: an ``shm://NAME`` segment
(:mod:`repro.core.backends.shared_memory`) is an ``shm-arena://NAME`` slab
of exactly one row, so the two schemes differ only in row count.

Producers write through :class:`ArenaRowView` — a full
:class:`~repro.core.backends.base.Backend` over one row, so ``Heartbeat``,
``HeartbeatMonitor`` and the delta-cursor contract all work unchanged — and
stay lock-free with respect to every observer.  Observers get the fast path
that is the point of the layout: :meth:`Arena.snapshot_since_all` reads the
*entire fleet* — totals, targets, last timestamps, windowed rates and the
new records since a cursor vector — as a handful of vectorized numpy passes,
with per-stream Python only for a row a writer keeps racing.

The slab is an anonymous mapping for ``mem-arena://`` endpoints (pages no
row has written cost no memory), chained by :class:`_SlabPool`, and a
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
import mmap
import os
import struct
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

try:  # POSIX only; Windows uses named file mappings with no resource tracker.
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX platform
    _posixshmem = None  # type: ignore[assignment]

from repro.core.backends.base import Backend, BackendSnapshot, DeltaSnapshot, SnapshotCursor
from repro.core.backends.ring import _ATTEMPTS, Ring
from repro.core.errors import BackendError, BackendFormatError
from repro.core.rate import interval_rate, interval_rates
from repro.core.record import RECORD_DTYPE, pack_record
from repro.core.window import resolve_window, resolve_windows

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

#: ``mmap`` keywords of an anonymous slab that a forked child does not share.
_PRIVATE: dict[str, int] = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}

#: Default geometry applied by the endpoint layer when a URL names neither.
DEFAULT_STREAMS = 1024
DEFAULT_DEPTH = 1024
#: Vectorized header captures a fleet read tries before a raced row is read
#: alone: a retry catches the rows a long capture of a big slab raced, while
#: a row one writer keeps racing goes to its ring after a single retry.
_VECTOR_TRIES = 2

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


def _untrack_segment(shm: shared_memory.SharedMemory) -> None:
    """Remove ``shm`` from this process's resource tracker, if present.

    The tracker assumes whoever registered a segment will also unlink it; a
    writer whose segment was already unlinked elsewhere must deregister
    explicitly or the tracker warns about a leaked segment at process exit.
    """
    try:  # pragma: no cover - platform dependent
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


class _PosixAttachment:
    """Read/write mapping of an existing POSIX segment, tracker-free.

    Duck-types the slice of :class:`multiprocessing.shared_memory.SharedMemory`
    the readers use (``buf``, ``name``, ``close``) while opening the segment
    with ``shm_open`` + ``mmap`` directly, so nothing is ever registered with
    the resource tracker.
    """

    __slots__ = ("name", "_name", "_mmap", "buf")

    def __init__(self, name: str) -> None:
        self.name = name
        self._name = name if name.startswith("/") else "/" + name
        fd = _posixshmem.shm_open(self._name, os.O_RDWR, mode=0)
        try:
            size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        self.buf: memoryview | None = memoryview(self._mmap)

    def close(self) -> None:
        if self.buf is not None:
            self.buf.release()
            self.buf = None
            self._mmap.close()


def _attach_untracked(name: str) -> Any:
    """Attach to an existing segment without registering it for cleanup.

    Only the writer owns a segment's lifetime.  Python < 3.13 registers
    *every* mapping with the resource tracker, and the tracker — which may be
    shared with the writer's process — keeps one cache entry per name, so a
    reader that registers and later unregisters clobbers the writer's entry
    and turns the writer's eventual unlink into a tracker ``KeyError``.
    Keeping readers entirely off the tracker's books (what ``track=False``
    does natively from 3.13 on) avoids both that and the converse leak.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    if _posixshmem is not None:
        return _PosixAttachment(name)
    # Windows named mappings are not resource-tracked; a plain attach is safe.
    return shared_memory.SharedMemory(name=name, create=False)  # pragma: no cover


class _Closed:
    """What a closed ``shm://`` writer's ring holds in place of the slab's views: any access raises."""

    __slots__ = ()

    def _raise(self, *index_and_value: object) -> Any:
        raise BackendError("shared-memory segment is closed")

    __getitem__ = __setitem__ = _raise


_CLOSED: Any = _Closed()


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


def _read_alone(ring: Ring, window: int, cap: int) -> tuple[float, int, float, float, float, int, int]:
    """One row read through its ring: ``capture``, then one copy of the rate window.

    Returns ``(rate, total, target_min, target_max, last_timestamp,
    retained, default_window)`` as :meth:`Arena.snapshot_since_all` reports
    a row, with ``retained`` capped at ``cap`` (the row's depth, or what a
    mirrored source still holds) and cut to what the copy kept.  The last
    stamp is ``nan`` when the read kept no beat, the rate ``nan`` when the
    window runs backwards.
    """
    for _ in range(_ATTEMPTS):  # a window the writer lapped to under two stamps is read again
        total, default_window, target_min, target_max = ring.capture()
        held = min(total, cap)
        count = resolve_window(window, default_window, held)
        kept_window, kept = ring.copy_newest(total, count)
        if kept_window.size >= min(count, 2):
            break
    stamps = kept_window["timestamp"].tolist() or [np.nan]
    last, span = stamps[-1], stamps[-1] - stamps[0]
    rate = np.nan if span < 0 else interval_rate(len(stamps) - 1, span)
    return rate, total, target_min, target_max, last, min(kept, held), default_window


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
        # Private, not shared: a forked child writes its own copy of the slab.
        self._mem: mmap.mmap | None = mmap.mmap(-1, arena_size(streams, depth), **_PRIVATE)
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
        (``0``: each producer's published default), resolved per row by
        :func:`repro.core.window.resolve_windows`, the column form of the
        rule single streams use.  ``include_records=False`` skips gathering
        the new record payloads and returns columns only — the aggregator's
        classification pass needs nothing more.  Rates come from
        :func:`repro.core.rate.interval_rates`: a row whose rate window spans
        backwards in time reads rate ``nan``.

        Consistency follows the ring's reader protocol
        (:mod:`repro.core.backends.ring`), every row at once.  The header
        columns — with the last stamp and the rate window's stamps — are
        captured under a vectorized seqlock check, tried twice (the retry
        over the raced rows only).  A row a writer raced both times goes
        straight to its :class:`Ring` and is read alone (:func:`_read_alone`:
        ``capture``, one copy of its rate window; what the copy kept gives
        its rate, last stamp and ``retained``), so a hot writer costs its
        own row one scalar read, never an error.  The new records are then
        copied once.  Rows whose sequence word moved meanwhile, and rows
        read alone, are settled, not re-read: once their writers are quiet,
        the prefix of each row's copy that a write can have reached is
        dropped and ``retained``, ``new``, ``gap`` and ``resync`` follow,
        exactly as :meth:`Ring.snapshot_since` would report them.
        """
        self._check_open()
        count = self.rows_in_use
        depth = self.depth

        cur = np.zeros(count, dtype=np.int64)
        explicit = np.zeros(count, dtype=bool)
        if cursors is not None:
            arr = np.asarray(cursors, dtype=np.int64).reshape(-1)
            k = min(int(arr.shape[0]), count)
            cur[:k] = arr[:k]
            explicit[:k] = True

        out_rate, out_total, out_tmin, out_tmax, out_last, out_retained, out_dw, out_seq = self._columns(
            None, window, None
        )

        def bounds() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # delta_bounds, vectorized: (included, gap, resync) per row.
            if cursors is None:  # no row has a cursor: every row resyncs in full
                return out_retained, np.zeros(count, dtype=np.int64), np.ones(count, dtype=bool)
            produced = out_total - cur
            behind = (~explicit) | (produced < 0)
            included = np.where(behind, out_retained, np.minimum(produced, out_retained))
            gap = np.where(behind, 0, produced - included)
            return included, gap, behind | (gap > 0)

        included, gap, resync = bounds()
        offsets = np.zeros(count + 1, dtype=np.int64)
        records = np.empty(0, dtype=RECORD_DTYPE)
        if include_records and count:
            np.cumsum(included, out=offsets[1:])
            records = self._gather(included, offsets, out_total)
            raced = np.flatnonzero(self._rows["sequence"][:count] != out_seq)
            if raced.size:  # settle: the ring's reader step 3, every raced row at once
                advanced = self._quiet_totals(raced) - out_total[raced]
                out_retained = out_retained.copy()  # without cursors it is ``included``
                out_retained[raced] = np.minimum(
                    out_retained[raced], np.maximum(np.minimum(out_total[raced], depth - advanced), 0)
                )
                kept, gap, resync = bounds()
                position = np.arange(offsets[-1]) - np.repeat(offsets[:-1], included)
                records = records[position >= np.repeat(included - kept, included)]
                included = kept
                np.cumsum(included, out=offsets[1:])

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

    def _columns(
        self, rows: np.ndarray | None, window: int, held: np.ndarray | None
    ) -> tuple[np.ndarray, ...]:
        """``(rate, total, target_min, target_max, last_timestamp, retained,
        default_window, sequence)`` of slab rows ``rows``, in that order
        (every allocated row when ``None``).

        The capture step of :meth:`snapshot_since_all` (see there).  ``held``
        (indexed by slab row) caps each row's ``retained``: an observer
        mirroring a source into a row passes what the source itself still
        holds, so the rate window never reaches past it.  A row a writer
        raced is read alone by :func:`_read_alone` and reports sequence
        ``-1``, which no row holds.
        """
        self._check_open()
        depth, table = self.depth, self._rows
        index = np.arange(self.rows_in_use) if rows is None else rows
        ts2d = self._records["timestamp"]
        pending = np.arange(index.shape[0])
        for attempt in range(_VECTOR_TRIES):
            if attempt:
                time.sleep(0)  # let a writer mid-batch (possibly sharing our GIL) publish
            idx = index[pending]
            # The first pass over a whole slab copies contiguous slices, which
            # beat fancy indexing, and when no writer raced us the whole
            # capture is adopted without a per-row scatter.
            full_pass = attempt == 0
            at = slice(0, idx.shape[0]) if full_pass and rows is None else idx
            seq0, totals, dw, tmin, tmax = (
                table[field][at].copy() for field in ("sequence", "total", "default_window", "target_min", "target_max")
            )
            retained = np.minimum(totals, depth)
            if held is not None:
                retained = np.minimum(retained, held[idx])
            safe_total = np.maximum(totals, 1)
            last_ts = np.where(retained > 0, ts2d[idx, (safe_total - 1) % depth], np.nan)
            effective = resolve_windows(window, dw, retained)
            first_ts = ts2d[idx, (safe_total - np.maximum(effective, 1)) % depth]
            rate = interval_rates(effective - 1, last_ts - first_ts)
            ok = (seq0 % 2 == 0) & (table["sequence"][at] == seq0)
            if full_pass:
                columns = (rate, totals, tmin, tmax, last_ts, retained, dw, seq0)
                if bool(ok.all()):
                    return columns
                columns = tuple(column.copy() for column in columns)  # a writer raced: assemble
            else:
                for out, column in zip(columns, (rate, totals, tmin, tmax, last_ts, retained, dw, seq0)):
                    out[pending[ok]] = column[ok]
            pending = pending[~ok]
            if pending.size == 0:
                return columns
        for p in pending.tolist():  # still raced: the ring's own read
            i = int(index[p])
            cap = depth if held is None else min(depth, int(held[i]))
            values = _read_alone(self._ring(i), window, cap)
            for out, value in zip(columns, (*values, -1)):
                out[p] = value
        return columns

    def _gather(self, counts: np.ndarray, offsets: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """One vectorized copy of every row's newest ``counts`` records ending at ``totals``."""
        total_new = int(offsets[-1])
        if total_new == 0:
            return np.empty(0, dtype=RECORD_DTYPE)
        reps = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        positions = np.arange(total_new, dtype=np.int64) - np.repeat(offsets[:-1], counts)
        slots = (np.repeat(totals - counts, counts) + positions) % self.depth
        return self._records[reps, slots]

    def _quiet_totals(self, index: np.ndarray) -> np.ndarray:
        """The ``total`` of each row in ``index``, read once its sequence word is even.

        :meth:`Ring.copy_newest`'s wait, for many rows: each row's total is
        read after a poll found no write in progress on it, with the same
        bound on polls before the writer is given up as stuck.
        """
        totals = np.empty(index.shape[0], dtype=np.int64)
        waiting = np.arange(index.shape[0])
        for attempt in range(_ATTEMPTS):
            quiet = self._rows["sequence"][index[waiting]] % 2 == 0
            totals[waiting[quiet]] = self._rows["total"][index[waiting[quiet]]]
            waiting = waiting[~quiet]
            if waiting.size == 0:
                return totals
            if attempt > 3:
                time.sleep(0.0001 if attempt % 32 == 31 else 0)
        raise BackendError("ring writer stayed mid-write; no consistent read")

    def _ring_args(self, index: int) -> tuple[Any, ...]:
        """:class:`Ring`'s arguments over row ``index``.

        They are the arena's own views, so a ring built from them makes none
        and may be kept: :meth:`close` releases those views and nothing pins
        the slab.
        """
        base = index * _ROW_WORDS
        return (
            self._words, self._reals, base + _SEQUENCE_AT, base + _TOTAL_AT, base + _WINDOW_AT,
            self._buf, self._records_offset + index * self.depth * RECORD_DTYPE.itemsize, self.depth,
        )

    def _discard_records(self, index: int) -> None:
        """Hand the whole pages of a freed row's records back to the OS.

        Only an anonymous slab's; they read as zeros until written again.
        """
        if self._mem is None or not hasattr(mmap, "MADV_DONTNEED"):
            return
        size = self.depth * RECORD_DTYPE.itemsize
        start = self._records_offset + index * size
        first, last = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE, (start + size) // mmap.PAGESIZE * mmap.PAGESIZE
        if last > first:
            self._mem.madvise(mmap.MADV_DONTNEED, first, last - first)

    def _ring(self, index: int) -> Ring:
        """The ring kernel over row ``index`` (see :meth:`_ring_args`)."""
        return Ring(*self._ring_args(index))

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

    def slab_row(self) -> tuple[Arena, int]:
        """The slab and row index this view is: observers read the row in place."""
        return self._arena, self.index

    def close(self) -> None:
        """Mark this view closed.  The slab (and the row's history) remain."""
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaRowView(arena={self._arena.name!r}, index={self.index})"


#: Bytes of a chain's first private slab; each slab chained after it
#: doubles the rows of the one before.
_FIRST_SLAB_BYTES = 1 << 16


class _Slab:
    """One slab of a :class:`_SlabPool` chain: the arena, its row → name
    table, the ``held`` column (beats each row's source still retains, for
    an observer mirroring a source into the row) and the rows freed."""

    __slots__ = ("arena", "names", "held", "free")

    def __init__(self, arena: Arena) -> None:
        self.arena = arena
        self.names: list[str] = arena.row_names()
        self.held = np.zeros(arena.streams, dtype=np.int64)
        self.free: list[int] = []


class _SlabPool:
    """Private slabs, one chain per row depth.

    :meth:`take` hands out a row of exactly the depth asked for: a freed
    row (its ``total``, window and targets zeroed), else the next row of
    the chain's last slab, else the first of a new slab with twice the rows
    of the last (a chain's first slab holds ``first_bytes``).  A chain only
    grows, so a row never moves.  A caller's ``first`` arena opens the
    chain of its depth.  ``layout`` moves whenever a row is taken or freed;
    a freed row's record pages go back to the OS.  The lock is reentrant
    because :meth:`give` runs from a garbage-collected backend's finalizer,
    which may fire inside :meth:`take`.
    """

    __slots__ = ("first_bytes", "chains", "slabs", "layout", "_lock")

    def __init__(self, first_bytes: int = _FIRST_SLAB_BYTES, first: Arena | None = None) -> None:
        self.first_bytes = first_bytes  # 0: every chain starts at one row
        self.chains: dict[int, list[_Slab]] = {}
        self.slabs: list[_Slab] = []  # every chain's slabs, in creation order
        self.layout = 0
        self._lock = threading.RLock()
        if first is not None:
            self._chain(first.depth, first)

    def _chain(self, depth: int, arena: Arena) -> _Slab:
        slab = _Slab(arena)
        self.chains.setdefault(depth, []).append(slab)
        self.slabs.append(slab)
        return slab

    def take(self, depth: int, name: str = "") -> tuple[_Slab, int]:
        with self._lock:
            chain = self.chains.get(depth, [])
            self.layout += 1
            for slab in chain:
                if slab.free:
                    index = slab.free.pop()
                    slab.names[index] = name
                    base = index * _ROW_WORDS  # a row given back still holds its last stream's header
                    slab.arena._words[base + _TOTAL_AT] = slab.arena._words[base + _WINDOW_AT] = 0
                    slab.arena._reals[base + _WINDOW_AT + 1] = slab.arena._reals[base + _WINDOW_AT + 2] = 0.0
                    return slab, index
            last = chain[-1] if chain else None
            if last is None or last.arena.rows_in_use == last.arena.streams:
                row_bytes = ROW_HEADER_SIZE + depth * RECORD_DTYPE.itemsize
                rows = 2 * last.arena.streams if last else max(1, self.first_bytes // row_bytes)
                last = self._chain(depth, Arena(streams=rows, depth=depth))
            index = last.arena.allocate(name).index
            names = last.names
            names.extend(map(last.arena.row_name, range(len(names), index)))  # rows others took
            names.append(name)
            return last, index

    def give(self, slab: _Slab, index: int) -> None:
        with self._lock:
            slab.free.append(index)
            self.layout += 1
        slab.arena._discard_records(index)


#: The process-wide pool every private-memory ring (``MemoryBackend``)
#: takes its row from: in-process streams are slab rows like every other.
#: Its chains start at 4 MiB of rows (address space: a page no row wrote
#: costs no memory), so a fleet of in-process streams sits in few slabs
#: and an observer reads it in few passes.
_ROW_POOL = _SlabPool(1 << 22)
if hasattr(os, "register_at_fork"):  # a lock held by a thread that did not fork would never be released
    os.register_at_fork(after_in_child=lambda: setattr(_ROW_POOL, "_lock", threading.RLock()))


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
