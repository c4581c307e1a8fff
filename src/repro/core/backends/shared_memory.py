"""Shared-memory heartbeat storage.

The paper argues that the global heartbeat buffer "must be in a universally
accessible location such as coherent shared memory" and that "a standard must
be established specifying the components and layout of the heartbeat data
structures in memory" so external observers — other processes, the OS, even
hardware — can read them directly.  This backend is the Python analogue: a
``multiprocessing.shared_memory`` segment with a fixed binary layout that any
process on the host can attach to read-only.

Segment layout (little-endian, 8-byte aligned)
----------------------------------------------
===========  =======  ====================================================
offset       type     field
===========  =======  ====================================================
0            int64    magic (``0x48424541_54313036`` — "HBEAT106")
8            int64    layout version (currently 1)
16           int64    capacity (number of record slots)
24           int64    total beats ever written (monotonic, publication word)
32           int64    default window
40           float64  target_min
48           float64  target_max
56           int64    writer PID
64           int64    sequence counter (odd while a write is in progress)
72..128      --       reserved
128          records  ``capacity`` records of dtype ``RECORD_DTYPE``
===========  =======  ====================================================

Both halves of the protocol — how the writer publishes under the sequence
word and what a reader keeps when a write overlaps its copy — are the ring
kernel's and are stated once, in :mod:`repro.core.backends.ring`; this module
only says where a segment's header words and record slots are (and that a
segment's creator is its only writer for life, which is what lets the kernel
keep its own copy of ``total`` and ``sequence``).  Readers built
from the table alone follow the same rules: capture the header under an even,
unchanged sequence word, copy once, then drop the copied records older than
``total_after - capacity``.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
import mmap
import os
import struct
import sys
from typing import Any

try:  # POSIX only; Windows uses named file mappings with no resource tracker.
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX platform
    _posixshmem = None  # type: ignore[assignment]

from repro.core.backends.base import Backend, BackendSnapshot, DeltaSnapshot, SnapshotCursor
from repro.core.backends.ring import Ring
from repro.core.errors import BackendError, BackendFormatError
from repro.core.record import RECORD_DTYPE

__all__ = ["SharedMemoryBackend", "SharedMemoryReader", "HEADER_SIZE", "MAGIC"]

MAGIC = 0x4842454154313036
LAYOUT_VERSION = 1
HEADER_SIZE = 128

#: The whole header up to the reserved words, in the table's order.
_HEADER = struct.Struct("<5q2d2q")
#: 8-byte word indices of the header fields the ring kernel is told about
#: (``target_min`` and ``target_max`` follow the default window).
_TOTAL_AT, _WINDOW_AT, _PID_AT, _SEQUENCE_AT = 3, 4, 7, 8


def segment_size(capacity: int) -> int:
    """Total shared-memory segment size for ``capacity`` record slots."""
    return HEADER_SIZE + capacity * RECORD_DTYPE.itemsize


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


def _segment_layout(buf: memoryview, capacity: int) -> tuple[Any, ...]:
    """:class:`Ring`'s arguments over a mapped segment (drop the ring before closing ``buf``)."""
    header = buf[:HEADER_SIZE]
    return (
        header.cast("q"), header.cast("d"), _SEQUENCE_AT, _TOTAL_AT, _WINDOW_AT,
        buf, HEADER_SIZE, capacity,
    )


class _Closed:
    """What a closed segment's ring holds in place of its views: any access raises."""

    __slots__ = ()

    def _raise(self, *index_and_value: object) -> Any:
        raise BackendError("shared-memory segment is closed")

    __getitem__ = __setitem__ = _raise


_CLOSED: Any = _Closed()


def _release(ring: Ring) -> None:
    """Release ``ring``'s header views and leave :data:`_CLOSED` in their place.

    Released, not just dropped, as :meth:`Arena.close` does: a traceback
    frame of a read that raised still holds them, and the mapping refuses
    to close while any view of it is alive — the close would then raise
    ``BufferError`` in place of the read's own error.
    """
    ring.words.release()
    ring.reals.release()
    ring.words = ring.reals = ring.slots = _CLOSED


class SharedMemoryBackend(Ring, Backend):
    """Writer side of the shared-memory heartbeat segment: the
    :class:`~repro.core.backends.ring.Ring` over it, as ``MemoryBackend`` is over private memory.

    Parameters
    ----------
    name:
        Name of the shared-memory segment.  Observers attach with the same
        name via :class:`SharedMemoryReader` (or an ``shm://NAME`` URL:
        :meth:`repro.core.monitor.HeartbeatMonitor.attach_endpoint`).
        When omitted an OS-assigned unique name is used and exposed as
        :attr:`name`.
    capacity:
        Number of record slots in the circular history.
    """

    def __init__(self, name: str | None = None, capacity: int = 2048) -> None:
        if capacity <= 0:
            raise BackendError(f"capacity must be positive, got {capacity}")
        capacity = int(capacity)
        try:
            self._shm = shared_memory.SharedMemory(name=name, create=True, size=segment_size(capacity))
        except OSError as exc:
            raise BackendError(f"cannot create shared-memory segment: {exc}") from exc
        self.name = self._shm.name
        buf = self._shm.buf
        _HEADER.pack_into(buf, 0, MAGIC, LAYOUT_VERSION, capacity, 0, 0, 0.0, 0.0, os.getpid(), 0)
        Ring.__init__(self, *_segment_layout(buf, capacity))
        self._closed = False

    def close(self) -> None:
        """Release (and unlink) the segment; every method, even one bound earlier, then raises."""
        if self._closed:
            return
        self._closed = True
        _release(self)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            # Someone else already unlinked the segment.  unlink() only
            # deregisters on success, so deregister explicitly or the
            # resource tracker reports a leaked segment at process exit.
            _untrack_segment(self._shm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedMemoryBackend(name={self.name!r}, capacity={self.capacity})"


class SharedMemoryReader:
    """Read-only observer attachment to a shared-memory heartbeat segment.

    Used by external observers — the scheduler in Figure 1(b) — possibly in a
    different process from the instrumented application.
    """

    def __init__(self, name: str) -> None:
        try:
            # Attach untracked: only the writer owns the segment lifetime, so
            # a reader must never unlink it (or warn about it) on exit.
            self._shm = _attach_untracked(name)
        except (OSError, ValueError) as exc:
            raise BackendFormatError(
                f"cannot attach to shared-memory segment {name!r}: {exc}"
            ) from exc
        magic, version, capacity = struct.unpack_from("<3q", self._shm.buf, 0)
        if magic != MAGIC:
            self._shm.close()
            raise BackendFormatError(f"segment {name!r} is not a heartbeat segment")
        if version != LAYOUT_VERSION:
            self._shm.close()
            raise BackendFormatError(f"unsupported heartbeat segment version {version}")
        self.capacity = capacity
        self.name = name
        self._ring = Ring(*_segment_layout(self._shm.buf, capacity))
        self._closed = False

    def snapshot(self, n: int | None = None) -> BackendSnapshot:
        return self._ring.snapshot(n)

    def snapshot_since(
        self, cursor: SnapshotCursor | None = None
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        """Copy-once read of only the ring region unseen by ``cursor``."""
        return self._ring.snapshot_since(cursor)

    def version(self) -> tuple[int, int]:
        """Cheap change token ``(total, sequence)`` (see :meth:`Ring.version`)."""
        return self._ring.version()

    def writer_pid(self) -> int:
        """PID of the producing process (useful for liveness checks)."""
        return self._ring.words[_PID_AT]

    def close(self) -> None:
        """Detach; every read raises :class:`BackendError` afterwards."""
        if not self._closed:
            self._closed = True
            _release(self._ring)
            self._shm.close()

    def __enter__(self) -> "SharedMemoryReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
