"""Shared-memory heartbeat storage: an ``shm://`` segment is a one-row arena.

The paper argues that the global heartbeat buffer "must be in a universally
accessible location such as coherent shared memory" and that "a standard must
be established specifying the components and layout of the heartbeat data
structures in memory" so external observers — other processes, the OS, even
hardware — can read them directly.  The tree publishes one such layout, the
arena slab's (:mod:`repro.core.backends.arena`; byte-level spec in
``docs/arena.md``).  A ``shm://NAME`` segment is the ``shm-arena://NAME``
slab of exactly one row, allocated with an empty row name, so any reader of
one reads the other.

What this module adds is who writes the row.  A segment's creator is its
only writer for life, so :class:`SharedMemoryBackend` *is* the row's
:class:`~repro.core.backends.ring.Ring`: a heartbeat binds the ring's own
``append``, which keeps its copy of ``total`` and ``sequence`` and never
reloads them.  :class:`SharedMemoryReader` is row 0 of the attached slab.
"""

from __future__ import annotations

from repro.core.backends.arena import _CLOSED, Arena, ArenaRowView
from repro.core.backends.base import Backend
from repro.core.backends.ring import Ring
from repro.core.errors import BackendError, BackendFormatError

__all__ = ["SharedMemoryBackend", "SharedMemoryReader"]


class SharedMemoryBackend(Ring, Backend):
    """Writer side of an ``shm://`` segment: the
    :class:`~repro.core.backends.ring.Ring` over its one row, as ``MemoryBackend`` is over private memory.

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
        self._arena = Arena.create(name, streams=1, depth=int(capacity))
        # No row name: two segments that saw the same writes are byte-identical.
        self._arena.allocate()
        self.name = self._arena.name
        Ring.__init__(self, *self._arena._ring_args(0))
        self._closed = False

    def slab_row(self) -> tuple[Arena, int]:
        """The slab and row index this ring is: observers read the row in place."""
        return self._arena, 0

    def close(self) -> None:
        """Release (and unlink) the segment; every method, even one bound earlier, then raises."""
        if not self._closed:
            self._closed = True
            self.words = self.reals = self.slots = _CLOSED  # the arena releases the views
            self._arena.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedMemoryBackend(name={self.name!r}, capacity={self.capacity})"


class SharedMemoryReader(ArenaRowView):
    """Read-only observer attachment to an ``shm://`` segment: its one row.

    Used by external observers — the scheduler in Figure 1(b) — possibly in a
    different process from the instrumented application.  A slab of more
    than one row is an ``shm-arena://`` fleet, not a segment, and is refused.
    """

    __slots__ = ()

    def __init__(self, name: str) -> None:
        arena = Arena.attach(name)
        if arena.streams != 1:
            arena.close()
            raise BackendFormatError(
                f"segment {name!r} is an arena of {arena.streams} rows, not a one-row shm:// segment"
            )
        super().__init__(arena, 0)

    @property
    def name(self) -> str:
        """The segment's name."""
        return self._arena.name  # type: ignore[return-value]

    def writer_pid(self) -> int:
        """PID of the producing process (useful for liveness checks)."""
        return self._arena.writer_pid()

    def close(self) -> None:
        """Detach; every read raises :class:`BackendError` afterwards."""
        super().close()
        self._arena.close()
