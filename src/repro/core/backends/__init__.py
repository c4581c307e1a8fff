"""Storage backends for heartbeat history.

A backend owns the heartbeat history buffer and the published target rates,
and defines how (and whether) external observers can read them:

* :class:`MemoryBackend` — private in-process storage; the fastest option and
  the right choice when the application observes itself.
* :class:`FileBackend` — one log file per heartbeat, mirroring the paper's
  reference implementation ("a new entry containing a timestamp, tag and
  thread ID is written into a file").  Any process able to read the file can
  observe the application.
* :class:`SharedMemoryBackend` — a ``multiprocessing.shared_memory`` segment
  any process on the host can read, the Python analogue of the memory layout
  the paper proposes for hardware observers.  The segment is a one-row
  shared-memory :class:`Arena`, whose creator writes the row as its ring.
* :class:`Arena` / :class:`ArenaRowView` — one columnar slab (anonymous or
  shared-memory) holding N streams as rows of a single records matrix, so a
  fleet observer reads *all* of them in one vectorized pass
  (:meth:`Arena.snapshot_since_all`) while each row still speaks the full
  per-stream :class:`Backend` interface.  Its layout (``docs/arena.md``) is
  the one every cross-process reader parses: ``shm://`` and
  ``shm-arena://`` differ only in row count.

All backends expose the same :class:`Backend` interface so
:class:`repro.core.heartbeat.Heartbeat` is backend-agnostic.  Every backend
also answers :meth:`Backend.snapshot_since` — a cursored delta read keyed on
the monotonically increasing beat sequence — so observers can poll at a cost
proportional to *new* beats instead of the whole retained history.
"""

from repro.core.backends.arena import Arena, ArenaFleetDelta, ArenaRowView
from repro.core.backends.base import (
    Backend,
    BackendSnapshot,
    DeltaSnapshot,
    SnapshotCursor,
)
from repro.core.backends.file import FileBackend
from repro.core.backends.memory import MemoryBackend
from repro.core.backends.shared_memory import SharedMemoryBackend

__all__ = [
    "Backend",
    "BackendSnapshot",
    "DeltaSnapshot",
    "SnapshotCursor",
    "MemoryBackend",
    "FileBackend",
    "SharedMemoryBackend",
    "Arena",
    "ArenaRowView",
    "ArenaFleetDelta",
]
