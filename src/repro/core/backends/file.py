"""File-backed heartbeat storage.

This backend mirrors the paper's reference implementation: "When the
HB_heartbeat function is called, a new entry containing a timestamp, tag and
thread ID is written into a file. ... The target heart rates are also written
into the appropriate file so that the external service can access them."

Layout
------
The log is a plain-text file.  The first line is a header carrying the
format magic, version, default window and the published targets; it is
rewritten in place (the header line is padded to a fixed width so it can be
updated without rewriting the body).  Every subsequent line is one heartbeat::

    beat timestamp tag thread_id

The whole history is kept in the file — like the reference implementation,
"HB_get_history can support any value for n because the entire heartbeat
history is kept in the file" — while in-memory reads still honour the
retained-window semantics of the other backends via the ``capacity`` used for
snapshots.

Write buffering
---------------
Appends go through a userspace write buffer instead of issuing one syscall
per beat; the buffer drains on :meth:`FileBackend.flush`, on every snapshot
taken through the backend object, on header rewrites, on close, and — so
beats cannot sit invisible to external observers for longer than
``flush_interval`` seconds — whenever an append lands after that long
without a drain, with a one-shot timer picking up the tail of a burst the
producer goes quiet after.  A fast producer amortizes the syscall over
~64 KiB of lines; a 1-beat/s producer effectively stays write-through,
keeping cross-process liveness detection honest.  Pass ``buffered=False``
to restore unconditional write-through appends.

Incremental reads
-----------------
:func:`tail_heartbeat_log` reads a log *incrementally*: a
:class:`~repro.core.backends.base.SnapshotCursor` persists the byte offset of
the first unread record line (plus the file's inode), so a poll parses only
appended lines instead of the whole history.  Truncation (the file shrank
below the cursor) and rotation (the inode changed) are detected and answered
with a full resync.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.backends.base import (
    Backend,
    BackendSnapshot,
    DeltaSnapshot,
    SnapshotCursor,
)
from repro.core.errors import BackendError, BackendFormatError, MonitorAttachError
from repro.core.record import RECORD_DTYPE, pack_record

__all__ = [
    "FileBackend",
    "FileReader",
    "HEADER_WIDTH",
    "read_heartbeat_log",
    "tail_heartbeat_log",
]

_MAGIC = "HBLOG"
_VERSION = 1
#: Fixed width of the header line (including newline) so targets can be
#: updated in place without shifting the record lines that follow it.
#: Public so observers can fingerprint the header region directly.
HEADER_WIDTH = 128
_HEADER_WIDTH = HEADER_WIDTH
#: Userspace write-buffer size for buffered appends.
_WRITE_BUFFER = 1 << 16
#: Bytes re-read before a resuming cursor to verify the last consumed line
#: is still in place (record lines are well under this long).
_VERIFY_WINDOW = 256


def _format_header(default_window: int, target_min: float, target_max: float) -> bytes:
    text = f"{_MAGIC} v{_VERSION} window={default_window} min={target_min!r} max={target_max!r}"
    if len(text) >= _HEADER_WIDTH:
        raise BackendError("heartbeat log header overflow")
    return (text + " " * (_HEADER_WIDTH - 1 - len(text)) + "\n").encode("ascii")


def _parse_header(line: str) -> tuple[int, float, float]:
    fields = line.split()
    if len(fields) < 5 or fields[0] != _MAGIC:
        raise BackendFormatError(f"not a heartbeat log header: {line[:40]!r}")
    if fields[1] != f"v{_VERSION}":
        raise BackendFormatError(f"unsupported heartbeat log version: {fields[1]!r}")
    try:
        window = int(fields[2].split("=", 1)[1])
        tmin = float(fields[3].split("=", 1)[1])
        tmax = float(fields[4].split("=", 1)[1])
    except (IndexError, ValueError) as exc:  # pragma: no cover - defensive
        raise BackendFormatError(f"malformed heartbeat log header: {line!r}") from exc
    return window, tmin, tmax


def _ends_with_beat(chunk: bytes, beat: int) -> bool:
    """True when ``chunk`` ends in a newline-terminated line whose first
    field is the integer ``beat`` — the continuation check for file cursors."""
    if not chunk.endswith(b"\n"):
        return False
    fields = chunk[:-1].rsplit(b"\n", 1)[-1].split()
    if not fields:
        return False
    try:
        return int(fields[0]) == beat
    except ValueError:
        return False


def _parse_record_lines(lines: list[str]) -> np.ndarray:
    """Parse record lines into a structured array (blank lines skipped)."""
    body = [ln for ln in lines if ln.strip()]
    records = np.empty(len(body), dtype=RECORD_DTYPE)
    for i, line in enumerate(body):
        fields = line.split()
        if len(fields) != 4:
            raise BackendFormatError(f"malformed heartbeat record line: {line!r}")
        try:
            records[i] = (int(fields[0]), float(fields[1]), int(fields[2]), int(fields[3]))
        except (ValueError, OverflowError) as exc:  # OverflowError: a value past int64
            raise BackendFormatError(f"malformed heartbeat record line: {line!r}") from exc
    return records


class FileBackend(Backend):
    """Heartbeat storage in a plain-text log file readable by any process.

    ``buffered`` (default True) batches appended lines in a userspace buffer
    — one ``write`` syscall per ~64 KiB instead of one per beat.  Call
    :meth:`flush` to make buffered beats visible to other processes at a
    moment of your choosing; snapshot reads through this object flush
    automatically, and an append arriving more than ``flush_interval``
    seconds after the last drain flushes too, bounding how stale an external
    observer's view of a slow producer can get.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        capacity: int = 65536,
        *,
        buffered: bool = True,
        flush_interval: float = 0.25,
    ) -> None:
        self.path = Path(path)
        self.capacity = int(capacity)
        self.buffered = bool(buffered)
        self.flush_interval = float(flush_interval)
        self._last_flush = time.monotonic()
        self._flush_timer: threading.Timer | None = None
        self._target_min = 0.0
        self._target_max = 0.0
        self._default_window = 0
        self._total = 0
        self._meta_version = 0
        try:
            self._fh = open(
                self.path, "w+b", buffering=_WRITE_BUFFER if self.buffered else 0
            )
            self._fh.write(_format_header(0, 0.0, 0.0))
            self._fh.flush()  # a valid (empty) log must exist before any flush
        except OSError as exc:
            raise BackendError(f"cannot create heartbeat log {self.path}: {exc}") from exc
        self._closed = False

    # ------------------------------------------------------------------ #
    # Backend interface
    # ------------------------------------------------------------------ #
    def append(self, beat: int, timestamp: float, tag: int, thread_id: int) -> None:
        if self._closed:
            raise BackendError("heartbeat log is closed")
        pack_record(beat, timestamp, tag, thread_id)  # a line no reader could parse back
        line = f"{beat} {timestamp!r} {tag} {thread_id}\n".encode("ascii")
        self._fh.write(line)
        self._total += 1
        self._maybe_flush()

    def append_many(self, records: np.ndarray) -> None:
        if self._closed:
            raise BackendError("heartbeat log is closed")
        if records.dtype != RECORD_DTYPE:
            raise ValueError(f"records dtype must be {RECORD_DTYPE}, got {records.dtype}")
        if records.shape[0] == 0:
            return
        # tolist() materialises python scalars once; per-row structured-array
        # field access would dominate the batch otherwise.
        lines = "".join(
            f"{beat} {timestamp!r} {tag} {thread_id}\n"
            for beat, timestamp, tag, thread_id in records.tolist()
        )
        self._fh.write(lines.encode("ascii"))
        self._total += int(records.shape[0])
        self._maybe_flush()

    def flush(self) -> None:
        """Drain the write buffer so other processes see every beat so far."""
        if not self._closed:
            self._fh.flush()
            self._last_flush = time.monotonic()

    def _maybe_flush(self) -> None:
        """Bound observer staleness after every append.

        An append landing ``flush_interval`` after the last drain flushes
        inline (so a slow producer is effectively write-through); otherwise
        a one-shot timer is armed to drain the tail of a burst, so beats
        cannot sit invisible past the interval even if the producer goes
        quiet right after them.
        """
        if not self.buffered or self.flush_interval <= 0:
            return
        now = time.monotonic()
        if now - self._last_flush >= self.flush_interval:
            self._fh.flush()
            self._last_flush = now
            return
        if self._flush_timer is None:
            # Benign race: two appends may both arm a timer; the extra
            # flush of an already-drained buffer is a no-op.
            timer = threading.Timer(
                self.flush_interval - (now - self._last_flush), self._timer_flush
            )
            timer.daemon = True
            self._flush_timer = timer
            timer.start()

    def _timer_flush(self) -> None:
        self._flush_timer = None
        try:
            if not self._closed:
                # Python's buffered file objects serialise flush() against
                # concurrent write() internally, so draining from the timer
                # thread is safe alongside producer appends.
                self._fh.flush()
                self._last_flush = time.monotonic()
        except (OSError, ValueError):  # pragma: no cover - closed mid-flush
            pass

    def set_targets(self, target_min: float, target_max: float) -> None:
        self._target_min = float(target_min)
        self._target_max = float(target_max)
        self._meta_version += 1
        self._rewrite_header()

    def set_default_window(self, window: int) -> None:
        self._default_window = int(window)
        self._meta_version += 1
        self._rewrite_header()

    def snapshot(self, n: int | None = None) -> BackendSnapshot:
        self.flush()
        window, tmin, tmax, records = read_heartbeat_log(self.path)
        if n is not None and n < len(records):
            records = records[len(records) - n :]
        elif len(records) > self.capacity:
            records = records[len(records) - self.capacity :]
        return BackendSnapshot(
            records=records,
            total_beats=self._total if not self._closed else int(records.shape[0]),
            target_min=tmin,
            target_max=tmax,
            default_window=window,
        )

    def snapshot_since(
        self, cursor: SnapshotCursor | None = None
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        """Tail-read only the lines appended since ``cursor``."""
        self.flush()
        return tail_heartbeat_log(self.path, cursor, capacity=self.capacity)

    def version(self) -> tuple[int, int]:
        return (self._total, self._meta_version)

    def close(self) -> None:
        if not self._closed:
            timer = self._flush_timer
            if timer is not None:
                timer.cancel()
            self._fh.close()
            self._closed = True

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _rewrite_header(self) -> None:
        if self._closed:
            raise BackendError("heartbeat log is closed")
        self._fh.flush()
        pos = self._fh.tell()
        try:
            self._fh.seek(0)
            self._fh.write(
                _format_header(self._default_window, self._target_min, self._target_max)
            )
            self._fh.flush()
        finally:
            self._fh.seek(pos)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileBackend(path={str(self.path)!r}, total={self._total})"


class FileReader:
    """Read-only observer attachment to a heartbeat log file.

    The ``file://`` sibling of
    :class:`~repro.core.backends.shared_memory.SharedMemoryReader`: what an
    external observer in any process opens on a log some
    :class:`FileBackend` writes.  ``snapshot_since`` tails the file from a
    byte-offset cursor (:func:`tail_heartbeat_log`), so a poll parses only
    the appended lines.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        if not os.path.exists(self.path):
            raise MonitorAttachError(f"cannot attach heartbeat log {self.path!r}: no such file")

    def snapshot(self) -> BackendSnapshot:
        default_window, tmin, tmax, records = read_heartbeat_log(self.path)
        return BackendSnapshot(
            records=records,
            total_beats=int(records.shape[0]),
            target_min=tmin,
            target_max=tmax,
            default_window=default_window,
        )

    def snapshot_since(
        self, cursor: SnapshotCursor | None = None
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        return tail_heartbeat_log(self.path, cursor)

    def version(self) -> tuple[int, int, int, bytes] | None:
        """Change token ``(size, inode, mtime, header bytes)``.

        Appends grow the size, rotation changes the inode, and reading the
        fixed-width header directly (rather than trusting mtime alone, whose
        granularity is filesystem-dependent) catches in-place target/window
        rewrites that change nothing else; mtime stays in the tuple as a
        second line of defense against a same-path producer restart that
        lands on the exact same size and header.  Answers ``None`` ("cannot
        tell, poll me") when the read fails so the delta read reports the
        real error.
        """
        try:
            with open(self.path, "rb") as fh:
                header = fh.read(HEADER_WIDTH)
                stat = os.fstat(fh.fileno())
        except OSError:
            return None
        return (stat.st_size, stat.st_ino, stat.st_mtime_ns, header)

    def close(self) -> None:
        """Nothing to release: every read opens and closes the file."""


def read_heartbeat_log(path: str | os.PathLike[str]) -> tuple[int, float, float, np.ndarray]:
    """Parse a heartbeat log file.

    Returns ``(default_window, target_min, target_max, records)`` where
    ``records`` is a structured array with dtype
    :data:`repro.core.record.RECORD_DTYPE`.  This is the entry point used by
    external observers (see :class:`repro.core.monitor.HeartbeatMonitor`) to
    read a Heartbeat-enabled program's log, exactly like the external services
    in the paper's reference implementation.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise BackendError(f"cannot read heartbeat log {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise BackendFormatError(f"empty heartbeat log: {path}")
    window, tmin, tmax = _parse_header(lines[0])
    records = _parse_record_lines(lines[1:])
    return window, tmin, tmax, records


def tail_heartbeat_log(
    path: str | os.PathLike[str],
    cursor: SnapshotCursor | None = None,
    *,
    capacity: int | None = None,
) -> tuple[DeltaSnapshot, SnapshotCursor]:
    """Incrementally read a heartbeat log from a byte-offset cursor.

    Parses only the record lines appended after ``cursor.position``; a poll
    of a quiet log costs one ``stat`` plus one header read regardless of how
    deep the history is.  A missing or stale cursor, a truncated file
    (``size < position``) or a rotated file (inode changed) triggers a full
    re-read with ``resync=True`` — as does a producer restarting on the same
    path (same inode, truncate-and-regrow), which is caught by re-checking
    that the last consumed line still ends at ``cursor.position`` with the
    beat number the cursor recorded.  A trailing partial line (a producer's
    buffered write can land mid-line) is left for the next poll: the returned
    cursor only ever advances past complete lines.

    ``capacity`` clips the records carried by a resync delta (and the
    ``retained`` accounting) the way :meth:`FileBackend.snapshot` clips its
    history; observers that want the whole file pass ``None``.
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise BackendError(f"cannot read heartbeat log {path}: {exc}") from exc
    with fh:
        stat = os.fstat(fh.fileno())
        resume = cursor  # None from here on means a full resync
        if resume is not None and (
            resume.stamp != stat.st_ino
            or resume.position < _HEADER_WIDTH
            or stat.st_size < resume.position
        ):
            resume = None
        if resume is not None and resume.position > _HEADER_WIDTH:
            # Same inode and the file is at least as long as we left it —
            # but a producer restarting on this path truncates in place and
            # may have regrown past the stale offset.  Genuine continuations
            # still have our last consumed line ending exactly at the
            # cursor, carrying the beat number the cursor recorded.
            back = min(resume.position - _HEADER_WIDTH, _VERIFY_WINDOW)
            fh.seek(resume.position - back)
            if not _ends_with_beat(fh.read(back), resume.check):
                resume = None
        resync = resume is None
        start = _HEADER_WIDTH if resume is None else resume.position
        base_total = 0 if resume is None else resume.total
        fh.seek(0)
        header = fh.read(_HEADER_WIDTH)
        if len(header) < _HEADER_WIDTH:
            raise BackendFormatError(f"empty heartbeat log: {path}")
        window, tmin, tmax = _parse_header(header.decode("ascii", errors="replace"))
        fh.seek(start)
        data = fh.read()
    consumed = data.rfind(b"\n") + 1  # 0 when no complete line arrived yet
    try:
        records = _parse_record_lines(data[:consumed].decode("ascii").splitlines())
    except UnicodeDecodeError as exc:
        raise BackendFormatError(f"non-ascii bytes in heartbeat log {path}") from exc
    total = base_total + int(records.shape[0])
    if records.shape[0]:
        last_beat = int(records[-1]["beat"])
    else:
        last_beat = -1 if resume is None else resume.check
    new_cursor = SnapshotCursor(
        total=total, position=start + consumed, stamp=stat.st_ino, check=last_beat
    )
    retained = total if capacity is None else min(total, capacity)
    if resync and capacity is not None and records.shape[0] > capacity:
        records = records[records.shape[0] - capacity :]
    delta = DeltaSnapshot(
        records=records,
        total_beats=total,
        retained=retained,
        target_min=tmin,
        target_max=tmax,
        default_window=window,
        gap=0,
        resync=resync,
    )
    return delta, new_cursor
