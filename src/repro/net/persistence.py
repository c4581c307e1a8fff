"""Collector persistence: append-only per-stream journals, replayed on restart.

A collector's streams normally live and die with its process — acceptable
for a pure observer, fatal for an ingest *tier*: an edge collector that is
killed mid-run takes with it every record its producers delivered but it had
not yet relayed upstream.  :class:`StreamJournal` closes that gap with the
oldest trick in storage: write behind the ingest path, replay on restart.

The format deliberately reuses the wire protocol.  Each stream's journal
file is a 12-byte file header followed by a capture of ordinary HBTP frames
(:mod:`repro.net.protocol`): the registering HELLO first, then the BATCH /
TARGETS / CLOSE traffic as it was ingested — a journal BATCH frame holds one
ingest *run* (every consecutive BATCH frame of one socket read), not one
wire frame.  Reuse buys three properties for free:

* **length-prefixed, CRC-checked records** — replay walks the file with
  :func:`~repro.net.protocol.scan_frames`, the socket decoder's own
  validation, so it rejects exactly what a collector rejects off the wire;
* **kill-safety without fsync** — appends go straight to the OS page cache
  (``buffering=0``), so a SIGKILL of the collector loses at most the final
  partial journal frame (one read's run), which replay recognises as a
  truncated tail and discards (host crashes need ``sync=True``, which
  fsyncs every append);
* **one parser** — the journal never invents a second serialisation of a
  heartbeat record.

Layout: each stream id maps to one ``<quoted-id>.hbj`` file in the journal
directory; the file header (``!8sBBH``: magic, format version, flags,
reserved) records whether the stream arrived via a relay link.  Journals are
bounded by compaction: when a file outgrows ``max_bytes``, it is rewritten
from the stream's *retained* ring-buffer window (temp file + atomic rename),
so the journal holds what the collector would replay anyway.  A stream whose
retained window alone is near ``max_bytes`` is next rewritten at twice the
size of its last rewrite, so compaction never runs on every append.

>>> import tempfile
>>> from repro.net.protocol import Hello
>>> hello = Hello(name="svc", pid=41, default_window=0, capacity=64,
...               target_min=0.0, target_max=0.0, nonce=7)
>>> with tempfile.TemporaryDirectory() as root:
...     journal = StreamJournal(root)
...     writer = journal.writer("svc", hello)
...     writer.append_close(3)
...     journal.close()
...     [(r.stream_id, r.hello.nonce, r.reported_total)
...      for r in StreamJournal(root).replay()]
[('svc', 7, 3)]
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from urllib.parse import quote, unquote

import numpy as np

from repro.core.record import RECORD_DTYPE
from repro.net import protocol
from repro.obs.registry import MetricsRegistry

__all__ = ["JournalWriter", "ReplayedStream", "StreamJournal"]

#: Journal file header: magic, format version, flags, reserved.
_FILE_HEADER = struct.Struct("!8sBBH")
_FILE_MAGIC = b"HBJRNL\r\n"
_FILE_VERSION = 1
#: Flag bit: the stream was fed by a relay link, not a direct producer.
_FLAG_VIA_RELAY = 0x01

_SUFFIX = ".hbj"

#: Records per journal BATCH frame at most: a longer run (or a compaction's
#: retained window) is chunked, honouring the payload cap with headroom.
_RECORDS_PER_BATCH = (protocol.MAX_PAYLOAD - 4096) // protocol.WIRE_RECORD_DTYPE.itemsize


@dataclass(slots=True)
class ReplayedStream:
    """One stream's state recovered from its journal file.

    ``hello`` carries the *latest* registration metadata (a journal may hold
    several HELLO frames — one per producer reconnect — and later ones win,
    each clearing an earlier CLOSE as a live re-registration does);
    ``records`` is every journaled record in append order; ``last_beat`` is
    the highest beat number seen.
    ``valid_bytes`` is the length of the parseable prefix — resuming the
    journal truncates the file there, so a torn tail can never corrupt
    frames appended after restart.
    """

    stream_id: str
    hello: protocol.Hello
    via_relay: bool
    records: np.ndarray
    closed: bool
    reported_total: int | None
    last_beat: int
    valid_bytes: int
    path: Path


class JournalWriter:
    """Appends one stream's frames to its journal file.

    Created by :class:`StreamJournal` (:meth:`StreamJournal.writer` for a
    fresh stream, :meth:`StreamJournal.resume` after replay); all appends
    happen on the collector's event-loop thread.  A write error (disk full,
    file deleted) marks the writer broken and turns further appends into
    no-ops — persistence must degrade, never take ingest down with it.
    """

    __slots__ = ("path", "_file", "_size", "_max_bytes", "_sync", "_broken", "_journal")

    def __init__(self, journal: "StreamJournal", path: Path, file: "object", size: int) -> None:
        self.path = path
        self._file = file
        self._size = size
        self._max_bytes = journal.max_bytes
        self._sync = journal.sync
        self._broken = False
        self._journal = journal
        journal._writers.append(self)

    # -------------------------------------------------------------- #
    # Appends (one journal frame each)
    # -------------------------------------------------------------- #
    def append_frame(self, ftype: int, payload: bytes | memoryview) -> None:
        """Append one frame verbatim (header re-derived, CRC included)."""
        header, body = protocol.frame_buffers(ftype, payload)
        self._write(header + bytes(body))

    def append_hello(self, hello: protocol.Hello) -> None:
        """Append a (re-)registration frame carrying current metadata."""
        self._write(_hello_frame(hello))

    def append_records(self, records: np.ndarray) -> None:
        """Append one BATCH of records (chunked under the payload cap)."""
        for start in range(0, int(records.shape[0]), _RECORDS_PER_BATCH):
            self.append_frame(
                protocol.FRAME_BATCH,
                protocol.batch_payload(records[start : start + _RECORDS_PER_BATCH]),
            )

    def append_targets(self, target_min: float, target_max: float) -> None:
        self._write(protocol.encode_targets(target_min, target_max))

    def append_close(self, reported_total: int | None) -> None:
        self._write(_close_frame(reported_total))

    # -------------------------------------------------------------- #
    # Compaction
    # -------------------------------------------------------------- #
    @property
    def oversized(self) -> bool:
        """True once the file outgrew its compaction threshold."""
        return not self._broken and self._size > self._max_bytes

    def rewrite(
        self,
        hello: protocol.Hello,
        records: np.ndarray,
        *,
        via_relay: bool = False,
        closed: bool = False,
        reported_total: int | None = None,
    ) -> None:
        """Compact: replace the file with the stream's current state.

        ``records`` is the retained ring-buffer window — everything a
        restart would restore anyway.  The rewrite goes to a temp file and
        lands with an atomic rename, so a kill mid-compaction leaves either
        the old journal or the new one, never a hybrid.
        """
        if self._broken:
            return
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        try:
            self._close_file()
            with open(tmp_path, "wb") as tmp:
                tmp.write(_file_header(via_relay))
                tmp.write(_hello_frame(hello))
                for start in range(0, int(records.shape[0]), _RECORDS_PER_BATCH):
                    payload = protocol.batch_payload(records[start : start + _RECORDS_PER_BATCH])
                    tmp.writelines(protocol.frame_buffers(protocol.FRAME_BATCH, payload))
                if closed:
                    tmp.write(_close_frame(reported_total))
                tmp.flush()
                if self._sync:
                    os.fsync(tmp.fileno())
            os.replace(tmp_path, self.path)
            self._size = self.path.stat().st_size
            # A retained window larger than max_bytes would otherwise leave
            # the file oversized at once and rewrite it on the next append.
            self._max_bytes = max(self._journal.max_bytes, 2 * self._size)
            self._file = open(self.path, "ab", buffering=0)
            self._journal._compactions.inc()
        except OSError:
            self._mark_broken()

    # -------------------------------------------------------------- #
    # Plumbing
    # -------------------------------------------------------------- #
    def _write(self, data: bytes) -> None:
        if self._broken:
            return
        try:
            self._file.write(data)  # type: ignore[attr-defined]
            if self._sync:
                os.fsync(self._file.fileno())  # type: ignore[attr-defined]
        except (OSError, ValueError):
            self._mark_broken()
            return
        self._size += len(data)
        self._journal._frames_written.inc()
        self._journal._bytes_written.inc(len(data))

    def _mark_broken(self) -> None:
        self._broken = True
        self._journal._errors.inc()
        self._close_file()

    def _close_file(self) -> None:
        try:
            self._file.close()  # type: ignore[attr-defined]
        except OSError:  # pragma: no cover - close barely ever raises
            pass

    def close(self) -> None:
        """Flush and close the file.  Idempotent (appends become no-ops)."""
        if not self._broken:
            self._broken = True
            self._close_file()


class StreamJournal:
    """A directory of per-stream journal files behind one collector.

    Parameters
    ----------
    directory:
        The journal root; created on demand.  One collector per directory —
        stream ids map to file names, so two collectors sharing a directory
        would interleave incompatible streams.
    max_bytes:
        Per-stream compaction threshold: once a file outgrows this (or twice
        its size after the last rewrite, when larger), the collector rewrites
        it from the stream's retained window.
    sync:
        When true, fsync every append (host-crash durability at a heavy
        ingest cost); the default survives process kills only.
    metrics:
        :class:`~repro.obs.registry.MetricsRegistry` for the journal's
        counters; the owning collector passes its registry so one scrape
        covers ingest and persistence together.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        max_bytes: int = 4 * 1024 * 1024,
        sync: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.sync = bool(sync)
        self._writers: list[JournalWriter] = []

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._frames_written = self.metrics.counter(
            "journal_frames_written_total", help="frames appended to stream journals"
        )
        self._bytes_written = self.metrics.counter(
            "journal_bytes_written_total", help="bytes appended to stream journals"
        )
        self._compactions = self.metrics.counter(
            "journal_compactions_total", help="journal files rewritten from retained windows"
        )
        self._errors = self.metrics.counter(
            "journal_errors_total", help="journal write failures (writer disabled)"
        )
        self._replayed_streams = self.metrics.counter(
            "journal_replayed_streams_total", help="streams restored by replay"
        )
        self._replayed_records = self.metrics.counter(
            "journal_replayed_records_total", help="records restored by replay"
        )
        self._torn_tails = self.metrics.counter(
            "journal_torn_tails_total", help="journals with a truncated/corrupt tail discarded"
        )

    # -------------------------------------------------------------- #
    # Writers
    # -------------------------------------------------------------- #
    def path_for(self, stream_id: str) -> Path:
        """The journal file for ``stream_id`` (id percent-quoted, any id works)."""
        return self.directory / (quote(stream_id, safe="") + _SUFFIX)

    def writer(
        self, stream_id: str, hello: protocol.Hello, *, via_relay: bool = False
    ) -> JournalWriter:
        """Start a fresh journal for a newly registered stream (truncates)."""
        path = self.path_for(stream_id)
        file = open(path, "wb", buffering=0)
        writer = JournalWriter(self, path, file, 0)
        writer._write(_file_header(via_relay))
        writer.append_hello(hello)
        return writer

    def resume(self, replayed: ReplayedStream) -> JournalWriter:
        """Reopen a replayed stream's journal for appending.

        The file is truncated to its parseable prefix first, so a torn tail
        left by the previous process can never corrupt what follows.
        """
        file = open(replayed.path, "r+b", buffering=0)
        try:
            file.truncate(replayed.valid_bytes)
            file.seek(replayed.valid_bytes)
        except OSError:
            file.close()
            raise
        return JournalWriter(self, replayed.path, file, replayed.valid_bytes)

    def close(self) -> None:
        """Close every writer opened through this journal.  Idempotent."""
        for writer in self._writers:
            writer.close()
        self._writers.clear()

    def __enter__(self) -> "StreamJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- #
    # Replay
    # -------------------------------------------------------------- #
    def replay(self) -> list[ReplayedStream]:
        """Recover every stream journaled in the directory.

        Unreadable files and files without a single parseable HELLO are
        skipped (counted as torn tails); a valid prefix followed by garbage
        replays the prefix and records where appending may resume.  Streams
        come back sorted by id, so restart order is deterministic.
        """
        restored: list[ReplayedStream] = []
        for path in sorted(self.directory.glob(f"*{_SUFFIX}")):
            replayed = self._replay_file(path)
            if replayed is not None:
                restored.append(replayed)
                self._replayed_streams.inc()
                self._replayed_records.inc(int(replayed.records.shape[0]))
        return restored

    def _replay_file(self, path: Path) -> ReplayedStream | None:
        try:
            data = path.read_bytes()
            magic, version, flags, _reserved = _FILE_HEADER.unpack_from(data)
        except (OSError, struct.error):  # unreadable, or shorter than a header
            magic = None
        if magic != _FILE_MAGIC or version != _FILE_VERSION:
            self._torn_tails.inc()
            return None
        via_relay = bool(flags & _FLAG_VIA_RELAY)

        # Whatever stops the scan (torn write, corruption) ends the valid
        # prefix; replay never raises.
        items, end, error = protocol.scan_frames(data, _FILE_HEADER.size, runs=True)
        torn = error is not None or end != len(data)
        hello: protocol.Hello | None = None
        batches: list[np.ndarray] = []
        closed = False
        reported_total: int | None = None
        last_beat = -1
        valid = _FILE_HEADER.size
        for item in items:
            if isinstance(item, protocol.BatchRun):
                batches.append(item.records)
                last_beat = max(last_beat, int(item.records["beat"].max()))
                valid += item.frames * protocol.HEADER_SIZE + item.records.nbytes
                continue
            try:
                if item.type == protocol.FRAME_HELLO:
                    # A HELLO re-registers: it clears an earlier CLOSE, as live.
                    hello = protocol.decode_hello(item.payload)
                    closed, reported_total = False, None
                elif item.type == protocol.FRAME_TARGETS:
                    tmin, tmax = protocol.decode_targets(item.payload)
                    if hello is not None:
                        hello = replace(hello, target_min=tmin, target_max=tmax)
                elif item.type == protocol.FRAME_CLOSE:
                    closed = True
                    value = protocol.decode_close(item.payload)
                    reported_total = None if value < 0 else value
            except protocol.ProtocolError:
                torn = True  # well framed, but not a payload this module writes
                break
            valid += protocol.HEADER_SIZE + len(item.payload)
        if torn:
            self._torn_tails.inc()
        if hello is None:
            return None
        records = np.concatenate(batches) if batches else np.empty(0, dtype=RECORD_DTYPE)
        return ReplayedStream(
            stream_id=unquote(path.name[: -len(_SUFFIX)]),
            hello=hello,
            via_relay=via_relay,
            records=records,
            closed=closed,
            reported_total=reported_total,
            last_beat=last_beat,
            valid_bytes=valid,
            path=path,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamJournal({str(self.directory)!r}, max_bytes={self.max_bytes})"


def _hello_frame(hello: protocol.Hello) -> bytes:
    return protocol.encode_hello(
        hello.name,
        pid=hello.pid,
        nonce=hello.nonce,
        default_window=hello.default_window,
        capacity=hello.capacity,
        target_min=hello.target_min,
        target_max=hello.target_max,
    )


def _close_frame(reported_total: int | None) -> bytes:
    # Relay links can propagate a CLOSE whose origin total is unknown; the
    # journal encodes that as a negative count.
    return protocol.encode_close(-1 if reported_total is None else reported_total)


def _file_header(via_relay: bool) -> bytes:
    flags = _FLAG_VIA_RELAY if via_relay else 0
    return _FILE_HEADER.pack(_FILE_MAGIC, _FILE_VERSION, flags, 0)
