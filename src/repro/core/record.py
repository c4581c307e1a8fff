"""Heartbeat records.

The paper specifies that every heartbeat is automatically stamped with the
current time and the thread ID of the caller, plus an optional user tag
(Section 3).  :class:`HeartbeatRecord` is the in-memory representation; the
module also defines the numpy structured dtype used by the circular history
buffer and the shared-memory backend so that the on-disk / in-shared-memory
layout is identical everywhere ("a standard must be established specifying the
components and layout of the heartbeat data structures in memory").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "HeartbeatRecord",
    "RECORD_DTYPE",
    "RECORD_STRUCT",
    "pack_record",
    "records_to_array",
    "array_to_records",
    "iter_intervals",
]


#: Binary layout of a single heartbeat record.  ``beat`` is the global beat
#: sequence number (0-based), ``timestamp`` the stamping time in seconds,
#: ``tag`` the user supplied integer tag, and ``thread_id`` the producing
#: thread identifier.  64-bit fields keep the layout simple and aligned.
RECORD_DTYPE = np.dtype(
    [
        ("beat", np.int64),
        ("timestamp", np.float64),
        ("tag", np.int64),
        ("thread_id", np.int64),
    ]
)

#: The same layout for writers that pack one record straight into a mapped
#: buffer (``RECORD_STRUCT.pack_into(buf, offset, beat, timestamp, tag, tid)``).
RECORD_STRUCT = struct.Struct("<qdqq")
assert RECORD_STRUCT.size == RECORD_DTYPE.itemsize


def pack_record(beat: int, timestamp: float, tag: int, thread_id: int) -> bytes:
    """One record's bytes, or ``OverflowError`` when a value does not fit its field.

    The check a writer runs on values from outside before it stores any of
    them: the ring's precondition (:mod:`repro.core.backends.ring`).
    """
    try:
        return RECORD_STRUCT.pack(beat, timestamp, tag, thread_id)
    except struct.error as exc:
        raise OverflowError(
            f"heartbeat record {(beat, timestamp, tag, thread_id)} does not fit: {exc}"
        ) from None


@dataclass(frozen=True, slots=True)
class HeartbeatRecord:
    """A single heartbeat event.

    Attributes
    ----------
    beat:
        Zero-based sequence number of this heartbeat within its buffer.
    timestamp:
        Time at which the heartbeat was registered, in seconds, according to
        the owning :class:`repro.clock.Clock`.
    tag:
        User supplied integer tag (frame type, sequence number, ...).  The
        default tag is ``0``.
    thread_id:
        Identifier of the thread (or simulated process) that registered the
        beat.
    """

    beat: int
    timestamp: float
    tag: int = 0
    thread_id: int = 0

    def interval_since(self, previous: "HeartbeatRecord") -> float:
        """Return the time elapsed since ``previous`` (may be zero).

        Raises ``ValueError`` when ``previous`` was stamped after this record,
        which would indicate buffer corruption or mixed clocks.
        """
        delta = self.timestamp - previous.timestamp
        if delta < 0:
            raise ValueError(
                "heartbeat records out of order: "
                f"{previous.timestamp!r} followed by {self.timestamp!r}"
            )
        return delta

    def as_tuple(self) -> tuple[int, float, int, int]:
        """Return ``(beat, timestamp, tag, thread_id)``."""
        return (self.beat, self.timestamp, self.tag, self.thread_id)


def records_to_array(records: Sequence[HeartbeatRecord] | Iterable[HeartbeatRecord]) -> np.ndarray:
    """Pack records into a structured array with :data:`RECORD_DTYPE`."""
    items = list(records)
    out = np.empty(len(items), dtype=RECORD_DTYPE)
    for i, rec in enumerate(items):
        out[i] = (rec.beat, rec.timestamp, rec.tag, rec.thread_id)
    return out


def array_to_records(array: np.ndarray) -> list[HeartbeatRecord]:
    """Unpack a structured array (see :data:`RECORD_DTYPE`) into records."""
    if array.dtype != RECORD_DTYPE:
        raise ValueError(f"expected dtype {RECORD_DTYPE}, got {array.dtype}")
    return [
        HeartbeatRecord(
            beat=int(row["beat"]),
            timestamp=float(row["timestamp"]),
            tag=int(row["tag"]),
            thread_id=int(row["thread_id"]),
        )
        for row in array
    ]


def iter_intervals(records: Sequence[HeartbeatRecord]) -> Iterator[float]:
    """Yield successive inter-beat intervals for ``records`` (in order)."""
    for prev, cur in zip(records, records[1:]):
        yield cur.interval_since(prev)
