"""The flight recorder: decisions, tuning runs and drills as one JSONL format.

The engine's :class:`~repro.adapt.loop.DecisionTrace` records are the
reproduction's ground truth for *why* the fleet moved — every
observe-decide-act round, with the rate the controller saw and the actuator
value it landed on.  The tuner's evaluations and a scenario drill's events
are the same kind of evidence.  This module gives all three one durable,
analyzable form — one compact JSON object per line whose first key is
``"kind"``:

* :func:`trace_to_dict` / :func:`trace_from_dict` — a lossless
  ``kind="decision"`` shape (round-trips field for field, including the
  nested :class:`~repro.control.base.ControlDecision`);
* :class:`FlightRecorder` — writes ``kind``-first records to a path, an open
  stream or nowhere, keeps an optional bounded ring of recent records for
  live consumers (the SSE dashboard), and subscribes to an engine so each
  tick's decisions land in one flushed write;
* :func:`iter_traces` — read a JSONL file back into trace objects, skipping
  records of other kinds.

>>> from repro.adapt.loop import DecisionTrace
>>> from repro.control.base import ControlDecision
>>> trace = DecisionTrace(loop="svc", beat=3, observed_rate=8.5,
...                       decision=ControlDecision(delta=1), before=2.0, after=3.0)
>>> trace_from_dict(trace_to_dict(trace)) == trace
True
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import IO, TYPE_CHECKING, Any, Callable, Iterator, Union

from repro.adapt.loop import DecisionTrace
from repro.control.base import ControlDecision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adapt.engine import AdaptationEngine, EngineTick

__all__ = [
    "trace_to_dict",
    "trace_from_dict",
    "trace_to_json",
    "trace_from_json",
    "iter_traces",
    "FlightRecorder",
]


def trace_to_dict(trace: DecisionTrace, *, tick: int | None = None) -> dict[str, Any]:
    """One trace as a flat JSON-safe ``kind="decision"`` record.

    The nested :class:`~repro.control.base.ControlDecision` is flattened
    into ``delta`` / ``value`` keys; ``tick`` optionally stamps the engine
    tick the decision belongs to (``beat`` already carries the loop's own
    step index).
    """
    out: dict[str, Any] = {
        "kind": "decision",
        "loop": trace.loop,
        "beat": int(trace.beat),
        "observed_rate": float(trace.observed_rate),
        "delta": trace.decision.delta,
        "value": trace.decision.value,
        "before": float(trace.before),
        "after": float(trace.after),
    }
    if tick is not None:
        out["tick"] = int(tick)
    return out


def trace_from_dict(data: dict[str, Any]) -> DecisionTrace:
    """Rebuild a :class:`~repro.adapt.loop.DecisionTrace` from its dict form."""
    delta = data.get("delta")
    value = data.get("value")
    return DecisionTrace(
        loop=str(data["loop"]),
        beat=int(data["beat"]),
        observed_rate=float(data["observed_rate"]),
        decision=ControlDecision(
            delta=None if delta is None else int(delta),
            value=None if value is None else float(value),
        ),
        before=float(data["before"]),
        after=float(data["after"]),
    )


def _line(record: dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":"))


def trace_to_json(trace: DecisionTrace, *, tick: int | None = None) -> str:
    """One trace as a single JSON line (no trailing newline)."""
    return _line(trace_to_dict(trace, tick=tick))


def trace_from_json(line: str) -> DecisionTrace:
    """Parse one JSONL line back into a trace."""
    return trace_from_dict(json.loads(line))


def iter_traces(path: str) -> Iterator[DecisionTrace]:
    """Yield every decision in a JSONL file, skipping blank lines and other kinds."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                record = json.loads(line)
                if record.get("kind") == "decision":
                    yield trace_from_dict(record)


class FlightRecorder:
    """One JSONL record stream: engine decisions, tuning events, drill events.

    Every record is one compact JSON object per line with ``"kind"`` as its
    first key, and every call flushes once, so the file is a valid JSONL
    stream at any moment and a killed run loses nothing it wrote.

    Parameters
    ----------
    sink:
        A path (opened for writing and owned: :meth:`close` closes it), an
        open text stream (written to, never closed), or ``None`` for no
        output at all (the ring alone).
    ring:
        How many recent records to retain in memory for :meth:`recent`
        (the SSE dashboard's decision feed); ``None`` keeps none.

    >>> import io
    >>> buffer = io.StringIO()
    >>> recorder = FlightRecorder(buffer, ring=8)
    >>> recorder.write("evaluation", candidate=0, score=1.5)
    >>> buffer.getvalue()
    '{"kind":"evaluation","candidate":0,"score":1.5}\\n'
    >>> recorder.recent(0)
    []
    """

    def __init__(
        self,
        sink: Union[str, "os.PathLike[str]", IO[str], None] = None,
        *,
        ring: int | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._owns = False
        self._handle: IO[str] | None = None
        if sink is not None and hasattr(sink, "write"):
            self._handle = sink  # type: ignore[assignment]
        elif sink is not None:
            self._handle = open(os.fspath(sink), "w", encoding="utf-8")  # type: ignore[arg-type]
            self._owns = True
        self._ring: deque[dict[str, Any]] | None = None if ring is None else deque(maxlen=int(ring))
        self._written = 0
        self._unsubscribes: list[Callable[[], None]] = []

    @property
    def written(self) -> int:
        """Records written so far (sink lines plus ring-only records)."""
        with self._lock:
            return self._written

    def write(self, kind: str, **fields: Any) -> None:
        """Record one ``{"kind": kind, **fields}`` line and flush."""
        self._record([{"kind": kind, **fields}])

    def attach(self, engine: "AdaptationEngine") -> Callable[[], None]:
        """Subscribe to ``engine``; returns the unsubscribe callable."""
        unsubscribe = engine.subscribe(self.record_tick)
        self._unsubscribes.append(unsubscribe)
        return unsubscribe

    def record_tick(self, tick: "EngineTick") -> None:
        """Record one tick's decisions, stamped with its index, in one write."""
        if tick.traces:
            self._record([trace_to_dict(trace, tick=tick.index) for trace in tick.traces])

    def _record(self, records: list[dict[str, Any]]) -> None:
        with self._lock:
            if self._ring is not None:
                self._ring.extend(records)
            if self._handle is not None:
                self._handle.write("".join(_line(record) + "\n" for record in records))
                self._handle.flush()
            self._written += len(records)

    def recent(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The newest retained records, oldest first (at most ``limit``)."""
        with self._lock:
            rows = list(self._ring or ())
        return rows if limit is None else rows[max(len(rows) - int(limit), 0):]

    def close(self) -> None:
        """Unsubscribe from every engine and release the sink.  Idempotent.

        An owned file is closed; a caller's stream is only let go of.
        """
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None and self._owns:
            handle.close()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
