"""Per-hop relay tracing and decision-trace JSONL export.

Three layers under test: the RELAY v2 hop-timestamp annotation at the wire
level (including v1 back-compat), the per-link latency histograms a root
collector derives from it over a real federation tree, and the
:class:`~repro.obs.tracing.FlightRecorder` JSONL round-trip, pinned field
for field.
"""

from __future__ import annotations

import json
import struct
from functools import partial

import numpy as np
import pytest
import waiting

from repro.adapt import AdaptationEngine, ControlLoop, FunctionActuator
from repro.clock import SimulatedClock
from repro.control import ControlDecision, StepController, TargetWindow
from repro.core.aggregator import HeartbeatAggregator
from repro.core.heartbeat import Heartbeat
from repro.core.record import RECORD_DTYPE
from repro.net import HeartbeatCollector, NetworkBackend, protocol
from repro.obs.tracing import (
    FlightRecorder,
    iter_traces,
    trace_from_dict,
    trace_from_json,
    trace_to_dict,
    trace_to_json,
)

try:
    from repro.adapt.loop import DecisionTrace
except ImportError:  # pragma: no cover
    DecisionTrace = None


wait_until = partial(waiting.wait_until, timeout=10.0, interval=0.02)


def records_for(beats: list[tuple[int, float]]) -> np.ndarray:
    out = np.empty(len(beats), dtype=RECORD_DTYPE)
    for i, (beat, ts) in enumerate(beats):
        out[i] = (beat, ts, 0, 1)
    return out


class TestRelayHopTimestampWire:
    """RELAY v2: the hop timestamp on the wire, and v1 back-compat."""

    def entry(self) -> protocol.RelayEntry:
        return protocol.RelayEntry(
            stream_id="svc", pid=7, nonce=3, records=records_for([(1, 0.1), (2, 0.2)])
        )

    def test_v2_round_trips_hop_timestamp_and_entries(self):
        payload = protocol.strip_header(
            protocol.encode_relay([self.entry()], hop_timestamp=12.5)
        )
        assert payload[0] == protocol.RELAY_VERSION == 2
        frame = protocol.decode_relay_frame(payload)
        assert frame.hop_timestamp == 12.5
        assert [e.stream_id for e in frame.entries] == ["svc"]
        assert frame.entries[0].records["beat"].tolist() == [1, 2]

    def test_unannotated_v2_frame_decodes_as_none(self):
        payload = protocol.strip_header(protocol.encode_relay([self.entry()]))
        assert protocol.decode_relay_frame(payload).hop_timestamp is None

    def test_v1_payload_is_rejected(self):
        # Rewrite a v2 payload into the 5-byte v1 header a pre-upgrade edge
        # would emit: same entries, no hop timestamp.  No edge of this tree
        # sends v1, so a receiver refuses it like any unknown version.
        v2 = protocol.strip_header(protocol.encode_relay([self.entry()]))
        version, itemsize, count, _stamp = struct.Struct("!BHHd").unpack_from(v2)
        assert version == 2
        v1 = struct.pack("!BHH", 1, itemsize, count) + v2[13:]
        with pytest.raises(protocol.ProtocolError, match="unsupported relay version 1"):
            protocol.decode_relay_frame(v1)
        with pytest.raises(protocol.ProtocolError, match="unsupported relay version 1"):
            protocol.decode_relay(struct.pack("!BHH", 1, itemsize, 0))  # shorter than a v2 header

    def test_future_relay_version_rejected(self):
        v2 = protocol.strip_header(protocol.encode_relay([self.entry()]))
        future = bytes([protocol.RELAY_VERSION + 1]) + v2[1:]
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_relay_frame(future)

    def test_entry_layout_unchanged_by_header_growth(self):
        # The v2 header grew 5 -> 13 bytes; entries themselves are frozen.
        assert protocol.relay_entry_size("svc", 2) == 122


class TestLinkLatencyOverRealTree:
    def test_root_observes_per_link_latency_from_edge(self):
        with HeartbeatCollector() as root:
            with HeartbeatCollector(upstream=root.endpoint) as edge:
                backend = NetworkBackend(
                    edge.address, stream="svc", flush_interval=0.01
                )
                try:
                    for beat in range(1, 21):
                        backend.append(beat, beat * 0.05, 0, 1)
                    assert wait_until(
                        lambda: root.stream_ids() == ["svc"]
                        and root.snapshot("svc").total_beats == 20
                    )
                    assert wait_until(lambda: bool(root.link_latencies()))
                finally:
                    backend.close()
                links = root.link_latencies()
                assert len(links) == 1
                (summary,) = links.values()
                assert summary["count"] >= 1
                # Loopback delivery: non-negative and well under a second.
                assert 0.0 <= summary["p50"] <= 1.0
                assert summary["p50"] <= summary["p99"] <= summary["max"]
        # The edge (a leaf receiver of producer frames) measured no links.
        assert edge.link_latencies() == {}


def make_trace(**overrides) -> "DecisionTrace":
    base = dict(
        loop="svc",
        beat=3,
        observed_rate=8.5,
        decision=ControlDecision(delta=1),
        before=2.0,
        after=3.0,
    )
    base.update(overrides)
    return DecisionTrace(**base)


class TestTraceRoundTrip:
    def test_dict_round_trip_field_for_field(self):
        trace = make_trace()
        data = trace_to_dict(trace, tick=9)
        rebuilt = trace_from_dict(data)
        assert rebuilt == trace
        assert rebuilt.loop == trace.loop
        assert rebuilt.beat == trace.beat
        assert rebuilt.observed_rate == trace.observed_rate
        assert rebuilt.decision.delta == trace.decision.delta
        assert rebuilt.decision.value == trace.decision.value
        assert rebuilt.before == trace.before
        assert rebuilt.after == trace.after
        assert data["tick"] == 9
        assert next(iter(data)) == "kind" and data["kind"] == "decision"

    def test_value_decision_round_trips(self):
        trace = make_trace(decision=ControlDecision(value=4.25))
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt == trace
        assert rebuilt.decision.delta is None
        assert rebuilt.decision.value == 4.25

    def test_json_line_round_trip(self):
        trace = make_trace()
        line = trace_to_json(trace, tick=2)
        assert "\n" not in line
        assert trace_from_json(line) == trace
        assert json.loads(line)["tick"] == 2
        assert line.startswith('{"kind":"decision",')

    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        traces = [make_trace(beat=i, after=float(i)) for i in range(5)]
        with open(path, "w", encoding="utf-8") as handle:
            for trace in traces:
                handle.write(trace_to_json(trace) + "\n\n")  # blank lines skipped
                handle.write('{"kind":"evaluation","score":1.0}\n')  # other kinds skipped
        assert list(iter_traces(str(path))) == traces


class TestDecisionTraceLog:
    """The engine-subscriber side of the :class:`FlightRecorder`."""

    def build_engine(self):
        clock = SimulatedClock()
        aggregator = HeartbeatAggregator(clock=clock, liveness_timeout=60.0)
        heartbeat = Heartbeat(window=8, clock=clock)
        speed = {"value": 2.0}

        def factory(name: str, reading: object) -> ControlLoop:
            return ControlLoop(
                None,
                StepController(TargetWindow(5.0, 10.0)),
                FunctionActuator(
                    lambda: speed["value"],
                    lambda v: speed.__setitem__("value", float(v)) or speed["value"],
                    bounds=(1.0, 64.0),
                ),
                name=name,
                warmup=0,
            )

        engine = AdaptationEngine(aggregator, factory, min_beats=1)
        aggregator.attach_stream("svc", heartbeat)
        return clock, heartbeat, engine

    def drive(self, clock, heartbeat, engine, ticks: int = 6) -> None:
        for _ in range(ticks):
            heartbeat.heartbeat_batch(3)
            clock.advance(0.5)
            engine.tick()

    def test_log_streams_engine_decisions_to_jsonl(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        clock, heartbeat, engine = self.build_engine()
        try:
            with FlightRecorder(str(path), ring=256) as log:
                log.attach(engine)
                self.drive(clock, heartbeat, engine)
                assert log.written > 0
                recent = log.recent()
        finally:
            engine.close(close_aggregator=True)
        replayed = list(iter_traces(str(path)))
        assert len(replayed) == len(recent)
        # Every replayed trace matches what the live ring saw, field for field.
        assert [trace_to_dict(t) for t in replayed] == [
            {k: v for k, v in row.items() if k != "tick"} for row in recent
        ]
        assert all("tick" in row and row["kind"] == "decision" for row in recent)
        assert all(line.startswith('{"kind":"decision",') for line in path.read_text().splitlines())

    def test_ring_bounds_recent_and_limit_slices(self):
        log = FlightRecorder(ring=4)
        clock, heartbeat, engine = self.build_engine()
        try:
            log.attach(engine)
            self.drive(clock, heartbeat, engine, ticks=10)
        finally:
            engine.close(close_aggregator=True)
        assert log.written >= 4
        assert len(log.recent()) == 4
        assert log.recent(limit=2) == log.recent()[-2:]
        assert log.recent(0) == []
        log.close()

    def test_close_detaches_from_engine(self, tmp_path):
        clock, heartbeat, engine = self.build_engine()
        log = FlightRecorder()
        try:
            log.attach(engine)
            self.drive(clock, heartbeat, engine, ticks=2)
            before = log.written
            assert before > 0
            log.close()
            self.drive(clock, heartbeat, engine, ticks=2)
            assert log.written == before
            log.close()  # idempotent
        finally:
            engine.close(close_aggregator=True)
