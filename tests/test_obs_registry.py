"""The unified metrics registry: instrument semantics, identity, threading.

The registry is the layer every subsystem's ``stats()`` now reads through,
so these tests pin the contract those views depend on: get-or-create
identity, label normalisation, kind-mismatch rejection, quantile sanity and
counter correctness under concurrent writers — including a real threaded
:class:`~repro.adapt.engine.AdaptationEngine` driving its own counters.
"""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.adapt import AdaptationEngine, ControlLoop, FunctionActuator
from repro.clock import SimulatedClock
from repro.control import StepController, TargetWindow
from repro.core.aggregator import HeartbeatAggregator
from repro.core.heartbeat import Heartbeat
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, render_registries


class TestCounter:
    def test_increments_accumulate(self):
        counter = Counter("beats_total")
        counter.inc()
        counter.inc(4.0)
        assert counter.value == 5.0

    def test_negative_increment_rejected(self):
        counter = Counter("beats_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)
        assert counter.value == 0.0

    def test_concurrent_increments_never_lose_updates(self):
        counter = Counter("beats_total")
        threads = [
            threading.Thread(target=lambda: [counter.inc() for _ in range(2000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8 * 2000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(7.0)
        gauge.inc(2.0)
        gauge.dec()
        assert gauge.value == 8.0

    def test_live_gauge_reads_callable_at_scrape_time(self):
        backing = {"value": 1.0}
        gauge = Gauge("depth", fn=lambda: backing["value"])
        assert gauge.value == 1.0
        backing["value"] = 42.0
        assert gauge.value == 42.0

    def test_broken_callable_reads_nan_not_raise(self):
        def boom() -> float:
            raise RuntimeError("scrape-time failure")

        gauge = Gauge("depth", fn=boom)
        assert math.isnan(gauge.value)

    def test_set_clears_live_callable(self):
        gauge = Gauge("depth", fn=lambda: 99.0)
        gauge.set(3.0)
        assert gauge.value == 3.0


class TestHistogram:
    def test_count_sum_and_bounds(self):
        hist = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.02, 0.04, 0.06, 0.08):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(0.20)
        assert 0.02 <= hist.quantile(50.0) <= 0.08
        assert 0.02 <= hist.quantile(99.0) <= 0.08

    def test_quantiles_clamped_to_observed_range(self):
        hist = Histogram("lat", buckets=(1.0, 10.0))
        hist.observe(2.5)
        # A single observation: every quantile must be exactly it, not an
        # interpolated point elsewhere inside the (1.0, 10.0] bucket.
        assert hist.quantile(50.0) == 2.5
        assert hist.quantile(99.0) == 2.5

    def test_overflow_bucket_catches_values_above_every_bound(self):
        hist = Histogram("lat", buckets=(0.1,))
        hist.observe(5.0)
        assert hist.count == 1
        assert hist.quantile(99.0) == 5.0

    def test_non_finite_observations_ignored(self):
        hist = Histogram("lat", buckets=(1.0,))
        hist.observe(math.nan)
        hist.observe(math.inf)
        assert hist.count == 0
        assert math.isnan(hist.quantile(50.0))

    def test_empty_summary_is_nan_shaped(self):
        summary = Histogram("lat", buckets=(1.0,)).summary()
        assert summary["count"] == 0.0
        assert math.isnan(summary["p50"]) and math.isnan(summary["mean"])

    def test_summary_keys(self):
        hist = Histogram("lat", buckets=(1.0,))
        hist.observe(0.5)
        summary = hist.summary()
        assert set(summary) == {"count", "sum", "mean", "min", "max", "p50", "p99"}
        assert summary["mean"] == 0.5

    def test_out_of_range_quantile_rejected(self):
        hist = Histogram("lat", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.quantile(101.0)

    def test_rejects_empty_or_infinite_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(1.0, math.inf))


class TestRegistryIdentity:
    def test_same_name_and_labels_is_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("frames_total", labels={"peer": "edge-1"})
        b = registry.counter("frames_total", labels={"peer": "edge-1"})
        assert a is b

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", labels={"a": "1", "b": "2"})
        b = registry.counter("x_total", labels={"b": "2", "a": "1"})
        assert a is b

    def test_different_labels_are_different_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", labels={"peer": "a"})
        b = registry.counter("x_total", labels={"peer": "b"})
        assert a is not b
        a.inc()
        assert b.value == 0.0

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("x_total")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.histogram("x_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("1bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("fine_total", labels={"bad-label": "x"})

    def test_histogram_bucket_layout_fixed_by_first_creation(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat", buckets=(1.0, 2.0))
        again = registry.histogram("lat", buckets=(9.0,))
        assert again is first


class TestExposition:
    def test_as_dict_flattens_histograms(self):
        registry = MetricsRegistry()
        registry.counter("frames_total").inc(3)
        registry.gauge("depth").set(2.0)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        flat = registry.as_dict()
        assert flat["frames_total"] == 3.0
        assert flat["depth"] == 2.0
        assert flat["lat_count"] == 1.0
        assert flat["lat_sum"] == 0.5
        assert "lat_p50" in flat and "lat_p99" in flat

    def test_render_text_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("frames_total", help="ingested frames", labels={"peer": "e1"}).inc(3)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = registry.render_text()
        assert "# HELP frames_total ingested frames" in text
        assert "# TYPE frames_total counter" in text
        assert 'frames_total{peer="e1"} 3' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.5" in text
        assert "lat_count 1" in text

    def test_render_registries_merges_and_dedups_headers(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("frames_total", labels={"peer": "a"}).inc(1)
        second.counter("frames_total", labels={"peer": "b"}).inc(2)
        text = render_registries([first, second])
        assert text.count("# TYPE frames_total counter") == 1
        assert 'frames_total{peer="a"} 1' in text
        assert 'frames_total{peer="b"} 2' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels={"peer": 'a"b\\c'}).inc()
        assert 'peer="a\\"b\\\\c"' in registry.render_text()


class TestEngineCountersUnderThreadedDrive:
    """The engine's registry counters stay exact while ticked from a thread."""

    def test_threaded_engine_drive_matches_subscriber_tallies(self):
        clock = SimulatedClock()
        aggregator = HeartbeatAggregator(clock=clock, liveness_timeout=60.0)
        heartbeat = Heartbeat(window=8, clock=clock)
        heartbeat.set_target_rate(5.0, 10.0)
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

        engine = AdaptationEngine(aggregator, factory, min_beats=1, metrics=MetricsRegistry())
        aggregator.attach_stream("svc", heartbeat)
        seen = {"ticks": 0, "decisions": 0, "changes": 0}
        lock = threading.Lock()

        def listener(tick) -> None:
            with lock:
                seen["ticks"] += 1
                seen["decisions"] += tick.decisions
                seen["changes"] += tick.changes

        engine.subscribe(listener)
        try:
            engine.start(0.005)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                heartbeat.heartbeat_batch(3)
                clock.advance(0.5)
                with lock:
                    if seen["ticks"] >= 20 and seen["decisions"] > 0:
                        break
                time.sleep(0.005)
            engine.stop()
        finally:
            engine.close(close_aggregator=True)
        with lock:
            tallies = dict(seen)
        assert tallies["ticks"] >= 20
        assert tallies["decisions"] > 0
        flat = engine.metrics.as_dict()
        assert flat["engine_ticks_total"] == float(tallies["ticks"])
        assert flat["engine_decisions_total"] == float(tallies["decisions"])
        assert flat["engine_changes_total"] == float(tallies["changes"])
