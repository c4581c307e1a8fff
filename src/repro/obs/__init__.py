"""Self-telemetry: metrics registry, per-hop tracing, and the live dashboard.

The paper's thesis is that applications should expose their own progress as
first-class telemetry; this package applies that thesis to the telemetry
system itself.  Three layers:

* :mod:`repro.obs.registry` — the shared :class:`MetricsRegistry` every
  subsystem registers its counters, gauges and latency histograms into;
* :mod:`repro.obs.tracing` — the :class:`FlightRecorder`, the one JSONL
  record format adaptation decisions, tuning runs and scenario drills are
  written in;
* :mod:`repro.obs.serve` — the stdlib-only HTTP/SSE server behind
  ``repro watch --serve`` and ``TelemetrySession.watch(serve=...)``.

>>> registry = MetricsRegistry()
>>> registry.counter("demo_total").inc()
>>> int(registry.counter("demo_total").value)
1
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_registries,
)

#: Tracing (and the dashboard server) import the adaptation layer, which
#: itself registers metrics — so those names load lazily (PEP 562) to keep
#: ``repro.obs.registry`` importable from anywhere in the dependency graph.
_LAZY = {
    "FlightRecorder": "repro.obs.tracing",
    "iter_traces": "repro.obs.tracing",
    "trace_from_dict": "repro.obs.tracing",
    "trace_to_dict": "repro.obs.tracing",
    "TelemetryServer": "repro.obs.serve",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "render_registries",
    "FlightRecorder",
    "iter_traces",
    "trace_from_dict",
    "trace_to_dict",
    "TelemetryServer",
]
