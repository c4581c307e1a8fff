"""repro — reproduction of *Application Heartbeats for Software Performance and Health*.

The package reproduces Hoffmann et al.'s Application Heartbeats framework
(MIT CSAIL, PPoPP 2010) and every substrate its evaluation depends on:

* :mod:`repro.core` — the Heartbeats API (Table 1), history buffers, rates,
  storage backends and the external-observer monitor;
* :mod:`repro.clock` — wall-clock and simulated time sources;
* :mod:`repro.sim` — a deterministic simulated multicore machine;
* :mod:`repro.workloads` — PARSEC-like instrumented workloads (Table 2);
* :mod:`repro.encoder` — an adaptive H.264-like video encoder (Figures 3, 4, 8);
* :mod:`repro.control` — controllers shared by internal and external adaptation;
* :mod:`repro.adapt` — the unified adaptation runtime: the Actuator
  protocol, ControlLoop, the fleet-scale AdaptationEngine and declarative
  AdaptSpec builders (the ``repro adapt`` CLI);
* :mod:`repro.scheduler` — the heartbeat-driven external core scheduler (Figures 5–7);
* :mod:`repro.faults` — core-failure injection (Figure 8);
* :mod:`repro.cloud` — heartbeat-driven cluster management (Section 2.6);
* :mod:`repro.net` — networked telemetry: wire protocol, TCP exporter
  backend and collector server for cross-machine fleet observation;
* :mod:`repro.analysis` / :mod:`repro.experiments` — traces, tables and the
  per-figure regeneration harness.

Quickstart
----------
>>> from repro import Heartbeat
>>> hb = Heartbeat(window=20)
>>> hb.set_target_rate(25.0, 35.0)
>>> for frame in range(100):
...     ...  # encode one frame
...     hb.heartbeat(tag=frame)
>>> hb.current_rate()  # beats per second over the last 20 beats
"""

from repro._version import __version__
from repro.endpoints import (
    Endpoint,
    EndpointError,
    FileEndpoint,
    MemEndpoint,
    ShmEndpoint,
    TcpEndpoint,
    open_backend,
    open_collector,
    open_sink,
    open_source,
)
from repro.session import TelemetrySession
from repro.adapt import (
    AdaptationEngine,
    AdaptSpec,
    Actuator,
    ControlLoop,
    DecisionTrace,
)
from repro.clock import Clock, ManualClock, SimulatedClock, WallClock
from repro.core import (
    DEFAULT_WINDOW,
    DeltaSnapshot,
    FileBackend,
    FleetSample,
    FleetSummary,
    HealthStatus,
    Heartbeat,
    HeartbeatAggregator,
    HeartbeatError,
    HeartbeatMonitor,
    HeartbeatRecord,
    MemoryBackend,
    MonitorReading,
    SharedMemoryBackend,
    SnapshotCursor,
    SourceCapabilities,
    StreamSink,
    StreamSource,
    capabilities_of,
    moving_rate_series,
    windowed_rate,
)
from repro.net import HeartbeatCollector, NetworkBackend

__all__ = [
    "__version__",
    "TelemetrySession",
    "Endpoint",
    "MemEndpoint",
    "FileEndpoint",
    "ShmEndpoint",
    "TcpEndpoint",
    "EndpointError",
    "open_backend",
    "open_source",
    "open_sink",
    "open_collector",
    "StreamSource",
    "StreamSink",
    "SourceCapabilities",
    "capabilities_of",
    "Heartbeat",
    "HeartbeatMonitor",
    "MonitorReading",
    "HealthStatus",
    "HeartbeatAggregator",
    "FleetSample",
    "FleetSummary",
    "HeartbeatRecord",
    "HeartbeatError",
    "MemoryBackend",
    "FileBackend",
    "SharedMemoryBackend",
    "DeltaSnapshot",
    "SnapshotCursor",
    "NetworkBackend",
    "HeartbeatCollector",
    "Clock",
    "WallClock",
    "SimulatedClock",
    "ManualClock",
    "windowed_rate",
    "moving_rate_series",
    "DEFAULT_WINDOW",
    "Actuator",
    "ControlLoop",
    "DecisionTrace",
    "AdaptationEngine",
    "AdaptSpec",
]
