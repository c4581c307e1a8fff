"""Core Application Heartbeats framework.

This package is the paper's primary contribution: the heartbeat record and
history buffer, windowed heart-rate computation, the :class:`Heartbeat`
object API, the C-style functional API of Table 1, the storage backends
(memory / file / shared memory) and the external-observer
:class:`HeartbeatMonitor`.
"""

from repro.core.aggregator import FleetSample, FleetSummary, HeartbeatAggregator
from repro.core.api import (
    HB_current_rate,
    HB_finalize,
    HB_get_history,
    HB_get_target_max,
    HB_get_target_min,
    HB_global_rate,
    HB_heartbeat,
    HB_heartbeat_n,
    HB_initialize,
    HB_is_initialized,
    HB_set_target_rate,
)
from repro.core.backends import (
    Backend,
    BackendSnapshot,
    DeltaSnapshot,
    FileBackend,
    MemoryBackend,
    SharedMemoryBackend,
    SnapshotCursor,
)
from repro.core.errors import (
    BackendError,
    BackendFormatError,
    HeartbeatClosedError,
    HeartbeatError,
    HeartbeatStateError,
    InvalidTargetError,
    InvalidWindowError,
    MonitorAttachError,
    ProtocolError,
    RegistryError,
)
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HealthStatus, HeartbeatMonitor, MonitorReading
from repro.core.rate import (
    RateStatistics,
    global_rate,
    instantaneous_rate,
    moving_rate_series,
    rate_statistics,
    windowed_rate,
)
from repro.core.record import RECORD_DTYPE, HeartbeatRecord
from repro.core.registry import HeartbeatRegistry
from repro.core.stream import (
    SourceCapabilities,
    StreamSink,
    StreamSource,
    capabilities_of,
)
from repro.core.window import DEFAULT_WINDOW, MAX_WINDOW

__all__ = [
    # object API
    "Heartbeat",
    "HeartbeatMonitor",
    "MonitorReading",
    "HealthStatus",
    "HeartbeatAggregator",
    "FleetSample",
    "FleetSummary",
    "HeartbeatRegistry",
    "HeartbeatRecord",
    "RECORD_DTYPE",
    # functional API (Table 1)
    "HB_initialize",
    "HB_heartbeat",
    "HB_heartbeat_n",
    "HB_current_rate",
    "HB_set_target_rate",
    "HB_get_target_min",
    "HB_get_target_max",
    "HB_get_history",
    "HB_global_rate",
    "HB_finalize",
    "HB_is_initialized",
    # capability protocols
    "StreamSource",
    "StreamSink",
    "SourceCapabilities",
    "capabilities_of",
    # backends
    "Backend",
    "BackendSnapshot",
    "DeltaSnapshot",
    "SnapshotCursor",
    "MemoryBackend",
    "FileBackend",
    "SharedMemoryBackend",
    # rates
    "windowed_rate",
    "global_rate",
    "instantaneous_rate",
    "moving_rate_series",
    "rate_statistics",
    "RateStatistics",
    # windows
    "DEFAULT_WINDOW",
    "MAX_WINDOW",
    # errors
    "HeartbeatError",
    "HeartbeatStateError",
    "HeartbeatClosedError",
    "InvalidWindowError",
    "InvalidTargetError",
    "BackendError",
    "BackendFormatError",
    "ProtocolError",
    "MonitorAttachError",
    "RegistryError",
]
