"""Heartbeat-driven external scheduler (paper Section 5.3, Figures 5–7).

The scheduler is the external observer of the paper's Figure 1(b): it reads
an application's heart rate and published target range through a
:class:`~repro.core.monitor.HeartbeatMonitor` and adjusts the number of cores
allocated to the application so the rate stays inside the target window while
using as few cores as possible.
"""

from repro.scheduler.allocator import AllocationChange, CoreAllocator
from repro.scheduler.dvfs import DVFSGovernor
from repro.scheduler.external import ExternalScheduler

__all__ = [
    "CoreAllocator",
    "AllocationChange",
    "ExternalScheduler",
    "DVFSGovernor",
]
