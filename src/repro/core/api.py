"""C-style functional API matching the paper's Table 1 verbatim.

Applications that want their instrumentation to read exactly like the paper
(and like the original C reference implementation) can use these free
functions.  They operate on a module-level :class:`HeartbeatRegistry` so the
whole process shares one global heartbeat plus one local heartbeat per
thread, selected by the ``local`` flag each function accepts — just as every
function in Table 1 takes a ``local[bool]`` argument.

Example
-------
>>> from repro.core import api as hb
>>> hb.HB_initialize(window=20)
>>> for _ in range(100):
...     ...  # do one unit of work
...     hb.HB_heartbeat()
>>> rate = hb.HB_current_rate()
>>> hb.HB_finalize()

The object-oriented API (:class:`repro.core.heartbeat.Heartbeat`) is the
primary interface for new code; this module is a faithful facade over it.
"""

from __future__ import annotations

import os
import threading

from repro.core.heartbeat import Heartbeat
from repro.core.record import HeartbeatRecord
from repro.core.registry import HeartbeatRegistry

__all__ = [
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
    "get_registry",
    "reset_registry",
]

_registry = HeartbeatRegistry()
_registry_lock = threading.Lock()


def get_registry() -> HeartbeatRegistry:
    """Return the process-wide registry backing the functional API."""
    return _registry


def reset_registry() -> None:
    """Finalise every registered heartbeat and start from a clean slate.

    Primarily used by the test-suite and by long-running hosts that embed
    several instrumented phases in one process.
    """
    global _registry
    with _registry_lock:
        _registry.finalize()
        _registry = HeartbeatRegistry()


def HB_initialize(
    window: int = 0,
    local: bool = False,
    endpoint: object | None = None,
    **kwargs: object,
) -> Heartbeat:
    """Initialise the heartbeat runtime (paper: ``HB_initialize``).

    ``window`` is the default number of heartbeats used to compute the
    average heart rate.  With ``local=True`` a per-thread heartbeat is
    created for the calling thread instead of the application-global one.
    Extra keyword arguments (``clock``, ``backend``, ``history``) are passed
    to :class:`~repro.core.heartbeat.Heartbeat`.

    ``endpoint`` names where the stream publishes, as a telemetry endpoint
    URL (see :mod:`repro.endpoints`): ``tcp://host:port`` ships batched
    heartbeats to a :class:`repro.net.HeartbeatCollector`,
    registered as ``"global-<pid>"`` (or ``"local-<pid>-<tid>"``) unless the
    URL carries ``?stream=`` or a ``stream=`` keyword is passed;
    ``file://``/``shm://`` endpoints publish for same-host cross-process
    observers.
    """
    if endpoint is not None:
        if "backend" in kwargs:
            raise ValueError("pass either endpoint= or backend=, not both")
        from dataclasses import replace

        from repro.endpoints import Endpoint

        ep = Endpoint.parse(endpoint)  # type: ignore[arg-type]
        kwargs = dict(kwargs)
        if ep.wire:
            if "stream" in kwargs and ep.stream is not None:
                raise ValueError(
                    "pass the stream name in the URL (?stream=) or as "
                    "stream=, not both"
                )
            if ep.stream is None:
                if local:
                    stream = f"local-{os.getpid()}-{threading.get_ident()}"
                else:
                    stream = f"global-{os.getpid()}"
                ep = replace(ep, stream=str(kwargs.pop("stream", stream)))
        elif "stream" in kwargs:
            raise ValueError(
                "stream= applies only to tcp:// endpoints; file/shm/mem "
                "endpoints are named in the URL itself"
            )
        # Heartbeat opens the endpoint itself (one layer owns URL → backend,
        # including mem:// history/window sizing).  The registry rejects
        # conflicting registrations *before* construction, and Heartbeat
        # validates its arguments before opening, so a rejected stream never
        # leaves an opened backend behind.
        kwargs["backend"] = ep
    if local:
        return _registry.initialize_local(window, **kwargs)
    return _registry.initialize(window, **kwargs)


def HB_heartbeat(tag: int = 0, local: bool = False) -> int:
    """Register a heartbeat to indicate progress (paper: ``HB_heartbeat``)."""
    return _registry.get(local).heartbeat(tag)


def HB_heartbeat_n(n: int, tag: int = 0, local: bool = False) -> int:
    """Register ``n`` heartbeats in one batched call.

    The batched counterpart of :func:`HB_heartbeat`: one lock acquisition and
    one vectorized buffer write ingest the whole batch, so instrumenting "one
    beat per work item" stays affordable even for very fine-grained items.
    Returns the sequence number of the first beat in the batch.
    """
    return _registry.get(local).heartbeat_batch(n, tag)


def HB_current_rate(window: int = 0, local: bool = False) -> float:
    """Average heart rate over the last ``window`` beats (paper: ``HB_current_rate``).

    ``window=0`` uses the default window given to :func:`HB_initialize`.
    """
    return _registry.get(local).current_rate(window)


def HB_set_target_rate(target_min: float, target_max: float, local: bool = False) -> None:
    """Publish the desired heart-rate range (paper: ``HB_set_target_rate``)."""
    _registry.get(local).set_target_rate(target_min, target_max)


def HB_get_target_min(local: bool = False) -> float:
    """Minimum target heart rate (paper: ``HB_get_target_min``)."""
    return _registry.get(local).target_min


def HB_get_target_max(local: bool = False) -> float:
    """Maximum target heart rate (paper: ``HB_get_target_max``)."""
    return _registry.get(local).target_max


def HB_get_history(n: int | None = None, local: bool = False) -> list[HeartbeatRecord]:
    """Timestamp, tag and thread ID of the last ``n`` beats (paper: ``HB_get_history``)."""
    return _registry.get(local).get_history(n)


def HB_global_rate(local: bool = False) -> float:
    """Whole-execution average heart rate (the metric of the paper's Table 2)."""
    return _registry.get(local).global_heart_rate()


def HB_is_initialized(local: bool = False) -> bool:
    """True when the requested heartbeat stream has been initialised."""
    if local:
        return _registry.has_local()
    return _registry.has_global


def HB_finalize(local: bool = False) -> None:
    """Finalise the heartbeat runtime.

    With ``local=True`` only the calling thread's local heartbeat is
    finalised; otherwise the global heartbeat *and* all local heartbeats are
    finalised (end-of-application semantics).
    """
    if local:
        _registry.finalize_local()
    else:
        _registry.finalize()
