"""The internally adaptive encoder (paper Section 5.2).

:class:`AdaptiveEncoder` is the reproduction of the paper's Heartbeat-enabled
x264: it registers a heartbeat after every encoded frame, checks its own
heart rate every ``check_interval`` frames, and when the rate is below target
it walks down the preset ladder — trading PSNR for speed — until the target
is met (and can climb back up when there is comfortable headroom).

The encoder is agnostic to how time passes:

* in **wall-clock mode** (no ``work_rate``) the heartbeat clock measures real
  elapsed time around the real encoding work;
* in **simulated mode** a ``work_rate`` (encoder work units the platform can
  retire per simulated second) is supplied and the encoder advances its
  heartbeat's :class:`~repro.clock.SimulatedClock` by ``work / work_rate``
  after each frame.  The fault-tolerance experiment (Figure 8) changes
  ``work_rate`` mid-run to model cores failing underneath the encoder — the
  encoder never learns *why* it slowed down, only that its heart rate
  dropped, exactly as the paper argues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.adapt.actuator import LadderActuator
from repro.adapt.loop import ControlLoop
from repro.clock import SimulatedClock
from repro.control import LadderController, TargetWindow
from repro.core.heartbeat import Heartbeat
from repro.encoder.encoder import BlockEncoder, FrameResult
from repro.encoder.frames import SyntheticVideoSource
from repro.encoder.settings import PRESET_LADDER, preset

__all__ = ["AdaptiveFrameRecord", "AdaptiveEncoder"]


@dataclass(frozen=True, slots=True)
class AdaptiveFrameRecord:
    """Per-frame record of an adaptive encoding run."""

    frame_index: int
    level: int
    heart_rate: float
    psnr: float
    bits: float
    work: float
    timestamp: float
    adapted: bool


class AdaptiveEncoder:
    """Heartbeat-driven self-adapting encoder.

    Parameters
    ----------
    source:
        Video source supplying frames by index.
    heartbeat:
        Heartbeat stream the encoder registers its per-frame beats on.  Its
        target range is set from ``target_min``/``target_max``.
    target_min, target_max:
        Desired heart-rate window in beats (frames) per second.  The paper's
        experiment uses "at least 30", i.e. an unbounded maximum.
    check_interval:
        Frames between self-checks (the paper checks every 40 frames) — also
        the rate window used for the check.
    initial_level:
        Starting preset-ladder level (0 = the demanding Main-profile-like
        configuration).
    work_rate:
        Encoder work units per simulated second available to the encoder;
        enables simulated-time mode (see module docstring).  ``None`` leaves
        timing to the wall clock.
    adaptive:
        When False the encoder never changes level — this is the
        "unmodified x264" baseline used by Figures 4 and 8.
    """

    def __init__(
        self,
        source: SyntheticVideoSource,
        heartbeat: Heartbeat,
        *,
        target_min: float = 30.0,
        target_max: float = math.inf,
        check_interval: int = 40,
        initial_level: int = 0,
        work_rate: float | None = None,
        adaptive: bool = True,
        block_size: int = 8,
    ) -> None:
        if check_interval < 1:
            raise ValueError(f"check_interval must be >= 1, got {check_interval}")
        if work_rate is not None and work_rate <= 0:
            raise ValueError(f"work_rate must be positive, got {work_rate}")
        self.source = source
        self.heartbeat = heartbeat
        self.encoder = BlockEncoder(
            width=source.width,
            height=source.height,
            block_size=block_size,
            settings=preset(initial_level),
        )
        self.controller = LadderController(
            TargetWindow(target_min, target_max),
            levels=len(PRESET_LADDER),
            initial_level=initial_level,
        )
        self.check_interval = int(check_interval)
        #: The unified adaptation loop: heartbeat source → ladder controller
        #: → preset actuator.  The encoder is the paper's *internal* adapter,
        #: so the loop's source is its own heartbeat, windowed to the check
        #: interval exactly like the legacy self-check.
        self.loop = ControlLoop(
            lambda window=None: self.heartbeat.current_rate(self.check_interval),
            self.controller,
            LadderActuator(
                levels=len(PRESET_LADDER),
                initial_level=initial_level,
                on_change=self._apply_level,
            ),
            name="adaptive-encoder",
            decision_interval=self.check_interval,
        )
        self.work_rate = float(work_rate) if work_rate is not None else None
        self.adaptive = bool(adaptive)
        self.records: list[AdaptiveFrameRecord] = []
        finite_max = target_max if math.isfinite(target_max) else max(4.0 * target_min, 1.0)
        heartbeat.set_target_rate(target_min, finite_max)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def level(self) -> int:
        """Current preset-ladder level."""
        return self.controller.level

    @property
    def frames_encoded(self) -> int:
        return self.encoder.frames_encoded

    def _apply_level(self, level: int) -> None:
        """Actuator hook: swap the encoder onto the new preset level."""
        self.encoder.settings = preset(level)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode_next(self) -> AdaptiveFrameRecord:
        """Encode the next frame, register its heartbeat, maybe adapt."""
        index = self.encoder.frames_encoded
        frame = self.source.frame(index)
        result: FrameResult = self.encoder.encode_frame(frame)
        self._account_time(result.work)
        self.heartbeat.heartbeat(tag=index)
        adapted = False
        if self.adaptive:
            trace = self.loop.step(index)
            adapted = trace is not None and not trace.decision.is_noop
        record = AdaptiveFrameRecord(
            frame_index=index,
            level=self.controller.level,
            heart_rate=self.heartbeat.current_rate(),
            psnr=result.psnr,
            bits=result.bits,
            work=result.work,
            timestamp=self.heartbeat.last_timestamp() or 0.0,
            adapted=adapted,
        )
        self.records.append(record)
        return record

    def encode(self, frames: int) -> list[AdaptiveFrameRecord]:
        """Encode ``frames`` frames and return their records."""
        if frames < 0:
            raise ValueError(f"frames must be >= 0, got {frames}")
        return [self.encode_next() for _ in range(frames)]

    def set_work_rate(self, work_rate: float) -> None:
        """Change the platform capacity (simulated-time mode only).

        Used by the fault injector: fewer healthy cores means fewer work
        units retired per second.
        """
        if work_rate <= 0:
            raise ValueError(f"work_rate must be positive, got {work_rate}")
        if self.work_rate is None:
            raise ValueError("work_rate can only be changed in simulated-time mode")
        self.work_rate = float(work_rate)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _account_time(self, work: float) -> None:
        if self.work_rate is None:
            return
        clock = self.heartbeat.clock
        if not isinstance(clock, SimulatedClock):
            raise TypeError(
                "simulated-time mode requires the heartbeat to use a SimulatedClock"
            )
        clock.advance(work / self.work_rate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdaptiveEncoder(level={self.level}, frames={self.frames_encoded}, "
            f"adaptive={self.adaptive})"
        )
