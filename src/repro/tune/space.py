"""Declarative parameter spaces and the controller tunable registry.

A :class:`Param` describes one searchable knob — bounds, optional log scale,
optional integrality — and maps between its native range and the unit cube
the optimizer works in.  A :class:`ParamSpace` bundles several params.

Every controller kind in :data:`repro.adapt.spec._CONTROLLER_KINDS` registers
its tunable parameters here (the contract test in ``tests/test_control.py``
enforces coverage), so any spec rule that declares ``tune = true`` yields a
search space via :func:`spec_space` without further configuration:

>>> from repro.tune.space import controller_tunables
>>> [p.name for p in controller_tunables("proportional")]
['gain', 'max_step']
>>> p = controller_tunables("proportional")[0]
>>> (p.low, p.high, p.log)
(0.05, 32.0, True)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.adapt.spec import _CONTROLLER_KINDS, AdaptSpec, SpecError

__all__ = [
    "Param",
    "ParamSpace",
    "TuneError",
    "controller_tunables",
    "register_tunables",
    "spec_space",
    "apply_values",
    "KIND_BY_CONTROLLER",
]


class TuneError(ValueError):
    """A tuning request is malformed (no tunables, bad bounds, ...)."""


@dataclass(frozen=True, slots=True)
class Param:
    """One searchable scalar: bounds, scale, and integrality.

    >>> gain = Param("gain", 0.05, 32.0, default=1.0, log=True)
    >>> round(gain.from_unit(gain.to_unit(4.0)), 6)
    4.0
    >>> steps = Param("max_step", 1, 16, default=4, integer=True)
    >>> steps.from_unit(0.0), steps.from_unit(1.0)
    (1, 16)
    """

    name: str
    low: float
    high: float
    default: float
    log: bool = False
    integer: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise TuneError("param needs a name")
        if not (self.low < self.high):
            raise TuneError(f"param {self.name!r}: need low < high, got [{self.low}, {self.high}]")
        if self.log and self.low <= 0:
            raise TuneError(f"param {self.name!r}: log scale needs low > 0, got {self.low}")
        if not (self.low <= self.default <= self.high):
            raise TuneError(
                f"param {self.name!r}: default {self.default} outside [{self.low}, {self.high}]"
            )

    def to_unit(self, value: float) -> float:
        """Map a native value into [0, 1] (clipping to the bounds)."""
        value = min(max(float(value), self.low), self.high)
        if self.log:
            return (math.log(value) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        return (value - self.low) / (self.high - self.low)

    def from_unit(self, unit: float) -> float | int:
        """Map a [0, 1] coordinate back to a native (possibly integer) value."""
        unit = min(max(float(unit), 0.0), 1.0)
        if self.log:
            value = math.exp(
                math.log(self.low) + unit * (math.log(self.high) - math.log(self.low))
            )
        else:
            value = self.low + unit * (self.high - self.low)
        if self.integer:
            return int(min(max(round(value), self.low), self.high))
        return value

    def clamped_default(self, value: Any | None) -> "Param":
        """This param with its default replaced by ``value`` clamped in-bounds."""
        if value is None:
            return self
        try:
            clamped = min(max(float(value), self.low), self.high)
        except (TypeError, ValueError):
            return self
        return replace(self, default=clamped)


@dataclass(frozen=True)
class ParamSpace:
    """An ordered bundle of :class:`Param` defining one search space.

    >>> space = ParamSpace([
    ...     Param("gain", 0.05, 32.0, default=1.0, log=True),
    ...     Param("max_step", 1, 16, default=4, integer=True),
    ... ])
    >>> space.dimension
    2
    >>> decoded = space.decode(space.initial())
    >>> (round(decoded["gain"], 6), decoded["max_step"])
    (1.0, 4)
    """

    params: tuple[Param, ...] = field(default_factory=tuple)

    def __init__(self, params: Sequence[Param]) -> None:
        object.__setattr__(self, "params", tuple(params))
        if not self.params:
            raise TuneError("a parameter space needs at least one param")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise TuneError(f"duplicate param names in space: {names}")

    @property
    def dimension(self) -> int:
        return len(self.params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def initial(self) -> np.ndarray:
        """The defaults as a unit-cube vector (the search start point)."""
        return np.array([p.to_unit(p.default) for p in self.params], dtype=np.float64)

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Clip a genotype vector into the unit cube."""
        return np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)

    def decode(self, x: np.ndarray) -> dict[str, float | int]:
        """Unit-cube vector → named native values."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise TuneError(f"expected shape ({self.dimension},), got {x.shape}")
        return {p.name: p.from_unit(float(u)) for p, u in zip(self.params, x)}

    def encode(self, values: Mapping[str, Any]) -> np.ndarray:
        """Named native values → unit-cube vector (missing keys use defaults)."""
        return np.array(
            [p.to_unit(float(values.get(p.name, p.default))) for p in self.params],
            dtype=np.float64,
        )


# --------------------------------------------------------------------- #
# Controller tunable registry
# --------------------------------------------------------------------- #

#: Builds the tunables for one controller kind given the rule's own options
#: (ladder needs ``levels`` to bound ``initial_level``).
TunableFactory = Callable[[Mapping[str, Any]], tuple[Param, ...]]

_TUNABLES: dict[str, TunableFactory] = {}


def register_tunables(kind: str, factory: TunableFactory) -> None:
    """Register (or override) the tunable metadata for a controller kind."""
    _TUNABLES[str(kind)] = factory


def controller_tunables(
    kind: str, options: Mapping[str, Any] | None = None
) -> tuple[Param, ...]:
    """The searchable parameters of controller ``kind``.

    ``options`` is the spec rule's ``controller_options``; it both
    parameterizes bounds (ladder rung count) and seeds defaults so the
    search starts from the hand-written values.
    """
    if kind not in _TUNABLES:
        raise TuneError(
            f"no tunables registered for controller kind {kind!r}; known: {sorted(_TUNABLES)}"
        )
    options = options or {}
    return tuple(p.clamped_default(options.get(p.name)) for p in _TUNABLES[kind](options))


def _step_tunables(options: Mapping[str, Any]) -> tuple[Param, ...]:
    return (Param("step", 1, 16, default=1, integer=True),)


def _proportional_tunables(options: Mapping[str, Any]) -> tuple[Param, ...]:
    return (
        Param("gain", 0.05, 32.0, default=1.0, log=True),
        Param("max_step", 1, 16, default=4, integer=True),
    )


def _pid_tunables(options: Mapping[str, Any]) -> tuple[Param, ...]:
    return (
        Param("kp", 1e-3, 64.0, default=1.0, log=True),
        Param("ki", 1e-4, 16.0, default=0.2, log=True),
        Param("kd", 0.0, 8.0, default=0.0),
    )


def _ladder_tunables(options: Mapping[str, Any]) -> tuple[Param, ...]:
    params = [Param("climb_margin", 0.0, 2.0, default=0.25)]
    levels = int(options.get("levels", 0))
    if levels >= 2:
        params.append(Param("initial_level", 0, levels - 1, default=0, integer=True))
    return tuple(params)


register_tunables("step", _step_tunables)
register_tunables("proportional", _proportional_tunables)
register_tunables("pid", _pid_tunables)
register_tunables("ladder", _ladder_tunables)

#: Controller class name → spec kind, for the contract test to pivot on.
KIND_BY_CONTROLLER: dict[str, str] = {
    "StepController": "step",
    "ProportionalStepController": "proportional",
    "PIDController": "pid",
    "LadderController": "ladder",
}

assert set(_TUNABLES) == set(_CONTROLLER_KINDS), "tunable registry drifted from spec kinds"


# --------------------------------------------------------------------- #
# Spec-level spaces
# --------------------------------------------------------------------- #

def _qualified(index: int, name: str) -> str:
    return f"loops[{index}].{name}"


def spec_space(spec: AdaptSpec) -> ParamSpace:
    """The joint search space over every ``tune = true`` rule in ``spec``.

    Param names are qualified as ``loops[<index>].<option>`` so
    :func:`apply_values` can route tuned values back to their rules.
    Defaults come from each rule's own ``controller_options`` (clamped
    in-bounds), so the search starts at the hand-written spec.
    """
    params: list[Param] = []
    for index, rule in enumerate(spec.loops):
        if not rule.tune:
            continue
        for param in controller_tunables(rule.controller, rule.controller_options):
            params.append(replace(param, name=_qualified(index, param.name)))
    if not params:
        raise TuneError("spec has no rules with tune = true; nothing to search")
    return ParamSpace(params)


def apply_values(spec: AdaptSpec, values: Mapping[str, float | int]) -> AdaptSpec:
    """A copy of ``spec`` with tuned controller options substituted.

    ``values`` uses the qualified names produced by :func:`spec_space`.
    """
    updates: dict[int, dict[str, float | int]] = {}
    for name, value in values.items():
        if not (name.startswith("loops[") and "]." in name):
            raise TuneError(f"unqualified tuned value {name!r}; expected 'loops[i].option'")
        index_text, option = name[len("loops["):].split("].", 1)
        try:
            index = int(index_text)
            rule = spec.loops[index]
        except (ValueError, IndexError) as exc:
            raise TuneError(f"tuned value {name!r} names no rule in the spec") from exc
        if not rule.tune:
            raise TuneError(f"tuned value {name!r} targets a rule without tune = true")
        updates.setdefault(index, {})[option] = value
    loops = []
    for index, rule in enumerate(spec.loops):
        if index in updates:
            options = dict(rule.controller_options)
            options.update(updates[index])
            rule = replace(rule, controller_options=options)
        loops.append(rule)
    try:
        return AdaptSpec(
            loops,
            window=spec.window,
            liveness_timeout=spec.liveness_timeout,
            interval=spec.interval,
            min_beats=spec.min_beats,
            attach=spec.attach,
        )
    except SpecError as exc:  # pragma: no cover - registry bounds keep options valid
        raise TuneError(f"tuned values produced an invalid spec: {exc}") from exc
