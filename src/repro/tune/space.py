"""Declarative parameter spaces over the controllers' own search ranges.

A :class:`Param` describes one searchable knob — bounds, optional log scale,
optional integrality — and maps between its native range and the unit cube
the optimizer works in.  A :class:`ParamSpace` bundles several params.

Every controller kind in :data:`repro.control.CONTROLLER_KINDS` declares
its searchable keywords' ranges on its class (``search_ranges``), and its
constructor's defaults start the search, so any spec rule that declares
``tune = true`` yields a search space via :func:`spec_space`:

>>> from repro.tune.space import controller_tunables
>>> [p.name for p in controller_tunables("proportional")]
['gain', 'max_step']
>>> p = controller_tunables("proportional")[0]
>>> (p.low, p.high, p.log)
(0.05, 32.0, True)
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.adapt.spec import AdaptSpec, SpecError
from repro.control import CONTROLLER_KINDS

__all__ = [
    "Param",
    "ParamSpace",
    "TuneError",
    "controller_tunables",
    "spec_space",
    "apply_values",
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
# Controller tunables
# --------------------------------------------------------------------- #

def controller_tunables(
    kind: str, options: Mapping[str, Any] | None = None
) -> tuple[Param, ...]:
    """The searchable parameters of controller ``kind``.

    Ranges come from the kind's class, defaults from its constructor.
    ``options`` is the spec rule's ``controller_options``; it both
    parameterizes bounds (ladder rung count) and seeds defaults so the
    search starts from the hand-written values.
    """
    if kind not in CONTROLLER_KINDS:
        raise TuneError(f"unknown controller kind {kind!r}; known: {sorted(CONTROLLER_KINDS)}")
    options = options or {}
    cls = CONTROLLER_KINDS[kind]
    keywords = inspect.signature(cls).parameters
    params = []
    for name, (low, high, log) in cls.ranges_for(options).items():
        default = keywords[name].default
        param = Param(name, low, high, default, log=log, integer=type(default) is int)
        params.append(param.clamped_default(options.get(name)))
    return tuple(params)


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
    try:
        return replace(spec, loops=[
            replace(rule, controller_options={**rule.controller_options, **updates[index]})
            if index in updates else rule
            for index, rule in enumerate(spec.loops)
        ])
    except SpecError as exc:  # e.g. a value for an option the kind does not take
        raise TuneError(f"tuned values produced an invalid spec: {exc}") from exc
