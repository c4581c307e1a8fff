"""Declarative adaptation specs: dict/TOML/JSON → :class:`AdaptationEngine`.

A spec names *what* to adapt — which streams (glob patterns over stream
names), towards which target window, with which controller, through which
actuator — and :meth:`AdaptSpec.build_engine` assembles the runtime.  New
scenarios (a fleet-wide DVFS sweep, encoder ladder + core allocation
co-adaptation) become a few lines of data instead of a bespoke
observe-and-act class:

.. code-block:: toml

    [engine]
    liveness_timeout = 5.0
    attach = ["tcp://0.0.0.0:7717", "shm://svc", "file:///var/log/enc.hblog"]

    [[loops]]
    match = "svc-*"
    target = "published"                # the window each app publishes
    controller = { kind = "step" }
    actuator = "cores"

    [[loops]]
    match = "enc-*"
    target = [28.0, 1e9]
    controller = { kind = "ladder", levels = 5 }
    actuator = "preset"

``attach`` names the observed streams by telemetry endpoint URL (see
:mod:`repro.endpoints`), validated at parse time: a ``tcp://`` entry binds a
collector and observes every producer that dials in, ``shm://``/``file://``
entries attach single same-host streams.  The endpoints are wired by
whoever owns the runtime — :meth:`repro.session.TelemetrySession.adapt`
(which also owns their teardown) or the ``repro adapt`` CLI, where
positional endpoint arguments extend the spec's own list.

Actuator *names* bind to factories supplied at build time (specs are data;
knobs are code).  The built-in ``log`` actuator needs no factory: it applies
decisions to an internal value only, which is how the ``repro adapt`` CLI
dry-runs a spec against a live fleet.

Files load through :mod:`repro.specfile`, the strict loader shared with
chaos scenarios: TOML needs :mod:`tomllib` and therefore Python 3.11+; on
3.10 use JSON files or build from a dict.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
import re
from dataclasses import KW_ONLY, dataclass, field
from typing import Any, Callable, Mapping, Sequence, Union

from repro.adapt.actuator import Actuator, LogActuator
from repro.adapt.engine import AdaptationEngine, LoopFactory
from repro.adapt.loop import ControlLoop
from repro.clock import Clock
from repro.control import CONTROLLER_KINDS, Controller, TargetWindow
from repro.core.aggregator import HeartbeatAggregator
from repro.core.monitor import MonitorReading
from repro.endpoints import Endpoint, EndpointError
from repro.specfile import Table, load_file, load_text

__all__ = ["AdaptSpec", "LoopSpec", "SpecError", "ActuatorFactory"]


class SpecError(ValueError):
    """A declarative adaptation spec is malformed."""


def _parse_attach(entries: Sequence[Union[str, Endpoint]]) -> list[Endpoint]:
    """Validate the spec's ``attach`` endpoints at parse time, not at wiring."""
    parsed: list[Endpoint] = []
    for entry in entries:
        if not isinstance(entry, (str, Endpoint)):
            raise SpecError(
                f"'attach' entries must be endpoint URL strings, got {entry!r}"
            )
        try:
            parsed.append(Endpoint.parse(entry))
        except EndpointError as exc:
            raise SpecError(f"invalid attach endpoint {entry!r}: {exc}") from exc
    return parsed


#: Builds the actuator for one matched stream: ``(stream name, first
#: reading, the loop spec's actuator options)``.
ActuatorFactory = Callable[[str, MonitorReading, Mapping[str, Any]], Actuator]

#: Traces each spec-built loop retains: a long-lived engine must not grow
#: with its uptime, and decisions are exported as they happen (listeners).
_LOOP_TRACE_LIMIT = 64

#: Actuator factories every spec can name without registering anything.
BUILTIN_ACTUATORS: dict[str, ActuatorFactory] = {"log": lambda name, reading, options: LogActuator(**options)}


_BARE_KEY_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)


def _toml_key(key: str) -> str:
    if key and set(key) <= _BARE_KEY_CHARS:
        return key
    return json.dumps(key)


def _toml_value(value: Any) -> str:
    """Serialize one value as TOML (strings, bools, numbers, arrays, inline tables).

    JSON string escaping is a subset of TOML basic-string escaping, so
    :func:`json.dumps` is reused for string literals; ``inf``/``nan`` are
    spelt directly (valid TOML, invalid JSON).
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, float)):
        return repr(value)  # repr floats always carry a '.' or 'e'/'inf'/'nan'
    if isinstance(value, Mapping):
        items = ", ".join(f"{_toml_key(str(k))} = {_toml_value(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, Sequence):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise SpecError(f"cannot serialize {value!r} ({type(value).__name__}) as TOML")


def _controller_table(value: object) -> dict[str, Any]:
    """A loop's ``controller``: a kind name or a table with ``kind`` (copied)."""
    if isinstance(value, str):
        return {"kind": value}
    if not isinstance(value, Mapping) or "kind" not in value:
        raise ValueError("must be a kind name or a table with 'kind'")
    return dict(value)


def _target_pair(value: Any) -> tuple[float, float] | None:
    """A loop's ``target``: ``[min, max]``, or ``"published"`` (``None``)."""
    if value == "published":
        return None
    if isinstance(value, str):
        raise ValueError("must be [min, max] or 'published'")
    low, high = value
    return float(low), float(high)


def _warmup(value: Any) -> int | None:
    """A loop's ``warmup``; ``"auto"`` is the file spelling of null (TOML has
    none): the bare-ControlLoop default, ``warmup = decision_interval``."""
    return None if value is None or value == "auto" else int(value)


@dataclass(frozen=True, slots=True)
class LoopSpec:
    """One loop rule: which streams, which goal, which controller and knob."""

    #: ``fnmatch`` pattern over stream names (``vm-*``, ``enc-??``, ...).
    match: str
    #: Actuator factory name resolved at build time (``log`` is built in).
    actuator: str = "log"
    #: Controller kind, a key of :data:`repro.control.CONTROLLER_KINDS`.
    controller: str = "step"
    #: The kind's constructor keywords (gain, levels, kp, ...), checked at load.
    controller_options: Mapping[str, Any] = field(default_factory=dict)
    #: ``(minimum, maximum)`` target window, or ``None`` to adopt the window
    #: each matched stream published itself (``"published"`` in files).
    target: tuple[float, float] | None = None
    #: Beats (engine ticks) between decisions.
    decision_interval: int = 1
    #: Beats before the first decision.  The spec layer defaults to 0 —
    #: decide as soon as the stream has a measurable rate — since engines
    #: already gate stepping on ``min_beats``; ``None`` defers to
    #: ``decision_interval`` (the bare :class:`ControlLoop` default, spelt
    #: ``"auto"`` in spec files, which cannot express null).
    warmup: int | None = 0
    #: Whether ``repro tune`` may search this rule's controller parameters
    #: (see :mod:`repro.tune`); inert at build time.
    tune: bool = False
    #: Options handed to the actuator factory.
    actuator_options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.match:
            raise SpecError("loop spec needs a non-empty 'match' pattern")
        if self.decision_interval < 1:
            raise SpecError(f"decision_interval must be >= 1, got {self.decision_interval}")
        self.build_controller(TargetWindow(1.0, 2.0))  # bad options fail at load, not at a match
        self.fixed_window()  # and so does a bad fixed target

    def build_controller(self, target: TargetWindow) -> Controller:
        """This rule's controller: its kind's class with ``controller_options``."""
        kind = CONTROLLER_KINDS.get(self.controller)
        if kind is None:
            raise SpecError(f"unknown controller kind {self.controller!r}; choose from {list(CONTROLLER_KINDS)}")
        try:
            return kind(target, **self.controller_options)
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
            raise SpecError(f"loop {self.match!r}: invalid {self.controller} controller options: {exc}") from exc

    def matches(self, name: str) -> bool:
        return fnmatch.fnmatchcase(name, self.match)

    def fixed_window(self) -> TargetWindow | None:
        """The rule's own target window, or ``None`` when it adopts a published one."""
        if self.target is None:
            return None
        try:
            return TargetWindow(float(self.target[0]), float(self.target[1]))
        except ValueError as exc:
            raise SpecError(f"loop {self.match!r}: invalid target {list(self.target)}: {exc}") from exc

    def resolve_target(self, reading: MonitorReading) -> TargetWindow | None:
        """The loop's goal for one stream; ``None`` when nothing usable is published.

        A malformed published window (inverted, a negative minimum or a NaN
        bound — the producer-side API forbids all three, but the wire path
        does not validate) is treated exactly like "no goal yet": the stream
        stays unmanaged rather than poisoning the whole engine tick.
        """
        if self.target is not None:
            return self.fixed_window()
        tmin, tmax = reading.target_min, reading.target_max
        if math.isnan(tmin) or math.isnan(tmax) or (tmin <= 0.0 and tmax <= 0.0):
            return None
        maximum = tmax if tmax > 0.0 else math.inf
        minimum = max(tmin, 0.0)
        if maximum < minimum:
            return None
        return TargetWindow(minimum, maximum)

    @classmethod
    def from_mapping(cls, raw: object) -> "LoopSpec":
        table = Table(
            raw, SpecError, "loop spec",
            {
                "match", "actuator", "controller", "target",
                "decision_interval", "warmup", "tune", "actuator_options",
            },
            required=("match",),
        )
        options = table.get("controller", _controller_table, "step")
        return cls(
            match=table.get("match", str),
            actuator=table.get("actuator", str, "log"),
            controller=str(options.pop("kind")),
            controller_options=options,
            target=table.get("target", _target_pair, "published"),
            decision_interval=table.get("decision_interval", int, 1),
            warmup=table.get("warmup", _warmup, 0),
            tune=table.get("tune", bool, False),
            actuator_options=table.get("actuator_options", dict, {}),
        )

    def to_dict(self) -> dict[str, Any]:
        """The plain mapping :meth:`from_mapping` parses back to an equal spec.

        >>> rule = LoopSpec(match="vm-*", controller="pid", warmup=None)
        >>> LoopSpec.from_mapping(rule.to_dict()) == rule
        True
        """
        return {
            "match": self.match,
            "actuator": self.actuator,
            "controller": {"kind": self.controller, **self.controller_options},
            "target": "published" if self.target is None else list(self.target),
            "decision_interval": self.decision_interval,
            "warmup": "auto" if self.warmup is None else self.warmup,
            "tune": self.tune,
            "actuator_options": dict(self.actuator_options),
        }


@dataclass
class AdaptSpec:
    """A whole adaptation-engine description: engine knobs plus loop rules.

    Streams are matched against the loop rules in order; the first matching
    rule wins, so specific patterns go before catch-alls.
    """

    loops: Sequence[LoopSpec]
    _: KW_ONLY
    window: int = 0
    liveness_timeout: float | None = None
    interval: float = 1.0
    min_beats: int = 2
    #: Endpoint URLs (parsed to :class:`Endpoint` at construction).
    attach: Sequence[Union[str, Endpoint]] = ()

    def __post_init__(self) -> None:
        if not self.loops:
            raise SpecError("an adaptation spec needs at least one [[loops]] entry")
        if self.interval <= 0:
            raise SpecError(f"engine interval must be positive, got {self.interval}")
        self.loops = tuple(self.loops)
        self.window = int(self.window)
        self.interval = float(self.interval)
        self.min_beats = int(self.min_beats)
        self.attach = tuple(_parse_attach(self.attach))

    # ------------------------------------------------------------------ #
    # Parsing
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: object) -> "AdaptSpec":
        spec = Table(data, SpecError, "spec", {"engine", "loops"})
        engine = Table(
            spec.data.get("engine", {}), SpecError, "engine",
            {"window", "liveness_timeout", "interval", "min_beats", "attach"},
        )
        return cls(
            [LoopSpec.from_mapping(entry) for entry in spec.array("loops")],
            window=engine.get("window", int, 0),
            liveness_timeout=engine.get("liveness_timeout", float),
            interval=engine.get("interval", float, 1.0),
            min_beats=engine.get("min_beats", int, 2),
            attach=engine.array("attach"),
        )

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike[str]]) -> "AdaptSpec":
        """Load a spec file: ``.toml`` as TOML, anything else as JSON."""
        return cls.from_dict(load_file(path, SpecError))

    @classmethod
    def parse(cls, text: str) -> "AdaptSpec":
        """Parse spec text by sniffing the format: JSON objects else TOML."""
        return cls.from_dict(load_text(text, SpecError))

    # ------------------------------------------------------------------ #
    # Emitting
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """The plain mapping :meth:`from_dict` parses back to an equal spec.

        >>> spec = AdaptSpec([LoopSpec(match="vm-*")], interval=0.5)
        >>> AdaptSpec.from_dict(spec.to_dict()) == spec
        True
        """
        engine: dict[str, Any] = {
            "window": self.window,
            "interval": self.interval,
            "min_beats": self.min_beats,
        }
        if self.liveness_timeout is not None:
            engine["liveness_timeout"] = self.liveness_timeout
        if self.attach:
            engine["attach"] = [str(endpoint) for endpoint in self.attach]
        return {"engine": engine, "loops": [rule.to_dict() for rule in self.loops]}

    def to_toml(self) -> str:
        """Emit TOML text that parses back to an equal spec (any Python version).

        The emitter is dependency free — :mod:`tomllib` is parse-only and
        3.11+, while emitting must work everywhere ``repro tune`` runs.
        """
        data = self.to_dict()
        lines = ["[engine]"]
        for key, value in data["engine"].items():
            lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
        for loop in data["loops"]:
            lines.append("")
            lines.append("[[loops]]")
            for key, value in loop.items():
                lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    def rule_for(self, name: str) -> LoopSpec | None:
        """The first loop rule matching ``name``, if any."""
        for rule in self.loops:
            if rule.matches(name):
                return rule
        return None

    def loop_factory(
        self, actuators: Mapping[str, ActuatorFactory] | None = None
    ) -> LoopFactory:
        """The engine loop factory implied by this spec.

        ``actuators`` maps spec actuator names to factories; built-ins
        (``log``) are always available but can be overridden.
        """
        registry = dict(BUILTIN_ACTUATORS)
        if actuators:
            registry.update(actuators)
        for rule in self.loops:
            if rule.actuator not in registry:
                raise SpecError(
                    f"loop {rule.match!r} names unknown actuator {rule.actuator!r}; "
                    f"available: {sorted(registry)}"
                )

        # Everything a rule fixes is bound once here, so attaching a stream
        # costs one pattern match and the loop's own objects: a fixed window
        # is shared (TargetWindow is frozen) and the controller options were
        # checked when the spec loaded.
        bound = [
            (
                re.compile(fnmatch.translate(rule.match)).match,
                rule,
                rule.fixed_window(),
                CONTROLLER_KINDS[rule.controller],
                registry[rule.actuator],
            )
            for rule in self.loops
        ]

        def factory(name: str, reading: MonitorReading) -> ControlLoop | None:
            for match, rule, target, kind, make_actuator in bound:
                if match(name) is not None:
                    break
            else:
                return None
            if target is None:
                target = rule.resolve_target(reading)
                if target is None:
                    return None  # no goal yet; the engine re-offers the stream later
            actuator = make_actuator(name, reading, rule.actuator_options)
            return ControlLoop(
                None,
                kind(target, **rule.controller_options),
                actuator,
                name=name,
                decision_interval=rule.decision_interval,
                warmup=rule.warmup,
                trace_limit=_LOOP_TRACE_LIMIT,
            )

        return factory

    def build_engine(
        self,
        *,
        aggregator: HeartbeatAggregator | None = None,
        clock: Clock | None = None,
        actuators: Mapping[str, ActuatorFactory] | None = None,
        step_stalled: bool = False,
    ) -> AdaptationEngine:
        """Assemble the engine (creating an aggregator unless one is passed)."""
        if aggregator is None:
            aggregator = HeartbeatAggregator(
                clock=clock,
                window=self.window,
                liveness_timeout=self.liveness_timeout,
            )
        return AdaptationEngine(
            aggregator,
            self.loop_factory(actuators),
            min_beats=self.min_beats,
            step_stalled=step_stalled,
        )
