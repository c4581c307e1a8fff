"""Declarative chaos scenarios: dict/TOML/JSON → :class:`ScenarioSpec`.

A scenario names *what to break and what must still hold* — a producer
fleet, a topology (direct fan-in or a journaled edge collector), an
optional :class:`~repro.scenario.proxy.ChaosProxy` on the observed link, a
:class:`~repro.faults.Timeline` of scripted chaos (partitions, kills,
restarts, churn), and the invariants the run must satisfy:

.. code-block:: toml

    name = "partition-and-heal"
    topology = "direct"
    proxy = true

    [fleet]
    producers = 3
    beats = 400
    rate = 200.0

    [[timeline]]
    at = 0.4
    action = "partition"
    mode = "blackhole"

    [[timeline]]
    at = 1.2
    action = "heal"

    [[invariants]]
    kind = "stalled_within"
    deadline = 3.0

    [[invariants]]
    kind = "all_beats_delivered"

:class:`~repro.scenario.runner.ScenarioRunner` executes the spec against
real subprocess producers and collectors.  Presets for the canonical
failure drills ship in :data:`PRESETS` (``repro scenario list``):

>>> spec = ScenarioSpec.preset("churn-storm")
>>> spec.fleet.producers >= 2
True
>>> sorted(i.kind for i in spec.invariants)[:2]
['all_beats_delivered', 'closed_reported']

Files load through :mod:`repro.specfile`, the strict loader shared with
adaptation specs: TOML needs :mod:`tomllib` and therefore Python 3.11+; on
3.10 use JSON files or build from a dict.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Union

from repro.faults.timeline import Timeline, TimelineEvent
from repro.scenario.proxy import _PARTITION_MODES
from repro.specfile import Table, load_file

__all__ = [
    "FleetSpec",
    "InvariantSpec",
    "PRESETS",
    "ScenarioError",
    "ScenarioSpec",
]


class ScenarioError(ValueError):
    """A declarative chaos scenario is malformed."""


#: Each timeline action the runner understands → the parameters it reads.
#: :data:`PROXY_ACTIONS` forward to :meth:`ChaosProxy.apply`; the rest
#: manipulate the fleet and collectors.
ACTION_PARAMS: dict[str, tuple[str, ...]] = {
    "latency": ("latency", "jitter"),
    "bandwidth": ("bytes_per_second",),
    "drop": ("probability",),
    "partition": ("mode",),
    "heal": (),
    "flap": (),
    "spawn": ("producers",),
    "kill_producers": ("producers",),
    "kill_collector": ("after_producers",),
    "restart_collector": (),
}
PROXY_ACTIONS = ("latency", "bandwidth", "drop", "partition", "heal", "flap")

#: Invariant kinds the runner can check (see :mod:`repro.scenario.runner`).
INVARIANT_KINDS = (
    "no_lost_acked",
    "stalled_within",
    "converged_within",
    "all_beats_delivered",
    "closed_reported",
)

TOPOLOGIES = ("direct", "edge")


@dataclass(frozen=True, slots=True)
class FleetSpec:
    """The producer fleet: how many, how fast, for how long.

    ``skew`` offsets every producer's clock by that many seconds —
    heartbeat timestamps land in the future (positive) or past (negative)
    relative to the observer, the way unsynchronized hosts do.
    """

    producers: int = 2
    beats: int = 200
    rate: float = 200.0
    skew: float = 0.0
    prefix: str = "svc"

    def __post_init__(self) -> None:
        if self.producers < 1:
            raise ScenarioError(f"fleet needs >= 1 producer, got {self.producers}")
        if self.beats < 1:
            raise ScenarioError(f"fleet beats must be >= 1, got {self.beats}")
        if self.rate <= 0:
            raise ScenarioError(f"fleet rate must be positive, got {self.rate}")
        if not self.prefix:
            raise ScenarioError("fleet prefix must be non-empty")

    @classmethod
    def from_mapping(cls, raw: object) -> "FleetSpec":
        table = Table(raw, ScenarioError, "fleet", {"producers", "beats", "rate", "skew", "prefix"})
        return cls(
            producers=table.get("producers", int, 2),
            beats=table.get("beats", int, 200),
            rate=table.get("rate", float, 200.0),
            skew=table.get("skew", float, 0.0),
            prefix=table.get("prefix", str, "svc"),
        )


@dataclass(frozen=True, slots=True)
class InvariantSpec:
    """One property the run must satisfy (see :data:`INVARIANT_KINDS`).

    ``deadline`` bounds the time-based checks (``stalled_within``: seconds
    from the first disruptive event to a STALLED classification;
    ``converged_within``: seconds from the end of the timeline to full
    convergence).  ``count`` is the minimum number of streams
    ``stalled_within`` must observe stalled.
    """

    kind: str
    deadline: float = 10.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in INVARIANT_KINDS:
            raise ScenarioError(
                f"unknown invariant kind {self.kind!r}; known: {list(INVARIANT_KINDS)}"
            )
        if self.deadline <= 0:
            raise ScenarioError(f"invariant deadline must be positive, got {self.deadline}")
        if self.count < 1:
            raise ScenarioError(f"invariant count must be >= 1, got {self.count}")

    @classmethod
    def from_mapping(cls, raw: object) -> "InvariantSpec":
        table = Table(raw, ScenarioError, "invariant", {"kind", "deadline", "count"}, ("kind",))
        return cls(
            kind=table.get("kind", str),
            deadline=table.get("deadline", float, 10.0),
            count=table.get("count", int, 1),
        )


def _timeline_event(raw: object) -> TimelineEvent:
    """One timeline table: ``at``, ``action`` and the parameters that action reads."""
    table = Table(raw, ScenarioError, "timeline entry", None, required=("at", "action"))
    action = table.get("action", str)
    if action not in ACTION_PARAMS:
        raise ScenarioError(f"unknown timeline action {action!r}; known: {list(ACTION_PARAMS)}")
    unknown = sorted(set(table.data) - {"at", "action", *ACTION_PARAMS[action]})
    if unknown:
        raise ScenarioError(f"unknown {action} parameters {unknown}; it reads {list(ACTION_PARAMS[action])}")
    at = table.get("at", float, 0.0)  # non-None default: an explicit null is rejected
    params = {k: v for k, v in table.data.items() if k not in ("at", "action")}
    if params.get("mode", "blackhole") not in _PARTITION_MODES:  # only partition reads it
        raise ScenarioError(f"partition mode must be one of {_PARTITION_MODES}, got {params['mode']!r}")
    try:
        return TimelineEvent(at=at, action=action, params=params)
    except ValueError as exc:  # a negative time
        raise ScenarioError(f"timeline entry: {exc}") from exc


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """A complete chaos drill: fleet + topology + timeline + invariants."""

    name: str
    description: str = ""
    fleet: FleetSpec = field(default_factory=FleetSpec)
    #: ``direct``: producers dial the root collector (optionally through the
    #: proxy).  ``edge``: producers dial an *edge* collector subprocess that
    #: relays to the in-process root through the proxy — the topology where
    #: collector kill/restart drills make sense.
    topology: str = "direct"
    #: Insert a :class:`ChaosProxy` on the observed link.  Implied by any
    #: proxy-directed timeline action.
    proxy: bool = False
    #: Journal the killable collector (the edge in ``edge`` topology) so a
    #: restart resumes from disk instead of starting empty.
    journal: bool = False
    #: Steady-state impairments applied to the proxy at start
    #: (``latency`` / ``jitter`` / ``bandwidth`` / ``drop_probability``).
    latency: float = 0.0
    jitter: float = 0.0
    bandwidth: float | None = None
    drop_probability: float = 0.0
    seed: int | None = None
    timeline: tuple[TimelineEvent, ...] = ()
    invariants: tuple[InvariantSpec, ...] = ()
    #: Hard wall-clock budget for the whole run; blowing it fails the run.
    deadline: float = 60.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario needs a name")
        if self.topology not in TOPOLOGIES:
            raise ScenarioError(
                f"unknown topology {self.topology!r}; known: {list(TOPOLOGIES)}"
            )
        if self.deadline <= 0:
            raise ScenarioError(f"deadline must be positive, got {self.deadline}")
        needs_proxy = any(e.action in PROXY_ACTIONS for e in self.timeline)
        if needs_proxy and not self.proxy:
            # Scripting chaos against a link that does not exist is a spec
            # bug; promote rather than silently ignore.
            object.__setattr__(self, "proxy", True)
        collector_events = any(
            e.action in ("kill_collector", "restart_collector") for e in self.timeline
        )
        if collector_events and self.topology != "edge":
            raise ScenarioError(
                "kill_collector/restart_collector need topology = 'edge' "
                "(the root collector hosts the invariant checks and cannot die)"
            )

    # ------------------------------------------------------------------ #
    # Parsing
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: object) -> "ScenarioSpec":
        table = Table(
            data, ScenarioError, "scenario",
            {
                "name", "description", "fleet", "topology", "proxy", "journal",
                "latency", "jitter", "bandwidth", "drop_probability", "seed",
                "timeline", "invariants", "deadline",
            },
            required=("name",),
        )
        timeline = (_timeline_event(entry) for entry in table.array("timeline"))
        return cls(
            name=table.get("name", str),
            description=table.get("description", str, ""),
            fleet=FleetSpec.from_mapping(table.data.get("fleet", {})),
            topology=table.get("topology", str, "direct"),
            proxy=table.get("proxy", bool, False),
            journal=table.get("journal", bool, False),
            latency=table.get("latency", float, 0.0),
            jitter=table.get("jitter", float, 0.0),
            bandwidth=table.get("bandwidth", float),
            drop_probability=table.get("drop_probability", float, 0.0),
            seed=table.get("seed", int),
            timeline=tuple(sorted(timeline, key=lambda e: e.at)),
            invariants=tuple(
                InvariantSpec.from_mapping(entry) for entry in table.array("invariants")
            ),
            deadline=table.get("deadline", float, 60.0),
        )

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike[str]]) -> "ScenarioSpec":
        """Load a scenario file: ``.toml`` as TOML, anything else as JSON."""
        return cls.from_dict(load_file(path, ScenarioError))

    @classmethod
    def preset(cls, name: str) -> "ScenarioSpec":
        """One of the built-in drills (see :data:`PRESETS`)."""
        try:
            data = PRESETS[name]
        except KeyError:
            raise ScenarioError(
                f"unknown preset {name!r}; known: {sorted(PRESETS)}"
            ) from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def build_timeline(self) -> Timeline:
        """A fresh :class:`Timeline` over this spec's events."""
        return Timeline(self.timeline)

    def first_disruption(self) -> float | None:
        """When the first chaos lands (anchor for ``stalled_within``)."""
        for event in self.timeline:
            if event.action in ("partition", "flap", "kill_producers", "kill_collector"):
                return event.at
        return None


#: Built-in drills, data all the way down so ``repro scenario list`` can
#: show them and users can fork them into files.
PRESETS: dict[str, dict[str, Any]] = {
    "churn-storm": {
        "name": "churn-storm",
        "description": (
            "Producers join mid-run and two are SIGKILLed: the root must "
            "mark the corpses STALLED, keep every survivor's count "
            "monotonic, and account every gracefully-closed beat."
        ),
        "topology": "direct",
        "fleet": {"producers": 3, "beats": 150, "rate": 300.0},
        "seed": 7,
        "timeline": [
            {"at": 0.15, "action": "spawn", "producers": 2},
            {"at": 0.35, "action": "kill_producers", "producers": 2},
        ],
        "invariants": [
            {"kind": "no_lost_acked"},
            {"kind": "stalled_within", "deadline": 6.0, "count": 2},
            {"kind": "all_beats_delivered", "deadline": 10.0},
            {"kind": "closed_reported", "deadline": 10.0},
        ],
        "deadline": 45.0,
    },
    "partition": {
        "name": "partition",
        "description": (
            "A blackhole partition opens mid-run and heals: streams go "
            "STALLED behind the dead link, then converge once traffic "
            "flows again — no acknowledged beat lost."
        ),
        "topology": "direct",
        "proxy": True,
        "fleet": {"producers": 3, "beats": 400, "rate": 150.0},
        "seed": 11,
        "timeline": [
            # The window comfortably outlasts the runner's 1s liveness
            # timeout so STALLED is observable before the heal.
            {"at": 0.5, "action": "partition", "mode": "blackhole"},
            {"at": 2.2, "action": "heal"},
        ],
        "invariants": [
            {"kind": "no_lost_acked"},
            {"kind": "stalled_within", "deadline": 6.0},
            {"kind": "converged_within", "deadline": 15.0},
            {"kind": "all_beats_delivered", "deadline": 15.0},
        ],
        "deadline": 60.0,
    },
    "kill-restart": {
        "name": "kill-restart",
        "description": (
            "The journaled edge collector is SIGKILLed while holding beats "
            "the root has never seen (its uplink is partitioned), then "
            "restarted over the same journal: replay + relay dedup must "
            "deliver every acknowledged beat to the root."
        ),
        "topology": "edge",
        "proxy": True,
        "journal": True,
        "fleet": {"producers": 2, "beats": 120, "rate": 300.0},
        "seed": 23,
        "timeline": [
            {"at": 0.25, "action": "partition", "mode": "drop"},
            # Barrier: wait for every producer to finish + CLOSE into the
            # journaled edge before killing it, so the partition-window
            # beats exist *only* in the journal (the drill's whole point).
            {"at": 0.3, "action": "kill_collector", "after_producers": True},
            {"at": 0.4, "action": "restart_collector"},
            {"at": 0.5, "action": "heal"},
        ],
        "invariants": [
            {"kind": "no_lost_acked"},
            {"kind": "stalled_within", "deadline": 8.0},
            {"kind": "converged_within", "deadline": 20.0},
            {"kind": "all_beats_delivered", "deadline": 20.0},
            {"kind": "closed_reported", "deadline": 20.0},
        ],
        "deadline": 90.0,
    },
    "clock-skew": {
        "name": "clock-skew",
        "description": (
            "Producer clocks run 80 ms ahead of the observer: totals and "
            "close accounting must stay exact despite timestamps from the "
            "future."
        ),
        "topology": "direct",
        "fleet": {"producers": 3, "beats": 200, "rate": 250.0, "skew": 0.08},
        "invariants": [
            {"kind": "no_lost_acked"},
            {"kind": "all_beats_delivered", "deadline": 10.0},
            {"kind": "closed_reported", "deadline": 10.0},
        ],
        "deadline": 45.0,
    },
}
