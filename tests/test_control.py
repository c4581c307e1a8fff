"""Tests for the controllers shared by internal and external adaptation."""

from __future__ import annotations

import importlib
import math
import pkgutil

import pytest

from repro.control import (
    DecisionSpacer,
    LadderController,
    PIDController,
    ProportionalStepController,
    StepController,
    TargetWindow,
)
from repro.control.base import Controller


class TestTargetWindow:
    def test_membership_and_errors(self):
        window = TargetWindow(2.5, 3.5)
        assert window.contains(3.0)
        assert window.below(2.0) and not window.below(3.0)
        assert window.above(4.0) and not window.above(3.0)
        assert window.error(3.0) == 0.0
        assert window.error(2.0) == pytest.approx(-0.5)
        assert window.error(4.0) == pytest.approx(0.5)
        assert window.midpoint == pytest.approx(3.0)

    def test_unbounded_maximum(self):
        window = TargetWindow(30.0, float("inf"))
        assert window.contains(1e9)
        assert window.midpoint == 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TargetWindow(-1.0, 2.0)
        with pytest.raises(ValueError):
            TargetWindow(3.0, 2.0)

    @pytest.mark.parametrize("bounds", [(float("nan"), 5.0), (1.0, float("nan")), (float("nan"), float("inf"))])
    def test_nan_bound_is_refused(self, bounds):
        with pytest.raises(ValueError, match="must be numbers"):
            TargetWindow(*bounds)


class TestStepController:
    def test_moves_towards_the_window(self):
        controller = StepController(TargetWindow(2.5, 3.5))
        assert controller.decide(1.0).delta == 1
        assert controller.decide(5.0).delta == -1
        assert controller.decide(3.0).delta == 0
        assert controller.decide(3.0).is_noop

    def test_custom_step(self):
        controller = StepController(TargetWindow(10.0, 20.0), step=3)
        assert controller.decide(1.0).delta == 3

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            StepController(TargetWindow(1.0, 2.0), step=0)


class TestProportionalStepController:
    def test_step_grows_with_error(self):
        controller = ProportionalStepController(TargetWindow(10.0, 12.0), gain=5.0, max_step=8)
        small = controller.decide(9.0).delta
        large = controller.decide(2.0).delta
        assert 1 <= small < large <= 8

    def test_direction(self):
        controller = ProportionalStepController(TargetWindow(10.0, 12.0))
        assert controller.decide(5.0).delta > 0
        assert controller.decide(20.0).delta < 0
        assert controller.decide(11.0).delta == 0

    def test_max_step_clamps(self):
        controller = ProportionalStepController(TargetWindow(10.0, 12.0), gain=10.0, max_step=2)
        assert controller.decide(0.1).delta == 2


class TestPIDController:
    def test_converges_on_a_linear_plant(self):
        """Closing the loop around rate = 2 * cores reaches the setpoint."""
        target = TargetWindow(9.0, 11.0)
        controller = PIDController(target, kp=2.0, ki=0.5, maximum_output=16.0)
        cores = 1.0
        for _ in range(40):
            rate = 2.0 * cores
            cores = controller.decide(rate).value
        assert 9.0 <= 2.0 * cores <= 11.0

    def test_output_clamped(self):
        controller = PIDController(TargetWindow(100.0, 110.0), maximum_output=4.0)
        for _ in range(20):
            value = controller.decide(0.0).value
        assert value == 4.0

    def test_reset_clears_integrator(self):
        controller = PIDController(TargetWindow(10.0, 12.0), ki=1.0)
        for _ in range(5):
            controller.decide(0.0)
        wound_up = controller.decide(0.0).value
        controller.reset()
        fresh = controller.decide(0.0).value
        assert fresh < wound_up

    def test_validation(self):
        with pytest.raises(ValueError):
            PIDController(TargetWindow(1.0, 2.0), minimum_output=5.0, maximum_output=1.0)


class TestLadderController:
    def test_descends_until_target_met(self):
        controller = LadderController(TargetWindow(30.0, float("inf")), levels=6)
        rates = [8.0, 12.0, 20.0, 33.0]
        deltas = [controller.decide(r).delta for r in rates]
        assert deltas == [1, 1, 1, 0]
        assert controller.level == 3

    def test_stops_at_bottom_of_ladder(self):
        controller = LadderController(TargetWindow(30.0, float("inf")), levels=2)
        controller.decide(1.0)
        assert controller.decide(1.0).delta == 0
        assert controller.level == 1

    def test_never_climbs_back_into_a_rejected_level(self):
        controller = LadderController(TargetWindow(30.0, float("inf")), levels=4, climb_margin=0.1)
        controller.decide(10.0)   # level 0 rejected -> level 1
        controller.decide(100.0)  # plenty of headroom, but level 0 was rejected
        assert controller.level == 1
        assert 0 in controller.rejected_levels

    def test_climbs_into_untried_levels_with_headroom(self):
        controller = LadderController(
            TargetWindow(30.0, float("inf")), levels=4, initial_level=2, climb_margin=0.1
        )
        assert controller.decide(100.0).delta == -1
        assert controller.level == 1

    def test_reset_restores_initial_level_and_memory(self):
        controller = LadderController(TargetWindow(30.0, float("inf")), levels=4, initial_level=1)
        controller.decide(1.0)
        controller.reset()
        assert controller.level == 1
        assert controller.rejected_levels == frozenset()

    def test_validation(self):
        with pytest.raises(ValueError):
            LadderController(TargetWindow(1.0, 2.0), levels=0)
        with pytest.raises(ValueError):
            LadderController(TargetWindow(1.0, 2.0), levels=3, initial_level=3)


class TestDecisionSpacer:
    def test_waits_for_warmup_then_spaces_decisions(self):
        spacer = DecisionSpacer(interval=5)
        decided = [i for i in range(30) if spacer.should_decide(i)]
        assert decided == [5, 10, 15, 20, 25]

    def test_custom_warmup(self):
        spacer = DecisionSpacer(interval=10, warmup=0)
        assert spacer.should_decide(0)
        assert not spacer.should_decide(5)
        assert spacer.should_decide(10)

    def test_reset(self):
        spacer = DecisionSpacer(interval=5)
        assert spacer.should_decide(7)
        spacer.reset()
        assert spacer.should_decide(7)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionSpacer(0)
        with pytest.raises(ValueError):
            DecisionSpacer(5, warmup=-1)


# --------------------------------------------------------------------- #
# The controller contract, parametrized over every Controller subclass
# --------------------------------------------------------------------- #
#: A bounded window every contract case uses.  The reachable in-window rate
#: is the midpoint: for PID the midpoint *is* the setpoint (zero error), and
#: for the ladder it sits below the climb threshold, so "in window" must be
#: a no-op for every controller.
CONTRACT_WINDOW = TargetWindow(10.0, 14.0)

#: How to build one of each controller for the contract tests.  Every
#: Controller subclass defined inside repro.control must have an entry here
#: (enforced by test_every_control_subclass_is_under_contract), so future
#: controllers are pulled into the contract automatically.
CONTROLLER_FACTORIES = {
    StepController: lambda target: StepController(target),
    ProportionalStepController: lambda target: ProportionalStepController(target),
    PIDController: lambda target: PIDController(target),
    LadderController: lambda target: LadderController(target, levels=6, initial_level=2),
}

#: A rate sequence that forces direction changes and saturation.
CONTRACT_SEQUENCE = (1.0, 3.0, 12.0, 25.0, 40.0, 12.0, 2.0, 12.0, 18.0, 12.0)


def _control_subclasses() -> list[type]:
    """Every Controller subclass defined in the repro.control package."""
    import repro.control as pkg

    for module in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"repro.control.{module.name}")

    found: list[type] = []

    def walk(cls: type) -> None:
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("repro.control."):
                found.append(sub)
            walk(sub)

    walk(Controller)
    return found


def _decisions(controller, rates):
    return [(d.delta, d.value) for d in (controller.decide(r) for r in rates)]


class TestControllerContract:
    def test_every_control_subclass_is_under_contract(self):
        missing = [cls for cls in _control_subclasses() if cls not in CONTROLLER_FACTORIES]
        assert not missing, (
            f"Controller subclasses without a contract factory: {missing}; "
            "add them to CONTROLLER_FACTORIES so they inherit the contract tests"
        )

    @pytest.mark.parametrize("cls", CONTROLLER_FACTORIES, ids=lambda c: c.__name__)
    def test_in_window_rate_is_a_noop(self, cls):
        controller = CONTROLLER_FACTORIES[cls](CONTRACT_WINDOW)
        decision = controller.decide(CONTRACT_WINDOW.midpoint)
        assert decision.is_noop

    @pytest.mark.parametrize("cls", CONTROLLER_FACTORIES, ids=lambda c: c.__name__)
    def test_deterministic_for_a_fixed_rate_sequence(self, cls):
        first = CONTROLLER_FACTORIES[cls](CONTRACT_WINDOW)
        second = CONTROLLER_FACTORIES[cls](CONTRACT_WINDOW)
        assert _decisions(first, CONTRACT_SEQUENCE) == _decisions(second, CONTRACT_SEQUENCE)

    @pytest.mark.parametrize("cls", CONTROLLER_FACTORIES, ids=lambda c: c.__name__)
    def test_reset_clears_state_and_replays_identically(self, cls):
        controller = CONTROLLER_FACTORIES[cls](CONTRACT_WINDOW)
        fresh = _decisions(controller, CONTRACT_SEQUENCE)
        controller.reset()
        assert _decisions(controller, CONTRACT_SEQUENCE) == fresh

    @pytest.mark.parametrize("cls", CONTROLLER_FACTORIES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_is_a_guarded_noop(self, cls, bad):
        """NaN/inf readings must neither act nor corrupt controller state."""
        controller = CONTROLLER_FACTORIES[cls](CONTRACT_WINDOW)
        decision = controller.decide(bad)
        assert decision.is_noop
        assert decision.delta is None and decision.value is None
        # State is untouched: the subsequent trajectory matches a controller
        # that never saw the bad reading.
        poisoned = _decisions(controller, CONTRACT_SEQUENCE)
        clean = _decisions(CONTROLLER_FACTORIES[cls](CONTRACT_WINDOW), CONTRACT_SEQUENCE)
        assert poisoned == clean
        for value in (v for _, v in poisoned if v is not None):
            assert math.isfinite(value)

    def test_nan_does_not_reach_pid_integrator(self):
        """The regression the guard exists for: NaN once, poisoned forever."""
        controller = PIDController(CONTRACT_WINDOW, ki=1.0)
        controller.decide(float("nan"))
        assert controller._integral == 0.0
        value = controller.decide(1.0).value
        assert value is not None and math.isfinite(value)

    def test_nan_does_not_reject_ladder_levels(self):
        controller = LadderController(CONTRACT_WINDOW, levels=4, initial_level=1)
        controller.decide(float("nan"))
        assert controller.level == 1
        assert controller.rejected_levels == frozenset()


class TestTunableContract:
    """Every controller kind must expose searchable parameter metadata.

    The auto-tuner (repro.tune) can only search the ranges a kind declares,
    so the contract walks repro.control the same way the factory contract
    does: a Controller subclass outside the kind table, or a kind without
    search ranges, fails loudly here.
    """

    #: controller_options that satisfy each kind's construction requirements.
    KIND_OPTIONS = {"ladder": {"levels": 6}}

    def test_every_control_subclass_has_a_registered_kind(self):
        from repro.control import CONTROLLER_KINDS

        missing = [
            cls for cls in _control_subclasses()
            if cls not in CONTROLLER_KINDS.values()
        ]
        assert not missing, (
            f"Controller subclasses without a spec kind: {missing}; "
            "add them to repro.control.CONTROLLER_KINDS"
        )

    def test_every_spec_kind_has_tunables(self):
        from repro.control import CONTROLLER_KINDS
        from repro.tune.space import controller_tunables

        for kind, cls in CONTROLLER_KINDS.items():
            assert cls.search_ranges, f"controller kind {kind!r} declares no search ranges"
            params = controller_tunables(kind, self.KIND_OPTIONS.get(kind))
            assert params, f"controller kind {kind!r} has no tunable params"

    @pytest.mark.parametrize(
        "kind, options, expected",
        [
            ("step", {}, [("step", 1, 16, 1, False, True)]),
            (
                "proportional", {},
                [("gain", 0.05, 32.0, 1.0, True, False), ("max_step", 1, 16, 4, False, True)],
            ),
            (
                "pid", {},
                [
                    ("kp", 1e-3, 64.0, 1.0, True, False),
                    ("ki", 1e-4, 16.0, 0.2, True, False),
                    ("kd", 0.0, 8.0, 0.0, False, False),
                ],
            ),
            ("ladder", {}, [("climb_margin", 0.0, 2.0, 0.25, False, False)]),
            (
                "ladder", {"levels": 6},
                [
                    ("climb_margin", 0.0, 2.0, 0.25, False, False),
                    ("initial_level", 0, 5, 0, False, True),
                ],
            ),
        ],
        ids=["step", "proportional", "pid", "ladder-no-levels", "ladder-6-levels"],
    )
    def test_tunables_are_the_pinned_params(self, kind, options, expected):
        """Ranges from the class, defaults from the constructor: the same
        Params the per-kind tunable functions used to spell out by hand."""
        from repro.tune.space import Param, controller_tunables

        assert controller_tunables(kind, options) == tuple(
            Param(name, low, high, default=default, log=log, integer=integer)
            for name, low, high, default, log, integer in expected
        )

    @pytest.mark.parametrize("kind", ["step", "proportional", "pid", "ladder"])
    def test_bounds_present_and_defaults_in_bounds(self, kind):
        from repro.tune.space import controller_tunables

        for param in controller_tunables(kind, self.KIND_OPTIONS.get(kind)):
            assert math.isfinite(param.low) and math.isfinite(param.high)
            assert param.low < param.high
            assert param.low <= param.default <= param.high
            if param.log:
                assert param.low > 0

    @pytest.mark.parametrize("kind", ["step", "proportional", "pid", "ladder"])
    def test_defaults_construct_a_working_controller(self, kind):
        """Round-tripping the defaults through the spec builder must succeed."""
        from repro.adapt.spec import LoopSpec
        from repro.tune.space import controller_tunables

        options = dict(self.KIND_OPTIONS.get(kind, {}))
        for param in controller_tunables(kind, options):
            options[param.name] = param.from_unit(param.to_unit(param.default))
        rule = LoopSpec(match="*", controller=kind, controller_options=options)
        controller = rule.build_controller(CONTRACT_WINDOW)
        assert controller.decide(CONTRACT_WINDOW.midpoint).is_noop

    @pytest.mark.parametrize("kind", ["step", "proportional", "pid", "ladder"])
    def test_extremes_construct_a_working_controller(self, kind):
        """The search's phenotype bounds themselves must be buildable."""
        from repro.adapt.spec import LoopSpec
        from repro.tune.space import controller_tunables

        for unit in (0.0, 1.0):
            options = dict(self.KIND_OPTIONS.get(kind, {}))
            for param in controller_tunables(kind, options):
                options[param.name] = param.from_unit(unit)
            rule = LoopSpec(match="*", controller=kind, controller_options=options)
            decision = rule.build_controller(CONTRACT_WINDOW).decide(1.0)
            assert decision.delta is not None or decision.value is not None
