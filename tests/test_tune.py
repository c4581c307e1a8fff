"""Tests for the auto-tuning subsystem (repro.tune)."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from repro.adapt.spec import AdaptSpec, SpecError
from repro.obs import MetricsRegistry
from repro.obs.tracing import FlightRecorder
from repro.tune import (
    CMAES,
    EvaluationConfig,
    RandomSearch,
    Tuner,
    evaluate_spec,
    scheduler_preset,
    write_tuned_spec,
)
from repro.tune.objective import PROFILES, evaluate_payload
from repro.tune.space import (
    Param,
    ParamSpace,
    TuneError,
    apply_values,
    controller_tunables,
    spec_space,
)

#: Small-but-real evaluation the optimizer tests share.
SMALL = EvaluationConfig(streams=6, ticks=16, beats_per_tick=4)


# --------------------------------------------------------------------- #
# Parameter spaces
# --------------------------------------------------------------------- #
class TestParam:
    def test_linear_round_trip(self):
        p = Param("kd", 0.0, 8.0, default=2.0)
        for value in (0.0, 2.0, 8.0, 3.3):
            assert p.from_unit(p.to_unit(value)) == pytest.approx(value)

    def test_log_round_trip(self):
        p = Param("gain", 0.05, 32.0, default=1.0, log=True)
        for value in (0.05, 1.0, 32.0, 4.0):
            assert p.from_unit(p.to_unit(value)) == pytest.approx(value)

    def test_log_is_log_spaced(self):
        p = Param("gain", 0.01, 100.0, default=1.0, log=True)
        assert p.from_unit(0.5) == pytest.approx(1.0)

    def test_integer_snaps_and_clamps(self):
        p = Param("max_step", 1, 16, default=4, integer=True)
        assert p.from_unit(0.0) == 1
        assert p.from_unit(1.0) == 16
        assert isinstance(p.from_unit(0.37), int)
        assert p.from_unit(2.0) == 16  # out-of-cube input clips

    def test_validation(self):
        with pytest.raises(TuneError):
            Param("bad", 2.0, 1.0, default=1.5)
        with pytest.raises(TuneError):
            Param("bad", 0.0, 1.0, default=0.5, log=True)
        with pytest.raises(TuneError):
            Param("bad", 0.0, 1.0, default=3.0)

    def test_clamped_default(self):
        p = Param("gain", 0.05, 32.0, default=1.0, log=True)
        assert p.clamped_default(4.0).default == 4.0
        assert p.clamped_default(1000.0).default == 32.0
        assert p.clamped_default(None).default == 1.0
        assert p.clamped_default("junk").default == 1.0


class TestParamSpace:
    def test_decode_encode(self):
        space = ParamSpace(
            [
                Param("gain", 0.05, 32.0, default=1.0, log=True),
                Param("max_step", 1, 16, default=4, integer=True),
            ]
        )
        values = space.decode(space.initial())
        assert values["gain"] == pytest.approx(1.0)
        assert values["max_step"] == 4
        encoded = space.encode(values)
        assert np.allclose(encoded, space.initial(), atol=1e-9)

    def test_duplicate_names_rejected(self):
        p = Param("x", 0.0, 1.0, default=0.5)
        with pytest.raises(TuneError):
            ParamSpace([p, p])

    def test_empty_rejected(self):
        with pytest.raises(TuneError):
            ParamSpace([])


class TestSpecSpace:
    def test_qualified_names_and_defaults_from_spec(self):
        spec = scheduler_preset()
        space = spec_space(spec)
        assert space.names == ("loops[0].gain", "loops[0].max_step")
        values = space.decode(space.initial())
        # Search starts at the hand-written values.
        assert values["loops[0].gain"] == pytest.approx(0.4)
        assert values["loops[0].max_step"] == 1

    def test_no_tuned_rules_raises(self):
        spec = AdaptSpec.from_dict(
            {"loops": [{"match": "a-*", "controller": "step"}]}
        )
        with pytest.raises(TuneError):
            spec_space(spec)

    def test_apply_values_substitutes_only_tuned_rules(self):
        spec = AdaptSpec.from_dict(
            {
                "loops": [
                    {"match": "a-*", "controller": {"kind": "proportional"}, "tune": True},
                    {"match": "b-*", "controller": "step"},
                ]
            }
        )
        tuned = apply_values(spec, {"loops[0].gain": 3.0, "loops[0].max_step": 6})
        assert tuned.loops[0].controller_options == {"gain": 3.0, "max_step": 6}
        assert tuned.loops[1] == spec.loops[1]
        with pytest.raises(TuneError):
            apply_values(spec, {"loops[1].step": 2})  # rule not tuned
        with pytest.raises(TuneError):
            apply_values(spec, {"loops[9].gain": 1.0})  # no such rule
        with pytest.raises(TuneError):
            apply_values(spec, {"gain": 1.0})  # unqualified
        with pytest.raises(TuneError, match="gian"):
            apply_values(spec, {"loops[0].gian": 1.0})  # the kind takes no such option

    def test_ladder_tunables_scale_with_levels(self):
        params = {p.name: p for p in controller_tunables("ladder", {"levels": 8})}
        assert params["initial_level"].high == 7
        assert "initial_level" not in {
            p.name for p in controller_tunables("ladder", {})
        }


# --------------------------------------------------------------------- #
# CMA-ES
# --------------------------------------------------------------------- #
class TestCMAES:
    def test_converges_on_sphere(self):
        optimum = np.array([0.2, 0.8, 0.5])
        es = CMAES(np.full(3, 0.5), sigma0=0.3, seed=3)
        while es.stop() is None and es.generation < 200:
            xs = es.ask()
            es.tell(xs, [float(np.sum((x - optimum) ** 2)) for x in xs])
        assert es.best_f < 1e-6
        assert np.all(np.abs(es.best_x - optimum) < 1e-2)

    def test_converges_on_rosenbrock(self):
        es = CMAES(np.array([0.1, 0.1]), sigma0=0.3, seed=0, maxiter=400)
        while es.stop() is None:
            xs = es.ask()
            es.tell(xs, [float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2) for x in xs])
        assert es.best_f < 1e-6

    def test_deterministic_given_seed(self):
        def run(seed):
            es = CMAES(np.full(2, 0.5), sigma0=0.3, seed=seed)
            for _ in range(5):
                xs = es.ask()
                es.tell(xs, [float(np.sum(x**2)) for x in xs])
            return es.best_f, es.best_x

        fa, xa = run(9)
        fb, xb = run(9)
        assert fa == fb and np.array_equal(xa, xb)
        fc, _ = run(10)
        assert fc != fa

    def test_beats_random_on_sphere_at_equal_budget(self):
        optimum = np.array([0.3, 0.7, 0.2, 0.9])

        def sphere(x):
            return float(np.sum((x - optimum) ** 2))

        es = CMAES(np.full(4, 0.5), sigma0=0.3, seed=1)
        budget = 400
        spent = 0
        while spent < budget and es.stop() is None:
            xs = es.ask()
            es.tell(xs, [sphere(x) for x in xs])
            spent += len(xs)
        rs = RandomSearch(4, popsize=es.popsize, seed=1)
        r_spent = 0
        while r_spent < spent:
            xs = rs.ask()
            rs.tell(xs, [sphere(x) for x in xs])
            r_spent += len(xs)
        assert es.best_f < rs.best_f

    def test_tell_requires_ask(self):
        es = CMAES(np.full(2, 0.5))
        with pytest.raises(RuntimeError):
            es.tell([np.zeros(2)] * es.popsize, [0.0] * es.popsize)

    def test_popsize_mismatch_rejected(self):
        es = CMAES(np.full(2, 0.5))
        es.ask()
        with pytest.raises(ValueError):
            es.tell([np.zeros(2)], [0.0])


# --------------------------------------------------------------------- #
# Objective
# --------------------------------------------------------------------- #
class TestObjective:
    def test_bit_determinism(self):
        cfg = EvaluationConfig(streams=4, ticks=8, beats_per_tick=3, seed=11)
        assert evaluate_spec(scheduler_preset(), cfg) == evaluate_spec(
            scheduler_preset(), cfg
        )

    def test_seed_changes_the_draw(self):
        a = evaluate_spec(
            scheduler_preset(), EvaluationConfig(streams=4, ticks=8, seed=1)
        )
        b = evaluate_spec(
            scheduler_preset(), EvaluationConfig(streams=4, ticks=8, seed=2)
        )
        assert a != b

    @pytest.mark.parametrize("profile", PROFILES)
    def test_profiles_run_and_score(self, profile):
        cfg = EvaluationConfig(streams=4, ticks=10, beats_per_tick=3, profile=profile)
        result = evaluate_spec(scheduler_preset(), cfg)
        assert math.isfinite(result.score)
        assert 0.0 <= result.in_window_fraction <= 1.0
        assert result.streams == 4 and result.ticks == 10

    def test_aggressive_gains_settle_faster(self):
        cfg = EvaluationConfig(streams=6, ticks=16, seed=5)
        base = evaluate_spec(scheduler_preset(), cfg)
        fast = apply_values(
            scheduler_preset(), {"loops[0].gain": 2.0, "loops[0].max_step": 8}
        )
        assert evaluate_spec(fast, cfg).settle_median < base.settle_median

    def test_spec_must_match_harness_streams(self):
        spec = AdaptSpec.from_dict(
            {"loops": [{"match": "nomatch-*", "actuator": "cores", "tune": True}]}
        )
        with pytest.raises(TuneError):
            evaluate_spec(spec, EvaluationConfig(streams=2, ticks=2))

    def test_payload_round_trip(self):
        cfg = EvaluationConfig(streams=3, ticks=6)
        payload = {"spec": scheduler_preset().to_dict(), "config": cfg.to_dict()}
        raw = evaluate_payload(payload)
        assert raw["elapsed_seconds"] > 0
        direct = evaluate_spec(scheduler_preset(), cfg)
        assert raw["score"] == direct.score
        assert raw["settle_median"] == direct.settle_median

    def test_config_validation(self):
        with pytest.raises(TuneError):
            EvaluationConfig(streams=0)
        with pytest.raises(TuneError):
            EvaluationConfig(profile="lumpy")
        with pytest.raises(TuneError):
            EvaluationConfig(target=(12.0, 10.0))


# --------------------------------------------------------------------- #
# Optimizer
# --------------------------------------------------------------------- #
class TestTuner:
    def test_run_is_deterministic(self):
        a = Tuner(scheduler_preset(), config=SMALL, budget=16, popsize=4, seed=2).run()
        b = Tuner(scheduler_preset(), config=SMALL, budget=16, popsize=4, seed=2).run()
        assert a.best_values == b.best_values
        assert a.best_score == b.best_score
        assert a.tuned_result == b.tuned_result

    def test_workers_match_inline(self):
        inline = Tuner(
            scheduler_preset(), config=SMALL, budget=12, popsize=4, seed=0, workers=0
        ).run()
        pooled = Tuner(
            scheduler_preset(), config=SMALL, budget=12, popsize=4, seed=0, workers=2
        ).run()
        assert pooled.best_values == inline.best_values
        assert pooled.best_score == inline.best_score
        assert pooled.tuned_result == inline.tuned_result

    def test_tuned_spec_beats_baseline(self):
        result = Tuner(
            scheduler_preset(), config=SMALL, budget=32, popsize=8, seed=0
        ).run()
        assert result.improved
        assert result.tuned_result.settle_median < result.baseline_result.settle_median
        # The tuned spec round-trips and still differs from the baseline.
        assert AdaptSpec.parse(result.spec.to_toml()) == result.spec
        assert result.spec != scheduler_preset()

    def test_cmaes_beats_random_at_equal_budget(self):
        """The tune-smoke acceptance pin: same budget, same seed, same config."""
        cmaes = Tuner(
            scheduler_preset(), config=SMALL, budget=32, popsize=8, seed=0
        ).run()
        random = Tuner(
            scheduler_preset(), config=SMALL, budget=32, popsize=8, seed=0,
            strategy="random",
        ).run()
        assert cmaes.evaluations == random.evaluations
        assert cmaes.best_score <= random.best_score

    def test_metrics_and_flight_log(self):
        registry = MetricsRegistry()
        buffer = io.StringIO()
        result = Tuner(
            scheduler_preset(),
            config=EvaluationConfig(streams=3, ticks=8),
            budget=8,
            popsize=4,
            seed=1,
            metrics=registry,
            flight_log=FlightRecorder(buffer),
        ).run()
        rendered = registry.as_dict()
        assert rendered["tune_evaluations_total"] == pytest.approx(
            result.evaluations + 2  # search + the held-out baseline/tuned pair
        )
        assert "tune_generation_best" in rendered
        assert any(k.startswith("tune_evaluation_duration_seconds") for k in rendered)
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert all(next(iter(e)) == "kind" for e in events)
        kinds = {e["kind"] for e in events}
        assert {"restart", "evaluation", "generation", "result"} <= kinds
        evaluations = [e for e in events if e["kind"] == "evaluation"]
        assert len(evaluations) == result.evaluations
        final = events[-1]
        assert final["kind"] == "result"
        assert final["best_score"] == result.best_score

    def test_budget_and_strategy_validation(self):
        with pytest.raises(TuneError):
            Tuner(scheduler_preset(), budget=0)
        with pytest.raises(TuneError):
            Tuner(scheduler_preset(), strategy="simulated-annealing")

    def test_ipop_restart_doubles_population(self):
        tuner = Tuner(scheduler_preset(), budget=8, popsize=4, seed=0)
        assert tuner._make_strategy(0).popsize == 4
        assert tuner._make_strategy(1).popsize == 8
        assert tuner._make_strategy(2).popsize == 16


# --------------------------------------------------------------------- #
# Emission
# --------------------------------------------------------------------- #
class TestEmit:
    def test_write_tuned_spec_round_trips(self, tmp_path):
        spec = scheduler_preset()
        out = tmp_path / "tuned.toml"
        text = write_tuned_spec(spec, out)
        assert out.read_text() == text
        assert AdaptSpec.from_file(str(out)) == spec

    def test_write_is_atomic_on_validation_failure(self, tmp_path, monkeypatch):
        out = tmp_path / "tuned.toml"
        out.write_text("keep me")
        monkeypatch.setattr(
            AdaptSpec, "parse", classmethod(lambda cls, text: scheduler_preset())
        )
        broken = AdaptSpec.from_dict(
            {"loops": [{"match": "x-*", "controller": "step"}]}
        )
        with pytest.raises(SpecError):
            write_tuned_spec(broken, out)
        assert out.read_text() == "keep me"
        assert list(tmp_path.iterdir()) == [out]  # no temp litter

    def test_flight_log_owns_files(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with FlightRecorder(path) as log:
            log.write("evaluation", score=1.0)
            log.write("result", best=1.0)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == '{"kind":"evaluation","score":1.0}'
        buffer = io.StringIO()
        with FlightRecorder(buffer) as log:
            log.write("result", best=1.0)
        assert not buffer.closed  # a caller's stream is only let go of
        assert json.loads(buffer.getvalue()) == {"kind": "result", "best": 1.0}


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestTuneCli:
    def test_tune_preset_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "tuned.toml"
        log = tmp_path / "flight.jsonl"
        rc = main(
            [
                "tune", "--spec", "scheduler", "--out", str(out), "--log", str(log),
                "--budget", "12", "--popsize", "4", "--streams", "4", "--ticks", "10",
                "--seed", "0",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "baseline:" in captured and "tuned:" in captured
        tuned = AdaptSpec.from_file(str(out))
        assert tuned.loops[0].tune is True
        assert log.exists() and log.read_text().count("\n") >= 12

    def test_tune_spec_file_and_random_strategy(self, tmp_path):
        from repro.cli import main

        spec_path = tmp_path / "base.json"
        spec_path.write_text(json.dumps(scheduler_preset().to_dict()))
        out = tmp_path / "tuned.toml"
        rc = main(
            [
                "tune", "--spec", str(spec_path), "--out", str(out),
                "--strategy", "random", "--budget", "8", "--popsize", "4",
                "--streams", "3", "--ticks", "8",
            ]
        )
        assert rc == 0
        assert out.exists()

    def test_tune_rejects_bad_spec(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.toml"
        assert main(["tune", "--spec", str(missing), "--out", str(tmp_path / "o.toml")]) == 2
        untunable = tmp_path / "plain.json"
        untunable.write_text(
            json.dumps({"loops": [{"match": "sim-*", "actuator": "cores"}]})
        )
        assert main(["tune", "--spec", str(untunable), "--out", str(tmp_path / "o.toml")]) == 2
        err = capsys.readouterr().err
        assert "tune = true" in err


# --------------------------------------------------------------------- #
# The ROADMAP acceptance pin: tuned beats hand-written at 1k streams
# --------------------------------------------------------------------- #
class TestThousandStreamRegression:
    def test_tuned_beats_handwritten_on_median_settle_at_1k_streams(self):
        """Deterministic-seed regression: search small, validate at fleet scale."""
        search_cfg = EvaluationConfig(streams=6, ticks=16, beats_per_tick=4)
        result = Tuner(
            scheduler_preset(), config=search_cfg, budget=32, popsize=8, seed=0
        ).run()

        fleet_cfg = EvaluationConfig(
            streams=1000, ticks=16, beats_per_tick=4, seed=2024
        )
        baseline = evaluate_spec(scheduler_preset(), fleet_cfg)
        tuned = evaluate_spec(result.spec, fleet_cfg)
        assert tuned.settle_median < baseline.settle_median, (
            f"tuned {tuned.settle_median:.2f}s !< baseline {baseline.settle_median:.2f}s"
        )
        assert tuned.in_window_fraction > baseline.in_window_fraction
        assert tuned.unsettled_streams == 0
