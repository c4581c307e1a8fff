"""The tuning driver: IPOP restarts, evaluation islands, metrics, flight log.

:class:`Tuner` wires the pieces together: it derives the search space from
the spec's ``tune = true`` rules, runs CMA-ES (restarting with a doubled
population whenever the strategy converges before the evaluation budget is
spent — the IPOP scheme) or the random-search baseline, and evaluates
candidates either inline or on a pool of worker processes
(``concurrent.futures``; candidates cross the boundary as plain dicts).

Determinism: every candidate's evaluation seed is a pure function of the
tuner seed, restart number, and generation — candidates within a generation
share one seed (common random numbers, so ranking compares gains rather
than noise draws) and generations rotate it (so the search cannot overfit
one noise realization).  The final baseline-versus-tuned comparison uses a
held-out seed no search generation ever saw.

>>> from repro.tune.objective import EvaluationConfig
>>> from repro.tune.presets import scheduler_preset
>>> cfg = EvaluationConfig(streams=2, ticks=6, beats_per_tick=2)
>>> tuner = Tuner(scheduler_preset(), config=cfg, budget=8, popsize=4, seed=3)
>>> result = tuner.run()
>>> result.evaluations >= 8
True
>>> sorted(result.best_values)
['loops[0].gain', 'loops[0].max_step']
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from repro.adapt.spec import AdaptSpec
from repro.obs import MetricsRegistry
from repro.obs.tracing import FlightRecorder
from repro.tune.cmaes import CMAES, RandomSearch
from repro.tune.objective import (
    EvalResult,
    EvaluationConfig,
    evaluate_payload,
)
from repro.tune.space import ParamSpace, TuneError, apply_values, spec_space

__all__ = ["Tuner", "TuneResult", "STRATEGIES"]

STRATEGIES = ("cmaes", "random")

#: Offset mixing the held-out comparison seed away from every search seed.
_HOLDOUT_SEED_OFFSET = 86_028_121


@dataclass(frozen=True, slots=True)
class TuneResult:
    """Outcome of one :meth:`Tuner.run`."""

    strategy: str
    evaluations: int
    generations: int
    restarts: int
    best_values: dict[str, float | int]
    best_score: float
    spec: AdaptSpec
    baseline_result: EvalResult
    tuned_result: EvalResult

    @property
    def baseline_score(self) -> float:
        return self.baseline_result.score

    @property
    def tuned_score(self) -> float:
        return self.tuned_result.score

    @property
    def improved(self) -> bool:
        """Did tuning beat the hand-written spec on the held-out evaluation?"""
        return self.tuned_result.settle_median < self.baseline_result.settle_median


class Tuner:
    """Population-based search over one spec's tunable controller options."""

    def __init__(
        self,
        spec: AdaptSpec,
        *,
        config: EvaluationConfig | None = None,
        strategy: str = "cmaes",
        budget: int = 64,
        popsize: int | None = None,
        sigma0: float = 0.3,
        workers: int = 0,
        seed: int = 0,
        max_restarts: int = 4,
        metrics: MetricsRegistry | None = None,
        flight_log: FlightRecorder | None = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise TuneError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
        if budget < 1:
            raise TuneError(f"budget must be >= 1, got {budget}")
        self.spec = spec
        self.space: ParamSpace = spec_space(spec)
        self.config = config if config is not None else EvaluationConfig()
        self.strategy = strategy
        self.budget = int(budget)
        self.popsize = popsize
        self.sigma0 = float(sigma0)
        self.workers = int(workers)
        self.seed = int(seed)
        self.max_restarts = int(max_restarts)
        self.log = flight_log
        metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics = metrics
        self._evaluations = metrics.counter(
            "tune_evaluations_total", help="Objective evaluations performed."
        )
        self._generation_best = metrics.gauge(
            "tune_generation_best", help="Best score seen in the latest generation."
        )
        self._eval_duration = metrics.histogram(
            "tune_evaluation_duration_seconds", help="Wall seconds per evaluation."
        )

    # ------------------------------------------------------------------ #
    def _make_strategy(self, restart: int) -> Union[CMAES, RandomSearch]:
        if self.strategy == "random":
            return RandomSearch(
                self.space.dimension,
                popsize=self.popsize or 8,
                seed=self.seed,
            )
        popsize = self.popsize or (4 + int(3 * np.log(self.space.dimension + 1)))
        return CMAES(
            self.space.initial(),
            sigma0=self.sigma0,
            popsize=popsize * (2**restart),
            seed=self.seed + restart,
        )

    def _evaluate_batch(
        self, specs: list[AdaptSpec], config: EvaluationConfig, pool: ProcessPoolExecutor | None
    ) -> list[EvalResult]:
        payloads = [{"spec": s.to_dict(), "config": config.to_dict()} for s in specs]
        if pool is None:
            raws = [evaluate_payload(p) for p in payloads]
        else:
            raws = list(pool.map(evaluate_payload, payloads))
        results = []
        for raw in raws:
            self._evaluations.inc()
            self._eval_duration.observe(float(raw.get("elapsed_seconds", 0.0)))
            results.append(EvalResult.from_dict(raw))
        return results

    def run(self) -> TuneResult:
        """Search until the budget is spent, then compare against the baseline."""
        pool = ProcessPoolExecutor(max_workers=self.workers) if self.workers > 0 else None
        try:
            return self._run(pool)
        finally:
            if pool is not None:
                pool.shutdown()

    def _run(self, pool: ProcessPoolExecutor | None) -> TuneResult:
        spent = 0
        generations = 0
        restart = 0
        best_score = float("inf")
        best_values: dict[str, float | int] = self.space.decode(self.space.initial())
        while spent < self.budget and restart <= self.max_restarts:
            strategy = self._make_strategy(restart)
            if self.log is not None:
                self.log.write(
                    "restart", restart=restart, strategy=self.strategy,
                    popsize=strategy.popsize,
                )
            while spent < self.budget and strategy.stop() is None:
                genotypes = strategy.ask()
                values = [self.space.decode(self.space.clip(g)) for g in genotypes]
                candidates = [apply_values(self.spec, v) for v in values]
                gen_seed = self.seed + 1_000 * restart + generations
                config = replace(self.config, seed=gen_seed)
                started = time.perf_counter()
                results = self._evaluate_batch(candidates, config, pool)
                elapsed = time.perf_counter() - started
                scores = [r.score for r in results]
                strategy.tell(genotypes, scores)
                gen_best = int(np.argmin(scores))
                if scores[gen_best] < best_score:
                    best_score = scores[gen_best]
                    best_values = values[gen_best]
                self._generation_best.set(scores[gen_best])
                spent += len(results)
                generations += 1
                if self.log is not None:
                    for k, (v, r) in enumerate(zip(values, results)):
                        self.log.write(
                            "evaluation", generation=generations - 1, candidate=k,
                            seed=gen_seed, values=v, **r.to_dict(),
                        )
                    self.log.write(
                        "generation", generation=generations - 1, seed=gen_seed,
                        best_score=scores[gen_best], best_values=values[gen_best],
                        evaluations=spent, elapsed_seconds=elapsed,
                    )
            if self.strategy == "random":
                break  # random search never converges; one pass spends the budget
            restart += 1

        tuned_spec = apply_values(self.spec, best_values)
        holdout = replace(self.config, seed=self.seed + _HOLDOUT_SEED_OFFSET)
        baseline_result, tuned_result = self._evaluate_batch(
            [self.spec, tuned_spec], holdout, pool
        )
        result = TuneResult(
            strategy=self.strategy,
            evaluations=spent,
            generations=generations,
            restarts=restart if self.strategy != "random" else 0,
            best_values=best_values,
            best_score=best_score,
            spec=tuned_spec,
            baseline_result=baseline_result,
            tuned_result=tuned_result,
        )
        if self.log is not None:
            self.log.write(
                "result", strategy=self.strategy, evaluations=spent,
                generations=generations, best_score=best_score,
                best_values=best_values, baseline=baseline_result.to_dict(),
                tuned=tuned_result.to_dict(), improved=result.improved,
            )
        return result
