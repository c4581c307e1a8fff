"""The heartbeat ledger: five named workloads, end-to-end and per-layer metrics.

One run, as the benchmark contract drives it (the last stdout line is the
result object)::

    python3 benchmarks/ledger/run.py --workload wire-tree --seed 1 --seconds 20 --trace 0

Every workload, as a person drives it (writes a run set for ``compare``)::

    python3 benchmarks/ledger/run.py [--seed N] [--trace] [--quick] [--out PATH]
    python3 benchmarks/ledger/run.py compare A.json B.json

``--trace 0`` is the untraced multi-process run that yields every end-to-end
metric; ``--trace 1`` is the single-process traced chain replay plus the
layer probes that yield every per-layer metric.  Metric names, units,
directions and bounds are read from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterator

from common import LOST_SHARE_BOUND, OUT_DIR, REPO_ROOT

#: A single run must end well inside the contract's 180 s.
_HARD_TIMEOUT_S = 170
_QUICK_SECONDS = 3
#: Untraced runs per workload in a run set.
_RUNS_PER_WORKLOAD = 3


def load_contract() -> dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def host_fingerprint() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "machine": platform.machine(),
    }


def _on_timeout(signum: int, frame: object) -> None:
    raise TimeoutError(f"run exceeded the {_HARD_TIMEOUT_S} s hard timeout")


@contextlib.contextmanager
def timed_scratch() -> Iterator[Path]:
    """A scratch directory under ``out/`` and the hard timeout, both ended on exit."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="tmp-"))
    signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(_HARD_TIMEOUT_S)
    try:
        yield scratch
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)


def probe_layers(seed: int) -> dict[str, dict[str, Any]]:
    """The layer probes' metrics, once for a run set: no workload is in them."""
    import probes

    with timed_scratch() as scratch:
        return probes.run_probes(seed, scratch)


def one_run(
    contract: dict[str, Any],
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    probed: dict[str, dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """One run of one workload: its listed metrics, checks and ungated extras.

    A traced run takes the probes' metrics from ``probed`` when a run set has
    measured them already.
    """
    with timed_scratch() as scratch:
        if trace:
            import probes
            import replay

            measured = replay.run_replay(workload, seed, scratch)
            measured.update(probed if probed is not None else probes.run_probes(seed, scratch))
            listed = contract["per_layer"]
            missing = {"value": None, "reason": "nothing measures this name"}
            metrics = {m["name"]: {**measured.get(m["name"], missing), "unit": m["unit"]} for m in listed}
            nulls = [name for name, metric in metrics.items() if metric["value"] is None]
            errors = metrics.get("net.async_collector.protocol_errors", {}).get("value")
            checks = {"no_protocol_errors": errors in (0, None)}
            run = {
                "correct": all(checks.values()),
                "attempted": len(listed),
                "failed": len(nulls),
                "checks": checks,
                "disturbed": [],
                "extra": {name: v["value"] for name, v in measured.items() if name not in metrics},
            }
        else:
            import spec
            import workloads

            run = workloads.run_workload(spec.BY_NAME[workload], seed, seconds, scratch)
            measured = run.pop("metrics")
            listed = contract["end_to_end"]
            metrics = {m["name"]: {"value": measured.pop(m["name"]), "unit": m["unit"]} for m in listed}
            run["extra"] = {**measured, **run.pop("detail")}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, **run, "metrics": metrics}


def print_run(contract: dict[str, Any], run: dict[str, Any]) -> None:
    listed = contract["per_layer"] if run["trace"] else contract["end_to_end"]
    kind = "per-layer (traced replay + probes)" if run["trace"] else "end-to-end (untraced, two processes)"
    print(f"== {run['workload']}  seed={run['seed']}  seconds={run['seconds']}  {kind}")
    print(f"   {'metric':<52} {'value':>14}  {'unit':<12} {'better':<7} bound")
    for m in listed:
        metric = run["metrics"][m["name"]]
        value = "null" if metric["value"] is None else f"{metric['value']:.6g}"
        bound = m.get("bound", "-")
        print(f"   {m['name']:<52} {value:>14}  {m['unit']:<12} {m['better']:<7} {bound}")
        if metric["value"] is None:
            print(f"      reason: {metric.get('reason')}")
    lost_share = run["failed"] / max(run["attempted"], 1)
    print(
        f"   attempted={run['attempted']} failed={run['failed']} "
        f"lost_share={lost_share:.3g} (bound {LOST_SHARE_BOUND})"
    )
    for name, ok in run["checks"].items():
        print(f"   check {name}: {'ok' if ok else 'VIOLATED'}")
    for name, value in run["extra"].items():
        if not isinstance(value, list) or len(value) <= 4:
            print(f"   extra {name} = {value:.6g}" if isinstance(value, float) else f"   extra {name} = {value}")
    if run.get("stderr"):
        print("   observer stderr:\n" + run["stderr"])
    for name in run["disturbed"]:
        print(f"   condition {name}: NOT MET (the run is left out by compare)")
    print(f"   => {'valid' if run['correct'] else 'INVALID'}{', disturbed' if run['disturbed'] else ''}")


def result_line(run: dict[str, Any]) -> str:
    """The contract's result object: exactly ``correct``, ``attempted``, ``failed``, ``metrics``."""
    return json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")})


def run_all(contract: dict[str, Any], args: argparse.Namespace) -> int:
    runs = []
    probed = probe_layers(args.seed) if args.trace else None
    for workload in contract["workloads"]:
        for _ in range(_RUNS_PER_WORKLOAD):
            runs.append(one_run(contract, workload["name"], args.seed, args.seconds, 0))
            print_run(contract, runs[-1])
        if args.trace:
            runs.append(one_run(contract, workload["name"], args.seed, args.seconds, 1, probed))
            print_run(contract, runs[-1])
    run_set = {
        "schema": 1,
        "claim": None,
        "quick": args.quick,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_fingerprint(),
        "runs": runs,
    }
    out = Path(args.out) if args.out else OUT_DIR / f"runset-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(run_set, indent=1) + "\n")
    print(f"run set written to {out}")
    return 0 if all(run["correct"] for run in runs) else 1


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #
def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(contract: dict[str, Any], path_a: str, path_b: str) -> int:
    """Per (workload, metric): medians, quartiles, ratio with its base, verdict."""
    sets = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    if sets[0]["quick"] != sets[1]["quick"]:
        print("refusing to compare a --quick run set with a full one", file=sys.stderr)
        return 2
    verdicts: dict[str, int] = {"PASS": 0, "REGRESS": 0, "UNRESOLVED": 0}
    print(f"A = {path_a} (base)   B = {path_b}")
    print(f"{'workload':<20} {'metric':<26} {'A q1/med/q3':>34} {'B q1/med/q3':>34} {'B/A':>7} {'bound':>6}  verdict")
    for workload in contract["workloads"]:
        for m in contract["end_to_end"]:
            samples = []
            for run_set in sets:
                samples.append(
                    [
                        run["metrics"][m["name"]]["value"]
                        for run in run_set["runs"]
                        if run["workload"] == workload["name"]
                        and not run["trace"]
                        and run["correct"]
                        and not run["disturbed"]
                    ]
                )
            if not samples[0] or not samples[1]:
                continue
            (a1, a2, a3), (b1, b2, b3) = _quartiles(samples[0]), _quartiles(samples[1])
            sign = 1.0 if m["better"] == "lower" else -1.0
            every_b_better = all(sign * (b - a) < 0 for a in samples[0] for b in samples[1])
            if a2 == 0 or b2 == 0:
                verdict = "UNRESOLVED"  # no base to take a share of
            elif every_b_better:
                verdict = "PASS"
            elif max((a3 - a1) / a2, (b3 - b1) / b2) > m["bound"]:
                verdict = "UNRESOLVED"  # a set's own spread is wider than the bound
            elif sign * (b2 - a2) / a2 <= m["bound"]:
                verdict = "PASS"
            else:
                verdict = "REGRESS"
            verdicts[verdict] += 1
            ratio = b2 / a2 if a2 else float("nan")
            print(
                f"{workload['name']:<20} {m['name']:<26} {f'{a1:.5g}/{a2:.5g}/{a3:.5g}':>34} "
                f"{f'{b1:.5g}/{b2:.5g}/{b3:.5g}':>34} {ratio:>7.3f} {m['bound']:>6}  {verdict}"
            )
    lost = max(
        (
            run["failed"] / max(run["attempted"], 1)
            for run_set in sets
            for run in run_set["runs"]
            if not run["trace"]
        ),
        default=0.0,
    )
    invalid = sum(1 for run_set in sets for run in run_set["runs"] if not run["correct"])
    disturbed = sum(1 for run_set in sets for run in run_set["runs"] if run["disturbed"])
    print(
        f"lost_share max = {lost:.3g} (absolute bound {LOST_SHARE_BOUND}); "
        f"invalid runs = {invalid}; disturbed runs left out = {disturbed}"
    )
    print("  ".join(f"{name}={count}" for name, count in verdicts.items()))
    return 1 if verdicts["REGRESS"] or invalid or lost > LOST_SHARE_BOUND else 0


def _stop_resource_tracker() -> None:
    """``multiprocessing.shared_memory`` starts a tracker process; end it with us."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str]) -> int:
    try:
        contract = load_contract()
        import repro  # noqa: F401  (a checkout without src/ cannot be measured)
    except (OSError, ImportError) as exc:
        print(f"ledger: cannot run here: {exc}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(contract, argv[1], argv[2])

    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run one workload once (the contract's form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help=f"{_QUICK_SECONDS} s phases; stamps the run set")
    parser.add_argument("--out", help="run-set path (all-workloads form only)")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = _QUICK_SECONDS
    try:
        if args.workload is None:
            return run_all(contract, args)
        run = one_run(contract, args.workload, args.seed, args.seconds, args.trace)
        print_run(contract, run)
        print(result_line(run))
        return 0 if run["correct"] else 1
    finally:
        _stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
