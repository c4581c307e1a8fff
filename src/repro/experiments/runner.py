"""Command-line runner regenerating every table and figure.

``repro-experiments``, the command ``pip install`` puts on the path
(``python -m repro.experiments.runner`` from a source tree), runs any
subset of the experiments at full size and prints their tables, then one
claim / measured / band / verdict line per full-size row of
:mod:`repro.experiments.claims`; it exits 1 when a claim fails.
``--output`` additionally appends the text to a file.

Examples
--------
Run everything::

    repro-experiments all

Run only the scheduler figures::

    repro-experiments fig5 fig6 fig7
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.experiments import claims
from repro.experiments.base import ExperimentResult

__all__ = ["main", "run_experiments", "available_experiments"]


def available_experiments() -> list[str]:
    """Names of every experiment, in the order ``claims.EXPERIMENTS`` lists them."""
    return list(claims.EXPERIMENTS)


def run_experiments(names: Sequence[str]) -> list[ExperimentResult]:
    """Run the named experiments (``["all"]`` runs every one) and return results."""
    selected = available_experiments() if list(names) == ["all"] else list(names)
    unknown = [n for n in selected if n not in claims.EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {unknown}; available: {available_experiments()}"
        )
    return [claims.EXPERIMENTS[name]() for name in selected]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the Application Heartbeats paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=f"experiment names (default: all). Available: {', '.join(available_experiments())}",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--output", type=str, default=None, help="also append the report text to this file"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in available_experiments():
            print(name)
        return 0
    names = args.experiments or ["all"]
    chunks: list[str] = []
    start = time.perf_counter()
    try:
        results = run_experiments(names)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    failed = 0
    for result in results:
        verdicts = claims.check(result, "full")
        failed += sum(not holds for _, _, holds in verdicts)
        text = "\n".join([result.to_text(), *(claims.verdict_line(*verdict) for verdict in verdicts)])
        chunks.append(text)
        print(text)
        print()
    elapsed = time.perf_counter() - start
    footer = f"ran {len(results)} experiment(s) in {elapsed:.1f}s; {failed} claim(s) failed"
    print(footer)
    if args.output:
        with open(args.output, "a", encoding="utf-8") as fh:
            fh.write("\n\n".join(chunks) + "\n" + footer + "\n")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - direct execution
    raise SystemExit(main())
