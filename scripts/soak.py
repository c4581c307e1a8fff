#!/usr/bin/env python3
"""Repeat test files in fresh processes beside busy-loop children, and count failures.

    python scripts/soak.py tests/test_relay_news.py tests/test_net_ingest_runs.py --runs 20 --busy 2

Each run is one new ``python -m pytest FILE -q`` process per file, with the
repository's ``src`` first on ``PYTHONPATH``.  While the runs go, ``--busy K``
child processes of this script spin on the CPU (``K`` is capped at the
host's CPU count); nothing else about the host is changed — no affinity, no
priority, no cgroup or kernel setting.  The full output of every failing run
is kept under ``--out`` (one ``.log`` per run, with its junit XML beside it),
and the script ends with one markdown table per file: every test that
failed at least once, how often, and in which kept runs.  It exits 1 when
any run failed, else 0.
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spin() -> None:  # pragma: no cover - runs in a child until terminated
    while True:
        pass


def _failed_tests(junit: Path) -> list[str]:
    """``module.Class::test`` of every failing or erroring case in a junit XML file."""
    return [
        f"{case.get('classname')}::{case.get('name')}"
        for case in ElementTree.parse(junit).getroot().iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    ]


def _run(test_file: str, out: Path, tag: str, timeout: float) -> tuple[bool, list[str], float]:
    """One fresh pytest process over ``test_file``: ``(passed, failing ids, seconds)``."""
    junit = out / f"{tag}.xml"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "pytest", test_file, "-q", "-p", "no:cacheprovider", f"--junitxml={junit}"]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        output, code = proc.stdout + proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:  # its captured output may be bytes
        parts = (exc.stdout, exc.stderr)
        output = "".join(part.decode(errors="replace") if isinstance(part, bytes) else part or "" for part in parts)
        output += f"\n(timed out after {timeout:.0f} s)\n"
        code = -1
    seconds = time.monotonic() - start
    failed = _failed_tests(junit) if junit.exists() and code != -1 else []
    if code == 0:
        junit.unlink(missing_ok=True)
        return True, [], seconds
    (out / f"{tag}.log").write_text(" ".join(command) + "\n\n" + output)
    return False, failed or [f"{test_file} (exit {code})"], seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="test files to repeat")
    parser.add_argument("--runs", type=int, default=10, help="fresh processes per file (default 10)")
    parser.add_argument("--busy", type=int, default=0, help="busy-loop children beside the runs (at most the CPUs)")
    parser.add_argument("--out", type=Path, default=ROOT / "out" / "soak", help="where failing runs' output is kept")
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds before one run counts as failed")
    args = parser.parse_args(argv)
    busy = max(0, min(args.busy, os.cpu_count() or 1))
    args.out.mkdir(parents=True, exist_ok=True)
    spinners = [mp.Process(target=_spin, daemon=True) for _ in range(busy)]
    for spinner in spinners:
        spinner.start()
    failures: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
    seconds: dict[str, list[float]] = defaultdict(list)
    try:
        for run in range(args.runs):
            for test_file in args.files:
                tag = f"{Path(test_file).stem}-busy{busy}-run{run:03d}"
                passed, failed, spent = _run(test_file, args.out, tag, args.timeout)
                seconds[test_file].append(spent)
                for test in failed:
                    failures[test_file][test].append(tag)
                print(f"{tag}: {'ok' if passed else 'FAILED ' + ', '.join(failed)} ({spent:.1f} s)", flush=True)
    finally:
        for spinner in spinners:
            spinner.terminate()
            spinner.join()
    for test_file in args.files:
        spent = sorted(seconds[test_file])
        print(f"\n{test_file}: {args.runs} runs beside {busy} busy children, median {spent[len(spent) // 2]:.1f} s")
        print("\n| test | failed runs | kept output |\n|---|---|---|")
        for test, tags in sorted(failures[test_file].items()):
            print(f"| `{test}` | {len(tags)} of {args.runs} | {', '.join(tag + '.log' for tag in tags)} |")
        if not failures[test_file]:
            print(f"| (none) | 0 of {args.runs} | |")
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
