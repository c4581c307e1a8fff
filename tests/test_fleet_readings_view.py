"""``FleetSample.readings`` is a sequence view: rows are built as they are read.

The view must behave as the tuple it replaced wherever a tuple's behaviour
was used (length, indices, slices, equality, iteration order), and a pass
over it must leave nothing behind for the cyclic collector: a 10 000-row
fleet read row by row runs no collection in any generation.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

from repro.core.aggregator import FleetSample
from repro.core.monitor import HealthStatus, MonitorReading

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
STATUS_BY_CODE = tuple(HealthStatus)


def sample_of(n: int, seed: int = 0) -> FleetSample:
    rng = np.random.default_rng(seed)
    last_ts = rng.uniform(0.0, 50.0, n)
    last_ts[rng.random(n) < 0.3] = np.nan
    return FleetSample(
        tuple(f"s{i}" for i in range(n)), {}, 60.0,
        rate=rng.uniform(0.0, 40.0, n),
        total=rng.integers(0, 1 << 40, n),
        target_min=rng.choice([0.0, 8.0], n),
        target_max=rng.choice([0.0, 12.0], n),
        last_ts=last_ts,
        age=60.0 - last_ts,
        codes=rng.integers(0, 5, n).astype(np.int8),
    )


def expected_rows(sample: FleetSample) -> list[MonitorReading]:
    rate, total, tmin, tmax, last_ts, age, codes = (column.tolist() for column in sample._columns())
    return [
        MonitorReading(
            *row[:4],
            None if row[4] != row[4] else row[4],
            None if row[5] != row[5] else row[5],
            STATUS_BY_CODE[row[6]],
        )
        for row in zip(rate, total, tmin, tmax, last_ts, age, codes)
    ]


def collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def two_passes_collections() -> tuple[list[int], list[int]]:
    """Collections per generation before and after two passes over 10 000 rows."""
    sample = sample_of(10_000)
    gc.set_threshold(700, 10, 10)  # the interpreter's defaults
    assert gc.isenabled()
    gc.collect()
    before = collections()
    for _ in range(2):
        for _reading in sample.readings:
            pass
    return before, collections()


def test_two_passes_over_10k_readings_run_no_collection():
    # In a child process: the counts are process-wide, and a thread another
    # test left running could allocate enough to start a collection.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE), env.get("PYTHONPATH", "")])
    script = "from test_fleet_readings_view import two_passes_collections as f; print(*f(), sep='\\n')"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.splitlines()
    assert after == before


def test_the_view_is_a_read_only_sequence_of_the_rows():
    sample = sample_of(50, seed=1)
    readings, rows = sample.readings, expected_rows(sample)
    assert isinstance(readings, Sequence) and not isinstance(readings, tuple)
    assert len(readings) == 50
    assert list(readings) == rows
    assert readings[0] == rows[0] and readings[-1] == rows[-1] and readings[-50] == rows[0]
    for index in (50, -51):
        with pytest.raises(IndexError):
            readings[index]
    with pytest.raises(TypeError):
        readings[1.0]
    assert readings[3:7] == tuple(rows[3:7]) and type(readings[3:7]) is tuple
    assert readings[::-4] == tuple(rows[::-4])
    assert readings[7:3] == () and readings[60:] == ()
    assert rows[9] in readings and readings.index(rows[9]) == 9
    with pytest.raises(AttributeError):
        readings.extra = 1


def test_the_view_equals_a_tuple_of_the_same_rows_and_is_not_hashable():
    sample = sample_of(20, seed=2)
    rows = tuple(expected_rows(sample))
    readings = sample.readings
    assert readings == rows and rows == readings
    assert readings != rows[:-1] and readings != list(rows)
    assert readings == sample_of(20, seed=2).readings
    assert readings != sample_of(20, seed=3).readings
    assert sample_of(0).readings == ()
    with pytest.raises(TypeError):
        hash(readings)


def test_iteration_builds_fresh_rows_and_an_index_keeps_its_row():
    sample = sample_of(10, seed=3)
    readings = sample.readings
    first, again = next(iter(readings)), next(iter(readings))
    assert first == again and first is not again
    assert readings[4] is readings[4] is sample.reading_at(4) is readings[-6]
    assert list(sample) == list(zip(sample.names, expected_rows(sample)))
    assert dict(sample) == dict(zip(sample.names, readings))
