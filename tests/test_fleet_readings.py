"""The per-stream view of a fleet sample: tuple rows built from whole columns.

``oracle_reading`` is the per-row builder :class:`FleetSample` used before it
built its rows column-wise, kept here as the oracle: ``readings``,
``reading_at``, ``reading`` and ``get`` must agree with it value for value
and in their exact Python types.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.clock import SimulatedClock
from repro.core.aggregator import FleetSample, HeartbeatAggregator
from repro.core.backends.arena import Arena
from repro.core.errors import HeartbeatError
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HealthStatus, MonitorReading

STATUS_BY_CODE = (
    HealthStatus.UNKNOWN,
    HealthStatus.HEALTHY,
    HealthStatus.SLOW,
    HealthStatus.FAST,
    HealthStatus.STALLED,
)
#: ``FleetSample`` keyword per column, in ``_columns()`` order.
COLUMN_KEYWORDS = ("rate", "total", "target_min", "target_max", "last_ts", "age", "codes")


def oracle_reading(rate, total, tmin, tmax, last_ts, age, code):
    """One row of the sample columns as a reading (``nan`` stamps → ``None``)."""
    return MonitorReading(
        rate, total, tmin, tmax,
        None if last_ts != last_ts else last_ts,
        None if age != age else age,
        STATUS_BY_CODE[code],
    )


def oracle(sample):
    return list(map(oracle_reading, *(column.tolist() for column in sample._columns())))


def assert_python_types(readings):
    for reading in readings:
        assert type(reading) is MonitorReading
        assert [type(value) for value in reading[:4]] == [float, int, float, float]
        assert all(value is None or type(value) is float for value in reading[4:6])
        assert type(reading.status) is HealthStatus


def assert_rows_match_oracle(sample):
    expected = oracle(sample)
    one_by_one = FleetSample(
        sample.names, sample.errors, sample.taken_at,
        **dict(zip(COLUMN_KEYWORDS, sample._columns())),
    )
    by_row = [one_by_one.reading_at(i) for i in range(len(sample))]
    assert one_by_one._readings is None, "reading_at materialised the fleet"
    assert list(sample.readings) == by_row == expected
    assert_python_types(sample.readings)
    assert_python_types(by_row)
    for i, name in enumerate(sample.names):
        assert one_by_one.get(name) == one_by_one.reading(name) == expected[i]
    assert one_by_one._readings is None, "reading(name) materialised the fleet"
    grouped = {status: [] for status in HealthStatus}
    for name, reading in zip(sample.names, expected):
        grouped[reading.status].append(name)
    assert sample.by_status() == grouped


def random_columns(rng, n):
    last_ts = rng.uniform(0.0, 50.0, n)
    last_ts[rng.random(n) < 0.3] = np.nan
    age = 60.0 - last_ts
    age[rng.random(n) < 0.1] = np.nan  # an age can be missing on its own
    codes = rng.integers(0, 5, n).astype(np.int8)
    codes[:5] = np.arange(5)
    return {
        "rate": rng.uniform(0.0, 40.0, n),
        "total": rng.integers(0, 1 << 40, n),
        "target_min": rng.choice([0.0, 8.0], n),
        "target_max": rng.choice([0.0, 12.0], n),
        "last_ts": last_ts,
        "age": age,
        "codes": codes,
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_columns_with_a_dead_row_dropped_match_the_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 200
    columns = random_columns(rng, n + 1)
    keep = np.ones(n + 1, dtype=bool)
    keep[int(rng.integers(0, n + 1))] = False  # the aggregator drops a dead row this way
    names = tuple(f"s{i}" for i in range(n + 1) if keep[i])
    sample = FleetSample(
        names, {"dead": "gone"}, 60.0, **{key: column[keep] for key, column in columns.items()}
    )
    assert_rows_match_oracle(sample)
    assert {reading.status for reading in sample.readings} == set(HealthStatus)
    assert any(reading.last_timestamp is None for reading in sample.readings)
    assert sample.get("dead") is None
    with pytest.raises(KeyError):
        sample.reading("dead")
    assert sample.reading_at(-1) == sample.readings[-1]
    with pytest.raises(IndexError):
        sample.reading_at(n)


def test_an_empty_sample_has_no_rows():
    columns = random_columns(np.random.default_rng(0), 5)
    empty = FleetSample((), {}, 0.0, **{key: column[:0] for key, column in columns.items()})
    with pytest.raises(IndexError):
        empty.reading_at(0)
    with pytest.raises(KeyError):
        empty.reading("x")
    assert empty.get("x") is None
    assert empty.readings == () and list(empty) == []
    assert empty.by_status() == {status: [] for status in HealthStatus}


def test_a_mixed_per_object_and_arena_fleet_matches_the_oracle():
    clock = SimulatedClock()
    aggregator = HeartbeatAggregator(clock=clock, liveness_timeout=5.0)
    arena = Arena(streams=8, depth=32)
    aggregator.attach_arena(arena, prefix="arena/")
    beating = []
    for name, target in {"slow": (50.0, 100.0), "fast": (0.1, 0.5), "fine": (0.5, 2.0)}.items():
        heartbeat = Heartbeat(window=4, clock=clock)
        heartbeat.set_target_rate(*target)
        aggregator.attach_stream(name, heartbeat)
        beating.append(heartbeat)
    for i in range(3):
        heartbeat = Heartbeat(window=4, clock=clock, backend=arena.allocate(f"row-{i}"))
        heartbeat.set_target_rate(0.5, 2.0)
        beating.append(heartbeat)
    arena.allocate("cold")  # never beats: no stamp, UNKNOWN
    stale = Heartbeat(window=4, clock=clock)
    aggregator.attach_stream("stale", stale)

    def broken():
        raise HeartbeatError("writer went away")

    aggregator.attach_stream("broken", broken)
    try:
        stale.heartbeat_batch(3)
        for _ in range(10):
            clock.advance(1.0)
            for heartbeat in beating:
                heartbeat.heartbeat()
        sample = aggregator.poll()
        assert sample.names == (
            "slow", "fast", "fine", "stale", "arena/row-0", "arena/row-1", "arena/row-2", "arena/cold",
        )
        assert "broken" in sample.errors
        assert_rows_match_oracle(sample)
        assert [reading.status for reading in sample.readings] == [
            HealthStatus.SLOW, HealthStatus.FAST, HealthStatus.HEALTHY, HealthStatus.STALLED,
            HealthStatus.HEALTHY, HealthStatus.HEALTHY, HealthStatus.HEALTHY, HealthStatus.UNKNOWN,
        ]
        assert sample.reading("arena/cold").last_timestamp is None
        assert sample.get("broken") is None
        assert aggregator.rates() == {name: reading.rate for name, reading in sample}
    finally:
        aggregator.close()
        arena.close()


# --------------------------------------------------------------------- #
# MonitorReading is a tuple row with the dataclass's surface
# --------------------------------------------------------------------- #
def test_monitor_reading_contract():
    reading = MonitorReading(
        rate=2.0, total_beats=5, target_min=1.0, target_max=3.0,
        last_timestamp=4.5, age=0.5, status=HealthStatus.SLOW,
    )
    assert reading == MonitorReading(2.0, 5, 1.0, 3.0, 4.5, 0.5, HealthStatus.SLOW)
    assert repr(reading) == (
        "MonitorReading(rate=2.0, total_beats=5, target_min=1.0, target_max=3.0, "
        "last_timestamp=4.5, age=0.5, status=<HealthStatus.SLOW: 'slow'>)"
    )
    with pytest.raises(AttributeError):
        reading.rate = 3.0
    with pytest.raises(AttributeError):
        reading.extra = 1
    restored = pickle.loads(pickle.dumps(reading))
    assert restored == reading and type(restored) is MonitorReading
    for status in HealthStatus:
        r = MonitorReading(1.0, 2, 0.5, 2.0, None, None, status)
        assert (r.below_target, r.above_target, r.in_target) == (
            status is HealthStatus.SLOW, status is HealthStatus.FAST, status is HealthStatus.HEALTHY,
        )
