"""Golden action sequences of every load-balancer run the repo ships.

Each run is one ``HeartbeatLoadBalancer`` built by ``examples/cloud_balancer.py``
or by a test of ``tests/test_faults_and_cloud.py`` / ``tests/test_adapt.py``;
the run is driven by that very code, with the balancer class swapped for a
subclass that records what every ``manage()`` pass returns.  Two things are
pinned per run: each pass's return as ``(kind, vm, from, to, reason)`` tuples,
and the final ``actions`` log.  VM and node ids come from process-wide
counters, so they are pinned relative to the run's first VM and node id.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Any, Callable

import pytest

import repro.cloud
import test_adapt
import test_faults_and_cloud
from repro.cloud import BalancerAction, CloudCluster, HeartbeatLoadBalancer

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "cloud_balancer.py"

Row = tuple[str, "int | None", "int | None", "int | None", str]


class _Recorded(HeartbeatLoadBalancer):
    """A balancer that keeps each ``manage()`` return; every one built is listed in ``built``."""

    built: list["_Recorded"] = []

    def __init__(self, cluster: CloudCluster, **options: Any) -> None:
        super().__init__(cluster, **options)
        self.vm_base = min(cluster.vms, default=0)
        self.node_base = min(cluster.nodes, default=0)
        self.passes: list[list[BalancerAction]] = []
        _Recorded.built.append(self)

    def manage(self) -> list[BalancerAction]:
        actions = super().manage()
        self.passes.append(list(actions))
        return actions

    def row(self, action: BalancerAction) -> Row:
        def rel(value: int | None, base: int) -> int | None:
            return None if value is None else value - base

        return (
            action.kind,
            rel(action.vm_id, self.vm_base),
            rel(action.from_node, self.node_base),
            rel(action.to_node, self.node_base),
            action.reason,
        )

    def record(self) -> dict[str, list]:
        return {
            "passes": [[self.row(a) for a in actions] for actions in self.passes],
            "log": [self.row(a) for a in self.actions],
        }


def _run_example() -> None:
    spec = importlib.util.spec_from_file_location("cloud_balancer_example", EXAMPLE)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.HeartbeatLoadBalancer = _Recorded
    module.main()


def _test_method(cls: type, name: str) -> Callable[[], None]:
    return lambda: getattr(cls(), name)()


_LOCAL = test_faults_and_cloud.TestHeartbeatLoadBalancer
_REMOTE = test_faults_and_cloud.TestRemoteFleetBalancer
_ADAPT = test_adapt.TestDeprecatedFacades

#: One driver per run: the code that builds and drives the balancer.
DRIVERS = {
    "example": _run_example,
    "local-errored-stream": _test_method(_LOCAL, "test_errored_stream_treated_as_failure_not_crash"),
    "local-same-tick-churn": _test_method(_LOCAL, "test_same_tick_vm_churn_invalidates_fleet_cache"),
    "local-consolidates": _test_method(_LOCAL, "test_consolidates_light_vms_and_powers_down"),
    "local-migrates-slow": _test_method(_LOCAL, "test_migrates_slow_vm_to_node_with_headroom"),
    "local-failover": _test_method(_LOCAL, "test_failover_when_heartbeats_stop"),
    "local-on-target": _test_method(_LOCAL, "test_no_actions_when_everything_is_on_target"),
    "remote-fleet": _test_method(_REMOTE, "test_balancer_manages_fleet_through_collector"),
    "remote-unregistered": _test_method(_REMOTE, "test_unregistered_stream_is_not_attached_yet"),
    "adapt-slow-vm-loop": _test_method(_ADAPT, "test_balancer_slow_vm_control_runs_on_loops"),
}

_PACK = "all goals comfortably met; packing onto fewer nodes"
_EMPTIED = "node emptied by consolidation"
_SILENT = "no heartbeats within the liveness timeout"
_POWER_UP = "additional capacity required"

#: Each run's balancers, in construction order: ``passes`` holds what each
#: ``manage()`` returned (every action its pass took, power-ups included),
#: ``log`` the ``actions`` log after the run.
GOLDEN: dict[str, list[dict[str, list]]] = {
    "example": [
        {
            "passes": [
                [
                    ("consolidate", 1, 1, 0, _PACK),
                    ("consolidate", 2, 2, 0, _PACK),
                    ("power_down", None, 1, None, _EMPTIED),
                    ("power_down", None, 2, None, _EMPTIED),
                ],
                [
                    ("power_up", None, None, 1, _POWER_UP),
                    ("migrate", 0, 0, 1, "heart rate 5.58 below target minimum 8.00"),
                ],
                [
                    ("power_up", None, None, 2, _POWER_UP),
                    ("failover", 1, 0, 2, _SILENT),
                    ("failover", 2, 0, 2, _SILENT),
                ],
            ],
            "log": [
                ("consolidate", 1, 1, 0, _PACK),
                ("consolidate", 2, 2, 0, _PACK),
                ("power_down", None, 1, None, _EMPTIED),
                ("power_down", None, 2, None, _EMPTIED),
                ("power_up", None, None, 1, _POWER_UP),
                ("migrate", 0, 0, 1, "heart rate 5.58 below target minimum 8.00"),
                ("power_up", None, None, 2, _POWER_UP),
                ("failover", 1, 0, 2, _SILENT),
                ("failover", 2, 0, 2, _SILENT),
            ],
        }
    ],
    "local-errored-stream": [
        {"passes": [[("failover", 0, 0, 1, _SILENT)]], "log": [("failover", 0, 0, 1, _SILENT)]}
    ],
    "local-same-tick-churn": [{"passes": [], "log": []}],
    "local-consolidates": [
        {
            "passes": [[("consolidate", 1, 1, 0, _PACK), ("power_down", None, 1, None, _EMPTIED)]],
            "log": [("consolidate", 1, 1, 0, _PACK), ("power_down", None, 1, None, _EMPTIED)],
        }
    ],
    "local-migrates-slow": [
        {
            "passes": [
                [
                    ("migrate", 0, 0, 1, "heart rate 5.18 below target minimum 8.00"),
                    ("migrate", 1, 0, 1, "heart rate 5.18 below target minimum 8.00"),
                ]
            ],
            "log": [
                ("migrate", 0, 0, 1, "heart rate 5.18 below target minimum 8.00"),
                ("migrate", 1, 0, 1, "heart rate 5.18 below target minimum 8.00"),
            ],
        }
    ],
    "local-failover": [
        {"passes": [[("failover", 0, 0, 1, _SILENT)]], "log": [("failover", 0, 0, 1, _SILENT)]}
    ],
    "local-on-target": [{"passes": [[]], "log": []}],
    "remote-fleet": [
        {
            "passes": [[], [("failover", 2, 1, 0, _SILENT), ("failover", 3, 1, 0, _SILENT)]],
            "log": [("failover", 2, 1, 0, _SILENT), ("failover", 3, 1, 0, _SILENT)],
        }
    ],
    "remote-unregistered": [{"passes": [], "log": []}],
    "adapt-slow-vm-loop": [
        {
            "passes": [[("migrate", 0, 0, 1, "heart rate 10.45 below target minimum 20.00")]],
            "log": [("migrate", 0, 0, 1, "heart rate 10.45 below target minimum 20.00")],
        }
    ],
}


def record_run(name: str) -> list[dict[str, list]]:
    """Drive one run and return the record of each balancer it built."""
    _Recorded.built = []
    saved = (test_faults_and_cloud.HeartbeatLoadBalancer, repro.cloud.HeartbeatLoadBalancer)
    test_faults_and_cloud.HeartbeatLoadBalancer = repro.cloud.HeartbeatLoadBalancer = _Recorded
    try:
        DRIVERS[name]()
    finally:
        test_faults_and_cloud.HeartbeatLoadBalancer, repro.cloud.HeartbeatLoadBalancer = saved
    return [balancer.record() for balancer in _Recorded.built]


@pytest.mark.parametrize("run", sorted(DRIVERS))
def test_balancer_run_matches_golden(run: str) -> None:
    assert record_run(run) == GOLDEN[run]
