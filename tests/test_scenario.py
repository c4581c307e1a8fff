"""Scenario harness: spec parsing, the runner, and the CLI front end.

The end-to-end drills (subprocess fleets, SIGKILLed collectors) carry the
``scenario`` marker — CI's canary job selects them with ``-m scenario`` —
plus ``network`` where applicable (none is ``slow``: tier-1 skips that marker).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.faults.timeline import TimelineEvent
from repro.scenario import (
    PRESETS,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
)


class TestSpecParsing:
    def test_minimal_dict(self):
        spec = ScenarioSpec.from_dict({"name": "tiny"})
        assert spec.name == "tiny"
        assert spec.topology == "direct"
        assert spec.timeline == ()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"name": "x", "sharks": True})
        with pytest.raises(ScenarioError, match="unknown fleet keys"):
            ScenarioSpec.from_dict({"name": "x", "fleet": {"cows": 2}})
        with pytest.raises(ScenarioError, match="unknown invariant"):
            ScenarioSpec.from_dict(
                {"name": "x", "invariants": [{"kind": "vibes"}]}
            )
        # A timeline entry takes only the parameters its action reads.
        for entry in (
            {"action": "latency", "latncy": 0.2},
            {"action": "bandwidth", "bytes": 1024},
            {"action": "drop", "probability": 0.1, "seed": 3},
            {"action": "heal", "mode": "drop"},
            {"action": "spawn", "count": 2},
            {"action": "kill_producers", "after_producers": True},
            {"action": "kill_collector", "producers": 1},
        ):
            with pytest.raises(ScenarioError, match="unknown .* parameters") as info:
                ScenarioSpec.from_dict(
                    {"name": "x", "topology": "edge", "timeline": [{"at": 0.1, **entry}]}
                )
            assert type(info.value) is ScenarioError
        for mode in ("blackhol", 5):
            with pytest.raises(ScenarioError, match="partition mode"):
                ScenarioSpec.from_dict(
                    {"name": "x", "timeline": [{"at": 0.1, "action": "partition", "mode": mode}]}
                )

    def test_timeline_sorted_and_validated(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "ordered",
                "proxy": True,
                "timeline": [
                    {"at": 2.0, "action": "heal"},
                    {"at": 1.0, "action": "partition", "mode": "drop"},
                ],
            }
        )
        assert [e.action for e in spec.timeline] == ["partition", "heal"]
        with pytest.raises(ScenarioError, match="unknown timeline action"):
            ScenarioSpec.from_dict(
                {"name": "x", "timeline": [{"at": 0.0, "action": "earthquake"}]}
            )
        with pytest.raises(ScenarioError) as info:
            ScenarioSpec.from_dict({"name": "x", "timeline": [7]})
        assert type(info.value) is ScenarioError

    def test_proxy_actions_imply_proxy(self):
        spec = ScenarioSpec.from_dict(
            {"name": "x", "timeline": [{"at": 0.1, "action": "partition"}]}
        )
        assert spec.proxy

    def test_collector_kill_needs_edge_topology(self):
        with pytest.raises(ScenarioError, match="topology = 'edge'"):
            ScenarioSpec.from_dict(
                {"name": "x", "timeline": [{"at": 0.1, "action": "kill_collector"}]}
            )

    def test_presets_all_parse(self):
        for name in PRESETS:
            spec = ScenarioSpec.preset(name)
            assert spec.name == name
            assert spec.invariants
        with pytest.raises(ScenarioError, match="unknown preset"):
            ScenarioSpec.preset("nope")

    def test_json_and_toml_files(self, tmp_path):
        data = {
            "name": "file-spec",
            "fleet": {"producers": 1, "beats": 5, "rate": 100.0},
            "invariants": [{"kind": "all_beats_delivered"}],
        }
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(data))
        assert ScenarioSpec.from_file(json_path).name == "file-spec"

        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            'name = "file-spec"\n'
            "[fleet]\nproducers = 1\nbeats = 5\nrate = 100.0\n"
            '[[invariants]]\nkind = "all_beats_delivered"\n'
        )
        for bad in ("{not json", "[]"):  # undecodable; top level not a table
            json_path.write_text(bad)
            with pytest.raises(ScenarioError) as info:
                ScenarioSpec.from_file(json_path)
            assert type(info.value) is ScenarioError

        tomllib = pytest.importorskip("tomllib")
        assert tomllib is not None
        assert ScenarioSpec.from_file(toml_path).name == "file-spec"

    def test_first_disruption(self):
        spec = ScenarioSpec.preset("kill-restart")
        assert spec.first_disruption() == 0.25
        assert ScenarioSpec.from_dict({"name": "calm"}).first_disruption() is None

    def test_fleet_validation(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict({"name": "x", "fleet": {"producers": 0}})
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict({"name": "x", "fleet": {"rate": -1.0}})
        with pytest.raises(ScenarioError) as info:
            ScenarioSpec.from_dict({"name": "x", "fleet": 2})
        assert type(info.value) is ScenarioError

    def test_timeline_event_params(self):
        event = TimelineEvent(at=1.0, action="spawn", params={"producers": 3})
        assert event.param("producers") == 3
        assert event.param("missing", 9) == 9


@pytest.mark.scenario
@pytest.mark.network
class TestRunnerSmoke:
    def test_tiny_direct_scenario_passes(self, tmp_path):
        spec = ScenarioSpec.from_dict(
            {
                "name": "tiny",
                "fleet": {"producers": 2, "beats": 30, "rate": 300.0},
                "invariants": [
                    {"kind": "no_lost_acked"},
                    {"kind": "all_beats_delivered", "deadline": 10.0},
                    {"kind": "closed_reported", "deadline": 10.0},
                ],
                "deadline": 30.0,
            }
        )
        report = tmp_path / "tiny.jsonl"
        result = ScenarioRunner(spec, report_path=report).run()
        assert result.passed, result.failures()
        assert result.producer_totals == {"svc-0": 30, "svc-1": 30}
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        assert all(next(iter(line)) == "kind" for line in lines)
        kinds = {line["kind"] for line in lines}
        assert {"start", "spawn", "invariant", "summary"} <= kinds
        verdicts = [line["invariant"] for line in lines if line["kind"] == "invariant"]
        assert verdicts == ["no_lost_acked", "all_beats_delivered", "closed_reported"]
        summary = lines[-1]
        assert summary["kind"] == "summary"
        assert summary["passed"] is True

    def test_invariant_violation_reported_not_raised(self):
        # No disruption ever happens, so stalled_within must fail — and the
        # runner must report that, not raise.
        spec = ScenarioSpec.from_dict(
            {
                "name": "doomed",
                "fleet": {"producers": 1, "beats": 10, "rate": 200.0},
                "invariants": [{"kind": "stalled_within", "deadline": 1.0}],
                "deadline": 20.0,
            }
        )
        result = ScenarioRunner(spec).run()
        assert not result.passed
        assert "no disruptive event" in result.failures()[0]


@pytest.mark.scenario
@pytest.mark.network
class TestPresetDrills:
    def test_churn_storm(self):
        result = ScenarioRunner(ScenarioSpec.preset("churn-storm")).run()
        assert result.passed, result.failures()

    def test_kill_restart_with_journal(self, tmp_path):
        report = tmp_path / "kill-restart.jsonl"
        result = ScenarioRunner(
            ScenarioSpec.preset("kill-restart"), report_path=report
        ).run()
        assert result.passed, result.failures()
        events = [json.loads(line) for line in report.read_text().splitlines()]
        actions = [e.get("action") for e in events if e["kind"] == "event"]
        assert "kill_collector" in actions and "restart_collector" in actions
        # The flight recording ends on the summary — teardown stays silent.
        assert events[-1]["kind"] == "summary"
        # The root ends with every producer-acknowledged beat.
        assert result.root_totals == result.producer_totals


@pytest.mark.scenario
@pytest.mark.network
class TestScenarioCli:
    def test_list_names_presets(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_run_spec_file_pass_and_fail_exit_codes(self, tmp_path, capsys):
        passing = tmp_path / "pass.json"
        passing.write_text(
            json.dumps(
                {
                    "name": "cli-pass",
                    "fleet": {"producers": 1, "beats": 10, "rate": 200.0},
                    "invariants": [{"kind": "all_beats_delivered"}],
                    "deadline": 20.0,
                }
            )
        )
        report = tmp_path / "report.jsonl"
        assert main(["scenario", "run", str(passing), "--report", str(report)]) == 0
        assert report.exists()
        capsys.readouterr()

        failing = tmp_path / "fail.json"
        failing.write_text(
            json.dumps(
                {
                    "name": "cli-fail",
                    "fleet": {"producers": 1, "beats": 10, "rate": 200.0},
                    "invariants": [{"kind": "stalled_within", "deadline": 0.5}],
                    "deadline": 20.0,
                }
            )
        )
        assert main(["scenario", "run", str(failing)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "run", "/nonexistent/spec.toml"]) == 2
        assert "cannot load" in capsys.readouterr().err
