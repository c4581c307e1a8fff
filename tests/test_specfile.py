"""The one strict spec loader (``repro.specfile``) behind both spec formats.

Every malformed input — undecodable text, a top level that is not a table,
an entry of the wrong shape, a value of the wrong type — must raise the
spec class's *own* error (``SpecError`` / ``ScenarioError``, never a bare
``TypeError``/``ValueError``), and the three CLI commands that load spec
files must turn it into exit 2 with one stderr line.  Malformed mappings
that the per-class tests already reject live with those tests
(``test_adapt.py::TestAdaptSpec::test_malformed_specs_raise``,
``test_scenario.py::TestSpecParsing``); these are the shapes only the
shared loader turns into the class's error.
"""

from __future__ import annotations

import sys

import pytest

from repro.adapt.spec import AdaptSpec, SpecError
from repro.cli import main
from repro.scenario import ScenarioError, ScenarioSpec

#: Malformed adaptation specs, as JSON file text.
BAD_ADAPT = {
    "null": "null",
    "array": "[]",
    "loop-not-table": '{"loops": [5]}',
    "window-not-int": '{"engine": {"window": "abc"}, "loops": [{"match": "x"}]}',
    "warmup-not-int": '{"loops": [{"match": "x", "warmup": "soon"}]}',
    "options-not-table": '{"loops": [{"match": "x", "actuator_options": 5}]}',
}

#: Malformed chaos scenarios, as JSON file text.
BAD_SCENARIO = {
    "null": "null",
    "invariant-not-table": '{"name": "x", "invariants": [5]}',
    "producers-not-int": '{"name": "x", "fleet": {"producers": "two"}}',
    "at-not-float": '{"name": "x", "timeline": [{"at": "soon", "action": "heal"}]}',
    "at-negative": '{"name": "x", "timeline": [{"at": -1, "action": "heal"}]}',
    "seed-not-int": '{"name": "x", "seed": "lucky"}',
}


def _write(tmp_path, text, suffix=".json"):
    path = tmp_path / f"spec{suffix}"
    path.write_text(text)
    return path


@pytest.mark.parametrize("text", BAD_ADAPT.values(), ids=BAD_ADAPT.keys())
def test_malformed_adapt_spec_raises_spec_error(tmp_path, text):
    with pytest.raises(SpecError) as info:
        AdaptSpec.from_file(_write(tmp_path, text))
    assert type(info.value) is SpecError


@pytest.mark.parametrize("text", BAD_SCENARIO.values(), ids=BAD_SCENARIO.keys())
def test_malformed_scenario_raises_scenario_error(tmp_path, text):
    with pytest.raises(ScenarioError) as info:
        ScenarioSpec.from_file(_write(tmp_path, text))
    assert type(info.value) is ScenarioError


def test_non_utf8_file_is_a_spec_error(tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"loops": "\xff"}')
    with pytest.raises(SpecError, match="UTF-8"):
        AdaptSpec.from_file(path)


@pytest.mark.parametrize(
    "load, error",
    [(AdaptSpec.from_file, SpecError), (ScenarioSpec.from_file, ScenarioError)],
)
def test_toml_without_tomllib_names_it(tmp_path, monkeypatch, load, error):
    """What Python 3.10 (no ``tomllib``) sees: the class's error, naming it."""
    monkeypatch.setitem(sys.modules, "tomllib", None)
    with pytest.raises(error, match="tomllib") as info:
        load(_write(tmp_path, 'name = "x"\n', suffix=".toml"))
    assert type(info.value) is error


@pytest.mark.parametrize(
    "argv, text",
    [
        (["adapt", "--spec", "{spec}", "--once"], BAD_ADAPT["loop-not-table"]),
        (["tune", "--spec", "{spec}", "--out", "{out}"], BAD_ADAPT["window-not-int"]),
        (["scenario", "run", "{spec}"], BAD_SCENARIO["invariant-not-table"]),
        pytest.param(
            ["adapt", "--spec", "{spec}", "--once", "tcp://127.0.0.1:0"],
            '{"loops": [{"match": "*", "actuator": "cores"}]}',  # fails at build, not parse
            marks=pytest.mark.network,
        ),
    ],
    ids=["adapt", "tune", "scenario-run", "adapt-unknown-actuator"],
)
def test_cli_malformed_spec_exits_2_with_one_line(tmp_path, capsys, argv, text):
    spec = _write(tmp_path, text)
    args = [a.format(spec=spec, out=tmp_path / "out.toml") for a in argv]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
