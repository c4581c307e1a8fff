"""The paper's claims, one test per row of ``repro.experiments.claims.CLAIMS``.

Quick rows run in tier-1; full rows are marked ``slow`` (``-m slow
--runslow``).  Each experiment runs once per size, however many rows read
it.  ``docs/claims.md`` lists every row and why a claim's sizes differ.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import tempfile

import pytest

from repro.experiments import claims
from repro.experiments.base import ExperimentResult
from repro.experiments.fig2_x264_phases import Fig2Config
from repro.experiments.fig2_x264_phases import run as run_fig2
from repro.experiments.overhead import measure_backend_latency
from repro.experiments.runner import available_experiments, main, run_experiments

CLAIMS_DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "claims.md"


@functools.cache
def _measured(experiment: str, size: str) -> ExperimentResult:
    return claims.measure(experiment, size)


@pytest.mark.parametrize(
    "claim",
    [
        pytest.param(claim, id=f"{claim.id}-{claim.size}", marks=pytest.mark.slow if claim.size == "full" else ())
        for claim in claims.CLAIMS
    ],
)
def test_claim(claim: claims.Claim) -> None:
    value = claim.read(_measured(claim.experiment, claim.size))
    assert claim.band.holds(value), claims.verdict_line(claim, value, False)


class TestClaimsTable:
    def test_docs_claims_is_the_rendering(self):
        assert CLAIMS_DOC.read_text(encoding="utf-8") == claims.claims_reference()

    def test_a_failing_band_prints_fail_and_exits_1(self, monkeypatch, capsys):
        rows = tuple(
            dataclasses.replace(c, band=claims.Band(">", 8)) if (c.id, c.size) == ("fig6.cores", "full") else c
            for c in claims.CLAIMS
        )
        monkeypatch.setattr(claims, "CLAIMS", rows)
        assert main(["fig6"]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("claim fig6.cores") and line.endswith("FAIL")]
        assert "1 claim(s) failed" in out


class TestOverheadTempFiles:
    def test_backend_latency_removes_its_log_directory(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        measure_backend_latency(calls=100)
        assert list(tmp_path.iterdir()) == []


class TestRunner:
    def test_registry_contains_all_experiments(self):
        names = available_experiments()
        for expected in ("table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "overhead"):
            assert expected in names

    def test_run_experiments_selected_subset(self):
        results = run_experiments(["fig2"])
        assert len(results) == 1
        assert isinstance(results[0], ExperimentResult)
        assert results[0].name == "fig2"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["not-an-experiment"])

    def test_result_to_text_renders_rows_and_notes(self):
        result = run_fig2(Fig2Config(beats=150))
        text = result.to_text()
        assert "fig2" in text
        assert "Paper band" in text
        assert "note:" in text
