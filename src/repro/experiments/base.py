"""Shared experiment result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.tables import render_rows
from repro.analysis.traces import TraceSet

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    name:
        Experiment identifier (``"table2"``, ``"fig5"``, ...).
    description:
        One-line description including the paper reference.
    headers, rows:
        Tabular output (the rows the paper's table reports, or summary rows
        for figure experiments).
    traces:
        Beat-indexed series for figure experiments (heart rate, cores, PSNR
        difference, ...).
    notes:
        Free-form remarks recorded during the run (calibration values,
        substitutions, ...).
    metrics:
        Every number a claim of :mod:`repro.experiments.claims` reads, by
        name; the rows render some of them, and nothing parses the rows.
    """

    name: str
    description: str
    headers: Sequence[str] = ()
    rows: list[Sequence[object]] = field(default_factory=list)
    traces: TraceSet | None = None
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def to_text(self, *, precision: int = 2) -> str:
        """Render the result (title, table, notes) as plain text."""
        parts = [f"== {self.name}: {self.description}"]
        if self.rows:
            parts.append(render_rows(self.headers, self.rows, precision=precision))
        if self.traces is not None:
            parts.append(
                "traces: "
                + ", ".join(f"{t.name}[{len(t)}]" for t in self.traces)
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)
