"""CSV emission: per-step iteration traces, run summaries, solution profiles.

Every value is a Python int, float, str or None, and the csv module writes a
float with ``repr`` (shortest round-trip form) and None as an empty cell, so
output is byte-identical across runs of the same seed. The lone exception is
wall-clock time in the summary, which is inherently nondeterministic and
formatted to three decimals; consumers comparing outputs should mask that
column.
"""

from __future__ import annotations

import csv
import os
from operator import attrgetter
from typing import Iterable

from .experiments import RunReport
from .solver import IterationLog, IterationRecord

__all__ = [
    "ITERATION_COLUMNS",
    "SUMMARY_COLUMNS",
    "write_iterations",
    "write_solution",
    "write_run",
    "summary_row",
    "write_summary_rows",
]

# the IterationRecord fields up to gamma, in record order, f_residual as F_residual
ITERATION_COLUMNS = [
    "F_residual" if name == "f_residual" else name
    for name in IterationRecord._fields[: IterationRecord._fields.index("gamma") + 1]
]
# the summary's columns in order, each with its value for one run
_SUMMARY = (
    ("preset", attrgetter("spec.name")),
    ("p", attrgetter("spec.space.p")),
    ("r", attrgetter("spec.space.r")),
    ("delta", attrgetter("effective_delta")),
    ("seed", attrgetter("spec.seed")),
    ("n_star", attrgetter("n_star")),
    ("N_p", attrgetter("n_p")),
    ("err_L2", attrgetter("err_l2")),
    ("err_Lp", attrgetter("err_lp")),
    ("reason", attrgetter("reason")),
    ("wall_ms", lambda report: f"{report.wall_ms:.3f}"),
)
# the run's name, the base name of its directory, leads them
SUMMARY_COLUMNS = ["run"] + [column for column, _ in _SUMMARY]


def _write_rows(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    """Rows of Python values: the csv module writes a float as its ``repr``, None as empty."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_iterations(path: str, log: IterationLog) -> None:
    """One row per inner step, in execution order.

    The columns are the leading fields of :class:`IterationRecord`, in its
    field order. The records are built from the log's blocks one at a time,
    as the rows are written.
    """
    width = len(ITERATION_COLUMNS)
    _write_rows(path, ITERATION_COLUMNS, (rec[:width] for rec in log.records))


def summary_row(report: RunReport, name: str) -> list:
    """The summary values for one run, in SUMMARY_COLUMNS order; ``name`` is its directory's."""
    return [name] + [value(report) for _, value in _SUMMARY]


def write_summary_rows(path: str, rows: Iterable[list]) -> None:
    """Summary CSV from ``summary_row`` rows: one for a run, all of them for a sweep."""
    _write_rows(path, SUMMARY_COLUMNS, rows)


def write_solution(path: str, report: RunReport) -> None:
    """Node coordinates (one column per axis) with the true and reconstructed coefficient."""
    grid = report.truth.grid
    header = ["x", "y"][: grid.dim] + ["c_true", "c_rec"]
    rows = zip(*grid.coords(), report.truth.values, report.result.final.values)
    _write_rows(path, header, ([float(v) for v in row] for row in rows))


def write_run(outdir: str, report: RunReport) -> dict[str, str]:
    """Write iterations/summary/solution CSVs into ``outdir``; returns paths.

    The summary's row is named by the base name of ``outdir``.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "iterations": os.path.join(outdir, "iterations.csv"),
        "summary": os.path.join(outdir, "summary.csv"),
        "solution": os.path.join(outdir, "solution.csv"),
    }
    write_iterations(paths["iterations"], report.result.log)
    name = os.path.basename(os.path.normpath(outdir))
    write_summary_rows(paths["summary"], [summary_row(report, name)])
    write_solution(paths["solution"], report)
    return paths
