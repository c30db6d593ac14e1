"""The benchmark's runs and workloads, and the check of every run's output.

A run is one preset solved at one noise seed; a workload is a few runs
executed back to back. The benchmark seed is an offset added to each
preset's shipped seed, so seed 0 reproduces the shipped runs. Their outcome
is pinned below and checked exactly, together with the acceptance-suite
bound on the reconstruction. At any other seed only a ``failure`` reason
fails a run.

Step counts depend strongly on the noise realization: example1 p=1.1 takes
7,867 inner steps at its shipped seed 2, 11,526 at seed 3 and 12,445 at
seed 7. Run times therefore compare only between commits at equal seeds;
the cost per inner step is the figure that compares across seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from newton_landweber import (
    build_spec,
    make_example1,
    make_example2,
    make_example2d,
    make_example3,
)
from newton_landweber.experiments import ExperimentSpec, RunReport
from newton_landweber.solver import refinement_threshold

# the criterion-9 rate-mode overrides of tests/test_acceptance.py
RATE_OVERRIDES = {
    "p": "2",
    "rate_mode": "true",
    "nu": "0.5",
    "tau": "1.1",
    "tau_tilde": "0.01",
    "alpha00": "0.1",
    "q": "0.5",
    "c_alpha": "0.076",
    "max_outer": "30000",
    "delta": "1e-3",
}


@dataclass(frozen=True)
class Outcome:
    """What a run did; compared exactly between passes and against the pins."""

    reason: str
    n_star: int
    steps: int
    applies: int
    refinement_steps: int
    iterations_sha256: str
    solution_sha256: str


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def outcome(report: RunReport, files: dict[str, str]) -> Outcome:
    """Counts of a finished run plus digests of its deterministic CSVs.

    ``files`` are the paths ``write_run`` returned; the summary CSV holds the
    wall time and is left out.
    """
    result = report.result
    return Outcome(
        reason=result.reason,
        n_star=result.n_star,
        steps=result.log.total_inner,
        applies=result.total_applies,
        refinement_steps=sum(rec.refinement for rec in result.log.records),
        iterations_sha256=_sha256(files["iterations"]),
        solution_sha256=_sha256(files["solution"]),
    )


def _err_l2_at_most(bound: float) -> Callable[[RunReport], str | None]:
    def accept(report: RunReport) -> str | None:
        if report.err_l2 <= bound:
            return None
        return f"err_L2 {report.err_l2:.4g} exceeds {bound}"

    return accept


def _alpha_refined(report: RunReport) -> str | None:
    """Criterion 9: the rate-mode tail runs until alpha passes its threshold."""
    tail = report.result.log.outer[-1]
    threshold = refinement_threshold(tail.r_n, report.config)
    if tail.inner_reason != "refinement" or report.result.final_alpha > threshold:
        return (
            f"refinement tail {tail.inner_reason!r} ended at alpha "
            f"{report.result.final_alpha:.4g} > threshold {threshold:.4g}"
        )
    return None


def _peak_in_box(report: RunReport) -> str | None:
    """Criterion 4: the reconstruction peaks near the box [0.19, 0.24]^2."""
    x, y = report.truth.grid.coords()
    idx = int(np.argmax(report.result.final.values))
    if 0.14 <= x[idx] <= 0.29 and 0.14 <= y[idx] <= 0.29:
        return None
    return f"peak at ({x[idx]:.3f}, {y[idx]:.3f}) outside [0.14, 0.29]^2"


@dataclass(frozen=True)
class BenchRun:
    """A preset at its shipped settings, with what it must produce at seed 0."""

    name: str
    preset: Callable[[], ExperimentSpec]
    pinned: Outcome
    accept: Callable[[RunReport], str | None]

    def spec(self, seed: int) -> ExperimentSpec:
        shipped = self.preset()
        return replace(shipped, seed=shipped.seed + seed)


def check(run: BenchRun, seed: int, report: RunReport, observed: Outcome) -> list[str]:
    """Problems with one run's output; an empty list means it passed."""
    if report.result.failed:
        return [f"{run.name}: {report.reason}"]
    if seed != 0:
        return []
    problems = []
    if observed != run.pinned:
        problems.append(f"{run.name}: observed {observed}, pinned {run.pinned}")
    rejected = run.accept(report)
    if rejected is not None:
        problems.append(f"{run.name}: {rejected}")
    return problems


RUNS = {
    run.name: run
    for run in (
        BenchRun(
            "example1 p=1.1",
            lambda: make_example1(p=1.1),
            Outcome(
                "discrepancy", 91, 7867, 23603, 0,
                "da7a782f85a64530fd7171d6c84ce457fdcbe2eccf9106d24fe6efc57478598a",
                "45c6cfd95e84cc7c835b89974d0cc43e104c420a49b49af8ad1fc1c0aaa88c4d",
            ),
            _err_l2_at_most(0.10),
        ),
        BenchRun(
            "example1 p=2",
            lambda: make_example1(p=2.0),
            Outcome(
                "discrepancy", 407, 10692, 32078, 0,
                "df6138e4643afaed417e332e64d6630db4d549f3a31e1a06c643eb40187df643",
                "558707db1c8e1ac6bf52f0ea0a0f1996acb0ef48838014144132333c380641d1",
            ),
            _err_l2_at_most(0.25),
        ),
        BenchRun(
            "example2 p=1.1",
            lambda: make_example2(p=1.1),
            Outcome(
                "discrepancy", 289, 8636, 25910, 0,
                "4548e6c4f0a1b5825ccc525b4b9a1666cc58cf62472c3500c98d03535d0ee5b6",
                "1b433f06228a2266e814a2cec056d382c0002313a3adf65baf3a91a4ba487372",
            ),
            _err_l2_at_most(0.12),
        ),
        BenchRun(
            "example3",
            make_example3,
            Outcome(
                "discrepancy", 148, 189, 568, 0,
                "1de52976312b73e2aa633191bb539a7e1e98b7c62608c4e9f1f8c29af8551b51",
                "e0723b8bc16f76c5011eb1368175a019e783ed4a411b3bce9ab6bf12bfe268c5",
            ),
            _err_l2_at_most(0.45),
        ),
        BenchRun(
            "example1 rate d=1e-3",
            lambda: build_spec("example1", RATE_OVERRIDES),
            Outcome(
                "discrepancy", 4898, 12530, 29959, 7632,
                "b45b3f8fac52d5d7182b02f0b786fd3a0d3e6da738da9103e59b3d1d51acf44b",
                "1f4fe66a99a6bea229eaf9a8a413b3755612ecdbc91d84736a5f75ee92aeda95",
            ),
            _alpha_refined,
        ),
        BenchRun(
            "example2d r=2",
            lambda: make_example2d(delta=1e-3, r=2.0),
            Outcome(
                "discrepancy", 3, 115, 347, 0,
                "a4a0413a0c73a8750ca9ed39b769db26ede28f411c67300927622bf6d8b0e14d",
                "2e8b048879e1a7ea4486e00548e82c834c55d30d2961c2e1d21726f2d737b447",
            ),
            _peak_in_box,
        ),
        BenchRun(
            "example2d r=10",
            lambda: make_example2d(delta=1e-2, r=10.0),
            Outcome(
                "discrepancy", 1, 23, 71, 0,
                "486dd96eec69b9072808689177ce7ab130d9d06f8581f53e6aa706cfe49bf615",
                "9127ab27fc28e9c25e9137ffe4d682192893244c8a5a29a8f01e6dff0e0700eb",
            ),
            _peak_in_box,
        ),
    )
}

# why each workload is here, and which layers it stresses, is in README.md;
# box-2d runs on demand but is not declared in BENCHMARK.json (README.md says why)
WORKLOADS = {
    "sparse-1d": ("example1 p=1.1", "example2 p=1.1"),
    "rate-1d": ("example1 rate d=1e-3",),
    "box-2d": ("example2d r=2", "example2d r=10"),
}

# the rows of the baseline table in ROADMAP.md, in its order
ROADMAP_RUNS = (
    "example1 p=1.1",
    "example1 p=2",
    "example2 p=1.1",
    "example3",
    "example2d r=2",
    "example2d r=10",
)
