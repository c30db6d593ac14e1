"""Print the ROADMAP baseline table (run, wall, steps, µs/step) from measured runs.

    python3 perfbench/table.py

Every row of the table in ROADMAP.md is solved at its shipped seed, after a
warm-up, REPEATS times; wall is the median ``run()`` time. Each run's
output is checked against its pins, as in run.py.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

import run  # pins the thread pools and the package path first
import checkout
import workloads

REPEATS = 3


def main() -> int:
    cases = [run.prepare_case(workloads.RUNS[name], 0) for name in workloads.ROADMAP_RUNS]
    ledger = run.Ledger(seed=0)
    checkout.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=checkout.SCRATCH, prefix="perfbench-") as tmp:
        outdir = Path(tmp)
        run.warm_up(cases, outdir)
        passes = [run.run_pass(cases, outdir, ledger, traced=False) for _ in range(REPEATS)]
    if None in passes:
        return 1
    rows = [
        (name, statistics.median(p.solve_s[name] for p in passes), passes[0].steps[name])
        for name in workloads.ROADMAP_RUNS
    ]
    print(f"{run.environment(0)}, median of {REPEATS}")
    print(run.roadmap_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
