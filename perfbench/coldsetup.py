"""Time one cold set-up of a workload's runs in a fresh interpreter.

Set-up is what a user pays before the solver starts: importing
newton_landweber (numpy and scipy with it), building each run's spec,
``assemble_problem``, ``make_data`` and the ``SolverConfig``. Prints one JSON
object of times in seconds. ``run.py`` starts this script several times and
reports the medians.

    python3 perfbench/coldsetup.py --seed 0 "example1 p=1.1" "example2 p=1.1"
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

import checkout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("runs", nargs="+")
    args = parser.parse_args()
    checkout.prepare()

    start = perf_counter()
    import newton_landweber
    from newton_landweber import SolverConfig
    from newton_landweber.experiments import assemble_problem, make_data

    import_s = perf_counter() - start
    checkout.verify_source(newton_landweber)
    import workloads  # the benchmark's own module, not charged to set-up

    times = {"spec_s": 0.0, "assemble_problem_s": 0.0, "make_data_s": 0.0, "config_s": 0.0}
    for name in args.runs:
        t0 = perf_counter()
        spec = workloads.RUNS[name].spec(args.seed)
        t1 = perf_counter()
        _, _, exact, _ = assemble_problem(spec)
        t2 = perf_counter()
        _, delta = make_data(spec, exact)
        t3 = perf_counter()
        SolverConfig(space=spec.space, delta=delta, **spec.solver)
        t4 = perf_counter()
        times["spec_s"] += t1 - t0
        times["assemble_problem_s"] += t2 - t1
        times["make_data_s"] += t3 - t2
        times["config_s"] += t4 - t3
    times["import_s"] = import_s
    times["setup_s"] = sum(times.values())
    print(json.dumps(times))


if __name__ == "__main__":
    main()
