"""Benchmark of the newton-landweber solver: timed workloads with checked outputs.

    python3 perfbench/run.py --workload sparse-1d --seed 0 --seconds 30 --trace 0

One process on one thread runs a closed loop: the workload's runs execute
back to back, pass after pass, until the next pass would overrun
``--seconds``. Each run is one ``run()`` call on inputs made from the seed
(see workloads.py), followed by ``write_run`` of its CSVs and a check of the
output. Before timing, each run is solved once, shortened, to warm up;
cold set-up is measured separately, in fresh interpreters (coldsetup.py).

The bounded timing is built from low percentiles of many short samples. On
a host whose cores are shared with other tenants, a step runs at one of two
speeds that alternate every few milliseconds, and the share of slow time
drifts by tens of percent over minutes; a mean over seconds follows that
drift, the fast tail of millisecond samples does not. The timeline of each
run is cut at every inner step and every outer loop, the pieces are grouped
by kind (outer-loop set-up, inner step, refinement step) and run, and each
group's low percentile is weighted by how many pieces of that group a pass
holds, so every kind of work of every run counts in proportion.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half traced and reports the per-layer metrics of the
traced passes (tracer.py). Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checkout

checkout.prepare()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import newton_landweber  # noqa: E402
from newton_landweber import (  # noqa: E402
    EllipticProblem,
    GridFunction,
    SolverConfig,
    compute_error,
    write_run,
)
from newton_landweber.experiments import (  # noqa: E402
    ExperimentSpec,
    RunReport,
    assemble_problem,
    make_data,
)

import workloads  # noqa: E402
from tracer import REPORTING_SPANS, SOLVER_SPANS, StepClock, Tracer  # noqa: E402

checkout.verify_source(newton_landweber)
SOLVER = importlib.import_module("newton_landweber.solver")

SETUP_REPEATS = 15
WARMUP_STEPS = 200
BLOCK_S = 2e-3  # shortest block of consecutive segments timed as one sample
STEP_PCT = 1  # the percentile of each group's block costs that step_us_p1 weights

# name -> unit; the metrics BENCHMARK.json bounds. Cost per unit of work,
# not run time, because step counts move with the seed.
END_TO_END = {
    "step_us_p1": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed with the above but not bounded: run times scale with the seed's
# step counts, means over seconds follow the host's contention, and
# failed_frac is 0 on a good run
UNBOUNDED = {
    "us_per_step": "us",
    "solve_s": "s",
    "report_s": "s",
    "total_s": "s",
    "failed_frac": "1",
}
PER_LAYER = {
    "grids.GridFunction.constructions": "count",
    "grids.GridFunction.self_s": "s",
    "grids.constructions_per_step": "1/step",
    "solver.run.self_s": "s",
    "solver.inner_steps": "count",
    "solver.outer_loops": "count",
    "solver.total_applies": "count",
    "solver.refinement_steps": "count",
    "solver.residual_check_hit_ratio": "ratio",
    "forward.solve_state.calls": "count",
    "forward.solve_state.self_s": "s",
    "forward.forward.calls": "count",
    "forward.forward.self_s": "s",
    "forward.derivative_apply.self_s": "s",
    "forward.adjoint_apply.self_s": "s",
    "forward.factorizations_per_step": "1/step",
    "geometry.duality_map.calls": "count",
    "geometry.duality_map.self_s": "s",
    "geometry.inverse_duality_map.self_s": "s",
    "geometry.lp_norm.calls": "count",
    "geometry.lp_norm.self_s": "s",
    "geometry.shifted_bregman.self_s": "s",
    "schedules.calls": "count",
    "schedules.self_s": "s",
    "experiments.import_s": "s",
    "experiments.assemble_problem_s": "s",
    "experiments.make_data_s": "s",
    "reporting.write_iterations_s": "s",
    "reporting.write_solution_s": "s",
    "reporting.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}
SCHEDULE_SPANS = [name for _, _, name in SOLVER_SPANS if name.startswith("schedules.")]


@dataclass(frozen=True)
class Case:
    """One run's inputs, made once from the seed and reused by every pass."""

    run: workloads.BenchRun
    spec: ExperimentSpec
    problem: EllipticProblem
    truth: GridFunction
    data: GridFunction
    x0: GridFunction
    effective_delta: float
    config: SolverConfig


def prepare_case(run: workloads.BenchRun, seed: int) -> Case:
    spec = run.spec(seed)
    problem, truth, exact, x0 = assemble_problem(spec)
    data, delta = make_data(spec, exact)
    config = SolverConfig(space=spec.space, delta=delta, **spec.solver)
    return Case(run, spec, problem, truth, data, x0, delta, config)


def solve(case: Case, hook=contextlib.nullcontext()) -> tuple[RunReport, float]:
    """One ``run()`` call inside ``hook``, timed around the call; returns the report and seconds."""
    with hook:
        start = perf_counter()
        result = SOLVER.run(case.problem, case.data, case.config, x0=case.x0, truth=case.truth)
        seconds = perf_counter() - start
    err_l2, err_lp = compute_error(result.final, case.truth, case.spec.space.p)
    report = RunReport(
        spec=case.spec,
        config=case.config,
        result=result,
        truth=case.truth,
        data=case.data,
        effective_delta=case.effective_delta,
        err_l2=err_l2,
        err_lp=err_lp,
        wall_ms=1000.0 * seconds,
    )
    return report, seconds


def write(report: RunReport, outdir: Path, hook=contextlib.nullcontext()):
    """``write_run`` inside ``hook``, timed; returns (paths, seconds, bytes written)."""
    with hook:
        start = perf_counter()
        files = write_run(str(outdir), report)
        seconds = perf_counter() - start
    size = sum(os.path.getsize(path) for path in files.values())
    return files, seconds, size


class Ledger:
    """Attempted and failed runs, and the first outcome of each run as reference.

    Every later pass, traced or not, must reproduce that outcome exactly.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, workloads.Outcome] = {}

    def record(self, case: Case, report: RunReport, observed: workloads.Outcome) -> bool:
        problems = workloads.check(case.run, self.seed, report, observed)
        first = self.reference.setdefault(case.run.name, observed)
        if observed != first:
            problems.append(f"{case.run.name}: {observed} differs from first pass {first}")
        for problem in problems:
            print(f"perfbench: output check failed: {problem}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems


@dataclass
class Pass:
    """One execution of every run of the workload."""

    solve_s: dict[str, float] = dataclasses.field(default_factory=dict)
    steps: dict[str, int] = dataclasses.field(default_factory=dict)
    report_s: float = 0.0
    # per segment group (see segments): the segment count and the block costs
    units: dict[str, int] = dataclasses.field(default_factory=dict)
    blocks: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    layers: dict[str, float] | None = None


def segments(clock: StepClock, report: RunReport) -> dict[str, list[float]]:
    """The run's timeline cut at every stamp: segment seconds by group, in order.

    A segment runs from one stamp to the next, the last one to the end of
    ``run()``. One that starts at an outer-loop stamp holds the state solve
    with its factorization, the inner loop's set-up and the head of the
    loop's first step; one that starts at a step stamp holds the rest of
    that step, its residual check included. Step segments are grouped by
    whether the step belongs to the rate-mode refinement tail. Only the few
    microseconds of ``run()`` before its first state solve are left out.
    """
    records = report.result.log.records
    kinds = [kind for _, kind in clock.stamps]
    if kinds.count(StepClock.STEP) != len(records) or kinds.count(StepClock.OUTER) != len(
        report.result.log.outer
    ):
        raise RuntimeError(
            f"step clock stamped {kinds.count(StepClock.STEP)} steps and "
            f"{kinds.count(StepClock.OUTER)} outer loops, the log holds {len(records)} and "
            f"{len(report.result.log.outer)}: the solver no longer calls choose_omega once "
            "per step and solve_state once per outer loop"
        )
    groups: dict[str, list[float]] = {}
    ends = [t for t, _ in clock.stamps[1:]] + [clock.end]
    step = 0
    for (start, kind), end in zip(clock.stamps, ends):
        if kind == StepClock.OUTER:
            group = "outer loop"
        else:
            group = "refinement step" if records[step].refinement else "step"
            step += 1
        groups.setdefault(group, []).append(end - start)
    return groups


def block_costs(seconds: list[float]) -> list[float]:
    """Cost per segment, in us, of each run of consecutive segments lasting at least BLOCK_S.

    A group too short for one block gives one sample, its mean.
    """
    costs, total, count = [], 0.0, 0
    for duration in seconds:
        total += duration
        count += 1
        if total >= BLOCK_S:
            costs.append(1e6 * total / count)
            total, count = 0.0, 0
    if not costs:
        costs.append(1e6 * total / count)
    return costs


def layer_metrics(tracer: Tracer, reports: list[RunReport], bytes_written: int) -> dict:
    calls, own, total = tracer.calls, tracer.self_time, tracer.total
    steps = sum(report.n_p for report in reports)
    forward_calls = calls.get("forward.forward", 0)
    hits = sum(
        outer.inner_reason == "inner discrepancy"
        for report in reports
        for outer in report.result.log.outer
    )
    return {
        "grids.GridFunction.constructions": calls.get("grids.GridFunction", 0),
        "grids.GridFunction.self_s": own.get("grids.GridFunction", 0.0),
        "grids.constructions_per_step": calls.get("grids.GridFunction", 0) / steps,
        "solver.run.self_s": own["solver.run"],
        "solver.inner_steps": steps,
        "solver.outer_loops": sum(len(report.result.log.outer) for report in reports),
        "solver.total_applies": sum(report.result.total_applies for report in reports),
        "solver.refinement_steps": sum(
            rec.refinement for report in reports for rec in report.result.log.records
        ),
        # 0 where no residual check runs (rate mode)
        "solver.residual_check_hit_ratio": hits / forward_calls if forward_calls else 0.0,
        "forward.solve_state.calls": calls.get("forward.solve_state", 0),
        "forward.solve_state.self_s": own.get("forward.solve_state", 0.0),
        "forward.forward.calls": forward_calls,
        "forward.forward.self_s": own.get("forward.forward", 0.0),
        "forward.derivative_apply.self_s": own.get("forward.derivative_apply", 0.0),
        "forward.adjoint_apply.self_s": own.get("forward.adjoint_apply", 0.0),
        "forward.factorizations_per_step": calls.get("forward.solve_state", 0) / steps,
        "geometry.duality_map.calls": calls.get("geometry.duality_map", 0),
        "geometry.duality_map.self_s": own.get("geometry.duality_map", 0.0),
        "geometry.inverse_duality_map.self_s": own.get("geometry.inverse_duality_map", 0.0),
        "geometry.lp_norm.calls": calls.get("geometry.lp_norm", 0),
        "geometry.lp_norm.self_s": own.get("geometry.lp_norm", 0.0),
        "geometry.shifted_bregman.self_s": own.get("geometry.shifted_bregman", 0.0),
        "schedules.calls": sum(calls.get(name, 0) for name in SCHEDULE_SPANS),
        "schedules.self_s": sum(own.get(name, 0.0) for name in SCHEDULE_SPANS),
        "reporting.write_iterations_s": total.get("reporting.write_iterations", 0.0),
        "reporting.write_solution_s": total.get("reporting.write_solution", 0.0),
        "reporting.bytes_written": bytes_written,
    }


def run_pass(cases: list[Case], outdir: Path, ledger: Ledger, traced: bool) -> Pass | None:
    """Solve, write and check every run once; None if any run failed.

    Untraced, a clock stamps each inner step; traced, the layer spans are
    recorded instead.
    """
    tracer = Tracer() if traced else None
    done = Pass()
    reports, bytes_written, ok = [], 0, True
    for index, case in enumerate(cases):
        ledger.attempted += 1
        step_clock = StepClock()
        try:
            report, seconds = solve(case, tracer.installed(SOLVER_SPANS) if tracer else step_clock.installed())
            reporting = tracer.installed(REPORTING_SPANS) if tracer else contextlib.nullcontext()
            files, wrote_s, size = write(report, outdir / f"run{index}", reporting)
            observed = workloads.outcome(report, files)
        except Exception:  # a run that raises is a failed run; keep measuring
            traceback.print_exc()
            ledger.failed += 1
            ok = False
            continue
        if not ledger.record(case, report, observed):
            ok = False  # a failed run may stop between stamps; time only good passes
            continue
        done.solve_s[case.run.name] = seconds
        done.steps[case.run.name] = report.n_p
        done.report_s += wrote_s
        reports.append(report)
        bytes_written += size
        if tracer is None:
            for group, seconds in segments(step_clock, report).items():
                key = f"{case.run.name} / {group}"
                done.units[key] = len(seconds)
                done.blocks[key] = block_costs(seconds)
    if not ok:
        return None
    if tracer is not None:
        done.layers = layer_metrics(tracer, reports, bytes_written)
        # the reported self times must account for all of run()
        reported = sum(v for k, v in done.layers.items() if k.endswith(".self_s"))
        if not math.isclose(reported, tracer.total["solver.run"], rel_tol=1e-9):
            raise RuntimeError(
                f"reported self times sum to {reported!r} s, run() spans to "
                f"{tracer.total['solver.run']!r} s: a traced span is not reported"
            )
    return done


def timed_passes(
    cases: list[Case], seconds: float, outdir: Path, ledger: Ledger, traced: bool
) -> list[Pass]:
    """Passes back to back until the next one would end after ``seconds``."""
    passes = []
    start = perf_counter()
    last = 0.0
    rounds = 0
    while rounds == 0 or perf_counter() - start + last <= seconds:
        began = perf_counter()
        done = run_pass(cases, outdir, ledger, traced)
        last = perf_counter() - began
        rounds += 1
        if done is not None:
            passes.append(done)
    return passes


def cold_setup(run_names: list[str], seed: int) -> tuple[dict[str, float], list[float]]:
    """Fastest set-up times over fresh interpreters, plus the setup_s samples.

    Each sample lasts about half a second, long enough to take in the host's
    current mix of fast and slow phases. Over ten seeds the median of a run's
    15 samples spread by 22-29% (interquartile range over median), the fastest
    by 11-28%; what is left follows a drift of the host's own speed.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("coldsetup.py")), "--seed", str(seed), *run_names],
            cwd=checkout.ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    fastest = {key: min(s[key] for s in samples) for key in samples[0]}
    return fastest, [s["setup_s"] for s in samples]


def warm_up(cases: list[Case], outdir: Path) -> None:
    """Solve each run once, cut short, and write its CSVs where the passes will."""
    for index, case in enumerate(cases):
        short = dataclasses.replace(case, config=case.config.replace(max_total_inner=WARMUP_STEPS))
        report, _ = solve(short)
        write(report, outdir / f"run{index}")


@dataclass
class Measurement:
    """Everything one invocation measured."""

    values: dict[str, float]  # every metric by name
    samples: dict[str, list[float]]  # the samples behind each median
    groups: list[tuple[str, int, float, float, int]]  # step_us_p1 terms: group, units, p1 and median us, blocks
    table: list[tuple[str, float, int]]  # run, median wall s, steps
    attempted: int
    failed: int


def measure(run_names: list[str], seed: int, seconds: float, trace: bool) -> Measurement:
    """Run the workload made of ``run_names`` at ``seed`` for about ``seconds``."""
    cases = [prepare_case(workloads.RUNS[name], seed) for name in run_names]
    setup, setup_samples = cold_setup(run_names, seed)
    ledger = Ledger(seed)
    checkout.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=checkout.SCRATCH, prefix="perfbench-") as tmp:
        outdir = Path(tmp)
        warm_up(cases, outdir)
        budget = seconds / 2 if trace else seconds
        plain = timed_passes(cases, budget, outdir, ledger, traced=False)
        traced = timed_passes(cases, budget, outdir, ledger, traced=True) if trace else []
    if not plain or (trace and not traced):
        raise SystemExit("perfbench: every pass had a failed run")

    solve_s = [sum(p.solve_s.values()) for p in plain]
    report_s = [p.report_s for p in plain]
    samples = {
        "setup_s": setup_samples,
        "us_per_step": [1e6 * sum(p.solve_s.values()) / sum(p.steps.values()) for p in plain],
        "solve_s": solve_s,
        "report_s": report_s,
        "total_s": [setup["setup_s"] + s + r for s, r in zip(solve_s, report_s)],
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    # every pass reproduced the first, so each has the same groups and counts
    groups = []
    for key, units in plain[0].units.items():
        blocks = [x for p in plain for x in p.blocks[key]]
        p1 = float(np.percentile(blocks, STEP_PCT))
        groups.append((key, units, p1, statistics.median(blocks), len(blocks)))
    values["step_us_p1"] = sum(units * p1 for _, units, p1, _, _ in groups) / sum(plain[0].steps.values())
    values["setup_s"] = setup["setup_s"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["failed_frac"] = ledger.failed / ledger.attempted
    if trace:
        for name in traced[0].layers:
            values[name] = statistics.median(p.layers[name] for p in traced)
        values["experiments.import_s"] = setup["import_s"]
        values["experiments.assemble_problem_s"] = setup["assemble_problem_s"]
        values["experiments.make_data_s"] = setup["make_data_s"]
        traced_solve = statistics.median(sum(p.solve_s.values()) for p in traced)
        values["trace.overhead_frac"] = traced_solve / values["solve_s"] - 1.0
    table = [
        (name, statistics.median(p.solve_s[name] for p in plain), plain[0].steps[name])
        for name in run_names
    ]
    return Measurement(values, samples, groups, table, ledger.attempted, ledger.failed)


def upper_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


def format_wall(seconds: float) -> str:
    return f"{seconds:.2f} s" if seconds >= 1.0 else f"{1000.0 * seconds:.0f} ms"


def roadmap_table(rows: list[tuple[str, float, int]]) -> str:
    """The ROADMAP baseline table: run, wall, steps, µs per step."""
    lines = [
        "| run                  | wall    | steps  | µs/step |",
        "|----------------------|---------|--------|---------|",
    ]
    for name, wall, steps in rows:
        lines.append(
            f"| {name:<20} | {format_wall(wall):<7} | {steps:<6,} | {1e6 * wall / steps:<7,.0f} |"
        )
    return "\n".join(lines)


def environment(seed: int) -> str:
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, nproc {len(os.sched_getaffinity(0))}, "
        f"BLAS/OpenMP threads {os.environ['OPENBLAS_NUM_THREADS']}, "
        f"commit {checkout.commit()}, seed {seed}"
    )


def print_report(workload: str, seed: int, trace: bool, m: Measurement) -> None:
    print(f"perfbench {workload}: {environment(seed)}")
    print(roadmap_table(m.table))
    units = {**END_TO_END, **UNBOUNDED, **(PER_LAYER if trace else {})}
    for name, unit in units.items():
        line = f"{name:<40} {m.values[name]:>14.6g} {unit}"
        if name in m.samples:
            xs = m.samples[name]
            upper = upper_percentile(xs)
            tail = f", p{upper[0]} {upper[1]:.6g}" if upper else ""
            stat = f"median of {len(xs)}"
            if name == "setup_s":
                stat = f"fastest of {len(xs)}, median {statistics.median(xs):.6g}"
            line += f"  ({stat}{tail})"
        print(line)
        if name == "step_us_p1":
            for key, units, p1, median, blocks in m.groups:
                print(
                    f"    {key:<38} {units:>6} x {p1:>8.2f} us  "
                    f"(p{STEP_PCT} of {blocks} blocks, median {median:.2f})"
                )


def result_line(m: Measurement, trace: bool) -> dict:
    """The final output: the per-layer metrics when traced, else the end-to-end ones."""
    reported = PER_LAYER if trace else END_TO_END
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": m.values[name], "unit": unit} for name, unit in reported.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the newton-landweber solver.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="offset added to each preset's shipped seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    m = measure(list(workloads.WORKLOADS[args.workload]), args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, args.seed, bool(args.trace), m)
    print(json.dumps(result_line(m, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
