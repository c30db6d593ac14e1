"""Command-line harness: run presets, sweep parameters, verify properties.

Configuration is a flat ``key = value`` text file; every key also works as
``--override key=value`` on the command line, with the command line winning.
The ``preset`` key picks the experiment; remaining keys override spec,
noise, and solver fields (``apply_overrides`` derives the keys from the
``SolverConfig`` and ``NoiseSpec`` fields).

Output directory precedence: ``--out``, then ``$NEWTON_LANDWEBER_OUT``,
then ``./runs``. ``run`` is a sweep of one combination: each run writes
``iterations.csv``, ``summary.csv`` and ``solution.csv`` into a
subdirectory named by ``experiments.run_label``; ``sweep`` additionally
merges the per-run summary rows into ``sweep_summary.csv``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .experiments import (
    PRESETS, ExperimentSpec, RunReport, build_spec, prepare_run, run_experiment, run_label,
)
from .reporting import summary_row, write_run, write_summary_rows

ENV_OUT = "NEWTON_LANDWEBER_OUT"


def parse_config(path: str) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment, blanks ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def resolve_outdir(arg: str | None) -> str:
    if arg:
        return arg
    env = os.environ.get(ENV_OUT)
    if env:
        return env
    return os.path.join(os.curdir, "runs")


def _gather_overrides(args: argparse.Namespace) -> tuple[str, dict[str, str]]:
    """Merge config file, --preset/--seed flags and --override pairs."""
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_config(args.config))
    preset = args.preset or values.pop("preset", None)
    if preset is None:
        raise ValueError("no preset: pass --preset or put 'preset = <name>' in the config")
    values.pop("preset", None)
    if args.seed is not None:
        values["seed"] = str(args.seed)
    for pair in args.override or []:
        if "=" not in pair:
            raise ValueError(f"--override needs key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        values[key.strip()] = value.strip()
    return preset, values


def _report_line(report: RunReport) -> str:
    return (
        f"{report.spec.name}: n*={report.n_star} N_p={report.n_p} "
        f"err_L2={report.err_l2:.6g} err_Lp={report.err_lp:.6g} reason={report.reason}"
    )


def _run_combinations(args: argparse.Namespace, axes: list) -> tuple[list[dict], int]:
    """Run and write each combination of the ``axes`` (none: one run) on the
    settings of ``args``; return the runs' summary rows and how many failed."""
    preset, base = _gather_overrides(args)
    outdir = resolve_outdir(args.out)
    # every combination is set up and named before the first run, so that
    # a bad value, or two runs that would share a directory, fail before a
    # file is written
    runs: dict[str, tuple[str, ExperimentSpec]] = {}
    for combo in itertools.product(*(options for _, options in axes)):
        swept = {key: value for (key, _), value in zip(axes, combo)}
        spec = build_spec(preset, {**base, **swept})
        prepare_run(spec)
        name = run_label(spec)
        settings = ", ".join(f"{key}={value}" for key, value in swept.items())
        if name in runs:
            raise ValueError(
                f"--vary combinations {runs[name][0]} and {settings} "
                f"both name the directory {name}"
            )
        runs[name] = settings, spec
    # a run's summary row, not its report, so that a sweep holds one run at a time
    rows, failed = [], 0
    for name, (_, spec) in runs.items():
        rundir = os.path.join(outdir, name)
        report = run_experiment(spec)
        write_run(rundir, report)
        rows.append(summary_row(report))
        print(_report_line(report))
        print(f"wrote {rundir}")
        if report.result.failed:
            failed += 1
            print(f"run failed: {report.reason}", file=sys.stderr)
    return rows, failed


def cmd_run(args: argparse.Namespace) -> int:
    _, failed = _run_combinations(args, [])
    return 1 if failed else 0


def _parse_vary(pairs: list[str]) -> list[tuple[str, list[str]]]:
    axes = []
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--vary needs key=v1,v2,..., got {pair!r}")
        key, values = pair.split("=", 1)
        key = key.strip()
        options = [v.strip() for v in values.split(",") if v.strip()]
        if not options:
            raise ValueError(f"--vary {key!r} lists no values")
        # a second axis of one key would override the first in every run
        if any(key == seen for seen, _ in axes):
            raise ValueError(f"--vary {key!r} given twice")
        axes.append((key, options))
    return axes


def cmd_sweep(args: argparse.Namespace) -> int:
    rows, failed = _run_combinations(args, _parse_vary(args.vary))
    merged = os.path.join(resolve_outdir(args.out), "sweep_summary.csv")
    write_summary_rows(merged, rows)
    print(f"wrote {merged}")
    if failed:
        print(f"{failed} of {len(rows)} runs failed", file=sys.stderr)
        return 1
    return 0


def cmd_verify(_: argparse.Namespace) -> int:
    # imported here: only verify needs the checks, and they load numpy.random
    from .checks import run_checks

    results = run_checks()
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'}  {res.name}: {res.detail}")
    bad = sum(not res.ok for res in results)
    if bad:
        print(f"{bad} of {len(results)} checks failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newton-landweber",
        description="Newton-type iteratively regularized Landweber iteration in L^p spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--preset", help="experiment preset name", choices=sorted(PRESETS))
        p.add_argument("--seed", type=int, help="noise seed override")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./runs)")
        p.add_argument(
            "--override",
            action="append",
            metavar="KEY=VALUE",
            help="spec/solver override, repeatable",
        )

    p_run = sub.add_parser("run", help="run one experiment and write its CSVs")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--vary",
        action="append",
        required=True,
        metavar="KEY=V1,V2,...",
        help="sweep axis, repeatable (cartesian product)",
    )
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the property check suite")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
