"""Command-line harness: run presets, sweep parameters, verify properties.

Configuration is a flat ``key = value`` text file; every key also works as
``--override key=value`` on the command line, with the command line winning.
The ``preset`` key picks the experiment; remaining keys override spec,
noise, and solver fields (``apply_overrides`` derives the keys from the
``SolverConfig`` and ``NoiseSpec`` fields).

Output directory precedence: ``--out``, then ``$NEWTON_LANDWEBER_OUT``,
then ``./runs``. Each run writes ``iterations.csv``, ``summary.csv`` and
``solution.csv`` into its own subdirectory; ``sweep`` additionally merges
the per-run summary rows into ``sweep_summary.csv``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .experiments import PRESETS, ExperimentSpec, RunReport, build_spec, run_experiment
from .reporting import summary_row, write_run, write_summary_rows
from .solver import SolverConfig

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


def _float_text(value: float) -> str:
    """The shortest text that reads back as ``value``, less a trailing ``.0``.

    Two settings that differ in any digit get different texts, so a sweep
    never writes two runs into one directory.
    """
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


# the override keys a run's directory name carries, in order, each with its
# text there (None leaves it out); a sweep tags every other swept key on
LABEL_KEYS = {
    "p": lambda spec: _float_text(spec.space.p),
    "r": lambda spec: _float_text(spec.space.r),
    "delta": lambda spec: _float_text(spec.noise.delta),
    "tau": lambda spec: _float_text(spec.solver["tau"]) if "tau" in spec.solver else None,
    "seed": lambda spec: str(spec.seed),
}


def run_label(spec: ExperimentSpec) -> str:
    """Directory name carrying the identifying knobs of a run."""
    parts = [spec.name]
    for key, text in LABEL_KEYS.items():
        value = text(spec)
        if value is not None:
            parts.append(key + value)
    return "_".join(part.replace("+", "") for part in parts)


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


def _execute(spec: ExperimentSpec, outdir: str, label_extra: str = "") -> tuple[RunReport, str]:
    report = run_experiment(spec)
    rundir = os.path.join(outdir, run_label(spec) + label_extra)
    write_run(rundir, report)
    return report, rundir


def cmd_run(args: argparse.Namespace) -> int:
    preset, overrides = _gather_overrides(args)
    outdir = resolve_outdir(args.out)
    report, rundir = _execute(build_spec(preset, overrides), outdir)
    print(_report_line(report))
    print(f"wrote {rundir}")
    if report.result.failed:
        print(f"run failed: {report.reason}", file=sys.stderr)
        return 1
    return 0


def _parse_vary(pairs: list[str]) -> list[tuple[str, list[str]]]:
    axes = []
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--vary needs key=v1,v2,..., got {pair!r}")
        key, values = pair.split("=", 1)
        options = [v.strip() for v in values.split(",") if v.strip()]
        if not options:
            raise ValueError(f"--vary {key!r} lists no values")
        axes.append((key.strip(), options))
    return axes


def cmd_sweep(args: argparse.Namespace) -> int:
    preset, base = _gather_overrides(args)
    axes = _parse_vary(args.vary)
    outdir = resolve_outdir(args.out)
    # every combination's spec and solver settings are checked before the
    # first run, so that a bad value fails the sweep before it writes a file
    runs = []
    for combo in itertools.product(*(options for _, options in axes)):
        overrides = dict(base)
        overrides.update({key: value for (key, _), value in zip(axes, combo)})
        spec = build_spec(preset, overrides)
        SolverConfig(space=spec.space, delta=spec.noise.delta, **spec.solver)
        extra = "".join(
            f"_{key}{value}".replace("+", "")
            for (key, _), value in zip(axes, combo)
            if key not in LABEL_KEYS
        )
        runs.append((spec, extra))
    # a run's summary row, not its report, so that a sweep holds one run at a time
    rows = []
    failed = 0
    for spec, extra in runs:
        report, rundir = _execute(spec, outdir, extra)
        rows.append(summary_row(report))
        print(_report_line(report) + f"  [{rundir}]")
        failed += report.result.failed
    merged = os.path.join(outdir, "sweep_summary.csv")
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
