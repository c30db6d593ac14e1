"""Smoke test of the benchmark itself on its cheapest run, example2d r=10.

    python3 -m pytest perfbench -q

The repository's test suite does not collect this file (its testpaths is
``tests``); it runs in a few seconds, most of them the cold set-up probes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run  # pins the thread pools and the package path first
import checkout
import workloads

SMOKE = ["example2d r=10"]


@pytest.fixture(scope="module")
def declared():
    return json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


def test_declared_workloads_exist(declared):
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(trace, declared, capsys):
    m = run.measure(SMOKE, seed=0, seconds=0.1, trace=trace)
    line = run.result_line(m, trace)

    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert {name: v["unit"] for name, v in line["metrics"].items()} == {
        w["name"]: w["unit"] for w in wanted
    }
    assert all(v["value"] == v["value"] for v in line["metrics"].values())  # no NaN
    if not trace:
        # step_us_p1 weighs every inner step and every outer loop of the run
        units = {key.split(" / ")[1]: n for key, n, *_ in m.groups}
        (steps,) = (row[2] for row in m.table)
        assert units["step"] + units.get("refinement step", 0) == steps
        assert units["outer loop"] == workloads.RUNS[SMOKE[0]].pinned.n_star + 1

    run.print_report("smoke", 0, trace, m)
    printed = capsys.readouterr().out
    for name, unit in {**run.END_TO_END, **run.UNBOUNDED}.items():
        assert any(row.split()[:1] == [name] and row.split()[2] == unit for row in printed.splitlines())


def test_changed_output_fails_the_check(tmp_path):
    (name,) = SMOKE
    case = run.prepare_case(workloads.RUNS[name], seed=0)
    report, _ = run.solve(case)
    files, *_ = run.write(report, tmp_path)
    observed = workloads.outcome(report, files)
    altered = dataclasses.replace(observed, steps=observed.steps + 1)

    assert workloads.check(case.run, 0, report, observed) == []
    assert workloads.check(case.run, 0, report, altered) != []
    # away from the shipped seed only a failure reason is checked
    assert workloads.check(case.run, 1, report, altered) == []
