"""Acceptance suite: one test per criterion, full-size experiment runs.

The expensive experiment runs are built once per session and shared; the
criteria then assert reconstruction quality, iteration counts, stopping
reasons and rate-mode mechanics. The operator/geometry identities
(criteria 5-7) and the per-step omega/alpha/phi audit (criterion 10) are
the functions of ``newton_landweber.checks``, which ``verify`` runs too, so
their tolerances live there. Each test prints a single summary line.
"""

import numpy as np
import pytest

from newton_landweber import (
    apply_overrides,
    build_spec,
    make_example1,
    make_example2,
    make_example3,
    make_example2d,
    run_experiment,
)
from newton_landweber.checks import (
    check_adjoint_identity,
    check_bregman_identities,
    check_taylor_order,
    step_bound_audit,
)
from newton_landweber.solver import refinement_threshold

# rate-mode configuration for criterion 9: Hilbert setting, nu = 1/2 so
# theta = 1; c_alpha just above its admissibility bound (tau_tilde*(1+eta))
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
}


@pytest.fixture(scope="session")
def runs():
    reports = {
        "ex1_p11": run_experiment(make_example1(p=1.1)),
        "ex1_p2": run_experiment(make_example1(p=2.0)),
        "ex2_p11": run_experiment(make_example2(p=1.1)),
        "ex2_p2": run_experiment(make_example2(p=2.0)),
        "ex3_lo": run_experiment(make_example3(tau=1.0015)),
        "ex3_hi": run_experiment(make_example3(tau=1.0 + 1e-5)),
        "ex3_r2": run_experiment(apply_overrides(make_example3(), {"r": "2"})),
        "e2d_d3_r2": run_experiment(make_example2d(delta=1e-3, r=2.0)),
        "e2d_d2_r2": run_experiment(make_example2d(delta=1e-2, r=2.0)),
        "e2d_d2_r10": run_experiment(make_example2d(delta=1e-2, r=10.0)),
        "noiseless": run_experiment(
            build_spec("example1", {"delta": "0", "max_total_inner": "2000"})
        ),
    }
    for d in ("1e-2", "1e-3", "1e-4"):
        overrides = dict(RATE_OVERRIDES, delta=d)
        reports[f"rate_{d}"] = run_experiment(build_spec("example1", overrides))
    return reports


def _line(num, text):
    print(f"criterion {num}: PASS  {text}")


def test_criterion_01_example1_reproduction(runs):
    lo, hi = runs["ex1_p11"], runs["ex1_p2"]
    assert lo.reason == "discrepancy"
    assert lo.err_l2 <= 0.10
    assert 1000 <= lo.n_p <= 10000
    assert hi.reason == "discrepancy"
    assert hi.err_l2 <= 0.25
    assert 1300 <= hi.n_p <= 13000
    assert lo.n_p < hi.n_p
    assert lo.wall_ms <= 120_000 and hi.wall_ms <= 120_000
    _line(1, f"p=1.1: N={lo.n_p} err={lo.err_l2:.4f}; p=2: N={hi.n_p} err={hi.err_l2:.4f}")


def test_criterion_02_example2_reproduction(runs):
    lo, hi = runs["ex2_p11"], runs["ex2_p2"]
    assert lo.reason == "discrepancy"
    assert hi.reason == "discrepancy"
    assert lo.err_l2 <= 0.12
    assert hi.err_l2 <= 0.25
    assert 3110 / 3 <= lo.n_p <= 3110 * 3
    assert 4141 / 3 <= hi.n_p <= 4141 * 3
    assert lo.err_l2 < hi.err_l2
    _line(2, f"p=1.1: N={lo.n_p} err={lo.err_l2:.4f}; p=2: N={hi.n_p} err={hi.err_l2:.4f}")


def test_criterion_03_example3_outlier_robustness(runs):
    lo, hi, ctrl = runs["ex3_lo"], runs["ex3_hi"], runs["ex3_r2"]
    for rep in (lo, hi):
        assert rep.reason == "discrepancy"
        assert rep.err_l2 <= 0.45
        assert rep.n_p <= 2000
    assert ctrl.err_l2 > lo.err_l2
    assert ctrl.err_l2 > hi.err_l2
    _line(3, f"r=1.1 errs {lo.err_l2:.4f}/{hi.err_l2:.4f} vs r=2 control {ctrl.err_l2:.4f}")


def test_criterion_04_2d_example(runs):
    names = ("e2d_d3_r2", "e2d_d2_r2", "e2d_d2_r10")
    peaks = []
    for name in names:
        rep = runs[name]
        assert rep.reason == "discrepancy"
        coords = rep.truth.grid.coords()
        idx = int(np.argmax(rep.result.final.values))
        x, y = float(coords[0][idx]), float(coords[1][idx])
        assert 0.14 <= x <= 0.29 and 0.14 <= y <= 0.29
        peaks.append((x, y))
    assert runs["e2d_d2_r10"].n_p <= 50
    assert sum(runs[name].wall_ms for name in names) <= 300_000
    _line(4, f"peaks {peaks}, r=10 total inner {runs['e2d_d2_r10'].n_p}")


def test_criterion_05_adjoint_identity():
    res = check_adjoint_identity()
    assert res.ok, res.detail
    _line(5, res.detail)


def test_criterion_06_derivative_taylor_order():
    res = check_taylor_order()
    assert res.ok, res.detail
    _line(6, res.detail)


def test_criterion_07_bregman_identities():
    res = check_bregman_identities()
    assert res.ok, res.detail
    _line(7, res.detail)


def test_criterion_08_noiseless_monotonicity(runs):
    rep = runs["noiseless"]
    assert rep.config.theta == 0.0
    records = rep.result.log.records
    assert len(records) == 2000
    gammas = np.array([rec.gamma for rec in records], dtype=float)
    assert np.all(np.isfinite(gammas))
    rises = np.sum(gammas[1:] > gammas[:-1] + 1e-10)
    frac = 1.0 - rises / (len(gammas) - 1)
    assert frac >= 0.95
    assert gammas[-1] < gammas[0]
    _line(8, f"monotone on {100 * frac:.2f}% of steps, gamma {gammas[0]:.4g} -> {gammas[-1]:.4g}")


def test_criterion_09_rate_mode(runs):
    mech = runs["rate_1e-2"]
    assert mech.config.theta == pytest.approx(1.0)
    assert mech.reason == "discrepancy"
    tail = mech.result.log.outer[-1]
    assert tail.inner_reason == "refinement"
    assert tail.steps > 0
    threshold = refinement_threshold(tail.r_n, mech.config)
    refinements = [rec for rec in mech.result.log.records if rec.refinement]
    assert len(refinements) == tail.steps
    for rec in refinements:
        assert rec.alpha > threshold
    assert mech.result.final_alpha <= threshold
    errs = [runs[f"rate_{d}"].err_l2 for d in ("1e-2", "1e-3", "1e-4")]
    assert errs[0] >= errs[1] >= errs[2]
    _line(9, f"refinement {tail.steps} steps, alpha {mech.result.final_alpha:.3g} <= "
             f"{threshold:.3g}; sweep errs {[round(e, 4) for e in errs]}")


def test_criterion_10_step_bound_suite(runs):
    for name, rep in runs.items():
        audit = step_bound_audit(rep.result.log, rep.config)
        assert audit.ok, f"{name}: {audit.detail}"
    checked = sum(rep.n_p for rep in runs.values())
    _line(10, f"omega/alpha/phi bounds hold on {checked} recorded steps of {len(runs)} runs")
