"""Two-loop solver mechanics: updates, schedules, budgets, rate mode."""

import gc
import hashlib
import importlib
import inspect
import math
import sys
import tracemalloc
import warnings
import weakref
from collections.abc import Sequence
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from newton_landweber import (
    ConfigurationError,
    EllipticProblem,
    Grid,
    GridFunction,
    GridMismatchError,
    InnerBudget,
    SolverConfig,
    SpaceParams,
    build_spec,
    forward,
    generate_noise,
    lp_norm,
    make_example1,
    run,
    run_experiment,
    shifted_bregman,
)
from newton_landweber import solver
from newton_landweber.checks import step_bound_audit
from newton_landweber.experiments import assemble_problem, make_data
from newton_landweber.reporting import write_iterations, write_run
from newton_landweber.solver import refinement_threshold
from test_acceptance import RATE_OVERRIDES
from test_forward import run_fresh


def small_problem(n=50, g0=1.0, g1=2.0):
    grid = Grid((n,))
    truth = GridFunction.from_callable(grid, lambda t: 1.0 + 0.5 * t)
    state = lambda t: g0 + (g1 - g0) * t  # noqa: E731
    rhs = lambda t: state(t) * (1.0 + 0.5 * t)  # noqa: E731
    problem = EllipticProblem(grid, rhs, state)
    exact = GridFunction.from_callable(grid, state)
    return problem, truth, exact


def base_config(**kw):
    defaults = dict(
        space=SpaceParams(2.0, 2.0),
        delta=0.0,
        tau=1.1,
        tau_tilde=0.1,
        inner_budget=InnerBudget.constant(100),
        max_outer=1,
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_hilbert_case_matches_dense_oracle(p):
    # r = 2, x0 = x_n = 0: a plain numpy reimplementation with dense matrices
    # must reproduce the iterate. It recomputes J_p(z - x0) on every step, so
    # at p = 1.5 it checks the dual iterate the solver carries instead.
    # vartheta is the largest 2^-j with 2 (p/4)^(1-s*/p*) vt + 2^(p*-1) vt^(p*-1)
    # <= 0.1 (s = 2): 4 vt <= 0.1 at p = 2, 1.44 vt + 4 vt^2 <= 0.1 at p = 1.5
    problem, _, exact = small_problem()
    grid = problem.grid
    n = grid.size
    h = grid.spacing[0]
    vol = grid.cell_volume
    data = exact  # delta = 0, single linearization point
    config = base_config(
        space=SpaceParams(p, 2.0), alpha00=0.5, eta=0.1, q=0.9, c_omega_bar=0.1
    )
    vartheta = {2.0: 2.0**-6, 1.5: 2.0**-5}[p]
    assert config.vartheta == vartheta

    result = run(problem, data, config)
    assert result.reason == "outer budget"
    assert len(result.log.records) == 100

    # independent assembly of the documented discretization
    mat = np.zeros((n, n))
    idx = np.arange(n)
    mat[idx, idx] = 2.0 / h**2
    mat[idx[:-1], idx[:-1] + 1] = -1.0 / h**2
    mat[idx[1:], idx[1:] - 1] = -1.0 / h**2
    mat[0, 0] += 1.0 / h**2
    mat[-1, -1] += 1.0 / h**2
    b = problem.rhs.values.copy()
    b[0] += 2.0 * 1.0 / h**2
    b[-1] += 2.0 * 2.0 / h**2

    def norm(v, q):
        return (vol * np.sum(np.abs(v) ** q)) ** (1.0 / q)

    def jmap(v, q):
        return np.sign(v) * np.abs(v) ** (q - 1.0)

    p_star = p / (p - 1.0)
    s, s_star = 2.0, 2.0
    x_n = np.zeros(n)
    a_mat = mat + np.diag(x_n)
    u_state = np.linalg.solve(a_mat, b)
    resid0 = u_state - data.values
    r_n = norm(resid0, 2.0)
    z = x_n.copy()
    u_dual = np.zeros(n)
    resid = resid0.copy()
    t = r_n
    alpha = 0.5
    for _ in range(100):
        gradient = -u_state * np.linalg.solve(a_mat, resid)
        t_tilde = norm(gradient, p_star)
        omega = vartheta * min(
            t ** (2.0 / (s_star - 1.0)) * t_tilde**-s,
            t ** (2.0 / (p_star - 1.0)) * t_tilde**-p,
            1e8,
        )
        u_dual = u_dual - alpha * jmap(z - 0.0, p) - omega * gradient
        # x0 = x_n = 0: z = J_p^{-1}(J_p(x_n - x0) + u_dual) = J_{p*}(u_dual)
        z = jmap(u_dual, p_star)
        resid = -np.linalg.solve(a_mat, (z - x_n) * u_state) + resid0
        t = norm(resid, 2.0)
        alpha = min(1.0, 0.1 * (t + 0.1 * r_n) ** 2)

    np.testing.assert_allclose(result.final.values, z, rtol=0, atol=1e-8)
    assert result.final_alpha == pytest.approx(alpha, rel=1e-10)


def test_theta_zero_alpha_law():
    # with nu = 0 every alpha after the first is min(1, alpha_check(t))
    problem, _, exact = small_problem()
    delta = 1e-3
    data = generate_noise(exact, delta, 2.0, 5)
    config = base_config(
        delta=delta, nu=0.0, max_outer=3, inner_budget=InnerBudget.constant(30)
    )
    result = run(problem, data, config)
    recs = result.log.records
    assert len(recs) > 30
    for prev, rec in zip(recs, recs[1:]):
        if rec.n != prev.n:
            continue  # alpha carries over; checked separately
        expected = min(1.0, 0.1 * (rec.t + 0.1 * rec.r_n + 1.1 * delta) ** 2)
        assert rec.alpha == pytest.approx(expected, rel=1e-12)


def test_alpha_carries_across_outer_loops():
    problem, _, exact = small_problem()
    delta = 1e-3
    data = generate_noise(exact, delta, 2.0, 6)
    config = base_config(delta=delta, max_outer=4, inner_budget=InnerBudget.constant(10))
    result = run(problem, data, config)
    outer = result.log.outer
    assert len(outer) >= 3
    assert outer[-1].steps == 0
    records = result.log.records
    # byte equality: the value is handed over, not recomputed
    carried = config.alpha00
    for cur in outer:
        if cur.steps == 0:
            # a loop of no steps ends at the weight it starts at
            assert cur.alpha_end == carried
        else:
            first = next(rec for rec in records if rec.n == cur.n)
            assert first.alpha == carried
        carried = cur.alpha_end
    assert result.final_alpha == outer[-1].alpha_end


def test_immediate_discrepancy_returns_initial_guess():
    problem, _, exact = small_problem()
    config = base_config(delta=1e3, tau=1.5, max_outer=50)
    result = run(problem, exact, config)
    assert result.reason == "discrepancy"
    assert result.n_star == 0
    assert len(result.log.records) == 0
    np.testing.assert_array_equal(result.final.values, np.zeros(problem.grid.size))


def test_budget_reasons():
    problem, _, exact = small_problem()
    delta = 1e-6
    data = generate_noise(exact, delta, 2.0, 7)

    config = base_config(delta=delta, max_outer=2, inner_budget=InnerBudget.constant(5))
    result = run(problem, data, config)
    assert result.reason == "outer budget"
    assert result.log.outer[-1].inner_reason == "outer budget"

    config = base_config(delta=delta, max_outer=50, max_total_inner=12)
    result = run(problem, data, config)
    assert result.reason == "total inner budget"
    assert result.log.total_inner == 12
    assert result.log.outer[-1].inner_reason == "aborted: total inner budget"


def test_inner_budget_reason_strings():
    problem, _, exact = small_problem()
    delta = 5e-3
    data = generate_noise(exact, delta, 2.0, 7)
    # generous allowance: early loops exit on the inner discrepancy check,
    # late ones exhaust the cap before the linearized residual shrinks enough
    config = base_config(
        delta=delta, max_outer=20, inner_budget=InnerBudget.constant(200)
    )
    result = run(problem, data, config)
    reasons = {o.inner_reason for o in result.log.outer}
    assert "budget" in reasons
    assert "inner discrepancy" in reasons
    assert result.reason == "discrepancy"


def test_unsolvable_iterate_reported_not_raised():
    problem, _, exact = small_problem()
    delta = 1e-3
    data = generate_noise(exact, delta, 2.0, 9)
    config = base_config(delta=delta, max_outer=5)
    # large negative coefficient makes the operator indefinite at the
    # starting point; the factorization failure must come back as a result
    bad_start = GridFunction.constant(problem.grid, -1e4)
    result = run(problem, data, config, x0=bad_start)
    assert result.failed
    assert result.reason.startswith("failure")
    assert "outer iterate 0" in result.reason


def test_inputs_on_another_grid_rejected():
    problem, _, exact = small_problem()
    config = base_config(delta=1e-3)
    other = GridFunction.zeros(Grid((problem.grid.size + 1,)))
    for name in ("x0", "truth"):
        with pytest.raises(GridMismatchError, match=name):
            run(problem, exact, config, **{name: other})


def test_non_finite_iterate_reported_not_raised():
    # at r = 10 the data-side duality map of a 1e40 residual overflows, so
    # the first step's iterate is not finite; run() sets its own numpy
    # policy, so an error filter cannot turn that into a raise, and the
    # caller's settings hold again once it returns
    problem, _, exact = small_problem()
    config = base_config(space=SpaceParams(2.0, 10.0), delta=1e-3)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(problem, exact * 1e40, config)
    assert result.reason == "failure: non-finite iterate or residual (iterate n=0, k=0)"
    assert np.geterr() == before
    assert len(result.log.records) == 0
    np.testing.assert_array_equal(result.final.values, np.zeros(problem.grid.size))


def square_test_problem():
    grid = Grid((9, 7))
    problem = EllipticProblem(grid, lambda x, y: 1.0 + x * y, lambda x, y: 1.0 + x + y)
    truth = GridFunction.from_callable(grid, lambda x, y: 1.0 + 0.5 * x)
    return problem, truth, forward(problem, truth)


def poison_nth_output(monkeypatch, name, nth, bad, counted=lambda *args: True):
    """Rebind solver.<name> so that its nth counted output has one bad entry."""
    kernel = getattr(solver, name)
    calls = []

    def poisoned(*args):
        out = kernel(*args)
        if counted(*args):
            calls.append(None)
            if len(calls) == nth:
                out = out.copy()
                out[out.size // 2] = bad
        return out

    monkeypatch.setattr(solver, name, poisoned)


BAD_ENTRIES = pytest.mark.parametrize(
    "bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"]
)
BOTH_PROBLEMS = pytest.mark.parametrize(
    "make_problem", [small_problem, square_test_problem], ids=["interval", "square"]
)


@BAD_ENTRIES
@BOTH_PROBLEMS
def test_one_bad_entry_of_an_iterate_fails_its_step(monkeypatch, make_problem, bad):
    # the step checks only the scalar t = ||resid_next||_r: one non-finite
    # entry of z_{n,4} must still reach it through the derivative solve
    problem, _, exact = make_problem()
    config = base_config(space=SpaceParams(1.5, 2.0))
    p_star = config.space.p_star
    poison_nth_output(
        monkeypatch, "duality_map_values", 4, bad, counted=lambda v, q: q == p_star
    )
    result = run(problem, exact, config)
    assert result.reason.startswith("failure: non-finite iterate or residual")
    assert "k=3" in result.reason
    assert len(result.log.records) == 3


@BAD_ENTRIES
@BOTH_PROBLEMS
def test_one_bad_entry_of_a_checked_state_fails_its_step(monkeypatch, make_problem, bad):
    # the residual check tests only the scalar ||F(z) - y||_r: one non-finite
    # entry of the state F(z_{n,3}) must end the run as a non-finite state
    problem, _, exact = make_problem()
    config = base_config(space=SpaceParams(1.5, 2.0), delta=1e-6)
    poison_nth_output(monkeypatch, "state_values", 3, bad)
    result = run(problem, exact, config)
    assert result.reason == (
        "failure: operator not invertible at c (non-finite state) (iterate n=0, k=3)"
    )
    assert len(result.log.records) == 3
    assert len(result.log.outer) == 0


def test_a_singular_operator_at_a_residual_check_fails_its_step(monkeypatch):
    # A(z_{n,3}) cannot be factorized for the residual check: the run ends
    # with a failure that names the iterate instead of raising, and the
    # three steps taken are in the log
    problem, _, exact = small_problem()
    config = base_config(space=SpaceParams(1.5, 2.0), delta=1e-6)
    kernel = solver.state_values
    calls = []

    def singular(*args):
        calls.append(None)
        if len(calls) == 3:
            raise solver.SingularOperatorError(
                "operator not invertible at c (tridiagonal factorization info=7)"
            )
        return kernel(*args)

    monkeypatch.setattr(solver, "state_values", singular)
    result = run(problem, exact, config)
    assert result.reason == (
        "failure: operator not invertible at c (tridiagonal factorization info=7)"
        " (iterate n=0, k=3)"
    )
    assert len(calls) == 3
    assert [(rec.n, rec.k) for rec in result.log.records] == [(0, 0), (0, 1), (0, 2)]
    assert len(result.log.outer) == 0


def test_an_overflowing_lead_coefficient_of_phi():
    # rho = 1e200 overflows p rho^2: at p = 1.1 no vartheta meets the
    # step-size condition, a configuration error; at p = 2 the power is 0,
    # and the run and its audit go through
    with pytest.raises(ConfigurationError, match="no vartheta"):
        base_config(space=SpaceParams(1.1, 2.0), rho=1e200)
    problem, _, exact = small_problem()
    data = generate_noise(exact, 1e-3, 2.0, 6)
    config = base_config(delta=1e-3, rho=1e200)
    assert config.vartheta == base_config(delta=1e-3).vartheta
    result = run(problem, data, config)
    assert len(result.log.records) > 0
    assert step_bound_audit(result.log, config).ok


def test_alpha_floor_overflow_reported_not_raised():
    # at r = 10 a residual near 1e31 overflows the power of the alpha floor:
    # the floor is infinite, alpha is capped at 1, and the run stops cleanly
    grid = Grid((50,))
    problem = EllipticProblem(grid, GridFunction.constant(grid, 1.0), lambda t: 0.0)
    data = GridFunction.from_callable(grid, lambda t: np.sin(np.pi * t) * 10**30.85)
    config = SolverConfig(
        space=SpaceParams(2.0, 10.0), delta=1e-3, tau=1.5,
        inner_budget=InnerBudget.constant(100), max_outer=5,
    )
    x0 = GridFunction.constant(grid, 1.0)
    result = run(problem, data, config, x0=x0)
    assert result.failed or result.reason in ("discrepancy", "outer budget")
    assert result.final_alpha == 1.0


def test_call_counts_per_step(monkeypatch):
    # one vartheta per run, one step size per inner step, one state solve by
    # the solver per outer loop, residual checks that bypass forward() and
    # solve_state(), and GridFunction constructions per outer loop, not per
    # step; in LAPACK, a factorization and a solve per state solve, two
    # solves per step and one dgtsv per residual check
    problem, _, exact = small_problem()
    solver_names = ("choose_vartheta", "choose_omega", "solve_state", "forward")
    lapack_names = ("dgttrf", "dgttrs", "dgtsv")
    calls = dict.fromkeys((*solver_names, "GridFunction", *lapack_names), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in solver_names:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    monkeypatch.setattr(
        GridFunction, "__post_init__", counting("GridFunction", GridFunction.__post_init__)
    )
    # the package's name forward is the function, not the module
    module = importlib.import_module("newton_landweber.forward")
    kernels = {name: counting(name, getattr(module.lapack, name)) for name in lapack_names}
    monkeypatch.setattr(module, "lapack", SimpleNamespace(**kernels))
    # four loops cut by their allowance; and a loop that stops on the check
    for delta, seed, max_outer, allowance, stops in ((1e-3, 6, 4, 10, 0), (5e-3, 7, 20, 200, 1)):
        data = generate_noise(exact, delta, 2.0, seed)
        calls.update(dict.fromkeys(calls, 0))
        # vartheta is derived on construction and read from the config by run()
        config = base_config(
            delta=delta, max_outer=max_outer, inner_budget=InnerBudget.constant(allowance)
        )
        result = run(problem, data, config)
        records, outer = result.log.records, result.log.outer
        steps = len(records)
        assert steps > 0
        assert len(outer) > 1
        assert calls["choose_vartheta"] == 1
        assert calls["choose_omega"] == steps
        assert any(rec.f_residual is not None for rec in records)
        assert calls["solve_state"] == len(outer)
        assert calls["forward"] == 0
        # the state of each outer loop, the iterate that ends it, and x0
        assert calls["GridFunction"] <= 2 * len(outer) + 1
        # a check is logged with its step, but for one that stops the loop
        assert sum(rec.inner_reason == "inner discrepancy" for rec in outer) == stops
        checks = sum(rec.f_residual is not None for rec in records) + stops
        assert calls["dgttrf"] == calls["solve_state"]
        assert calls["dgtsv"] == checks
        assert calls["dgttrs"] == calls["solve_state"] + 2 * steps
        assert calls["dgttrs"] + calls["dgtsv"] == result.total_applies


def test_determinism_of_records():
    problem, _, exact = small_problem()
    delta = 1e-3
    data = generate_noise(exact, delta, 2.0, 10)
    config = base_config(delta=delta, max_outer=3, inner_budget=InnerBudget.constant(20))
    a = run(problem, data, config)
    b = run(problem, data, config)
    assert len(a.log.records) == len(b.log.records)
    for ra, rb in zip(a.log.records, b.log.records):
        assert (ra.n, ra.k, ra.t, ra.t_tilde, ra.omega, ra.alpha, ra.r_n) == (
            rb.n, rb.k, rb.t, rb.t_tilde, rb.omega, rb.alpha, rb.r_n
        )
    np.testing.assert_array_equal(a.final.values, b.final.values)


def test_rate_mode_refinement():
    problem, truth, exact = small_problem()
    delta = 5e-3
    data = generate_noise(exact, delta, 2.0, 11)
    config = base_config(
        delta=delta,
        nu=0.5,  # theta = 1 in the Hilbert setting
        rate_mode=True,
        c_alpha=0.076,
        tau_tilde=0.001,
        alpha00=0.1,
        q=0.5,
        max_outer=300,
        inner_budget=InnerBudget.constant(40),
    )
    assert config.theta == pytest.approx(1.0)
    result = run(problem, data, config, truth=truth)
    assert result.reason == "discrepancy"
    tail = result.log.outer[-1]
    assert tail.inner_reason == "refinement"
    threshold = refinement_threshold(tail.r_n, config)
    refinement_records = [rec for rec in result.log.records if rec.refinement]
    assert len(refinement_records) == tail.steps
    # every recorded refinement alpha still violated the bound; the returned
    # one is the first to satisfy it
    for rec in refinement_records:
        assert rec.alpha > threshold
    assert result.final_alpha <= threshold


def test_rate_mode_refinement_met_at_k0():
    problem, _, exact = small_problem()
    delta = 5e-3
    data = generate_noise(exact, delta, 2.0, 11)
    config = base_config(
        delta=delta,
        nu=0.5,
        rate_mode=True,
        c_alpha=1e6,  # threshold far above any admissible alpha
        tau_tilde=0.001,
        alpha00=0.1,
        q=0.5,
        max_outer=300,
        inner_budget=InnerBudget.constant(40),
    )
    result = run(problem, data, config)
    assert result.reason == "discrepancy"
    tail = result.log.outer[-1]
    assert tail.inner_reason == "refinement"
    assert tail.steps == 0


def test_rate_mode_refinement_budget_exhausted():
    problem, _, exact = small_problem()
    delta = 5e-3
    data = generate_noise(exact, delta, 2.0, 11)
    config = base_config(
        delta=delta,
        nu=0.5,
        rate_mode=True,
        c_alpha=0.076,
        tau_tilde=0.001,
        alpha00=0.1,
        q=0.5,
        max_outer=300,
        inner_budget=InnerBudget.constant(40),
    )
    full = run(problem, data, config)
    cap = full.log.outer[-1].steps - 1
    result = run(problem, data, config.replace(max_inner=cap))
    assert result.failed
    assert result.reason.startswith("failure: refinement budget exhausted")
    tail = result.log.outer[-1]
    assert (tail.inner_reason, tail.allowance, tail.steps) == ("refinement aborted", cap, cap)
    assert sum(rec.refinement for rec in result.log.records) == cap


def test_rate_mode_requires_admissible_c_alpha():
    with pytest.raises(ConfigurationError, match="rate mode needs c_alpha"):
        base_config(nu=0.5, rate_mode=True, c_alpha=1e-6)
    # the bound (tau_tilde (1+eta))^(r/(1+theta)) overflows to inf
    with pytest.raises(ConfigurationError, match="rate mode needs c_alpha"):
        base_config(
            space=SpaceParams(2.0, 10.0), delta=1e-3, tau=1.5, tau_tilde=1e40,
            nu=0.5, rate_mode=True,
        )


def test_theta_zero_gamma_equals_d2():
    problem, truth, exact = small_problem()
    delta = 1e-3
    data = generate_noise(exact, delta, 2.0, 12)
    config = base_config(delta=delta, max_outer=2, inner_budget=InnerBudget.constant(10))
    result = run(problem, data, config, truth=truth)
    recs = result.log.records
    assert len(recs) > 0
    for rec in recs:
        assert rec.d2 is not None
        assert rec.gamma == rec.d2


def test_warnings_name_the_calling_line():
    with pytest.warns(UserWarning, match="analyzed regime") as caught:
        SpaceParams(2.0, 1.1)
    with pytest.warns(UserWarning, match="rate mode with theta = 0") as caught_rate:
        base_config(rate_mode=True)
    # through dataclasses.replace and through apply_overrides
    config = base_config()
    with pytest.warns(UserWarning, match="rate mode with theta = 0") as caught_replace:
        config.replace(rate_mode=True)
    with pytest.warns(UserWarning, match="analyzed regime") as caught_override:
        build_spec("example1", {"r": "1.5", "p": "2"})
    records = (*caught, *caught_rate, *caught_replace, *caught_override)
    assert len(records) == 4
    for record in records:
        assert record.filename == __file__


def test_records_match_public_api_on_example1(monkeypatch):
    # the residual check and the Bregman diagnostic run on array kernels, the
    # diagnostic in blocks after the steps; on every way out of run(), every
    # logged value equals the public GridFunction formula bit for bit
    iterates = []
    add_step = solver.IterationLog.add_step

    def recording_add_step(self, *fields):
        iterates.append(fields[-1].copy())
        return add_step(self, *fields)

    monkeypatch.setattr(solver.IterationLog, "add_step", recording_add_step)

    def checked_run(problem, data, config, x0, truth):
        iterates.clear()
        result = run(problem, data, config, x0=x0, truth=truth)
        records = result.log.records
        assert len(iterates) == len(records)
        p, r, theta = config.space.p, config.space.r, config.theta
        checked = 0
        for rec, z_values in zip(records, iterates):
            z = GridFunction(problem.grid, z_values)
            assert rec.d2 == shifted_bregman(truth, z, x0, p)
            assert rec.gamma == rec.d2 * rec.alpha**-theta
            if rec.f_residual is not None:
                assert rec.f_residual == lp_norm(forward(problem, z) - data, r)
                checked += 1
        return result, checked

    # stopped by the total inner budget part way through a block of records
    spec = make_example1(1.1)
    problem, truth, exact, x0 = assemble_problem(spec)
    data, delta = make_data(spec, exact)
    solver_kw = {**spec.solver, "max_total_inner": 301}
    config = SolverConfig(space=spec.space, delta=delta, **solver_kw)
    result, checked = checked_run(problem, data, config, x0, truth)
    assert result.reason == "total inner budget"
    assert len(result.log.records) == 301
    assert checked > len(result.log.records) // 2

    # rate mode, theta = 1: gamma differs from d2, the tail ends in
    # refinement, and, with the tail cut one step short, in a failure
    problem, truth, exact = small_problem()
    x0 = GridFunction.zeros(problem.grid)
    data = generate_noise(exact, 5e-3, 2.0, 11)
    config = base_config(
        delta=5e-3, nu=0.5, rate_mode=True, c_alpha=0.076, tau_tilde=0.001,
        alpha00=0.1, q=0.5, max_outer=300, inner_budget=InnerBudget.constant(40),
    )
    result, _ = checked_run(problem, data, config, x0, truth)
    assert result.reason == "discrepancy"
    assert result.log.outer[-1].inner_reason == "refinement"
    assert any(rec.gamma != rec.d2 for rec in result.log.records)
    cap = result.log.outer[-1].steps - 1
    result, _ = checked_run(problem, data, config.replace(max_inner=cap), x0, truth)
    assert result.reason.startswith("failure: refinement budget exhausted")

    # a first step whose iterate is not finite
    config = base_config(space=SpaceParams(2.0, 10.0), delta=1e-3)
    result, _ = checked_run(problem, exact * 1e40, config, x0, truth)
    assert result.reason.startswith("failure: non-finite")
    assert len(result.log.records) == 0


def test_records_are_immutable_with_their_fields_and_defaults():
    # the CSV writer and the benchmark read the fields by these names
    def fields(cls):
        return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

    empty = inspect.Parameter.empty
    assert fields(solver.IterationRecord) == [
        ("n", empty), ("k", empty), ("t", empty), ("t_tilde", empty),
        ("omega", empty), ("alpha", empty), ("r_n", empty), ("f_residual", None),
        ("d2", None), ("gamma", None), ("degenerate", False), ("refinement", False),
    ]
    assert fields(solver.OuterRecord) == [
        ("n", empty), ("r_n", empty), ("allowance", empty), ("steps", empty),
        ("alpha_end", empty), ("inner_reason", empty),
    ]
    # a step's row stores neither gamma nor degenerate; an outer row neither
    # the loop's first weight nor the residual it stopped on
    assert (solver.STEP_DTYPE.itemsize, solver.OUTER_DTYPE.itemsize) == (73, 41)
    step = solver.IterationRecord(0, 1, 0.5, 0.25, 2.0, 1.0, 0.75)
    outer = solver.OuterRecord(0, 0.75, 10, 3, 0.5, "budget")
    for record in (step, outer):
        for name, _ in fields(type(record)):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_records_view_is_a_read_only_sequence():
    # 3 outer loops of 25 steps: 75 records in blocks of 32, 32 and 11
    problem, truth, exact = small_problem()
    data = generate_noise(exact, 1e-3, 2.0, 7)
    config = base_config(delta=1e-3, max_outer=3, inner_budget=InnerBudget.constant(25))
    result = run(problem, data, config, truth=truth)
    records = result.log.records
    assert isinstance(records, Sequence)
    assert len(records) == result.log.total_inner == 75
    listed = list(records)
    assert [(rec.n, rec.k) for rec in listed] == [(n, k) for n in range(3) for k in range(25)]
    for i in (0, 31, 32, 63, 64, 74, -1, -11, -75):
        assert records[i] == listed[i]
    for index in (75, -76):
        with pytest.raises(IndexError):
            records[index]
    assert records[5:70:7] == listed[5:70:7]
    assert records[::-1] == listed[::-1]
    assert records[80:] == []
    for rec in listed:
        assert type(rec) is solver.IterationRecord
        assert type(rec.n) is int and type(rec.k) is int
        for value in (rec.t, rec.t_tilde, rec.omega, rec.alpha, rec.r_n, rec.d2, rec.gamma):
            assert type(value) is float
        assert type(rec.degenerate) is bool and type(rec.refinement) is bool
    assert any(rec.f_residual is None for rec in listed)
    assert any(type(rec.f_residual) is float for rec in listed)
    assert not hasattr(records, "append")
    with pytest.raises(TypeError):
        records[0] = listed[1]
    with pytest.raises(TypeError):
        del records[0]


def test_outer_view_is_a_read_only_sequence():
    # one step per loop: 70 loops and the closing "outer budget" record make
    # 71 outer records in blocks of 32, 32 and 7
    problem, truth, exact = small_problem()
    data = generate_noise(exact, 1e-6, 2.0, 7)
    config = base_config(delta=1e-6, max_outer=70, inner_budget=InnerBudget.constant(1))
    result = run(problem, data, config, truth=truth)
    assert result.reason == "outer budget"
    outer = result.log.outer
    assert isinstance(outer, Sequence)
    assert len(outer) == 71
    listed = list(outer)
    assert [rec.n for rec in listed] == list(range(71))
    assert sum(rec.steps for rec in listed) == result.log.total_inner == 70
    for i in (0, 31, 32, 63, 64, 70, -1, -7, -8, -39, -40, -71):
        assert outer[i] == listed[i]
    for index in (71, -72):
        with pytest.raises(IndexError):
            outer[index]
    assert outer[5:70:7] == listed[5:70:7]
    assert outer[::-1] == listed[::-1]
    assert outer[80:] == []
    for rec in listed:
        assert type(rec) is solver.OuterRecord
        for value in (rec.n, rec.allowance, rec.steps):
            assert type(value) is int
        for value in (rec.r_n, rec.alpha_end):
            assert type(value) is float
        assert rec.inner_reason in solver.INNER_REASONS
    assert {rec.inner_reason for rec in listed} == {"budget", "outer budget"}
    assert not hasattr(outer, "append")
    with pytest.raises(TypeError):
        outer[0] = listed[1]
    with pytest.raises(TypeError):
        del outer[0]


def test_outer_records_keep_the_residual_stop():
    # a loop that stops on the nonlinear residual check hands its iterate on:
    # the next loop's r_n is the residual the check stopped on, bit for bit
    config = base_config(delta=5e-3, max_outer=20, inner_budget=InnerBudget.constant(200))
    for problem, _, exact in (small_problem(), square_test_problem()):
        data = generate_noise(exact, config.delta, 2.0, 7)
        result = run(problem, data, config)
        outer = result.log.outer
        stops = [i for i, rec in enumerate(outer) if rec.inner_reason == "inner discrepancy"]
        assert stops
        for i in stops:
            after = outer[i + 1]
            assert after.r_n <= config.tau * config.delta
            assert after.r_n == lp_norm(forward(problem, result.final) - data, config.space.r)
        assert result.reason == "discrepancy"


def test_an_unknown_inner_reason_raises():
    log = solver.IterationLog(0.0)
    with pytest.raises(ValueError):
        log.add_outer(0, 1.0, 5, 5, 0.5, "bugdet")
    # a row of the wrong width fails at the call, before it is queued
    with pytest.raises(TypeError):
        log.add_outer((0, 1.0, 1.0, 5, 5, 0.5, "budget"))
    with pytest.raises(TypeError):
        log.add_step((0, 0, 1.0, 2.0, 3.0, 0.5, 4.0, math.nan, False), np.zeros(4))
    log.close()
    assert len(log.outer) == 0 and len(log.records) == 0


def test_log_equality_compares_the_outer_loops_bit_for_bit():
    problem, truth, exact = small_problem()
    data = generate_noise(exact, 1e-6, 2.0, 8)
    config = base_config(delta=1e-6, max_outer=40, inner_budget=InnerBudget.constant(1))
    a = run(problem, data, config, truth=truth).log
    b = run(problem, data, config, truth=truth).log
    assert a == b
    # one r_n of the second block one ulp up
    block = b.outer._blocks[1]
    block["r_n"][3] = np.nextafter(block["r_n"][3], math.inf)
    loop = solver.RECORD_BLOCK + 3
    assert b.outer[loop].r_n == np.nextafter(a.outer[loop].r_n, math.inf)
    assert a.records.column("r_n").tobytes() == b.records.column("r_n").tobytes()
    assert a != b


def test_step_bound_audit_sees_a_broken_carry_over():
    problem, _, exact = small_problem()
    data = generate_noise(exact, 1e-3, 2.0, 6)
    config = base_config(delta=1e-3, max_outer=4, inner_budget=InnerBudget.constant(10))
    log = run(problem, data, config).log
    assert step_bound_audit(log, config).ok
    assert [rec.steps for rec in log.outer] == [10] * 4 + [0]
    # a first step that does not use the weight the loop before it ended with
    alpha = log.records._blocks[0]["alpha"]
    alpha[10] = np.nextafter(alpha[10], 0.0)
    assert not step_bound_audit(log, config).ok
    alpha[10] = log.outer[0].alpha_end
    assert step_bound_audit(log, config).ok
    # a loop of no steps that does not end at the weight it starts at
    alpha_end = log.outer._blocks[0]["alpha_end"]
    alpha_end[4] = np.nextafter(alpha_end[4], 0.0)
    assert not step_bound_audit(log, config).ok


def test_step_bound_audit_sees_a_step_above_the_cap():
    problem, _, exact = small_problem()
    data = generate_noise(exact, 1e-3, 2.0, 6)
    config = base_config(delta=1e-3, max_outer=4, inner_budget=InnerBudget.constant(10))
    log = run(problem, data, config).log
    assert step_bound_audit(log, config).ok
    # a cap vartheta * omega_bar between the two largest steps
    omega = log.records.column("omega")
    second, largest = np.unique(omega)[-2:]
    capped = config.replace(omega_bar=0.5 * (second + largest) / config.vartheta)
    assert np.count_nonzero(omega > capped.vartheta * capped.omega_bar) == 1
    assert not step_bound_audit(log, capped).ok


def test_step_bound_audit_sees_more_steps_than_the_allowance():
    problem, _, exact = small_problem()
    data = generate_noise(exact, 1e-3, 2.0, 6)
    config = base_config(delta=1e-3, max_outer=4, inner_budget=InnerBudget.constant(10))
    log = run(problem, data, config).log
    assert [(rec.steps, rec.allowance) for rec in log.outer] == [(10, 10)] * 4 + [(0, 0)]
    # the last loop with steps, so that no later loop's first step moves
    log.outer._blocks[0]["steps"][3] += 1
    assert not step_bound_audit(log, config).ok


def test_log_keeps_none_and_nan_apart(tmp_path):
    # a row stores NaN for a value the step did not compute, and its record
    # reads None there; d2 reads None only in a log without a truth, and NaN
    # where the Bregman sum overflows: |1e200|^2 is inf, so each row's sum is
    # inf - inf. gamma = d2 alpha^-theta reads None at alpha = 0, and a step
    # is degenerate where t_tilde = 0
    nan = math.nan
    rows = [
        (0, 0, 1.0, 2.0, 3.0, 0.5, 4.0, nan, False),
        (0, 1, 1.0, 0.0, 3.0, 0.5, 4.0, 0.25, False),
        (0, 2, 1.0, 2.0, 3.0, 0.0, 4.0, nan, True),
    ]
    huge, ones = np.full(4, 1e200), np.ones(4)
    logs = []
    # no truth; a truth whose Bregman sums overflow; a truth one away from
    # every iterate, which is x0, so d2 = 0.25 * 4 * 1^2 / 2
    cases = ((None, huge), (huge, huge), (ones, np.zeros(4)))
    for truth, z in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = None if truth is None else solver.BregmanPass(truth, np.zeros(4), 2.0, 0.25)
            log = solver.IterationLog(1.0, d2)
            for row in rows:
                log.add_step(*row, z)
            log.close()
        logs.append(log)
    no_truth, overflowed, finite = (list(log.records) for log in logs)
    for rec in no_truth:
        assert rec.d2 is None and rec.gamma is None
    for rec in overflowed[:2]:
        assert math.isnan(rec.d2) and math.isnan(rec.gamma)
    assert [(rec.d2, rec.gamma) for rec in finite] == [(0.5, 1.0), (0.5, 1.0), (0.5, None)]
    assert math.isnan(overflowed[2].d2) and overflowed[2].gamma is None
    for recs in (no_truth, overflowed, finite):
        assert [rec.f_residual for rec in recs] == [None, 0.25, None]
        assert [(rec.degenerate, rec.refinement) for rec in recs] == [
            (False, False), (True, False), (False, True)
        ]
    for log in logs:
        assert np.isnan(log.records.column("f_residual")[[0, 2]]).all()
    assert np.isnan(logs[0].records.column("d2")).all()
    path = tmp_path / "iterations.csv"
    write_iterations(str(path), logs[1])
    assert path.read_text().splitlines()[1:] == [
        "0,0,1.0,2.0,3.0,0.5,4.0,,nan,nan",
        "0,1,1.0,0.0,3.0,0.5,4.0,0.25,nan,nan",
        "0,2,1.0,2.0,3.0,0.0,4.0,,nan,",
    ]


def test_log_equality_compares_the_steps_bit_for_bit():
    problem, truth, exact = small_problem()
    data = generate_noise(exact, 1e-3, 2.0, 8)
    config = base_config(delta=1e-3, max_outer=2, inner_budget=InnerBudget.constant(40))
    a = run(problem, data, config, truth=truth).log
    b = run(problem, data, config, truth=truth).log
    assert a == b
    # one d2 of the second block one ulp up
    block = b.records._blocks[1]
    block["d2"][3] = np.nextafter(block["d2"][3], math.inf)
    step = solver.RECORD_BLOCK + 3
    assert b.records[step].d2 == np.nextafter(a.records[step].d2, math.inf)
    assert a != b
    # the same rows read with another theta, or without a truth, read otherwise
    d2 = solver.BregmanPass(np.ones(4), np.zeros(4), 2.0, 1.0)
    assert solver.IterationLog(0.5, d2) != solver.IterationLog(0.0, d2)
    assert solver.IterationLog(0.0, d2) != solver.IterationLog(0.0)


def test_a_log_is_freed_without_the_cyclic_collector():
    # peak memory: a log that is a reference cycle, as with a bound method
    # for its block hook, lives with its blocks until the cyclic collector
    # runs; a log free of cycles goes when its last reference does
    problem, truth, exact = small_problem()
    data = generate_noise(exact, 1e-3, 2.0, 7)
    config = base_config(delta=1e-3, max_outer=3, inner_budget=InnerBudget.constant(25))
    gc.disable()
    try:
        result = run(problem, data, config, truth=truth)
        assert result.log.total_inner > solver.RECORD_BLOCK
        freed = weakref.ref(result.log)
        del result
        assert freed() is None
        log = solver.IterationLog(1.0, solver.BregmanPass(np.ones(4), np.zeros(4), 2.0, 0.25))
        for k in range(solver.RECORD_BLOCK + 1):
            log.add_step(0, k, 1.0, 2.0, 3.0, 0.5, 4.0, math.nan, False, np.zeros(4))
        log.close()
        assert log.total_inner == solver.RECORD_BLOCK + 1
        freed = weakref.ref(log)
        del log
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("p", [1.0001, 1.1, 1.5, 2.0, 3.0, 10.0])
def test_the_bregman_pass_gives_each_row_its_own_distance_across_blocks(p):
    # the pass reuses its buffers for every block: blocks of 32, 32 and 7
    # iterates must read each row's distance alone, with the bits of the
    # formula, so no row of an earlier block is read again and, at p = 2,
    # where J_p(b) is b, a - b is not written over b; the log copies what it
    # keeps, so iterates passed in one buffer that is written over before
    # every step read the same bits as fresh arrays
    rng = np.random.default_rng(int(10 * p))
    n, steps = 37, 2 * solver.RECORD_BLOCK + 7

    def values(*shape):
        v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 1.0, shape)
        v[..., :2] = (0.0, -0.0)
        return v

    truth, x0, iterates = values(n), values(n), values(steps, n)
    buffer = np.empty(n)

    def reused(z):
        buffer[:] = z
        return buffer

    a = truth - x0
    a_pow = np.abs(a) ** p
    for passed in (np.copy, reused):
        log = solver.IterationLog(0.0, solver.BregmanPass(truth, x0, p, 0.25))
        for k, z in enumerate(iterates):
            log.add_step(0, k, 1.0, 2.0, 3.0, 0.5, 4.0, math.nan, False, passed(z))
        log.close()
        for z, d2 in zip(iterates, log.records.column("d2")):
            b = z - x0
            dual = b if p == 2.0 else np.copysign(np.abs(b) ** (p - 1.0), b)
            gaps = (a_pow - np.abs(b) ** p) / p - dual * (a - b)
            assert d2.tobytes() == (0.25 * np.add.reduce(gaps)).tobytes()


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux's minor page faults")
def test_a_fresh_run_with_a_truth_takes_almost_no_page_faults():
    # the d2 pass computes in buffers it owns for the run; with temporaries
    # per block, which glibc gives back to the kernel past its trim
    # threshold, a fresh example1 p = 1.1 run took about 2.4 faults a step.
    # The criterion-9 rate run also packs an outer row per loop
    rate = dict(RATE_OVERRIDES, delta="1e-3")
    for spec in ("make_example1(1.1)", f"build_spec('example1', {rate!r})"):
        run_fresh(
            "-c",
            "import resource\n"
            "from newton_landweber import SolverConfig, build_spec, make_example1, run\n"
            "from newton_landweber.experiments import assemble_problem, make_data\n"
            f"spec = {spec}\n"
            "problem, truth, exact, x0 = assemble_problem(spec)\n"
            "data, delta = make_data(spec, exact)\n"
            "config = SolverConfig(space=spec.space, delta=delta, **spec.solver)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "result = run(problem, data, config, x0=x0, truth=truth)\n"
            "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "steps = result.log.total_inner\n"
            "assert steps > 1000 and faults < 0.05 * steps, (faults, steps)\n"
        )


def test_an_unknown_column_raises_key_error():
    # the same error from an empty table and a packed one, for either table
    empty = solver.IterationLog(0.0)
    empty.close()
    problem, truth, exact = small_problem()
    data = generate_noise(exact, 1e-3, 2.0, 7)
    packed = run(problem, data, base_config(delta=1e-3, max_outer=2), truth=truth).log
    assert len(packed.records) > 0 and len(packed.outer) > 0
    for log in (empty, packed):
        for table in (log.records, log.outer):
            with pytest.raises(KeyError, match="gamma"):
                table.column("gamma")
        with pytest.raises(KeyError, match="inner_reason"):
            log.records.column("inner_reason")


@pytest.mark.parametrize(
    "overrides, iterations_sha256, solution_sha256",
    [
        pytest.param(
            {"p": "2", "max_total_inner": "400"},
            "853d161d0cf9bf134ca49a24ad760489816d885ce587e2f7ae9175146a7b7fcd",
            "184d1385be86d70a8eb869dd89a52b8e495c70f5fa67ba584f347aa1de277919",
            id="example1-p2",
        ),
        pytest.param(
            dict(RATE_OVERRIDES, delta="1e-3", max_total_inner="5200"),
            "dedb6327d7772911352cd035a2045e6320e3b9fbb30dba63d0362e8063960c6b",
            "46791c10e3b14b8841af3e8b9eec34bc343039434a5c7d6c2ad34657df0e6fdb",
            id="example1-rate",
        ),
    ],
)
def test_csv_bytes_of_hilbert_runs(tmp_path, overrides, iterations_sha256, solution_sha256):
    # at p = r = 2 the run takes no array power but squares, so its CSV
    # bytes do not depend on which of numpy's kernels the host has; the
    # rate run takes 302 refinement steps within its 5,200
    report = run_experiment(build_spec("example1", overrides))
    paths = write_run(str(tmp_path), report)
    digests = [
        hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
        for name in ("iterations", "solution")
    ]
    assert digests == [iterations_sha256, solution_sha256]


def held_bytes_per_step(spec, steps):
    """Bytes a run capped at ``steps`` steps still holds, per step (tracemalloc)."""
    problem, truth, exact, x0 = assemble_problem(spec)
    data, delta = make_data(spec, exact)
    config = SolverConfig(space=spec.space, delta=delta, **spec.solver)
    run(problem, data, config.replace(max_total_inner=50), x0=x0, truth=truth)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(problem, data, config.replace(max_total_inner=steps), x0=x0, truth=truth)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.log.total_inner == steps
    return result, held / steps


def test_log_holds_at_most_88_bytes_per_step():
    # example1 p = 1.1: about 81 bytes a step with each row holding only what
    # the loop computed, once, outer records included, against 83 with the
    # degenerate flag and the outer alpha_start and f_residual_stop stored,
    # 94 with gamma and the presence flags too and 313 with one named tuple
    # per step
    _, per_step = held_bytes_per_step(make_example1(1.1), 2000)
    assert per_step <= 88


def test_rate_log_holds_at_most_147_bytes_per_step():
    # the rate run takes one step per outer loop before its refinement tail:
    # about 124 bytes a step, against 141 with the degenerate flag and the
    # outer alpha_start and f_residual_stop stored, 153 with gamma and the
    # presence flags too and 287 with one named tuple per outer loop
    spec = build_spec("example1", dict(RATE_OVERRIDES, delta="1e-3"))
    result, per_step = held_bytes_per_step(spec, 2000)
    assert len(result.log.outer) == 2001
    assert per_step <= 147
