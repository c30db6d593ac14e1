"""Property checks: the one implementation of every identity and step bound.

Each check exercises one contract of the library (duality-map algebra,
Bregman identities, operator adjointness, Taylor order, noise determinism,
solver step bounds) on small seeded problems and reports pass/fail with a
one-line detail string. The ``verify`` CLI subcommand runs them all; the
test suite asserts the same functions, so every tolerance lives here.
:func:`step_bound_audit` is the per-record omega/alpha/phi audit that both
:func:`check_solver_invariants` and the acceptance suite apply to whole
runs. The suite is cheap (well under two seconds) and safe to run in any
environment.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .experiments import (
    add_outliers,
    apply_overrides,
    generate_noise,
    make_example1,
    run_experiment,
)
from .forward import adjoint_apply, derivative_apply, forward, interval_problem, solve_state, square_problem
from .geometry import (
    SpaceParams,
    bregman,
    conjugate_exponent,
    duality_map,
    inverse_duality_map,
    lp_norm,
    pairing,
    phi,
)
from .grids import Grid, GridFunction
from .schedules import choose_omega, choose_vartheta
from .solver import IterationLog, SolverConfig

EXPONENTS = (1.1, 1.5, 2.0, 3.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _random_function(grid: Grid, rng: np.random.Generator) -> GridFunction:
    return GridFunction(grid, rng.standard_normal(grid.size))


def _worst(defects: list[float]) -> float:
    """Largest defect; a NaN defect propagates (the builtin max would drop it)."""
    return float(np.max(defects))


def check_duality_round_trip(seed: int = 0) -> CheckResult:
    """J_{q*} inverts J_q, <J_q f, f> = ||f||_q^q and ||J_q f||_{q*} = ||f||_q^(q-1).

    The round trip is held to 1e-10 per entry (absolute), the two norm
    identities to 1e-10 relative.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = Grid((64,))
    defects = []
    for q in EXPONENTS:
        for _ in range(100):
            f = _random_function(grid, rng)
            jf = duality_map(f, q)
            norm_q = lp_norm(f, q)
            defects += [
                float(np.max(np.abs(inverse_duality_map(jf, q).values - f.values))),
                abs(pairing(jf, f) - norm_q**q) / norm_q**q,
                abs(lp_norm(jf, conjugate_exponent(q)) - norm_q ** (q - 1.0)) / norm_q ** (q - 1.0),
            ]
    worst = _worst(defects)
    return CheckResult("duality round trip", worst <= 1e-10, f"worst defect {worst:.2e}")


def check_bregman_identities(seed: int = 1) -> CheckResult:
    """Three-point identity, primal-dual form and nonnegativity of D_p.

    D(a,c) = D(a,b) + D(b,c) + <J_p b - J_p c, a - b> to 1e-10 max(1, |D(a,c)|);
    D(a,b) = ||a||_p^p/p + ||J_p b||_{p*}^{p*}/p* - <J_p b, a> to
    1e-10 max(1, |D(a,b)|); every distance >= -1e-12.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = Grid((48,))
    defects = []
    least = np.inf
    for p in EXPONENTS:
        p_star = conjugate_exponent(p)
        for _ in range(100):
            a, b, c = (_random_function(grid, rng) for _ in range(3))
            dab, dbc, dac = bregman(a, b, p), bregman(b, c, p), bregman(a, c, p)
            jb = duality_map(b, p)
            cross = pairing(jb - duality_map(c, p), a - b)
            dual_form = (
                lp_norm(a, p) ** p / p + lp_norm(jb, p_star) ** p_star / p_star - pairing(jb, a)
            )
            defects += [
                abs(dac - (dab + dbc + cross)) / max(1.0, abs(dac)),
                abs(dab - dual_form) / max(1.0, abs(dab)),
            ]
            least = min(least, dab, dbc, dac)
    worst = _worst(defects)
    return CheckResult(
        "bregman identities",
        worst <= 1e-10 and least >= -1e-12,
        f"worst relative defect {worst:.2e}, least distance {least:.2e}",
    )


def _phi_excess(omega, t, t_tilde, sp: SpaceParams, c_const, rho, c_omega_bar) -> float:
    """Largest phi(omega t~) / (omega t^r) - c_omega_bar over steps with t, t~ > 0, or 0."""
    live = (t > 0.0) & (t_tilde > 0.0)
    omega, t, t_tilde = omega[live], t[live], t_tilde[live]
    ratio = phi(omega * t_tilde, c_const, rho, sp.p, sp.p_star, sp.s_star) / (omega * t**sp.r)
    return float(np.max(ratio - c_omega_bar, initial=0.0))


def check_omega_bounds(seed: int = 2) -> CheckResult:
    """choose_omega obeys 0 < omega <= vt*omega_bar and the phi-ratio cap.

    Samples t, t~ > 0 over many decades, on six spaces (one with r < s, one
    with p near 1, one with s near 1 too); no sample may come out degenerate.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    omega_bar, c_bar, c_const, rho = 1e8, 0.1, 1.0, 0.5
    samples = 200
    worst = 0.0
    with warnings.catch_warnings():
        # the r < s combination is exercised on purpose here
        warnings.simplefilter("ignore", UserWarning)
        pairs = ((1.1, 2.0), (2.0, 1.1), (1.1, 10.0), (3.0, 4.0), (1.0001, 2.0))
        spaces = [SpaceParams(p, r) for p, r in pairs]
        spaces.append(SpaceParams(1.0001, 2.0, s=1.0001))
    for sp in spaces:
        vt = choose_vartheta(c_bar, c_const, rho, sp.p, sp.p_star, sp.s_star)
        t = 10.0 ** rng.uniform(-6.0, 1.0, samples)
        t_tilde = 10.0 ** rng.uniform(-12.0, 1.0, samples)
        omega, degenerate = np.array(
            [choose_omega(*pair, vt, omega_bar, sp) for pair in zip(t, t_tilde)]
        ).T
        if degenerate.any() or not np.all((omega > 0.0) & (omega <= vt * omega_bar)):
            worst = 1.0
        worst = _worst([worst, _phi_excess(omega, t, t_tilde, sp, c_const, rho, c_bar)])
    return CheckResult(
        "omega schedule bounds",
        worst <= 1e-12,
        f"{samples * len(spaces)} samples, worst excess {worst:.2e}",
    )


def check_adjoint_identity(seed: int = 3) -> CheckResult:
    """<F'(c)h, w> = <h, F'(c)*w> in 1-d and 2-d, and F'(c)* is F'(c)^T as matrices.

    Pairing gaps are scaled by ||h||_2 ||w||_2, the matrix defect by
    max|F'(c)|; both must stay <= 1e-8.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    problems = (
        interval_problem(Grid((51,)), lambda t: 1.0 + t, 1.0, 2.0),
        square_problem(Grid((13, 13)), lambda x, y: 1.0 + x * y, lambda x, y: 1.0 + x + y),
    )
    gaps = []
    for problem in problems:
        grid = problem.grid
        for _ in range(100):
            ev = solve_state(problem, GridFunction(grid, 0.5 + rng.random(grid.size)))
            h = _random_function(grid, rng)
            w = _random_function(grid, rng)
            gap = abs(pairing(derivative_apply(ev, h), w) - pairing(h, adjoint_apply(ev, w)))
            gaps.append(gap / (lp_norm(h, 2.0) * lp_norm(w, 2.0)))
    # dense oracle: assemble both operators column by column
    grid = Grid((20,))
    problem = interval_problem(grid, lambda t: 1.0 + t, 1.0, 2.0)
    ev = solve_state(problem, GridFunction(grid, 1.0 + rng.random(grid.size)))
    basis = [GridFunction(grid, e) for e in np.eye(grid.size)]
    deriv = np.column_stack([derivative_apply(ev, e).values for e in basis])
    adj = np.column_stack([adjoint_apply(ev, e).values for e in basis])
    dense = float(np.max(np.abs(deriv.T - adj)) / np.max(np.abs(deriv)))
    worst = _worst(gaps + [dense])
    return CheckResult(
        "adjoint identity",
        worst <= 1e-8,
        f"{len(gaps)} triples, worst scaled gap {_worst(gaps):.2e}; "
        f"dense transpose defect {dense:.2e}",
    )


def check_taylor_order(seed: int = 4) -> CheckResult:
    """Remainder ||F(c+th) - F(c) - t F'(c)h|| decays with fitted order >= 1.9."""
    rng = np.random.Generator(np.random.PCG64(seed))
    problem = interval_problem(Grid((51,)), lambda t: 1.0 + t, 1.0, 2.0)
    grid = problem.grid
    steps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    orders = []
    for _ in range(10):
        c = GridFunction(grid, 0.5 + rng.random(grid.size))
        h = _random_function(grid, rng)
        ev = solve_state(problem, c)
        dfh = derivative_apply(ev, h)
        rem = np.array(
            [lp_norm(forward(problem, c + float(t) * h) - ev.u - float(t) * dfh, 2.0) for t in steps]
        )
        orders.append(float(np.polyfit(np.log(steps), np.log(rem), 1)[0]))
    worst_order = float(np.min(orders))
    return CheckResult(
        "derivative order",
        worst_order >= 1.9,
        f"fitted orders in [{worst_order:.3f}, {max(orders):.3f}]",
    )


def check_noise_contract(seed: int = 5) -> CheckResult:
    """Noise norm exactness (r = 1.1, 2, 10), bit determinism, and outlier count."""
    grid = Grid((101,))
    u = GridFunction.from_callable(grid, lambda t: 1.0 + np.sin(3.0 * t))
    defects = []
    for r, delta in ((1.1, 1e-3), (2.0, 1e-4), (10.0, 1e-2)):
        data = generate_noise(u, delta, r, seed)
        again = generate_noise(u, delta, r, seed)
        if not np.array_equal(data.values, again.values):
            defects.append(1.0)
        defects.append(abs(lp_norm(data - u, r) - delta) / delta)
    spiked = add_outliers(u, 5, 0.7, seed)
    differing = int(np.count_nonzero(spiked.values != u.values))
    if differing != 5:
        defects.append(1.0)
    worst = _worst(defects)
    return CheckResult(
        "noise determinism", worst <= 1e-12, f"norm defect {worst:.2e}, {differing} outliers"
    )


def step_bound_audit(log: IterationLog, config: SolverConfig) -> CheckResult:
    """Audit every recorded step of a run against the omega/alpha/phi bounds.

    Checks 0 < omega <= vartheta * omega_bar, 0 < alpha <= 1, the phi-ratio
    cap phi(omega t~) / (omega t^r) <= c_omega_bar + 1e-12 on steps with
    t, t~ > 0, and that alpha carries over: each outer loop starts at the
    previous loop's last weight (the first at alpha00) and its first step
    uses it. A broken inequality counts as an excess of 1.
    """
    records = log.records
    worst = 0.0
    if records:
        omega, alpha, t, t_tilde = np.array(
            [(rec.omega, rec.alpha, rec.t, rec.t_tilde) for rec in records]
        ).T
        bound = config.resolved_vartheta * config.omega_bar
        if not np.all((omega > 0.0) & (omega <= bound) & (alpha > 0.0) & (alpha <= 1.0)):
            worst = 1.0
        excess = _phi_excess(
            omega, t, t_tilde, config.space, config.c_const, config.rho, config.c_omega_bar
        )
        worst = _worst([worst, excess])
    carried, first = config.alpha00, 0
    for outer in log.outer:
        if outer.alpha_start != carried or (outer.steps and records[first].alpha != carried):
            worst = max(worst, 1.0)
        carried, first = outer.alpha_end, first + outer.steps
    return CheckResult(
        "step bounds", worst <= 1e-12, f"{len(records)} steps audited, worst excess {worst:.2e}"
    )


def check_solver_invariants(seed: int = 6) -> CheckResult:
    """Step bounds, alpha carry-over and determinism on a short preset run."""
    overrides = {"n": "100", "max_total_inner": "400", "seed": str(seed)}
    report = run_experiment(apply_overrides(make_example1(), overrides))
    again = run_experiment(apply_overrides(make_example1(), overrides))
    audit = step_bound_audit(report.result.log, report.config)
    repeated = report.result.log == again.result.log
    return CheckResult(
        "solver step bounds",
        audit.ok and repeated and not report.result.failed,
        f"{audit.detail}; reason {report.reason}; rerun {'identical' if repeated else 'differs'}",
    )


ALL_CHECKS = (
    check_duality_round_trip,
    check_bregman_identities,
    check_omega_bounds,
    check_adjoint_identity,
    check_taylor_order,
    check_noise_contract,
    check_solver_invariants,
)


def run_checks() -> list[CheckResult]:
    """Run the full property suite; never raises, failures are reported."""
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn())
        except Exception as exc:  # defensive: a crash is a failing check
            results.append(CheckResult(fn.__name__, False, f"raised {type(exc).__name__}: {exc}"))
    return results
