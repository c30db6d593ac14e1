"""Property checks: the one implementation of every identity and step bound.

Each check exercises one contract of the library (duality-map algebra,
Bregman identities, the adjoint as the dense transpose of the derivative,
Taylor order, noise determinism and its stream, solver step bounds) on
small seeded problems and reports pass/fail with a one-line detail
string. The ``verify`` CLI subcommand runs them all; the test suite
asserts the same functions, so every tolerance lives here. The omega
range and phi-ratio cap are stated once, in :func:`_step_size_excess`,
which both :func:`check_omega_bounds` and :func:`step_bound_audit` (the
per-record omega/alpha/phi audit that :func:`check_solver_invariants` and
the acceptance suite apply to whole runs) use. The suite is cheap (well
under two seconds) and safe to run in any environment.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from ._pcg64 import PCG64
from .experiments import (
    add_outliers,
    apply_overrides,
    generate_noise,
    make_example1,
    run_experiment,
)
from .forward import EllipticProblem, adjoint_apply, derivative_apply, forward, solve_state
from .geometry import (
    SpaceParams,
    bregman,
    conjugate_exponent,
    duality_map,
    inverse_duality_map,
    lp_norm,
    pairing,
)
from .grids import Grid, GridFunction
from .schedules import choose_omega, phi
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


def _step_size_excess(omega, t, t_tilde, config: SolverConfig) -> float:
    """Worst excess of steps over 0 < omega <= vartheta omega_bar and the phi-ratio cap.

    A step outside the range counts as an excess of 1; the ratio
    phi(omega t~) / (omega t^r) is held to c_omega_bar on steps with
    t, t~ > 0. No steps give 0.
    """
    in_range = np.all((omega > 0.0) & (omega <= config.vartheta * config.omega_bar))
    live = (t > 0.0) & (t_tilde > 0.0)
    omega, t, t_tilde = omega[live], t[live], t_tilde[live]
    sp, c_const, rho = config.space, config.c_const, config.rho
    majorant = [phi(lam, c_const, rho, sp) for lam in (omega * t_tilde).tolist()]
    ratio = np.array(majorant, dtype=float) / (omega * t**sp.r)
    return _worst([0.0 if in_range else 1.0, np.max(ratio - config.c_omega_bar, initial=0.0)])


def check_omega_bounds(seed: int = 2) -> CheckResult:
    """choose_omega obeys 0 < omega <= vartheta omega_bar and the phi-ratio cap.

    Samples t, t~ > 0 over many decades, on five spaces (one with r < s,
    one with p near 1, where p* is 10001), each under the default
    ``SolverConfig`` constants.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = 200
    worst = 0.0
    with warnings.catch_warnings():
        # the r < s combination is exercised on purpose here
        warnings.simplefilter("ignore", UserWarning)
        pairs = ((1.1, 2.0), (2.0, 1.1), (1.1, 10.0), (3.0, 4.0), (1.0001, 2.0))
        configs = [SolverConfig(space=SpaceParams(p, r), delta=0.0, tau=1.1) for p, r in pairs]
    for config in configs:
        t = 10.0 ** rng.uniform(-6.0, 1.0, samples)
        t_tilde = 10.0 ** rng.uniform(-12.0, 1.0, samples)
        omega = np.array(
            [
                choose_omega(*pair, config.vartheta, config.omega_bar, config.space)
                for pair in zip(t, t_tilde)
            ]
        )
        worst = _worst([worst, _step_size_excess(omega, t, t_tilde, config)])
    return CheckResult(
        "omega schedule bounds",
        worst <= 1e-12,
        f"{samples * len(configs)} samples, worst excess {worst:.2e}",
    )


def check_adjoint_identity(seed: int = 3) -> CheckResult:
    """F'(c)* is the transpose of F'(c), both assembled column by column, in 1-d and 2-d.

    One random c > 0 on each of two problems (51 cells; 13 x 13 cells). The
    defect max|F'(c)^T - F'(c)*| / max|F'(c)| must stay <= 1e-12 in both.
    The pairing weights are uniform, so this is <F'(c)h, w> = <h, F'(c)*w>
    for every h and w.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    problems = (
        EllipticProblem(Grid((51,)), lambda t: 1.0 + t, lambda t: 1.0 + t),
        EllipticProblem(Grid((13, 13)), lambda x, y: 1.0 + x * y, lambda x, y: 1.0 + x + y),
    )
    defects = []
    for problem in problems:
        grid = problem.grid
        ev = solve_state(problem, GridFunction(grid, 0.5 + rng.random(grid.size)))
        basis = [GridFunction(grid, e) for e in np.eye(grid.size)]
        deriv = np.column_stack([derivative_apply(ev, e).values for e in basis])
        adj = np.column_stack([adjoint_apply(ev, e).values for e in basis])
        defects.append(float(np.max(np.abs(deriv.T - adj)) / np.max(np.abs(deriv))))
    return CheckResult(
        "adjoint identity",
        _worst(defects) <= 1e-12,
        f"dense transpose defect {defects[0]:.2e} in 1-d, {defects[1]:.2e} in 2-d",
    )


def check_taylor_order(seed: int = 4) -> CheckResult:
    """Remainder ||F(c+th) - F(c) - t F'(c)h|| decays with fitted order >= 1.9."""
    rng = np.random.Generator(np.random.PCG64(seed))
    problem = EllipticProblem(Grid((51,)), lambda t: 1.0 + t, lambda t: 1.0 + t)
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


# the bounds of the integers draws the stream is checked on: the two ends of
# the range, 1 (no draw) and 2**32 (a full 32-bit word), the smallest that
# draws, an odd one, the 1D node count, and one just above 2**31
STREAM_HIGHS = (1, 2, 3, 401, 2**31 + 5, 2**32)


def stream_matches_numpy(seed: int, high: int) -> bool:
    """Whether the noise stream draws what ``numpy.random.Generator(PCG64(seed))`` does.

    Compared bit for bit: ``random(401)``, then 64 alternating
    ``integers(high)`` / ``random()`` draws in :func:`add_outliers`' order,
    so that an odd count of 32-bit draws leaves a spare half-word behind.
    """
    ours, reference = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
    if ours.random(401).tobytes() != reference.random(401).tobytes():
        return False
    return all(
        ours.integers(high) == int(reference.integers(high)) and ours.random() == reference.random()
        for _ in range(64)
    )


def check_noise_contract(seed: int = 5) -> CheckResult:
    """Noise norm exactness (r = 1.1, 2, 10), bit determinism, outlier count, numpy's stream."""
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
    same = all(stream_matches_numpy(seed, high) for high in STREAM_HIGHS)
    if not same:
        defects.append(1.0)
    worst = _worst(defects)
    return CheckResult(
        "noise determinism",
        worst <= 1e-12,
        f"norm defect {worst:.2e}, {differing} outliers, "
        f"stream {'equals' if same else 'differs from'} numpy's PCG64",
    )


def step_bound_audit(log: IterationLog, config: SolverConfig) -> CheckResult:
    """Audit every recorded step of a run against the omega/alpha/phi bounds.

    Checks the omega range and phi-ratio cap of :func:`_step_size_excess`,
    0 < alpha <= 1, that no outer loop takes more steps than its allowance,
    and that alpha carries over on the weights the iteration used: the
    first step of each loop uses the previous loop's ``alpha_end`` (alpha00
    for the first loop), and a loop of no steps ends at it. A broken
    inequality counts as an excess of 1; the worst excess must stay <= 1e-12.
    """
    omega, alpha, t, t_tilde = (
        log.records.column(name) for name in ("omega", "alpha", "t", "t_tilde")
    )
    worst = _step_size_excess(omega, t, t_tilde, config)
    if not np.all((alpha > 0.0) & (alpha <= 1.0)):
        worst = max(worst, 1.0)
    steps, allowance, alpha_end = (
        log.outer.column(name) for name in ("steps", "allowance", "alpha_end")
    )
    if np.any(steps > allowance):
        worst = max(worst, 1.0)
    # loop i starts at the weight loop i-1 ended with: its step sum(steps[:i])
    # uses it, or, without steps, it ends there
    carried = np.concatenate(([config.alpha00], alpha_end))[:-1]
    started, stepped = alpha_end.copy(), steps > 0
    started[stepped] = alpha[(np.cumsum(steps) - steps)[stepped]]
    if np.any(started != carried):
        worst = max(worst, 1.0)
    return CheckResult(
        "step bounds", worst <= 1e-12, f"{alpha.size} steps audited, worst excess {worst:.2e}"
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
