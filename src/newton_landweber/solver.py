"""Newton-type iteratively regularized Landweber iteration in L^p spaces.

Outer loop: at the current iterate x_n, the state equation is solved once and
its factorization reused; the loop stops by the discrepancy principle
||F(x_n) - y_delta||_r <= tau * delta. Inner loop: iteratively regularized
Landweber steps on the linearization at x_n, driven in the dual space,

    u_{n,k+1} = u_{n,k} - alpha_{n,k} J_p(z_{n,k} - x0) - omega_{n,k} A_n^* j_r(rho_{n,k}),
    z_{n,k+1} = x0 + J_p^{-1}( J_p(x_n - x0) + u_{n,k+1} ),

with rho_{n,k} = A_n (z_{n,k} - x_n) + F(x_n) - y_delta. The loop length is
the configured allowance k_n, cut short when the nonlinear residual at z_{n,k}
already passes the discrepancy test. alpha carries across loops: the first
weight of loop n is the last weight of loop n-1.

In rate mode (theta > 0) the inner loop at the stopping index continues until
alpha falls below c_alpha * (r_n + delta)^(r/(1+theta)); the nonlinear
residual check is not consulted there.

:class:`GridFunction` is the type of the API: ``run`` takes and returns grid
functions. Inside, ``run`` is the two loops over local arrays and scalars:
the inner loop and its nonlinear residual check run on raw float64 arrays
through the kernels of ``geometry`` and ``forward``, and each step checks
for non-finite values once, on the norm t of its new linearized residual.

A step computes only what steers the iteration. Its record, with the
Bregman diagnostic d2 = D_p(truth - x0, z_{n,k} - x0) and gamma =
d2 alpha^-theta, which steer nothing, is built afterwards: ``run()``
queues each step's scalars and iterate and computes d2 for blocks of
RECORD_BLOCK = 8 steps in one pass. Every way out of the loops (the
discrepancy principle, a budget, the refinement, a failure) goes through
one exit that flushes the queue, so every record is in ``log.records``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._warn import warn_at_caller

# adjoint_apply, derivative_apply, forward, duality_map, inverse_duality_map,
# lp_norm and shifted_bregman are not called here, as the inner loop and the
# residual check run on the array kernels; the layer tracer in
# perfbench/tracer.py rebinds them in this module.
from .forward import (  # noqa: F401
    EllipticProblem,
    SingularOperatorError,
    adjoint_apply,
    adjoint_values,
    derivative_apply,
    derivative_values,
    forward,
    solve_state,
    state_values,
)
from .geometry import (  # noqa: F401
    SpaceParams,
    bregman_values,
    duality_map,
    duality_map_values,
    inverse_duality_map,
    lp_norm,
    lp_norm_values,
    shifted_bregman,
)
from .grids import GridFunction, GridMismatchError
from .schedules import (
    ConfigurationError,
    InnerBudget,
    _pow,
    alpha_check,
    alpha_hat,
    choose_omega,
    choose_vartheta,
    next_alpha,
    theta_exponent,
)

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "OuterRecord",
    "IterationLog",
    "RunResult",
    "NonFiniteIterateError",
    "outer_stop",
    "refinement_threshold",
    "run",
]

REASON_DISCREPANCY = "discrepancy"
REASON_OUTER_BUDGET = "outer budget"
REASON_TOTAL_INNER = "total inner budget"

# steps whose records are built together, with one Bregman pass over the block
RECORD_BLOCK = 8


class NonFiniteIterateError(FloatingPointError):
    """An inner step produced a NaN or infinite iterate or residual."""


@dataclass(frozen=True)
class SolverConfig:
    """All tunables of the iteration; validated on construction.

    ``delta`` is the noise level entering both stopping rules, ``tau`` the
    discrepancy factor and ``tau_tilde`` the scale of the residual-driven
    alpha floor. ``nu`` is the assumed smoothness driving theta; zero means
    no decay is imposed on alpha beyond the floor. ``vartheta`` of ``None``
    selects the largest admissible power of two automatically.
    """

    space: SpaceParams
    delta: float
    tau: float
    tau_tilde: float = 0.1
    eta: float = 0.1
    nu: float = 0.0
    q: float = 0.9
    alpha00: float = 1.0
    omega_bar: float = 1e8
    c_omega_bar: float = 0.1
    vartheta: float | None = None
    rho: float = 0.5
    c_const: float = 1.0
    inner_budget: InnerBudget = InnerBudget.power(50.0, 2.0)
    rate_mode: bool = False
    c_alpha: float = 1.0
    max_outer: int = 200
    max_inner: int = 100_000
    max_total_inner: int | None = None

    def __post_init__(self) -> None:
        sp = self.space
        if self.delta < 0:
            raise ConfigurationError(f"delta must be >= 0, got {self.delta}")
        if self.tau <= 1.0:
            raise ConfigurationError(f"tau must exceed 1, got {self.tau}")
        if self.tau_tilde <= 0:
            raise ConfigurationError(f"tau_tilde must be positive, got {self.tau_tilde}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigurationError(f"eta must lie in [0, 1), got {self.eta}")
        if not 0.0 < self.q < 1.0:
            raise ConfigurationError(f"q must lie in (0, 1), got {self.q}")
        if not 0.0 < self.alpha00 <= 1.0:
            raise ConfigurationError(f"alpha00 must lie in (0, 1], got {self.alpha00}")
        if self.omega_bar <= 0:
            raise ConfigurationError(f"omega_bar must be positive, got {self.omega_bar}")
        if not 0.0 < self.c_omega_bar < 1.0:
            raise ConfigurationError(
                f"c_omega_bar must lie in (0, 1), got {self.c_omega_bar}"
            )
        if self.vartheta is not None and not 0.0 < self.vartheta <= 1.0:
            raise ConfigurationError(f"vartheta must lie in (0, 1], got {self.vartheta}")
        if self.rho <= 0 or self.c_const <= 0:
            raise ConfigurationError("rho and c_const must be positive")
        if self.c_alpha <= 0:
            raise ConfigurationError(f"c_alpha must be positive, got {self.c_alpha}")
        for name in ("max_outer", "max_inner"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.max_total_inner is not None and self.max_total_inner < 1:
            raise ConfigurationError("max_total_inner must be >= 1 when set")

        theta = self.theta  # validates nu against r
        if sp.s_star < theta + 1.0 or sp.p_star < theta + 1.0:
            raise ConfigurationError(
                f"theta={theta:g} too large for the space: need "
                f"s* >= theta+1 and p* >= theta+1 (s*={sp.s_star:g}, p*={sp.p_star:g})"
            )
        if self.rate_mode:
            if theta == 0.0:
                warn_at_caller(
                    "rate mode with theta = 0 is a no-op: the refinement "
                    "criterion is not defined without decay"
                )
            else:
                bound = _pow(self.tau_tilde * (1.0 + self.eta), sp.r / (1.0 + theta))
                if self.c_alpha <= bound:
                    raise ConfigurationError(
                        f"rate mode needs c_alpha > (tau_tilde (1+eta))^(r/(1+theta)) "
                        f"= {bound:g}, got {self.c_alpha}"
                    )
        # fail early rather than in the first inner step
        self.resolved_vartheta

    @property
    def theta(self) -> float:
        return theta_exponent(self.nu, self.space.r)

    @property
    def resolved_vartheta(self) -> float:
        if self.vartheta is not None:
            return self.vartheta
        sp = self.space
        return choose_vartheta(
            self.c_omega_bar, self.c_const, self.rho, sp.p, sp.p_star, sp.s_star
        )

    def replace(self, **changes) -> "SolverConfig":
        return replace(self, **changes)


class IterationRecord(NamedTuple):
    """State of one inner step, captured before the update is applied.

    ``t`` is the linearized residual norm, ``t_tilde`` the dual norm of the
    mapped gradient, ``f_residual`` the nonlinear residual of the current z
    when it was evaluated for the stopping check. ``d2``/``gamma`` are the
    shifted Bregman distance to the supplied truth and its alpha^-theta
    rescaling (synthetic runs only), computed after the step with those of
    the steps around it (see ``run``). A named tuple: immutable, and built
    once per inner step without a setattr per field.
    """

    n: int
    k: int
    t: float
    t_tilde: float
    omega: float
    alpha: float
    r_n: float
    f_residual: float | None = None
    d2: float | None = None
    gamma: float | None = None
    degenerate: bool = False
    refinement: bool = False


class OuterRecord(NamedTuple):
    """Summary of one outer iterate and its inner loop."""

    n: int
    r_n: float
    alpha_start: float
    allowance: int
    steps: int
    alpha_end: float
    inner_reason: str
    f_residual_stop: float | None = None


@dataclass
class IterationLog:
    records: list[IterationRecord] = field(default_factory=list)
    outer: list[OuterRecord] = field(default_factory=list)

    @property
    def total_inner(self) -> int:
        return len(self.records)


@dataclass
class RunResult:
    """Reconstruction plus the complete iteration history."""

    final: GridFunction
    reason: str
    n_star: int
    log: IterationLog
    final_alpha: float
    total_applies: int

    @property
    def failed(self) -> bool:
        return self.reason.startswith("failure")


def outer_stop(r_n: float, tau: float, delta: float) -> bool:
    """Discrepancy principle r_n <= tau * delta (true at r_n = 0 for any delta)."""
    return r_n <= tau * delta


def refinement_threshold(r_n: float, config: SolverConfig) -> float:
    """Rate-mode target c_alpha * (r_n + delta)^(r/(1+theta)) for alpha."""
    exponent = config.space.r / (1.0 + config.theta)
    return config.c_alpha * _pow(r_n + config.delta, exponent)


class _RecordQueue:
    """Steps of one run waiting for their :class:`IterationRecord`.

    Each step pushes its scalars and its iterate z_{n,k}, which is copied
    into a preallocated (RECORD_BLOCK, n) block. A flush computes the
    Bregman diagnostic d2 of every queued iterate in one pass of
    ``bregman_values`` over the filled rows and gamma = d2 * alpha^-theta
    per row, then appends the records to the log in step order. The queue
    flushes itself when it holds RECORD_BLOCK steps, so it never holds more.
    """

    def __init__(
        self,
        log: IterationLog,
        x0: np.ndarray,
        truth_shift: tuple[np.ndarray, np.ndarray] | None,
        p: float,
        theta: float,
        weight: float,
    ):
        self.records = log.records
        self.x0 = x0
        self.truth_shift = truth_shift
        self.p = p
        self.theta = theta
        self.weight = weight
        self.rows: list[tuple] = []
        self.iterates = None if truth_shift is None else np.empty((RECORD_BLOCK, x0.size))

    def push(self, row: tuple, z: np.ndarray) -> None:
        """Queue (n, k, t, t_tilde, omega, alpha, r_n, f_residual, degenerate, refinement)."""
        if self.iterates is not None:
            self.iterates[len(self.rows)] = z
        self.rows.append(row)
        if len(self.rows) == RECORD_BLOCK:
            self.flush()

    def flush(self) -> None:
        if not self.rows:
            return
        if self.truth_shift is None:
            d2s = [None] * len(self.rows)
        else:
            shift, shift_pow = self.truth_shift
            block = self.iterates[: len(self.rows)] - self.x0
            d2s = bregman_values(shift, shift_pow, block, self.p, self.weight).tolist()
        theta = self.theta
        for row, d2 in zip(self.rows, d2s):
            n, k, t, t_tilde, omega, alpha, r_n, f_residual, degenerate, refinement = row
            if d2 is None or theta == 0.0:
                gamma = d2
            else:
                gamma = d2 * alpha**-theta if alpha > 0 else None
            self.records.append(
                IterationRecord(
                    n, k, t, t_tilde, omega, alpha, r_n, f_residual,
                    d2, gamma, degenerate, refinement,
                )
            )
        self.rows.clear()


def run(
    problem: EllipticProblem,
    data: GridFunction,
    config: SolverConfig,
    x0: GridFunction | None = None,
    truth: GridFunction | None = None,
    x_init: GridFunction | None = None,
) -> RunResult:
    """Run the full two-loop iteration from x0 (or x_init when they differ).

    Failures (singular operator, non-finite iterate, exhausted refinement)
    are reported through ``RunResult.reason``, not raised; budget exhaustion
    likewise. Inputs on a grid other than ``problem.grid`` raise
    :class:`GridMismatchError`. ``truth`` switches on the Bregman
    diagnostics in the log.

    The inner loop carries the dual iterate of z as w = base_dual + u_dual:
    since z is constructed as x0 + J_p^{-1}(w), the term J_p(z - x0) of the
    update equals w exactly, so no pow round trip is needed. A step is kept
    only if the norm t of its new linearized residual is finite, which also
    vouches for the new iterate; the nonlinear residual of z is checked
    after every step. Every way out leaves both loops for one exit, which
    flushes the record queue, so every record is in ``log.records``.
    """
    for name, f in (("data", data), ("x0", x0), ("x_init", x_init), ("truth", truth)):
        if f is not None and f.grid != problem.grid:
            raise GridMismatchError(f"{name} sampled on a different grid")
    if x0 is None:
        x0 = GridFunction.zeros(problem.grid)
    x = x0 if x_init is None else x_init
    sp = config.space
    r, p_star, theta = sp.r, sp.p_star, config.theta
    tau, delta = config.tau, config.delta
    weight = problem.grid.cell_volume
    x0_values, data_values = x0.values, data.values
    vartheta = config.resolved_vartheta
    truth_shift = None
    if truth is not None:
        shift = truth.values - x0_values
        truth_shift = (shift, np.abs(shift) ** sp.p)
    log = IterationLog()
    queue = _RecordQueue(log, x0_values, truth_shift, sp.p, theta, weight)
    rate_active = config.rate_mode and theta > 0.0
    # rate mode runs every loop to its full allowance; with exact data the
    # residual test can never fire, so skip the extra forward solves too
    check_residual = not rate_active and tau * delta > 0.0
    alpha = config.alpha00
    applies = 0
    total_inner = 0
    n = 0
    reason = None

    while True:
        try:
            ev = solve_state(problem, x)
        except SingularOperatorError as exc:
            reason = f"failure: {exc} (outer iterate {n})"
            break
        applies += 1
        resid0 = ev.u.values - data_values
        r_n = lp_norm_values(resid0, r, weight)

        # in rate mode the loop at the stopping index refines alpha first
        refining = outer_stop(r_n, tau, delta)
        if refining:
            threshold = refinement_threshold(r_n, config) if rate_active else 0.0
            if threshold <= 0.0:
                reason = REASON_DISCREPANCY
            allowance = config.max_inner
        elif n >= config.max_outer:
            reason = REASON_OUTER_BUDGET
        else:
            allowance = min(config.inner_budget.limit(n, r_n, r), config.max_inner)
        if reason is not None:
            log.outer.append(OuterRecord(n, r_n, alpha, 0, 0, alpha, reason))
            break

        x_n = x.values
        base_dual = duality_map_values(x_n - x0_values, sp.p)
        u_dual = np.zeros(problem.grid.size)
        # w = base_dual + u_dual at u_dual = 0; adding the zeros would only
        # turn -0 into +0, and the first update 0 - alpha * w is +0 either way
        w = base_dual
        z = x_n
        resid = resid0
        t = r_n
        alpha_start = alpha
        k = 0
        inner_reason = None
        f_stop = None
        # the residual check of z_{n,k} is logged with step k
        f_pending = None
        while True:
            if refining and alpha <= threshold:
                inner_reason = "refinement"
                break
            if k >= allowance:
                inner_reason = "refinement aborted" if refining else "budget"
                break
            if (
                config.max_total_inner is not None
                and total_inner >= config.max_total_inner
            ):
                reason = REASON_TOTAL_INNER
                inner_reason = "aborted: " + reason
                break
            try:
                gradient = adjoint_values(ev, duality_map_values(resid, r))
                t_tilde = lp_norm_values(gradient, p_star, weight)
                omega, degenerate = choose_omega(
                    t, t_tilde, vartheta, config.omega_bar, sp
                )
                u_next = u_dual - alpha * w - omega * gradient
                w_next = base_dual + u_next
                # J_p^{-1} is J_{p*}
                z_next = x0_values + duality_map_values(w_next, p_star)
                resid_next = derivative_values(ev, z_next - x_n, resid0)
                applies += 2
                t_next = lp_norm_values(resid_next, r, weight)
                # one scalar guards z_next and resid_next: a non-finite z_next
                # makes h * u non-finite (inf, or NaN where u is 0), a dgttrs
                # or SuperLU solve carries a non-finite right-hand side entry
                # into its solution, and lp_norm_values returns inf or NaN
                # exactly when its input holds one, on its rescale path too
                if not math.isfinite(t_next):
                    raise NonFiniteIterateError("non-finite iterate or residual")
                # the record describes z_{n,k}, before the update
                row = (n, k, t, t_tilde, omega, alpha, r_n, f_pending, degenerate, refining)
                queue.push(row, z)
                u_dual, w, z, resid, t = u_next, w_next, z_next, resid_next, t_next
                alpha = next_alpha(
                    alpha_check(t, r_n, delta, config.eta, config.tau_tilde, r, theta),
                    alpha_hat(alpha, config.q, theta),
                )
                k += 1
                total_inner += 1
                f_pending = None
                if check_residual and k < allowance:
                    f_val = state_values(problem, z)
                    applies += 1
                    f_pending = lp_norm_values(f_val - data_values, r, weight)
                    if outer_stop(f_pending, tau, delta):
                        f_stop = f_pending
                        inner_reason = "inner discrepancy"
                        break
            except (SingularOperatorError, NonFiniteIterateError) as exc:
                reason = f"failure: {exc} (iterate n={n}, k={k})"
                break

        if k > 0:
            x = GridFunction(problem.grid, z)
        if inner_reason is None:
            break  # a failed step: the loop has no outer record
        log.outer.append(
            OuterRecord(n, r_n, alpha_start, allowance, k, alpha, inner_reason, f_stop)
        )
        if inner_reason == "refinement":
            reason = REASON_DISCREPANCY
        elif inner_reason == "refinement aborted":
            reason = (
                f"failure: refinement budget exhausted (alpha={alpha:g} > "
                f"threshold={threshold:g} after {k} steps)"
            )
        if reason is not None:
            break
        n += 1

    queue.flush()
    return RunResult(x, reason, n, log, alpha, applies)
