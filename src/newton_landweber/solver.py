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
functions and ``InnerIteration.z`` is one. Inside, the inner loop and its
nonlinear residual check run on raw float64 arrays through the kernels of
``geometry`` and ``forward``, and each step checks its new iterate and
residual for non-finite values once.

A step computes only what steers the iteration. Its record, with the
Bregman diagnostic d2 = D_p(truth - x0, z_{n,k} - x0) and gamma =
d2 alpha^-theta, which steer nothing, is built afterwards: ``run()``
queues each step's scalars and iterate, computes d2 for blocks of
RECORD_BLOCK = 8 steps in one pass, and flushes the queue before it
returns, so every record is in ``log.records`` on every way out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._warn import warn_at_caller

# adjoint_apply, derivative_apply, forward, duality_map, inverse_duality_map,
# lp_norm and shifted_bregman are not called here, as the inner loop and the
# residual check run on the array kernels; the layer tracer in
# perfbench/tracer.py rebinds them in this module.
from .forward import (  # noqa: F401
    EllipticProblem,
    ForwardEvaluation,
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
    "InnerIteration",
    "NonFiniteIterateError",
    "outer_stop",
    "refinement_threshold",
    "run",
]

REASON_DISCREPANCY = "discrepancy"
REASON_OUTER_BUDGET = "outer budget"
REASON_TOTAL_INNER = "total inner budget"
REASON_APPLY_BUDGET = "apply budget"

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
    eval_stride: int = 1
    rate_mode: bool = False
    diagnostics: bool = True
    c_alpha: float = 1.0
    max_outer: int = 200
    max_inner: int = 100_000
    max_total_inner: int | None = None
    max_total_applies: int = 10_000_000

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
        if self.eval_stride < 1:
            raise ConfigurationError(f"eval_stride must be >= 1, got {self.eval_stride}")
        if self.c_alpha <= 0:
            raise ConfigurationError(f"c_alpha must be positive, got {self.c_alpha}")
        for name in ("max_outer", "max_inner", "max_total_applies"):
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
                bound = (self.tau_tilde * (1.0 + self.eta)) ** (
                    sp.r / (1.0 + theta)
                )
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


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """State of one inner step, captured before the update is applied.

    ``t`` is the linearized residual norm, ``t_tilde`` the dual norm of the
    mapped gradient, ``f_residual`` the nonlinear residual of the current z
    when it was evaluated for the stopping check. ``d2``/``gamma`` are the
    shifted Bregman distance to the supplied truth and its alpha^-theta
    rescaling (synthetic runs only), computed after the step with those of
    the steps around it (see ``run``).
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


@dataclass(frozen=True, slots=True)
class OuterRecord:
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
    return config.c_alpha * (r_n + config.delta) ** (
        config.space.r / (1.0 + config.theta)
    )


class InnerIteration:
    """Inner Landweber loop at a fixed outer iterate, stepped one k at a time.

    The loop runs on raw float64 values: ``x0`` and ``resid0`` are arrays on
    the grid of ``ev``, and ``z`` is wrapped as a :class:`GridFunction` only
    when read. ``vartheta`` is the step-size factor, resolved once per run.
    The dual iterate of z is carried as w = base_dual + u_dual: since z is
    constructed as x0 + J_p^{-1}(w), the term J_p(z - x0) of the update
    equals w exactly, so no pow round trip is needed. A step computes only
    what steers the iteration; ``run()`` builds the step records and their
    Bregman diagnostic afterwards, in blocks.
    """

    def __init__(
        self,
        ev: ForwardEvaluation,
        x0: np.ndarray,
        alpha: float,
        config: SolverConfig,
        r_n: float,
        resid0: np.ndarray,
        vartheta: float,
    ):
        sp = config.space
        self.ev = ev
        self.x_n = ev.c.values
        self.x0 = x0
        self.config = config
        self.space = sp
        self.r_n = r_n
        self.resid0 = resid0
        self.alpha = alpha
        self.vartheta = vartheta
        self.theta = config.theta
        self.weight = ev.problem.grid.cell_volume
        self.p_star = sp.p_star

        self.base_dual = duality_map_values(self.x_n - x0, sp.p)
        self.u_dual = np.zeros(ev.problem.grid.size)
        # w = base_dual + u_dual at u_dual = 0; adding the zeros would only
        # turn -0 into +0, and the first update 0 - alpha * w is +0 either way
        self.w = self.base_dual
        self.z_values = self.x_n
        self._z: GridFunction | None = ev.c
        self.resid = resid0
        self.t = r_n
        self.k = 0
        self.applies = 0

    @property
    def z(self) -> GridFunction:
        """The current inner iterate z_{n,k}."""
        if self._z is None:
            self._z = GridFunction(self.ev.problem.grid, self.z_values)
        return self._z

    def step(self) -> tuple[float, float, bool]:
        """Advance z_{n,k} -> z_{n,k+1} and alpha; return (t_tilde, omega, degenerate).

        Raises :class:`NonFiniteIterateError`, leaving the state at z_{n,k},
        when the new iterate or its linearized residual is not finite.
        """
        cfg = self.config
        sp = self.space
        ev = self.ev

        gradient = adjoint_values(ev, duality_map_values(self.resid, sp.r))
        t_tilde = lp_norm_values(gradient, self.p_star, self.weight)
        omega, degenerate = choose_omega(
            self.t, t_tilde, self.vartheta, cfg.omega_bar, sp
        )
        u_dual = self.u_dual - self.alpha * self.w - omega * gradient
        w = self.base_dual + u_dual
        # J_p^{-1} is J_{p*}
        z = self.x0 + duality_map_values(w, self.p_star)
        resid = derivative_values(ev, z - self.x_n, self.resid0)
        self.applies += 2
        if not (np.isfinite(z).all() and np.isfinite(resid).all()):
            raise NonFiniteIterateError("non-finite iterate or residual")
        self.u_dual = u_dual
        self.w = w
        self.z_values = z
        self._z = None
        self.resid = resid
        self.t = lp_norm_values(resid, sp.r, self.weight)
        self.alpha = next_alpha(
            alpha_check(
                self.t, self.r_n, cfg.delta, cfg.eta, cfg.tau_tilde, sp.r, self.theta
            ),
            alpha_hat(self.alpha, cfg.q, self.theta),
        )
        self.k += 1
        return t_tilde, omega, degenerate


class _RecordQueue:
    """Steps of one run waiting for their :class:`IterationRecord`.

    Each step pushes its scalars and its iterate z_{n,k}. A flush computes
    the Bregman diagnostic d2 of every queued iterate in one (B, n) pass of
    ``bregman_values`` and gamma = d2 * alpha^-theta per row, then appends
    the records to the log in step order. The queue flushes itself when it
    holds RECORD_BLOCK steps, so it never holds more.
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
        self.iterates: list[np.ndarray] = []

    def push(self, row: tuple, z: np.ndarray) -> None:
        """Queue (n, k, t, t_tilde, omega, alpha, r_n, f_residual, degenerate, refinement)."""
        self.rows.append(row)
        if self.truth_shift is not None:
            self.iterates.append(z)
        if len(self.rows) == RECORD_BLOCK:
            self.flush()

    def flush(self) -> None:
        if not self.rows:
            return
        if self.truth_shift is None:
            d2s = [None] * len(self.rows)
        else:
            shift, shift_pow = self.truth_shift
            d2s = bregman_values(
                shift, shift_pow, np.stack(self.iterates) - self.x0, self.p, self.weight
            ).tolist()
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
        self.iterates.clear()


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
    diagnostics in the log. The step records are built in blocks of
    RECORD_BLOCK steps after the steps ran; every one of them is in
    ``log.records`` when ``run()`` returns, whatever the reason.
    """
    for name, f in (("data", data), ("x0", x0), ("x_init", x_init), ("truth", truth)):
        if f is not None and f.grid != problem.grid:
            raise GridMismatchError(f"{name} sampled on a different grid")
    if x0 is None:
        x0 = GridFunction.zeros(problem.grid)
    if x_init is None:
        x_init = x0
    sp = config.space
    truth_shift = None
    if truth is not None and config.diagnostics:
        shift = truth.values - x0.values
        truth_shift = (shift, np.abs(shift) ** sp.p)
    log = IterationLog()
    queue = _RecordQueue(
        log, x0.values, truth_shift, sp.p, config.theta, problem.grid.cell_volume
    )
    result = _iterate(problem, data.values, config, x0.values, x_init, log, queue)
    queue.flush()
    return result


def _iterate(
    problem: EllipticProblem,
    data_values: np.ndarray,
    config: SolverConfig,
    x0_values: np.ndarray,
    x: GridFunction,
    log: IterationLog,
    queue: _RecordQueue,
) -> RunResult:
    """The outer and inner loops of ``run()``, from the initial iterate x."""
    sp = config.space
    weight = problem.grid.cell_volume
    vartheta = config.resolved_vartheta
    alpha = config.alpha00
    applies = 0
    total_inner = 0
    n = 0
    rate_active = config.rate_mode and config.theta > 0.0
    # rate mode runs every loop to its full allowance; with exact data the
    # residual test can never fire, so skip the extra forward solves too
    check_residual = not rate_active and config.tau * config.delta > 0.0
    # reserve a step's two applies plus the optional residual check
    reserve = 3 if check_residual else 2

    while True:
        try:
            ev = solve_state(problem, x)
        except SingularOperatorError as exc:
            return RunResult(
                x, f"failure: {exc} (outer iterate {n})", n, log, alpha, applies
            )
        applies += 1
        resid0 = ev.u.values - data_values
        r_n = lp_norm_values(resid0, sp.r, weight)

        # in rate mode the loop at the stopping index refines alpha first
        refining = outer_stop(r_n, config.tau, config.delta)
        if refining:
            threshold = refinement_threshold(r_n, config) if rate_active else 0.0
            if threshold <= 0.0:
                log.outer.append(
                    OuterRecord(n, r_n, alpha, 0, 0, alpha, REASON_DISCREPANCY)
                )
                return RunResult(x, REASON_DISCREPANCY, n, log, alpha, applies)
            allowance = config.max_inner
        elif n >= config.max_outer:
            log.outer.append(
                OuterRecord(n, r_n, alpha, 0, 0, alpha, REASON_OUTER_BUDGET)
            )
            return RunResult(x, REASON_OUTER_BUDGET, n, log, alpha, applies)
        else:
            allowance = min(config.inner_budget.limit(n, r_n, sp.r), config.max_inner)

        it = InnerIteration(ev, x0_values, alpha, config, r_n, resid0, vartheta)
        inner_reason = None
        abort_reason = None
        f_stop = None
        # the residual check of z_{n,k} is logged with step k
        f_pending = None
        while True:
            if refining and it.alpha <= threshold:
                inner_reason = "refinement"
                break
            if it.k >= allowance:
                inner_reason = "refinement aborted" if refining else "budget"
                break
            if (
                config.max_total_inner is not None
                and total_inner >= config.max_total_inner
            ):
                abort_reason = REASON_TOTAL_INNER
                break
            if applies + it.applies + reserve > config.max_total_applies:
                abort_reason = REASON_APPLY_BUDGET
                break
            # the state the step's record describes, before the update
            k, t, alpha_k, z = it.k, it.t, it.alpha, it.z_values
            try:
                t_tilde, omega, degenerate = it.step()
                row = (n, k, t, t_tilde, omega, alpha_k, r_n, f_pending, degenerate, refining)
                queue.push(row, z)
                f_pending = None
                total_inner += 1
                if check_residual and it.k < allowance and it.k % config.eval_stride == 0:
                    # z_values was checked finite by step()
                    f_val = state_values(problem, it.z_values)
                    it.applies += 1
                    f_pending = lp_norm_values(f_val - data_values, sp.r, weight)
                    if outer_stop(f_pending, config.tau, config.delta):
                        f_stop = f_pending
                        inner_reason = "inner discrepancy"
                        break
            except (SingularOperatorError, NonFiniteIterateError) as exc:
                applies += it.applies
                return RunResult(
                    it.z,
                    f"failure: {exc} (iterate n={n}, k={it.k})",
                    n,
                    log,
                    it.alpha,
                    applies,
                )

        applies += it.applies
        if abort_reason is not None:
            inner_reason = "aborted: " + abort_reason
        log.outer.append(
            OuterRecord(n, r_n, alpha, allowance, it.k, it.alpha, inner_reason, f_stop)
        )
        x = it.z
        alpha = it.alpha
        if abort_reason is not None:
            return RunResult(x, abort_reason, n, log, alpha, applies)
        if refining:
            if inner_reason == "refinement":
                return RunResult(x, REASON_DISCREPANCY, n, log, alpha, applies)
            return RunResult(
                x,
                f"failure: refinement budget exhausted (alpha={alpha:g} > "
                f"threshold={threshold:g} after {it.k} steps)",
                n,
                log,
                alpha,
                applies,
            )
        n += 1
