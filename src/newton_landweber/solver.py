"""Newton-type iteratively regularized Landweber iteration in L^p spaces.

Outer loop: at the current iterate x_n, the state equation is solved once and
its factorization reused; the loop stops by the discrepancy principle
||F(x_n) - y_delta||_r <= tau * delta. Inner loop: iteratively regularized
Landweber steps on the linearization at x_n, driven in the dual space,

    u_{n,k+1} = u_{n,k} - alpha_{n,k} J_p(z_{n,k} - x0) - omega_{n,k} A_n^* j_r(rho_{n,k}),
    z_{n,k+1} = x0 + J_p^{-1}( J_p(x_n - x0) + u_{n,k+1} ),

with rho_{n,k} = A_n (z_{n,k} - x_n) + F(x_n) - y_delta. Step k > 0 opens by
testing its own iterate: the loop stops at the first k with
||F(z_{n,k}) - y_delta||_r <= tau * delta, else after the allowance k_n.
alpha carries across loops: the first weight of loop n is the last of n-1.

In rate mode (theta > 0) the inner loop at the stopping index continues until
alpha falls below c_alpha * (r_n + delta)^(r/(1+theta)); the nonlinear
residual check is not consulted there.

:class:`GridFunction` is the type of the API: ``run`` takes and returns grid
functions. Inside, ``run`` is the two loops over local arrays and scalars:
the inner loop and its nonlinear residual check run on raw float64 arrays
through the kernels of ``geometry`` and ``forward``. Both guards against
non-finite values are scalars: a step tests the norm t of its new
linearized residual, and the residual check the norm of F(z) - y_delta.
Every exit of either loop sets its reasons where the loop leaves.

A step computes only what steers the iteration, and its row of the log
stores only what the loop computed: a value it did not compute is NaN.
``run`` hands each row to the :class:`IterationLog`, which is the one
writer of its two tables, ``log.records`` of the steps and ``log.outer`` of
the outer loops. It packs RECORD_BLOCK = 32 rows to a numpy array, of
STEP_DTYPE (74 bytes a step) and OUTER_DTYPE (57 bytes a loop), both built
from the record fields. The Bregman diagnostic
d2 = D_p(truth - x0, z_{n,k} - x0), which steers nothing, is computed by
the log when it packs a block of steps, in one pass over the shifts
z_{n,k} - x0 of their iterates. gamma = d2 alpha^-theta is not stored: a
step's record derives it as it is read. Both tables are read-only
sequences that build :class:`IterationRecord` and :class:`OuterRecord`
tuples one at a time on access. Every way out of the loops (the
discrepancy principle, a budget, the refinement, a failure) goes through
one exit that closes the log, which packs the rows still waiting, so every
step and every finished outer loop is in the log.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from ._warn import warn_at_caller

# adjoint_apply, derivative_apply, forward, duality_map, inverse_duality_map,
# lp_norm and shifted_bregman are not called here, as the inner loop and the
# residual check run on the array kernels; the layer tracer in
# perfbench/tracer.py rebinds them in this module.
from .forward import (  # noqa: F401
    NON_FINITE_STATE,
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
    lp_norm_values_quiet,
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
    "refinement_threshold",
    "run",
]

REASON_DISCREPANCY = "discrepancy"
REASON_OUTER_BUDGET = "outer budget"
REASON_TOTAL_INNER = "total inner budget"

# every inner_reason an outer record can hold; the log stores its index here
INNER_REASONS = (
    REASON_DISCREPANCY,
    REASON_OUTER_BUDGET,
    "budget",
    "inner discrepancy",
    "refinement",
    "refinement aborted",
    "aborted: " + REASON_TOTAL_INNER,
)

# rows packed together into one array of a log table, a block of steps with
# one Bregman pass; the fastest of 8, 16, 32 and 64 at 401 cells, where a
# pass's temporaries take 100 KB each (200 KB at 64)
RECORD_BLOCK = 32


@dataclass(frozen=True)
class SolverConfig:
    """All tunables of the iteration; validated on construction.

    ``delta`` is the noise level entering both stopping rules, ``tau`` the
    discrepancy factor and ``tau_tilde`` the scale of the residual-driven
    alpha floor. ``nu`` is the assumed smoothness driving theta; zero means
    no decay is imposed on alpha beyond the floor. The step factor
    ``vartheta`` is not a setting: it is derived from ``c_omega_bar``,
    ``c_const``, ``rho`` and the space's exponents by ``choose_vartheta``.
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
        # every range check is written positively, so that NaN fails it;
        # delta, tau, tau_tilde, rho, c_const and c_alpha must be finite too:
        # an infinite delta or tau makes every residual pass the discrepancy
        # test, an infinite tau_tilde pins alpha at 1, and an infinite
        # c_alpha skips the refinement tail
        if not 0.0 <= self.delta < math.inf:
            raise ConfigurationError(f"delta must be finite and >= 0, got {self.delta}")
        if not 1.0 < self.tau < math.inf:
            raise ConfigurationError(f"tau must be finite and exceed 1, got {self.tau}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigurationError(f"eta must lie in [0, 1), got {self.eta}")
        if not 0.0 < self.q < 1.0:
            raise ConfigurationError(f"q must lie in (0, 1), got {self.q}")
        if not 0.0 < self.alpha00 <= 1.0:
            raise ConfigurationError(f"alpha00 must lie in (0, 1], got {self.alpha00}")
        if not self.omega_bar > 0:
            raise ConfigurationError(f"omega_bar must be positive, got {self.omega_bar}")
        if not 0.0 < self.c_omega_bar < 1.0:
            raise ConfigurationError(
                f"c_omega_bar must lie in (0, 1), got {self.c_omega_bar}"
            )
        for name in ("tau_tilde", "rho", "c_const", "c_alpha"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        # counts are integers: the log's int64 columns would truncate a float
        for name in ("max_outer", "max_inner"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ConfigurationError(f"{name} must be an int >= 1, got {value}")
        cap = self.max_total_inner
        if cap is not None and not (isinstance(cap, numbers.Integral) and cap >= 1):
            raise ConfigurationError(f"max_total_inner must be an int >= 1 when set, got {cap}")

        theta = self.theta  # validates nu against r
        # s >= p gives s* <= p*, so p* >= theta+1 follows
        if sp.s_star < theta + 1.0:
            raise ConfigurationError(
                f"theta={theta:g} too large for the space: need "
                f"s* >= theta+1 (s*={sp.s_star:g})"
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
        self.vartheta

    # cached: derived once per config, on construction
    @cached_property
    def theta(self) -> float:
        return theta_exponent(self.nu, self.space.r)

    @cached_property
    def vartheta(self) -> float:
        return choose_vartheta(self.c_omega_bar, self.c_const, self.rho, self.space)

    def replace(self, **changes) -> "SolverConfig":
        return replace(self, **changes)


class IterationRecord(NamedTuple):
    """State of one inner step, captured before the update is applied.

    ``t`` is the linearized residual norm, ``t_tilde`` the dual norm of the
    mapped gradient, ``f_residual`` the nonlinear residual of the current z
    when it was evaluated for the stopping check. ``d2``/``gamma`` are the
    shifted Bregman distance to the supplied truth and its alpha^-theta
    rescaling (synthetic runs only). The log keeps its steps as packed rows,
    without gamma, and builds a record from its row each time
    ``log.records`` is read: a field the step did not compute reads None,
    and gamma is derived from d2 and alpha. A named tuple is immutable and
    built without a setattr per field.
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
    """Summary of one outer iterate and its inner loop.

    As with the steps, the log keeps a packed row per loop and builds the
    record from it each time ``log.outer`` is read.
    """

    n: int
    r_n: float
    alpha_start: float
    allowance: int
    steps: int
    alpha_end: float
    inner_reason: str
    f_residual_stop: float | None = None


# the column type of each record field that is not a float64, which holds
# every Python float the loop makes exactly; an inner reason is stored as
# its index in INNER_REASONS
_COLUMN_TYPES = {
    **dict.fromkeys(("n", "k", "allowance", "steps"), np.int64),
    **dict.fromkeys(("degenerate", "refinement"), np.bool_),
    "inner_reason": np.int8,
}


def _row_dtype(fields) -> np.dtype:
    return np.dtype([(name, _COLUMN_TYPES.get(name, np.float64)) for name in fields])


# a row of the log per step holds the fields of IterationRecord but gamma,
# 74 bytes packed. f_residual is NaN where no residual check ran (run()
# fails on a non-finite check before it logs one); d2 is NaN in a run
# without a truth, which the log knows, and where the Bregman sum overflows
# (inf - inf).
STEP_DTYPE = _row_dtype(name for name in IterationRecord._fields if name != "gamma")

# a row per outer loop holds the fields of OuterRecord, 57 bytes packed;
# f_residual_stop is NaN where the loop did not stop on the residual check
# (a stop is <= tau delta)
OUTER_DTYPE = _row_dtype(OuterRecord._fields)


def _record(theta: float, truth: bool, row: tuple) -> IterationRecord:
    """The record of one STEP_DTYPE row, given as a tuple of Python scalars.

    d2 and gamma read None in a run without a truth. gamma is derived per
    record in Python float arithmetic: numpy's array power may differ from
    C pow in the last bit.
    """
    n, k, t, t_tilde, omega, alpha, r_n, f_residual, d2, degenerate, refinement = row
    if not truth:
        d2 = gamma = None
    elif theta == 0.0:
        gamma = d2
    else:
        gamma = d2 * alpha**-theta if alpha > 0 else None
    return IterationRecord(
        n, k, t, t_tilde, omega, alpha, r_n,
        None if f_residual != f_residual else f_residual,  # NaN: no check ran
        d2, gamma, degenerate, refinement,
    )


def _outer_record(row: tuple) -> OuterRecord:
    """The record of one OUTER_DTYPE row, given as a tuple of Python scalars."""
    n, r_n, alpha_start, allowance, steps, alpha_end, reason, f_stop = row
    return OuterRecord(
        n, r_n, alpha_start, allowance, steps, alpha_end,
        INNER_REASONS[reason],
        None if f_stop != f_stop else f_stop,  # NaN: no stop on the check
    )


class LogTable(Sequence):
    """One table of a log: rows packed in numpy blocks, read as records.

    Its log packs RECORD_BLOCK rows into each block of the table's dtype and
    the rest into a last one, and hands each to ``_append``, so every block
    but the last is full and an index finds its block by division. Each
    record is built from its row by ``decode`` when it is read, and none is
    kept. Two tables are equal when their packed rows agree bit for bit.
    """

    __slots__ = ("_dtype", "_decode", "_blocks")

    def __init__(self, dtype: np.dtype, decode) -> None:
        self._dtype = dtype
        self._decode = decode
        self._blocks: list[np.ndarray] = []

    def __len__(self) -> int:
        blocks = self._blocks
        return (len(blocks) - 1) * RECORD_BLOCK + len(blocks[-1]) if blocks else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"row {index} out of range for {size} rows")
        block, row = divmod(i, RECORD_BLOCK)
        return self._decode(self._blocks[block][row].item())

    def __iter__(self) -> Iterator:
        decode = self._decode
        for block in self._blocks:
            for row in block.tolist():
                yield decode(row)

    def column(self, name: str) -> np.ndarray:
        """One field of every row, in order; NaN where the record reads None."""
        if not self._blocks:
            return np.empty(0, self._dtype[name])
        return np.concatenate([block[name] for block in self._blocks])

    def _append(self, block: np.ndarray) -> None:
        """Add the next packed block; all but the last hold RECORD_BLOCK rows."""
        self._blocks.append(block)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogTable):
            return NotImplemented
        a, b = self._blocks, other._blocks
        return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


class IterationLog:
    """The steps and outer loops of one run, in execution order; their one writer.

    Two :class:`LogTable` sequences: ``records``, a STEP_DTYPE row per step
    read as :class:`IterationRecord` tuples, and ``outer``, an OUTER_DTYPE
    row per outer loop read as :class:`OuterRecord` tuples. A row holds
    only what the loop computed, NaN for a value it did not compute, which
    its record reads as None. gamma is derived from d2 as a step record is
    read, so the log is told the run's ``theta``. ``column`` gives one step
    field as an array, ``outer.column`` one outer field. Two logs are equal
    when they were told the same theta, both or neither were given a truth,
    and the rows of both tables agree bit for bit.

    The run writes its rows with ``add_step`` and ``add_outer``. They wait
    until RECORD_BLOCK of them are packed into one block of their table,
    and ``close`` packs the rest. ``x0``, ``p`` and the cell ``weight``
    are keyword arguments, always required. Given the ``truth``'s values
    (None without a truth) and the ``x0`` values, the log tiles the shift
    truth - x0 and its |.|^p to (RECORD_BLOCK, n) once and keeps each
    waiting step's shift z - x0 in a row of a buffer of that shape; when it
    packs a block of steps, one pass of ``bregman_values`` over same-shape
    slices of the filled rows, with no broadcasting, writes the block's d2
    column. ``close`` releases these buffers. ``truth`` reads whether a
    truth was given: without one, d2 and gamma read None.
    """

    def __init__(
        self, theta: float, truth: np.ndarray | None, *, x0: np.ndarray, p: float, weight: float
    ) -> None:
        self.theta = theta
        self.truth = truth is not None
        self.records = LogTable(STEP_DTYPE, partial(_record, theta, self.truth))
        self.outer = LogTable(OUTER_DTYPE, _outer_record)
        self._steps: list[tuple] = []
        self._loops: list[tuple] = []
        self._shifts = None
        if truth is not None:
            shift = truth - x0
            tiles = (RECORD_BLOCK, 1)
            self._truth_tiles = tuple(np.tile(a, tiles) for a in (shift, np.abs(shift) ** p))
            self._shifts = np.empty((RECORD_BLOCK, x0.size))
            self._x0, self._p, self._weight = x0, p, weight

    def add_step(self, row: tuple, z: np.ndarray) -> None:
        """Add a STEP_DTYPE row, its d2 a placeholder, of the step at iterate z."""
        rows = self._steps
        if self._shifts is not None:
            np.subtract(z, self._x0, out=self._shifts[len(rows)])
        rows.append(row)
        if len(rows) == RECORD_BLOCK:
            self._pack_steps()

    def add_outer(self, row: tuple) -> None:
        """Add (n, r_n, alpha_start, allowance, steps, alpha_end, inner_reason, f_residual_stop).

        An inner reason outside INNER_REASONS raises ``ValueError``.
        """
        *head, inner_reason, f_stop = row
        rows = self._loops
        rows.append((*head, INNER_REASONS.index(inner_reason), f_stop))
        if len(rows) == RECORD_BLOCK:
            self._pack_outer()

    def close(self) -> None:
        """Pack the rows still waiting and release the step buffers."""
        self._pack_steps()
        self._pack_outer()
        self._shifts = self._truth_tiles = self._x0 = None

    def _pack_steps(self) -> None:
        rows = self._steps
        if rows:
            block = np.array(rows, dtype=STEP_DTYPE)
            if self._shifts is not None:
                m = len(rows)
                shift, shift_pow = self._truth_tiles
                block["d2"] = bregman_values(
                    shift[:m], shift_pow[:m], self._shifts[:m], self._p, self._weight
                )
            self.records._append(block)
            rows.clear()

    def _pack_outer(self) -> None:
        rows = self._loops
        if rows:
            self.outer._append(np.array(rows, dtype=OUTER_DTYPE))
            rows.clear()

    @property
    def total_inner(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        """One STEP_DTYPE field of every step, in step order."""
        return self.records.column(name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IterationLog):
            return NotImplemented
        return (
            (self.theta, self.truth) == (other.theta, other.truth)
            and self.records == other.records
            and self.outer == other.outer
        )


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


def refinement_threshold(r_n: float, config: SolverConfig) -> float:
    """Rate-mode target c_alpha * (r_n + delta)^(r/(1+theta)) for alpha."""
    exponent = config.space.r / (1.0 + config.theta)
    return config.c_alpha * _pow(r_n + config.delta, exponent)


def run(
    problem: EllipticProblem,
    data: GridFunction,
    config: SolverConfig,
    x0: GridFunction | None = None,
    truth: GridFunction | None = None,
) -> RunResult:
    """Run the full two-loop iteration from x0 (zero when not given).

    x0 is both the starting iterate and the reference point of the
    duality maps and the alpha penalty.

    Failures (singular operator, non-finite iterate or state, exhausted
    refinement) are reported through ``RunResult.reason``, not raised;
    budget exhaustion likewise. Inputs on a grid other than
    ``problem.grid`` raise :class:`GridMismatchError`. ``truth`` switches
    on the Bregman diagnostics in the log.

    The inner loop carries the dual iterate of z as w = base_dual + u_dual:
    since z is constructed as x0 + J_p^{-1}(w), the term J_p(z - x0) of the
    update equals w exactly, so no pow round trip is needed. A step is kept
    only if the norm t of its new linearized residual is finite, which also
    vouches for the new iterate. Every step but a loop's first opens with
    the nonlinear residual check of its z, logged in its row; a non-finite
    norm of it fails the run as a non-finite state. Each exit sets the
    loop's and the run's reason where it happens, and leaves both loops for
    one exit, which closes the log, so every step and outer loop is in it.
    """
    for name, f in (("data", data), ("x0", x0), ("truth", truth)):
        if f is not None and f.grid != problem.grid:
            raise GridMismatchError(f"{name} sampled on a different grid")
    if x0 is None:
        x0 = GridFunction.zeros(problem.grid)
    x = x0
    sp = config.space
    r, p_star, theta = sp.r, sp.p_star, config.theta
    delta = config.delta
    # the discrepancy principle: stop at ||F(x) - y||_r <= tau * delta
    stop_level = config.tau * delta
    weight = problem.grid.cell_volume
    x0_values, data_values = x0.values, data.values
    vartheta = config.vartheta
    log = IterationLog(
        theta, None if truth is None else truth.values, x0=x0_values, p=sp.p, weight=weight
    )
    rate_active = config.rate_mode and theta > 0.0
    # rate mode runs every loop to its full allowance; with exact data the
    # residual test can never fire, so skip the extra forward solves too
    check_residual = not rate_active and stop_level > 0.0
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
        # once per loop, off the inner step: a sum that overflows rescales
        r_n = lp_norm_values_quiet(resid0, r, weight)

        # in rate mode the loop at the stopping index refines alpha first
        refining = r_n <= stop_level
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
            log.add_outer((n, r_n, alpha, 0, 0, alpha, reason, math.nan))
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
        # NaN in the log: the loop did not stop on the residual check
        f_stop = math.nan
        while True:
            if refining and alpha <= threshold:
                inner_reason = "refinement"
                reason = REASON_DISCREPANCY
                break
            if k >= allowance:
                if refining:
                    inner_reason = "refinement aborted"
                    reason = (
                        f"failure: refinement budget exhausted (alpha={alpha:g} > "
                        f"threshold={threshold:g} after {k} steps)"
                    )
                else:
                    inner_reason = "budget"
                break
            # the residual check of z_{n,k}, logged with step k; NaN if none ran
            f_residual = math.nan
            if check_residual and k > 0:
                try:
                    f_val = state_values(problem, z)
                except SingularOperatorError as exc:
                    reason = f"failure: {exc} (iterate n={n}, k={k})"
                    break
                applies += 1
                f_residual = lp_norm_values(f_val - data_values, r, weight)
                # as for t_next below: inf or NaN exactly when F(z) - y holds one
                if not math.isfinite(f_residual):
                    reason = f"failure: {NON_FINITE_STATE} (iterate n={n}, k={k})"
                    break
                if f_residual <= stop_level:
                    f_stop = f_residual
                    inner_reason = "inner discrepancy"
                    break
            if (
                config.max_total_inner is not None
                and total_inner >= config.max_total_inner
            ):
                reason = REASON_TOTAL_INNER
                inner_reason = "aborted: " + reason
                break
            gradient = adjoint_values(ev, duality_map_values(resid, r))
            t_tilde = lp_norm_values(gradient, p_star, weight)
            omega, degenerate = choose_omega(t, t_tilde, vartheta, config.omega_bar, sp)
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
                reason = f"failure: non-finite iterate or residual (iterate n={n}, k={k})"
                break
            # the record holds the state of z_{n,k}, before the update; the
            # log writes its d2 when it packs the step's block
            row = (n, k, t, t_tilde, omega, alpha, r_n, f_residual, math.nan, degenerate, refining)
            log.add_step(row, z)
            u_dual, w, z, resid, t = u_next, w_next, z_next, resid_next, t_next
            alpha = next_alpha(
                alpha_check(t, r_n, delta, config.eta, config.tau_tilde, r, theta),
                alpha_hat(alpha, config.q, theta),
            )
            k += 1
            total_inner += 1

        if k > 0:
            # the guard on t_next has vouched for z, which no one else holds
            x = GridFunction._adopt(problem.grid, z)
        if inner_reason is None:
            break  # a failed step: the loop has no outer record
        log.add_outer((n, r_n, alpha_start, allowance, k, alpha, inner_reason, f_stop))
        if reason is not None:
            break
        n += 1

    log.close()
    return RunResult(x, reason, n, log, alpha, applies)
