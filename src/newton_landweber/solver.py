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
stores only what the loop computed, once: a value it did not compute is NaN.
``run`` hands the :class:`IterationLog` each row as its fields, to one of
its two tables, ``log.records`` of the steps and ``log.outer`` of the outer
loops. Each table packs itself, RECORD_BLOCK = 32 rows to a numpy array, of
STEP_DTYPE (73 bytes a step) and OUTER_DTYPE (41 bytes a loop), both built
from the record fields. The Bregman diagnostic
d2 = D_p(truth - x0, z_{n,k} - x0), which steers nothing, is the log's:
``run`` builds one :class:`BregmanPass`, the log copies each iterate into
it and calls it on each block of steps it packs; the pass computes in
buffers it owns for the run, which the log frees when it closes. gamma =
d2 alpha^-theta and degenerate = (t_tilde == 0) are not stored: a step's
record derives them as it is read. Nor is a loop's first weight, the
previous loop's alpha_end, or the residual it stopped on, the next loop's
r_n. Both tables are read-only sequences that build :class:`IterationRecord`
and :class:`OuterRecord` tuples one at a time on access. Every way out of
the loops (the discrepancy principle, a budget, the refinement, a failure)
goes through one exit that closes the log, which packs the rows still
queued, so every step and every finished outer loop is in the log.
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
# one Bregman pass; the fastest of 8, 16, 32 and 64 at 401 cells, where each
# of a pass's four planes takes 100 KB (200 KB at 64)
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
    without gamma and degenerate, and builds a record from its row each time
    ``log.records`` is read: a field the step did not compute reads None,
    gamma is derived from d2 and alpha, and degenerate is t_tilde == 0. A
    named tuple is immutable and built without a setattr per field.
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

    As with the steps, the log keeps a packed row per loop, 41 bytes, and
    builds the record from it each time ``log.outer`` is read. alpha carries
    over: loop n starts at the ``alpha_end`` of loop n-1 (loop 0 at alpha00),
    and a loop of no steps ends there. After an "inner discrepancy" stop,
    the next loop's ``r_n`` is the residual the check stopped on.
    """

    n: int
    r_n: float
    allowance: int
    steps: int
    alpha_end: float
    inner_reason: str


# the column type of each record field that is not a float64, which holds
# every Python float the loop makes exactly; an inner reason is stored as
# its index in INNER_REASONS
_COLUMN_TYPES = {
    **dict.fromkeys(("n", "k", "allowance", "steps"), np.int64),
    "refinement": np.bool_,
    "inner_reason": np.int8,
}


def _row_dtype(fields) -> np.dtype:
    return np.dtype([(name, _COLUMN_TYPES.get(name, np.float64)) for name in fields])


# a row of the log per step holds the fields of IterationRecord but gamma
# and degenerate, 73 bytes packed. f_residual is NaN where no residual check
# ran (run() fails on a non-finite check before it logs one); d2 is NaN in a
# run without a truth, which the log knows, and where the Bregman sum
# overflows (inf - inf).
STEP_DTYPE = _row_dtype(f for f in IterationRecord._fields if f not in ("gamma", "degenerate"))

# a row per outer loop holds the fields of OuterRecord, 41 bytes packed
OUTER_DTYPE = _row_dtype(OuterRecord._fields)


def _record(theta: float, truth: bool, row: tuple) -> IterationRecord:
    """The record of one STEP_DTYPE row, given as a tuple of Python scalars.

    d2 and gamma read None in a run without a truth. gamma is derived per
    record in Python float arithmetic: numpy's array power may differ from
    C pow in the last bit. degenerate is t_tilde == 0, as in ``choose_omega``.
    """
    n, k, t, t_tilde, omega, alpha, r_n, f_residual, d2, refinement = row
    if not truth:
        d2 = gamma = None
    elif theta == 0.0:
        gamma = d2
    else:
        gamma = d2 * alpha**-theta if alpha > 0 else None
    return IterationRecord(
        n, k, t, t_tilde, omega, alpha, r_n,
        None if f_residual != f_residual else f_residual,  # NaN: no check ran
        d2, gamma, t_tilde == 0.0, refinement,
    )


def _outer_record(row: tuple) -> OuterRecord:
    """The record of one OUTER_DTYPE row, given as a tuple of Python scalars."""
    *head, reason = row
    return OuterRecord(*head, INNER_REASONS[reason])


class LogTable(Sequence):
    """One table of a log: rows packed in numpy blocks, read as records.

    ``add`` queues a row and packs RECORD_BLOCK of them into a block of the
    table's dtype, ``pack`` the rest into a last one, so every block but
    the last is full and an index finds its block by division. Both return
    the block they packed, or None, so the caller can fill columns of it.
    Only packed rows are read: each record is built from its row by
    ``decode`` when it is read, and none is kept. Two tables are equal when
    their packed rows agree bit for bit.
    """

    __slots__ = ("_dtype", "_decode", "_rows", "_blocks")

    def __init__(self, dtype: np.dtype, decode) -> None:
        self._dtype = dtype
        self._decode = decode
        self._rows: list[tuple] = []
        self._blocks: list[np.ndarray] = []

    def add(self, row: tuple) -> np.ndarray | None:
        """Queue one row of the table's fields; a full queue is packed."""
        self._rows.append(row)
        return self.pack() if len(self._rows) == RECORD_BLOCK else None

    def pack(self) -> np.ndarray | None:
        """Pack the queued rows, if any, into the next block, and return it."""
        rows = self._rows
        if not rows:
            return None
        block = np.array(rows, dtype=self._dtype)
        self._blocks.append(block)
        rows.clear()
        return block

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
        dtype = self._dtype[name]  # KeyError for an unknown name, packed or not
        if not self._blocks:
            return np.empty(0, dtype)
        return np.concatenate([block[name] for block in self._blocks])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogTable):
            return NotImplemented
        a, b = self._blocks, other._blocks
        return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


class BregmanPass:
    """The d2 pass of an :class:`IterationLog`, built once per run.

    ``keep(z)`` copies an iterate z into the next of RECORD_BLOCK rows, and
    calling the pass gives D_p(truth - x0, z - x0) for each row kept since
    the last call, one ``bregman_values`` pass over their shifts against
    truth - x0 and its |.|^p, and starts over. The pass owns one
    (4, RECORD_BLOCK, n) array, allocated here: the kept iterates in its
    first plane and the ``work`` of ``bregman_values`` in the other three,
    so a block allocates only its distances. A call reads only the rows
    kept since the last, so a shorter last block reads no stale row, and
    no kept row changes when its iterate is written.
    """

    def __init__(self, truth: np.ndarray, x0: np.ndarray, p: float, weight: float) -> None:
        self._shift = shift = truth - x0
        self._shift_pow = np.abs(shift) ** p
        self._x0, self._p, self._weight = x0, p, weight
        self._planes = np.empty((4, RECORD_BLOCK, shift.size))
        self._kept = 0

    def keep(self, z: np.ndarray) -> None:
        """Copy z into the next row; more than RECORD_BLOCK raise ``IndexError``."""
        self._planes[0, self._kept] = z
        self._kept += 1

    def __call__(self) -> np.ndarray:
        shifts, *work = self._planes[:, : self._kept]
        self._kept = 0
        shifts -= self._x0
        return bregman_values(self._shift, self._shift_pow, shifts, self._p, self._weight, work)


class IterationLog:
    """The steps and outer loops of one run, in execution order.

    Two :class:`LogTable` sequences: ``records``, a STEP_DTYPE row per step
    read as :class:`IterationRecord` tuples, and ``outer``, an OUTER_DTYPE
    row per outer loop read as :class:`OuterRecord` tuples. A row holds
    only what the loop computed, NaN for a value it did not compute, which
    its record reads as None. gamma is derived from d2 as a step record is
    read, so the log is told the run's ``theta``. Two logs are equal when
    they were told the same theta, both or neither were given a Bregman
    pass, and the rows of both tables agree bit for bit.

    The run adds its rows field by field with ``add_step`` and
    ``add_outer``; ``close`` packs the rows still queued and drops the d2
    pass, which frees its buffers. ``bregman`` is the run's
    :class:`BregmanPass`, None in a run without a truth, where d2 and gamma
    read None; ``truth`` reads whether one was given. ``add_step`` copies
    the step's iterate into the pass, and each block of steps that
    ``records`` packs gets its d2 column from one call of the pass, so the
    log holds no iterate and the caller may write z once it is logged.
    """

    def __init__(self, theta: float, bregman: BregmanPass | None = None) -> None:
        self.theta = theta
        self.truth = bregman is not None
        self._bregman = bregman
        self.records = LogTable(STEP_DTYPE, partial(_record, theta, self.truth))
        self.outer = LogTable(OUTER_DTYPE, _outer_record)

    def add_step(self, n, k, t, t_tilde, omega, alpha, r_n, f_residual, refinement, z) -> None:
        """Add the step at iterate z; f_residual is NaN where no check ran."""
        if self._bregman is not None:
            self._bregman.keep(z)
        row = (n, k, t, t_tilde, omega, alpha, r_n, f_residual, math.nan, refinement)
        self._fill_d2(self.records.add(row))

    def add_outer(self, n, r_n, allowance, steps, alpha_end, inner_reason: str) -> None:
        """Add one outer loop; an inner reason outside INNER_REASONS raises ``ValueError``."""
        self.outer.add((n, r_n, allowance, steps, alpha_end, INNER_REASONS.index(inner_reason)))

    def _fill_d2(self, block: np.ndarray | None) -> None:
        if block is not None and self._bregman is not None:
            block["d2"] = self._bregman()

    def close(self) -> None:
        """Pack the rows still queued and free the d2 pass."""
        self._fill_d2(self.records.pack())
        self.outer.pack()
        self._bregman = None

    @property
    def total_inner(self) -> int:
        return len(self.records)

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


@np.errstate(over="ignore", invalid="ignore")
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

    numpy's overflow and invalid-value warnings are off for the whole
    call, whatever the caller's filter: each value they would flag reaches
    a scalar guard, which reports it in the reason.

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
        theta, None if truth is None else BregmanPass(truth.values, x0_values, sp.p, weight)
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
        r_n = lp_norm_values(resid0, r, weight)

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
            log.add_outer(n, r_n, 0, 0, alpha, reason)
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
        k = 0
        inner_reason = None
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
            omega = choose_omega(t, t_tilde, vartheta, config.omega_bar, sp)
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
            # the record holds the state of z_{n,k}, before the update
            log.add_step(n, k, t, t_tilde, omega, alpha, r_n, f_residual, refining, z)
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
        log.add_outer(n, r_n, allowance, k, alpha, inner_reason)
        if reason is not None:
            break
        n += 1

    log.close()
    return RunResult(x, reason, n, log, alpha, applies)
