"""Forward operator for coefficient identification in -Laplace(u) + c*u = f.

Dirichlet data enters through ghost-cell elimination on the cell-centered
grid: the boundary value is the average of the first interior value and a
ghost value, so eliminating the ghost adds 1/h^2 to the first/last diagonal
entries and 2*g/h^2 to the right-hand side. The resulting matrix A(c) stays
symmetric, affine functions remain in the stencil kernel, and the scheme is
globally second order.

The coefficient-to-state map is F(c) = u(c) with A(c) u = f + boundary terms.
Its derivative and adjoint (with respect to the uniform-weight pairing) are

    F'(c) h  = -A(c)^{-1} (h * u(c)),
    F'(c)* w = -u(c) * A(c)^{-1} w,

both exact at the discrete level because A(c) is symmetric and the quadrature
weights are uniform. One factorization of A(c) serves all derivative/adjoint
applications at that c. Both formulas are written once, as kernels on raw
values (``derivative_values``/``adjoint_values``); ``derivative_apply`` and
``adjoint_apply`` add the grid check and the :class:`GridFunction` wrapping.

``state_values`` is F on raw values: it solves for the state, rejects a
non-finite one, and keeps no factorization. It is the solver's per-step
residual check. In dim 1 it factors and solves in one ``dgtsv`` call, which
gives the bits of the ``dgttrf`` + ``dgttrs`` pair that ``solve_state`` keeps
for reuse; both build the diagonal in one helper. In dim 2 both take the one
sparse factorize/solve/check path. The c-independent pieces of A(c) and the
summed right-hand side are built once per :class:`EllipticProblem`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .grids import Grid, GridFunction, GridMismatchError

__all__ = [
    "EllipticProblem",
    "ForwardEvaluation",
    "SingularOperatorError",
    "interval_problem",
    "square_problem",
    "solve_state",
    "forward",
    "derivative_apply",
    "adjoint_apply",
    "state_values",
    "derivative_values",
    "adjoint_values",
]


class SingularOperatorError(RuntimeError):
    """A(c) could not be factorized (or produced a non-finite solve)."""


@dataclass(frozen=True)
class EllipticProblem:
    """Geometry, source term and Dirichlet data of the state equation.

    ``boundary`` is (g0, g1) for dim 1; for dim 2 a tuple of four arrays
    (left, right, bottom, top) holding the trace sampled at the cell centers
    of each edge. ``boundary_rhs`` is the eliminated-ghost contribution to the
    right-hand side. It, the summed right-hand side ``rhs + boundary_rhs`` and
    the c-independent part of A(c) (the off-diagonal and 1/h^2 in dim 1, the
    five-point stencil in dim 2) are fixed once per problem.
    """

    grid: Grid
    rhs: GridFunction
    boundary: tuple
    boundary_rhs: np.ndarray = field(init=False, repr=False, compare=False)
    _state_rhs: np.ndarray = field(init=False, repr=False, compare=False)
    _off_diagonal: np.ndarray | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _inv_h2: float = field(init=False, repr=False, compare=False, default=0.0)
    _stencil: sp.csr_matrix | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.rhs.grid != self.grid:
            raise GridMismatchError("rhs sampled on a different grid")
        if self.grid.dim == 1:
            g0, g1 = (float(v) for v in self.boundary)
            object.__setattr__(self, "boundary", (g0, g1))
            (h,) = self.grid.spacing
            b = np.zeros(self.grid.size)
            b[0] += 2.0 * g0 / h**2
            b[-1] += 2.0 * g1 / h**2
            off = np.full(self.grid.size - 1, -1.0 / h**2)
            off.setflags(write=False)
            object.__setattr__(self, "_off_diagonal", off)
            object.__setattr__(self, "_inv_h2", 1.0 / h**2)
        else:
            nx, ny = self.grid.cells
            hx, hy = self.grid.spacing
            left, right, bottom, top = (
                np.array(a, dtype=float) for a in self.boundary
            )
            if left.shape != (ny,) or right.shape != (ny,):
                raise ValueError(f"left/right traces must have length {ny}")
            if bottom.shape != (nx,) or top.shape != (nx,):
                raise ValueError(f"bottom/top traces must have length {nx}")
            for a in (left, right, bottom, top):
                a.setflags(write=False)
            object.__setattr__(self, "boundary", (left, right, bottom, top))
            b = np.zeros((ny, nx))
            b[:, 0] += 2.0 * left / hx**2
            b[:, -1] += 2.0 * right / hx**2
            b[0, :] += 2.0 * bottom / hy**2
            b[-1, :] += 2.0 * top / hy**2
            b = b.ravel()
            object.__setattr__(self, "_stencil", _five_point_stencil(self.grid))
        b.setflags(write=False)
        object.__setattr__(self, "boundary_rhs", b)
        state_rhs = self.rhs.values + b
        state_rhs.setflags(write=False)
        object.__setattr__(self, "_state_rhs", state_rhs)


def _five_point_stencil(grid: Grid) -> sp.csr_matrix:
    """c-independent part of A(c) for dim 2, with ghost-eliminated edges."""
    nx, ny = grid.cells
    hx, hy = grid.spacing

    def second_difference(n: int, h: float) -> sp.csr_matrix:
        d = np.full(n, 2.0)
        d[0] = d[-1] = 3.0  # ghost elimination
        return sp.diags([d, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]) / h**2

    tx = second_difference(nx, hx)
    ty = second_difference(ny, hy)
    return (sp.kron(sp.identity(ny), tx) + sp.kron(ty, sp.identity(nx))).tocsr()


def interval_problem(
    grid: Grid, f: Callable | GridFunction, g0: float, g1: float
) -> EllipticProblem:
    """State equation -u'' + c u = f on (0,1) with u(0) = g0, u(1) = g1."""
    if grid.dim != 1:
        raise ValueError("interval_problem needs a 1-d grid")
    if not isinstance(f, GridFunction):
        f = GridFunction.from_callable(grid, f)
    return EllipticProblem(grid, f, (g0, g1))


def square_problem(
    grid: Grid, f: Callable | GridFunction, g: Callable
) -> EllipticProblem:
    """State equation -Laplace(u) + c u = f on (0,1)^2 with trace u = g."""
    if grid.dim != 2:
        raise ValueError("square_problem needs a 2-d grid")
    if not isinstance(f, GridFunction):
        f = GridFunction.from_callable(grid, f)
    x = grid.axis_coords(0)
    y = grid.axis_coords(1)
    boundary = (
        g(np.zeros_like(y), y),
        g(np.ones_like(y), y),
        g(x, np.zeros_like(x)),
        g(x, np.ones_like(x)),
    )
    return EllipticProblem(grid, f, boundary)


@dataclass(frozen=True)
class ForwardEvaluation:
    """State u = F(c) together with a reusable factorization of A(c).

    ``solve`` is the factorization's own A(c)^{-1} on raw vectors (homogeneous
    boundary data): the ``dgttrs`` closure in dim 1, ``lu.solve`` in dim 2.
    """

    problem: EllipticProblem
    u: GridFunction
    solve: Callable[[np.ndarray], np.ndarray]
    neg_u: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # -u(c), held once so that the adjoint is a single multiply
        object.__setattr__(self, "neg_u", -self.u.values)


def _tridiagonal_diagonal(problem: EllipticProblem, c: np.ndarray) -> np.ndarray:
    """Main diagonal of A(c) in dim 1, a fresh array."""
    inv_h2 = problem._inv_h2
    diag = 2.0 * inv_h2 + c  # 2 * (1/h^2) is 2/h^2 bit for bit
    diag[0] += inv_h2
    diag[-1] += inv_h2
    return diag


def _singular_tridiagonal(info: int) -> SingularOperatorError:
    return SingularOperatorError(
        f"operator not invertible at c (tridiagonal factorization info={info})"
    )


def _finite_state(u: np.ndarray) -> np.ndarray:
    if not np.isfinite(u).all():
        raise SingularOperatorError("operator not invertible at c (non-finite state)")
    return u


def _factorize_tridiagonal(problem: EllipticProblem, c: np.ndarray):
    off = problem._off_diagonal
    dl, d, du, du2, ipiv, info = lapack.dgttrf(off, _tridiagonal_diagonal(problem, c), off)
    if info != 0:
        raise _singular_tridiagonal(info)

    def solve(b: np.ndarray) -> np.ndarray:
        x, info = lapack.dgttrs(dl, d, du, du2, ipiv, b)
        if info != 0:
            raise SingularOperatorError(f"tridiagonal solve failed (info={info})")
        return x

    return solve


def _factorize_sparse(problem: EllipticProblem, c: np.ndarray):
    a = (problem._stencil + sp.diags(c)).tocsc()
    try:
        lu = splu(a)
    except RuntimeError as exc:
        raise SingularOperatorError(
            f"operator not invertible at c (sparse factorization: {exc})"
        ) from exc
    return lu.solve


def _factorized_state(
    problem: EllipticProblem, c: np.ndarray
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """Factorize A(c) and solve for the state, rejecting a non-finite one."""
    if problem.grid.dim == 1:
        solve = _factorize_tridiagonal(problem, c)
    else:
        solve = _factorize_sparse(problem, c)
    return solve, _finite_state(solve(problem._state_rhs))


def state_values(problem: EllipticProblem, c: np.ndarray) -> np.ndarray:
    """F(c) on raw values, with no grid check; no factorization is kept.

    In dim 1 one ``dgtsv`` call factors A(c) and solves for the state. It
    eliminates with the same pivots and operations as the ``dgttrf`` +
    ``dgttrs`` pair of :func:`solve_state`, so the state has the same bits.
    Raises :class:`SingularOperatorError` as :func:`solve_state` does.
    """
    if problem.grid.dim != 1:
        return _factorized_state(problem, c)[1]
    off = problem._off_diagonal
    _, _, _, u, info = lapack.dgtsv(
        off, _tridiagonal_diagonal(problem, c), off, problem._state_rhs, overwrite_d=1
    )
    if info != 0:
        raise _singular_tridiagonal(info)
    return _finite_state(u)


def solve_state(problem: EllipticProblem, c: GridFunction) -> ForwardEvaluation:
    """Factorize A(c) and solve for the state; factorization is kept for reuse.

    Raises :class:`SingularOperatorError` when A(c) is not invertible, which
    can happen for strongly negative c. No clipping or projection is applied.
    """
    if c.grid != problem.grid:
        raise GridMismatchError("coefficient sampled on a different grid")
    solve, u = _factorized_state(problem, c.values)
    return ForwardEvaluation(problem, GridFunction(problem.grid, u), solve)


def forward(problem: EllipticProblem, c: GridFunction) -> GridFunction:
    """The coefficient-to-state map F(c)."""
    if c.grid != problem.grid:
        raise GridMismatchError("coefficient sampled on a different grid")
    return GridFunction(problem.grid, state_values(problem, c.values))


def derivative_values(
    ev: ForwardEvaluation, h: np.ndarray, base: np.ndarray | float = 0.0
) -> np.ndarray:
    """base + F'(c) h on raw values, with no grid check.

    F'(c) h = -A(c)^{-1}(h * u(c)), so the sum is computed as
    base - A(c)^{-1}(h * u(c)), which is base + (-A(c)^{-1}(h * u(c))) bit
    for bit. The solver passes the residual at c as ``base`` to get the
    linearized residual in one pass.
    """
    return base - ev.solve(h * ev.u.values)


def adjoint_values(ev: ForwardEvaluation, w: np.ndarray) -> np.ndarray:
    """F'(c)* w = -u(c) * A(c)^{-1} w on raw values, with no grid check."""
    return ev.neg_u * ev.solve(w)


def derivative_apply(ev: ForwardEvaluation, h: GridFunction) -> GridFunction:
    """Directional derivative F'(c) h = -A(c)^{-1}(h * u(c))."""
    if h.grid != ev.problem.grid:
        raise GridMismatchError("direction sampled on a different grid")
    return GridFunction(ev.problem.grid, derivative_values(ev, h.values))


def adjoint_apply(ev: ForwardEvaluation, w: GridFunction) -> GridFunction:
    """Adjoint F'(c)* w = -u(c) * A(c)^{-1} w under the uniform-weight pairing."""
    if w.grid != ev.problem.grid:
        raise GridMismatchError("argument sampled on a different grid")
    return GridFunction(ev.problem.grid, adjoint_values(ev, w.values))
