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

``solve_state`` is the one checked path to the state: it factorizes A(c),
scans the state once, rejects a non-finite one with
:class:`SingularOperatorError`, and returns a :class:`ForwardEvaluation`
``(u, solve, neg_u)`` whose ``u`` adopts the solve's array without a second
scan or a copy. ``forward(problem, c)`` is its ``u``. ``state_values`` is F
on raw values and the solver's per-step residual check: a pure solve that
keeps no factorization and makes no finiteness pass, as the solver tests
the norm of the residual instead.

:class:`EllipticProblem` ``(grid, f, g)`` is the one problem constructor in
either dimension: the source f is a callable or a :class:`GridFunction`,
and the Dirichlet data g is a callable with one coordinate per axis, such
as the exact state. Each problem builds one operator for its dimension,
once; no solve path branches on the dimension after that. The operator
holds the c-independent pieces of A(c), samples g on the boundary (at 0
and 1 in dim 1, at the cell centres of the four edges in dim 2) and
eliminates the ghosts into the right-hand side, and offers
``factorize(c)``, which returns a solve, and ``state(c, rhs)``, a one-shot
solve that keeps nothing. In dim 1 the operator is tridiagonal:
``factorize`` is ``dgttrf`` with a ``dgttrs`` closure, and ``state`` one
``dgtsv`` call, which gives the same bits. In dim 2 it is the five-point
stencil, kept as the CSC pattern of A(c) so that an assembly only writes
the diagonal, and both go through ``splu``. ``scipy.sparse`` is imported
with the first 2D problem, so 1D runs never load it.

The 1D path loads only scipy's compiled LAPACK extension,
``scipy.linalg._flapack``, from its file. Importing ``scipy.linalg`` would
run the package's ``__init__``, which loads ``numpy.f2py``,
``numpy.testing`` and more: about 0.3 s of each cold start, for three
routines. ``scipy.linalg.lapack`` re-exports this extension, so
``dgttrf``, ``dgttrs`` and ``dgtsv`` are the same function objects either
way, and the 1D solves keep their bits.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .grids import Grid, GridFunction, GridMismatchError

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "EllipticProblem",
    "ForwardEvaluation",
    "SingularOperatorError",
    "solve_state",
    "forward",
    "derivative_apply",
    "adjoint_apply",
    "state_values",
    "derivative_values",
    "adjoint_values",
]


def _load_flapack():
    """scipy's compiled LAPACK extension, without scipy.linalg's ``__init__``.

    ``scipy.linalg.lapack`` re-exports this module's routines, so they are
    the same function objects. The module is registered under its own name,
    so a later ``import scipy.linalg`` reuses it, as this loader reuses
    one that scipy.linalg has loaded.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy_spec = find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    paths = [
        Path(root, "linalg", "_flapack" + suffix)
        for root in scipy_spec.submodule_search_locations
        for suffix in EXTENSION_SUFFIXES
    ]
    path = next((str(p) for p in paths if p.is_file()), None)
    if path is None:
        tried = ", ".join(map(str, paths))
        raise ImportError(f"scipy's LAPACK extension not found (tried {tried})", name=name)
    spec = spec_from_file_location(name, path, loader=ExtensionFileLoader(name, path))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


lapack = _load_flapack()


class SingularOperatorError(RuntimeError):
    """A(c) could not be factorized (or produced a non-finite solve)."""


# the failure text of a non-finite state, in SingularOperatorError and in run()
NON_FINITE_STATE = "operator not invertible at c (non-finite state)"


def _singular_tridiagonal(info: int) -> SingularOperatorError:
    return SingularOperatorError(
        f"operator not invertible at c (tridiagonal factorization info={info})"
    )


class _TridiagonalOperator:
    """A(c) in dim 1: a fixed off-diagonal -1/h^2 and the diagonal 2/h^2 + c.

    Ghost elimination adds 1/h^2 to the first and last diagonal entries.
    """

    def __init__(self, grid: Grid) -> None:
        # scipy's dgttrf wrapper raises ValueError on 2 unknowns, so a run
        # on 2 cells would fail in its first state solve
        if grid.size < 3:
            raise ValueError(f"a 1D problem needs at least 3 cells, got {grid.size}")
        (h,) = grid.spacing
        self.grid = grid
        self.inv_h2 = 1.0 / h**2
        self.off_diagonal = np.full(grid.size - 1, -1.0 / h**2)
        self.off_diagonal.setflags(write=False)

    def boundary_terms(self, g: Callable) -> np.ndarray:
        """The right-hand side terms of the traces g(0) and g(1)."""
        (h,) = self.grid.spacing
        b = np.zeros(self.grid.size)
        b[0] += 2.0 * g(0.0) / h**2
        b[-1] += 2.0 * g(1.0) / h**2
        return b

    def diagonal(self, c: np.ndarray) -> np.ndarray:
        """Main diagonal of A(c), a fresh array."""
        inv_h2 = self.inv_h2
        diag = 2.0 * inv_h2 + c  # 2 * (1/h^2) is 2/h^2 bit for bit
        diag[0] += inv_h2
        diag[-1] += inv_h2
        return diag

    def factorize(self, c: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        off = self.off_diagonal
        dl, d, du, du2, ipiv, info = lapack.dgttrf(off, self.diagonal(c), off)
        if info != 0:
            raise _singular_tridiagonal(info)

        def solve(b: np.ndarray) -> np.ndarray:
            x, info = lapack.dgttrs(dl, d, du, du2, ipiv, b)
            if info != 0:
                raise SingularOperatorError(f"tridiagonal solve failed (info={info})")
            return x

        return solve

    def state(self, c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """A(c)^{-1} rhs in one ``dgtsv`` call, with the bits of ``factorize``.

        ``dgtsv`` eliminates with the same pivots and operations as the
        ``dgttrf`` + ``dgttrs`` pair.
        """
        off = self.off_diagonal
        _, _, _, u, info = lapack.dgtsv(off, self.diagonal(c), off, rhs, overwrite_d=1)
        if info != 0:
            raise _singular_tridiagonal(info)
        return u


class _FivePointOperator:
    """A(c) in dim 2: the five-point stencil with ghost-eliminated edges, plus c.

    Holds the CSC pattern of stencil + I, the index in its data array of
    each diagonal entry (column order) and the stencil's own diagonal.
    """

    def __init__(self, grid: Grid) -> None:
        import scipy.sparse as sp

        nx, ny = grid.cells
        hx, hy = grid.spacing

        def second_difference(n: int, h: float) -> sp.csr_matrix:
            d = np.full(n, 2.0)
            d[0] = d[-1] = 3.0  # ghost elimination
            return sp.diags([d, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]) / h**2

        tx = second_difference(nx, hx)
        ty = second_difference(ny, hy)
        stencil = (sp.kron(sp.identity(ny), tx) + sp.kron(ty, sp.identity(nx))).tocsr()
        pattern = (stencil + sp.identity(grid.size, format="csr")).tocsc()
        # the indices of a CSC matrix from tocsc are sorted, one diagonal per column
        columns = np.repeat(np.arange(grid.size), np.diff(pattern.indptr))
        slots = np.flatnonzero(pattern.indices == columns)
        stencil_diagonal = stencil.diagonal()
        # every assembly shares these arrays
        for a in (pattern.data, pattern.indices, pattern.indptr, slots, stencil_diagonal):
            a.setflags(write=False)
        self.grid = grid
        self.pattern = pattern
        self.diagonal_slots = slots
        self.stencil_diagonal = stencil_diagonal

    def boundary_terms(self, g: Callable) -> np.ndarray:
        """The right-hand side terms of g at the cell centres of the four edges.

        A scalar g broadcasts along its edge.
        """
        x = self.grid.axis_coords(0)
        y = self.grid.axis_coords(1)
        hx, hy = self.grid.spacing
        b = np.zeros((y.size, x.size))
        b[:, 0] += 2.0 * g(np.zeros_like(y), y) / hx**2
        b[:, -1] += 2.0 * g(np.ones_like(y), y) / hx**2
        b[0, :] += 2.0 * g(x, np.zeros_like(x)) / hy**2
        b[-1, :] += 2.0 * g(x, np.ones_like(x)) / hy**2
        return b.ravel()

    def matrix(self, c: np.ndarray) -> sp.csc_matrix:
        """A(c), with the bits of ``(stencil + diags(c)).tocsc()``.

        stencil_ii + c_i goes into the diagonal slots of a copy of the
        pattern's data. The sum of sparse matrices drops an entry that cancels
        to an exact zero, so when a diagonal entry is zero ``eliminate_zeros``
        does too, on copies of the index arrays, which it compacts in place.
        """
        import scipy.sparse as sp

        pattern = self.pattern
        diagonal = self.stencil_diagonal + c
        data = pattern.data.copy()
        data[self.diagonal_slots] = diagonal
        if diagonal.all():
            return sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)
        a = sp.csc_matrix(
            (data, pattern.indices.copy(), pattern.indptr.copy()), shape=pattern.shape
        )
        a.eliminate_zeros()
        return a

    def factorize(self, c: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        from scipy.sparse.linalg import splu

        try:
            lu = splu(self.matrix(c))
        except RuntimeError as exc:
            raise SingularOperatorError(
                f"operator not invertible at c (sparse factorization: {exc})"
            ) from exc
        return lu.solve

    def state(self, c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self.factorize(c)(rhs)


@dataclass(frozen=True)
class EllipticProblem:
    """The state equation -Laplace(u) + c u = f on (0,1)^dim with trace u = g.

    ``rhs`` is f, a :class:`GridFunction` on ``grid`` or a callable that is
    sampled at the cell centres. ``boundary`` is the Dirichlet data g, a
    callable with one coordinate per axis; the operator samples it once.
    ``boundary_rhs`` is the eliminated-ghost contribution to the right-hand
    side. It, the summed right-hand side ``rhs + boundary_rhs`` and the
    operator A(c) of the grid's dimension are fixed once per problem.
    """

    grid: Grid
    rhs: GridFunction | Callable
    boundary: Callable
    boundary_rhs: np.ndarray = field(init=False, repr=False, compare=False)
    _state_rhs: np.ndarray = field(init=False, repr=False, compare=False)
    _operator: _TridiagonalOperator | _FivePointOperator = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.rhs, GridFunction):
            object.__setattr__(self, "rhs", GridFunction.from_callable(self.grid, self.rhs))
        if self.rhs.grid != self.grid:
            raise GridMismatchError("rhs sampled on a different grid")
        # the one branch on the dimension
        operator_type = _TridiagonalOperator if self.grid.dim == 1 else _FivePointOperator
        operator = operator_type(self.grid)
        b = operator.boundary_terms(self.boundary)
        b.setflags(write=False)
        state_rhs = self.rhs.values + b
        state_rhs.setflags(write=False)
        object.__setattr__(self, "boundary_rhs", b)
        object.__setattr__(self, "_state_rhs", state_rhs)
        object.__setattr__(self, "_operator", operator)


class ForwardEvaluation(NamedTuple):
    """The linearization of F at c: ``(u, solve, neg_u)``.

    ``u`` is the finite state F(c), whose grid the wrappers check against.
    ``solve`` is the factorization's own A(c)^{-1} on raw vectors (homogeneous
    boundary data): the ``dgttrs`` closure in dim 1, ``lu.solve`` in dim 2.
    ``neg_u`` is -u(c), held once so that the adjoint is a single multiply.
    """

    u: GridFunction
    solve: Callable[[np.ndarray], np.ndarray]
    neg_u: np.ndarray


def state_values(problem: EllipticProblem, c: np.ndarray) -> np.ndarray:
    """F(c) on raw values: a pure solve, with no grid or finiteness check.

    No factorization is kept; in dim 1 this is one ``dgtsv`` call, with the
    bits of the state of :func:`solve_state`. Raises
    :class:`SingularOperatorError` when the factorization fails; a non-finite
    state is returned as it is, for the caller to test (``run`` tests the
    norm of its residual).
    """
    return problem._operator.state(c, problem._state_rhs)


def solve_state(problem: EllipticProblem, c: GridFunction) -> ForwardEvaluation:
    """Factorize A(c) and solve for the state; factorization is kept for reuse.

    Raises :class:`SingularOperatorError` when A(c) is not invertible, which
    can happen for strongly negative c, or when the state is not finite. No
    clipping or projection is applied.
    """
    if c.grid != problem.grid:
        raise GridMismatchError("coefficient sampled on a different grid")
    solve = problem._operator.factorize(c.values)
    u = solve(problem._state_rhs)
    if not np.isfinite(u).all():
        raise SingularOperatorError(NON_FINITE_STATE)
    return ForwardEvaluation(GridFunction._adopt(problem.grid, u), solve, -u)


def forward(problem: EllipticProblem, c: GridFunction) -> GridFunction:
    """The coefficient-to-state map F(c): the state of :func:`solve_state`."""
    return solve_state(problem, c).u


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
    ev.u._check(h)
    return GridFunction(ev.u.grid, derivative_values(ev, h.values))


def adjoint_apply(ev: ForwardEvaluation, w: GridFunction) -> GridFunction:
    """Adjoint F'(c)* w = -u(c) * A(c)^{-1} w under the uniform-weight pairing."""
    ev.u._check(w)
    return GridFunction(ev.u.grid, adjoint_values(ev, w.values))
