"""Forward map, derivative, adjoint, and discretization order."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

import newton_landweber
from newton_landweber import (
    EllipticProblem,
    Grid,
    GridFunction,
    GridMismatchError,
    SingularOperatorError,
    adjoint_apply,
    derivative_apply,
    forward,
    solve_state,
)
from newton_landweber.forward import NON_FINITE_STATE, state_values

# the package exports a function named forward that shadows the module
module_forward = importlib.import_module("newton_landweber.forward")


def test_affine_state_exact_1d():
    # u = 1 + 5t has zero second difference, and the ghost-cell elimination
    # is exact for affine data, so the discrete solve reproduces u exactly
    grid = Grid((80,))
    u = lambda t: 1.0 + 5.0 * t  # noqa: E731
    c = lambda t: 2.0 + np.sin(t)  # noqa: E731
    problem = EllipticProblem(grid, lambda t: c(t) * u(t), u)
    got = forward(problem, GridFunction.from_callable(grid, c))
    np.testing.assert_allclose(got.values, u(grid.axis_coords(0)), rtol=0, atol=1e-10)


def test_affine_state_exact_2d():
    grid = Grid((12, 12))
    u = lambda x, y: 1.0 + x + y  # noqa: E731
    c = lambda x, y: 1.0 + x * x * y  # noqa: E731
    problem = EllipticProblem(grid, lambda x, y: c(x, y) * u(x, y), u)
    cf = GridFunction.from_callable(grid, c)
    got = forward(problem, cf)
    xs, ys = grid.coords()
    np.testing.assert_allclose(got.values, u(xs, ys), rtol=0, atol=1e-10)


def test_scalar_dirichlet_data_broadcasts_along_the_edges():
    # g may return a scalar: it gives the bits of the array-valued g
    grid = Grid((9, 7))
    f = lambda x, y: 1.0 + x * y  # noqa: E731
    scalar = EllipticProblem(grid, f, lambda x, y: 1.0)
    array = EllipticProblem(grid, f, lambda x, y: 1.0 + 0.0 * x)
    assert scalar.boundary_rhs.tobytes() == array.boundary_rhs.tobytes()
    c = GridFunction.constant(grid, 1.0)
    assert forward(scalar, c).values.tobytes() == forward(array, c).values.tobytes()


def test_x_only_2d_problem_reproduces_1d_state():
    # c and f depend on x only, the left/right traces are g0/g1 and the
    # bottom/top traces are the 1D discrete state: then the 1D state solves
    # the 2D scheme in every row (the y differences vanish). F only: the
    # derivative is not y-invariant.
    g0, g1 = 1.0, 2.0
    c = lambda x: 1.0 + x * x  # noqa: E731
    f = lambda x: 2.0 + np.sin(3.0 * x)  # noqa: E731
    line = Grid((41,))
    u_line = forward(
        EllipticProblem(line, f, lambda t: g0 + (g1 - g0) * t),
        GridFunction.from_callable(line, c),
    ).values
    grid = Grid((41, 17))
    ny = grid.cells[1]
    # g0 and g1 at x = 0 and 1, the 1D state at the cell centres in x
    nodes = [0.0, *line.axis_coords(0), 1.0]
    trace = [g0, *u_line, g1]
    problem = EllipticProblem(
        grid, lambda x, y: f(x), lambda x, y: np.interp(x, nodes, trace)
    )
    got = forward(problem, GridFunction.from_callable(grid, lambda x, y: c(x)))
    rows = got.values.reshape(ny, -1)
    np.testing.assert_allclose(
        rows, np.broadcast_to(u_line, rows.shape), rtol=1e-13, atol=0
    )


def test_second_order_convergence():
    # non-polynomial solution: the midpoint scheme converges at O(h^2)
    u = lambda t: np.sin(np.pi * t)  # noqa: E731
    c = lambda t: 1.0 + t  # noqa: E731
    f = lambda t: np.pi**2 * np.sin(np.pi * t) + c(t) * u(t)  # noqa: E731
    errors = []
    for n in (32, 64):
        grid = Grid((n,))
        problem = EllipticProblem(grid, f, lambda t: 0.0)
        got = forward(problem, GridFunction.from_callable(grid, c))
        errors.append(np.max(np.abs(got.values - u(grid.axis_coords(0)))))
    ratio = errors[0] / errors[1]
    assert 3.4 < ratio < 4.6


def test_a_1d_problem_on_two_cells_is_rejected_when_built():
    # the tridiagonal kernels cannot take 2 unknowns; 2 x 2 cells in 2D can
    with pytest.raises(ValueError, match="at least 3 cells"):
        EllipticProblem(Grid((2,)), lambda t: 1.0, lambda t: t)
    EllipticProblem(Grid((2, 2)), lambda x, y: 1.0, lambda x, y: x + y)


def test_singular_operator_raises_1d():
    # c = -2/h^2 at the end cells makes the all-ones vector a null vector of
    # the discrete operator; all entries are integers so the zero pivot is hit
    # exactly during elimination
    grid = Grid((4,))
    problem = EllipticProblem(grid, lambda t: 1.0, lambda t: 0.0)
    c = GridFunction(grid, [-32.0, 0.0, 0.0, -32.0])
    with pytest.raises(SingularOperatorError):
        solve_state(problem, c)
    with pytest.raises(SingularOperatorError):
        state_values(problem, c.values)


def test_singular_operator_raises_2d():
    # cancelling the diagonal leaves the (singular) grid-adjacency matrix,
    # whose integer elimination hits an exact zero pivot
    grid = Grid((3, 3))
    problem = EllipticProblem(grid, lambda x, y: 1.0, lambda x, y: 0.0 * x)
    base = problem._operator.stencil_diagonal
    c = GridFunction(grid, -base)
    with pytest.raises(SingularOperatorError):
        solve_state(problem, c)
    with pytest.raises(SingularOperatorError):
        state_values(problem, c.values)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_forward_rejects_a_non_finite_state(monkeypatch, bad):
    # state_values is a pure solve that returns what it gets; solve_state and
    # forward() scan the state once and raise SingularOperatorError with the
    # non-finite-state text, in both dimensions, while GridFunction itself
    # keeps its own ValueError
    def poisoned(u):
        u = u.copy()
        u[1] = bad
        return u

    for operator in (module_forward._TridiagonalOperator, module_forward._FivePointOperator):
        factorize = operator.factorize

        def poisoned_factorize(self, c, factorize=factorize):
            solve = factorize(self, c)
            return lambda b: poisoned(solve(b))

        monkeypatch.setattr(operator, "factorize", poisoned_factorize)
    solve_values = module_forward.state_values
    monkeypatch.setattr(
        module_forward, "state_values", lambda problem, c: poisoned(solve_values(problem, c))
    )
    problems = (
        EllipticProblem(Grid((8,)), lambda t: 1.0, lambda t: t),
        EllipticProblem(Grid((4, 3)), lambda x, y: 1.0, lambda x, y: x + y),
    )
    for problem in problems:
        c = GridFunction.constant(problem.grid, 1.0)
        for call in (solve_state, forward):
            with pytest.raises(SingularOperatorError) as raised:
                call(problem, c)
            assert str(raised.value) == NON_FINITE_STATE
        with pytest.raises(ValueError, match="^grid function values must be finite$") as raised:
            GridFunction(problem.grid, poisoned(c.values))
        assert not isinstance(raised.value, SingularOperatorError)


def _literal_stencil(grid):
    # the five-point stencil with ghost-eliminated edges, built from h alone
    nx, ny = grid.cells
    hx, hy = grid.spacing

    def second_difference(n, h):
        d = np.full(n, 2.0)
        d[0] = d[-1] = 3.0
        return sp.diags([d, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]) / h**2

    return (
        sp.kron(sp.identity(ny), second_difference(nx, hx))
        + sp.kron(second_difference(ny, hy), sp.identity(nx))
    ).tocsr()


@pytest.mark.parametrize("cells", [(31, 31), (9, 7)])
def test_sparse_operator_matches_the_literal_sum(cells):
    # A(c) written into the problem's CSC pattern has the bits of
    # (stencil + diags(c)).tocsc(): the same indptr, indices and data, and
    # so the same SuperLU solve, also where a diagonal entry cancels exactly
    # and the sum drops it
    grid = Grid(cells)
    problem = EllipticProblem(grid, lambda x, y: 1.0 + x * y, lambda x, y: x - y)
    stencil = _literal_stencil(grid)
    rng = np.random.default_rng(7)
    for i in range(40):
        c = rng.choice([-1.0, 1.0], grid.size) * 10.0 ** rng.uniform(-3.0, 4.0, grid.size)
        if i % 4 == 0:
            c[rng.integers(grid.size)] = 0.0
        if i % 4 == 1:
            j = rng.integers(grid.size)
            c[j] = -stencil.diagonal()[j]
        want = (stencil + sp.diags(c)).tocsc()
        got = problem._operator.matrix(c)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        if i % 4 == 1:
            assert got.nnz == stencil.nnz - 1
        try:
            want_u = splu(want).solve(problem._state_rhs)
        except RuntimeError:
            with pytest.raises(SingularOperatorError):
                state_values(problem, c)
            continue
        assert state_values(problem, c).tobytes() == want_u.tobytes()


def run_fresh(*args: str, **env: str) -> subprocess.CompletedProcess:
    # a fresh interpreter, so that what it runs sees its own import graph
    src = str(Path(newton_landweber.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, *args],
        env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_import_leaves_scipy_sparse_to_the_first_2d_problem():
    # 1D loads neither scipy.sparse nor scipy.linalg's package (nor the
    # numpy.f2py it pulls in), only the LAPACK extension; the first 2D
    # problem loads scipy.sparse
    run_fresh(
        "-c",
        "import sys\n"
        "import numpy as np\n"
        "import newton_landweber as nl\n"
        "from newton_landweber.forward import state_values\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "grid = nl.Grid((4,))\n"
        "problem = nl.EllipticProblem(grid, lambda t: 1.0, lambda t: 0.0)\n"
        "c = np.ones(grid.size)\n"
        "nl.solve_state(problem, nl.GridFunction(grid, c))\n"
        "state_values(problem, c)\n"
        "for name in ('scipy.sparse', 'scipy.linalg', 'numpy.f2py'):\n"
        "    assert name not in sys.modules, name\n"
        "grid = nl.Grid((3, 3))\n"
        "problem = nl.EllipticProblem(grid, lambda x, y: 1.0, lambda x, y: 0.0 * x)\n"
        "assert 'scipy.sparse' in sys.modules\n"
        "c = np.ones(grid.size)\n"
        "u = nl.solve_state(problem, nl.GridFunction(grid, c)).u.values\n"
        "residual = problem._operator.matrix(c) @ u - problem._state_rhs\n"
        "assert np.abs(residual).max() < 1e-12 * np.abs(problem._state_rhs).max()\n"
    )


@pytest.mark.parametrize("scipy_first", [False, True])
def test_forward_kernels_are_scipy_linalg_lapack_in_either_import_order(scipy_first):
    # the extension loaded by file is the one scipy.linalg.lapack re-exports,
    # so the 1D solves run the same function objects as through scipy; this
    # also fails when a scipy release renames its private extension
    first, second = "import newton_landweber.forward", "import scipy.linalg.lapack as lapack"
    if scipy_first:
        first, second = second, first
    run_fresh(
        "-c",
        "import sys\n"
        f"{first}\n"
        f"{second}\n"
        "forward = sys.modules['newton_landweber.forward']\n"
        "for name in ('dgttrf', 'dgttrs', 'dgtsv'):\n"
        "    assert getattr(forward.lapack, name) is getattr(lapack, name), name\n"
    )


def test_missing_lapack_extension_names_the_paths_it_tried(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(module_forward, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"_flapack\.missing\.so"):
        module_forward._load_flapack()


@pytest.mark.parametrize("cells", [(60,), (9, 7)])
def test_state_values_matches_forward(cells):
    # the raw-values kernel is F itself, not an approximation of it
    grid = Grid(cells)
    c = 1.0 + np.random.default_rng(3).random(grid.size)
    if grid.dim == 1:
        problem = EllipticProblem(grid, lambda t: 1.0 + t, lambda t: 0.5 - 1.5 * t)
    else:
        problem = EllipticProblem(grid, lambda x, y: 1.0 + x * y, lambda x, y: x - y)
    got = state_values(problem, c)
    assert got.tobytes() == forward(problem, GridFunction(grid, c)).values.tobytes()
    assert got.tobytes() == solve_state(problem, GridFunction(grid, c)).u.values.tobytes()
    if grid.dim == 1:
        # reference: the tridiagonal A(c) assembled from h alone, no cached pieces
        (h,) = grid.spacing
        off = np.full(grid.size - 1, -1.0 / h**2)
        diag = 2.0 / h**2 + c
        diag[0] += 1.0 / h**2
        diag[-1] += 1.0 / h**2
        dl, d, du, du2, ipiv, _ = lapack.dgttrf(off, diag, off)
        rhs = problem.rhs.values + problem.boundary_rhs
        want, _ = lapack.dgttrs(dl, d, du, du2, ipiv, rhs)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [5, 50, 401])
def test_state_values_matches_dgttrf_where_it_pivots(n):
    # the one-call dgtsv solve of state_values against the literal dgttrf +
    # dgttrs assembly, on coefficients that force row interchanges (c down
    # to -4/h^2 cancels the diagonal) and on coefficients over eight decades
    grid = Grid((n,))
    problem = EllipticProblem(grid, lambda t: 1.0 + t, lambda t: 0.5 - 1.5 * t)
    (h,) = grid.spacing
    off = np.full(n - 1, -1.0 / h**2)
    rhs = problem.rhs.values + problem.boundary_rhs
    rng = np.random.default_rng(n)
    pivoted = 0
    for i in range(60):
        if i % 2:
            c = rng.uniform(-4.0, 1.0, n) / h**2
        else:
            c = 10.0 ** rng.uniform(-2.0, 6.0, n)
        diag = 2.0 / h**2 + c
        diag[0] += 1.0 / h**2
        diag[-1] += 1.0 / h**2
        dl, d, du, du2, ipiv, info = lapack.dgttrf(off, diag, off)
        assert info == 0
        want, _ = lapack.dgttrs(dl, d, du, du2, ipiv, rhs)
        assert np.isfinite(want).all()
        pivoted += bool((ipiv != np.arange(1, n + 1)).any())
        assert state_values(problem, c).tobytes() == want.tobytes()
    assert pivoted >= 20


def test_grid_mismatch_rejected():
    problem = EllipticProblem(Grid((8,)), lambda t: 1.0, lambda t: 0.0)
    other = GridFunction.constant(Grid((9,)), 1.0)
    with pytest.raises(GridMismatchError):
        solve_state(problem, other)
    ev = solve_state(problem, GridFunction.constant(Grid((8,)), 1.0))
    with pytest.raises(GridMismatchError):
        derivative_apply(ev, other)
    with pytest.raises(GridMismatchError):
        adjoint_apply(ev, other)


def test_rhs_on_another_grid_rejected():
    rhs = GridFunction.constant(Grid((9,)), 1.0)
    with pytest.raises(GridMismatchError, match="rhs sampled on a different grid"):
        EllipticProblem(Grid((8,)), rhs, lambda t: 0.0)


def test_forward_positive_coefficient_state_bounded():
    # with f = 0 and positive boundary data the state stays between the
    # boundary values (discrete maximum principle for c >= 0)
    grid = Grid((40,))
    problem = EllipticProblem(grid, lambda t: 0.0, lambda t: 1.0 + t)
    got = forward(problem, GridFunction.constant(grid, 0.0))
    assert np.all(got.values >= 1.0 - 1e-12)
    assert np.all(got.values <= 2.0 + 1e-12)
