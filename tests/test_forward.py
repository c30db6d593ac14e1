"""Forward map, derivative, adjoint, and discretization order."""

import numpy as np
import pytest
from scipy.linalg import lapack

from newton_landweber import (
    EllipticProblem,
    Grid,
    GridFunction,
    GridMismatchError,
    SingularOperatorError,
    adjoint_apply,
    derivative_apply,
    forward,
    interval_problem,
    solve_state,
    square_problem,
)
from newton_landweber.forward import state_values


def test_affine_state_exact_1d():
    # u = 1 + 5t has zero second difference, and the ghost-cell elimination
    # is exact for affine data, so the discrete solve reproduces u exactly
    grid = Grid((80,))
    u = lambda t: 1.0 + 5.0 * t  # noqa: E731
    c = lambda t: 2.0 + np.sin(t)  # noqa: E731
    problem = interval_problem(grid, lambda t: c(t) * u(t), 1.0, 6.0)
    got = forward(problem, GridFunction.from_callable(grid, c))
    np.testing.assert_allclose(got.values, u(grid.axis_coords(0)), rtol=0, atol=1e-10)


def test_affine_state_exact_2d():
    grid = Grid((12, 12))
    u = lambda x, y: 1.0 + x + y  # noqa: E731
    c = lambda x, y: 1.0 + x * x * y  # noqa: E731
    problem = square_problem(grid, lambda x, y: c(x, y) * u(x, y), u)
    cf = GridFunction.from_callable(grid, c)
    got = forward(problem, cf)
    xs, ys = grid.coords()
    np.testing.assert_allclose(got.values, u(xs, ys), rtol=0, atol=1e-10)


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
        interval_problem(line, f, g0, g1), GridFunction.from_callable(line, c)
    ).values
    grid = Grid((41, 17))
    ny = grid.cells[1]
    boundary = (np.full(ny, g0), np.full(ny, g1), u_line, u_line)
    problem = EllipticProblem(
        grid, GridFunction.from_callable(grid, lambda x, y: f(x)), boundary
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
        problem = interval_problem(grid, f, 0.0, 0.0)
        got = forward(problem, GridFunction.from_callable(grid, c))
        errors.append(np.max(np.abs(got.values - u(grid.axis_coords(0)))))
    ratio = errors[0] / errors[1]
    assert 3.4 < ratio < 4.6


def test_singular_operator_raises_1d():
    # c = -2/h^2 at the end cells makes the all-ones vector a null vector of
    # the discrete operator; all entries are integers so the zero pivot is hit
    # exactly during elimination
    grid = Grid((4,))
    problem = interval_problem(grid, lambda t: 1.0, 0.0, 0.0)
    c = GridFunction(grid, [-32.0, 0.0, 0.0, -32.0])
    with pytest.raises(SingularOperatorError):
        solve_state(problem, c)
    with pytest.raises(SingularOperatorError):
        state_values(problem, c.values)


def test_singular_operator_raises_2d():
    # cancelling the diagonal leaves the (singular) grid-adjacency matrix,
    # whose integer elimination hits an exact zero pivot
    grid = Grid((3, 3))
    problem = square_problem(grid, lambda x, y: 1.0, lambda x, y: 0.0 * x)
    base = problem._stencil.diagonal()
    c = GridFunction(grid, -base)
    with pytest.raises(SingularOperatorError):
        solve_state(problem, c)
    with pytest.raises(SingularOperatorError):
        state_values(problem, c.values)


@pytest.mark.parametrize("cells", [(60,), (9, 7)])
def test_state_values_matches_forward(cells):
    # the raw-values kernel is F itself, not an approximation of it
    grid = Grid(cells)
    c = 1.0 + np.random.default_rng(3).random(grid.size)
    if grid.dim == 1:
        problem = interval_problem(grid, lambda t: 1.0 + t, 0.5, -1.0)
    else:
        problem = square_problem(grid, lambda x, y: 1.0 + x * y, lambda x, y: x - y)
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
    problem = interval_problem(grid, lambda t: 1.0 + t, 0.5, -1.0)
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
    problem = interval_problem(Grid((8,)), lambda t: 1.0, 0.0, 0.0)
    other = GridFunction.constant(Grid((9,)), 1.0)
    with pytest.raises(GridMismatchError):
        solve_state(problem, other)
    ev = solve_state(problem, GridFunction.constant(Grid((8,)), 1.0))
    with pytest.raises(GridMismatchError):
        derivative_apply(ev, other)
    with pytest.raises(GridMismatchError):
        adjoint_apply(ev, other)


def test_forward_positive_coefficient_state_bounded():
    # with f = 0 and positive boundary data the state stays between the
    # boundary values (discrete maximum principle for c >= 0)
    grid = Grid((40,))
    problem = interval_problem(grid, lambda t: 0.0, 1.0, 2.0)
    got = forward(problem, GridFunction.constant(grid, 0.0))
    assert np.all(got.values >= 1.0 - 1e-12)
    assert np.all(got.values <= 2.0 + 1e-12)
