"""Grid and grid-function basics."""

import numpy as np
import pytest

from newton_landweber import Grid, GridFunction, GridMismatchError


def test_cell_centers_1d():
    # a whole float count is stored as the int it stands for
    for cells in ((4,), (4.0,)):
        grid = Grid(cells)
        assert grid == Grid((4,))
        assert grid.dim == 1
        assert type(grid.size) is int and grid.size == 4
        assert grid.spacing == (0.25,)
        assert grid.cell_volume == 0.25
        np.testing.assert_allclose(grid.axis_coords(0), [0.125, 0.375, 0.625, 0.875])
        assert grid.cell_volume * grid.size == pytest.approx(1.0)
        np.testing.assert_array_equal(GridFunction.zeros(grid).values, np.zeros(4))


def test_cell_centers_2d_ordering():
    grid = Grid((3, 2))
    assert grid.dim == 2
    assert grid.size == 6
    x, y = grid.coords()
    # first axis fastest: x cycles within each y row
    np.testing.assert_allclose(x[:3], grid.axis_coords(0))
    np.testing.assert_allclose(y[:3], [0.25, 0.25, 0.25])
    np.testing.assert_allclose(y[3:], [0.75, 0.75, 0.75])
    assert grid.cell_volume * grid.size == pytest.approx(1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((1,))
    with pytest.raises(ValueError):
        Grid((4, 4, 4))
    # int() would raise OverflowError on inf and its own ValueError on NaN
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="need at least 2 cells per axis"):
            Grid((bad,))


def test_from_callable_matches_manual_sampling():
    grid = Grid((8,))
    f = GridFunction.from_callable(grid, lambda t: t**2)
    np.testing.assert_array_equal(f.values, grid.axis_coords(0) ** 2)
    g = GridFunction.from_callable(Grid((3, 3)), lambda x, y: x + 10.0 * y)
    xs, ys = Grid((3, 3)).coords()
    np.testing.assert_array_equal(g.values, xs + 10.0 * ys)


def test_constant_broadcast_through_callable():
    grid = Grid((5,))
    f = GridFunction.from_callable(grid, lambda t: 3.0)
    np.testing.assert_array_equal(f.values, np.full(5, 3.0))


def test_values_are_immutable():
    f = GridFunction.constant(Grid((4,)), 1.0)
    with pytest.raises((ValueError, RuntimeError)):
        f.values[0] = 2.0


def test_nonfinite_rejected():
    grid = Grid((4,))
    with pytest.raises(ValueError):
        GridFunction(grid, [1.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        GridFunction(grid, [1.0, np.inf, 0.0, 0.0])


def test_values_of_the_wrong_shape_rejected():
    grid = Grid((4,))
    for values in (np.zeros(3), np.zeros(5), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="expected 4 values"):
            GridFunction(grid, values)


def test_arithmetic_and_mismatch():
    a = GridFunction.constant(Grid((4,)), 2.0)
    b = GridFunction.constant(Grid((4,)), 3.0)
    np.testing.assert_array_equal((a + b).values, np.full(4, 5.0))
    np.testing.assert_array_equal((a - b).values, np.full(4, -1.0))
    np.testing.assert_array_equal((-a).values, np.full(4, -2.0))
    np.testing.assert_array_equal((a * b).values, np.full(4, 6.0))
    np.testing.assert_array_equal((2.0 * a).values, np.full(4, 4.0))
    with pytest.raises(GridMismatchError):
        a + GridFunction.constant(Grid((5,)), 1.0)
