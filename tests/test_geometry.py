"""Norms, duality maps, Bregman distances and the step-size majorant."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton_landweber import (
    Grid,
    GridFunction,
    GridMismatchError,
    SpaceParams,
    bregman,
    conjugate_exponent,
    duality_map,
    lp_norm,
    pairing,
    phi,
    shifted_bregman,
)
from newton_landweber import solver
from newton_landweber.checks import check_duality_round_trip
from newton_landweber.geometry import bregman_values, duality_map_values, lp_norm_values

EXPONENTS = (1.1, 1.5, 2.0, 3.0)


def random_function(grid, rng):
    return GridFunction(grid, rng.standard_normal(grid.size))


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def pow_norm(f, q):
    # lp_norm with |v|^q at every q, the reference for its q = 2 product path
    v, w = f.values, f.grid.cell_volume
    total = w * (np.abs(v) ** q).sum()
    if not np.finfo(float).tiny <= total < np.inf:
        scale = float(np.max(np.abs(v)))
        if 0.0 < scale < np.inf:
            return scale * float((w * ((np.abs(v) / scale) ** q).sum()) ** (1.0 / q))
    return float(total ** (1.0 / q))


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(1.1) == pytest.approx(11.0)
    assert conjugate_exponent(1.5) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)


def test_space_params_defaults_and_validation():
    sp = SpaceParams(1.1, 2.0)
    assert sp.p_star == pytest.approx(11.0)
    assert sp.s_star == pytest.approx(2.0)
    # s is derived from p, never set
    for p in (1.1, 2.0, 3.0):
        assert SpaceParams(p, 4.0).s == max(p, 2.0)
    with pytest.raises(TypeError):
        SpaceParams(1.1, 2.0, s=2.5)
    with pytest.raises(ValueError):
        SpaceParams(1.0, 2.0)
    with pytest.raises(ValueError):
        SpaceParams(2.0, 0.9)
    with pytest.warns(UserWarning):
        SpaceParams(2.0, 1.1)


def test_lp_norm_quadrature_linear_function():
    # integral of t^2 on (0,1) is 1/3; midpoint rule at 401 cells is well
    # inside 1e-4 of the exact square root
    grid = Grid((401,))
    f = GridFunction.from_callable(grid, lambda t: t)
    assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-4)


OVERFLOW_WARNING = "ignore:overflow encountered in power:RuntimeWarning"
SQUARE_OVERFLOW_WARNING = "ignore:overflow encountered in multiply:RuntimeWarning"
# every term is finite and only their sum overflows
SUM_OVERFLOW_WARNING = "ignore:overflow encountered in reduce:RuntimeWarning"


@pytest.mark.filterwarnings(OVERFLOW_WARNING)
@pytest.mark.filterwarnings(SQUARE_OVERFLOW_WARNING)
def test_lp_norm_constant_any_exponent():
    grid = Grid((17,))
    f = GridFunction.constant(grid, -2.0)
    for q in EXPONENTS:
        assert lp_norm(f, q) == pytest.approx(2.0, rel=1e-13)
    # |v|^q underflows (first) or overflows (second); the norm must not
    for value, q in ((1e-4, 101.0), (1e40, 10.0), (1e200, 2.0)):
        g = GridFunction.constant(grid, value)
        assert lp_norm(g, q) == pytest.approx(value, rel=1e-13)
    # at q = 2 the powers are v * v: the same bits as |v|^2 on signed zeros,
    # subnormals and a sum that overflows into the rescaled form
    grid = Grid((4,))
    for values in (
        [0.0, -0.0, 0.0, -0.0],
        [5e-324, -5e-324, 1e-310, -2.5e-308],
        [1e200, -1e200, 3e199, -0.0],
        [1e-160, -3e-170, 0.0, 2e-155],
    ):
        g = GridFunction(grid, values)
        assert same_bits(lp_norm(g, 2.0), pow_norm(g, 2.0)), values


@pytest.mark.filterwarnings(OVERFLOW_WARNING)
@pytest.mark.filterwarnings(SQUARE_OVERFLOW_WARNING)
@pytest.mark.filterwarnings(SUM_OVERFLOW_WARNING)
@settings(deadline=None)
@given(
    q=st.floats(1.0, 200.0, exclude_min=True),
    exponent=st.floats(-150.0, 150.0),
    shape=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=20),
)
@example(q=189.75, exponent=1.447265625, shape=[1.5, 1.5])
def test_lp_norm_is_homogeneous_across_magnitudes(q, exponent, shape):
    grid = Grid((len(shape),))
    f = GridFunction(grid, np.array(shape))
    scale = 10.0**exponent
    assert lp_norm(scale * f, q) == pytest.approx(scale * lp_norm(f, q), rel=1e-12)


@pytest.mark.filterwarnings(OVERFLOW_WARNING)
@pytest.mark.filterwarnings(SQUARE_OVERFLOW_WARNING)
@pytest.mark.filterwarnings(SUM_OVERFLOW_WARNING)
@settings(deadline=None)
@given(
    q=st.sampled_from((1.1, 2.0, 10.0, 11.0)),
    exponent=st.floats(-200.0, 200.0),
    shape=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=20),
)
@example(q=2.0, exponent=154.0, shape=[1.0, 1.0])
def test_lp_norm_is_a_float_with_the_bits_of_the_reference(q, exponent, shape):
    # a Python float, never np.float64, whose repr is the CSV cell; small and
    # large magnitudes take the rescale path, the others the direct one
    grid = Grid((len(shape),))
    f = GridFunction(grid, 10.0**exponent * np.array(shape))
    got = lp_norm_values(f.values, q, grid.cell_volume)
    assert type(got) is float
    assert same_bits(got, pow_norm(f, q))


@pytest.mark.filterwarnings(OVERFLOW_WARNING)
def test_lp_norm_at_inf_is_the_max_norm():
    # max|v|, also for a zero v, where the formula would end in pow(0, 0) = 1;
    # at max|v| > 1 the direct sum |v|^inf overflows, and numpy warns
    grid = Grid((4,))
    for values in (
        [0.0, -0.0, 0.0, 0.0],
        [0.5, -3.0, 2.0, 0.0],
        [1e-300, -1e-310, 0.0, 5e-324],
        [1e300, 1e308, -1.0, 2.0],
    ):
        f = GridFunction(grid, values)
        for got in (lp_norm(f, math.inf), lp_norm_values(f.values, math.inf, 0.25)):
            assert type(got) is float
            assert same_bits(got, float(np.max(np.abs(f.values))))
    # at a finite q a zero v still reads +0.0, as pow(+0, 1/q) did
    for q in (1.0, 1.1, 2.0, 101.0):
        assert same_bits(lp_norm_values(np.zeros(4), q, 0.25), 0.0)


def test_pairing_and_bregman_reject_other_grids():
    a = GridFunction.constant(Grid((10,)), 1.0)
    b = GridFunction.constant(Grid((11,)), 1.0)
    with pytest.raises(GridMismatchError):
        pairing(a, b)
    with pytest.raises(GridMismatchError):
        bregman(a, b, 1.5)


def test_pairing_weights():
    grid = Grid((10,))
    a = GridFunction.constant(grid, 3.0)
    b = GridFunction.constant(grid, 4.0)
    assert pairing(a, b) == pytest.approx(12.0, rel=1e-14)


def test_duality_map_identity_at_p2():
    grid = Grid((6,))
    f = GridFunction(grid, [1.0, -2.0, 0.0, 3.0, -4.0, 5.0])
    assert duality_map(f, 2.0) is f


def test_duality_map_handles_zero_nodes():
    grid = Grid((4,))
    f = GridFunction(grid, [0.0, 1.0, -8.0, 0.5])
    j = duality_map(f, 1.5)
    np.testing.assert_allclose(j.values, [0.0, 1.0, -np.sqrt(8.0), np.sqrt(0.5)])
    # copysign gives the values of sgn(v) |v|^(q-1) on signed zeros and NaN
    v = np.array([0.0, -0.0, np.nan, -np.nan, 2.0, -3.0])
    for q in EXPONENTS:
        with np.errstate(invalid="ignore"):
            expected = np.sign(v) * np.abs(v) ** (q - 1.0)
        np.testing.assert_array_equal(duality_map_values(v, q), expected)


def test_duality_round_trip_and_pairing_identity():
    res = check_duality_round_trip()
    assert res.ok, res.detail


def test_bregman_constant_oracle():
    # constants on the unit interval: weights sum to one, so the distance is
    # the scalar gap |a|^p/p - |b|^p/p - |b|^(p-1) sgn(b) (a - b)
    grid = Grid((9,))
    a = GridFunction.constant(grid, 1.0)
    b = GridFunction.constant(grid, 4.0)
    expected = (1.0 - 8.0) / 1.5 - 2.0 * (1.0 - 4.0)
    assert bregman(a, b, 1.5) == pytest.approx(expected, rel=1e-12)
    assert bregman(a, a, 1.5) == pytest.approx(0.0, abs=1e-15)
    # the gaps through J_p(b) have the bits of the sgn(b) |b|^(p-1) form, on
    # signed zeros too, and a block of rows gives each row's own distance
    a = np.array([0.0, -0.0, 1.5, 0.0, -2.0, 0.25])
    rows = np.array([[0.0, -0.0, -0.0, 1.0, 0.0, -0.5], [-0.0, 0.0, 2.0, -0.0, 3.0, 0.25]])
    for p in (1.1, 1.5, 2.0, 3.0):
        a_pow = np.abs(a) ** p
        block = bregman_values(a, a_pow, rows, p, 0.125)
        for b, distance in zip(rows, block):
            gaps = (a_pow - np.abs(b) ** p) / p - np.sign(b) * np.abs(b) ** (p - 1.0) * (a - b)
            assert same_bits(distance, 0.125 * gaps.sum())
            assert same_bits(distance, bregman_values(a, a_pow, b, p, 0.125))


def _bregman_formula(a, a_pow, b, p, weight):
    # bregman_values as it was written before it took |b| once
    dual = b if p == 2.0 else np.copysign(np.abs(b) ** (p - 1.0), b)
    gaps = (a_pow - np.abs(b) ** p) / p - dual * (a - b)
    return weight * np.add.reduce(gaps, axis=-1)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 11.0])
def test_bregman_values_keeps_the_bits_of_its_formula(p):
    # one row, or a block of rows as the solver's record queue passes them,
    # against a and |a|^p of one row or tiled to the block. Each row lies
    # within two decades of its own scale, and the scales run from 1e-100
    # to 1e100, so the powers of some rows underflow (and at p = 11 overflow)
    # while others stay finite; both signs and signed zeros occur
    rng = np.random.default_rng(int(10 * p))
    n, block = 37, solver.RECORD_BLOCK

    def values(*shape, scale=None):
        if scale is None:
            scale = 10.0 ** rng.uniform(-100.0, 100.0, (*shape[:-1], 1))
        v = rng.choice([-1.0, 1.0], shape) * scale * 10.0 ** rng.uniform(-2.0, 2.0, shape)
        v[..., :2] = (0.0, -0.0)
        return v

    a = values(n, scale=1.0)
    weight = 0.25
    with np.errstate(all="ignore"):
        a_pow = np.abs(a) ** p
        for b in (values(n), values(n, scale=1.0)):
            want = _bregman_formula(a, a_pow, b, p, weight)
            assert same_bits(bregman_values(a, a_pow, b, p, weight), want)
        for m in (1, block - 1, block):
            rows = values(m, n)
            want = _bregman_formula(a, a_pow, rows, p, weight)
            assert want.shape == (m,)
            assert same_bits(bregman_values(a, a_pow, rows, p, weight), want)
            tiles = (m, 1)
            tiled = bregman_values(np.tile(a, tiles), np.tile(a_pow, tiles), rows, p, weight)
            assert same_bits(tiled, want)
        # the last block holds finite distances, not only overflowed ones
        assert np.isfinite(want).any()


def test_bregman_hilbert_case_is_half_square_distance():
    rng = np.random.Generator(np.random.PCG64(8))
    grid = Grid((30,))
    for _ in range(20):
        a = random_function(grid, rng)
        b = random_function(grid, rng)
        assert bregman(a, b, 2.0) == pytest.approx(
            0.5 * lp_norm(a - b, 2.0) ** 2, rel=1e-10
        )


def test_shifted_bregman_reduces_to_plain_at_zero_shift():
    rng = np.random.Generator(np.random.PCG64(12))
    grid = Grid((16,))
    zero = GridFunction.zeros(grid)
    a = random_function(grid, rng)
    b = random_function(grid, rng)
    assert shifted_bregman(a, b, zero, 1.5) == pytest.approx(bregman(a, b, 1.5))
    shift = random_function(grid, rng)
    assert shifted_bregman(a, b, shift, 1.5) == pytest.approx(
        bregman(a - shift, b - shift, 1.5)
    )


def test_phi_shape_and_values():
    # p = s = 2: phi(lam) = 2 C lam^2 / ... both exponents collapse to 2,
    # and (p rho^2)^(1 - s*/p*) = 1, so phi(lam) = 4 C lam^2 at C = 1
    hilbert = SpaceParams(2.0, 2.0)
    assert phi(1.0, 1.0, 0.5, hilbert) == pytest.approx(4.0)
    assert phi(0.5, 1.0, 0.5, hilbert) == pytest.approx(1.0)
    assert phi(0.0, 1.0, 0.5, hilbert) == 0.0
    lams = np.linspace(0.0, 2.0, 41)
    # p = 1.1: p* = 11, s* = 2
    vals = phi(lams, 0.25, 0.5, SpaceParams(1.1, 2.0))
    assert np.all(np.diff(vals) >= 0.0)
    with pytest.raises(ValueError):
        phi(-1.0, 1.0, 0.5, hilbert)


def test_phi_overflow_is_inf_without_a_warning():
    # p = 1.0001: p* = 10001, and 2^10001 overflows float64
    space = SpaceParams(1.0001, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi(1.0, 1.0, 0.5, space) == math.inf
        assert phi(1e200, 1.0, 0.5, SpaceParams(2.0, 2.0)) == math.inf
        vals = phi(np.array([0.0, 0.25, 1.0]), 1.0, 0.5, space)
    assert vals[0] == 0.0
    assert 0.0 < vals[1] < math.inf
    assert vals[2] == math.inf
