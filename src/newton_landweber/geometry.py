"""Banach-space geometry on grid functions: norms, duality maps, Bregman distances.

All quantities are discrete L^q objects with one shared quadrature: the
weighted pairing sum(w * a * b) with the grid's cell weights. Norms, duality
maps and Bregman distances below are exactly compatible with that pairing, so
identities like <J_q(f), f> = ||f||_q^q hold to rounding, not just to
discretization error.

Each formula is written once, as a kernel on raw float64 values (the
``*_values`` functions, which the solver's inner loop calls directly); the
public functions on :class:`GridFunction` check grids and exponents and
delegate to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._warn import warn_at_caller
from .grids import GridFunction

_NORMAL_MIN = float(np.finfo(float).tiny)  # smallest normal float64

__all__ = [
    "SpaceParams",
    "lp_norm",
    "lp_norm_values",
    "lp_norm_values_quiet",
    "pairing",
    "duality_map",
    "duality_map_values",
    "inverse_duality_map",
    "bregman",
    "bregman_values",
    "shifted_bregman",
    "conjugate_exponent",
]


def conjugate_exponent(q: float) -> float:
    """Hoelder conjugate q* = q / (q - 1) for q > 1."""
    if not q > 1.0:  # written positively, so that NaN fails it
        raise ValueError(f"conjugate exponent needs q > 1, got {q}")
    return q / (q - 1.0)


@dataclass(frozen=True)
class SpaceParams:
    """Exponents of the solution space L^p and the data space L^r.

    The convexity power ``s`` of the solution space is derived, not set:
    L^p is s-uniformly convex exactly for s >= max(p, 2), since no Banach
    space has a modulus of convexity of power type below 2, so
    s = max(p, 2). Exponents outside r >= s (the regime in which the
    step-size analysis is proved) are accepted with a warning.
    """

    p: float
    r: float

    def __post_init__(self) -> None:
        # written positively, so that NaN fails them; an infinite p would
        # make p* = inf / inf a NaN
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must be finite and exceed 1, got {self.p}")
        if not 1.0 < self.r < math.inf:
            raise ValueError(f"r must be finite and exceed 1, got {self.r}")
        if not self.r >= self.s:
            warn_at_caller(
                f"exponents outside the analyzed regime r >= s >= p: "
                f"p={self.p} s={self.s} r={self.r}"
            )

    # cached: the solver's step-size rule reads these on every inner step
    @cached_property
    def s(self) -> float:
        return max(self.p, 2.0)

    @cached_property
    def p_star(self) -> float:
        return conjugate_exponent(self.p)

    @cached_property
    def s_star(self) -> float:
        return conjugate_exponent(self.s)


def lp_norm_values(v: np.ndarray, q: float, weight: float) -> float:
    """Weighted discrete L^q norm of raw values, (weight * sum_i |v_i|^q)^(1/q).

    When the direct sum underflows or overflows (say 1e-4 at q = 101, or
    1e40 at q = 10) while max|v| is finite and nonzero, the norm is
    recomputed as max|v| * ||v / max|v|||_q; a zero v reads 0.0, and every
    other result is the direct formula, bit for bit. At q = inf the
    rescaled sum counts the maxima, so the norm is max|v|. At q = 2 the
    powers are ``v * v``, which equals |v|^2 bit for bit. The result is a
    Python ``float``, never a numpy scalar: the sum is converted first and
    the root is ``math.pow``, the C library's pow. numpy's float64 scalar
    power calls it too, but its array power need not: where numpy takes it
    with AVX-512 kernels, ``x ** 11.0`` differs from ``math.pow`` in the
    last bit in about 5% of entries. The sum's powers are numpy's array
    powers, so the pinned traces hold only where numpy takes them with the
    same kernels (README, "Tests").
    numpy still warns about an overflow of the direct sum: an ``errstate``
    guard would slow every call by about half, so only the calls off the
    inner step go through ``lp_norm_values_quiet``.
    """
    total = weight * float(np.add.reduce(v * v if q == 2.0 else np.abs(v) ** q))
    if not _NORMAL_MIN <= total < math.inf:
        scale = float(np.max(np.abs(v)))
        if 0.0 < scale < math.inf:
            rescaled = weight * float(np.add.reduce((np.abs(v) / scale) ** q))
            return scale * math.pow(rescaled, 1.0 / q)
        if scale == 0.0:  # pow(+0, 1/q) for a finite q; pow(0, 0) = 1 at q = inf
            return 0.0
    return math.pow(total, 1.0 / q)


# lp_norm_values without the overflow warning, for set-up, reporting and the
# outer loop's residual r_n, where a sum that overflows rescales to the right
# norm; errstate as a decorator costs about half of a with block each call
lp_norm_values_quiet = np.errstate(over="ignore")(lp_norm_values)


def duality_map_values(v: np.ndarray, q: float) -> np.ndarray:
    """J_q on raw values: sgn(v) |v|^(q-1), and ``v`` itself at q = 2.

    The sign is put on with ``copysign``, so a zero keeps its sign:
    J_q(-0) is -0, which equals the 0 of sgn(v) |v|^(q-1).
    """
    if q == 2.0:
        return v
    return np.copysign(np.abs(v) ** (q - 1.0), v)


def bregman_values(
    a: np.ndarray, a_pow: np.ndarray, b: np.ndarray, p: float, weight: float
) -> float | np.ndarray:
    """Bregman distance of (1/p)||.||_p^p from raw values b to a.

    ``a_pow`` is |a|^p, passed in so that a caller measuring many b against
    one a computes it once. ``b`` may hold one iterate per row, shape
    (B, n), against a and a_pow of shape (n,) or of b's own shape; the
    distances are then the row-wise sums, an array of B, each equal bit for
    bit to the distance of that row alone. Accumulated pointwise: each node
    contributes the Bregman gap of the scalar convex map t -> |t|^p / p,
    which is nonnegative in exact arithmetic, so the weighted sum cannot go
    below a few ulps times its magnitude. |b| is taken once, for |b|^p and
    for J_p(b) = copysign(|b|^(p-1), b), which has the bits of
    ``duality_map_values(b, p)``.
    """
    mag = np.abs(b)
    dual = b if p == 2.0 else np.copysign(mag ** (p - 1.0), b)
    gaps = (a_pow - mag**p) / p - dual * (a - b)
    return weight * np.add.reduce(gaps, axis=-1)


def lp_norm(f: GridFunction, q: float) -> float:
    """Weighted discrete L^q norm, (sum_i w_i |f_i|^q)^(1/q); max|f| at q = inf.

    The norm of set-up and reporting, off the inner step: a direct sum that
    overflows is rescaled to the right norm, so it does not warn.
    """
    if not q >= 1.0:  # written positively, so that NaN fails it
        raise ValueError(f"norm exponent must be >= 1, got {q}")
    return lp_norm_values_quiet(f.values, q, f.grid.cell_volume)


def pairing(a: GridFunction, b: GridFunction) -> float:
    """Weighted dual pairing sum_i w_i a_i b_i (same weights as the norms)."""
    a._check(b)
    return float(a.grid.cell_volume * np.dot(a.values, b.values))


def duality_map(f: GridFunction, q: float) -> GridFunction:
    """Pointwise duality map J_q(f) = |f|^(q-1) sgn(f) of the q-norm's gauge.

    For q = 2 this is the identity (returned as-is, no pow round-off). Zero
    maps to zero for every q > 1.
    """
    if not q > 1.0:  # written positively, so that NaN fails it
        raise ValueError(f"duality map needs q > 1, got {q}")
    if q == 2.0:
        return f
    return f.with_values(duality_map_values(f.values, q))


def inverse_duality_map(g: GridFunction, q: float) -> GridFunction:
    """Inverse of J_q, which is the duality map with the conjugate exponent."""
    return duality_map(g, conjugate_exponent(q))


def bregman(x_new: GridFunction, x: GridFunction, p: float) -> float:
    """Bregman distance of (1/p)||.||_p^p from x to x_new (see bregman_values)."""
    if not p > 1.0:  # written positively, so that NaN fails it
        raise ValueError(f"bregman needs p > 1, got {p}")
    x_new._check(x)
    a = x_new.values
    return float(bregman_values(a, np.abs(a) ** p, x.values, p, x.grid.cell_volume))


def shifted_bregman(
    x_new: GridFunction, x: GridFunction, x0: GridFunction, p: float
) -> float:
    """Bregman distance between the shifts x_new - x0 and x - x0."""
    return bregman(x_new - x0, x - x0, p)

