"""The parameter choice of the two-loop iteration: phi, vartheta, omega, alpha, k_n.

The inner Landweber step size is omega = vartheta * min of two power-law
terms in (t, t_tilde) and a cap. vartheta is read off the majorant
:func:`phi`: the largest 2^-j with phi(vartheta) <= c_omega_bar *
vartheta, which by algebra keeps the ratio phi(omega * t_tilde) / (omega *
t^r) below c_omega_bar for every t, t_tilde > 0. The regularization weight
alpha is the larger of a residual-driven floor and a geometrically
contracting envelope, capped at 1; the inner allowance k_n is a power of
the outer residual or a constant.

Every power here follows one rule, stated once in :func:`_pow` and
:func:`_pow_product`: a power that overflows is inf, never an
``OverflowError``, and a product of two powers that would be 0 * inf is
taken in logarithms, never NaN; so is phi's lead term where its
coefficient overflows on its own. Two powers keep a bare ``**``, as
neither can overflow: the 2^-j of :func:`choose_vartheta`, and the
envelope of :func:`alpha_hat`, whose base 1 - (1-q) alpha lies in (0, 1]
for q in (0, 1) and alpha in [0, 1]. The module works on Python floats
and imports no numpy.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

from .geometry import SpaceParams

__all__ = [
    "ConfigurationError",
    "InnerBudget",
    "phi",
    "theta_exponent",
    "choose_vartheta",
    "choose_omega",
    "alpha_check",
    "alpha_hat",
    "next_alpha",
]


class ConfigurationError(ValueError):
    """A solver configuration violates a validity condition."""


def _pow(x: float, y: float) -> float:
    """x^y by the C library's pow, as float64 arithmetic gives it: overflow is inf."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _pow_product(x: float, a: float, y: float, b: float) -> float:
    """x^a * y^b for x, y >= 0, with overflow inf and no 0 * inf.

    The direct product of the two C ``pow`` values, bit for bit, wherever it
    is a number; a factor that overflows is inf. Where one factor underflows
    to 0 and the other overflows to inf, the product is 0 if a base is 0,
    and 2^(a log2 x + b log2 y) otherwise.
    """
    try:
        product = math.pow(x, a) * math.pow(y, b)
    except OverflowError:
        product = _pow(x, a) * _pow(y, b)
    if product == product:
        return product
    if x == 0.0 or y == 0.0:
        return 0.0
    return _pow(2.0, a * math.log2(x) + b * math.log2(y))


def phi(lam: float, c_const: float, rho: float, space: SpaceParams) -> float:
    """Step-size majorant 2^(s*-1) C (p rho^2)^(1-s*/p*) lam^s* + 2^(p*-1) C lam^p*.

    Convex and increasing on lam >= 0. The one statement of the majorant:
    ``choose_vartheta`` reads the step factor off it. As s >= 2, s* <= 2
    and only p -> 1 sends an exponent to infinity; the terms are written as
    C/2 (p rho^2)^(1-s*/p*) (2 lam)^s* and C/2 (2 lam)^p*, so that
    2^(p*-1) alone cannot overflow. Where the lead coefficient overflows on
    its own, the whole lead term is taken in logarithms, as the true value
    may still be small; a term that overflows all the same is inf, and
    phi(0) is 0 even where the lead coefficient is inf.
    """
    if lam < 0:
        raise ValueError("phi is defined for nonnegative arguments")
    p, p_star, s_star = space.p, space.p_star, space.s_star
    e = 1.0 - s_star / p_star
    lead = 0.5 * c_const * _pow(p * _pow(rho, 2.0), e)
    if lead == math.inf and lam > 0:
        log2_head = math.log2(0.5 * c_const) + e * (math.log2(p) + 2.0 * math.log2(rho))
        head = _pow(2.0, log2_head + s_star * math.log2(2.0 * lam))
    else:
        head = _pow_product(lead, 1.0, 2.0 * lam, s_star)
    return head + 0.5 * c_const * _pow(2.0 * lam, p_star)


def theta_exponent(nu: float, r: float) -> float:
    """Decay exponent theta = 4 nu / (r (1 + 2 nu) - 4 nu) for smoothness nu.

    nu = 0 gives theta = 0 exactly (no assumed source condition). The
    denominator must stay positive for the exponent to make sense.
    """
    if not 0.0 <= nu <= 0.5:
        raise ConfigurationError(f"nu must lie in [0, 1/2], got {nu}")
    if nu == 0:
        return 0.0
    denom = r * (1.0 + 2.0 * nu) - 4.0 * nu
    if not denom > 0:
        raise ConfigurationError(f"theta undefined: r={r}, nu={nu}")
    return 4.0 * nu / denom


# the most halvings choose_vartheta tries before it declares no vartheta exists
MAX_HALVINGS = 64


def choose_vartheta(c_omega_bar: float, c_const: float, rho: float, space: SpaceParams) -> float:
    """Largest vartheta = 2^-j, 0 <= j <= 64, with phi(vartheta) <= c_omega_bar * vartheta.

    The one source of the step factor: ``SolverConfig.vartheta`` is this
    function of the config's constants, and no setting overrides it. The
    condition is read off the majorant :func:`phi` itself; it makes
    phi(omega t_tilde) <= c_omega_bar * omega * t^r automatic for the omega
    rule below, for all positive scalars t, t_tilde. phi takes its powers by
    this module's one rule (:func:`_pow_product`): a term that overflows is
    inf, so a vartheta it meets fails the condition.
    """
    for j in range(MAX_HALVINGS + 1):
        vt = 2.0**-j
        if phi(vt, c_const, rho, space) <= c_omega_bar * vt:
            return vt
    raise ConfigurationError(
        f"no vartheta = 2^-j with j <= {MAX_HALVINGS} satisfies the "
        f"step-size condition (c_omega_bar={c_omega_bar})"
    )


def choose_omega(
    t: float,
    t_tilde: float,
    vartheta: float,
    omega_bar: float,
    space: SpaceParams,
) -> tuple[float, bool]:
    """Inner step size omega, plus a flag marking the degenerate case.

    omega = vartheta * min{ t^(r/(s*-1)) t_tilde^-s,
                            t^(r/(p*-1)) t_tilde^-p,
                            omega_bar }.

    A vanishing t_tilde (zero gradient) makes the power terms meaningless;
    the cap vartheta * omega_bar is returned and the step flagged degenerate.
    A tiny t_tilde overflows a term to inf, which min() drops; a term whose
    direct product is 0 * inf is evaluated in logarithms (:func:`_pow_product`).
    """
    if t_tilde == 0.0:
        return vartheta * omega_bar, True
    w1 = _pow_product(t, space.r / (space.s_star - 1.0), t_tilde, -space.s)
    w2 = _pow_product(t, space.r / (space.p_star - 1.0), t_tilde, -space.p)
    return vartheta * min(w1, w2, omega_bar), False


def alpha_check(
    t: float, r_n: float, delta: float, eta: float, tau_tilde: float, r: float, theta: float
) -> float:
    """Residual-driven floor tau_tilde * (t + eta r_n + (1+eta) delta)^(r/(1+theta)).

    A base so large that the power overflows gives an infinite floor, which
    ``next_alpha`` caps at 1.
    """
    return tau_tilde * _pow(t + eta * r_n + (1.0 + eta) * delta, r / (1.0 + theta))


def alpha_hat(alpha_prev: float, q: float, theta: float) -> float:
    """Contracting envelope alpha (1 - (1-q) alpha)^(1/theta); zero when theta = 0."""
    if theta == 0.0:
        return 0.0
    return alpha_prev * (1.0 - (1.0 - q) * alpha_prev) ** (1.0 / theta)


def next_alpha(check: float, hat: float) -> float:
    """Combined update min(1, max(check, hat)); the cap keeps alpha admissible."""
    return min(1.0, max(check, hat))


@dataclass(frozen=True)
class InnerBudget:
    """Per-loop iteration allowance k_n.

    Two families: ``power`` gives k_n = max(1, floor((shift+n)^-exponent *
    r_n^-r)), tying the allowance to the outer residual through a summable
    sequence (shift > 0, exponent > 1); ``constant`` fixes k_n = k_bar.
    """

    kind: str
    shift: float = 0.0
    exponent: float = 0.0
    k_bar: int = 0

    def __post_init__(self) -> None:
        if self.kind == "power":
            # each check is written positively, so that NaN fails it
            if not self.shift > 0:  # a_0 = shift^-exponent must be finite
                raise ConfigurationError(f"shift must be > 0, got {self.shift}")
            if not self.exponent > 1.0:
                raise ConfigurationError(
                    f"power budget needs exponent > 1 for summability, got {self.exponent}"
                )
        elif self.kind == "constant":
            k_bar = self.k_bar
            if not (isinstance(k_bar, numbers.Integral) and k_bar >= 1):
                raise ConfigurationError(f"constant budget needs an int k_bar >= 1, got {k_bar}")
        else:
            raise ConfigurationError(f"unknown inner budget kind {self.kind!r}")

    @classmethod
    def power(cls, shift: float, exponent: float) -> "InnerBudget":
        return cls("power", shift=shift, exponent=exponent)

    @classmethod
    def constant(cls, k_bar: int) -> "InnerBudget":
        return cls("constant", k_bar=k_bar)

    def limit(self, n: int, r_n: float, r: float) -> int:
        """Inner allowance k_n for outer index n and residual r_n > 0."""
        if self.kind == "constant":
            return self.k_bar
        if r_n <= 0:
            raise ValueError("inner allowance needs a positive residual")
        # a huge allowance is capped by the solver's own budgets; tiny
        # residuals overflow the power to inf
        raw = _pow_product(self.shift + n, -self.exponent, r_n, -r)
        if raw > 2**62:
            return 2**62
        return max(1, math.floor(raw))

    @classmethod
    def parse(cls, text: str) -> "InnerBudget":
        """Parse ``(A+n)^-B`` (power) or ``const:K`` / plain integer (constant)."""
        t = text.strip().replace(" ", "")
        if t.startswith("const:"):
            return cls.constant(int(t[len("const:"):]))
        if t.isdigit():
            return cls.constant(int(t))
        m = _POWER_RE.match(t)
        if m is None:
            raise ConfigurationError(
                f"cannot parse inner budget {text!r}; expected '(A+n)^-B' or 'const:K'"
            )
        return cls.power(float(m.group(1)), float(m.group(2) or m.group(3)))


# the exponent is -B or (-B); a parenthesis must be balanced
_POWER_RE = re.compile(r"^\((\d+(?:\.\d+)?)\+n\)\^(?:-(\d+(?:\.\d+)?)|\(-(\d+(?:\.\d+)?)\))$")
