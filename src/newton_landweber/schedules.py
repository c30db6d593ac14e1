"""Step-size and regularization-weight schedules of the two-loop iteration.

The inner Landweber step size is omega = vartheta * min of two power-law
terms in (t, t_tilde) and a cap; vartheta is halved until the majorant ratio
phi(omega * t_tilde) / (omega * t^r) is guaranteed below the configured bound
for every t, t_tilde > 0, which holds by algebra once the vartheta condition
is met. The regularization weight alpha is the larger of a residual-driven
floor and a geometrically contracting envelope, capped at 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .geometry import SpaceParams

__all__ = [
    "ConfigurationError",
    "InnerBudget",
    "theta_exponent",
    "choose_vartheta",
    "choose_omega",
    "alpha_check",
    "alpha_hat",
    "next_alpha",
]


class ConfigurationError(ValueError):
    """A solver configuration violates a validity condition."""


def theta_exponent(nu: float, r: float) -> float:
    """Decay exponent theta = 4 nu / (r (1 + 2 nu) - 4 nu) for smoothness nu.

    nu = 0 gives theta = 0 exactly (no assumed source condition). The
    denominator must stay positive for the exponent to make sense.
    """
    if nu < 0 or nu > 0.5:
        raise ConfigurationError(f"nu must lie in [0, 1/2], got {nu}")
    if nu == 0:
        return 0.0
    denom = r * (1.0 + 2.0 * nu) - 4.0 * nu
    if denom <= 0:
        raise ConfigurationError(f"theta undefined: r={r}, nu={nu}")
    return 4.0 * nu / denom


def choose_vartheta(
    c_omega_bar: float,
    c_const: float,
    rho: float,
    p: float,
    p_star: float,
    s_star: float,
    max_halvings: int = 64,
) -> float:
    """Largest vartheta = 2^-j, j >= 0, satisfying the majorant-ratio condition.

    The condition is
        2^(s*-1) C (p rho^2)^(1-s*/p*) vt^(s*-1) + 2^(p*-1) C vt^(p*-1)
            <= c_omega_bar,
    which makes phi(omega t_tilde) <= c_omega_bar * omega * t^r automatic for
    the omega rule below, for all positive scalars t, t_tilde. The terms are
    computed as C (p rho^2)^(1-s*/p*) (2 vt)^(s*-1) and C (2 vt)^(p*-1), as
    2^(s*-1) and 2^(p*-1) alone overflow when s -> 1 or p -> 1.
    """
    lead = c_const * (p * rho**2) ** (1.0 - s_star / p_star)
    for j in range(max_halvings + 1):
        vt = 2.0**-j
        first = lead * _pow(2.0 * vt, s_star - 1.0)
        second = c_const * _pow(2.0 * vt, p_star - 1.0)
        if first + second <= c_omega_bar:
            return vt
    raise ConfigurationError(
        f"no vartheta = 2^-j with j <= {max_halvings} satisfies the "
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
    """
    if t_tilde == 0.0:
        return vartheta * omega_bar, True
    r, s, p = space.r, space.s, space.p
    # tiny t_tilde overflows the negative powers; inf is fine, min() drops it
    w1 = _pow(t, r / (space.s_star - 1.0)) * _pow(t_tilde, -s)
    w2 = _pow(t, r / (space.p_star - 1.0)) * _pow(t_tilde, -p)
    return vartheta * min(w1, w2, omega_bar), False


def _pow(x: float, y: float) -> float:
    """x^y by the C library's pow, as float64 arithmetic gives it: overflow is inf."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


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
            if self.shift <= 0:  # a_0 = shift^-exponent must be finite
                raise ConfigurationError(f"shift must be > 0, got {self.shift}")
            if self.exponent <= 1.0:
                raise ConfigurationError(
                    f"power budget needs exponent > 1 for summability, got {self.exponent}"
                )
        elif self.kind == "constant":
            if self.k_bar < 1:
                raise ConfigurationError(f"constant budget needs k_bar >= 1, got {self.k_bar}")
        else:
            raise ConfigurationError(f"unknown inner budget kind {self.kind!r}")

    @classmethod
    def power(cls, shift: float, exponent: float) -> "InnerBudget":
        return cls("power", shift=shift, exponent=exponent)

    @classmethod
    def constant(cls, k_bar: int) -> "InnerBudget":
        return cls("constant", k_bar=int(k_bar))

    def coefficient(self, n: int) -> float:
        """The sequence value a_n (power family only)."""
        if self.kind != "power":
            raise ConfigurationError("a_n is only defined for the power family")
        return (self.shift + n) ** -self.exponent

    def limit(self, n: int, r_n: float, r: float) -> int:
        """Inner allowance k_n for outer index n and residual r_n > 0."""
        if self.kind == "constant":
            return self.k_bar
        if r_n <= 0:
            raise ValueError("inner allowance needs a positive residual")
        # a huge allowance is capped by the solver's own budgets; tiny
        # residuals overflow the power to inf
        raw = self.coefficient(n) * _pow(r_n, -r)
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
        return cls.power(float(m.group(1)), float(m.group(2)))

    def describe(self) -> str:
        if self.kind == "constant":
            return f"const:{self.k_bar}"
        shift = f"{self.shift:g}"
        return f"({shift}+n)^-{self.exponent:g}"


_POWER_RE = re.compile(r"^\((\d+(?:\.\d+)?)\+n\)\^(?:-|\(-)(\d+(?:\.\d+)?)\)?$")
