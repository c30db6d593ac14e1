"""Step-size and regularization-weight schedules of the two-loop iteration.

The inner Landweber step size is omega = vartheta * min of two power-law
terms in (t, t_tilde) and a cap. vartheta is read off the majorant
``geometry.phi``: the largest 2^-j with phi(vartheta) <= c_omega_bar *
vartheta, which by algebra keeps the ratio phi(omega * t_tilde) / (omega *
t^r) below c_omega_bar for every t, t_tilde > 0. The regularization weight
alpha is the larger of a residual-driven floor and a geometrically
contracting envelope, capped at 1. Every power of a setting or a residual
is taken by ``geometry._pow``, so one that overflows is inf, never an
``OverflowError``.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

from .geometry import SpaceParams, _pow, phi

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
    if not 0.0 <= nu <= 0.5:
        raise ConfigurationError(f"nu must lie in [0, 1/2], got {nu}")
    if nu == 0:
        return 0.0
    denom = r * (1.0 + 2.0 * nu) - 4.0 * nu
    if not denom > 0:
        raise ConfigurationError(f"theta undefined: r={r}, nu={nu}")
    return 4.0 * nu / denom


def choose_vartheta(
    c_omega_bar: float,
    c_const: float,
    rho: float,
    space: SpaceParams,
    max_halvings: int = 64,
) -> float:
    """Largest vartheta = 2^-j, j >= 0, with phi(vartheta) <= c_omega_bar * vartheta.

    The one source of the step factor: ``SolverConfig.vartheta`` is this
    function of the config's constants, and no setting overrides it. The
    condition is read off the majorant ``geometry.phi`` itself; it makes
    phi(omega t_tilde) <= c_omega_bar * omega * t^r automatic for the omega
    rule below, for all positive scalars t, t_tilde. A term of phi that
    overflows is inf, so a vartheta it meets fails the condition.
    """
    for j in range(max_halvings + 1):
        vt = 2.0**-j
        if phi(vt, c_const, rho, space) <= c_omega_bar * vt:
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
    A term whose direct product is 0 * inf, a t^a that underflows times a
    t_tilde^-b that overflows, is evaluated in logarithms instead.
    """
    if t_tilde == 0.0:
        return vartheta * omega_bar, True
    r, s, p = space.r, space.s, space.p
    a1 = r / (space.s_star - 1.0)
    a2 = r / (space.p_star - 1.0)
    # tiny t_tilde overflows the negative powers; inf is fine, min() drops it
    w1 = _pow(t, a1) * _pow(t_tilde, -s)
    w2 = _pow(t, a2) * _pow(t_tilde, -p)
    if w1 != w1:
        w1 = _power_ratio_in_logs(t, a1, t_tilde, s)
    if w2 != w2:
        w2 = _power_ratio_in_logs(t, a2, t_tilde, p)
    return vartheta * min(w1, w2, omega_bar), False


def _power_ratio_in_logs(t: float, a: float, t_tilde: float, b: float) -> float:
    """t^a t_tilde^-b as 2^(a log2 t - b log2 t_tilde), overflow inf.

    For a product whose factors underflow to 0 and overflow to inf; t = 0
    gives 0, as t_tilde^-b is finite for t_tilde > 0.
    """
    if t == 0.0:
        return 0.0
    return _pow(2.0, a * math.log2(t) - b * math.log2(t_tilde))


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

    def coefficient(self, n: int) -> float:
        """The sequence value a_n (power family only)."""
        if self.kind != "power":
            raise ConfigurationError("a_n is only defined for the power family")
        return _pow(self.shift + n, -self.exponent)

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
        return cls.power(float(m.group(1)), float(m.group(2) or m.group(3)))


# the exponent is -B or (-B); a parenthesis must be balanced
_POWER_RE = re.compile(r"^\((\d+(?:\.\d+)?)\+n\)\^(?:-(\d+(?:\.\d+)?)|\(-(\d+(?:\.\d+)?)\))$")
