"""The parameter choice: the majorant phi, step sizes, weights, budgets and parsing."""

import math
import warnings

import numpy as np
import pytest

from newton_landweber import (
    ConfigurationError,
    InnerBudget,
    SpaceParams,
    alpha_check,
    alpha_hat,
    choose_omega,
    choose_vartheta,
    next_alpha,
    phi,
    theta_exponent,
)
from newton_landweber.checks import check_omega_bounds


def test_phi_shape_and_values():
    # p = s = 2: phi(lam) = 2 C lam^2 / ... both exponents collapse to 2,
    # and (p rho^2)^(1 - s*/p*) = 1, so phi(lam) = 4 C lam^2 at C = 1
    hilbert = SpaceParams(2.0, 2.0)
    assert phi(1.0, 1.0, 0.5, hilbert) == pytest.approx(4.0)
    assert phi(0.5, 1.0, 0.5, hilbert) == pytest.approx(1.0)
    assert phi(0.0, 1.0, 0.5, hilbert) == 0.0
    # p = 1.1: p* = 11, s* = 2
    vals = [phi(lam, 0.25, 0.5, SpaceParams(1.1, 2.0)) for lam in np.linspace(0.0, 2.0, 41)]
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
        vals = [phi(lam, 1.0, 0.5, space) for lam in (0.0, 0.25, 1.0)]
    assert vals[0] == 0.0
    assert 0.0 < vals[1] < math.inf
    assert vals[2] == math.inf


def test_phi_at_zero_with_an_infinite_lead_coefficient():
    # (p rho^2)^(1 - s*/p*) overflows at rho = 1e200, p = 1.1; the lead
    # term inf * 0^s* is 0, so phi(0) = 0 with no invalid-value warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi(0.0, 1.0, 1e200, SpaceParams(1.1, 2.0)) == 0.0


def test_phi_when_its_lead_coefficient_overflows_on_its_own():
    # (1.1 * 1e400)^(9/11) / 2 overflows, but times (2e-300)^2 the lead
    # term is about 4.0516e-273; the lam^p* term underflows to 0
    log10_lead = math.log10(0.5) + 9.0 / 11.0 * (math.log10(1.1) + 400.0)
    expected = 10.0 ** (log10_lead + 2.0 * (math.log10(2.0) - 300.0))
    assert expected == pytest.approx(4.0516e-273, rel=1e-5)
    assert phi(1e-300, 1.0, 1e200, SpaceParams(1.1, 2.0)) == pytest.approx(expected, rel=1e-9)


def test_choose_vartheta_at_a_huge_rho_near_p_2():
    # at p = 1.9999 the exponent 1 - s*/p* is 5e-5, so (p rho^2)^(1-s*/p*)
    # is about 1.04 at rho = 1e154 although p rho^2 overflows
    space = SpaceParams(1.9999, 2.0)
    assert choose_vartheta(0.1, 1.0, 1e154, space) == 2.0**-6
    assert choose_vartheta(0.1, 1.0, 1e150, space) == 2.0**-6


def test_theta_worked_values():
    assert theta_exponent(0.0, 2.0) == 0.0
    assert theta_exponent(0.25, 2.0) == pytest.approx(0.5)
    assert theta_exponent(0.5, 2.0) == pytest.approx(1.0)
    # r = 1.1, nu = 0.5: 2 / (1.1 * 2 - 2)
    assert theta_exponent(0.5, 1.1) == pytest.approx(2.0 / 0.2)


def test_choose_vartheta_halving_rule():
    # p = s = 2 collapses the condition to 4 C vt <= c_bar
    hilbert = SpaceParams(2.0, 2.0)
    assert choose_vartheta(5e-3, 1.0, 0.5, hilbert) == 2.0**-10
    assert choose_vartheta(5e-3, 1.0 / 16.0, 0.5, hilbert) == 2.0**-6
    # a loose bound admits vt = 1 (j = 0)
    assert choose_vartheta(4.0, 1.0, 0.5, hilbert) == 1.0
    with pytest.raises(ConfigurationError):
        choose_vartheta(1e-25, 1.0, 0.5, hilbert)


def test_choose_vartheta_guarantees_phi_ratio():
    # for any t, t_tilde the phi-ratio of the resulting omega stays bounded
    res = check_omega_bounds()
    assert res.ok, res.detail


def test_choose_omega_worked_example():
    # p = s = r = 2: omega = vt * min(t^2/tt^2, t^2/tt^2, omega_bar)
    sp = SpaceParams(2.0, 2.0)
    assert choose_omega(2.0, 4.0, 1.0, 10.0, sp) == pytest.approx(0.25)
    assert choose_omega(10.0, 0.1, 0.5, 3.0, sp) == pytest.approx(1.5)  # cap binds: 0.5 * 3.0


def test_choose_omega_degenerate_gradient():
    sp = SpaceParams(1.1, 2.0)
    # a zero gradient gives the cap vartheta * omega_bar, a float
    omega = choose_omega(0.5, 0.0, 0.25, 1e8, sp)
    assert type(omega) is float and omega == pytest.approx(0.25e8)


def float64_omega(t, t_tilde, vartheta, omega_bar, sp):
    # choose_omega's powers in numpy float64 scalars, overflow ignored
    with np.errstate(over="ignore"):
        w1 = float(np.float64(t) ** (sp.r / (sp.s_star - 1.0)) * np.float64(t_tilde) ** -sp.s)
        w2 = float(np.float64(t) ** (sp.r / (sp.p_star - 1.0)) * np.float64(t_tilde) ** -sp.p)
    return vartheta * min(w1, w2, omega_bar)


def test_choose_omega_tiny_gradient_no_overflow():
    sp = SpaceParams(1.1, 2.0)
    omega = choose_omega(1e-3, 1e-300, 0.125, 1e8, sp)
    assert omega == pytest.approx(0.125e8)  # power terms overflow to inf, cap wins
    # the scalar pow gives the float64 result, with no warning or OverflowError
    spaces = (SpaceParams(1.1, 2.0), SpaceParams(2.0, 2.0), SpaceParams(1.1, 10.0))
    for space in spaces:
        for t, t_tilde in ((1e-3, 1e-300), (0.7, 1e-300), (0.0, 0.5), (0.0, 3e5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                omega = choose_omega(t, t_tilde, 0.125, 1e8, space)
            assert omega == float64_omega(t, t_tilde, 0.125, 1e8, space)


def test_choose_omega_when_one_power_underflows_and_the_other_overflows():
    # t^a is 0 and t_tilde^-s is inf in float64, so the direct product is NaN;
    # the true terms are (1e-200)^2 (1e-200)^-2 = 1 and 1e-400 / 1e-380 = 1e-20
    sp = SpaceParams(2.0, 2.0)
    assert choose_omega(1e-200, 1e-200, 0.25, 1e8, sp) == 0.25
    omega = choose_omega(1e-200, 1e-190, 0.25, 1e8, sp)
    assert omega == pytest.approx(0.25e-20, rel=1e-12)
    # a zero t gives a zero term, not NaN, and a huge ratio meets the cap
    assert choose_omega(0.0, 1e-300, 0.25, 1e8, sp) == 0.0
    assert choose_omega(1e-170, 1e-300, 0.25, 1e8, sp) == 0.25e8


def test_alpha_check_worked_example():
    # tau_tilde (t + eta r_n + (1+eta) delta)^(r/(1+theta))
    # = 0.1 * (0.06 + 0.1*0.3 + 0)^(2/2) = 0.1 * 0.09
    assert alpha_check(0.06, 0.3, 0.0, 0.1, 0.1, 2.0, 1.0) == pytest.approx(0.009)
    # theta = 0 exponent is r itself
    assert alpha_check(0.1, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0) == pytest.approx(0.01)


def test_alpha_hat_worked_example():
    assert alpha_hat(0.5, 0.9, 1.0) == pytest.approx(0.475)
    assert alpha_hat(0.5, 0.9, 0.0) == 0.0
    assert alpha_hat(0.0, 0.9, 1.0) == 0.0


def test_next_alpha_combination():
    assert next_alpha(0.009, 0.475) == pytest.approx(0.475)
    assert next_alpha(0.009, 0.0) == pytest.approx(0.009)
    assert next_alpha(2.0, 0.0) == 1.0


def test_inner_budget_power_family():
    budget = InnerBudget.power(50.0, 2.0)
    # worked example: a_0 = 50^-2 = 4e-4, and a_0 r^-2 with r = 1e-2 gives floor(4) = 4
    assert budget.limit(0, 1e-2, 2.0) == 4
    # sub-unit raw allowance clamps to 1
    assert budget.limit(0, 1.0, 2.0) == 1
    with pytest.raises(ValueError):
        budget.limit(0, 0.0, 2.0)
    with pytest.raises(ConfigurationError):
        InnerBudget.power(50.0, 1.0)
    # a_0 = shift^-exponent must be finite
    with pytest.raises(ConfigurationError, match="shift must be > 0"):
        InnerBudget.power(0.0, 2.0)
    with pytest.raises(ConfigurationError, match="shift must be > 0"):
        InnerBudget.parse("(0+n)^-2")


def test_inner_budget_constant_family():
    budget = InnerBudget.constant(7)
    assert budget.limit(0, 1e-9, 2.0) == 7
    assert budget.limit(100, 1.0, 2.0) == 7
    with pytest.raises(ConfigurationError):
        InnerBudget.constant(0)


def test_inner_budget_huge_allowance_capped():
    budget = InnerBudget.power(1.0, 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert budget.limit(0, 1e-300, 2.0) == 2**62
        # a_0 = 0.5^-2000 = 2^2000 overflows to inf, not an OverflowError
        assert InnerBudget.power(0.5, 2000.0).limit(0, 1.0, 2.0) == 2**62


def test_inner_budget_when_one_power_underflows_and_the_other_overflows():
    # the direct product would be 0 * inf; in logs the allowance is
    # 2^(-2000 - 100 log2 1e-4) = 2^-671, clamped to 1, and
    # 2^(2000 - 2 log2 1e200) = 2^671, capped at 2^62
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert InnerBudget.power(2.0, 2000.0).limit(0, 1e-4, 100.0) == 1
        assert InnerBudget.power(0.5, 2000.0).limit(0, 1e200, 2.0) == 2**62


def test_inner_budget_parse_round_trip():
    for text, expected in (
        ("(50+n)^-2", InnerBudget.power(50.0, 2.0)),
        ("(50+n)^(-2)", InnerBudget.power(50.0, 2.0)),
        ("(1+n)^-1.1", InnerBudget.power(1.0, 1.1)),
        ("const:25", InnerBudget.constant(25)),
        ("25", InnerBudget.constant(25)),
    ):
        parsed = InnerBudget.parse(text)
        assert parsed == expected
    # a budget's text is its parse syntax
    for budget in (
        InnerBudget.power(50.0, 2.0),
        InnerBudget.power(1, 1.1),
        InnerBudget.power(0.25, 3.5),
        InnerBudget.power(1e-05, 2.0),
        InnerBudget.power(1e20, 2.0),
        InnerBudget.constant(40),
    ):
        assert InnerBudget.parse(str(budget)) == budget
    for bad in ("n^-2", "(50+n)^(-2", "(50+n)^-2)"):
        with pytest.raises(ConfigurationError):
            InnerBudget.parse(bad)
