"""Experiment presets, noise generation, overrides, and report wiring."""

import math
from dataclasses import replace

import numpy as np
import pytest

from newton_landweber import (
    ConfigurationError,
    Grid,
    GridFunction,
    SolverConfig,
    SpaceParams,
    add_outliers,
    apply_overrides,
    bregman,
    build_spec,
    compute_error,
    conjugate_exponent,
    duality_map,
    generate_noise,
    lp_norm,
    make_example1,
    make_example2,
    make_example3,
    make_example2d,
    run_experiment,
)
from newton_landweber import cli
from newton_landweber.checks import STREAM_HIGHS, check_noise_contract, stream_matches_numpy
from newton_landweber.experiments import PRESETS, NoiseSpec, assemble_problem, make_data
from newton_landweber.schedules import InnerBudget, choose_vartheta, theta_exponent
from test_forward import run_fresh


# ---------------------------------------------------------------------------
# preset pins: the shipped problem data must not drift


def test_example1_pins():
    spec = make_example1()
    assert spec.n == 400
    assert spec.grid().dim == 1
    assert spec.grid().cells == (401,)
    assert spec.space.p == 1.1
    assert spec.space.r == 2.0
    assert spec.noise.delta == 1e-4
    assert spec.noise.outlier_count == 0
    assert spec.solver["tau"] == 1.02
    # plateau values of the sparse coefficient
    t = np.array([0.35, 0.65, 0.5, 0.0])
    np.testing.assert_allclose(spec.truth(t), [0.5, 1.0, 0.0, 0.0])
    assert spec.exact_state(np.array(0.2)) == pytest.approx(2.0)
    assert (spec.exact_state(0.0), spec.exact_state(1.0)) == (1.0, 6.0)
    # inner allowance (50+n)^-2, a_0 = 4e-4
    assert spec.solver["inner_budget"] == InnerBudget.power(50.0, 2.0)


def test_example2_pins():
    spec = make_example2()
    assert spec.n == 400
    assert spec.noise.delta == 1e-4
    t = np.array([0.12, 0.35, 0.65, 0.5])
    np.testing.assert_allclose(spec.truth(t), [0.25, 0.5, 1.0, 0.0])
    assert spec.solver["inner_budget"] == InnerBudget.power(100.0, 2.0)


def test_example3_pins():
    spec = make_example3()
    assert spec.space.p == 2.0
    assert spec.space.r == 1.1
    assert spec.noise.norm_exponent == 1.1
    assert spec.noise.outlier_count == 5
    assert spec.solver["tau"] == 1.0015
    assert spec.solver["tau_tilde"] == 5e-3
    assert spec.solver["c_omega_bar"] == 5e-3
    assert spec.solver["inner_budget"] == InnerBudget.power(1.0, 1.1)
    # starting guess is the smooth trend of the coefficient
    assert callable(spec.x0)
    assert spec.x0(np.array(0.25)) == pytest.approx(1.75)
    assert make_example3(tau=1.0 + 1e-5).solver["tau"] == 1.0 + 1e-5


def test_example2d_pins():
    spec = make_example2d()
    assert spec.grid().dim == 2
    assert (spec.n, spec.m) == (30, 30)
    assert spec.grid().cells == (31, 31)
    assert spec.space.p == 1.1
    assert spec.space.r == 2.0
    assert spec.noise.delta == 1e-3
    assert spec.solver["tau"] == 1.0 + 1e-5
    assert spec.truth(np.array(0.2), np.array(0.2)) == pytest.approx(40.0)
    assert spec.truth(np.array(0.5), np.array(0.5)) == pytest.approx(0.0)
    assert spec.exact_state(np.array(0.25), np.array(0.5)) == pytest.approx(1.75)
    other = make_example2d(delta=1e-2, r=10.0)
    assert other.noise.delta == 1e-2
    assert other.space.r == 10.0


def test_presets_table_is_complete():
    assert set(PRESETS) == {"example1", "example2", "example3", "example2d"}
    for name, factory in PRESETS.items():
        assert factory().name == name


# ---------------------------------------------------------------------------
# noise contract


def test_noise_norm_is_exact():
    res = check_noise_contract()
    assert res.ok, res.detail


# one- and two-word seeds at the 32-bit edge; 2**64 + 3 takes three words,
# and 2**130 + 11 five, more than the four-word entropy pool
STREAM_SEEDS = [*range(64), 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11]


@pytest.mark.parametrize("high", STREAM_HIGHS)
def test_noise_stream_is_numpys_pcg64(high):
    mismatched = [seed for seed in STREAM_SEEDS if not stream_matches_numpy(seed, high)]
    assert mismatched == []


def test_no_run_loads_numpy_random(tmp_path):
    # the test process itself has loaded numpy.random, through checks; a 1D
    # run from the command line, written out, loads in a fresh interpreter
    # neither scipy.linalg nor scipy.sparse, which load with the first 2D
    # problem, nor numpy.f2py, nor numpy.random, which the noise stream
    # replaces, nor the checks of verify
    argv = ["run", "--preset", "example3", "--out", str(tmp_path)]
    argv += ["--override", "n=100", "--override", "max_total_inner=50"]
    run_fresh(
        "-c",
        "import sys\n"
        "import newton_landweber.cli\n"
        "from newton_landweber import build_spec, run_experiment\n"
        "for preset in ('example3', 'example1'):\n"
        "    run_experiment(build_spec(preset, {'n': '100', 'max_total_inner': '50'}))\n"
        f"assert newton_landweber.cli.main({argv!r}) == 0\n"
        "unloaded = ('scipy.linalg', 'scipy.sparse', 'numpy.f2py', 'numpy.random',\n"
        "            'newton_landweber.checks')\n"
        "for name in unloaded:\n"
        "    assert name not in sys.modules, name\n"
    )
    assert [path.name for path in tmp_path.glob("*/iterations.csv")] == ["iterations.csv"]


def test_noise_is_bitwise_deterministic():
    grid = Grid((101,))
    exact = GridFunction.from_callable(grid, lambda t: np.sin(3.0 * t))
    a = generate_noise(exact, 1e-3, 2.0, 42)
    b = generate_noise(exact, 1e-3, 2.0, 42)
    np.testing.assert_array_equal(a.values, b.values)
    c = generate_noise(exact, 1e-3, 2.0, 43)
    assert np.any(c.values != a.values)


def test_noise_zero_delta_is_identity():
    grid = Grid((51,))
    exact = GridFunction.constant(grid, 2.0)
    assert generate_noise(exact, 0.0, 2.0, 3) is exact
    with pytest.raises(ValueError):
        generate_noise(exact, -1e-6, 2.0, 3)


def test_max_norm_noise_has_the_level_as_its_largest_entry():
    spec = build_spec("example1", {"noise_norm": "inf"})
    _, _, exact, _ = assemble_problem(spec)
    data, _ = make_data(spec, exact)
    delta = spec.noise.delta
    assert float(np.max(np.abs(data.values - exact.values))) == pytest.approx(delta, rel=1e-12)


def test_outliers_touch_exactly_count_nodes():
    grid = Grid((101,))
    data = GridFunction.constant(grid, 1.0)
    out = add_outliers(data, 5, 0.75, 7)
    diff = out.values - data.values
    touched = np.nonzero(diff)[0]
    assert touched.size == 5
    np.testing.assert_allclose(np.abs(diff[touched]), 0.75)
    # deterministic in the seed, count 0 is the identity
    again = add_outliers(data, 5, 0.75, 7)
    np.testing.assert_array_equal(out.values, again.values)
    assert add_outliers(data, 0, 0.75, 7) is data
    with pytest.raises(ValueError):
        add_outliers(data, grid.size + 1, 0.75, 7)


def test_outliers_at_every_node_skip_repeated_draws():
    # eight distinct nodes out of eight take repeated draws of the stream;
    # a node drawn again is not moved again
    data = GridFunction.zeros(Grid((8,)))
    for seed in range(4):
        out = add_outliers(data, 8, 0.75, seed)
        np.testing.assert_array_equal(np.abs(out.values), np.full(8, 0.75))


def test_huge_outliers_are_measured_without_a_warning():
    # 1e200 overflows the direct sum of the r-norm, which rescales to the
    # right level; the suite's warning policy turns a warning into an error
    spec = build_spec("example1", {"outlier_count": "2", "outlier_magnitude": "1e200"})
    _, _, exact, _ = assemble_problem(spec)
    _, delta = make_data(spec, exact)
    weight = exact.grid.cell_volume
    assert delta == pytest.approx(1e200 * math.sqrt(2.0 * weight), rel=1e-12)
    # so is the run's first residual, which ends it at once
    report = run_experiment(spec)
    assert (report.reason, report.n_star, report.n_p) == ("discrepancy", 0, 0)


def test_example3_control_run_sees_identical_data():
    # the gaussian part is pinned to the L^1.1 norm, so re-solving with
    # r = 2 must perturb the data identically; only the measured level moves
    spec = make_example3()
    control = apply_overrides(spec, {"r": "2"})
    _, _, exact, _ = _assemble(spec)
    data_a, delta_a = make_data(spec, exact)
    data_b, delta_b = make_data(control, exact)
    np.testing.assert_array_equal(data_a.values, data_b.values)
    assert delta_a != delta_b
    assert delta_a > spec.noise.delta  # outliers dominate the gaussian part


def _assemble(spec):
    from newton_landweber.experiments import assemble_problem

    return assemble_problem(spec)


# ---------------------------------------------------------------------------
# error measure


def test_compute_error_constant_offset():
    grid = Grid((401,))
    truth = GridFunction.from_callable(grid, lambda t: np.cos(t))
    rec = truth + GridFunction.constant(grid, 0.1)
    err2, errp = compute_error(rec, truth, 1.1)
    assert err2 == pytest.approx(0.1, rel=1e-12)
    assert errp == pytest.approx(0.1, rel=1e-12)


# ---------------------------------------------------------------------------
# overrides


def test_overrides_reach_every_layer():
    spec = build_spec(
        "example1",
        {
            "p": "2",
            "n": "100",
            "seed": "9",
            "delta": "1e-3",
            "tau": "1.1",
            "max_total_inner": "400",
            "rate_mode": "true",
            "inner_budget": "const:25",
        },
    )
    assert spec.space.p == 2.0
    assert spec.space.r == 2.0  # untouched
    assert spec.n == 100
    assert spec.seed == 9
    assert spec.noise.delta == 1e-3
    assert spec.solver["tau"] == 1.1
    assert spec.solver["max_total_inner"] == 400
    assert spec.solver["rate_mode"] is True
    assert spec.solver["inner_budget"].limit(0, 1.0, 2.0) == 25


def test_vartheta_is_derived_not_configured(tmp_path, capsys):
    # the step factor comes from the step-size rule alone: no config field,
    # override key or CLI override sets it
    spec = make_example1()
    with pytest.raises(TypeError, match="vartheta"):
        SolverConfig(space=spec.space, delta=1e-4, vartheta=0.5, **spec.solver)
    with pytest.raises(ValueError, match="unknown override 'vartheta'"):
        build_spec("example1", {"vartheta": "0.5"})
    code = cli.main(["run", "--preset", "example1", "--out", str(tmp_path),
                     "--override", "vartheta=0.5"])
    assert code == 2
    assert "unknown override" in capsys.readouterr().err

    config = SolverConfig(space=spec.space, delta=1e-4, **spec.solver)
    assert config.vartheta == choose_vartheta(0.1, 1.0, 0.5, config.space)
    assert config.vartheta == 0.125
    smaller = config.replace(c_omega_bar=0.05)
    assert smaller.vartheta == choose_vartheta(0.05, 1.0, 0.5, config.space)
    assert smaller.vartheta < config.vartheta


def test_override_auto_means_none_for_every_optional_field():
    spec = build_spec(
        "example3",
        {"max_total_inner": "400", "noise_norm": "2", "outlier_magnitude": "0.5"},
    )
    spec = apply_overrides(
        spec, {"max_total_inner": "auto", "noise_norm": "AUTO", "outlier_magnitude": "auto"}
    )
    assert spec.solver["max_total_inner"] is None
    assert spec.noise.norm_exponent is None
    assert spec.noise.outlier_magnitude is None


KNOWN_KEYS = (
    "alpha00, c_alpha, c_const, c_omega_bar, delta, eta, inner_budget, m, max_inner, "
    "max_outer, max_total_inner, n, noise_norm, nu, "
    "omega_bar, outlier_count, outlier_magnitude, p, q, r, rate_mode, rho, seed, "
    "tau, tau_tilde"
)


def test_unknown_override_lists_known_keys():
    spec = make_example1()
    with pytest.raises(ValueError) as info:
        apply_overrides(spec, {"taus": "1.2"})
    assert str(info.value) == f"unknown override 'taus'; known keys: {KNOWN_KEYS}"


NAN = math.nan
NAN_SOLVER = dict(space=SpaceParams(1.1, 2.0), delta=1e-3, tau=1.5)
ONES = GridFunction.constant(Grid((8,)), 1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        *(
            pytest.param(
                lambda name=name: SolverConfig(**{**NAN_SOLVER, name: NAN}),
                rf"^{name} must",
                id=name,
            )
            for name in (
                "delta", "tau", "tau_tilde", "eta", "q", "alpha00", "omega_bar", "c_omega_bar",
                "rho", "c_const", "c_alpha",
            )
        ),
        pytest.param(
            lambda: SolverConfig(**{**NAN_SOLVER, "delta": math.inf}), "^delta must", id="delta_inf"
        ),
        pytest.param(
            lambda: SolverConfig(**{**NAN_SOLVER, "tau": math.inf}), "^tau must", id="tau_inf"
        ),
        *(
            pytest.param(
                lambda name=name: SolverConfig(**{**NAN_SOLVER, name: math.inf}),
                rf"^{name} must",
                id=f"{name}_inf",
            )
            for name in ("tau_tilde", "rho", "c_const", "c_alpha")
        ),
        pytest.param(lambda: theta_exponent(NAN, 2.0), "^nu must", id="nu"),
        pytest.param(lambda: InnerBudget.power(NAN, 2.0), "^shift must", id="shift"),
        pytest.param(lambda: InnerBudget.power(50.0, NAN), "needs exponent", id="exponent"),
        pytest.param(lambda: NoiseSpec(NAN), "^delta must", id="noise_delta"),
        pytest.param(lambda: NoiseSpec(math.inf), "^delta must", id="noise_delta_inf"),
        pytest.param(
            lambda: NoiseSpec(1e-3, norm_exponent=NAN), "^norm exponent must", id="noise_norm"
        ),
        pytest.param(
            lambda: NoiseSpec(1e-3, outlier_count=NAN), "^outlier count must", id="outlier_count"
        ),
        pytest.param(
            lambda: NoiseSpec(1e-3, outlier_count=3, outlier_magnitude=NAN),
            "^outlier_magnitude must",
            id="outlier_magnitude",
        ),
        pytest.param(
            lambda: NoiseSpec(1e-3, outlier_count=3, outlier_magnitude=math.inf),
            "^outlier_magnitude must",
            id="outlier_magnitude_inf",
        ),
        pytest.param(lambda: conjugate_exponent(NAN), "^conjugate exponent needs", id="conjugate"),
        pytest.param(lambda: lp_norm(ONES, NAN), "^norm exponent must", id="lp_norm"),
        pytest.param(lambda: duality_map(ONES, NAN), "^duality map needs", id="duality_map"),
        pytest.param(lambda: bregman(ONES, ONES, NAN), "^bregman needs", id="bregman"),
        pytest.param(lambda: generate_noise(ONES, NAN, 2.0, 0), "^delta must", id="noise_level"),
        pytest.param(
            lambda: generate_noise(ONES, 1e-3, NAN, 0), "^norm exponent must", id="noise_exponent"
        ),
        pytest.param(lambda: add_outliers(ONES, NAN, 1.0, 0), "^count must", id="add_outliers"),
        pytest.param(lambda: SpaceParams(NAN, 2.0), "^p must", id="p"),
        pytest.param(lambda: SpaceParams(1.1, NAN), "^r must", id="r"),
        pytest.param(lambda: SpaceParams(math.inf, 2.0), "^p must", id="p_inf"),
        pytest.param(lambda: SpaceParams(2.0, math.inf), "^r must", id="r_inf"),
    ],
)
def test_non_finite_settings_fail_their_range_checks(build, message):
    # each check is written so that NaN (and, for p, r, delta, tau,
    # tau_tilde, rho, c_const, c_alpha, the noise level and the outlier
    # magnitude, inf) fails it, with its own message
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.filterwarnings("ignore:exponents outside the analyzed regime")
def test_theta_beyond_s_star_minus_one_is_rejected():
    # r = 1.1, nu = 0.5: theta = 2 / (1.1 * 2 - 2) = 10, while s = 2 gives
    # s* - 1 = 1
    space = SpaceParams(1.5, 1.1)
    with pytest.raises(ConfigurationError, match="^theta=10 too large"):
        SolverConfig(space=space, delta=1e-3, tau=1.5, nu=0.5)


@pytest.mark.parametrize(
    "build, message",
    [
        *(
            pytest.param(
                lambda value, name=name: SolverConfig(**{**NAN_SOLVER, name: value}),
                rf"^{name} must",
                id=name,
            )
            for name in ("max_outer", "max_inner", "max_total_inner")
        ),
        pytest.param(InnerBudget.constant, "^constant budget needs", id="constant"),
        pytest.param(
            lambda value: InnerBudget("constant", k_bar=value),
            "^constant budget needs",
            id="k_bar",
        ),
        pytest.param(
            lambda value: NoiseSpec(1e-3, outlier_count=value),
            "^outlier count must",
            id="outliers",
        ),
        pytest.param(lambda value: add_outliers(ONES, value, 1.0, 0), "^count must", id="count"),
    ],
)
def test_counts_must_be_integers(build, message):
    # a float count was truncated where it was used: max_inner = 2.5 logged
    # allowance 2 next to 3 steps, and add_outliers(u, 1.5, ...) added 2
    with pytest.raises(ValueError, match=message):
        build(2.5)
    build(np.int64(3))


def test_override_m_needs_a_2d_preset():
    # a 1D preset's callables take one coordinate; a 2D one takes its m
    with pytest.raises(ValueError, match="override 'm' needs a 2D preset"):
        build_spec("example1", {"m": "10"})
    spec = build_spec("example2d", {"m": "10"})
    assert spec.grid().cells == (spec.n + 1, 11)


@pytest.mark.parametrize("overrides", [{}, {"delta": "0"}], ids=["noisy", "noiseless"])
def test_a_negative_seed_fails_where_it_enters(overrides):
    # a noiseless run draws no noise, so only the spec can see the seed
    with pytest.raises(ValueError, match=r"^seed must be a non-negative int, got -1$"):
        build_spec("example1", {**overrides, "seed": "-1"})


def test_a_seed_that_is_not_an_int_fails():
    spec = make_example1()
    for seed in (1.5, "3", None):
        with pytest.raises(ValueError, match="^seed must"):
            replace(spec, seed=seed)
    assert replace(spec, seed=np.int64(3)).seed == 3


def test_build_spec_rejects_unknown_preset():
    with pytest.raises(ValueError, match="example1"):
        build_spec("example9")


def test_override_noise_kind_and_bool_parse():
    # outliers are on exactly when outlier_count > 0; there is no kind key
    spec = build_spec("example1", {"outlier_count": "3", "outlier_magnitude": "0.5"})
    assert spec.noise.outlier_count == 3
    assert spec.noise.outlier_magnitude == 0.5
    with pytest.raises(ValueError, match="unknown override 'noise_kind'"):
        build_spec("example1", {"noise_kind": "gaussian+outliers"})
    with pytest.raises(ValueError):
        build_spec("example1", {"rate_mode": "maybe"})


# ---------------------------------------------------------------------------
# report wiring


def test_run_experiment_report_is_consistent():
    spec = build_spec("example1", {"n": "100", "max_total_inner": "400"})
    report = run_experiment(spec)
    assert report.n_p == len(report.result.log.records)
    assert report.n_star == report.result.n_star
    assert report.reason == report.result.reason
    err2, errp = compute_error(report.result.final, report.truth, spec.space.p)
    assert report.err_l2 == err2
    assert report.err_lp == errp
    assert report.effective_delta == spec.noise.delta
    assert report.wall_ms > 0.0
