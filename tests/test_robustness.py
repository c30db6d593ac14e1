"""One property over the whole settings space.

A combination of overrides is rejected with ``ValueError`` (a
``ConfigurationError`` is one) while ``prepare_run`` sets its run up, as
the CLI does, or its run returns a known reason: a run never raises, and
nothing warns but the configuration warning the package emits on
purpose. At extreme exponents the array kernels overflow: ``run`` turns
numpy's overflow and invalid-value warnings off itself and reports what
went non-finite in its reason, so the test sets no policy of its own. The
value strategy of each key is chosen by which sample strings the key's
own parser in the override table accepts, so a new key is drawn without
an edit here.
"""

import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton_landweber import build_spec, run
from newton_landweber.experiments import _OVERRIDES, PRESETS, prepare_run
from newton_landweber.solver import (
    REASON_DISCREPANCY,
    REASON_OUTER_BUDGET,
    REASON_TOTAL_INNER,
)

# the warning the package emits on purpose, while a spec is built
DELIBERATE_WARNINGS = ("exponents outside the analyzed regime",)

# every run is small: n <= 60 and at most 400 inner steps, in few outer loops;
# a drawn value of these keys stays within its bound
BOUNDS = {"n": 60, "max_total_inner": 400, "max_outer": 200}
BASE = {key: str(bound) for key, bound in BOUNDS.items()}

# the 1D presets: a 2D run would cost a sparse LU per step
PRESETS_1D = sorted(name for name, make in PRESETS.items() if make().m is None)

_decimal = st.integers(0, 10**4).map(str) | st.floats(0.0, 1e4).map("{:.4f}".format)
# most settings lie in (0, 1) or just above 1; the rest are log-uniform
# magnitudes from 1e-300 to 1e301, or any float, inf and NaN included
_floats = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(1.0, 10.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 300)),
    st.floats(),
)

# value kinds, each with a sample string its parser must accept for a key to
# be drawn from it
KINDS = (
    ("0.5", _floats.map(repr)),
    ("7", st.integers(0, 100).map(str) | st.integers(-2, 10**6).map(str)),
    ("true", st.sampled_from(["true", "false", "yes", "off"])),
    ("(1+n)^-2", st.builds("({}+n)^-{}".format, _decimal, _decimal)),
    ("auto", st.just("auto")),
)


def _accepts(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


def _values(key: str):
    if key in BOUNDS:
        return st.integers(-1, BOUNDS[key]).map(str)
    parse = _OVERRIDES[key][2]
    return st.one_of([values for sample, values in KINDS if _accepts(parse, sample)])


KEYS = st.lists(st.sampled_from(sorted(_OVERRIDES)), min_size=1, max_size=4, unique=True)
OVERRIDES = KEYS.flatmap(lambda keys: st.fixed_dictionaries({key: _values(key) for key in keys}))


def test_every_key_has_values_to_draw():
    assert [key for key in _OVERRIDES if _values(key).is_empty] == []


@settings(max_examples=400, derandomize=True, deadline=None)
@given(preset=st.sampled_from(PRESETS_1D), overrides=OVERRIDES)
# the inputs that once raised, looped or warned
@example(preset="example1", overrides={"rho": "1e200"})
@example(preset="example1", overrides={"tau_tilde": "inf"})
@example(preset="example1", overrides={"inner_budget": "(0.5+n)^-2000"})
@example(preset="example1", overrides={"p": "1.9999", "rho": "1e154"})
@example(preset="example1", overrides={"outlier_count": "2", "outlier_magnitude": "1e200"})
@example(preset="example1", overrides={"n": "1"})
# a rate-mode tail that runs out of max_inner: its loop's row reads "failure"
@example(
    preset="example3",
    overrides={
        "rate_mode": "true", "nu": "0.5", "p": "2", "r": "2", "delta": "0.05", "max_inner": "2"
    },
)
def test_settings_are_rejected_or_run_to_a_known_reason(preset, overrides):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            spec = build_spec(preset, {**BASE, **overrides})
            problem, truth, data, x0, config = prepare_run(spec)
        except ValueError:
            result = None
        else:
            result = run(problem, data, config, x0=x0, truth=truth)
    unexpected = [
        f"{w.category.__name__}: {w.message} ({w.filename}:{w.lineno})"
        for w in caught
        if not str(w.message).startswith(DELIBERATE_WARNINGS)
    ]
    assert not unexpected, unexpected
    if result is not None:
        reason, log = result.reason, result.log
        assert reason in (REASON_DISCREPANCY, REASON_OUTER_BUDGET, REASON_TOTAL_INNER) or (
            reason.startswith("failure: ")
        )
        assert log.total_inner <= BOUNDS["max_total_inner"]
        # the outer rows account for every step; a loop that fails logs the
        # last row, "failure", and only a state solve that fails at an outer
        # head leaves none
        assert log.outer.column("steps").sum() == log.total_inner
        failures = [i for i, rec in enumerate(log.outer) if rec.inner_reason == "failure"]
        assert failures in ([], [len(log.outer) - 1])
        head_failure = reason.endswith(f"(outer iterate {result.n_star})")
        assert result.failed == (bool(failures) or head_failure)
