"""One property over the whole settings space.

A combination of overrides is rejected with ``ValueError`` (a
``ConfigurationError`` is one) while its spec, data and config are built,
or its run returns a known reason: a run never raises, and nothing warns
but the two configuration warnings the package emits on purpose. The run
is made under ``np.errstate(over="ignore", invalid="ignore")``, as in the
solver tests: at extreme exponents the array kernels overflow, and keep
numpy's warning for speed, while the run reports what went non-finite in
its reason. The value strategy of each key is chosen by which sample
strings the key's own parser in the override table accepts, so a new key
is drawn without an edit here.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton_landweber import SolverConfig, build_spec, run
from newton_landweber.experiments import _OVERRIDES, PRESETS, assemble_problem, make_data
from newton_landweber.solver import INNER_REASONS, REASON_TOTAL_INNER

# warnings the package emits on purpose, both while a spec or config is built
DELIBERATE_WARNINGS = (
    "exponents outside the analyzed regime",
    "rate mode with theta = 0 is a no-op",
)

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
def test_settings_are_rejected_or_run_to_a_known_reason(preset, overrides):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            spec = build_spec(preset, {**BASE, **overrides})
            problem, truth, exact, x0 = assemble_problem(spec)
            data, delta = make_data(spec, exact)
            config = SolverConfig(space=spec.space, delta=delta, **spec.solver)
        except ValueError:
            result = None
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                result = run(problem, data, config, x0=x0, truth=truth)
    unexpected = [
        f"{w.category.__name__}: {w.message} ({w.filename}:{w.lineno})"
        for w in caught
        if not str(w.message).startswith(DELIBERATE_WARNINGS)
    ]
    assert not unexpected, unexpected
    if result is not None:
        reason = result.reason
        assert reason in (*INNER_REASONS, REASON_TOTAL_INNER) or reason.startswith("failure: ")
        assert result.log.total_inner <= BOUNDS["max_total_inner"]
