"""Every property check can fail: each one broken in turn reports ok=False."""

import itertools
from dataclasses import replace

import pytest

from newton_landweber import checks, cli
from newton_landweber._pcg64 import PCG64


def _scaled(fn, error=1e-6):
    # the function's GridFunction or float result, `error` too large
    return lambda *args: fn(*args) * (1.0 + error)


def _scaled_in_2d(adjoint_apply):
    # the adjoint 1e-6 too large on 2-d grids only
    return lambda ev, w: adjoint_apply(ev, w) * (1.0 + (1e-6 if ev.u.grid.dim == 2 else 0.0))


def _shifted(forward):
    def shifted(problem, c):
        u = forward(problem, c)
        return u.with_values(u.values + 1e-6)

    return shifted


def _reseeded_noise(generate_noise):
    # every draw from a new seed: the same call twice gives other noise
    seeds = itertools.count()
    return lambda u, delta, r, seed: generate_noise(u, delta, r, seed + next(seeds))


def _reseeded_run(run_experiment):
    seeds = itertools.count()
    return lambda spec: run_experiment(replace(spec, seed=spec.seed + next(seeds)))


class _OneDrawAhead(PCG64):
    def __init__(self, seed):
        super().__init__(seed)
        self.random()


BREAKS = [
    pytest.param(checks.check_duality_round_trip, "inverse_duality_map", _scaled, id="duality"),
    pytest.param(checks.check_bregman_identities, "bregman", _scaled, id="bregman"),
    pytest.param(
        checks.check_omega_bounds,
        "choose_omega",
        lambda _: lambda *args: (1.0, True),
        id="omega-degenerate",
    ),
    pytest.param(checks.check_adjoint_identity, "adjoint_apply", _scaled, id="adjoint"),
    pytest.param(
        checks.check_adjoint_identity,
        "adjoint_apply",
        lambda fn: _scaled(fn, 1e-9),
        id="adjoint-1e-9",
    ),
    pytest.param(checks.check_adjoint_identity, "adjoint_apply", _scaled_in_2d, id="adjoint-2d"),
    pytest.param(checks.check_adjoint_identity, "derivative_apply", _scaled, id="derivative"),
    pytest.param(checks.check_taylor_order, "forward", _shifted, id="taylor"),
    pytest.param(
        checks.check_noise_contract, "generate_noise", _reseeded_noise, id="noise-determinism"
    ),
    pytest.param(
        checks.check_noise_contract,
        "add_outliers",
        lambda add: lambda data, count, magnitude, seed: add(data, count - 1, magnitude, seed),
        id="noise-outlier-count",
    ),
    pytest.param(
        checks.check_noise_contract, "PCG64", lambda _: _OneDrawAhead, id="noise-stream"
    ),
    pytest.param(
        checks.check_solver_invariants, "run_experiment", _reseeded_run, id="solver-rerun"
    ),
]


@pytest.mark.parametrize("check, name, breaker", BREAKS)
def test_a_broken_contract_fails_its_check(monkeypatch, check, name, breaker):
    monkeypatch.setattr(checks, name, breaker(getattr(checks, name)))
    result = check()
    assert not result.ok, result.detail


def test_a_check_that_raises_fails_verify(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("broken on purpose")

    # only the duality round trip inverts a duality map
    monkeypatch.setattr(checks, "inverse_duality_map", broken)
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if not line.startswith("PASS")]
    assert failed == ["FAIL  check_duality_round_trip: raised RuntimeError: broken on purpose"]
    assert err == "1 of 7 checks failed\n"
