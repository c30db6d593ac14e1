"""Experiment presets, noise generation, and the end-to-end run harness.

Each preset builds an :class:`ExperimentSpec` holding the problem definition
(truth coefficient, exact state, right-hand side), the space exponents,
the noise recipe, and the solver settings of one named test case. Specs
are plain frozen data: the same spec plus the same seed always produces
the same data, the same iteration trace, and the same report.

Randomness policy: all draws come from numpy's PCG64 stream seeded
explicitly, reproduced bit for bit in pure Python by :mod:`._pcg64` (so a
run never loads ``numpy.random``) and checked against numpy's own
``Generator(PCG64(seed))`` by ``checks.check_noise_contract``, which the
``verify`` command runs. Gaussians are produced by a Box-Muller transform
of uniform draws rather than ``Generator.normal``, so the realization is
pinned to the documented algorithms (PCG64, ``SeedSequence``, Box-Muller)
and depends on no numpy ``Generator`` internals such as its ziggurat tables.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from ._pcg64 import PCG64
from .forward import EllipticProblem
from .geometry import SpaceParams, lp_norm
from .grids import Grid, GridFunction
from .schedules import InnerBudget
from .solver import RunResult, SolverConfig, run

__all__ = [
    "NoiseSpec",
    "ExperimentSpec",
    "RunReport",
    "PRESETS",
    "make_example1",
    "make_example2",
    "make_example3",
    "make_example2d",
    "generate_noise",
    "add_outliers",
    "compute_error",
    "run_experiment",
    "assemble_problem",
    "make_data",
    "apply_overrides",
    "build_spec",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation recipe: norm-scaled gaussian noise plus ``outlier_count`` outliers.

    ``norm_exponent`` is the exponent of the norm the gaussian part is scaled
    in; ``None`` means the norm of the run's data space. Pinning it (as the
    outlier preset does) keeps the perturbation identical when the same data
    is solved under a different data-space exponent.
    """

    delta: float
    norm_exponent: float | None = None
    outlier_count: int = 0
    outlier_magnitude: float | None = None

    def __post_init__(self) -> None:
        # written positively, so that NaN fails them
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        q = self.norm_exponent
        if q is not None and not q >= 1.0:  # inf is the max norm
            raise ValueError(f"norm exponent must be >= 1, got {q}")
        count = self.outlier_count
        if not (isinstance(count, numbers.Integral) and count >= 0):
            raise ValueError(f"outlier count must be an int >= 0, got {count}")
        m = self.outlier_magnitude
        if m is not None and not math.isfinite(m):
            raise ValueError(f"outlier_magnitude must be finite or None, got {m}")


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, reproducible experiment definition.

    ``n`` (and ``m`` for dim 2) follow the convention of the test problems:
    the interval is divided into n+1 equal subintervals, so the grid carries
    n+1 cells per axis. ``exact_state`` is also the Dirichlet data: the
    problem takes its trace. ``solver`` holds keyword overrides applied on
    top of the :class:`SolverConfig` defaults.
    """

    name: str
    n: int
    truth: Callable
    exact_state: Callable
    rhs: Callable
    space: SpaceParams
    noise: NoiseSpec
    seed: int
    m: int | None = None
    x0: Callable | float = 0.0
    solver: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # checked here, where a seed enters, so that a bad one fails with
        # delta = 0 too, where no noise is drawn
        seed = self.seed
        if not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")

    def grid(self) -> Grid:
        if self.m is None:
            return Grid((self.n + 1,))
        return Grid((self.n + 1, self.m + 1))


@dataclass
class RunReport:
    """Everything a run produced: reconstruction, errors, counts, timings."""

    spec: ExperimentSpec
    config: SolverConfig
    result: RunResult
    truth: GridFunction
    data: GridFunction
    effective_delta: float
    err_l2: float
    err_lp: float
    wall_ms: float

    @property
    def n_star(self) -> int:
        return self.result.n_star

    @property
    def n_p(self) -> int:
        """Total inner iterations, the count of recorded inner steps."""
        return self.result.log.total_inner

    @property
    def reason(self) -> str:
        return self.result.reason


def generate_noise(u: GridFunction, delta: float, r: float, seed: int) -> GridFunction:
    """Perturb u by gaussian noise scaled so that ||u_delta - u||_r == delta.

    The gaussian vector is Box-Muller from two uniform blocks of the seeded
    PCG64 stream; a zero draw (probability zero) is redrawn. delta = 0
    returns u unchanged.
    """
    if not delta >= 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0.0:
        return u
    rng = PCG64(seed)
    size = u.grid.size
    while True:
        u1 = rng.random(size)
        u2 = rng.random(size)
        xi = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
        noise = GridFunction(u.grid, xi)
        norm = lp_norm(noise, r)
        if norm > 0.0:
            return u + (delta / norm) * noise


def add_outliers(
    data: GridFunction, count: int, magnitude: float, seed: int
) -> GridFunction:
    """Add +-magnitude at ``count`` distinct nodes chosen from the seeded stream."""
    if not (isinstance(count, numbers.Integral) and count >= 0):
        raise ValueError(f"count must be an int >= 0, got {count}")
    if count == 0:
        return data
    size = data.grid.size
    if count > size:
        raise ValueError(f"count {count} exceeds node count {size}")
    rng = PCG64(seed)
    values = data.values.copy()
    chosen: set[int] = set()
    while len(chosen) < count:
        idx = rng.integers(size)
        if idx in chosen:
            continue
        chosen.add(idx)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        values[idx] += sign * magnitude
    return data.with_values(values)


def compute_error(
    c_rec: GridFunction, c_true: GridFunction, p: float
) -> tuple[float, float]:
    """(L2, Lp) quadrature norms of the reconstruction error."""
    diff = c_rec - c_true
    return lp_norm(diff, 2.0), lp_norm(diff, p)


def assemble_problem(
    spec: ExperimentSpec,
) -> tuple[EllipticProblem, GridFunction, GridFunction, GridFunction]:
    """Instantiate (problem, truth, exact data, initial guess) on the grid."""
    grid = spec.grid()
    problem = EllipticProblem(grid, spec.rhs, spec.exact_state)
    truth = GridFunction.from_callable(grid, spec.truth)
    exact = GridFunction.from_callable(grid, spec.exact_state)
    if callable(spec.x0):
        x0 = GridFunction.from_callable(grid, spec.x0)
    else:
        x0 = GridFunction.constant(grid, float(spec.x0))
    return problem, truth, exact, x0


def make_data(spec: ExperimentSpec, exact: GridFunction) -> tuple[GridFunction, float]:
    """Perturbed data plus the noise level the solver should be given.

    For plain gaussian noise scaled in the run's own norm the level is the
    configured delta (exact by construction). When outliers are added, or the
    scaling norm differs from the run's, the realized perturbation is
    measured in the run's norm and that value is returned.
    """
    noise = spec.noise
    scale_r = noise.norm_exponent if noise.norm_exponent is not None else spec.space.r
    data = generate_noise(exact, noise.delta, scale_r, spec.seed)
    if noise.outlier_count > 0:
        magnitude = noise.outlier_magnitude
        if magnitude is None:
            magnitude = 0.5 * float(np.max(np.abs(exact.values)))
        data = add_outliers(data, noise.outlier_count, magnitude, spec.seed + 1)
    elif scale_r == spec.space.r:
        return data, noise.delta
    return data, lp_norm(data - exact, spec.space.r)


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Wire spec -> problem -> noise -> solver -> report."""
    problem, truth, exact, x0 = assemble_problem(spec)
    data, effective_delta = make_data(spec, exact)
    config = SolverConfig(space=spec.space, delta=effective_delta, **spec.solver)
    start = time.perf_counter()
    result = run(problem, data, config, x0=x0, truth=truth)
    wall_ms = 1000.0 * (time.perf_counter() - start)
    err_l2, err_lp = compute_error(result.final, truth, spec.space.p)
    return RunReport(
        spec=spec,
        config=config,
        result=result,
        truth=truth,
        data=data,
        effective_delta=effective_delta,
        err_l2=err_l2,
        err_lp=err_lp,
        wall_ms=wall_ms,
    )


def _double_peak(t: np.ndarray) -> np.ndarray:
    return np.where((t >= 0.3) & (t <= 0.4), 0.5, 0.0) + np.where(
        (t >= 0.6) & (t <= 0.7), 1.0, 0.0
    )


def _triple_peak(t: np.ndarray) -> np.ndarray:
    return _double_peak(t) + np.where((t >= 0.1) & (t <= 0.15), 0.25, 0.0)


def _sparse_example(
    name: str, truth: Callable, p: float, seed: int, tau_tilde: float, shift: float
) -> ExperimentSpec:
    """A sparse plateau coefficient on (0, 1), u = 1 + 5t, delta = 1e-4, r = 2."""
    state = lambda t: 1.0 + 5.0 * t  # noqa: E731
    return ExperimentSpec(
        name=name,
        n=400,
        truth=truth,
        exact_state=state,
        rhs=lambda t: state(t) * truth(t),
        space=SpaceParams(p=p, r=2.0),
        noise=NoiseSpec(delta=1e-4),
        seed=seed,
        x0=0.0,
        solver=dict(
            tau=1.02,
            tau_tilde=tau_tilde,
            inner_budget=InnerBudget.power(shift, 2.0),
            c_omega_bar=0.1,
            max_outer=5000,
        ),
    )


def make_example1(p: float = 1.1, seed: int = 2) -> ExperimentSpec:
    """Sparse two-plateau coefficient, u = 1 + 5t, delta = 1e-4, r = 2."""
    return _sparse_example("example1", _double_peak, p, seed, tau_tilde=0.1, shift=50.0)


def make_example2(p: float = 1.1, seed: int = 148) -> ExperimentSpec:
    """Example 1 plus a low third plateau on [0.1, 0.15]."""
    return _sparse_example(
        "example2", _triple_peak, p, seed, tau_tilde=0.01, shift=100.0
    )


def make_example3(tau: float = 1.0015, seed: int = 2) -> ExperimentSpec:
    """Smooth coefficient with outlier-contaminated data, p = 2, r = 1.1.

    The gaussian part is scaled in the L^1.1 norm regardless of the run's
    data exponent, so a control run with r = 2 sees the identical data; the
    solver's noise level is the measured perturbation norm either way.
    """
    truth = lambda t: 2.0 - t + 4.0 * np.sin(2.0 * np.pi * t)  # noqa: E731
    state = lambda t: 1.0 - 2.0 * t  # noqa: E731
    return ExperimentSpec(
        name="example3",
        n=400,
        truth=truth,
        exact_state=state,
        rhs=lambda t: state(t) * truth(t),
        space=SpaceParams(p=2.0, r=1.1),
        noise=NoiseSpec(
            delta=1e-3,
            norm_exponent=1.1,
            outlier_count=5,
            outlier_magnitude=None,
        ),
        seed=seed,
        x0=lambda t: 2.0 - t,
        solver=dict(
            tau=tau,
            tau_tilde=5e-3,
            inner_budget=InnerBudget.power(1.0, 1.1),
            c_omega_bar=5e-3,
            # Keeps the auto step-size factor at 2^-6; with the default
            # constant the halving rule lands at 2^-10 and the run crawls.
            c_const=1.0 / 16.0,
            max_outer=5000,
        ),
    )


def make_example2d(delta: float = 1e-3, r: float = 2.0, seed: int = 2) -> ExperimentSpec:
    """2D box coefficient 40 on [0.19, 0.24]^2, u = 1 + x + y, p = 1.1."""
    truth = lambda x, y: np.where(  # noqa: E731
        (x >= 0.19) & (x <= 0.24) & (y >= 0.19) & (y <= 0.24), 40.0, 0.0
    )
    state = lambda x, y: 1.0 + x + y  # noqa: E731
    return ExperimentSpec(
        name="example2d",
        n=30,
        m=30,
        truth=truth,
        exact_state=state,
        rhs=lambda x, y: state(x, y) * truth(x, y),
        space=SpaceParams(p=1.1, r=r),
        noise=NoiseSpec(delta=delta),
        seed=seed,
        x0=0.0,
        solver=dict(
            tau=1.0 + 1e-5,
            tau_tilde=1e-4,
            inner_budget=InnerBudget.power(50.0, 2.0),
            c_omega_bar=0.1,
            # With r = 10 the residual duality map scales like |rho|^9, so
            # the natural step factor sits near 1e13; the default cap would
            # freeze the iteration at the linearization point.
            omega_bar=1e30,
            c_const=1.0 / 16.0,
            max_outer=5000,
        ),
    )


PRESETS: dict[str, Callable[[], ExperimentSpec]] = {
    "example1": make_example1,
    "example2": make_example2,
    "example3": make_example3,
    "example2d": make_example2d,
}


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"cannot parse boolean from {value!r}")


_PARSERS = {
    "float": float,
    "int": int,
    "bool": _parse_bool,
    "str": str,
    "InnerBudget": InnerBudget.parse,
}


def _parser(annotation: str) -> Callable[[str], object]:
    """Parser for a field annotation; an ``X | None`` field reads ``auto`` as None."""
    base, optional, _ = annotation.partition(" | None")
    parse = _PARSERS[base]
    if not optional:
        return parse
    return lambda value: None if value.lower() == "auto" else parse(value)


_NOISE_KEYS = {"norm_exponent": "noise_norm"}
# override key -> (part of the spec, field name, parser)
_OVERRIDES = {
    **{key: ("space", key, float) for key in ("p", "r")},
    **{key: ("spec", key, int) for key in ("n", "m", "seed")},
    **{
        _NOISE_KEYS.get(f.name, f.name): ("noise", f.name, _parser(f.type))
        for f in fields(NoiseSpec)
    },
    **{
        f.name: ("solver", f.name, _parser(f.type))
        for f in fields(SolverConfig)
        if f.name not in ("space", "delta")
    },
}


def apply_overrides(spec: ExperimentSpec, overrides: dict[str, str]) -> ExperimentSpec:
    """Apply flat key=value overrides (strings, as from config files or CLI).

    The keys are ``p r n m seed``, every :class:`NoiseSpec` field
    (``norm_exponent`` as ``noise_norm``) and every
    :class:`SolverConfig` field but ``space`` and ``delta``, each parsed by
    its annotation; anything else raises, as does ``m`` on a 1D spec.
    """
    changes: dict[str, dict] = {"space": {}, "spec": {}, "noise": {}, "solver": dict(spec.solver)}
    for key, raw in overrides.items():
        if key not in _OVERRIDES:
            raise ValueError(
                f"unknown override {key!r}; known keys: {', '.join(sorted(_OVERRIDES))}"
            )
        part, name, parse = _OVERRIDES[key]
        try:
            changes[part][name] = parse(str(raw).strip())
        except ValueError as exc:
            raise ValueError(f"override {key!r}: {exc}") from exc

    spec_changes = changes["spec"]
    if "m" in spec_changes and spec.m is None:
        # a 1D spec's callables take one coordinate
        raise ValueError("override 'm' needs a 2D preset")
    if changes["space"]:
        spec_changes["space"] = replace(spec.space, **changes["space"])
    if changes["noise"]:
        spec_changes["noise"] = replace(spec.noise, **changes["noise"])
    return replace(spec, solver=changes["solver"], **spec_changes)


def build_spec(preset: str, overrides: dict[str, str] | None = None) -> ExperimentSpec:
    """Look up a preset by name and apply overrides on top."""
    if preset not in PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    spec = PRESETS[preset]()
    if overrides:
        spec = apply_overrides(spec, overrides)
    return spec
