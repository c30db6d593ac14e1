"""Outside-in layer timing: wrappers installed into the package's module namespaces.

The package is not edited. For the length of a ``with tracer.installed(...)``
block, each target name is rebound in its module to a wrapper that records a
span, and the original is put back afterwards. Spans are aggregated in memory
per span name as call count, total time and self time (total minus the time
of the spans opened inside it).

Modules are looked up with ``importlib`` because the package exports a
function named ``forward`` that shadows the ``newton_landweber.forward``
module attribute.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

PKG = "newton_landweber"

# (module, attribute path, span name). A name the solver imports is
# wrapped where the solver looks it up; solve_state and duality_map are also
# wrapped where forward() and inverse_duality_map() call them.
SOLVER_SPANS = (
    (f"{PKG}.solver", "run", "solver.run"),
    (f"{PKG}.solver", "solve_state", "forward.solve_state"),
    (f"{PKG}.forward", "solve_state", "forward.solve_state"),
    (f"{PKG}.solver", "forward", "forward.forward"),
    (f"{PKG}.solver", "derivative_apply", "forward.derivative_apply"),
    (f"{PKG}.solver", "adjoint_apply", "forward.adjoint_apply"),
    (f"{PKG}.solver", "duality_map", "geometry.duality_map"),
    (f"{PKG}.geometry", "duality_map", "geometry.duality_map"),
    (f"{PKG}.solver", "inverse_duality_map", "geometry.inverse_duality_map"),
    (f"{PKG}.solver", "lp_norm", "geometry.lp_norm"),
    (f"{PKG}.solver", "shifted_bregman", "geometry.shifted_bregman"),
    (f"{PKG}.solver", "choose_omega", "schedules.choose_omega"),
    (f"{PKG}.solver", "alpha_check", "schedules.alpha_check"),
    (f"{PKG}.solver", "alpha_hat", "schedules.alpha_hat"),
    (f"{PKG}.solver", "next_alpha", "schedules.next_alpha"),
    (f"{PKG}.grids", "GridFunction.__post_init__", "grids.GridFunction"),
)
REPORTING_SPANS = (
    (f"{PKG}.reporting", "write_iterations", "reporting.write_iterations"),
    (f"{PKG}.reporting", "write_solution", "reporting.write_solution"),
)


class Tracer:
    """Per-name span aggregates: call count, total time and self time."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self._open: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                own = duration - self._open.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + duration
                self.self_time[name] = self.self_time.get(name, 0.0) + own
                if self._open:
                    self._open[-1] += duration

        return traced

    def installed(self, targets):
        """Rebind every target to a traced wrapper until the block exits."""
        return _rebound(targets, self.wrap)


class StepClock:
    """Timestamps of inner steps and outer loops, for per-step costs in untraced runs.

    The solver computes one step size omega per inner step and solves the
    state equation once per outer loop, so a stamp at each ``choose_omega``
    call marks a step and a stamp at each ``solve_state`` call the solver
    makes (not the ones inside ``forward()``) marks an outer loop. ``end`` is
    taken when the block exits, right after ``run()`` returns. A stamp costs
    well under 1 us against 50 us or more between stamps.
    """

    STEP = "step"
    OUTER = "outer"
    TARGETS = (
        (f"{PKG}.solver", "choose_omega", STEP),
        (f"{PKG}.solver", "solve_state", OUTER),
    )

    def __init__(self) -> None:
        self.stamps: list[tuple[float, str]] = []
        self.end = 0.0

    def wrap(self, name: str, fn):
        stamps = self.stamps

        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            stamps.append((perf_counter(), name))
            return fn(*args, **kwargs)

        return stamped

    @contextmanager
    def installed(self):
        with _rebound(self.TARGETS, self.wrap):
            yield
            self.end = perf_counter()


@contextmanager
def _rebound(targets, wrap):
    """Rebind each (module, attribute path, name) target to ``wrap(name, original)``."""
    saved = []
    try:
        for module, path, name in targets:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
