"""Uniform cell-centered grids on the unit interval/square and functions on them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Grid", "GridFunction", "GridMismatchError"]


class GridMismatchError(ValueError):
    """Two grid functions on different grids were combined."""


@dataclass(frozen=True)
class Grid:
    """Descriptor of a uniform cell-centered grid on (0,1)^dim, dim in {1, 2}.

    ``cells`` holds the number of cells per axis. Unknowns live at the cell
    centers (i + 1/2) * h with h = 1 / cells, so the quadrature weight is the
    cell volume and the weights sum to the measure of the domain exactly.
    """

    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        if len(cells) not in (1, 2):
            raise ValueError(f"only dim 1 or 2 supported, got {len(cells)}")
        # the range test comes first: int() raises on an infinite or NaN count
        if any(not 2 <= n < math.inf or int(n) != n for n in cells):
            raise ValueError(f"need at least 2 cells per axis, got {cells}")
        # a whole float such as 4.0 passes the check; store the count as an int
        object.__setattr__(self, "cells", tuple(int(n) for n in cells))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def size(self) -> int:
        n = 1
        for c in self.cells:
            n *= c
        return n

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(1.0 / c for c in self.cells)

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for h in self.spacing:
            v *= h
        return v

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def coords(self) -> tuple[np.ndarray, ...]:
        """Flat coordinate arrays, one per axis, in value order.

        Values are ordered with the first axis fastest: for dim 2 the flat
        index is j * nx + i with i along x and j along y.
        """
        if self.dim == 1:
            return (self.axis_coords(0),)
        x = self.axis_coords(0)
        y = self.axis_coords(1)
        xx, yy = np.meshgrid(x, y)  # shape (ny, nx), C-order flattening
        return xx.ravel(), yy.ravel()


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real-valued function sampled at the nodes of a :class:`Grid`.

    Values are stored flat (first axis fastest) and are immutable once
    constructed; all arithmetic returns new instances. Construction rejects
    non-finite values, so any NaN/Inf produced by an iteration surfaces
    immediately instead of propagating.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} values for grid {self.grid.cells}, "
                f"got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("grid function values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable[..., np.ndarray]) -> "GridFunction":
        """Sample ``fn`` at the cell centers; ``fn`` takes one array per axis."""
        vals = np.asarray(fn(*grid.coords()), dtype=float)
        return cls(grid, np.broadcast_to(vals, (grid.size,)))

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> "GridFunction":
        """Wrap float64 values of the grid's size that are known to be finite.

        No copy and no checks: the caller hands over an array it owns, which
        is made read-only, and has already vouched for its finiteness.
        """
        values.setflags(write=False)
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "values", values)
        return f

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.size))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.size, float(value)))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)

    def _check(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise GridMismatchError(
                f"grids differ: {self.grid.cells} vs {other.grid.cells}"
            )

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.grid, self.values - other.values)

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, float(other) * self.values)

    __rmul__ = __mul__
