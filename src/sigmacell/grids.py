"""Midpoint-quadrature energy models on rectangular grids.

A field lives on the nodes of a uniform grid; the energy

    sum_cells  h^N [ wW * f(y(x_c)) * W0(u_c) + wG * |grad u_c|^2 ]

takes the field value at each cell center as the corner average and the
gradient as first-order edge differences averaged to the center.  The
spatial weight f is evaluated once per model at the (mapped) cell
centers and cached; the map carries either a rotation (cell problems) or
a 1/eps dilation (diffuse-interface energies).

One forward sweep, an axis at a time, gives the energy: its partial sums
serve the center value and every partial derivative.  Its transpose,
applied once to the cell derivatives, gives the exact gradient, and
applied to the cell volumes, the node quadrature weights.  Periodic axes
omit the duplicate endpoint node; each axis step wraps around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["BoxGrid", "EnergyParts", "EnergyModel", "node_quadrature_weights"]


@dataclass(frozen=True)
class BoxGrid:
    """Uniform rectangular grid with per-axis periodicity."""

    lo: tuple
    hi: tuple
    h: float
    periodic: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        per = tuple(bool(v) for v in self.periodic)
        if not (len(lo) == len(hi) == len(per)):
            raise ValueError("lo, hi, periodic must have equal length")
        if self.h <= 0:
            raise ValueError("mesh size must be positive")
        for a, b in zip(lo, hi):
            if b <= a:
                raise ValueError("box extents must be increasing")
            ratio = (b - a) / self.h
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ValueError(f"mesh {self.h} does not divide extent {b - a}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "periodic", per)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def cells(self) -> tuple:
        return tuple(int(round((b - a) / self.h)) for a, b in zip(self.lo, self.hi))

    @property
    def shape(self) -> tuple:
        """Node counts per axis (periodic axes omit the duplicate endpoint)."""
        return tuple(c if p else c + 1 for c, p in zip(self.cells, self.periodic))

    def node_axes(self) -> list:
        out = []
        for a, n, p in zip(self.lo, self.shape, self.periodic):
            out.append(a + self.h * np.arange(n))
        return out

    def node_points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.node_axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def cell_centers(self) -> np.ndarray:
        axes = [a + self.h * (np.arange(c) + 0.5) for a, c in zip(self.lo, self.cells)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def boundary_mask(self) -> np.ndarray:
        """True on non-periodic boundary nodes."""
        mask = np.zeros(self.shape, dtype=bool)
        for ax, p in enumerate(self.periodic):
            if p:
                continue
            sl = [slice(None)] * self.dim
            sl[ax] = 0
            mask[tuple(sl)] = True
            sl[ax] = -1
            mask[tuple(sl)] = True
        return mask


def _along(op, a: np.ndarray, ax: int, periodic: bool) -> np.ndarray:
    """op(a[i + 1], a[i]) for every cell i along axis ax; a periodic axis wraps to a[0]."""
    head = (slice(None),) * ax
    lo, hi = a[head + (slice(None, -1),)], a[head + (slice(1, None),)]
    if not periodic:
        return op(hi, lo)
    out = np.empty_like(a)
    op(hi, lo, out=out[head + (slice(None, -1),)])
    op(a[head + (slice(0, 1),)], a[head + (slice(-1, None),)], out=out[head + (slice(-1, None),)])
    return out


def _along_adjoint(up: np.ndarray, down: np.ndarray, ax: int, periodic: bool) -> np.ndarray:
    """Node i collects up[i - 1] from the cell below it and down[i] from the cell above it."""
    head = (slice(None),) * ax
    shape = list(up.shape)
    shape[ax] += 0 if periodic else 1
    out = np.empty(shape)
    np.add(up[head + (slice(None, -1),)], down[head + (slice(1, None),)], out=out[head + (slice(1, up.shape[ax]),)])
    if periodic:
        np.add(up[head + (slice(-1, None),)], down[head + (slice(0, 1),)], out=out[head + (slice(0, 1),)])
    else:
        out[head + (0,)] = down[head + (0,)]
        out[head + (-1,)] = up[head + (-1,)]
    return out


def _sweep(grid: BoxGrid, u: np.ndarray):
    """Per cell, the sum of its 2^N corner values and per axis the sum signed by that axis's offset.

    Each level's sums give the next sums and that axis's differences; a
    level is dropped as soon as the next is built, to bound peak memory.
    """
    s, diffs = u, []
    for ax, per in enumerate(grid.periodic):
        for k, t in enumerate(diffs):
            diffs[k] = _along(np.add, t, ax, per)
        diffs.append(_along(np.subtract, s, ax, per))
        s = _along(np.add, s, ax, per)
    return s, diffs


def _sweep_adjoint(grid: BoxGrid, r: np.ndarray, diffs=()) -> np.ndarray:
    """Transpose of `_sweep` (of its corner sums alone without `diffs`): a fresh contiguous node array."""
    diffs = list(diffs)
    for ax in reversed(range(grid.dim)):
        per = grid.periodic[ax]
        if diffs:
            rd = diffs.pop()
            up, down = r + rd, np.subtract(r, rd, out=rd)
        else:
            up = down = r
        r = _along_adjoint(up, down, ax, per)
        for k, t in enumerate(diffs):
            diffs[k] = _along_adjoint(t, t, ax, per)
    return r


@dataclass(frozen=True)
class EnergyParts:
    total: float
    potential: float
    gradient: float


class EnergyModel:
    """Discrete energy and its exact gradient on a BoxGrid."""

    def __init__(
        self,
        grid: BoxGrid,
        pot,
        y_map: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        weight_potential: float = 1.0,
        weight_gradient: float = 1.0,
    ):
        self.grid = grid
        self.pot = pot
        self.wW = float(weight_potential)
        self.wG = float(weight_gradient)
        centers = grid.cell_centers()
        if y_map is not None:
            centers = y_map(centers)
        self._factor = np.asarray(pot.spatial_factor(centers), dtype=float)
        n, hN = grid.dim, grid.h**grid.dim
        self._mean = 1.0 / (1 << n)  # corner sum -> center value
        slope = 1.0 / ((1 << (n - 1)) * grid.h)  # signed corner sum -> averaged edge difference
        self._pot_scale, self._grad_scale = self.wW * hN, self.wG * hN * slope * slope
        self._dp_factor = (self._pot_scale * self._mean) * self._factor[..., None]

    def _cells(self, u: np.ndarray):
        """Energy parts, center values and signed corner sums (center gradients / slope) of u."""
        u = np.asarray(u, dtype=float)
        if not np.isfinite(u).all():
            raise ValueError("field contains non-finite values")
        ubar, dus = _sweep(self.grid, u)
        ubar *= self._mean
        e_pot = self._pot_scale * float((self._factor * self.pot.base(ubar)).sum())
        e_grad = self._grad_scale * float(sum((du * du).sum() for du in dus))
        return EnergyParts(e_pot + e_grad, e_pot, e_grad), ubar, dus

    def energy_parts(self, u: np.ndarray) -> EnergyParts:
        return self._cells(u)[0]

    def gradient(self, u: np.ndarray):
        """(EnergyParts, exact gradient) of the discrete energy, both from one sweep.

        The gradient is a fresh contiguous node array.
        """
        parts, ubar, dus = self._cells(u)
        r = self.pot.base.dp(ubar)
        r *= self._dp_factor
        for du in dus:
            du *= 2.0 * self._grad_scale
        g = _sweep_adjoint(self.grid, r, dus)
        return parts, g


def node_quadrature_weights(grid: BoxGrid) -> np.ndarray:
    """Weights w with sum_cells h^N u_c = sum_nodes w * u (midpoint rule)."""
    n = grid.dim
    return _sweep_adjoint(grid, np.full(grid.cells, grid.h**n / (1 << n)))
