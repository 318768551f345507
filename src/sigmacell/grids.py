"""Midpoint-quadrature energy models on rectangular grids.

A field lives on the nodes of a uniform grid; the energy

    sum_cells  h^N [ f(y(x_c)) * W0(u_c) + |grad u_c|^2 ]

takes the field value at each cell center as the corner average and the
gradient as first-order edge differences averaged to the center.  The
spatial weight f is evaluated once per model at the (mapped) cell
centers and cached; the map carries the cell problem's rotation (the
identity for the diffuse strip, which is solved in y = x/eps).

One forward sweep, an axis at a time, gives the energy: its partial sums
serve the center value and every partial derivative.  Its transpose,
applied once to the cell derivatives, gives the exact gradient, and
applied to the cell volumes, the node quadrature weights.  Periodic axes
omit the duplicate endpoint node; each axis step wraps around.

`EnergyModel.precondition` applies P^-1, the inverse of the energy
Hessian at a well with the spatial weight replaced by its mean:

    P = 2 h^N slope^2 sum_ax K_ax (x) prod_other M  +  h^N mean^2 c f_mean prod M

on the free nodes, with K = D^T D and M = S^T S for the 1D difference
D = [-1 1] and corner sum S = [1 1], and c the isotropic well curvature
of W0.  The DFT (periodic axes, theta = 2 pi k / n) and the DST-I (the m
free nodes of a Dirichlet axis, theta = pi k / (m + 1)) diagonalize both
1D operators, with symbols 2 - 2 cos(theta) and 2 + 2 cos(theta): the
fast Poisson solver of Hockney (1965) and Swarztrauber (1977).  One real
FFT of the field, extended oddly to length 2(m + 1) along each Dirichlet
axis, applies it.  M vanishes at theta = pi on an even periodic axis, so
P is singular on the modes at theta = pi along two periodic axes (in 3D
cells, the (pi, pi, .) modes).  The discrete energy is flat along them,
so the gradient has no component there; P^-1 maps them, like the pinned
nodes, to 0.  numpy's FFT runs on one thread, so P^-1 v is the same at
any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import numpy as np

__all__ = ["BoxGrid", "EnergyParts", "EnergyModel", "node_quadrature_weights", "closed_nodes"]


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
        if not self.h > 0:
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

    def pinned_faces(self) -> list:
        """Index tuples of both end faces of every non-periodic axis: the pinned nodes, faces may share edges."""
        faces = []
        for ax, p in enumerate(self.periodic):
            if not p:
                faces += [(slice(None),) * ax + (0,), (slice(None),) * ax + (-1,)]
        return faces

    def boundary_mask(self) -> np.ndarray:
        """True on the pinned nodes, the union of `pinned_faces`."""
        mask = np.zeros(self.shape, dtype=bool)
        for face in self.pinned_faces():
            mask[face] = True
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


class _WellInverse:
    """v -> P^-1 v for P = a sum_ax K_ax (x) prod_other M + b prod M on the free nodes of a grid (module docstring).

    The field is copied into a preallocated buffer that is periodic of
    length 2(n - 1) along each Dirichlet axis of n nodes, extended oddly
    about the pinned nodes 0 and n - 1, which stay 0.  On odd fields the
    periodic stencils of K and M equal their Dirichlet restrictions, so
    one real FFT, a division by the symbol and the inverse FFT apply P^-1.
    """

    def __init__(self, grid: BoxGrid, d: int, a: float, b: float):
        self._shape = grid.shape + (d,)
        ext = tuple(n if per else 2 * (n - 1) for n, per in zip(grid.shape, grid.periodic))
        self._free = tuple(slice(None) if per else slice(1, n - 1) for n, per in zip(grid.shape, grid.periodic))
        # one Dirichlet axis at a time, e[n:] = -e[n - 2:0:-1] over the nodes filled so far
        self._mirrors = []
        filled = [slice(None) if per else slice(0, n) for n, per in zip(grid.shape, grid.periodic)]
        for ax, (n, per) in enumerate(zip(grid.shape, grid.periodic)):
            if not per:
                head, tail = tuple(filled[:ax]), tuple(filled[ax + 1 :])
                self._mirrors.append((head + (slice(n, None),) + tail, head + (slice(n - 2, 0, -1),) + tail))
                filled[ax] = slice(None)
        kk, mm = [], []  # the 1D symbols of K and M, shaped to broadcast along their axis
        for ax, L in enumerate(ext):
            k = np.arange(L // 2 + 1 if ax == grid.dim - 1 else L)  # rfftn halves the last axis
            half_theta = np.pi * k / L
            along = (-1,) + (1,) * (grid.dim - 1 - ax)
            kk.append((4.0 * np.sin(half_theta) ** 2).reshape(along))  # 2 - 2 cos(theta)
            mm.append(np.where(2 * k == L, 0.0, 4.0 * np.cos(half_theta) ** 2).reshape(along))  # exactly 0 at pi
        symbol = b * reduce(np.multiply, mm)
        for ax in range(grid.dim):
            symbol = symbol + a * reduce(np.multiply, mm[:ax] + [kk[ax]] + mm[ax + 1 :])
        inverse = np.zeros(symbol.shape)
        np.divide(1.0, symbol, out=inverse, where=symbol > 0.0)
        self._inverse = inverse[..., None]
        self._ext = np.zeros(ext + (d,))
        self._spec = np.empty(inverse.shape + (d,), dtype=complex)
        self._back = np.empty_like(self._ext)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        e = self._ext
        e[self._free] = v.reshape(self._shape)[self._free]
        for dst, src in self._mirrors:
            np.negative(e[src], out=e[dst])
        spec, last = self._spec, len(self._shape) - 2  # rfftn and irfftn, an axis at a time and in place
        np.fft.rfft(e, axis=last, out=spec)
        for ax in range(last):
            np.fft.fft(spec, axis=ax, out=spec)
        spec *= self._inverse
        for ax in range(last):
            np.fft.ifft(spec, axis=ax, out=spec)
        np.fft.irfft(spec, n=e.shape[last], axis=last, out=self._back)
        out = np.zeros(self._shape)
        out[self._free] = self._back[self._free]
        return out.reshape(np.shape(v))


@dataclass(frozen=True)
class EnergyParts:
    total: float
    potential: float
    gradient: float


class EnergyModel:
    """Discrete energy and its exact gradient on a BoxGrid."""

    def __init__(self, grid: BoxGrid, pot, y_map: Callable[[np.ndarray], np.ndarray]):
        self.grid = grid
        self.pot = pot
        self._factor = np.asarray(pot.spatial_factor(y_map(grid.cell_centers())), dtype=float)
        n, hN = grid.dim, grid.h**grid.dim
        self._mean = 1.0 / (1 << n)  # corner sum -> center value
        slope = 1.0 / ((1 << (n - 1)) * grid.h)  # signed corner sum -> averaged edge difference
        self._pot_scale, self._grad_scale = hN, hN * slope * slope
        self._dp_factor = (self._pot_scale * self._mean) * self._factor[..., None]

    def _centers(self, u: np.ndarray):
        """Center values and signed corner sums (center gradients / slope) of u."""
        u = np.asarray(u, dtype=float)
        if not np.isfinite(u).all():
            raise ValueError("field contains non-finite values")
        ubar, dus = _sweep(self.grid, u)
        ubar *= self._mean
        return ubar, dus

    def _parts(self, w0: np.ndarray, dus) -> EnergyParts:
        """Energy parts from the base potential W0 and the signed corner sums at the centers."""
        e_pot = self._pot_scale * float((self._factor * w0).sum())
        e_grad = self._grad_scale * float(sum((du * du).sum() for du in dus))
        return EnergyParts(e_pot + e_grad, e_pot, e_grad)

    def energy_parts(self, u: np.ndarray) -> EnergyParts:
        ubar, dus = self._centers(u)
        return self._parts(self.pot.base(ubar), dus)

    def gradient(self, u: np.ndarray):
        """(EnergyParts, exact gradient) of the discrete energy, both from one sweep.

        W0 and W0' come from one pass over the center values.  The
        gradient is a fresh contiguous node array.
        """
        ubar, dus = self._centers(u)
        w0, r = self.pot.base.value_and_dp(ubar)
        parts = self._parts(w0, dus)
        r *= self._dp_factor
        for du in dus:
            du *= 2.0 * self._grad_scale
        g = _sweep_adjoint(self.grid, r, dus)
        return parts, g

    @cached_property
    def _well_inverse(self) -> _WellInverse:
        well = self._pot_scale * self._mean**2 * self.pot.base.well_curvature * float(self._factor.mean())
        return _WellInverse(self.grid, self.pot.d, 2.0 * self._grad_scale, well)

    def precondition(self, v: np.ndarray) -> np.ndarray:
        """P^-1 v (module docstring) as a fresh array of v's shape: 0 on pinned nodes and on the null modes of P.

        The symbol and the transform buffers are built at the first call.
        """
        return self._well_inverse(v)


def node_quadrature_weights(grid: BoxGrid) -> np.ndarray:
    """Weights w with sum_cells h^N u_c = sum_nodes w * u (midpoint rule)."""
    n = grid.dim
    return _sweep_adjoint(grid, np.full(grid.cells, grid.h**n / (1 << n)))


def closed_nodes(u: np.ndarray, periodic) -> np.ndarray:
    """Node values (..., d) with the duplicate endpoint appended on periodic axes."""
    return np.pad(u, [(0, int(p)) for p in periodic] + [(0, 0)], mode="wrap")
