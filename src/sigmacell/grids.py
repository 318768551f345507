"""Midpoint-quadrature energy models on rectangular grids.

A field lives on the nodes of a uniform grid; the energy

    sum_cells  h^N [ f(y(x_c)) * W0(u_c) + |grad u_c|^2 ]

takes the field value at each cell center as the corner average and the
gradient as first-order edge differences averaged to the center.  The
spatial weight f at the cell centers is an input, an array of shape
`grid.cells`: the cell problem evaluates it at y = R x
(`cell._cell_weight`), the diffuse strip at its own centers in y = x/eps.

One forward sweep, an axis at a time, gives the energy: its partial sums
serve the center value and every partial derivative.  Its transpose,
applied once to the cell derivatives, gives the exact gradient, and
applied to the cell volumes, the node quadrature weights.  Periodic axes
omit the duplicate endpoint node; each axis step wraps around.

A grid of more than SLAB_NODES nodes is swept in slabs along axis 0
(loop tiling, Wolf & Lam 1991), so no pass builds a grid-sized
temporary.  A slab is a run of cell rows with its node rows, swept as a
non-periodic axis; on a periodic axis 0 the last slab ends on node
row 0.  The energy sums add up slab by slab, which moves the energy in
its last digits.  Each slab's node contributions are added into one
gradient array, and a node row on a slab boundary gets the one sum
up + down of a single sweep, so the gradient's bytes do not depend on
the slabs.  A grid of at most SLAB_NODES nodes is one slab, with
the arithmetic of one sweep.  Median time of one energy and gradient
call at 1 BLAS thread (d = 1, BENCH_25.json), in ms:

    nodes per slab         4096   8192  16384  32768  65536  one slab
    128 x 129               0.91   0.74   0.67   1.06   1.07   0.97
    256 x 257               3.19   2.56   2.26   2.40   2.27   4.23
    512 x 513              14.0    9.87   9.23   8.85  10.0   20.9
    32 x 32 x 33            2.58   1.87   1.49   1.56   1.45   1.49
    64 x 64 x 65           15.2   13.7   11.9   11.3   12.8   27.9

Slabs of 16384 nodes are within 7% of the fastest size measured
(4096 to 131072) on every grid, and none is slower than one slab
beyond noise (32 x 32 x 33: 1.49 ms both).

`EnergyModel.precondition` applies P^-1, the inverse of the energy
Hessian at a well with the spatial weight replaced by its mean:

    P = 2 h^N slope^2 sum_ax K_ax (x) prod_other M  +  h^N mean^2 c f_mean prod M

on the free nodes, with K = D^T D and M = S^T S for the 1D difference
D = [-1 1] and corner sum S = [1 1], and c the isotropic well curvature
of W0.  The DFT (periodic axes, theta = 2 pi k / n) and the DST-I (the m
free nodes of a Dirichlet axis, theta = pi k / (m + 1)) diagonalize both
1D operators, with symbols 2 - 2 cos(theta) and 2 + 2 cos(theta): the
fast Poisson solver of Hockney (1965) and Swarztrauber (1977).  Two
transforms apply it, chosen by predicted cost:

- dense products: one matrix product per axis with the orthonormal 1D
  eigenvectors (the real Fourier basis, the DST-I), a division by the
  symbol and one product per axis back, the fast diagonalization method
  of Lynch, Rice & Thomas (1964).  With F_ax free nodes per axis they
  cost about (sum_ax F_ax) prod_ax F_ax.  The EIGENBASIS_CACHE_SIZE most
  recently used 1D bases are kept.
- the FFT: one real FFT of the field, extended oddly to length 2(n - 1)
  along each Dirichlet axis of n nodes, about N_ext log2 N_ext for the
  N_ext nodes of the extended grid.

A grid takes the products while their cost is at most DENSE_COST_RATIO
times the FFT's.  At 1 BLAS thread (three runs, BENCH_24.json) the two
run even near a ratio of 9 on thin 3D grids (8 x 8 x 257), near 10 on
periodic x Dirichlet grids (the products take 0.55-1.02 of the FFT's
time on 160 x 161 at 10.1, 1.18-1.47 on 192 x 193 at 11.8) and near 14
on all-Dirichlet grids (0.74-0.83 on 449 x 449 at 11.3, 0.88-0.95 on
513 x 513 at 12.7).  The products take 0.04-0.76 of the FFT's time on
the probes, on the cells of up to 128 x 129 (ratio 8.4) and
64 x 64 x 65 nodes (5.0) and on the 257 x 257 all-Dirichlet tiling
competitor (7.0).

M vanishes at theta = pi on an even periodic axis, so P is singular on
the modes at theta = pi along two periodic axes (in 3D cells, the
(pi, pi, .) modes).  The discrete energy is flat along them,
so the gradient has no component there; P^-1 maps them, like the pinned
nodes, to 0.  The dense transform first removes that component with
exact sign sums, and a grid with three even periodic axes (no cell has
one) takes the FFT.  numpy's FFT runs on one thread, so the FFT's P^-1 v
has the same bytes at any BLAS thread count; the products' bytes can
change with it (tests/test_grids.py checks the grids where they do not).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import log2, prod

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
        return np.stack(np.meshgrid(*self.node_axes(), indexing="ij", copy=False), axis=-1)

    def cell_centers(self) -> np.ndarray:
        axes = [a + self.h * (np.arange(c) + 0.5) for a, c in zip(self.lo, self.cells)]
        return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)

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


@lru_cache(maxsize=None)
def _axis_index(ax: int) -> tuple:
    """Index tuples along axis ax: all entries but the last, all but the first, the first and the last (both
    kept as length-1 axes), and all but both ends."""
    head = (slice(None),) * ax
    return tuple(head + (cut,) for cut in (slice(None, -1), slice(1, None), slice(0, 1), slice(-1, None), slice(1, -1)))


def _along(op, a: np.ndarray, ax: int, periodic: bool) -> np.ndarray:
    """op(a[i + 1], a[i]) for every cell i along axis ax; a periodic axis wraps to a[0]."""
    lo, hi, first, last, _ = _axis_index(ax)
    if not periodic:
        return op(a[hi], a[lo])
    out = np.empty_like(a)
    op(a[hi], a[lo], out=out[lo])
    op(a[first], a[last], out=out[last])
    return out


def _along_adjoint(up: np.ndarray, down: np.ndarray, ax: int, periodic: bool) -> np.ndarray:
    """Node i collects up[i - 1] from the cell below it and down[i] from the cell above it."""
    lo, hi, first, last, inner = _axis_index(ax)
    if periodic:
        out = np.empty(up.shape)
        np.add(up[lo], down[hi], out=out[hi])
        np.add(up[last], down[first], out=out[first])
        return out
    shape = list(up.shape)
    shape[ax] += 1
    out = np.empty(shape)
    np.add(up[lo], down[hi], out=out[inner])
    out[first] = down[first]
    out[last] = up[last]
    return out


def _sweep(periodic: tuple, u: np.ndarray):
    """Per cell, the sum of its 2^N corner values and per axis the sum signed by that axis's offset.

    Each level's sums give the next sums and that axis's differences; a
    level is dropped as soon as the next is built, to bound peak memory.
    """
    s, diffs = u, []
    for ax, per in enumerate(periodic):
        for k, t in enumerate(diffs):
            diffs[k] = _along(np.add, t, ax, per)
        diffs.append(_along(np.subtract, s, ax, per))
        s = _along(np.add, s, ax, per)
    return s, diffs


def _sweep_adjoint(periodic: tuple, r: np.ndarray, diffs=()) -> np.ndarray:
    """Transpose of `_sweep` (of its corner sums alone without `diffs`): a fresh contiguous node array."""
    diffs = list(diffs)
    for ax in reversed(range(len(periodic))):
        per = periodic[ax]
        if diffs:
            rd = diffs.pop()
            up, down = r + rd, np.subtract(r, rd, out=rd)
        else:
            up = down = r
        r = _along_adjoint(up, down, ax, per)
        for k, t in enumerate(diffs):
            diffs[k] = _along_adjoint(t, t, ax, per)
    return r


SLAB_NODES = 16384  # a grid of more nodes is swept in slabs of at most this many along axis 0 (module docstring)


def _slab_bounds(grid: BoxGrid) -> list:
    """Cell-row bounds [c_0 = 0, c_1, ..., c_k = cells along axis 0] of the slabs: one slab up to SLAB_NODES nodes,
    else as few near-equal slabs as keep each at most SLAB_NODES nodes (one cell row, when a row alone has more)."""
    rows = grid.cells[0]
    nodes = prod(grid.shape)
    if nodes <= SLAB_NODES:
        return [0, rows]
    per_slab = max(1, SLAB_NODES // (nodes // grid.shape[0]) - 1)  # a slab of c cell rows holds c + 1 node rows
    count = -(-rows // per_slab)
    return [rows * k // count for k in range(count + 1)]


DENSE_COST_RATIO = 11.5  # dense products while their predicted cost is at most this multiple of the FFT's (docstring)


def _axis_symbols(k: np.ndarray, length: int):
    """The 1D symbols 2 - 2 cos(theta) of K and 2 + 2 cos(theta) of M at theta = 2 pi k / length, M exactly 0 at pi."""
    half_theta = np.pi * k / length
    return 4.0 * np.sin(half_theta) ** 2, np.where(2 * k == length, 0.0, 4.0 * np.cos(half_theta) ** 2)


def _inverse_symbol(symbols: list, a: float, b: float) -> np.ndarray:
    """1 / (a sum_ax K_ax prod_other M + b prod M) from the 1D symbols (K, M) of each axis; 0 where P is singular.

    Built an axis at a time from the scalars total = b and mass = a: each
    axis sets total <- total (x) M + mass (x) K and mass <- mass (x) M
    (outer products), so total is the symbol over the axes so far and
    mass the a prod M part of it.  Where M vanishes on two axes every term
    has a factor 0, so the symbol is exactly 0 there, and stays 0.
    """
    total, mass = b, a
    for k, m in symbols:
        total = np.multiply.outer(total, m)
        total += np.multiply.outer(mass, k)
        mass = np.multiply.outer(mass, m)
    return np.divide(1.0, total, out=total, where=total > 0.0)


def _free_slices(grid: BoxGrid) -> tuple:
    return tuple(slice(None) if per else slice(1, n - 1) for n, per in zip(grid.shape, grid.periodic))


def _predicted_costs(grid: BoxGrid) -> tuple:
    """(dense products, FFT): (sum_ax F_ax) prod_ax F_ax over the free nodes, N log2 N over the extended grid."""
    free = [n if per else n - 2 for n, per in zip(grid.shape, grid.periodic)]
    n_ext = prod(n if per else 2 * (n - 1) for n, per in zip(grid.shape, grid.periodic))
    return sum(free) * prod(free), n_ext * log2(n_ext)


def _even_periodic_axes(grid: BoxGrid) -> tuple:
    """The axes with a theta = pi mode; P is singular on the modes at pi along two of them."""
    return tuple(ax for ax, (n, per) in enumerate(zip(grid.shape, grid.periodic)) if per and n % 2 == 0)


class _WellInverse:
    """v -> P^-1 v for P = a sum_ax K_ax (x) prod_other M + b prod M on the free nodes of a grid (module docstring).

    The field is copied into a fresh buffer that is periodic of
    length 2(n - 1) along each Dirichlet axis of n nodes, extended oddly
    about the pinned nodes 0 and n - 1, which stay 0.  On odd fields the
    periodic stencils of K and M equal their Dirichlet restrictions, so
    one real FFT, a division by the symbol and the inverse FFT apply P^-1.
    A call holds at most the extension and its half spectrum, transformed
    and divided in place; the inverse FFT writes back into the extension,
    and the spectrum is freed before the result is allocated.
    """

    def __init__(self, grid: BoxGrid, d: int, a: float, b: float):
        self._shape = grid.shape + (d,)
        ext = tuple(n if per else 2 * (n - 1) for n, per in zip(grid.shape, grid.periodic))
        self._ext_shape = ext + (d,)
        self._free = _free_slices(grid)
        # one Dirichlet axis at a time, e[n:] = -e[n - 2:0:-1] over the nodes filled so far
        self._mirrors = []
        filled = [slice(None) if per else slice(0, n) for n, per in zip(grid.shape, grid.periodic)]
        for ax, (n, per) in enumerate(zip(grid.shape, grid.periodic)):
            if not per:
                head, tail = tuple(filled[:ax]), tuple(filled[ax + 1 :])
                self._mirrors.append((head + (slice(n, None),) + tail, head + (slice(n - 2, 0, -1),) + tail))
                filled[ax] = slice(None)
        # rfftn halves the last axis
        symbols = [_axis_symbols(np.arange(L // 2 + 1 if ax == grid.dim - 1 else L), L) for ax, L in enumerate(ext)]
        self._inverse = _inverse_symbol(symbols, a, b)[..., None]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        e = np.zeros(self._ext_shape)
        e[self._free] = v.reshape(self._shape)[self._free]
        for dst, src in self._mirrors:
            np.negative(e[src], out=e[dst])
        last = len(self._shape) - 2  # rfftn and irfftn, an axis at a time, the complex axes in place
        spec = np.fft.rfft(e, axis=last)
        for ax in range(last):
            np.fft.fft(spec, axis=ax, out=spec)
        spec *= self._inverse
        for ax in range(last):
            np.fft.ifft(spec, axis=ax, out=spec)
        np.fft.irfft(spec, n=e.shape[last], axis=last, out=e)
        del spec
        out = np.zeros(self._shape)
        out[self._free] = e[self._free]
        return out.reshape(np.shape(v))


# the most recently used 1D bases kept: a grid uses up to 3, and a basis of 450 free nodes takes 1.6 MB
EIGENBASIS_CACHE_SIZE = 16


@lru_cache(maxsize=EIGENBASIS_CACHE_SIZE)  # the arrays are read-only, so every model can share them
def _axis_eigenbasis(n: int, periodic: bool):
    """Orthonormal eigenvectors (columns) of the 1D K and M on the free nodes of an axis of n nodes, and their symbols.

    Periodic: the real Fourier basis, cos(2 pi k j / n) for k = 0 .. n/2
    and sin(2 pi k j / n) for 0 < k < n/2.  Dirichlet: the DST-I,
    sin(pi k j / (n - 1)) on the free nodes j = 1 .. n - 2 for k = 1 .. n - 2.
    Angles are reduced exactly in integers before the trigonometric call.
    """
    if periodic:
        j, length = np.arange(n), n
        k_cos, k_sin = np.arange(n // 2 + 1), np.arange(1, (n + 1) // 2)
        scale = np.where(2 * k_cos % n == 0, 1.0 / np.sqrt(n), np.sqrt(2.0 / n))  # k = 0 and k = n/2 are single
        basis = np.hstack(
            [
                scale * np.cos(2.0 * np.pi * (np.outer(j, k_cos) % n) / n),
                np.sqrt(2.0 / n) * np.sin(2.0 * np.pi * (np.outer(j, k_sin) % n) / n),
            ]
        )
        k = np.concatenate([k_cos, k_sin])
    else:
        j = k = np.arange(1, n - 1)
        length = 2 * (n - 1)
        basis = np.sqrt(2.0 / (n - 1)) * np.sin(2.0 * np.pi * (np.outer(j, k) % length) / length)
    kk, mm = _axis_symbols(k, length)
    for array in (basis, kk, mm):
        array.setflags(write=False)
    return basis, kk, mm


class _DenseWellInverse:
    """v -> P^-1 v = Q diag(1 / symbol) Q^T v with Q the tensor product of the 1D eigenbases (module docstring).

    Each axis is one matrix product that contracts the leading axis and
    appends the result as the last, so the forward pass leaves the
    field as (d, k_0, ..., k_{N-1}) and the backward pass, contracting
    from the last axis, restores (n_0, ..., n_{N-1}, d).  On a grid with
    two even periodic axes the (pi, pi) component along them is first
    removed with exact sign sums: basis products would map it to
    rounding noise, not to 0.
    """

    def __init__(self, grid: BoxGrid, d: int, a: float, b: float):
        self._shape = grid.shape + (d,)
        self._free = _free_slices(grid)
        axes = [_axis_eigenbasis(n, per) for n, per in zip(grid.shape, grid.periodic)]
        self._bases = [q for q, _, _ in axes]
        self._free_shape = tuple(len(q) for q in self._bases) + (d,)
        # the other free nodes and components, per axis: reshapes that hold when an axis has no free node
        self._rest = [int(np.prod(self._free_shape[:ax] + self._free_shape[ax + 1 :])) for ax in range(grid.dim)]
        self._inverse = _inverse_symbol([(kk, mm) for _, kk, mm in axes], a, b)
        even = _even_periodic_axes(grid)
        self._null = None
        if len(even) == 2:  # the (pi, pi) sign pattern, broadcast along the other axes and the components
            shapes = [(-1,) + (1,) * (grid.dim - ax) for ax in even]
            sign = reduce(np.multiply, [(-1.0) ** np.arange(grid.shape[ax]).reshape(s) for ax, s in zip(even, shapes)])
            self._null = (even, sign)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        x = v.reshape(self._shape)[self._free]
        if self._null is not None:
            axes, sign = self._null
            x = x - (x * sign).sum(axis=axes, keepdims=True) / sign.size * sign
        for q, rest in zip(self._bases, self._rest):
            x = x.reshape(len(q), rest).T @ q
        x = x.reshape(self._free_shape[-1:] + self._inverse.shape) * self._inverse
        for q, rest in zip(reversed(self._bases), reversed(self._rest)):
            x = q @ x.reshape(rest, len(q)).T
        out = np.zeros(self._shape)
        out[self._free] = x.reshape(self._free_shape)
        return out.reshape(np.shape(v))


@dataclass(frozen=True)
class EnergyParts:
    total: float
    potential: float
    gradient: float


class EnergyModel:
    """Discrete energy and its exact gradient on a BoxGrid, with the spatial weight f given at its cell centers."""

    def __init__(self, grid: BoxGrid, pot, weight: np.ndarray):
        self._factor = np.asarray(weight, dtype=float)
        if self._factor.shape != grid.cells:
            raise ValueError(f"weight has shape {self._factor.shape}, the grid has {grid.cells} cells")
        self.grid = grid
        self.pot = pot
        n, hN = grid.dim, grid.h**grid.dim
        self._mean = 1.0 / (1 << n)  # corner sum -> center value
        slope = 1.0 / ((1 << (n - 1)) * grid.h)  # signed corner sum -> averaged edge difference
        self._pot_scale, self._grad_scale = hN, hN * slope * slope
        self._dp_scale = 2.0 * self._pot_scale * self._mean  # W0' = 2 value_and_half_dp
        self._slabs = _slab_bounds(grid)

    def _slab(self, u: np.ndarray, rows: slice, periodic: tuple):
        """(sum f W0, sum of the squared signed corner sums) over the cell rows `rows`, whose node rows are u,
        and the gradient's contributions on those node rows."""
        if not np.isfinite(u).all():
            raise ValueError("field contains non-finite values")
        ubar, dus = _sweep(periodic, u)
        ubar *= self._mean
        grad_sum = float(sum((du * du).sum() for du in dus))
        w0, r = self.pot.base.value_and_half_dp(ubar)
        w0 *= self._factor[rows]
        pot_sum = float(w0.sum())
        r *= np.multiply(self._dp_scale, self._factor[rows], out=w0)[..., None]  # W0's buffer, read above
        for du in dus:
            du *= 2.0 * self._grad_scale
        return pot_sum, grad_sum, _sweep_adjoint(periodic, r, dus)

    def _evaluate(self, u: np.ndarray):
        """(EnergyParts, gradient), slab by slab along axis 0 (module docstring)."""
        u = np.asarray(u, dtype=float)
        bounds, periodic = self._slabs, self.grid.periodic
        if len(bounds) == 2:
            pot_sum, grad_sum, g = self._slab(u, slice(None), periodic)
        else:
            pot_sum = grad_sum = 0.0
            g = np.empty(u.shape)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                wrap = hi == len(u)  # the last slab of a periodic axis 0 ends on node row 0
                nodes = np.concatenate((u[lo:], u[:1])) if wrap else u[lo : hi + 1]
                p, q, out = self._slab(nodes, slice(lo, hi), (False,) + periodic[1:])
                pot_sum += p
                grad_sum += q
                # a boundary node row gets one slab's up + the next slab's down, in either order: one exact sum
                g[lo + 1 : hi] = out[1:-1]
                if lo == 0:
                    g[0] = out[0]
                else:
                    g[lo] += out[0]
                if wrap:
                    g[0] += out[-1]
                else:
                    g[hi] = out[-1]
        e_pot, e_grad = self._pot_scale * pot_sum, self._grad_scale * grad_sum
        return EnergyParts(e_pot + e_grad, e_pot, e_grad), g

    def energy_parts(self, u: np.ndarray) -> EnergyParts:
        return self._evaluate(u)[0]

    def gradient(self, u: np.ndarray):
        """(EnergyParts, exact gradient) of the discrete energy, both from one sweep.

        W0 and W0' come from one pass over the center values.  The
        gradient is a fresh contiguous node array.
        """
        return self._evaluate(u)

    @cached_property
    def _well_inverse(self):
        well = self._pot_scale * self._mean**2 * self.pot.base.well_curvature * float(self._factor.mean())
        grid = self.grid
        # three even periodic axes (no cell or strip has them) make null modes that one sign sum cannot remove
        dense_cost, fft_cost = _predicted_costs(grid)
        dense = dense_cost <= DENSE_COST_RATIO * fft_cost and len(_even_periodic_axes(grid)) <= 2
        return (_DenseWellInverse if dense else _WellInverse)(grid, self.pot.d, 2.0 * self._grad_scale, well)

    def precondition(self, v: np.ndarray) -> np.ndarray:
        """P^-1 v (module docstring) as a fresh array of v's shape: 0 on pinned nodes and on the null modes of P.

        The symbol is built at the first call.
        """
        return self._well_inverse(v)


def node_quadrature_weights(grid: BoxGrid) -> np.ndarray:
    """Weights w with sum_cells h^N u_c = sum_nodes w * u (midpoint rule)."""
    n = grid.dim
    return _sweep_adjoint(grid.periodic, np.full(grid.cells, grid.h**n / (1 << n)))


def closed_nodes(u: np.ndarray, periodic) -> np.ndarray:
    """Node values (..., d) with the duplicate endpoint appended on periodic axes."""
    return np.pad(u, [(0, int(p)) for p in periodic] + [(0, 0)], mode="wrap")
