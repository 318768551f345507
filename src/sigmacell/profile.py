"""Mollifiers and the one-dimensional transition profile.

The boundary data of every cell problem is the mollified step: a sharp
two-phase step convolved with a compactly supported unit-mass kernel.
Because the step depends on the point only through its component along
the interface normal, the convolution reduces to one dimension: the
profile is the cumulative distribution of the kernel's 1D marginal.

The marginal is tabulated once per (mollifier, dimension) on 4,097
points.  It depends on s only through s^2, so its quadrature is
evaluated once per distinct |s| of the table, in blocks of 256 rows,
with about 2 MB of scratch.  The CDF table sums the marginal by the
end-corrected trapezoid rule, and the CDF is read by the cubic Hermite
interpolant whose slopes are the tabulated marginal, the CDF's own
derivative: a vectorized lookup with exact constant tails, within
4e-13 of adaptive quadrature for both shapes in dimensions 1 to 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import WellPair

__all__ = [
    "Mollifier",
    "TransitionProfile",
    "step_field",
]

_TABLE_POINTS = 4097  # 4096 intervals across the support
_MARGINAL_BLOCK = 256  # table rows per block of quadrature scratch


def _bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/(1-s^2)) on |s| < 1, zero outside."""
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def _poly(s: np.ndarray) -> np.ndarray:
    """(1-s^2)^3 on |s| < 1, zero outside; a C^2 cutoff."""
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = (1.0 - si * si) ** 3
    return out


_SHAPES: dict = {"bump": _bump, "polynomial": _poly}


@dataclass(frozen=True)
class Mollifier:
    """Even, compactly supported, unit-mass kernel.

    `shape` selects the radial profile; `radius` is the support radius.
    The unit-mass normalization constant is computed once by quadrature
    when a profile is built.
    """

    shape: str = "bump"
    radius: float = 0.5

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown mollifier shape {self.shape!r}")
        if not 0.0 < self.radius <= 1.0:
            raise ValueError("support radius must lie in (0, 1]")

    def radial(self, r: np.ndarray) -> np.ndarray:
        """Unnormalized kernel value at radius r."""
        return _SHAPES[self.shape](np.asarray(r, dtype=float) / self.radius)


def _marginal_rows(moll: Mollifier, dim: int, a: np.ndarray, nodes, weights) -> np.ndarray:
    """The unnormalized marginal at the distances a = |s| >= 0, each row's quadrature a contiguous row sum."""
    if dim == 1:
        return moll.radial(a)
    half = np.sqrt(np.maximum(moll.radius * moll.radius - a * a, 0.0))
    if dim == 2:
        # integrate over w in [-half, half]
        w = half[:, None] * nodes[None, :]
        vals = moll.radial(np.sqrt(a[:, None] ** 2 + w**2))
        return (vals * weights[None, :]).sum(axis=1) * half
    # 2*pi * int_0^half rho(sqrt(s^2+t^2)) t dt
    t = 0.5 * half[:, None] * (nodes[None, :] + 1.0)
    vals = moll.radial(np.sqrt(a[:, None] ** 2 + t**2)) * t
    return 2.0 * np.pi * (vals * weights[None, :]).sum(axis=1) * 0.5 * half


def _marginal_table(moll: Mollifier, dim: int):
    """Tabulate the 1D marginal of the kernel along a fixed axis.

    For a radial kernel the marginal is the integral over the orthogonal
    slice; in 2D a line integral, in 3D a polar disc integral.  It depends
    on s only through s^2, so each distinct |s| of the table is evaluated
    once, _MARGINAL_BLOCK rows at a time: the quadrature scratch stays
    near 2 MB at any table size.  The table is later normalized so the
    marginal has unit mass.
    """
    if dim not in (1, 2, 3):
        raise ValueError("marginals implemented for dimensions 1, 2, 3")
    r = moll.radius
    s = np.linspace(-r, r, _TABLE_POINTS)
    a, inverse = np.unique(np.abs(s), return_inverse=True)
    nodes, weights = np.polynomial.legendre.leggauss(96)
    rows = np.empty(a.size)
    for lo in range(0, a.size, _MARGINAL_BLOCK):
        rows[lo : lo + _MARGINAL_BLOCK] = _marginal_rows(moll, dim, a[lo : lo + _MARGINAL_BLOCK], nodes, weights)
    return s, rows[inverse]


def _interval(x, p):
    """The interval x[i] <= p < x[i+1] on the uniform breakpoints x, clipped to the end intervals.

    The index (p - x[0]) / step is off by at most one from the breakpoints' rounding, and one
    comparison each way corrects it: the same i as `searchsorted(x, p, side="right") - 1`, clipped.
    """
    last = x.size - 2
    step = (x[-1] - x[0]) / (last + 1)
    i = np.fmin(np.fmax(np.floor((p - x[0]) / step), 0.0), last).astype(np.intp)  # fmax sends NaN to 0
    i -= (p < x[i]) & (i > 0)
    i += (p >= x[i + 1]) & (i < last)
    return i


class TransitionProfile:
    """The mollified two-phase step reduced to one dimension, at unit width.

    The profile is `a + (b - a) * Phi(s)` where Phi is the cumulative
    marginal of the kernel: exactly `a` for s <= -r, exactly `b` for
    s >= r, monotone between (to 1e-15), and equal to the well midpoint at
    s = 0 to 1e-15 (the kernel is even).  A transition of width eps is this
    profile read at s / eps.
    """

    def __init__(self, wells: WellPair, mollifier: Mollifier, dim: int):
        self.wells = wells
        self.dim = dim
        s, density = _marginal_table(mollifier, dim)
        # the end-corrected trapezoid rule on each table interval, the marginal's derivative from np.gradient
        step, dd = np.diff(s), np.gradient(density, s)
        pieces = step / 2 * (density[:-1] + density[1:]) + step * step / 12 * (dd[:-1] - dd[1:])
        cdf = np.concatenate(([0.0], np.cumsum(pieces)))
        if not cdf[-1] > 0:
            raise ValueError("mollifier has zero mass")
        self._table = s
        self._cdf = cdf / cdf[-1]  # kernel mass along the marginal normalized to 1
        self._density = density / cdf[-1]

    def check_fits(self, dim: int, wells: WellPair) -> None:
        """Raise ValueError unless the profile was built for dimension `dim` and for `wells`."""
        if self.dim != dim:
            raise ValueError(f"transition profile built for dimension {self.dim}, the grid has dimension {dim}")
        if not (np.array_equal(self.wells.a, wells.a) and np.array_equal(self.wells.b, wells.b)):
            raise ValueError("transition profile built for other wells than the potential's")

    def fraction(self, s) -> np.ndarray:
        """Phi(s): the b-phase fraction, exactly 0 for s <= -r and 1 for s >= r; NaN propagates.

        Phi is the cubic Hermite interpolant of the cumulative table with the tabulated density,
        Phi's own derivative, as its slopes.  Points are clipped to the table, whose end points
        read t = 0 or 1 and so the end values 0 and 1 exactly.
        """
        x, cdf, dens = self._table, self._cdf, self._density
        p = np.clip(np.asarray(s, dtype=float), x[0], x[-1])
        i = _interval(x, p)
        j = i + 1
        h = x[j] - x[i]
        t = (p - x[i]) / h
        u, lo = 1.0 - t, cdf[i]
        out = lo + t * (t * (3.0 - 2.0 * t) * (cdf[j] - lo) + h * u * (u * dens[i] - t * dens[j]))
        return np.clip(out, 0.0, 1.0)  # next to a high-order zero of the density the cubic leaves [0, 1] by ~1e-15

    def __call__(self, s) -> np.ndarray:
        """Phase value at signed distance s; shape (..., d)."""
        frac = self.fraction(s)
        a, b = self.wells.a, self.wells.b
        return a + frac[..., None] * (b - a)

    def slope(self, s) -> np.ndarray:
        """d/ds of the profile, the density table read linearly and 0 beyond the support; shape (..., d)."""
        dens = np.interp(s, self._table, self._density, left=0.0, right=0.0)
        return dens[..., None] * (self.wells.b - self.wells.a)


def step_field(nu, y, wells: WellPair) -> np.ndarray:
    """Sharp step: the a-phase where y . nu <= 0, the b-phase beyond."""
    nu = np.asarray(nu, dtype=float)
    y = np.asarray(y, dtype=float)
    s = y @ nu
    return np.where((s > 0.0)[..., None], wells.b, wells.a)
