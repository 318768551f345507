"""Mollifiers and the one-dimensional transition profile.

The boundary data of every cell problem is the mollified step: a sharp
two-phase step convolved with a compactly supported unit-mass kernel.
Because the step depends on the point only through its component along
the interface normal, the convolution reduces to one dimension: the
profile is the cumulative distribution of the kernel's 1D marginal.

The marginal is tabulated once per (mollifier, dimension) and integrated
through a shape-preserving cubic interpolant.  It depends on s only
through s^2, so its quadrature is evaluated once per distinct |s| of the
table, in blocks of 256 rows, with about 2 MB of scratch.  Through the
interpolant, evaluation in the solver hot loop is a vectorized
polynomial lookup with exact constant tails.  The interpolant is the
monotone cubic of Fritsch & Carlson (1980) in numpy, built and read in
the steps and floating-point order of scipy's `PchipInterpolator` and
its `antiderivative()`, so it equals scipy's bitwise.
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


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at a table end, with the two shape fixes of Moler's pchiptx."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and np.abs(d) > 3.0 * np.abs(m0):
        return 3.0 * m0
    return d


def _monotone_cubic(x, y) -> np.ndarray:
    """Coefficients (4, n - 1), highest power of s - x[i] first, of the monotone cubic through (x, y).
    A node's slope is the weighted harmonic mean of its two secants, or 0 where they differ in sign or one is 0."""
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):  # the flat nodes are set to 0
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _antiderivative(coef: np.ndarray, x) -> np.ndarray:
    """Coefficients of the antiderivative of `coef` that is 0 at x[0]. The constant of interval i is
    interval i-1 read at its right end: the constants accumulate left to right, each from its constant term up."""
    k = coef.shape[0]
    out = np.zeros((k + 1, coef.shape[1]))
    out[:-1] = coef / np.arange(k, 0, -1.0)[:, None]
    h = x[1:] - x[:-1]
    terms = out[-2::-1, :-1] * np.cumprod(np.broadcast_to(h[:-1], (k, h.size - 1)), axis=0)
    out[-1] = np.add.accumulate(np.concatenate(([0.0], terms.T.ravel())))[::k]
    return out


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


def _evaluate(coef: np.ndarray, x, p):
    """The piecewise polynomial `coef` on breakpoints x read at p, in the interval x[i] <= p < x[i+1] clipped to
    the end intervals, summed from the constant term up with the powers of s = p - x[i] built by repeated products."""
    i = _interval(x, p)
    s = p - x[i]
    out, z = 0.0 + coef[-1, i], 1.0
    for row in coef[-2::-1]:
        z = z * s
        out = out + row[i] * z
    return out


class TransitionProfile:
    """The mollified two-phase step reduced to one dimension, at unit width.

    The profile is `a + (b - a) * Phi(s)` where Phi is the cumulative
    marginal of the kernel: exactly `a` for s <= -r, exactly `b` for
    s >= r, strictly monotone between, and equal to the well midpoint at
    s = 0 (the kernel is even).  A transition of width eps is this
    profile read at s / eps.
    """

    def __init__(self, wells: WellPair, mollifier: Mollifier, dim: int):
        self.wells = wells
        self.dim = dim
        s, density = _marginal_table(mollifier, dim)
        self._table = s
        self._density = _monotone_cubic(s, density)
        self._cdf = _antiderivative(self._density, s)
        self._normalization = float(_evaluate(self._cdf, s, s[-1]))  # kernel mass along the marginal
        if not self._normalization > 0:
            raise ValueError("mollifier has zero mass")
        self._support = mollifier.radius

    def check_fits(self, dim: int, wells: WellPair) -> None:
        """Raise ValueError unless the profile was built for dimension `dim` and for `wells`."""
        if self.dim != dim:
            raise ValueError(f"transition profile built for dimension {self.dim}, the grid has dimension {dim}")
        if not (np.array_equal(self.wells.a, wells.a) and np.array_equal(self.wells.b, wells.b)):
            raise ValueError("transition profile built for other wells than the potential's")

    def fraction(self, s) -> np.ndarray:
        """Phi(s): the b-phase fraction, clamped to exact tails."""
        s = np.asarray(s, dtype=float)
        above = s >= self._support
        out = np.where(above, 1.0, 0.0)
        inside = ~(above | (s <= -self._support))  # NaN counts as inside, so it propagates
        out[inside] = np.clip(_evaluate(self._cdf, self._table, s[inside]) / self._normalization, 0.0, 1.0)
        return out

    def __call__(self, s) -> np.ndarray:
        """Phase value at signed distance s; shape (..., d)."""
        frac = self.fraction(s)
        a, b = self.wells.a, self.wells.b
        return a + frac[..., None] * (b - a)

    def slope(self, s) -> np.ndarray:
        """d/ds of the profile; shape (..., d)."""
        s = np.asarray(s, dtype=float)
        inside = np.abs(s) < self._support
        dens = np.zeros(s.shape)
        dens[inside] = _evaluate(self._density, self._table, s[inside])
        frac_slope = dens / self._normalization
        return frac_slope[..., None] * (self.wells.b - self.wells.a)


def step_field(nu, y, wells: WellPair) -> np.ndarray:
    """Sharp step: the a-phase where y . nu <= 0, the b-phase beyond."""
    nu = np.asarray(nu, dtype=float)
    y = np.asarray(y, dtype=float)
    s = y @ nu
    return np.where((s > 0.0)[..., None], wells.b, wells.a)
