"""Mollifiers and the one-dimensional transition profile.

The boundary data of every cell problem is the mollified step: a sharp
two-phase step convolved with a compactly supported unit-mass kernel.
Because the step depends on the point only through its component along
the interface normal, the convolution reduces to one dimension: the
profile is the cumulative distribution of the kernel's 1D marginal.

The marginal is tabulated once per (mollifier, dimension) and integrated
through a shape-preserving cubic interpolant, so evaluation in the solver
hot loop is a vectorized polynomial lookup with exact constant tails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .potential import WellPair

__all__ = [
    "Mollifier",
    "TransitionProfile",
    "step_field",
]

_TABLE_POINTS = 4097  # 4096 intervals across the support


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


def _marginal_table(moll: Mollifier, dim: int):
    """Tabulate the 1D marginal of the kernel along a fixed axis.

    For a radial kernel the marginal is the integral over the orthogonal
    slice; in 2D a line integral, in 3D a polar disc integral.  The table
    is later normalized so the marginal has unit mass.
    """
    r = moll.radius
    s = np.linspace(-r, r, _TABLE_POINTS)
    if dim == 1:
        density = moll.radial(np.abs(s))
    else:
        nodes, weights = np.polynomial.legendre.leggauss(96)
        half = np.sqrt(np.maximum(r * r - s * s, 0.0))
        if dim == 2:
            # integrate over w in [-half, half]
            w = half[:, None] * nodes[None, :]
            vals = moll.radial(np.sqrt(s[:, None] ** 2 + w**2))
            density = (vals * weights[None, :]).sum(axis=1) * half
        elif dim == 3:
            # 2*pi * int_0^half rho(sqrt(s^2+t^2)) t dt
            t = 0.5 * half[:, None] * (nodes[None, :] + 1.0)
            vals = moll.radial(np.sqrt(s[:, None] ** 2 + t**2)) * t
            density = 2.0 * np.pi * (vals * weights[None, :]).sum(axis=1) * 0.5 * half
        else:
            raise ValueError("marginals implemented for dimensions 1, 2, 3")
    return s, density


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
        self.mollifier = mollifier
        self.dim = dim
        s, density = _marginal_table(mollifier, dim)
        spline = PchipInterpolator(s, density)
        cdf = spline.antiderivative()
        self._normalization = float(cdf(s[-1]))  # kernel mass along the marginal
        if not self._normalization > 0:
            raise ValueError("mollifier has zero mass")
        self._cdf = cdf
        self._density_spline = spline
        self._support = mollifier.radius

    def fraction(self, s) -> np.ndarray:
        """Phi(s): the b-phase fraction, clamped to exact tails."""
        s = np.asarray(s, dtype=float)
        out = self._cdf(np.clip(s, -self._support, self._support)) / self._normalization
        out = np.clip(out, 0.0, 1.0)
        out = np.where(s <= -self._support, 0.0, out)
        out = np.where(s >= self._support, 1.0, out)
        return out

    def __call__(self, s) -> np.ndarray:
        """Phase value at signed distance s; shape (..., d)."""
        frac = self.fraction(s)
        a, b = self.wells.a, self.wells.b
        return a + frac[..., None] * (b - a)

    def slope(self, s) -> np.ndarray:
        """d/ds of the profile; shape (..., d)."""
        s = np.asarray(s, dtype=float)
        dens = np.where(
            np.abs(s) < self._support,
            self._density_spline(np.clip(s, -self._support, self._support)),
            0.0,
        )
        frac_slope = dens / self._normalization
        return frac_slope[..., None] * (self.wells.b - self.wells.a)


def step_field(nu, y, wells: WellPair) -> np.ndarray:
    """Sharp step: the a-phase where y . nu <= 0, the b-phase beyond."""
    nu = np.asarray(nu, dtype=float)
    y = np.asarray(y, dtype=float)
    s = y @ nu
    return np.where((s > 0.0)[..., None], wells.b, wells.a)
