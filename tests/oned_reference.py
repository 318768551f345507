"""One-dimensional reference solutions for the tests.

Independent cross-checks for the cell solver: the optimal transition on
an interval is computed by collocation on the Euler-Lagrange boundary
value problem (a completely different method from the grid descent), and
field energies of known 1D profiles are integrated by quadrature.

The interface normal is e2 of the plane: the spatial weight is read
along the line s e2.  Valid whenever the weight varies only along that
normal, which covers the homogeneous quartic and stripes normal to e2
(striped(alpha, axis=1)).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from sigmacell.potential import Potential
from sigmacell.profile import TransitionProfile

__all__ = ["transition_bvp_energy", "profile_energy_1d"]

# Collocation starts tanh(s - c): a layer centred on a weight crest is a
# critical point, not the minimum, so the layer centre is scanned over
# one unit period of the weight.  A weight constant along the normal has
# no crest, and only the centred start runs.
LAYER_CENTRES = tuple(k / 8 for k in range(8))


def _normal_weight(pot: Potential) -> Callable[[np.ndarray], np.ndarray]:
    """s -> f(s e2), the spatial weight along the interface normal."""
    e2 = np.array([0.0, 1.0])

    def f(s: np.ndarray) -> np.ndarray:
        pts = np.asarray(s, dtype=float)[..., None] * e2
        return pot.spatial_factor(pts)

    return f


def transition_bvp_energy(pot: Potential, profile: TransitionProfile, T: float) -> float:
    """Energy per unit area of the optimal 1D transition on [-T/2, T/2].

    Solves 2 u'' = f(s) W0'(u) with the mollified-step boundary values by
    collocation from each start tanh(s - c), c in LAYER_CENTRES (c = 0
    alone when f is constant on the collocation mesh), then
    integrates f(s) W0(u) + u'^2 on 801 points and returns the lowest
    energy.  Starts whose collocation fails are skipped.  Only scalar
    phases are supported (the oracle use case).
    """
    from scipy.integrate import solve_bvp  # imported here so that profile_energy_1d needs numpy alone

    if pot.d != 1:
        raise ValueError("the 1D oracle supports scalar phases only")
    f = _normal_weight(pot)
    half = T / 2.0
    ua = float(profile(np.array(-half))[0])
    ub = float(profile(np.array(half))[0])

    def rhs(s, y):
        u, du = y
        w = f(s)
        wp = pot.base.dp(u[..., None])[..., 0]
        return np.vstack([du, 0.5 * w * wp])

    def bc(ya, yb):
        return np.array([ya[0] - ua, yb[0] - ub])

    s0 = np.linspace(-half, half, 41)
    s = np.linspace(-half, half, 801)
    w0 = f(s0)
    centres = (0.0,) if np.all(w0 == w0[0]) else LAYER_CENTRES
    energies, messages = [], []
    for c in centres:
        y0 = np.vstack([np.tanh(s0 - c), 1.0 / np.cosh(s0 - c) ** 2])
        sol = solve_bvp(rhs, bc, s0, y0, tol=1e-10, max_nodes=20000)
        if not sol.success:
            messages.append(sol.message)
            continue
        u, du = sol.sol(s)
        integrand = f(s) * pot.base(u[..., None]) + du**2
        energies.append(float(np.trapezoid(integrand, s)))
    if not energies:
        raise RuntimeError(f"1D collocation failed from every start: {messages}")
    return min(energies)


def profile_energy_1d(pot: Potential, profile: TransitionProfile, T: float) -> float:
    """Energy per unit area of the mollified-step profile itself (trapezoid rule, 20001 points)."""
    f = _normal_weight(pot)
    half = T / 2.0
    s = np.linspace(-half, half, 20001)
    u = profile(s)
    du = profile.slope(s)
    integrand = f(s) * pot.base(u) + (du * du).sum(axis=-1)
    return float(np.trapezoid(integrand, s))
