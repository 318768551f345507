"""Surface tension of the homogeneous quartic well: the isotropic oracle.

For a spatially constant potential the cell value is direction
independent and converges to 8/3 (= twice the integral of sqrt(W)
between the wells).  The run compares the grid solver's extrapolated
value on two directions against that exact limit.
"""

import time
from fractions import Fraction

from sigmacell import (
    Mollifier,
    RationalUnitVector,
    TransitionProfile,
    estimate_sigma,
    homogeneous_quartic,
    rotation_from_direction,
)

pot = homogeneous_quartic()
prof = TransitionProfile(pot.wells, Mollifier("bump", 0.5), dim=2)

for comps in (((0, 1), (1, 1)), ((3, 5), (4, 5))):
    nu = RationalUnitVector(tuple(Fraction(*c) for c in comps))
    rot = rotation_from_direction(nu)
    t0 = time.time()
    est = estimate_sigma(rot, [2.0, 4.0, 8.0], pot, prof, h=1 / 32)
    rel = abs(est.sigma_hat - 8 / 3) / (8 / 3)
    print(f"direction {nu}:")
    for T, h, g in est.per_T:
        print(f"  T={T:4g} h={h:g}  g = {g:.6f}")
    print(f"  sigma_hat = {est.sigma_hat:.6f} +- {est.error_bar:.1e}"
          f"   rel err vs 8/3: {rel:.2e}   [{time.time() - t0:.1f}s]\n")
