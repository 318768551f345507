"""Mollified step profiles: the boundary data of every cell problem.

The sharp two-phase step convolved with a compactly supported kernel
reduces to a one-dimensional profile in the normal coordinate; outside
the kernel support it equals the wells exactly.
"""

import numpy as np

from sigmacell import Mollifier, TransitionProfile, homogeneous_quartic

pot = homogeneous_quartic()
wells = pot.wells

for shape in ("bump", "polynomial"):
    prof = TransitionProfile(wells, Mollifier(shape, radius=0.5), dim=2)
    s = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    vals = prof(s)[:, 0]
    print(f"{shape} kernel, radius 1/2:")
    print("  s      :", "  ".join(f"{x:+.2f}" for x in s))
    print("  profile:", "  ".join(f"{v:+.4f}" for v in vals))
    # the energy W0(u) + |u'|^2 of the profile itself, trapezoid rule on 20001 points
    t = np.linspace(-2.0, 2.0, 20001)
    e = np.trapezoid(pot.base(prof(t)) + (prof.slope(t) ** 2).sum(axis=-1), t)
    print(f"  1D energy of the profile on [-2, 2]: {e:.4f}"
          f"  (the optimal transition costs 8/3 = {8 / 3:.4f})")
    print()

prof = TransitionProfile(wells, Mollifier("bump", 0.5), dim=2)
print("scale law: read at x / eps, the transition narrows to |x| < r eps")
x = np.linspace(-1.0, 1.0, 4001)
for eps in (1.0, 0.5, 0.25):
    frac = prof.fraction(x / eps)
    half = np.abs(x[(frac > 0.0) & (frac < 1.0)]).max()
    print(f"  eps={eps:g}: the widest node strictly inside the transition is at |x| = {half:g}")
