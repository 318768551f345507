"""Tour of the built-in periodic double-well potentials.

Each potential is a spatial weight times the quartic double well; this
script evaluates them at a few points, prints their lower envelopes, and
runs the structural validators.
"""

import numpy as np

from sigmacell import (
    checkerboard,
    homogeneous_quartic,
    piecewise_cells,
    smooth_modulated,
    striped,
    validate_hypotheses,
)

pots = [
    homogeneous_quartic(),
    striped(0.5),
    checkerboard(2.0),
    piecewise_cells(np.array([[1.0, 2.0], [2.0, 4.0]])),
    smooth_modulated(0.5),
]

y = np.array([0.1, 0.1])
print("values at y=(0.1, 0.1), p=0 (the midpoint between the wells):")
for pot in pots:
    print(f"  {pot.kind:20s} W = {float(pot(y, [0.0])):.4f}"
          f"   envelope scale = {pot.lower_envelope().weight.value:.2f}")

print("\nwells vanish everywhere:")
for pot in pots:
    ys = np.random.default_rng(0).uniform(-2, 2, size=(5, 2))
    vals = pot(ys, np.broadcast_to(pot.wells.a, (5, 1)))
    print(f"  {pot.kind:20s} max |W(., a)| = {np.abs(vals).max():.1e}")

print("\nstructural hypotheses (periodicity, zero set, envelope, growth):")
for pot in pots:
    rep = validate_hypotheses(pot, sample_count=1000, seed=1)
    for line in rep.summary_lines():
        print(f"  {pot.kind:20s} {line}")
    print()
