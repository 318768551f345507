"""Tiling a large cell with copies of a small-cell minimizer.

Copies of a converged transition, placed at integer shifts along the
interface plane and blended to the mollified step, form an admissible
competitor for the large cell: its energy density bounds g(S) from
above, and the measured remainder tracks the subadditivity estimate.
"""

import time

from sigmacell import Mollifier, RationalRotation, TransitionProfile, homogeneous_quartic
from sigmacell.cell import CellGrid, minimize_cell
from sigmacell.tiling import plan_tiling, subadditivity_gap

pot = homogeneous_quartic()
prof = TransitionProfile(pot.wells, Mollifier("bump", 0.5), dim=2)

plan = plan_tiling(T=4.0, S=16.0, m=3, rotation=RationalRotation.identity(2))
print(f"plan: {plan.count} copies, centers {plan.centers.tolist()}, shifts {plan.shifts.tolist()}")

t0 = time.time()
grid = CellGrid(2, 4.0, 1 / 16, tangential="dirichlet")
res_T, u_T = minimize_cell(grid, pot, prof)
print(f"small cell: g(4) = {res_T.g:.4f}  ({res_T.iterations} iterations)")

rep = subadditivity_gap(u_T, 4.0, 16.0, 3, pot, prof)
print(f"competitor density e_S        = {rep.e_S:.4f}")
print(f"solved large cell g(16)       = {rep.g_S:.4f}   (g(S) <= e_S: {rep.g_S <= rep.e_S})")
print(f"measured remainder e_S - g(4) = {rep.remainder:.4f}")
print(f"[{time.time() - t0:.0f}s]")

print("\nthinner blending shells (larger m) at fixed cells:")
for m in (2, 3):
    rep = subadditivity_gap(u_T, 4.0, 18.0, m, pot, prof)
    print(f"  m={m}: e_S = {rep.e_S:.4f}, remainder = {rep.remainder:.4f}")
