"""Sharp-interface energies on polygons under isotropic and anisotropic tables.

A sampled circle is approximated by a polygon with exact rational edge
normals; interfaces are then ranked by the direction-weighted perimeter.
Isotropic tables prefer round shapes, axis-cheap tables prefer squares.
"""

import numpy as np
from fractions import Fraction

from sigmacell import RationalUnitVector
from sigmacell.surface import (
    PolyFacet,
    PolyInterface,
    SigmaTable,
    interface_energy,
    polygonal_approximation,
)

F = Fraction

theta = np.arange(64) * 2 * np.pi / 64
circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
poly = polygonal_approximation(circle, tol=1e-2)
print(f"64-gon from a sampled circle: perimeter {poly.perimeter():.5f} (2 pi = {2 * np.pi:.5f})")
print(f"closure defect |sum measure * normal| = {np.linalg.norm(poly.resultant()):.1e}")
print(f"all {len(poly.facets)} edge normals are exact rational unit vectors\n")

area = 0.5 * 64 * np.sin(2 * np.pi / 64)  # enclosed by the polygon
side = float(np.sqrt(area))
axes = [((1, 0)), ((-1, 0)), ((0, 1)), ((0, -1))]
square = PolyInterface(tuple(
    PolyFacet(RationalUnitVector((F(a), F(b))), side) for a, b in axes
))

dirs = np.arange(32) * 2 * np.pi / 32
iso = SigmaTable([((np.cos(t), np.sin(t)), 1.0, 0.0) for t in dirs])
aniso = SigmaTable([((np.cos(t), np.sin(t)), 1.0 + 1.5 * np.sin(2 * t) ** 2, 0.0) for t in dirs])

for name, table in (("isotropic", iso), ("axis-cheap anisotropic", aniso)):
    e_square, e_poly = interface_energy(square, table), interface_energy(poly, table)
    print(f"{name} table: square = {e_square:.4f}, 64-gon = {e_poly:.4f}"
          f"  ->  smaller: {'square' if e_square < e_poly else '64-gon'}")

print("\nscaling: dilating an interface scales its energy linearly (2D)")
for lam in (0.5, 2.0):
    print(f"  lambda={lam}: {interface_energy(poly.dilated(lam), iso):.5f}"
          f" = {lam} * {interface_energy(poly, iso):.5f}")
