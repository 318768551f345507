"""Sharp-interface energies on polyhedral interfaces.

A polyhedral interface is a list of facets (exact rational unit normal,
positive measure) that closes up: it satisfies the divergence identity
sum_i measure_i * normal_i = 0.  The anisotropic energy weighs each facet
by the surface tension at its normal, looked up in a direction table with
piecewise-linear interpolation in angle (2D).  Curved interfaces are
approximated by polygons with rationalized normals, restoring closure by
a least-squares adjustment of the edge lengths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .lattice import RationalUnitVector, rationalize_direction

__all__ = [
    "PolyFacet",
    "PolyInterface",
    "SigmaTable",
    "interface_energy",
    "polygonal_approximation",
    "convexity_check",
    "ConvexityViolation",
]


@dataclass(frozen=True)
class PolyFacet:
    """One flat piece of interface: exact rational normal, positive measure."""

    normal: RationalUnitVector
    measure: float

    def __post_init__(self):
        if not self.measure > 0:
            raise ValueError("facet measure must be positive")


@dataclass(frozen=True)
class PolyInterface:
    """A closed interface: construction checks the closure identity."""

    facets: tuple

    def __post_init__(self):
        facets = tuple(self.facets)
        if not facets:
            raise ValueError("interface needs at least one facet")
        object.__setattr__(self, "facets", facets)
        if np.linalg.norm(self.resultant()) > 1e-10 * max(1.0, self.perimeter()):
            raise ValueError("closed interface violates the closure identity")

    def resultant(self) -> np.ndarray:
        return sum(f.measure * f.normal.as_float() for f in self.facets)

    def perimeter(self) -> float:
        return float(sum(f.measure for f in self.facets))

    def dilated(self, factor: float) -> "PolyInterface":
        if factor <= 0:
            raise ValueError("dilation factor must be positive")
        return PolyInterface(tuple(PolyFacet(f.normal, factor * f.measure) for f in self.facets))


@dataclass(frozen=True)
class SigmaEntryRecord:
    nu: np.ndarray
    sigma: float
    err: float


class SigmaTable:
    """Directional surface-tension table with angular interpolation (2D).

    Entries are (unit 2-vector direction, value, error bar), the value
    and error bar finite and nonnegative.  Lookup interpolates linearly
    in angle between the bracketing entries; directions farther from the
    nearest entry than the table's angular mesh (the median consecutive
    gap) raise instead of extrapolating.
    """

    def __init__(self, entries: Iterable, potential_info: Optional[dict] = None):
        recs = []
        for nu, sigma, err in entries:
            nu, sigma, err = np.asarray(nu, dtype=float), float(sigma), float(err)
            if nu.shape != (2,) or not abs(np.linalg.norm(nu) - 1.0) <= 1e-9:
                raise ValueError(f"table directions must be unit 2-vectors, got {nu.tolist()}")
            if not (np.isfinite([sigma, err]).all() and min(sigma, err) >= 0):
                raise ValueError(f"surface tension and error bar must be finite and nonnegative, got {sigma}, {err}")
            recs.append(SigmaEntryRecord(nu, sigma, err))
        if not recs:
            raise ValueError("table must contain at least one direction")
        self.potential_info = potential_info or {}
        angles = np.array([np.arctan2(r.nu[1], r.nu[0]) for r in recs])
        order = np.argsort(angles)
        self.entries = [recs[i] for i in order]
        self.angles = angles[order]  # of the entries, ascending
        if len(set(np.round(self.angles, 12))) != len(recs):
            raise ValueError("table directions must be distinct")
        gaps = np.diff(np.concatenate([self.angles, [self.angles[0] + 2 * np.pi]]))
        self.angular_mesh = float(np.median(gaps)) if len(recs) > 1 else 2 * np.pi

    def _locate(self, nu):
        """The bracketing entries i, j of direction nu and its angular fraction t between them."""
        nu = np.asarray(nu, dtype=float)
        two_pi = 2 * np.pi
        theta = np.mod(float(np.arctan2(nu[1], nu[0])) - self.angles[0], two_pi) + self.angles[0]
        idx = int(np.searchsorted(self.angles, theta, side="right") - 1)
        j = (idx + 1) % len(self.angles)
        th0 = self.angles[idx]
        th1 = self.angles[j] if j != 0 else self.angles[0] + two_pi
        dist_nearest = min(abs(theta - th0), abs(th1 - theta))
        if dist_nearest > self.angular_mesh + 1e-12:
            raise KeyError(
                f"direction at angle {theta:.6f} is {dist_nearest:.4f} rad from the nearest "
                f"table entry, beyond the angular mesh {self.angular_mesh:.4f}"
            )
        t = 0.0 if th1 == th0 else (theta - th0) / (th1 - th0)
        return idx, j, t

    def sigma_at(self, nu) -> float:
        i, j, t = self._locate(nu)
        return (1 - t) * self.entries[i].sigma + t * self.entries[j].sigma

    def err_at(self, nu) -> float:
        i, j, t = self._locate(nu)
        return (1 - t) * self.entries[i].err + t * self.entries[j].err

    def to_json(self) -> str:
        doc = {
            "dimension": 2,
            "potential": self.potential_info,
            "entries": [
                {"nu": [float(v) for v in r.nu], "sigma": r.sigma, "err": r.err}
                for r in self.entries
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SigmaTable":
        doc = json.loads(text)
        entries = doc.get("entries") if isinstance(doc, dict) else None
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("a sigma table is a JSON object whose entries are a list of objects")
        if doc.get("dimension", 2) != 2:
            raise ValueError("angular interpolation is implemented for dimension 2")
        if not isinstance(doc.get("potential", {}), dict):
            raise ValueError("a sigma table's potential record is a JSON object")
        entries = [(e["nu"], e["sigma"], e["err"]) for e in entries]
        return cls(entries, doc.get("potential", {}))


def interface_energy(interface: PolyInterface, table: SigmaTable) -> float:
    """Sum of sigma(normal) * measure over the facets."""
    return float(sum(table.sigma_at(f.normal.as_float()) * f.measure for f in interface.facets))


def _segments_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def polygonal_approximation(vertices: np.ndarray, tol: float) -> PolyInterface:
    """Closed polygon with rationalized edge normals.

    Edge normals are replaced by exact rational directions within `tol`
    (componentwise); the closure identity, broken by the replacement, is
    restored by the least-squares adjustment of the edge lengths.  The
    perimeter is guaranteed to move by at most `tol` relatively.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError("vertices must be an (n, 2) array")
    if len(v) < 3:
        raise ValueError("a closed curve needs at least 3 vertices")
    if np.allclose(v[0], v[-1]):
        v = v[:-1]
    n = len(v)
    if n < 3:
        raise ValueError("a closed curve needs at least 3 distinct vertices")
    # simple-curve check: non-adjacent edges must not cross
    edges = [(v[i], v[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j in (i, (i + 1) % n, (i - 1) % n) or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(*edges[i], *edges[j]):
                raise ValueError(f"curve self-intersects (edges {i} and {j})")
    # orient counter-clockwise so edge normals point outward
    area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
    if area2 < 0:
        v = v[::-1]
    diffs = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(diffs, axis=1)
    if (lengths <= 0).any():
        raise ValueError("degenerate zero-length edge")
    normals_float = np.stack([diffs[:, 1], -diffs[:, 0]], axis=1) / lengths[:, None]

    rationals = [rationalize_direction(nf, tol) for nf in normals_float]
    M = np.stack([r.as_float() for r in rationals], axis=1)  # 2 x n
    resid = M @ lengths
    # least-squares length adjustment restoring closure
    delta = -M.T @ np.linalg.solve(M @ M.T, resid)
    new_lengths = lengths + delta
    if (new_lengths <= 0).any():
        raise ValueError("closure adjustment produced a non-positive edge; tighten the tolerance")
    perim_in = float(lengths.sum())
    perim_out = float(new_lengths.sum())
    if abs(perim_out - perim_in) > tol * perim_in:
        raise ValueError("closure adjustment moved the perimeter by more than the tolerance")
    facets = tuple(PolyFacet(r, float(l)) for r, l in zip(rationals, new_lengths))
    return PolyInterface(facets)


@dataclass
class ConvexityViolation:
    nu1: np.ndarray
    nu2: np.ndarray
    lhs: float
    rhs: float
    slack: float


def convexity_check(table: SigmaTable) -> list:
    """One-homogeneous subadditivity on all direction pairs of the table.

    For each pair (v1, v2) with v0 = v1 + v2 normalizable and within the
    table's reach, checks |v0| sigma(v0/|v0|) <= sigma(v1) + sigma(v2) up
    to the summed error bars; returns the violating pairs.
    """
    if len(table.entries) < 3:
        raise ValueError("convexity check needs at least 3 directions")
    violations = []
    recs = table.entries
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            v0 = recs[i].nu + recs[j].nu
            norm = float(np.linalg.norm(v0))
            if norm < 1e-9:
                continue  # antipodal pair
            hat = v0 / norm
            try:
                s0 = table.sigma_at(hat)
                e0 = table.err_at(hat)
            except KeyError:
                continue  # outside interpolation reach
            lhs = norm * s0
            rhs = recs[i].sigma + recs[j].sigma
            slack = recs[i].err + recs[j].err + e0
            if lhs > rhs + slack:
                violations.append(ConvexityViolation(recs[i].nu, recs[j].nu, lhs, rhs, slack))
    return violations
