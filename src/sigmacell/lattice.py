"""Exact rational directions and rotations.

Directions on the unit sphere with rational coordinates admit rotations
with rational entries; scaled by the lcm of the entry denominators, such
a rotation maps the standard lattice into Z^N.  Cube edges taken as
multiples of that lattice period keep a unit-periodic potential exactly
periodic along the rotated axes, which is what makes tiling arguments
work without any interpolation error.

All algebra here runs in `fractions.Fraction`; invariants are checked
with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import ceil, floor, lcm
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RationalUnitVector",
    "RationalRotation",
    "rationalize_direction",
    "rotation_from_direction",
    "lattice_period",
    "check_periodicity",
    "random_rational_directions",
]


def _as_fraction_tuple(components: Iterable) -> tuple:
    return tuple(Fraction(c) for c in components)


@dataclass(frozen=True)
class RationalUnitVector:
    """A point of Q^N on the unit sphere, stored exactly."""

    components: tuple

    def __post_init__(self):
        comps = _as_fraction_tuple(self.components)
        if len(comps) < 2:
            raise ValueError("directions need dimension >= 2")
        if sum(c * c for c in comps) != 1:
            raise ValueError("components must have exact unit norm")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return len(self.components)

    def as_float(self) -> np.ndarray:
        return np.array([float(c) for c in self.components])

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def _mat_mul(A: Sequence[Sequence[Fraction]], B: Sequence[Sequence[Fraction]]) -> tuple:
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_det(A: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    det = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in [list(r) for r in A[1:]]]
        det += (-1) ** j * A[0][j] * _mat_det(minor)
    return det


@dataclass(frozen=True)
class RationalRotation:
    """Exactly orthogonal rational matrix with det = 1; `period` is its lattice period, computed from it."""

    matrix: tuple
    period: int = field(init=False)

    def __post_init__(self):
        M = tuple(tuple(Fraction(v) for v in row) for row in self.matrix)
        n = len(M)
        if any(len(row) != n for row in M):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(n):
                dot = sum(M[k][i] * M[k][j] for k in range(n))
                if dot != (1 if i == j else 0):
                    raise ValueError("matrix is not exactly orthogonal")
        if _mat_det(M) != 1:
            raise ValueError("matrix must have determinant 1")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "period", lattice_period(M))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def as_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.matrix])

    def lattice_vectors(self) -> np.ndarray:
        """Integer vectors period * (column j), one per column."""
        n = self.dim
        out = np.empty((n, n), dtype=np.int64)
        for j in range(n):
            for i in range(n):
                v = self.period * self.matrix[i][j]
                out[j, i] = int(v)
        return out

    @classmethod
    def identity(cls, dim: int) -> "RationalRotation":
        M = tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(dim)) for i in range(dim)
        )
        return cls(M)


def lattice_period(matrix) -> int:
    """Smallest positive integer clearing every entry denominator."""
    return lcm(*[Fraction(v).denominator for row in matrix for v in row])


def _stereographic_point(t: Sequence[Fraction], pole_axis: int, sign: int, dim: int) -> tuple:
    """Map a rational parameter t in Q^(dim-1) to a rational sphere point.

    The distinguished coordinate sits at `pole_axis` with orientation
    `sign`; the map is mu_pole = (1 - |t|^2) / (1 + |t|^2),
    mu_rest = 2 t / (1 + |t|^2).
    """
    t2 = sum(ti * ti for ti in t)
    denom = 1 + t2
    mu_pole = sign * (1 - t2) / denom
    rest = [2 * ti / denom for ti in t]
    comps = []
    k = 0
    for i in range(dim):
        if i == pole_axis:
            comps.append(mu_pole)
        else:
            comps.append(rest[k])
            k += 1
    return tuple(comps)


RATIONAL_TOL_MIN = 1e-9  # smallest tolerance `rationalize_direction` accepts


def rationalize_direction(nu, tol: float) -> RationalUnitVector:
    """Approximate a real unit direction by an exact rational one.

    Searches rational points obtained by inverse stereographic projection
    of rational parameters with increasing denominator; the first
    denominator level with a hit opens a window up to twice that level,
    and among all candidates within the componentwise tolerance the one
    with the smallest coordinate-denominator lcm (ties broken
    lexicographically) is returned.  Only candidates whose float error
    is within tol + 1e-9 are built as Fractions and tested exactly.
    """
    if tol < RATIONAL_TOL_MIN:
        raise ValueError(f"tolerance below {RATIONAL_TOL_MIN:g} would blow up denominators")
    nu = np.asarray(nu, dtype=float)
    if not np.isfinite(nu).all():
        raise ValueError("input direction must be finite")
    dim = nu.size
    norm = float(np.linalg.norm(nu))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError("input direction must be a unit vector (within 1e-12)")
    nu = nu / norm

    pole_axis = int(np.argmax(np.abs(nu)))
    sign = 1 if nu[pole_axis] >= 0 else -1
    rest = np.delete(nu, pole_axis)
    t_star = (rest / (1.0 + sign * nu[pole_axis])).tolist()
    nu_pole, nu_rest = float(nu[pole_axis]), rest.tolist()
    screen = tol + 1e-9

    def numerators_at(q: int):
        """Numerators a of the parameters t = a / q next to t_star."""
        grids = []
        for ts in t_star:
            lo, hi = floor(ts * q), ceil(ts * q)
            grids.append((lo,) if lo == hi else (lo, hi))
        return product(*grids)

    q_max = int(np.ceil(4.0 / tol)) + 1
    hits: list = []
    q_hit = None
    q = 1
    while q <= q_max:
        q2 = q * q
        for a in numerators_at(q):
            # the sphere point of t = a / q in floats: only candidates this close become Fractions
            a2 = sum(ai * ai for ai in a)
            denom = q2 + a2
            err = abs(sign * (q2 - a2) / denom - nu_pole)
            err = max([err] + [abs(2 * ai * q / denom - x) for ai, x in zip(a, nu_rest)])
            if err > screen:
                continue
            mu = _stereographic_point(tuple(Fraction(ai, q) for ai in a), pole_axis, sign, dim)
            err = max(abs(float(c) - nu[i]) for i, c in enumerate(mu))
            if err <= tol:
                hits.append(mu)
                if q_hit is None:
                    q_hit = q
        if q_hit is not None and q >= 2 * q_hit:
            break
        q += 1
    if not hits:
        raise RuntimeError("no rational direction found within tolerance")

    def key(mu):
        return (lcm(*[c.denominator for c in mu]), mu)

    best = min(set(hits), key=key)
    return RationalUnitVector(best)


def rotation_from_direction(nu: RationalUnitVector) -> RationalRotation:
    """Exact rotation sending the last coordinate axis to `nu`.

    Built as the composition of two reflections: one through the bisector
    of e_N and nu (which swaps them), one fixing nu (restoring
    orientation).  Both have rational entries because the squared norms
    involved are rational.
    """
    n = nu.dim
    e_last = tuple(Fraction(1) if i == n - 1 else Fraction(0) for i in range(n))
    if nu.components == e_last:
        return RationalRotation.identity(n)

    def householder(w: tuple) -> tuple:
        w2 = sum(wi * wi for wi in w)
        return tuple(
            tuple(
                (Fraction(1) if i == j else Fraction(0)) - 2 * w[i] * w[j] / w2
                for j in range(n)
            )
            for i in range(n)
        )

    w = tuple(e_last[i] - nu.components[i] for i in range(n))
    H1 = householder(w)
    z = tuple(H1[i][0] for i in range(n))  # image of e_1, orthogonal to nu
    H2 = householder(z)
    R = _mat_mul(H2, H1)
    return RationalRotation(R)


@dataclass
class PeriodicityReport:
    passed: bool
    shifts: np.ndarray
    failures: list


def check_periodicity(pot, rotation: RationalRotation, samples: int, seed: int) -> PeriodicityReport:
    """Verify W(z, p) = W(z - period * R e_i, p) at z = x + period * R e_i on random samples.

    For an integer shift both points reduce to one point of the unit cube,
    however x + shift rounds.  Piecewise weights compare bit-exactly,
    smooth ones to 1e-12 relative.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    n = rotation.dim
    d = pot.d
    shifts = rotation.lattice_vectors()
    x = rng.uniform(0.0, 1.0, size=(samples, n))
    p = rng.uniform(-2.0, 2.0, size=(samples, d))
    failures = []
    for i in range(n):
        bad = pot.shift_defects(x, p, shifts[i], 1e-12)
        if bad.any():
            j = int(np.argmax(bad))
            failures.append((x[j].copy(), p[j].copy(), i))
    return PeriodicityReport(not failures, shifts, failures)


def random_rational_directions(dim: int, count: int, seed: int) -> list:
    """Exact rational unit vectors from random stereographic parameters with denominators up to 40."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q = int(rng.integers(1, 41))
        t = tuple(Fraction(int(rng.integers(-2 * q, 2 * q + 1)), q) for _ in range(dim - 1))
        pole_axis = int(rng.integers(0, dim))
        sign = 1 if rng.integers(0, 2) else -1
        mu = _stereographic_point(t, pole_axis, sign, dim)
        out.append(RationalUnitVector(mu))
    return out
