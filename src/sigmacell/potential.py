"""Periodic double-well energy densities.

Every built-in potential W(y, p) is the product of a unit-cube-periodic
spatial weight f(y) and a homogeneous double well W0(p) vanishing exactly
at the two phase values a and b.  The spatial weight is evaluated after
reducing y modulo the unit cube, so periodicity holds by construction
(bit-exactly for the piecewise-constant kinds).  Each potential carries a
growth certificate (C, q) asserting the sandwich

    |p|^q / C - C  <=  W(y, p)  <=  C (1 + |p|^q),

which is checked by sampling rather than inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "WellPair",
    "GrowthCertificate",
    "Potential",
    "HypothesisReport",
    "homogeneous_quartic",
    "striped",
    "checkerboard",
    "piecewise_cells",
    "smooth_modulated",
    "validate_hypotheses",
]


def reduce_unit_cell(y: np.ndarray) -> np.ndarray:
    """Reduce spatial points to the half-open unit cube [0, 1)^N."""
    y = np.asarray(y, dtype=float)
    return y - np.floor(y)


@dataclass(frozen=True)
class WellPair:
    """The two phase values at which the potential vanishes."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("wells must be vectors of equal length")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("wells must be finite")
        if np.array_equal(a, b):
            raise ValueError("wells must be distinct")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.a.size

    @property
    def separation(self) -> float:
        """Euclidean distance between the wells (sets solver scales)."""
        return float(np.linalg.norm(self.b - self.a))


@dataclass(frozen=True)
class GrowthCertificate:
    """Constants of the q-growth sandwich; stored data, not inferred."""

    C: float
    q: float

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError("growth constant C must be positive")
        if not self.q >= 2:
            raise ValueError("growth exponent q must be at least 2")

    def lower(self, p_norm: np.ndarray) -> np.ndarray:
        return p_norm**self.q / self.C - self.C

    def upper(self, p_norm: np.ndarray) -> np.ndarray:
        return self.C * (1.0 + p_norm**self.q)


@dataclass(frozen=True)
class QuarticBase:
    """W0(p) = |p - a|^2 |p - b|^2, the prototype double well."""

    wells: WellPair

    @property
    def well_curvature(self) -> float:
        """c = 2 |b - a|^2: the Hessian of W0 at either well is c times the identity."""
        return 2.0 * self.wells.separation**2

    def _offsets(self, p: np.ndarray):
        """p - a, p - b and their squared norms."""
        p = np.asarray(p, dtype=float)
        da = p - self.wells.a
        db = p - self.wells.b
        if p.shape[-1] == 1:  # the same bytes as the sums over a length-1 axis
            return da, db, np.square(da[..., 0]), np.square(db[..., 0])
        return da, db, (da * da).sum(axis=-1), (db * db).sum(axis=-1)

    def __call__(self, p: np.ndarray) -> np.ndarray:
        _, _, sa, sb = self._offsets(p)
        return sa * sb

    def dp(self, p: np.ndarray) -> np.ndarray:
        return self.value_and_dp(p)[1]

    def value_and_half_dp(self, p: np.ndarray):
        """(W0(p), grad W0(p) / 2) from one pass over p."""
        da, db, sa, sb = self._offsets(p)
        da *= sb[..., None]
        db *= sa[..., None]
        da += db
        return sa * sb, da

    def value_and_dp(self, p: np.ndarray):
        """(W0(p), grad W0(p)) from one pass over p; equal to __call__ and dp bit for bit (doubling is exact)."""
        w0, half = self.value_and_half_dp(p)
        half *= 2.0
        return w0, half


@dataclass(frozen=True)
class ConstantWeight:
    value: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value > 0):
            raise ValueError("constant weight must be positive and finite")

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.full(y.shape[:-1], self.value)

    min_value = property(lambda self: self.value)
    piecewise = True  # constant is trivially exact under shifts
    varying_axes = ()  # the axes of y the weight varies along


@dataclass(frozen=True)
class StripeWeight:
    """1 + alpha * cos(2 pi y_axis); smooth, varies along one axis."""

    alpha: float
    axis: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("stripe amplitude must lie in [0, 1)")

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = reduce_unit_cell(y)
        if not 0 <= self.axis < y.shape[-1]:
            raise ValueError(f"stripe axis {self.axis} is not an axis of {y.shape[-1]}-dimensional points")
        return 1.0 + self.alpha * np.cos(2.0 * np.pi * y[..., self.axis])

    @property
    def min_value(self) -> float:
        return 1.0 - self.alpha

    varying_axes = property(lambda self: (self.axis,))
    piecewise = False


@dataclass(frozen=True)
class CheckerboardWeight:
    """Factor `contrast` on cells of even parity, 1 elsewhere.

    The unit cube is split into 2^N half-size cells; the cell containing
    the origin corner carries the contrast factor.
    """

    contrast: float

    def __post_init__(self):
        if not (np.isfinite(self.contrast) and self.contrast > 0):
            raise ValueError("contrast must be positive and finite")

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = reduce_unit_cell(y)
        idx = np.floor(2.0 * y).astype(np.int64)
        idx = np.clip(idx, 0, 1)
        parity = idx.sum(axis=-1) % 2
        return np.where(parity == 0, self.contrast, 1.0)

    @property
    def min_value(self) -> float:
        return min(1.0, self.contrast)

    piecewise = True


@dataclass(frozen=True)
class CellsWeight:
    """Piecewise-constant factors on an m^N grid partition of the unit cube.

    Points on cell boundaries take the cell whose lower corner they are
    (floor indexing); the tie-break is measure-zero.
    """

    factors: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.factors, dtype=float)
        if f.ndim < 1 or f.size == 0 or (np.array(f.shape) != f.shape[0]).any():
            raise ValueError("factors must be an m^N array")
        if not (np.isfinite(f) & (f > 0)).all():
            raise ValueError("cell factors must be positive and finite")
        object.__setattr__(self, "factors", f)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = reduce_unit_cell(y)
        m = self.factors.shape[0]
        n = self.factors.ndim
        if y.shape[-1] != n:
            raise ValueError(f"points have dimension {y.shape[-1]}, partition has {n}")
        idx = np.clip(np.floor(m * y).astype(np.int64), 0, m - 1)
        return self.factors[tuple(np.moveaxis(idx, -1, 0))]

    @property
    def min_value(self) -> float:
        return float(self.factors.min())

    piecewise = True


@dataclass(frozen=True)
class SmoothWeight:
    """1 + alpha * prod_i cos(2 pi y_i); smooth, varies in all axes."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("modulation amplitude must lie in [0, 1)")

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = reduce_unit_cell(y)
        return 1.0 + self.alpha * np.cos(2.0 * np.pi * y).prod(axis=-1)

    @property
    def min_value(self) -> float:
        return 1.0 - self.alpha

    piecewise = False


@dataclass(frozen=True)
class Potential:
    """A separable periodic double-well density W(y, p) = f(y) W0(p)."""

    kind: str
    wells: WellPair
    growth: GrowthCertificate
    weight: Callable[[np.ndarray], np.ndarray]
    base: QuarticBase
    params: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.wells.d

    @property
    def piecewise(self) -> bool:
        return bool(getattr(self.weight, "piecewise", False))

    def varying_axes(self, dim: int) -> tuple:
        """The axes of y the weight varies along: those it states, or all `dim` of them if it states none."""
        return tuple(getattr(self.weight, "varying_axes", range(dim)))

    def spatial_factor(self, y: np.ndarray) -> np.ndarray:
        return self.weight(np.asarray(y, dtype=float))

    def cell_weight(self, cells: tuple, centres: Callable[[], np.ndarray]) -> np.ndarray:
        """f at the centres `centres()` (..., dim) of a grid's cells, as floats of shape `cells`; a constant weight is
        filled in without calling `centres`, with the same bytes."""
        if isinstance(self.weight, ConstantWeight):
            return np.full(cells, float(self.weight.value))
        return np.asarray(self.spatial_factor(centres()), dtype=float).reshape(cells)

    def __call__(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self.spatial_factor(y) * self.base(p)

    def dp(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self.spatial_factor(y)[..., None] * self.base.dp(p)

    def lower_envelope(self) -> "Potential":
        """The homogeneous lower bound (min_y f) W0(p) = min_y W(y, p), itself a potential."""
        scale = float(self.weight.min_value)
        growth = GrowthCertificate(max(4.0, 4.0 / scale), 4.0)
        return Potential("lower-envelope", self.wells, growth, ConstantWeight(scale), self.base)

    def differs(self, a: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
        """Mask where values a of this potential (or of its weight) differ from their expected values b:
        bitwise for piecewise weights, beyond `rtol` relative otherwise."""
        if self.piecewise:
            return a != b
        return np.abs(a - b) > rtol * np.maximum(1.0, np.abs(b))

    def shift_defects(self, y: np.ndarray, p: np.ndarray, w: np.ndarray, shift, rtol: float) -> np.ndarray:
        """Mask of the samples where W(y + shift, p) differs from w = W(y, p), by `differs`."""
        return self.differs(self(y + shift, p), w, rtol)

    def describe(self) -> dict:
        """JSON-ready description (kind, parameters, wells, growth)."""
        return {
            "kind": self.kind,
            "parameters": {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in self.params.items()},
            "wells": {"a": self.wells.a.tolist(), "b": self.wells.b.tolist()},
            "growth": {"C": self.growth.C, "q": self.growth.q},
        }


def _default_wells(d: int) -> WellPair:
    if d < 1:
        raise ValueError("phase dimension d must be at least 1")
    if d == 1:
        return WellPair(np.array([-1.0]), np.array([1.0]))
    a = np.zeros(d)
    b = np.zeros(d)
    a[0], b[0] = -1.0, 1.0
    return WellPair(a, b)


def _separable(kind: str, weight, d: int, wells: Optional[WellPair], growth_C: float = 4.0, **params) -> Potential:
    """f(y) W0(p) with the quartic well on `wells` (default: -1, 1 along e1) and growth (growth_C, 4)."""
    wells = wells or _default_wells(d)
    return Potential(kind, wells, GrowthCertificate(growth_C, 4.0), weight, QuarticBase(wells), params)


def homogeneous_quartic(d: int = 1, wells: Optional[WellPair] = None) -> Potential:
    return _separable("homogeneous-quartic", ConstantWeight(1.0), d, wells)


def striped(alpha: float, d: int = 1, axis: int = 0, wells: Optional[WellPair] = None) -> Potential:
    return _separable("striped", StripeWeight(alpha, axis), d, wells, alpha=alpha, axis=axis)


def checkerboard(contrast: float, d: int = 1, wells: Optional[WellPair] = None) -> Potential:
    weight = CheckerboardWeight(contrast)
    return _separable("checkerboard", weight, d, wells, max(4.0, 2.0 * contrast), contrast=contrast)


def piecewise_cells(factors: np.ndarray, d: int = 1, wells: Optional[WellPair] = None) -> Potential:
    weight = CellsWeight(np.asarray(factors, dtype=float))
    growth_C = max(4.0, 2.0 * float(weight.factors.max()))
    return _separable("piecewise-cells", weight, d, wells, growth_C, factors=weight.factors)


def smooth_modulated(alpha: float, d: int = 1, wells: Optional[WellPair] = None) -> Potential:
    return _separable("smooth-modulated", SmoothWeight(alpha), d, wells, alpha=alpha)


POTENTIAL_KINDS = {
    "homogeneous-quartic": homogeneous_quartic,
    "striped": striped,
    "checkerboard": checkerboard,
    "piecewise-cells": piecewise_cells,
    "smooth-modulated": smooth_modulated,
}
P_BOX = 3.0  # validate_hypotheses samples phases in [-P_BOX, P_BOX]^d


@dataclass
class HypothesisCheck:
    code: str
    name: str
    passed: bool
    detail: str = ""


@dataclass
class HypothesisReport:
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def summary_lines(self) -> list:
        return [
            f"{c.code} {c.name}: {'pass' if c.passed else 'FAIL'}"
            + (f" ({c.detail})" if c.detail and not c.passed else "")
            for c in self.checks
        ]


def validate_hypotheses(
    pot: Potential,
    sample_count: int,
    seed: int,
    dim: int = 2,
) -> HypothesisReport:
    """Sample-based checks of the structural hypotheses on a potential.

    H0: exact periodicity under unit shifts (bit-exact for piecewise
        weights, 1e-14 relative for smooth ones);
    H2: the zero set is exactly the two wells (W vanishes at the wells;
        no spurious zero on a deterministic phase grid plus random
        samples);
    H3: the analytic lower envelope bounds W from below;
    H4: the stored (C, q) growth sandwich holds.

    Fails are reported per hypothesis with the first violating sample.
    """
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    d = pot.d
    y = rng.uniform(-2.0, 2.0, size=(sample_count, dim))
    p = rng.uniform(-P_BOX, P_BOX, size=(sample_count, d))
    w = pot(y, p)
    checks = []

    # H0: periodicity under each unit shift.
    ok = True
    detail = ""
    for i in range(dim):
        bad = pot.shift_defects(y, p, w, np.eye(dim)[i], 1e-14)
        if bad.any():
            ok = False
            j = int(np.argmax(bad))
            detail = f"shift e_{i + 1} at y={y[j]}, p={p[j]}"
            break
    checks.append(HypothesisCheck("H0", "periodicity", ok, detail))

    # H1 is structural for the built-in kinds (continuous in p, measurable
    # in y); record it as checked via the evaluations above.
    checks.append(HypothesisCheck("H1", "caratheodory-evaluable", bool(np.isfinite(w).all())))

    # H2: wells vanish, and no third zero on a deterministic grid + samples.
    wa = pot(y, np.broadcast_to(pot.wells.a, (sample_count, d)))
    wb = pot(y, np.broadcast_to(pot.wells.b, (sample_count, d)))
    ok = bool((np.abs(wa) <= 1e-14).all() and (np.abs(wb) <= 1e-14).all())
    detail = "" if ok else "well value does not vanish"
    if ok:
        grid_1d = np.linspace(-P_BOX, P_BOX, 41)
        mesh = np.meshgrid(*([grid_1d] * d), indexing="ij")
        probe = np.stack([m.ravel() for m in mesh], axis=-1)
        probe = np.concatenate([probe, p], axis=0)
        y_probe = rng.uniform(0.0, 1.0, size=(probe.shape[0], dim))
        wp = pot(y_probe, probe)
        dist = np.minimum(
            np.linalg.norm(probe - pot.wells.a, axis=-1),
            np.linalg.norm(probe - pot.wells.b, axis=-1),
        )
        spurious = (wp < 1e-12) & (dist > 1e-3)
        ok = not bool(spurious.any())
        if not ok:
            j = int(np.argmax(spurious))
            detail = f"W vanishes away from the wells at p={probe[j]}"
    checks.append(HypothesisCheck("H2", "zero-set", ok, detail))

    # H3: lower envelope dominance.
    we = pot.lower_envelope()(y, p)
    bad = we > w + 1e-12 * np.maximum(1.0, np.abs(w))
    ok = not bool(bad.any())
    detail = "" if ok else f"envelope exceeds W at p={p[int(np.argmax(bad))]}"
    checks.append(HypothesisCheck("H3", "lower-envelope", ok, detail))

    # H4: growth sandwich, including a heavy-tail batch.
    p_far = rng.uniform(-1.0, 1.0, size=(max(64, sample_count // 8), d)) * rng.uniform(
        3.0, 12.0, size=(max(64, sample_count // 8), 1)
    )
    p_all = np.concatenate([p, p_far], axis=0)
    y_all = rng.uniform(-2.0, 2.0, size=(p_all.shape[0], dim))
    w_all = pot(y_all, p_all)
    norms = np.linalg.norm(p_all, axis=-1)
    low = pot.growth.lower(norms)
    high = pot.growth.upper(norms)
    tol = 1e-12 * np.maximum(1.0, np.abs(w_all))
    bad = (w_all < low - tol) | (w_all > high + tol)
    ok = not bool(bad.any())
    detail = "" if ok else f"sandwich fails at p={p_all[int(np.argmax(bad))]}"
    checks.append(HypothesisCheck("H4", "growth", ok, detail))

    return HypothesisReport(checks)
