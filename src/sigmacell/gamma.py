"""Diffuse-interface energies at scale eps and their sharp-interface limit.

The scaled functional

    (1/eps) W(x/eps, u) + eps |grad u|^2

on the flat strip is, in y = x/eps, the unit-weight cell energy divided
by the area eps^(1-N), so `minimize_diffuse` solves the cell energy on
the strip's own nodes in y units.  Minimizers converge, as eps shrinks,
to the surface tension times the interface area; the recovery
construction tiles a rescaled cell minimizer along the interface plane
through the origin and provides both a warm start and an upper bound
whose energy reproduces the cell value.  It reads the cell solution by a
numpy multilinear lookup in the steps of scipy's linear
`RegularGridInterpolator`, so the recovery field equals scipy's bitwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cell import CellState, SolverOptions, pinned_objective
from .descent import lbfgs_descent
from .grids import BoxGrid, EnergyModel, EnergyParts, closed_nodes, node_quadrature_weights
from .lattice import RationalRotation
from .potential import Potential
from .profile import TransitionProfile, _interval, step_field

__all__ = [
    "DomainSpec",
    "PhaseField",
    "minimize_diffuse",
    "check_recovery_layer",
    "build_recovery",
    "gamma_gap",
    "GapRow",
    "GAP_CSV_COLUMNS",
]


@dataclass(frozen=True)
class DomainSpec:
    """The flat strip [0, 1)^(N-1) x [-1/2, 1/2]: laterally periodic, normal e_N, phase a below and b above."""

    dim: int = 2

    @property
    def volume(self) -> float:
        return 1.0

    def interface_area(self) -> float:
        """The lateral extent of the strip."""
        return 1.0

    def grid(self, h: float) -> BoxGrid:
        lo = (0.0,) * (self.dim - 1) + (-0.5,)
        hi = (1.0,) * (self.dim - 1) + (0.5,)
        return BoxGrid(lo, hi, h, (True,) * (self.dim - 1) + (False,))

    @classmethod
    def flat_strip(cls, dim: int = 2) -> "DomainSpec":
        return cls(dim)


@dataclass
class PhaseField:
    """The node values of a field on the strip's grid."""

    u: np.ndarray


def _mass_target_valid(domain: DomainSpec, pot: Potential, target: np.ndarray) -> None:
    vol = domain.volume
    seg = pot.wells.b - pot.wells.a
    denom = float(seg @ seg)
    t = float((target - vol * pot.wells.a) @ seg) / (vol * denom)
    off_axis = target - vol * (pot.wells.a + t * (pot.wells.b - pot.wells.a))
    if np.linalg.norm(off_axis) > 1e-9 * max(1.0, float(np.linalg.norm(target))):
        raise ValueError("mass target must lie on the segment between the pure-phase masses")
    if not 0.0 < t < 1.0:
        raise ValueError("mass target must lie strictly between the pure-phase masses")


def minimize_diffuse(
    domain: DomainSpec,
    pot: Potential,
    eps: float,
    h: float,
    profile: TransitionProfile,
    init: Optional[np.ndarray] = None,
    mass_target: Optional[np.ndarray] = None,
    opts: SolverOptions = SolverOptions(),
):
    """Descend the scaled energy on the strip; optionally conserve the field integral.

    In y = x/eps the scaled energy is the unit-weight cell energy divided
    by area = eps^(1-N), so the solve runs on the strip's own nodes in y
    units: the descent stops at the tolerance times area, and energies
    and gradient norms come back divided by area.  The two normal faces
    are pinned to the wells; the default start is profile(y_N).

    The mass constraint is handled by projection along the well segment:
    search directions and gradients are projected onto the constraint
    tangent, and the iterate's quadrature integral is restored exactly
    after every step.  A profile built for another dimension or wells raises ValueError.
    The energy parts are those the descent evaluated at the returned field.
    """
    profile.check_fits(domain.dim, pot.wells)
    if eps <= 0:
        raise ValueError("eps must be positive")
    x_grid = domain.grid(h)
    grid = BoxGrid(np.divide(x_grid.lo, eps), np.divide(x_grid.hi, eps), h / eps, x_grid.periodic)
    model = EnergyModel(grid, pot, pot.cell_weight(grid.cells, grid.cell_centers))
    area = eps ** (1 - domain.dim)
    d, shape = pot.d, grid.shape + (pot.d,)
    if init is None:
        x0 = np.broadcast_to(profile(grid.node_axes()[-1]), shape).copy()
    else:
        x0, init = np.array(init, dtype=float), None  # the copy is the only start the solve holds
        if x0.shape != shape:
            raise ValueError("init does not match the grid")
    x0[..., 0, :] = pot.wells.a
    x0[..., -1, :] = pot.wells.b
    x0 = x0.ravel()
    energy_gradient = pinned_objective(model)

    if mass_target is not None:
        target = np.asarray(mass_target, dtype=float).reshape(d)
        _mass_target_valid(domain, pot, target)
        target = eps ** -domain.dim * target  # the integral over the strip in y units
        wq = node_quadrature_weights(grid).reshape(-1)
        seg = pot.wells.b - pot.wells.a
        e_hat = seg / np.linalg.norm(seg)
        free = ~grid.boundary_mask().reshape(-1)
        w_sum = float(wq[free].sum())
        shift = np.outer(free, e_hat).ravel()  # the restoring direction, zero on pinned nodes
        w_shift = np.outer(np.where(free, wq, 0.0), e_hat).ravel()

        def restore(x):
            # add the constant (along the well segment) fixing the integral
            mass = (wq[:, None] * x.reshape(-1, d)).sum(axis=0)
            drift = float((target - mass) @ e_hat)
            return x + (drift / w_sum) * shift

        def f_g(x):
            f, g, parts = energy_gradient(restore(x))
            # exact gradient of E(restore(.)): the restoring shift is affine
            comp = float((g.reshape(-1, d) @ e_hat).sum()) / w_sum
            g -= comp * w_shift
            return f, g, parts

        x0 = restore(x0)  # the unrestored start is freed here
    else:
        restore = None
        f_g = energy_gradient

    res = lbfgs_descent(
        f_g,
        x0,
        sup_tol=opts.resolved_tolerance(pot) * area,
        max_iterations=opts.resolved_max_iterations(grid.shape),
        memory=opts.memory,
        precondition=model.precondition,
    )
    p = res.info  # back to strip units
    res = replace(
        res,
        f=res.f / area,
        grad_sup=res.grad_sup / area,
        info=EnergyParts(p.total / area, p.potential / area, p.gradient / area),
        trace=[f / area for f in res.trace],
    )
    x_final = restore(res.x) if restore is not None else res.x
    return PhaseField(x_final.reshape(shape)), res.info, res


def check_recovery_layer(eps: float, T: float) -> None:
    """Raise ValueError unless the recovery layer, eps*T wide around the origin, fits in the strip's unit height."""
    if eps * T > 1.0:
        raise ValueError("recovery layer exceeds the domain along the normal")


def _multilinear(axes, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Multilinear lookup of `values` (grid shape + trailing axes) on the grid `axes` at `pts` (..., ndim).

    The axes are uniform.  Per axis the interval has x[i] <= p < x[i+1], clipped to the end intervals (outside
    points extrapolate); the corners are summed from 0 in `itertools.product` order, weighted by products of `1 - y`
    or `y`.
    """
    flat = pts.reshape(-1, len(axes))
    lower, frac = [], []
    for x, p in zip(axes, flat.T):
        i = _interval(x, p)
        lower.append(i)
        frac.append((p - x[i]) / (x[i + 1] - x[i]))
    trailing = (slice(None),) + (None,) * (values.ndim - len(axes))
    out = 0.0
    for corner in itertools.product((0, 1), repeat=len(axes)):
        weight = 1.0
        for c, y in zip(corner, frac):
            weight = weight * (y if c else 1 - y)
        out = out + values[tuple(i + c for i, c in zip(lower, corner))] * weight[trailing]
    return out.reshape(pts.shape[:-1] + values.shape[len(axes) :])


def build_recovery(cell_state: CellState, eps: float, domain: DomainSpec, h: float, pot: Potential) -> PhaseField:
    """Tile the rescaled cell minimizer `cell_state` along the interface plane through the origin.

    The cell must be solved at the strip's normal e_N in the identity
    frame; any other cell raises ValueError, as it would be tiled across
    the wrong interface.  The field is the pure step, and the cell
    solution is read only on the node rows of the layer, |y_N| <= T/2 at
    y = x / eps: there it is evaluated at y, extended periodically along
    each tangential axis, and written over the step.  The layer is
    anchored at the origin, so the cell point y reads the potential where
    the cell solve evaluated it.
    """
    grid = domain.grid(h)
    cg = cell_state.grid
    if cg.rotation != RationalRotation.identity(cg.dim):
        raise ValueError("the recovery needs a cell solved at the strip normal e_N, in the identity frame")
    check_recovery_layer(eps, cg.T)

    # closed node array of the cell solution for interpolation, on the cell's node axes
    u_cell = closed_nodes(cell_state.u, cg.box.periodic)
    cell_axes = [lo + cg.h * np.arange(n) for lo, n in zip(cg.box.lo, u_cell.shape[:-1])]
    y = [x / eps for x in grid.node_axes()]
    layer = np.abs(y[-1]) <= cg.box.hi[-1]
    # the tangential coordinates wrapped into the cell, [lo, hi) per axis
    axes = [np.mod(t - lo, hi - lo) + lo for t, lo, hi in zip(y[:-1], cg.box.lo, cg.box.hi)] + [y[-1][layer]]
    pts = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)
    step = step_field((1.0,), y[-1][:, None], pot.wells)  # the step across e_N, one value per normal row
    u = np.broadcast_to(step, grid.shape + (pot.d,)).copy()
    u[..., layer, :] = _multilinear(cell_axes, u_cell, pts)
    return PhaseField(u)


@dataclass
class GapRow:
    eps: float
    h: float
    min_energy: float
    recovery_energy: float
    sigma_target: float
    converged: bool

    gap_min = property(lambda self: abs(self.min_energy - self.sigma_target))
    gap_recovery = property(lambda self: abs(self.recovery_energy - self.sigma_target))


GAP_CSV_COLUMNS = ("eps", "min_energy", "recovery_energy", "sigma_target", "gap_min", "gap_recovery")


def default_gamma_mesh(eps: float) -> float:
    """Mesh rule: at least 8 nodes across the layer, refining with eps."""
    return min(eps / 2.0, 2.0 * eps * eps)


def gamma_gap(
    domain: DomainSpec,
    eps_schedule,
    pot: Potential,
    profile: TransitionProfile,
    sigma_hat: float,
    cell_state: CellState,
    opts: SolverOptions = SolverOptions(),
) -> list:
    """Per eps: minimized energy, recovery energy, and gaps to the target.

    Each minimization is warm-started at the recovery field, so the
    minimized energy cannot exceed the recovery energy.
    """
    rows = []
    target = sigma_hat * domain.interface_area()
    for eps in map(float, eps_schedule):
        h = default_gamma_mesh(eps)
        # neither the recovery field (the solve frees it once copied) nor the minimizer is named here
        parts, res = minimize_diffuse(
            domain, pot, eps, h, profile, init=build_recovery(cell_state, eps, domain, h, pot).u, opts=opts
        )[1:]
        rows.append(GapRow(eps, h, parts.total, res.trace[0], target, res.converged))  # trace[0]: the recovery field
    return rows
