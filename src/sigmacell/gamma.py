"""Diffuse-interface energies at scale eps and their sharp-interface limit.

The scaled functional

    (1/eps) W(x/eps, u) + eps |grad u|^2

is assembled with the same midpoint kernel as the cell problem (at eps=1
on a matching box the two energies agree bit-for-bit).  Minimizers over a
flat-interface strip converge, as eps shrinks, to the surface tension
times the interface area; the recovery construction tiles a rescaled cell
minimizer along the interface and provides both a warm start and an upper
bound whose energy reproduces the cell value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .cell import CellState, SolverOptions, pinned_objective
from .descent import lbfgs_descent
from .grids import BoxGrid, EnergyModel, node_quadrature_weights
from .potential import Potential
from .profile import TransitionProfile

__all__ = [
    "FACE_POLICIES",
    "DomainSpec",
    "PhaseField",
    "RecoveryParams",
    "diffuse_energy",
    "diffuse_energy_parts",
    "minimize_diffuse",
    "build_recovery",
    "gamma_gap",
    "GapRow",
    "GAP_CSV_COLUMNS",
]

FACE_POLICIES = ("dirichlet-a", "dirichlet-b", "dirichlet-step", "periodic")


@dataclass(frozen=True)
class DomainSpec:
    """Rectangular domain with a per-face boundary policy.

    `faces[axis] = (low policy, high policy)`; periodic faces must pair
    up.  `nu` is the interface normal used by the dirichlet-step policy
    and by flat-interface studies; `offset` shifts the interface plane
    (x . nu = offset).
    """

    lo: tuple
    hi: tuple
    faces: tuple
    nu: tuple
    offset: float = 0.0

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        faces = tuple(tuple(f) for f in self.faces)
        nu = tuple(float(v) for v in self.nu)
        if not (len(lo) == len(hi) == len(faces) == len(nu)):
            raise ValueError("lo, hi, faces, nu must share the dimension")
        for pair in faces:
            if len(pair) != 2 or any(p not in FACE_POLICIES for p in pair):
                raise ValueError(f"face policies must be pairs from {FACE_POLICIES}")
            if ("periodic" in pair) and pair != ("periodic", "periodic"):
                raise ValueError("periodic faces must pair up on an axis")
        if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
            raise ValueError("interface normal must be a unit vector")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "nu", nu)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in zip(self.lo, self.hi)]))

    def interface_area(self) -> float:
        """Product of the extents transverse to the dominant normal axis."""
        ax = int(np.argmax(np.abs(self.nu)))
        return float(np.prod([b - a for i, (a, b) in enumerate(zip(self.lo, self.hi)) if i != ax]))

    def grid(self, h: float) -> BoxGrid:
        periodic = tuple(pair == ("periodic", "periodic") for pair in self.faces)
        return BoxGrid(self.lo, self.hi, h, periodic)

    @classmethod
    def flat_strip(cls, dim: int = 2, width: float = 1.0, height: float = 1.0) -> "DomainSpec":
        """Lateral-periodic strip, pure phases top and bottom."""
        lo = (0.0,) * (dim - 1) + (-height / 2.0,)
        hi = (width,) * (dim - 1) + (height / 2.0,)
        faces = (("periodic", "periodic"),) * (dim - 1) + ((("dirichlet-a", "dirichlet-b")),)
        nu = (0.0,) * (dim - 1) + (1.0,)
        return cls(lo, hi, faces, nu)


@dataclass
class PhaseField:
    """A discrete field together with its scale eps."""

    domain: DomainSpec
    eps: float
    h: float
    u: np.ndarray

    def grid(self) -> BoxGrid:
        return self.domain.grid(self.h)


def _boundary_data(domain: DomainSpec, grid: BoxGrid, pot: Potential, profile: TransitionProfile, eps: float):
    """Fixed-node mask and the values pinned there."""
    pts = grid.node_points()
    data = np.zeros(grid.shape + (pot.d,))
    mask = np.zeros(grid.shape, dtype=bool)
    nu = np.asarray(domain.nu)
    step = profile.at_scale(1.0 / eps)
    for ax, (p_lo, p_hi) in enumerate(domain.faces):
        for side, policy in ((0, p_lo), (-1, p_hi)):
            if policy == "periodic":
                continue
            sl = [slice(None)] * grid.dim
            sl[ax] = side
            sl = tuple(sl)
            mask[sl] = True
            if policy == "dirichlet-a":
                data[sl] = pot.wells.a
            elif policy == "dirichlet-b":
                data[sl] = pot.wells.b
            else:  # dirichlet-step
                s = pts[sl] @ nu - domain.offset
                data[sl] = step(s)
    return mask, data


def _model(domain: DomainSpec, grid: BoxGrid, pot: Potential, eps: float) -> EnergyModel:
    return EnergyModel(
        grid,
        pot,
        y_map=lambda pts: pts / eps,
        weight_potential=1.0 / eps,
        weight_gradient=eps,
    )


def diffuse_energy_parts(domain: DomainSpec, pot: Potential, fieldv: PhaseField):
    if fieldv.eps <= 0:
        raise ValueError("eps must be positive")
    grid = fieldv.grid()
    return _model(domain, grid, pot, fieldv.eps).energy_parts(fieldv.u)


def diffuse_energy(domain: DomainSpec, pot: Potential, fieldv: PhaseField) -> float:
    """Midpoint quadrature of (1/eps) W(x/eps, u) + eps |grad u|^2."""
    return diffuse_energy_parts(domain, pot, fieldv).total


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
    """Descend the scaled energy; optionally conserve the field integral.

    The mass constraint is handled by projection along the well segment:
    search directions and gradients are projected onto the constraint
    tangent, and the iterate's quadrature integral is restored exactly
    after every step.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = domain.grid(h)
    model = _model(domain, grid, pot, eps)
    mask, data = _boundary_data(domain, grid, pot, profile, eps)
    if init is None:
        pts = grid.node_points()
        nu = np.asarray(domain.nu)
        u0 = profile.at_scale(1.0 / eps)(pts @ nu - domain.offset)
    else:
        u0 = np.array(init, dtype=float)
        if u0.shape != grid.shape + (pot.d,):
            raise ValueError("init does not match the grid")
    u0[mask] = data[mask]
    d = pot.d
    energy_gradient = pinned_objective(model, mask)

    if mass_target is not None:
        target = np.asarray(mass_target, dtype=float).reshape(d)
        _mass_target_valid(domain, pot, target)
        wq = node_quadrature_weights(grid).reshape(-1)
        seg = pot.wells.b - pot.wells.a
        e_hat = seg / np.linalg.norm(seg)
        free = ~mask.reshape(-1)
        w_sum = float(wq[free].sum())
        shift = np.outer(free, e_hat).ravel()  # the restoring direction, zero on pinned nodes
        w_shift = np.outer(np.where(free, wq, 0.0), e_hat).ravel()

        def restore(x):
            # add the constant (along the well segment) fixing the integral
            mass = (wq[:, None] * x.reshape(-1, d)).sum(axis=0)
            drift = float((target - mass) @ e_hat)
            return x + (drift / w_sum) * shift

        def f_g(x):
            f, g = energy_gradient(restore(x))
            # exact gradient of E(restore(.)): the restoring shift is affine
            comp = float((g.reshape(-1, d) @ e_hat).sum()) / w_sum
            g -= comp * w_shift
            return f, g

        x0 = restore(u0.ravel())
    else:
        restore = None
        f_g = energy_gradient
        x0 = u0.ravel()

    res = lbfgs_descent(
        f_g,
        x0,
        sup_tol=opts.resolved_tolerance(pot),
        max_iterations=opts.resolved_max_iterations(grid.shape),
        memory=opts.memory,
        record_trace=opts.record_trace,
    )
    x_final = restore(res.x) if restore is not None else res.x
    u0 = x_final.reshape(u0.shape)
    fieldv = PhaseField(domain, eps, h, u0.copy())
    parts = model.energy_parts(u0)
    return fieldv, parts, res


@dataclass(frozen=True)
class RecoveryParams:
    """Ingredients of the recovery construction.

    `cell_state` is a converged cell solution on its T-cube; `eps` the
    target scale; `x0` the interface anchor.  The anchor decomposes as
    x0/eps = m + s with m in the rotated period lattice; the residual
    shift s (zero for anchors on the eps-lattice) realigns the copies so
    the potential's periodicity cancels the translation.
    """

    cell_state: CellState
    eps: float
    x0: tuple

    @property
    def T_cell(self) -> float:
        return self.cell_state.grid.T

    def lattice_shift(self) -> np.ndarray:
        grid = self.cell_state.grid
        R = grid.rotation_matrix
        period = grid.rotation.period if grid.rotation is not None else 1
        zeta = R.T @ (np.asarray(self.x0, dtype=float) / self.eps)
        k = np.floor(zeta / period) * period
        return zeta - k  # rotated-frame shift in [0, period)^N


def build_recovery(params: RecoveryParams, domain: DomainSpec, h: float, pot: Potential) -> PhaseField:
    """Tile the rescaled cell minimizer along the interface plane.

    Outside the layer of half-width eps*T/2 the field is the pure step;
    inside, the cell solution is evaluated at (x - x0)/eps (plus the
    lattice shift), extended periodically in the rotated tangential
    coordinates.
    """
    grid = domain.grid(h)
    cell = params.cell_state
    cg = cell.grid
    T = cg.T
    eps = params.eps
    nu = np.asarray(domain.nu)
    x0 = np.asarray(params.x0, dtype=float)

    # the layer must fit inside the domain along the normal
    corners = np.array(list(np.ndindex(*(2,) * domain.dim)))
    verts = np.array(domain.lo) + corners * (np.array(domain.hi) - np.array(domain.lo))
    span = verts @ nu
    anchor = float(x0 @ nu)
    if anchor - eps * T / 2.0 < span.min() - 1e-12 or anchor + eps * T / 2.0 > span.max() + 1e-12:
        raise ValueError("recovery layer exceeds the domain along the normal")

    # closed node array of the cell solution for interpolation
    u_cell = cell.u
    cell_axes = []
    for ax, per in enumerate(cg.box.periodic):
        n = u_cell.shape[ax]
        if per:
            sl = [slice(None)] * u_cell.ndim
            sl[ax] = slice(0, 1)
            u_cell = np.concatenate([u_cell, u_cell[tuple(sl)]], axis=ax)
            n += 1
        cell_axes.append(-T / 2.0 + cg.h * np.arange(n))
    interp = RegularGridInterpolator(tuple(cell_axes), u_cell, method="linear", bounds_error=False, fill_value=None)

    pts = grid.node_points()
    z = (pts - x0) / eps + (cg.rotation_matrix @ params.lattice_shift())
    zeta = z @ cg.rotation_matrix  # rotated-frame coordinates R^T z
    # wrap tangential coordinates into [-T/2, T/2)
    zt = zeta.copy()
    zt[..., :-1] = np.mod(zeta[..., :-1] + T / 2.0, T) - T / 2.0
    inside = np.abs(zeta[..., -1]) <= T / 2.0
    vals = interp(np.clip(zt, -T / 2.0, T / 2.0))
    step = np.where((zeta[..., -1] > 0.0)[..., None], pot.wells.b, pot.wells.a)
    u = np.where(inside[..., None], vals, step)
    return PhaseField(domain, eps, h, u)


@dataclass
class GapRow:
    eps: float
    h: float
    min_energy: float
    recovery_energy: float
    sigma_target: float
    gap_min: float
    gap_recovery: float
    converged: bool


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
    mesh_rule=default_gamma_mesh,
) -> list:
    """Per eps: minimized energy, recovery energy, and gaps to the target.

    Each minimization is warm-started at the recovery field, so the
    minimized energy cannot exceed the recovery energy.
    """
    rows = []
    target = sigma_hat * domain.interface_area()
    for eps in eps_schedule:
        h = mesh_rule(float(eps))
        params = RecoveryParams(cell_state, float(eps), x0=(0.0,) * domain.dim)
        rec = build_recovery(params, domain, h, pot)
        rec_energy = diffuse_energy(domain, pot, rec)
        fieldv, parts, res = minimize_diffuse(domain, pot, float(eps), h, profile, init=rec.u, opts=opts)
        rows.append(
            GapRow(
                eps=float(eps),
                h=h,
                min_energy=parts.total,
                recovery_energy=rec_energy,
                sigma_target=target,
                gap_min=abs(parts.total - target),
                gap_recovery=abs(rec_energy - target),
                converged=res.converged,
            )
        )
    return rows
