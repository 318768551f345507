"""Tiling competitors: replicate a small-cube minimizer across a large cube.

A converged T-cell solution is copied into integer-shifted cubes laid out
along the interface plane of an S-cell, blended to the mollified step
over a thin shell by a tensorized smoothstep cutoff (gradient bounded by
a multiple of the shell parameter m), with the mollified step filling the
rest.  Integer shifts keep the potential evaluations inside each copy
identical to the original, so the copied blocks carry exactly the T-cell
energy.  The construction yields an admissible S-cell field, hence an
upper bound for g(S), and a measured subadditivity remainder.

Copies paste the small-cube boundary traces, so the T-cell solve must use
the all-faces Dirichlet class (`tangential="dirichlet"`); `build_competitor`
refuses any other T-cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .cell import CellGrid, CellState, SolverOptions, cell_model, minimize_cell, profile_field
from .lattice import RationalRotation
from .potential import Potential
from .profile import TransitionProfile

__all__ = ["TilingPlan", "tiles", "plan_tiling", "build_competitor", "subadditivity_gap", "SubadditivityReport"]


@dataclass(frozen=True)
class TilingPlan:
    """Copy layout for one (T, S, m) tiling."""

    T: float
    S: float
    m: int
    centers: np.ndarray  # physical prism centers on the interface plane, (M, N)
    shifts: np.ndarray  # integer lattice points near the centers, (M, N)
    rotation: RationalRotation

    dim = property(lambda self: self.rotation.dim)
    count = property(lambda self: len(self.shifts))
    shell_width = property(lambda self: 1.0 / self.m)

    def corner_nodes(self, s_grid: CellGrid) -> list:
        """Node index of each copy's low corner on the S-cell grid; ValueError if one is off the nodes."""
        pos = (self.reference_centers() - self.T / 2.0 - np.array(s_grid.box.lo)) / s_grid.h
        if (np.abs(pos - np.round(pos)) > 1e-9).any():
            raise ValueError("copy corner does not land on a grid node; choose h dividing 1/period")
        return np.round(pos).astype(int).tolist()

    def reference_centers(self) -> np.ndarray:
        """Copy centers in reference coordinates (exact rational, as float)."""
        out = np.empty_like(self.shifts, dtype=float)
        M = self.rotation.matrix
        n = self.dim
        for k, x in enumerate(self.shifts):
            for i in range(n):
                out[k, i] = float(sum(M[j][i] * Fraction(int(x[j])) for j in range(n)))
        return out


def tiles(T: float, S: float, dim: int) -> bool:
    """Whether an S-cell has room for copies of a T-cell: S > T + 3 + sqrt(N)."""
    return S > T + 3.0 + float(np.sqrt(dim))


def plan_tiling(T: float, S: float, m: int, rotation: RationalRotation) -> TilingPlan:
    """Lay out the copies: centers on the interface plane, integer shifts.

    The number of copies per tangential axis is
    floor((S - 1/T) / (T + sqrt(N) + 2)); enlarged copies are validated
    to be pairwise disjoint and contained in the shrunken cube.
    """
    dim = rotation.dim
    root_n = float(np.sqrt(dim))
    if not tiles(T, S, dim):
        raise ValueError(f"tiling requires S > T + 3 + sqrt(N) = {T + 3 + root_n:.6g}, got S={S}")
    if not 2 <= m < T:
        raise ValueError(f"shell parameter must satisfy 2 <= m < T, got m={m}, T={T}")
    pitch = T + root_n + 2.0
    per_axis = int(np.floor((S - 1.0 / T) / pitch))
    R = rotation.as_float()

    offsets = [(j - (per_axis - 1) / 2.0) * pitch for j in range(per_axis)]
    centers = [R @ np.array(list(combo) + [0.0]) for combo in product(offsets, repeat=dim - 1)]
    centers = np.array(centers).reshape(-1, dim)
    shifts = np.rint(centers).astype(np.int64)

    plan = TilingPlan(float(T), float(S), int(m), centers, shifts, rotation)
    _validate_geometry(plan)
    return plan


def _validate_geometry(plan: TilingPlan) -> None:
    half_enlarged = (plan.T + plan.shell_width) / 2.0
    bound = (plan.S - 1.0 / plan.T) / 2.0
    refs = plan.reference_centers()
    for k, c in enumerate(refs):
        if (np.abs(c) + half_enlarged > bound + 1e-12).any():
            raise ValueError(f"enlarged copy {k} leaves the shrunken cube")
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            if np.abs(refs[i] - refs[j]).max() < 2 * half_enlarged - 1e-12:
                raise ValueError(f"enlarged copies {i} and {j} overlap")


def _smooth_ramp(t: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """1 inside `inner`, 0 beyond `outer`, cubic smoothstep between."""
    s = np.clip((t - inner) / (outer - inner), 0.0, 1.0)
    return 1.0 - (3.0 * s * s - 2.0 * s**3)


def build_competitor(
    u_T: CellState,
    plan: TilingPlan,
    profile: TransitionProfile,
    s_grid: CellGrid,
) -> CellState:
    """Assemble the S-cell competitor from the T-cell solution.

    Copies are pasted node-for-node (the T-cell must have Dirichlet faces,
    grids and plan must share the mesh and rotation, and the copy centers
    must land on grid nodes; `plan.corner_nodes(s_grid)` gives each copy's
    low corner); the shell around each copy blends the normally-shifted
    mollified step into the ambient one with a cutoff whose gradient is
    bounded by 3m.  The blend runs only inside the node box of each
    enlarged copy; the mollified step is left as it is elsewhere.
    """
    t_grid = u_T.grid
    if t_grid.tangential != "dirichlet":
        raise ValueError("tiling pastes boundary traces: the T-cell needs tangential='dirichlet'")
    if abs(t_grid.h - s_grid.h) > 1e-12:
        raise ValueError("copy and target grids must share the mesh size")
    if abs(t_grid.T - plan.T) > 1e-12 or abs(s_grid.T - plan.S) > 1e-12:
        raise ValueError("grids do not match the tiling plan")
    if not t_grid.rotation == s_grid.rotation == plan.rotation:
        raise ValueError("T-cell, S-cell and plan must share one rotation")

    dim = plan.dim
    pts = s_grid.box.node_points()
    ambient = profile_field(s_grid, profile)
    u = ambient.copy()

    refs = plan.reference_centers()
    half_in = plan.T / 2.0
    half_out = (plan.T + plan.shell_width) / 2.0
    pad = int(plan.shell_width / (2.0 * s_grid.h) + 1e-9)  # shell nodes beyond each copy face
    normal_axis = s_grid.box.node_axes()[-1]
    for c, corner in zip(refs, plan.corner_nodes(s_grid)):
        u[tuple(slice(i, i + n) for i, n in zip(corner, t_grid.box.shape))] = u_T.u

        # blend shell: between the copy face and the enlarged face, inside the enlarged copy's node box
        box = tuple(slice(i - pad, i + n + pad) for i, n in zip(corner, t_grid.box.shape))
        near = pts[box]
        dist = np.max(np.abs(near - c), axis=-1)
        shell = (dist > half_in) & (dist <= half_out + 1e-15)
        if shell.any():
            w = np.ones_like(dist)
            for ax in range(dim):
                w = w * _smooth_ramp(np.abs(near[..., ax] - c[ax]), half_in, half_out)
            shifted = profile(normal_axis[box[-1]] - c[-1])
            blend = w[..., None] * shifted + (1.0 - w[..., None]) * ambient[box]
            u[box][shell] = blend[shell]

    # exact boundary data on the pinned faces
    for face in s_grid.box.pinned_faces():
        u[face] = ambient[face]
    return CellState(s_grid, u)


@dataclass
class SubadditivityReport:
    T: float
    S: float
    m: int
    e_S: float
    g_S: float
    g_T: float
    remainder: float
    solver_converged: bool


def subadditivity_gap(
    u_T: CellState,
    T: float,
    S: float,
    m: int,
    pot: Potential,
    profile: TransitionProfile,
    opts: SolverOptions = SolverOptions(),
) -> SubadditivityReport:
    """Competitor energy density on the S-cell versus the solved value.

    e_S is the energy of the tiled competitor, where the S-cell solve
    starts, so its g(S) can only be lower.  The
    remainder e_S - g(T) is measured, not bounded.
    """
    t_grid = u_T.grid
    plan = plan_tiling(T, S, m, t_grid.rotation)
    s_grid = CellGrid(t_grid.dim, S, t_grid.h, t_grid.rotation, t_grid.tangential)
    comp = build_competitor(u_T, plan, profile, s_grid)
    g_T = cell_model(t_grid, pot).energy_parts(u_T.u).total / t_grid.area
    res, _ = minimize_cell(s_grid, pot, profile, opts, init=comp)
    e_S = res.trace[0] / s_grid.area  # the solve starts at the competitor
    return SubadditivityReport(T, S, m, e_S, res.g, g_T, e_S - g_T, res.converged)
