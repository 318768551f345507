"""The cell problem: minimal transition energy per unit interface area.

For a direction nu with exact rational rotation R (R e_N = nu), the cube
energy

    integral over the rotated cube of  W(y, u) + |grad u|^2

with mollified-step boundary data is computed on the axis-aligned
reference cube via y = R x: gradients are rotation invariant, so the
rotation enters only through the potential's spatial argument.  The
tangential frame is the rotation's own (rational) column frame, so all
face normals are rational.  The normalized minimum g = E / T^(N-1)
converges to the surface tension sigma(nu) as the cube grows; the
estimate extrapolates a T-schedule with a conservative error bar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .descent import lbfgs_descent
from .grids import BoxGrid, EnergyModel
from .lattice import RationalRotation
from .potential import Potential
from .profile import TransitionProfile

__all__ = [
    "CellGrid",
    "CellState",
    "CellResult",
    "SolverOptions",
    "GRefinement",
    "SigmaEstimate",
    "boundary_values",
    "assemble_energy",
    "assemble_energy_parts",
    "assemble_gradient",
    "pinned_objective",
    "minimize_cell",
    "estimate_g",
    "estimate_sigma",
    "SOLVE_CSV_COLUMNS",
    "solve_csv_row",
]


@dataclass(frozen=True)
class CellGrid:
    """Reference-cube discretization of one cell problem.

    The transition normal is the last reference axis.  Tangential faces
    are periodic by default (for lattice-aligned edges this matches the
    potential's exact periodicity along the rotated tangents and removes
    the O(1/T) lateral boundary layer); `tangential="dirichlet"` instead
    pins the mollified-step data on every face.
    """

    dim: int
    T: float
    h: float
    rotation: Optional[RationalRotation] = None
    tangential: str = "periodic"

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("cell problems support dimensions 2 and 3")
        if self.T < 1.0:
            raise ValueError("cube edge must be at least the unit transition layer")
        ratio = self.T / self.h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError("mesh size must divide the cube edge")
        if self.n < 8:
            raise ValueError("grid needs at least 8 nodes per axis")
        if self.rotation is not None and self.rotation.dim != self.dim:
            raise ValueError("rotation dimension mismatch")
        if self.tangential not in ("periodic", "dirichlet"):
            raise ValueError("tangential policy must be 'periodic' or 'dirichlet'")

    @property
    def n(self) -> int:
        """Nodes along the normal axis."""
        return int(round(self.T / self.h)) + 1

    @property
    def box(self) -> BoxGrid:
        half = self.T / 2.0
        per = self.tangential == "periodic"
        return BoxGrid(
            lo=(-half,) * self.dim,
            hi=(half,) * self.dim,
            h=self.h,
            periodic=(per,) * (self.dim - 1) + (False,),
        )

    @property
    def rotation_matrix(self) -> np.ndarray:
        if self.rotation is None:
            return np.eye(self.dim)
        return self.rotation.as_float()

    @property
    def nu(self) -> np.ndarray:
        """The interface normal: image of the last axis under the rotation."""
        return self.rotation_matrix[:, -1]

    def y_map(self, points: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            return points
        return points @ self.rotation_matrix.T


@dataclass
class CellState:
    """Node values of one cell field (boundary rows hold the exact data)."""

    grid: CellGrid
    u: np.ndarray

    def copy(self) -> "CellState":
        return CellState(self.grid, self.u.copy())


@dataclass
class CellResult:
    g: float
    iterations: int
    residual: float
    energy: float
    potential_part: float
    gradient_part: float
    converged: bool
    trace: list = field(default_factory=list)


@dataclass(frozen=True)
class SolverOptions:
    """Descent controls; unset fields fall back to scale-aware defaults."""

    tolerance: Optional[float] = None
    max_iterations: Optional[int] = None
    memory: int = 10
    record_trace: bool = True

    def resolved_tolerance(self, pot: Potential) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return 1e-6 * pot.wells.separation

    def resolved_max_iterations(self, grid_shape) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 20 * int(np.prod(grid_shape))


def _model(grid: CellGrid, pot: Potential) -> EnergyModel:
    return EnergyModel(grid.box, pot, y_map=grid.y_map)


def boundary_values(grid: CellGrid, profile: TransitionProfile) -> np.ndarray:
    """Mollified-step data phi(x_N) on every node of the reference cube."""
    pts = grid.box.node_points()
    return profile.at_scale(1.0)(pts[..., -1])


def initial_state(grid: CellGrid, profile: TransitionProfile, offset: float = 0.0) -> CellState:
    """Admissible initialization: the boundary profile extended inward.

    A nonzero offset shifts the interior transition layer along the
    normal (the pinned rows keep the exact data); offsets probe the
    potential phase so descent is not trapped at a symmetric saddle.
    """
    pts = grid.box.node_points()
    u = profile.at_scale(1.0)(pts[..., -1] - offset)
    bmask = grid.box.boundary_mask()
    data = boundary_values(grid, profile)
    u[bmask] = data[bmask]
    return CellState(grid, u)


def assemble_energy_parts(grid: CellGrid, pot: Potential, state: CellState):
    return _model(grid, pot).energy_parts(state.u)


def assemble_energy(grid: CellGrid, pot: Potential, state: CellState) -> float:
    """Midpoint-quadrature energy of the state over the reference cube."""
    return assemble_energy_parts(grid, pot, state).total


def assemble_gradient(grid: CellGrid, pot: Potential, state: CellState) -> np.ndarray:
    """Exact discrete-energy gradient; zero on the Dirichlet boundary."""
    _, g = _model(grid, pot).gradient(state.u)
    g[grid.box.boundary_mask()] = 0.0
    return g


def pinned_objective(model: EnergyModel, pinned: np.ndarray):
    """f_g(x) -> (energy, gradient) on the flat node vector x, for lbfgs_descent.

    The gradient is zero on the `pinned` nodes (a boolean node mask), so
    a descent that steps along combinations of gradients never moves them.
    """
    shape = model.grid.shape + (model.pot.d,)
    flat = np.flatnonzero(np.broadcast_to(pinned[..., None], shape))

    def f_g(x: np.ndarray):
        parts, g = model.gradient(x.reshape(shape))
        g = g.reshape(-1)
        g[flat] = 0.0
        return parts.total, g

    return f_g


def minimize_cell(
    grid: CellGrid,
    pot: Potential,
    profile: TransitionProfile,
    opts: SolverOptions = SolverOptions(),
    init: Optional[CellState] = None,
):
    """Descend the cell energy from the boundary profile (or a warm start).

    Returns (CellResult, CellState); a non-converged run is reported, not
    raised, and carries the best state reached.
    """
    model = _model(grid, pot)
    bmask = grid.box.boundary_mask()
    data = boundary_values(grid, profile)
    if init is None:
        u0 = data.copy()
    else:
        if init.u.shape[:-1] != grid.box.shape:
            raise ValueError("warm start does not match the grid")
        u0 = init.u.copy()
        u0[bmask] = data[bmask]  # keep the warm start admissible
    f_g = pinned_objective(model, bmask)
    tol = opts.resolved_tolerance(pot)
    res = lbfgs_descent(
        f_g,
        u0.ravel(),
        sup_tol=tol,
        max_iterations=opts.resolved_max_iterations(grid.box.shape),
        memory=opts.memory,
        record_trace=opts.record_trace,
    )
    u = res.x.reshape(u0.shape)
    parts = model.energy_parts(u)
    area = grid.T ** (grid.dim - 1)
    result = CellResult(
        g=parts.total / area,
        iterations=res.iterations,
        residual=res.grad_sup,
        energy=parts.total,
        potential_part=parts.potential,
        gradient_part=parts.gradient,
        converged=res.converged,
        trace=res.trace,
    )
    return result, CellState(grid, u)


def _prolong(u: np.ndarray, periodic) -> np.ndarray:
    """Linear interpolation onto the mesh-halved grid.

    Non-periodic axes double nodes minus one; periodic axes double
    outright, interpolating the wrap interval.
    """
    out = u
    for ax, per in enumerate(periodic):
        n = out.shape[ax]
        new_shape = list(out.shape)
        new_shape[ax] = 2 * n if per else 2 * n - 1
        fine = np.zeros(new_shape, dtype=out.dtype)
        even = [slice(None)] * out.ndim
        even[ax] = slice(0, None, 2)
        fine[tuple(even)] = out
        odd = [slice(None)] * out.ndim
        odd[ax] = slice(1, None, 2)
        left = [slice(None)] * out.ndim
        right = [slice(None)] * out.ndim
        if per:
            left[ax] = slice(None)
            right[ax] = slice(None)
            fine[tuple(odd)] = 0.5 * (out[tuple(left)] + np.roll(out, -1, axis=ax)[tuple(right)])
        else:
            left[ax] = slice(0, -1)
            right[ax] = slice(1, None)
            fine[tuple(odd)] = 0.5 * (out[tuple(left)] + out[tuple(right)])
        out = fine
    return out


@dataclass
class GRefinement:
    """One (nu, T) estimate from a two-mesh refinement pair."""

    T: float
    h: float
    g: float
    discretization_error: float
    fine: CellResult
    coarse: CellResult
    state: CellState


DEFAULT_PHASE_OFFSETS = (0.0, 0.25, 0.5, 0.75)


def estimate_g(
    rotation: Optional[RationalRotation],
    T: float,
    pot: Potential,
    profile: TransitionProfile,
    h: float,
    dim: int = 2,
    opts: SolverOptions = SolverOptions(),
    tangential: str = "periodic",
    phase_offsets=DEFAULT_PHASE_OFFSETS,
) -> GRefinement:
    """Solve at meshes (2h, h); report the fine g and the mesh difference.

    The coarse mesh is solved once per phase offset (the infimum is over
    all admissible fields, and a transition layer centered on a weight
    crest is a symmetric saddle descent cannot leave); the best coarse
    solution, linearly interpolated, warm-starts the single fine solve.
    """
    if T < 1.0:
        raise ValueError("cube edge must be at least the unit transition layer")
    coarse_grid = CellGrid(dim, T, 2 * h, rotation, tangential)
    fine_grid = CellGrid(dim, T, h, rotation, tangential)
    offsets = tuple(phase_offsets) or (0.0,)
    best = None
    for off in offsets:
        res_c, state_c = minimize_cell(coarse_grid, pot, profile, opts, init=initial_state(coarse_grid, profile, off))
        if best is None or res_c.g < best[0].g - 1e-15:
            best = (res_c, state_c)
    res_c, state_c = best
    warm = CellState(fine_grid, _prolong(state_c.u, coarse_grid.box.periodic))
    res_f, state_f = minimize_cell(fine_grid, pot, profile, opts, init=warm)
    return GRefinement(
        T=T,
        h=h,
        g=res_f.g,
        discretization_error=abs(res_f.g - res_c.g),
        fine=res_f,
        coarse=res_c,
        state=state_f,
    )


@dataclass
class SigmaEstimate:
    """Extrapolated surface tension for one direction."""

    nu: np.ndarray
    per_T: list  # (T, h, g) triples, fine-mesh values
    sigma_hat: float
    error_bar: float
    refinements: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return all(r.fine.converged and r.coarse.converged for r in self.refinements)


def estimate_sigma(
    rotation: Optional[RationalRotation],
    schedule,
    pot: Potential,
    profile: TransitionProfile,
    h: float,
    dim: int = 2,
    opts: SolverOptions = SolverOptions(),
    lattice_aligned: bool = False,
    tangential: str = "periodic",
    phase_offsets=DEFAULT_PHASE_OFFSETS,
) -> SigmaEstimate:
    """Run the T-schedule and extrapolate with a conservative error bar.

    sigma_hat is the fine-mesh g at the largest T; the error bar adds the
    last T-difference to the last mesh difference.  Lattice-aligned runs
    require every T to be a multiple of the rotation's lattice period.
    """
    schedule = [float(T) for T in schedule]
    if not schedule:
        raise ValueError("schedule must contain at least one cube edge")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if lattice_aligned:
        period = rotation.period if rotation is not None else 1
        for T in schedule:
            if abs(T / period - round(T / period)) > 1e-12:
                raise ValueError(
                    f"lattice-aligned run requires cube edges that are multiples of the period {period}; got T={T}"
                )
    refinements = [
        estimate_g(rotation, T, pot, profile, h, dim, opts, tangential, phase_offsets) for T in schedule
    ]
    per_T = [(r.T, r.h, r.g) for r in refinements]
    last = refinements[-1]
    t_term = abs(refinements[-1].g - refinements[-2].g) if len(refinements) >= 2 else 0.0
    nu = (rotation.as_float() if rotation is not None else np.eye(dim))[:, -1]
    return SigmaEstimate(
        nu=nu,
        per_T=per_T,
        sigma_hat=last.g,
        error_bar=t_term + last.discretization_error,
        refinements=refinements,
    )


SOLVE_CSV_COLUMNS = ("T", "h", "g", "potential_part", "gradient_part", "iterations", "residual")


def solve_csv_row(nu: np.ndarray, T: float, h: float, result: CellResult) -> list:
    """One per-solve record: nu components, then the solve columns."""
    return [float(c) for c in nu] + [
        T,
        h,
        result.g,
        result.potential_part,
        result.gradient_part,
        result.iterations,
        result.residual,
    ]
