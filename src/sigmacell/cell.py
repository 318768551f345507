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

from dataclasses import dataclass, field, replace
from itertools import permutations, product
from typing import Optional

import numpy as np

from .descent import lbfgs_descent
from .grids import BoxGrid, EnergyModel, _along
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
    "profile_field",
    "initial_state",
    "cell_model",
    "pinned_objective",
    "minimize_cell",
    "estimate_g",
    "check_schedule",
    "estimate_sigma",
    "orbit_representatives",
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
    pins the mollified-step data on every face.  No rotation means the
    identity.  The node grid `box` (which checks the mesh) and the float
    `rotation_matrix` are built once; `dataclasses.replace` builds them anew.
    """

    dim: int
    T: float
    h: float
    rotation: Optional[RationalRotation] = None
    tangential: str = "periodic"
    box: BoxGrid = field(init=False, compare=False, repr=False)
    rotation_matrix: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("cell problems support dimensions 2 and 3")
        if self.T < 1.0:
            raise ValueError("cube edge must be at least the unit transition layer")
        half, per = self.T / 2.0, self.tangential == "periodic"
        box = BoxGrid((-half,) * self.dim, (half,) * self.dim, self.h, (per,) * (self.dim - 1) + (False,))
        object.__setattr__(self, "box", box)
        if self.n < 8:
            raise ValueError("grid needs at least 8 nodes per axis")
        if self.rotation is None:
            object.__setattr__(self, "rotation", RationalRotation.identity(self.dim))
        if self.rotation.dim != self.dim:
            raise ValueError("rotation dimension mismatch")
        if self.tangential not in ("periodic", "dirichlet"):
            raise ValueError("tangential policy must be 'periodic' or 'dirichlet'")
        object.__setattr__(self, "rotation_matrix", self.rotation.as_float())

    @property
    def n(self) -> int:
        """Nodes along the normal axis."""
        return self.box.shape[-1]

    @property
    def area(self) -> float:
        """The interface area T^(N-1) that g = E / area normalizes by."""
        return self.T ** (self.dim - 1)

    @property
    def nu(self) -> np.ndarray:
        """The interface normal: image of the last axis under the rotation."""
        return self.rotation_matrix[:, -1]


@dataclass
class CellState:
    """Node values of one cell field (boundary rows hold the exact data)."""

    grid: CellGrid
    u: np.ndarray


@dataclass
class CellResult:
    g: float
    iterations: int
    residual: float
    potential_part: float
    gradient_part: float
    converged: bool
    backtracks: int  # trial points the descent's line search rejected
    trace: list = field(default_factory=list)

    evaluations = property(lambda self: 1 + self.iterations + self.backtracks)  # energy and gradient evaluations


@dataclass(frozen=True)
class SolverOptions:
    """Descent controls; unset fields fall back to scale-aware defaults."""

    tolerance: Optional[float] = None
    max_iterations: Optional[int] = None
    memory: int = 10

    def resolved_tolerance(self, pot: Potential) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return 1e-6 * pot.wells.separation

    def resolved_max_iterations(self, grid_shape) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 20 * int(np.prod(grid_shape))


def cell_model(grid: CellGrid, pot: Potential) -> EnergyModel:
    """The discrete cell energy: midpoint quadrature on the reference cube, potential at y = R x."""
    return EnergyModel(grid.box, pot, _cell_weight(grid, pot))


def _cell_weight(grid: CellGrid, pot: Potential) -> np.ndarray:
    """The spatial weight f(R x) at the cell centres x of a grid (`Potential.cell_weight`), R applied as one product
    on the (-1, dim) view: the centres are freed before f runs."""
    box = grid.box
    return pot.cell_weight(box.cells, lambda: box.cell_centers().reshape(-1, grid.dim) @ grid.rotation_matrix.T)


def profile_field(grid: CellGrid, profile: TransitionProfile, offset: float = 0.0) -> np.ndarray:
    """The mollified step phi(x_N - offset) on every node, as a read-only broadcast view of one column.

    The profile is read once per node of the normal axis; the view repeats
    that column across the tangential axes without copying it.
    """
    column = profile(grid.box.node_axes()[-1] - offset)
    return np.broadcast_to(column, grid.box.shape + column.shape[-1:])


def initial_state(grid: CellGrid, profile: TransitionProfile, offset: float = 0.0) -> CellState:
    """The mollified step phi(x_N - offset) on every node of the reference cube.

    At offset 0 it is the boundary data.  Other offsets probe the potential
    phase so descent is not trapped at a symmetric saddle; `minimize_cell`
    pins the boundary rows to the data.
    """
    return CellState(grid, profile_field(grid, profile, offset).copy())


def pinned_objective(model: EnergyModel):
    """f_g(x) -> (energy, gradient, EnergyParts) on the flat node vector x, for lbfgs_descent.

    The gradient is zero on the pinned nodes, the grid's `pinned_faces`,
    where `model.precondition` is zero too, so a descent that steps along
    combinations of the two never moves them.
    """
    shape = model.grid.shape + (model.pot.d,)
    faces = model.grid.pinned_faces()

    def f_g(x: np.ndarray):
        parts, g = model.gradient(x.reshape(shape))
        for face in faces:
            g[face] = 0.0
        return parts.total, g.reshape(-1), parts

    return f_g


def minimize_cell(
    grid: CellGrid,
    pot: Potential,
    profile: TransitionProfile,
    opts: SolverOptions = SolverOptions(),
    init: Optional[CellState] = None,
    weight: Optional[np.ndarray] = None,
):
    """Descend the cell energy from the boundary profile (or a warm start).

    Returns (CellResult, CellState); a non-converged run is reported, not
    raised, and carries the best state reached.  A profile built for
    another dimension or wells, or a warm start of another shape than
    the grid's nodes times the potential's components, raises ValueError.
    The energy parts are those the descent evaluated at the returned state.
    `weight`, the grid's `_cell_weight` when the caller already has it,
    is not evaluated again.
    """
    profile.check_fits(grid.dim, pot.wells)
    if init is not None and init.u.shape != grid.box.shape + (pot.d,):
        raise ValueError("warm start does not match the grid")
    model = EnergyModel(grid.box, pot, _cell_weight(grid, pot) if weight is None else weight)
    data = profile_field(grid, profile)
    if init is None:
        u0 = data.copy()
    else:
        u0 = init.u.copy()
        for face in grid.box.pinned_faces():  # keep the warm start admissible
            u0[face] = data[face]
    res = lbfgs_descent(
        pinned_objective(model),
        u0.ravel(),
        sup_tol=opts.resolved_tolerance(pot),
        max_iterations=opts.resolved_max_iterations(grid.box.shape),
        memory=opts.memory,
        precondition=model.precondition,
    )
    parts = res.info
    result = CellResult(
        g=parts.total / grid.area,
        iterations=res.iterations,
        residual=res.grad_sup,
        potential_part=parts.potential,
        gradient_part=parts.gradient,
        converged=res.converged,
        backtracks=res.backtracks,
        trace=res.trace,
    )
    return result, CellState(grid, res.x.reshape(u0.shape))


def _prolong(u: np.ndarray, periodic) -> np.ndarray:
    """Linear interpolation onto the mesh-halved grid.

    Non-periodic axes double nodes minus one; periodic axes double
    outright, interpolating the wrap interval.
    """
    for ax, per in enumerate(periodic):
        n = u.shape[ax]
        head = (slice(None),) * ax
        fine = np.empty(u.shape[:ax] + (2 * n if per else 2 * n - 1,) + u.shape[ax + 1 :], dtype=u.dtype)
        fine[head + (slice(0, None, 2),)] = u
        fine[head + (slice(1, None, 2),)] = 0.5 * _along(np.add, u, ax, per)
        u = fine
    return u


@dataclass
class GRefinement:
    """One (nu, T) estimate: the fine solve at h, its state, and the coarse solve at 2h."""

    fine: CellResult
    coarse: CellResult
    state: CellState
    phase_offset: float  # the offset whose probe seeded the hierarchy

    T = property(lambda self: self.state.grid.T)
    h = property(lambda self: self.state.grid.h)
    g = property(lambda self: self.fine.g)
    discretization_error = property(lambda self: abs(self.fine.g - self.coarse.g))


# Ascending, so the first of several tied probes is the lowest offset.
# Offset 0 alone is probed when the weight does not vary along the normal.
PHASE_OFFSETS = (0.0, 0.25, 0.5, 0.75)

# The spatial weight has unit period and the transition profile unit
# width; the probe mesh keeps at least 4 nodes across each (a probe at
# mesh 1/2 can settle in the wrong basin).
PROBE_MESH_MAX = 1.0 / 4

# Probe energies within this fraction of the solver tolerance are ties;
# the lowest phase offset among tied probes wins.
PROBE_TIE_FRACTION = 1e-2


def _mesh_levels(fine: CellGrid) -> list:
    """The meshes h, 2h, 4h, ... of one cell, finest first.

    h and 2h always belong; the chain goes coarser only while the next
    mesh is at most PROBE_MESH_MAX and divides the edge into a grid of
    at least 8 nodes per axis.
    """
    levels = [fine, replace(fine, h=2 * fine.h)]
    cells = levels[-1].n - 1
    while 2 * levels[-1].h <= PROBE_MESH_MAX and cells % 2 == 0 and cells // 2 + 1 >= 8:
        cells //= 2
        levels.append(replace(fine, h=2 * levels[-1].h))
    return levels


def estimate_g(
    rotation: RationalRotation,
    T: float,
    pot: Potential,
    profile: TransitionProfile,
    h: float,
    opts: SolverOptions = SolverOptions(),
    tangential: str = "periodic",
) -> GRefinement:
    """Solve by nested iteration down to h; report the fine g and the (2h, h) mesh difference.

    The coarsest mesh of `_mesh_levels` is solved once per phase offset
    (the infimum is over all admissible fields, and a transition layer
    centered on a weight crest is a symmetric saddle descent cannot
    leave).  When the weight at that mesh's cell centres does not vary
    along the normal, offset 0 alone is solved: the probe problem is then
    symmetric under x_N -> -x_N, u -> a + b - u, moving the centred layer
    along the normal only costs energy, and the other offsets could at
    best tie with it, which offset 0 wins.  The best probe, linearly
    interpolated, warm-starts the solve on the next finer mesh, and so on
    down to h.  The probe mesh's weight, evaluated once for the offset
    rule, serves every probe.  The rotation gives the cell's dimension.
    """
    levels = _mesh_levels(CellGrid(rotation.dim, T, h, rotation, tangential))
    probe_grid = levels[-1]
    weight = _cell_weight(probe_grid, pot)
    offsets = PHASE_OFFSETS[:1] if (weight == weight[..., :1]).all() else PHASE_OFFSETS
    tie = PROBE_TIE_FRACTION * opts.resolved_tolerance(pot)
    best = None
    for off in offsets:
        start = initial_state(probe_grid, profile, off)
        res, state = minimize_cell(probe_grid, pot, profile, opts, init=start, weight=weight)
        if best is None or res.g < best[0].g - tie:
            best = (res, state, off)
    results = [None] * len(levels)
    results[-1], state, offset = best
    for k in reversed(range(len(levels) - 1)):
        warm = CellState(levels[k], _prolong(state.u, levels[k + 1].box.periodic))
        results[k], state = minimize_cell(levels[k], pot, profile, opts, init=warm)
    return GRefinement(results[0], results[1], state, offset)


@dataclass
class SigmaEstimate:
    """Extrapolated surface tension for one direction, from the refinements of its T-schedule."""

    refinements: list

    nu = property(lambda self: self.refinements[-1].state.grid.nu)
    per_T = property(lambda self: [(r.T, r.h, r.g) for r in self.refinements])  # fine-mesh values
    sigma_hat = property(lambda self: self.refinements[-1].g)  # the fine-mesh g at the largest T

    @property
    def error_bar(self) -> float:
        """The conservative bar: the last T-difference plus the last mesh difference."""
        last = self.refinements[-1]
        t_term = abs(last.g - self.refinements[-2].g) if len(self.refinements) > 1 else 0.0
        return t_term + last.discretization_error

    @property
    def converged(self) -> bool:
        return all(r.fine.converged and r.coarse.converged for r in self.refinements)


def check_schedule(schedule, rotation: Optional[RationalRotation] = None, lattice_aligned: bool = False) -> list:
    """The T-schedule as floats; raises ValueError unless it is non-empty, strictly
    increasing and, on a lattice-aligned run, made of multiples of the rotation's period."""
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
                    f"lattice-aligned run requires cube edges that are multiples of the period {period}; got T={T:g}"
                )
    return schedule


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
) -> SigmaEstimate:
    """Run the T-schedule; the estimate extrapolates it with a conservative error bar.

    No rotation means the identity of dimension `dim`; a rotation of
    another dimension raises ValueError.  The schedule must pass
    `check_schedule`.
    """
    rotation = RationalRotation.identity(dim) if rotation is None else rotation
    if rotation.dim != dim:
        raise ValueError("rotation dimension mismatch")
    schedule = check_schedule(schedule, rotation, lattice_aligned)
    return SigmaEstimate([estimate_g(rotation, T, pot, profile, h, opts, tangential) for T in schedule])


# Smooth weights of two cells that are images of each other agree to rounding.
IMAGE_WEIGHT_RTOL = 1e-12


def _image_weights(weight: np.ndarray, image) -> np.ndarray:
    """weight[D c] over the cell centres c, for D given as rows (axis, sign): (D x)_i = sign * x_axis.

    The cube is centred, so x -> -x along an axis reverses its cells.
    """
    flipped = np.flip(weight, [i for i, (_, sign) in enumerate(image) if sign < 0])
    return np.transpose(flipped, np.argsort([axis for axis, _ in image]))


def orbit_representatives(
    rotations,
    schedule,
    pot: Potential,
    h: float,
    tangential: str = "periodic",
) -> list:
    """For each rotation, the index of the representative whose `estimate_sigma` it shares.

    A rotation joins the first earlier representative for which some
    signed permutation D of the tangential axes maps the representative's
    weight at the cell centres onto its own on every mesh solved (bitwise
    for piecewise weights, IMAGE_WEIGHT_RTOL relative otherwise).  D fixes
    e_N, so x -> D x maps the centred cube, its grid, the boundary data
    and the phase-offset starts onto themselves: the discrete cell
    problems are the representative's, carried over by D.  A rotation
    that joins none represents itself.  Mixed dimensions raise ValueError.
    """
    schedule = check_schedule(schedule)
    dims = {rotation.dim for rotation in rotations}
    if len(dims) > 1:
        raise ValueError(f"rotations of mixed dimensions {sorted(dims)}")
    images = [  # the D, as rows (axis, sign), with D e_N = e_N
        tuple(zip(perm, signs)) + ((dim - 1, 1),)
        for dim in dims
        for perm in permutations(range(dim - 1))
        for signs in product((1, -1), repeat=dim - 1)
    ]
    weights = {}

    def weights_of(k):
        """The weight (`_cell_weight`) of every mesh `estimate_sigma` solves."""
        if k not in weights:
            R = rotations[k]
            grids = [g for T in schedule for g in _mesh_levels(CellGrid(R.dim, T, h, R, tangential))]
            weights[k] = [_cell_weight(g, pot) for g in grids]
        return weights[k]

    def is_image(k, rep, image):
        pairs = zip(weights_of(k), weights_of(rep))
        return not any(pot.differs(w, _image_weights(w_rep, image), IMAGE_WEIGHT_RTOL).any() for w, w_rep in pairs)

    reps = []
    for k in range(len(rotations)):
        candidates = (r for r in range(k) if reps[r] == r)
        match = (r for r in candidates if any(is_image(k, r, D) for D in images))
        reps.append(next(match, k))
    return reps


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
