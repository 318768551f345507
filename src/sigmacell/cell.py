"""The cell problem: minimal transition energy per unit interface area.

For a direction nu with exact rational rotation R (R e_N = nu), the cube
energy

    integral over the rotated cube of  W(y, u) + |grad u|^2

with mollified-step boundary data is computed on the axis-aligned
reference cube via y = R x: gradients are rotation invariant, so the
rotation enters only through the potential's spatial argument.  The
tangential frame is the rotation's own (rational) column frame, so all
face normals are rational.  The normalized minimum g = E / area, the
area being the product of the cell's tangential widths, converges to
the surface tension sigma(nu) as the normal extent T grows; the
estimate extrapolates a T-schedule with a conservative error bar.  The
solver, the orbit check and the CLI take every cell of a schedule from
`schedule_levels`, which narrows periodic cells to whole weight periods,
or one mesh cell along a tangent the weight is constant along, that
leave g unchanged and raises each refusal before any solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
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
    "schedule_levels",
    "estimate_sigma",
    "orbit_representatives",
]


@dataclass(frozen=True)
class CellGrid:
    """Reference-cube discretization of one cell problem.

    The transition normal is the last reference axis.  Tangential faces
    are periodic by default (for lattice-aligned edges this matches the
    potential's exact periodicity along the rotated tangents and removes
    the O(1/T) lateral boundary layer); `tangential="dirichlet"` instead
    pins the mollified-step data on every face.  T is the normal extent;
    `widths` are the tangential extents, one per tangential axis, and
    default to T, the cube (pinned faces need the cube).  No rotation
    means the identity.  The node grid `box` (which checks the mesh) and
    the float `rotation_matrix` are built once; `dataclasses.replace`
    builds them anew.
    """

    dim: int
    T: float
    h: float
    rotation: Optional[RationalRotation] = None
    tangential: str = "periodic"
    widths: Optional[tuple] = None
    box: BoxGrid = field(init=False, compare=False, repr=False)
    rotation_matrix: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("cell problems support dimensions 2 and 3")
        if self.T < 1.0:
            raise ValueError("cube edge must be at least the unit transition layer")
        widths = (self.T,) * (self.dim - 1) if self.widths is None else tuple(float(w) for w in self.widths)
        if len(widths) != self.dim - 1:
            raise ValueError(f"a {self.dim}D cell has {self.dim - 1} tangential widths; got {len(widths)}")
        if self.tangential == "dirichlet" and widths != (self.T,) * (self.dim - 1):
            raise ValueError("a cell with pinned tangential faces is the T-cube")
        object.__setattr__(self, "widths", widths)
        extents, per = widths + (self.T,), (self.tangential == "periodic",) * (self.dim - 1) + (False,)
        box = BoxGrid([-e / 2.0 for e in extents], [e / 2.0 for e in extents], self.h, per)
        object.__setattr__(self, "box", box)
        if box.shape[-1] < 8:
            raise ValueError("grid needs at least 8 nodes along the normal")
        if self.rotation is None:
            object.__setattr__(self, "rotation", RationalRotation.identity(self.dim))
        if self.rotation.dim != self.dim:
            raise ValueError("rotation dimension mismatch")
        if self.tangential not in ("periodic", "dirichlet"):
            raise ValueError("tangential policy must be 'periodic' or 'dirichlet'")
        object.__setattr__(self, "rotation_matrix", self.rotation.as_float())

    @property
    def area(self) -> float:
        """The interface area, the product of the tangential widths, that g = E / area normalizes by."""
        return math.prod(self.widths)

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
    """One cell solve; g and its two energy parts are per unit interface area (`CellGrid.area`)."""

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
        precondition=model.precondition,
    )
    parts = res.info
    result = CellResult(
        g=parts.total / grid.area,
        iterations=res.iterations,
        residual=res.grad_sup,
        potential_part=parts.potential / grid.area,
        gradient_part=parts.gradient / grid.area,
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

    The coarsest of T's `schedule_levels` is solved once per phase offset
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
    (levels,) = schedule_levels(rotation, [T], h, pot, tangential)
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
    """The T-schedule as floats; raises ValueError unless it is non-empty, finite, strictly
    increasing and, on a lattice-aligned run, made of multiples of the rotation's period."""
    schedule = [float(T) for T in schedule]
    if not schedule:
        raise ValueError("schedule must contain at least one cube edge")
    if not np.isfinite(schedule).all():
        raise ValueError(f"cube edges must be finite; got {schedule}")
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


def schedule_levels(
    rotation: RationalRotation,
    schedule,
    h: float,
    pot: Potential,
    tangential: str = "periodic",
    lattice_aligned: bool = False,
) -> list:
    """For each cube edge of the T-schedule, the grids `estimate_g` solves: meshes h, 2h, 4h, ..., finest first.

    The schedule must pass `check_schedule`.  h and 2h always belong; the chain goes coarser only while the next
    mesh is at most PROBE_MESH_MAX and halves every axis of the T-cube into at least 8 nodes (an axis of an even
    number c of cells keeps (n + 1) // 2 of its n nodes, periodic or not).  With periodic tangential faces every
    level then narrows each tangential axis to its `_period_width`: one cell of the coarsest mesh along a tangent
    the weight does not vary along, else whole weight periods.  The cube repeats that cell, and descent from the
    tangentially constant start keeps every iterate periodic with it, so the cell has the cube's g on fewer nodes.
    Pinned faces keep the cube.  Every refusal comes before any solve.
    """
    levels = []
    for T in check_schedule(schedule, rotation, lattice_aligned):
        cube = CellGrid(rotation.dim, T, h, rotation, tangential)
        # the cube's chain, read from its cell counts: the level at mesh 2^k h has c / 2^k cells per axis
        cells, meshes = cube.box.cells, [h, 2 * h]
        while 2 * meshes[-1] <= PROBE_MESH_MAX:
            cells = tuple(c // 2 for c in cells)  # the last level's
            if not all(c % 2 == 0 and (c + (not per) + 1) // 2 >= 8 for c, per in zip(cells, cube.box.periodic)):
                break
            meshes.append(2 * meshes[-1])
        widths = cube.widths
        if tangential == "periodic":
            axes = pot.varying_axes(rotation.dim)
            tangents = list(zip(*rotation.matrix))[:-1]  # t_i = R e_i, exact
            widths = tuple(_period_width(T, meshes[-1], [t[k] for k in axes]) for t in tangents)
        first = cube if widths == cube.widths else replace(cube, widths=widths)
        levels.append([first] + [replace(first, h=mesh) for mesh in meshes[1:]])
    return levels


def _period_widths(T: float, probe_mesh: float, components):
    """Every width W = T / m (m = 2, 3, ...), narrowest first, with W >= 2, a whole number of at least 8 cells of
    the probe mesh, and W t_k an integer for each given tangent component t_k.

    The tangent's components are those along the axes the weight varies along, so the weight has period W along
    the tangent.  Each finer mesh h 2^-j then divides W into 2^j times as many cells, so the cell keeps the cube's
    mesh chain.
    """
    for m in range(int(T // 2), 1, -1):
        W = Fraction(T) / m
        cells = T / m / probe_mesh
        if round(cells) >= 8 and abs(cells - round(cells)) <= 1e-9 * cells and all(
            (W * t).denominator == 1 for t in components
        ):
            yield T / m


def _period_width(T: float, probe_mesh: float, components) -> float:
    """The probe mesh itself when every given tangent component is zero: the weight is then constant along the
    tangent, so one probe-mesh cell, 2^j cells of the j-th finer mesh, repeats along it.  Otherwise the narrowest
    of the `_period_widths`; T when none qualifies."""
    if not any(components):
        return probe_mesh
    return next(_period_widths(T, probe_mesh, components), T)


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
    another dimension raises ValueError.  Every cell is built, and every
    refusal raised, by `schedule_levels` before the first solve.
    """
    rotation = RationalRotation.identity(dim) if rotation is None else rotation
    if rotation.dim != dim:
        raise ValueError("rotation dimension mismatch")
    levels = schedule_levels(rotation, schedule, h, pot, tangential, lattice_aligned)
    return SigmaEstimate([estimate_g(rotation, grids[0].T, pot, profile, h, opts, tangential) for grids in levels])


# Smooth weights of two cells that are images of each other agree to rounding.
IMAGE_WEIGHT_RTOL = 1e-12


def _image_weights(weight: np.ndarray, image) -> np.ndarray:
    """weight[D c] over the cell centres c, for D given as rows (axis, sign): (D x)_i = sign * x_axis.

    The cube is centred, so x -> -x along an axis reverses its cells.
    """
    flipped = np.flip(weight, [i for i, (_, sign) in enumerate(image) if sign < 0])
    return np.transpose(flipped, np.argsort([axis for axis, _ in image]))


def orbit_representatives(cells, pot: Potential) -> list:
    """For each direction's cells, its `schedule_levels`, the index of the representative whose `estimate_sigma`
    it shares; every direction's cells come from the same schedule, mesh and tangential policy.

    A direction joins the first earlier representative for which some
    signed permutation D of the tangential axes maps the representative's
    weight at the cell centres onto its own on every mesh solved (bitwise
    for piecewise weights, IMAGE_WEIGHT_RTOL relative otherwise).  D fixes
    e_N, so x -> D x maps the centred cube, its grid, the boundary data
    and the phase-offset starts onto themselves: the discrete cell
    problems are the representative's, carried over by D.  A direction
    that joins none represents itself.  Mixed dimensions raise ValueError.
    """
    dims = {levels[0][0].dim for levels in cells}
    if len(dims) > 1:
        raise ValueError(f"rotations of mixed dimensions {sorted(dims)}")
    images = [  # the D, as rows (axis, sign), with D e_N = e_N
        tuple(zip(perm, signs)) + ((dim - 1, 1),)
        for dim in dims
        for perm in permutations(range(dim - 1))
        for signs in product((1, -1), repeat=dim - 1)
    ]

    @cache
    def weights_of(k):
        """The weight (`_cell_weight`) of every mesh `estimate_sigma` solves."""
        return [_cell_weight(grid, pot) for grids in cells[k] for grid in grids]

    def is_image(k, rep, image):
        for w, w_rep in zip(weights_of(k), weights_of(rep)):
            mapped = _image_weights(w_rep, image)
            if mapped.shape != w.shape or pot.differs(w, mapped, IMAGE_WEIGHT_RTOL).any():
                return False
        return True

    reps = []
    for k in range(len(cells)):
        candidates = (r for r in range(k) if reps[r] == r)
        match = (r for r in candidates if any(is_image(k, r, D) for D in images))
        reps.append(next(match, k))
    return reps

