from fractions import Fraction

import numpy as np
import pytest

from sigmacell.cell import CellGrid, CellState, cell_model, initial_state, minimize_cell
from sigmacell.lattice import RationalRotation, RationalUnitVector, rotation_from_direction
from sigmacell.potential import checkerboard, homogeneous_quartic
from sigmacell.profile import Mollifier, TransitionProfile
from sigmacell.tiling import TilingPlan, _smooth_ramp, build_competitor, plan_tiling, subadditivity_gap

from oned_reference import profile_energy_1d

F = Fraction
QUARTIC = homogeneous_quartic()
I2 = RationalRotation.identity(2)


@pytest.fixture(scope="module")
def prof():
    return TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=2)


@pytest.fixture(scope="module")
def u_T(prof):
    grid = CellGrid(2, 4.0, 1 / 16, tangential="dirichlet")
    _, state = minimize_cell(grid, QUARTIC, prof)
    return state


def test_plan_count_formula():
    assert plan_tiling(5.0, 30.0, 2, I2).count == 3
    assert plan_tiling(5.0, 9.62, 2, I2).count == 1


def test_plan_precondition_names_inequality():
    with pytest.raises(ValueError, match=r"S > T \+ 3 \+ sqrt\(N\)"):
        plan_tiling(5.0, 9.0, 2, I2)
    with pytest.raises(ValueError, match="shell parameter"):
        plan_tiling(5.0, 30.0, 1, I2)
    with pytest.raises(ValueError, match="shell parameter"):
        plan_tiling(5.0, 30.0, 5, I2)


def test_plan_shifts_are_integers_near_centers():
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    plan = plan_tiling(5.0, 30.0, 2, R)
    assert plan.shifts.dtype.kind == "i"
    dist = np.linalg.norm(plan.centers - plan.shifts, axis=1)
    assert (dist <= np.sqrt(2)).all()


def test_competitor_boundary_trace_exact(u_T, prof):
    plan = plan_tiling(4.0, 16.0, 3, I2)
    s_grid = CellGrid(2, 16.0, 1 / 16, tangential="dirichlet")
    comp = build_competitor(u_T, plan, prof, s_grid)
    bmask = s_grid.box.boundary_mask()
    data = initial_state(s_grid, prof).u
    assert comp.u[bmask].tobytes() == data[bmask].tobytes()


def test_competitor_copy_fidelity_bit_exact(u_T, prof):
    plan = plan_tiling(4.0, 16.0, 3, I2)
    s_grid = CellGrid(2, 16.0, 1 / 16, tangential="dirichlet")
    comp = build_competitor(u_T, plan, prof, s_grid)
    n = u_T.grid.n
    for corner in plan.corner_nodes(s_grid):
        assert np.array_equal(comp.u[tuple(slice(i, i + n) for i in corner)], u_T.u)


def test_competitor_energy_bounds(u_T, prof):
    plan = plan_tiling(4.0, 16.0, 3, I2)
    s_grid = CellGrid(2, 16.0, 1 / 16, tangential="dirichlet")
    comp = build_competitor(u_T, plan, prof, s_grid)
    e_S = cell_model(s_grid, QUARTIC).energy_parts(comp.u).total / 16.0
    g_T = cell_model(u_T.grid, QUARTIC).energy_parts(u_T.u).total / 4.0
    ratio = plan.count * 4.0 / 16.0
    assert np.isfinite(e_S)
    assert e_S >= g_T * ratio  # copies alone already carry this much


def _full_grid_competitor(u_T, plan, prof, s_grid) -> np.ndarray:
    """The competitor with each copy's shell blend computed over the whole S-grid."""
    pts = s_grid.box.node_points()
    ambient = initial_state(s_grid, prof).u
    u = ambient.copy()
    half_in, half_out = plan.T / 2.0, (plan.T + plan.shell_width) / 2.0
    for c, corner in zip(plan.reference_centers(), plan.corner_nodes(s_grid)):
        u[tuple(slice(i, i + u_T.grid.n) for i in corner)] = u_T.u
        dist = np.max(np.abs(pts - c), axis=-1)
        shell = (dist > half_in) & (dist <= half_out + 1e-15)
        w = np.ones_like(dist)
        for ax in range(plan.dim):
            w = w * _smooth_ramp(np.abs(pts[..., ax] - c[ax]), half_in, half_out)
        blend = w[..., None] * initial_state(s_grid, prof, c[-1]).u + (1.0 - w[..., None]) * ambient
        u[shell] = blend[shell]
    bmask = s_grid.box.boundary_mask()
    u[bmask] = ambient[bmask]
    return u


@pytest.mark.parametrize("dim,T,S,m,h", [(2, 4.0, 16.0, 3, 1 / 16), (3, 4.0, 9.0, 3, 1 / 8)])
def test_competitor_is_the_full_grid_formula_bit_for_bit(dim, T, S, m, h):
    profile = TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=dim)
    state = initial_state(CellGrid(dim, T, h, tangential="dirichlet"), profile)
    u_T = CellState(state.grid, state.u + 0.1 * np.random.default_rng(dim).standard_normal(state.u.shape))
    plan = plan_tiling(T, S, m, RationalRotation.identity(dim))
    s_grid = CellGrid(dim, S, h, tangential="dirichlet")
    assert plan.count == (2 if dim == 2 else 1)
    comp = build_competitor(u_T, plan, profile, s_grid)
    assert comp.u.tobytes() == _full_grid_competitor(u_T, plan, profile, s_grid).tobytes()


def test_degenerate_plan_yields_pure_step(prof):
    plan = TilingPlan(T=4.0, S=16.0, m=3, centers=np.zeros((0, 2)), shifts=np.zeros((0, 2), dtype=np.int64), rotation=I2)
    assert (plan.dim, plan.count) == (2, 0)
    grid = CellGrid(2, 4.0, 1 / 16, tangential="dirichlet")
    u_T0 = initial_state(grid, prof)
    s_grid = CellGrid(2, 16.0, 1 / 16, tangential="dirichlet")
    comp = build_competitor(u_T0, plan, prof, s_grid)
    e_S = cell_model(s_grid, QUARTIC).energy_parts(comp.u).total / 16.0
    e_step = profile_energy_1d(QUARTIC, prof, 16.0)
    assert e_S == pytest.approx(e_step, rel=0.01)


def test_mesh_mismatch_rejected(u_T, prof):
    plan = plan_tiling(4.0, 16.0, 3, I2)
    s_grid = CellGrid(2, 16.0, 1 / 8, tangential="dirichlet")
    with pytest.raises(ValueError, match="mesh"):
        build_competitor(u_T, plan, prof, s_grid)


@pytest.mark.parametrize("rotated", ["s_grid", "plan"])
def test_rotation_mismatch_rejected(u_T, prof, rotated):
    # copies pasted into a cell of another rotation would not see the T-cell's phase of the potential
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    plan = plan_tiling(4.0, 16.0, 3, R if rotated == "plan" else I2)
    s_grid = CellGrid(2, 16.0, 1 / 16, R if rotated == "s_grid" else None, tangential="dirichlet")
    with pytest.raises(ValueError, match="rotation"):
        build_competitor(u_T, plan, prof, s_grid)


def test_periodic_t_cell_rejected(prof):
    # copies paste the T-cell's boundary traces, which a periodic cell does not pin
    periodic = initial_state(CellGrid(2, 4.0, 1 / 16), prof)
    with pytest.raises(ValueError, match="dirichlet"):
        subadditivity_gap(periodic, 4.0, 16.0, 3, QUARTIC, prof)


def test_subadditivity_gap_quartic(u_T, prof):
    rep = subadditivity_gap(u_T, 4.0, 16.0, 3, QUARTIC, prof)
    assert rep.solver_converged
    assert rep.g_S <= rep.e_S + 1e-12
    assert rep.remainder >= 0.0
    # measured remainder for the mollified-step filler at (T,S,m)=(4,16,3)
    assert rep.remainder == pytest.approx(1.51, abs=0.08)


def test_shell_parameter_trend(prof):
    # remainder does not grow as the shell thins with S = 2T + 10 fixed
    grid = CellGrid(2, 4.0, 1 / 8, tangential="dirichlet")
    _, state = minimize_cell(grid, QUARTIC, prof)
    rep2 = subadditivity_gap(state, 4.0, 18.0, 2, QUARTIC, prof)
    rep3 = subadditivity_gap(state, 4.0, 18.0, 3, QUARTIC, prof)
    assert rep3.remainder <= rep2.remainder + 0.05


def test_integer_shift_periodicity_inside_copies(prof):
    # potential evaluations at integer-shifted arguments agree inside copies
    pot = checkerboard(2.0)
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    plan = plan_tiling(5.0, 30.0, 2, R)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2.5, 2.5, size=(200, 2))
    p = rng.uniform(-2, 2, size=(200, 1))
    for x in plan.shifts:
        assert np.array_equal(pot(pts + x, p), pot(pts, p))
