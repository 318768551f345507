from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from sigmacell import cell, descent
from sigmacell.cell import (
    CellGrid,
    CellState,
    SigmaEstimate,
    SolverOptions,
    cell_model,
    estimate_g,
    estimate_sigma,
    initial_state,
    minimize_cell,
    orbit_representatives,
    pinned_objective,
    schedule_levels,
    _prolong,
)
from sigmacell.lattice import (
    RationalRotation,
    RationalUnitVector,
    random_rational_directions,
    rationalize_direction,
    rotation_from_direction,
)
from sigmacell.potential import (
    WellPair,
    checkerboard,
    homogeneous_quartic,
    piecewise_cells,
    smooth_modulated,
    striped,
)
from sigmacell.profile import Mollifier, TransitionProfile

from oned_reference import profile_energy_1d, transition_bvp_energy
from solve_checks import STOPS, check_stop, new_models_left_after, record_last_point, slabs_of

F = Fraction
QUARTIC = homogeneous_quartic()
I2 = RationalRotation.identity(2)


@pytest.fixture(scope="module")
def prof():
    return TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=2)


@pytest.fixture(scope="module")
def prof3():
    return TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=3)


def test_constant_well_field_has_zero_energy(prof):
    grid = CellGrid(2, 2.0, 1 / 8)
    u = np.broadcast_to(QUARTIC.wells.a, grid.box.shape + (1,)).copy()
    model = cell_model(grid, QUARTIC)
    assert model.energy_parts(u).total == 0.0
    g = pinned_objective(model)(u.ravel())[1]
    assert np.abs(g).max() == 0.0


def test_constant_midpoint_energy_is_cube_volume(prof):
    grid = CellGrid(2, 1.0, 1 / 16)
    u = np.zeros(grid.box.shape + (1,))
    assert cell_model(grid, QUARTIC).energy_parts(u).total == pytest.approx(1.0, rel=1e-12)


def test_profile_field_matches_1d_quadrature(prof):
    grid = CellGrid(2, 4.0, 1 / 16, tangential="dirichlet")
    st = initial_state(grid, prof)
    e2d = cell_model(grid, QUARTIC).energy_parts(st.u).total
    e1d = profile_energy_1d(QUARTIC, prof, 4.0)
    assert e2d == pytest.approx(4.0 * e1d, rel=0.01)


def test_non_finite_state_rejected(prof):
    grid = CellGrid(2, 2.0, 1 / 8)
    u = np.zeros(grid.box.shape + (1,))
    u[3, 3, 0] = np.nan
    with pytest.raises(ValueError):
        cell_model(grid, QUARTIC).energy_parts(u)


@pytest.mark.parametrize(
    "dim,T,n,pot,tangential",
    [
        pytest.param(2, 2.0, 16, QUARTIC, "dirichlet", id="2-2.0-16-pot0"),
        pytest.param(2, 2.0, 16, striped(0.5), "dirichlet", id="2-2.0-16-pot1"),
        pytest.param(3, 2.0, 8, QUARTIC, "dirichlet", id="3-2.0-8-pot2"),
        pytest.param(3, 2.0, 8, striped(0.5), "periodic", id="3-2.0-8-periodic"),
        pytest.param(2, 2.0, 16, homogeneous_quartic(d=2), "dirichlet", id="2-2.0-16-vector"),
    ],
)
def test_gradient_matches_finite_differences(dim, T, n, pot, tangential):
    # central finite differences on random states, relative error <= 1e-6
    rng = np.random.default_rng(100 * dim + n)
    h = T / (n - 1)
    grid = CellGrid(dim, T, h, tangential=tangential)
    for rows in (None, 1, 2):  # as built, then in slabs of 1 and 2 cell rows
        with slabs_of(grid.box.shape, rows):
            f_g = pinned_objective(cell_model(grid, pot))
        for trial in range(4):
            u = rng.uniform(-1.3, 1.3, size=grid.box.shape + (pot.d,))
            g = f_g(u.ravel())[1].reshape(u.shape)
            free = ~grid.box.boundary_mask()
            idx = np.argwhere(free)
            sel = idx[:: max(1, len(idx) // 40)]
            step = 1e-6
            worst = 0.0
            gsup = np.abs(g).max()
            for k, node in enumerate(sel):
                entry = tuple(node) + (k % pot.d,)
                up = u.copy()
                um = u.copy()
                up[entry] += step
                um[entry] -= step
                fd = (f_g(up.ravel())[0] - f_g(um.ravel())[0]) / (2 * step)
                worst = max(worst, abs(fd - g[entry]) / gsup)
            assert worst <= 1e-6


def test_gradient_periodic_tangential_matches_fd(prof):
    rng = np.random.default_rng(77)
    grid = CellGrid(2, 2.0, 1 / 8)  # periodic tangential axis
    u = rng.uniform(-1.2, 1.2, size=grid.box.shape + (1,))
    f_g = pinned_objective(cell_model(grid, QUARTIC))
    g = f_g(u.ravel())[1].reshape(u.shape)
    free = ~grid.box.boundary_mask()
    idx = np.argwhere(free)[::7]
    step = 1e-6
    gsup = np.abs(g).max()
    for node in idx:
        up = u.copy()
        um = u.copy()
        up[tuple(node) + (0,)] += step
        um[tuple(node) + (0,)] -= step
        fd = (f_g(up.ravel())[0] - f_g(um.ravel())[0]) / (2 * step)
        assert abs(fd - g[tuple(node) + (0,)]) / gsup <= 1e-6


def test_minimize_quartic_matches_reference_interval(prof):
    pytest.importorskip("scipy")
    res, _ = minimize_cell(CellGrid(2, 4.0, 1 / 32), QUARTIC, prof)
    assert res.converged
    assert 2.62 <= res.g <= 2.75
    oracle = transition_bvp_energy(QUARTIC, prof, 4.0)
    assert res.g == pytest.approx(oracle, rel=5e-3)


@pytest.mark.parametrize("T", [4.0, 8.0])
def test_normal_laminate_matches_1d_oracle(prof, T):
    pytest.importorskip("scipy")
    # stripes normal to nu = e2: the cell minimum is the optimal 1D transition
    pot = striped(0.5, axis=1)
    ref = estimate_g(I2, T, pot, prof, h=1 / 32)
    oracle = transition_bvp_energy(pot, prof, T)
    assert abs(ref.g - oracle) <= ref.discretization_error
    # the quadrature error is O(h^2), so the Richardson value lands much closer
    assert abs(ref.fine.g + (ref.fine.g - ref.coarse.g) / 3 - oracle) <= 1e-6


@pytest.mark.parametrize("T", [4.0, 8.0])
def test_tangential_laminate_between_bounds(prof, T):
    # stripes along nu = e2, weight f(y1)
    pot = striped(0.5, axis=0)
    g = estimate_g(I2, T, pot, prof, h=1 / 32).g
    # Modica (1987): f W0 + |grad u|^2 >= 2 sqrt(f W0) |d2 u|, so g >= mean(sqrt f) * 8/3
    s = np.arange(64) / 64
    lower = np.sqrt(pot.spatial_factor(np.stack([s, np.zeros_like(s)], axis=-1))).mean() * 8 / 3
    # a field independent of y1 has the same energy under f and under 1: the cos
    # sum over cell centres of whole periods vanishes, so g is below the quartic's
    upper = estimate_g(I2, T, QUARTIC, prof, h=1 / 32).g
    assert lower < g < upper


def test_minimize_monotone_descent(prof):
    res, _ = minimize_cell(CellGrid(2, 2.0, 1 / 16), QUARTIC, prof)
    trace = np.array(res.trace)
    assert (np.diff(trace) <= 1e-12).all()


def test_minimize_upper_bound_is_initialization(prof):
    grid = CellGrid(2, 2.0, 1 / 16)
    init = initial_state(grid, prof)
    e0 = cell_model(grid, QUARTIC).energy_parts(init.u).total / 2.0
    res, _ = minimize_cell(grid, QUARTIC, prof)
    assert res.g <= e0 + 1e-12


def test_loose_tolerance_returns_initial_energy(prof):
    grid = CellGrid(2, 2.0, 1 / 16)
    init = initial_state(grid, prof)
    e0 = cell_model(grid, QUARTIC).energy_parts(init.u).total / 2.0
    res, _ = minimize_cell(grid, QUARTIC, prof, SolverOptions(tolerance=1e6))
    assert res.iterations == 0
    assert res.g == pytest.approx(e0, rel=1e-14)


def test_envelope_lower_bound(prof):
    pot = striped(0.5)
    env = pot.lower_envelope()
    grid = CellGrid(2, 4.0, 1 / 16)
    res_w, _ = minimize_cell(grid, pot, prof)
    res_e, _ = minimize_cell(grid, env, prof)
    assert res_w.g >= res_e.g - 1e-8


@pytest.mark.parametrize("dim, count, schedule, h", [(2, 6, [2.0, 4.0], 1 / 8), (3, 3, [4.0], 1 / 4)], ids=["2d", "3d"])
def test_quartic_sigma_does_not_depend_on_the_direction_bit_for_bit(dim, count, schedule, h):
    # the rotation enters the cell energy only through the weight, which is constant for the quartic
    profile = TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=dim)

    def fingerprint(R):
        est = estimate_sigma(R, schedule, QUARTIC, profile, h=h, dim=dim)
        refinements = [(r.phase_offset, r.state.u.tobytes()) for r in est.refinements]
        return est.sigma_hat, est.error_bar, est.per_T, refinements

    reference = fingerprint(None)
    for nu in random_rational_directions(dim, count, seed=dim):
        assert fingerprint(rotation_from_direction(nu)) == reference, nu


def test_homogeneous_g_is_rotation_invariant(prof):
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    res_rot, _ = minimize_cell(CellGrid(2, 4.0, 1 / 16, R), QUARTIC, prof)
    res_id, _ = minimize_cell(CellGrid(2, 4.0, 1 / 16), QUARTIC, prof)
    assert res_rot.g == pytest.approx(res_id.g, abs=1e-10)


@pytest.mark.parametrize("pot", [QUARTIC, striped(0.5)], ids=["quartic", "striped"])
def test_iterations_do_not_grow_with_the_mesh(prof, pot):
    # cold solves from the mollified step at a tolerance scaled like the node weight h^2;
    # plain L-BFGS needs 38-39 iterations at h = 1/8 and 336-386 at 1/64 here
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    iterations = []
    for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        res, _ = minimize_cell(CellGrid(2, 5.0, h, R), pot, prof, SolverOptions(tolerance=2e-6 * (16 * h) ** 2))
        assert res.converged
        iterations.append(res.iterations)
    assert max(iterations) <= 1.5 * min(iterations)


def test_estimate_g_refinement_error_shrinks(prof):
    ref_coarse = estimate_g(I2, 2.0, QUARTIC, prof, 1 / 8)
    ref_fine = estimate_g(I2, 2.0, QUARTIC, prof, 1 / 16)
    assert ref_coarse.discretization_error >= 2.0 * ref_fine.discretization_error


def test_estimate_g_hierarchy_matches_two_mesh_probes(prof):
    # reference: cold probes at 2h, the best one prolonged to h and solved there
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    pot = striped(0.5)
    coarse, fine = CellGrid(2, 4.0, 1 / 8, R), CellGrid(2, 4.0, 1 / 16, R)
    probes = [minimize_cell(coarse, pot, prof, init=initial_state(coarse, prof, off)) for off in (0.0, 0.25, 0.5, 0.75)]
    _, state_c = min(probes, key=lambda probe: probe[0].g)
    warm = CellState(fine, _prolong(state_c.u, coarse.box.periodic))
    ref, _ = minimize_cell(fine, pot, prof, init=warm)
    est = estimate_g(R, 4.0, pot, prof, 1 / 16)
    assert est.fine.converged and est.coarse.converged
    assert est.g == pytest.approx(ref.g, rel=1e-8)


def test_estimate_g_probe_winner_is_order_independent(prof, monkeypatch):
    # the stripes vary along the oblique normal, yet in a cube of edge 2 every offset reaches
    # the same minimum: the four probes tie and the lowest offset wins
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    pot = striped(0.5)
    probes = []

    def recording(grid, *args, **kwargs):
        res, state = minimize_cell(grid, *args, **kwargs)
        if grid.h == 1 / 4:  # the probe mesh
            probes.append(res.g)
        return res, state

    monkeypatch.setattr(cell, "minimize_cell", recording)
    forward = estimate_g(R, 2.0, pot, prof, 1 / 16)
    tie = cell.PROBE_TIE_FRACTION * SolverOptions().resolved_tolerance(pot)
    assert len(probes) == 4 and max(probes) - min(probes) <= tie
    assert forward.phase_offset == 0.0


@pytest.mark.parametrize(
    "pot, probes",
    [(striped(0.5, axis=1), 4), (QUARTIC, 1)],  # the stripes vary along the normal e2, the quartic's weight does not
    ids=["striped", "quartic"],
)
@pytest.mark.parametrize(
    "T, h, meshes",
    [
        (2.0, 1 / 8, [1 / 4] * 4 + [1 / 8]),  # 2h is already the coarsest probe mesh
        (1.0, 1 / 32, [1 / 8] * 4 + [1 / 16, 1 / 32]),  # 1/4 would leave 5 nodes per axis
        (2.0, 1 / 32, [1 / 4] * 4 + [1 / 8, 1 / 16, 1 / 32]),
    ],
)
def test_estimate_g_probe_mesh(prof, monkeypatch, pot, probes, T, h, meshes):
    seen = []

    def recording(grid, *args, **kwargs):
        seen.append(grid.h)
        return minimize_cell(grid, *args, **kwargs)

    monkeypatch.setattr(cell, "minimize_cell", recording)
    est = estimate_g(I2, T, pot, prof, h)
    assert seen == meshes[4 - probes :]
    assert est.coarse.g != est.fine.g


def test_estimate_g_rejects_small_cubes(prof):
    with pytest.raises(ValueError):
        estimate_g(I2, 0.5, QUARTIC, prof, 1 / 16)


@pytest.mark.parametrize("schedule", [[2.0, float("nan"), 4.0], [2.0, float("inf")], [-float("inf"), 2.0]])
def test_check_schedule_refuses_non_finite_edges(schedule):
    with pytest.raises(ValueError, match="finite"):
        cell.check_schedule(schedule)


@pytest.mark.parametrize(
    "schedule, match",
    [
        ([4.0, 8.0, 8.0625], "mesh 0.125 does not divide extent 8.0625"),  # the last edge's 2h grid
        ([2.0, float("inf")], "finite"),
    ],
)
def test_estimate_sigma_refuses_before_any_solve(monkeypatch, prof, schedule, match):
    solves = []

    def recording(grid, *args, **kwargs):
        solves.append(grid.h)
        return minimize_cell(grid, *args, **kwargs)

    monkeypatch.setattr(cell, "minimize_cell", recording)
    with pytest.raises(ValueError, match=match):
        estimate_sigma(None, schedule, striped(0.5), prof, h=1 / 16)
    assert solves == []


@pytest.mark.parametrize("tangential", ["periodic", "dirichlet"])
@pytest.mark.parametrize("dim, T, h", [(2, 1.75, 1 / 32), (2, 2.0, 1 / 32), (2, 4.0, 1 / 8), (3, 1.75, 1 / 16)])
def test_schedule_levels_are_the_grids_estimate_g_solves(monkeypatch, tangential, dim, T, h):
    pot = striped(0.5, axis=dim - 1)  # varies along the normal: four probes on the coarsest grid
    seen = []

    def recording(grid, *args, **kwargs):
        seen.append(grid)
        return minimize_cell(grid, *args, **kwargs)

    monkeypatch.setattr(cell, "minimize_cell", recording)
    rotation = RationalRotation.identity(dim)
    (levels,) = schedule_levels(rotation, [T], h, pot, tangential)
    estimate_g(rotation, T, pot, TransitionProfile(pot.wells, Mollifier("bump", 0.5), dim=dim), h, tangential=tangential)
    assert seen == [levels[-1]] * 4 + levels[-2::-1]


@pytest.mark.parametrize("dim", [2, 3])
def test_coarse_levels_keep_8_nodes_on_every_axis(dim):
    # T = 7/4 at mesh 1/4 has 7 cells: 8 nodes on the pinned normal axis, 7 on a periodic tangential one;
    # the checkerboard varies along every axis, so its periodic cells keep whole periods of at least 8 nodes
    rotation = RationalRotation.identity(dim)
    chains = [[1 / 32, 1 / 16, 1 / 8], [1 / 32, 1 / 16, 1 / 8, 1 / 4], [1 / 32, 1 / 16, 1 / 8, 1 / 4]]
    for pot in (checkerboard(2.0), QUARTIC):
        levels = schedule_levels(rotation, [1.75, 2.0], 1 / 32, pot)
        levels += schedule_levels(rotation, [1.75], 1 / 32, pot, "dirichlet")
        assert [[grid.h for grid in grids] for grids in levels] == chains
        assert min(grid.box.shape[-1] for grids in levels for grid in grids) == 8
        if pot is QUARTIC:  # constant along every tangent: one cell of each periodic chain's probe mesh
            for grids in levels[:2]:
                assert [grid.widths for grid in grids] == [(grids[-1].h,) * (dim - 1)] * len(grids)
                assert grids[-1].box.shape[:-1] == (1,) * (dim - 1)
        else:
            assert min(min(grid.box.shape) for grids in levels for grid in grids) == 8


@pytest.mark.parametrize("tangential", ["periodic", "dirichlet"])
@pytest.mark.parametrize("dim, schedule, h", [(2, [2.0, 4.0, 8.0], 1 / 32), (3, [2.0, 4.0], 1 / 16)])
def test_schedule_levels_builds_each_level_once(monkeypatch, tangential, dim, schedule, h):
    # one T-cube at h to read the chain from, then each level; a level that keeps the cube is that cube
    real, built = CellGrid.__post_init__, []
    monkeypatch.setattr(CellGrid, "__post_init__", lambda grid: built.append(grid) or real(grid))
    levels = schedule_levels(RationalRotation.identity(dim), schedule, h, QUARTIC, tangential)
    narrowed = [grids[0].widths != (grids[0].T,) * (dim - 1) for grids in levels]
    assert narrowed == [tangential == "periodic"] * len(schedule)  # the quartic narrows at every T, 2 too
    assert len(built) == sum(len(grids) + n for grids, n in zip(levels, narrowed))
    assert all(any(b is g for b in built) for grids in levels for g in grids)


def keep_the_cube(monkeypatch):
    """Make `schedule_levels` keep the T-cube on periodic faces too."""
    monkeypatch.setattr(cell, "_period_width", lambda T, *args: T)


def rotation_to(*nu):
    return rotation_from_direction(RationalUnitVector(tuple(F(c) for c in nu)))


CELLS_3X3 = piecewise_cells(np.random.default_rng(0).uniform(0.5, 2.0, (3, 3)))


@pytest.mark.parametrize(
    "pot, rotation, T, widths",
    [
        pytest.param(QUARTIC, rotation_to("3/5", "4/5"), 8.0, (0.25,), id="quartic-2d"),
        pytest.param(QUARTIC, rotation_to("1/3", "2/3", "2/3"), 4.0, (0.25, 0.25), id="quartic-3d"),
        pytest.param(striped(0.5), rotation_to(1, 0), 8.0, (0.25,), id="striped-axis0-e1"),
        pytest.param(striped(0.5), I2, 8.0, (2.0,), id="striped-axis0-e2"),
        pytest.param(striped(0.5, axis=1), rotation_to(1, 0), 8.0, (2.0,), id="striped-axis1-e1"),
        pytest.param(striped(0.5, axis=1), I2, 8.0, (0.25,), id="striped-axis1-e2"),
        pytest.param(striped(0.5), RationalRotation.identity(3), 4.0, (2.0, 0.25), id="striped-3d-e3"),
        pytest.param(checkerboard(2.0), I2, 8.0, (2.0,), id="checkerboard-e2"),
        pytest.param(smooth_modulated(0.5), I2, 8.0, (2.0,), id="smooth-e2"),
        pytest.param(CELLS_3X3, I2, 8.0, (2.0,), id="cells-3x3-e2"),
    ],
)
def test_width_cells_give_the_cubes_g(monkeypatch, pot, rotation, T, widths):
    profile = TransitionProfile(pot.wells, Mollifier("bump", 0.5), dim=rotation.dim)
    narrow = estimate_g(rotation, T, pot, profile, 1 / 16)
    keep_the_cube(monkeypatch)
    cube = estimate_g(rotation, T, pot, profile, 1 / 16)
    assert narrow.state.grid.widths == widths and cube.state.grid.widths == (T,) * len(widths)
    for a, b in ((narrow.fine, cube.fine), (narrow.coarse, cube.coarse)):
        assert a.g == pytest.approx(b.g, rel=1e-12, abs=0)
        assert a.iterations == b.iterations
    assert narrow.phase_offset == cube.phase_offset


@pytest.mark.parametrize(
    "pot, rotation, T, h, widths",
    [
        (QUARTIC, rotation_to("3/5", "4/5"), 8.0, 1 / 16, (0.25,)),  # one cell of the probe mesh 1/4
        (QUARTIC, I2, 8.0, 1 / 4, (0.5,)),  # the probe mesh is 1/2
        (QUARTIC, I2, 3.0, 1 / 16, (0.25,)),  # whatever T / m is whole
        (QUARTIC, I2, 1.75, 1 / 32, (0.125,)),  # the probe mesh is 1/8
        (striped(0.5), rotation_to("3/5", "4/5"), 4.0, 1 / 8, (4.0,)),  # a whole period along t is 5/4 long
        (striped(0.5), rotation_to("3/5", "4/5"), 8.0, 1 / 8, (8.0,)),
        (striped(0.5), rotation_to("3/5", "4/5"), 5.0, 1 / 8, (2.5,)),
        (striped(0.5, axis=1), rotation_to(0, "3/5", "4/5"), 10.0, 1 / 8, (0.25, 2.5)),  # t_1 = -e1 crosses none
        (striped(0.5), rotation_to("1/3", "2/3", "2/3"), 6.0, 1 / 8, (3.0, 3.0)),
        (checkerboard(2.0), rotation_to("3/5", "4/5"), 10.0, 1 / 8, (5.0,)),
        (striped(0.5), RationalRotation.identity(3), 4.0, 1 / 16, (2.0, 0.25)),  # t_2 = e2 crosses no stripe
    ],
)
def test_schedule_levels_narrow_to_whole_weight_periods(monkeypatch, pot, rotation, T, h, widths):
    (levels,) = schedule_levels(rotation, [T], h, pot)
    (pinned,) = schedule_levels(rotation, [T], h, pot, "dirichlet")
    keep_the_cube(monkeypatch)
    (cube,) = schedule_levels(rotation, [T], h, pot)
    assert [grid.widths for grid in levels] == [widths] * len(levels)
    assert [grid.widths for grid in pinned] == [(T,) * (rotation.dim - 1)] * len(pinned)
    assert [grid.h for grid in levels] == [grid.h for grid in cube]  # the cube's mesh chain
    assert [grid.box.shape[-1] for grid in levels] == [grid.box.shape[-1] for grid in cube]
    assert levels[-1].box.shape[-1] >= 8
    for i, W in enumerate(widths):
        components = [rotation.matrix[k][i] for k in pot.varying_axes(rotation.dim)]
        if not any(components):  # the weight is constant along t_i = R e_i: one cell of the probe mesh
            assert W == levels[-1].h and levels[-1].box.shape[i] == 1
            continue
        assert T / W == round(T / W) and levels[-1].box.shape[i] >= 8
        if W < T:  # a whole weight period along t_i on every axis the weight varies along
            assert W >= 2
            assert all((F(W) * c).denominator == 1 for c in components)


def whole_period_width(T, probe_mesh, components):
    """The width rule without the one-cell case: the narrowest whole weight period, else T."""
    return next(cell._period_widths(T, probe_mesh, components), T)


@pytest.mark.parametrize(
    "pot, rotation, schedule, h",
    [
        pytest.param(QUARTIC, rotation_to("3/5", "4/5"), [1.75, 2.0, 3.0, 4.0, 8.0], 1 / 32, id="quartic-2d"),
        pytest.param(QUARTIC, rotation_to("1/3", "2/3", "2/3"), [1.75, 2.0, 3.0, 4.0], 1 / 16, id="quartic-3d"),
        pytest.param(striped(0.5), rotation_to(1, 0), [2.0, 3.0, 4.0, 8.0], 1 / 16, id="striped-axis0-e1"),
        pytest.param(striped(0.5, axis=1), I2, [2.0, 4.0, 5.0], 1 / 8, id="striped-axis1-e2"),
        pytest.param(striped(0.5), RationalRotation.identity(3), [2.0, 4.0, 6.0], 1 / 16, id="striped-3d-e3"),
        pytest.param(striped(0.5, axis=1), rotation_to(0, "3/5", "4/5"), [5.0, 10.0], 1 / 8, id="striped-3d-oblique"),
    ],
)
def test_constant_tangents_take_one_cell_of_the_probe_mesh(monkeypatch, pot, rotation, schedule, h):
    # along a tangent the weight does not vary along, every level is one cell of the probe mesh wide, so level k
    # above the probe mesh has 2^k cells there; the other axes keep their whole weight periods
    levels = schedule_levels(rotation, schedule, h, pot)
    monkeypatch.setattr(cell, "_period_width", whole_period_width)
    periods = schedule_levels(rotation, schedule, h, pot)
    keep_the_cube(monkeypatch)
    cubes = schedule_levels(rotation, schedule, h, pot)
    constant = [not any(t[k] for k in pot.varying_axes(rotation.dim)) for t in list(zip(*rotation.matrix))[:-1]]
    assert any(constant)
    for grids, period, cube in zip(levels, periods, cubes):
        assert [grid.h for grid in grids] == [grid.h for grid in cube]  # the cube's mesh chain
        assert [grid.box.shape[-1] for grid in grids] == [grid.box.shape[-1] for grid in cube]
        probe = grids[-1]
        for i, one_cell in enumerate(constant):
            if one_cell:
                assert [grid.widths[i] for grid in grids] == [probe.h] * len(grids)
                assert [grid.box.shape[i] for grid in grids] == [2**k for k in reversed(range(len(grids)))]
            else:
                assert [grid.widths[i] for grid in grids] == [grid.widths[i] for grid in period]


def test_estimate_sigma_quartic_small_schedule(prof):
    est = estimate_sigma(None, [2.0, 4.0], QUARTIC, prof, h=1 / 16)
    assert est.converged
    assert abs(est.sigma_hat - 8.0 / 3.0) <= 0.05
    assert est.error_bar > 0


def test_error_bar_is_the_last_t_difference_plus_the_last_mesh_difference(prof):
    # stripes along the normal e2: g moves with T, so both terms of the bar are nonzero
    est = estimate_sigma(None, [2.0, 4.0], striped(0.5, axis=1), prof, h=1 / 8)
    prev, last = est.refinements
    t_term, mesh_term = abs(last.fine.g - prev.fine.g), abs(last.fine.g - last.coarse.g)
    assert t_term > 0 and mesh_term > 0
    assert est.error_bar == t_term + mesh_term
    assert SigmaEstimate([last]).error_bar == mesh_term  # a one-edge schedule: the mesh difference alone
    assert est.per_T == [(r.state.grid.T, r.state.grid.h, r.fine.g) for r in est.refinements] == [
        (2.0, 1 / 8, prev.fine.g),
        (4.0, 1 / 8, last.fine.g),
    ]
    assert est.sigma_hat == last.fine.g
    assert est.nu.tolist() == last.state.grid.nu.tolist() == [0.0, 1.0]


def test_estimate_sigma_validates_schedule(prof):
    with pytest.raises(ValueError):
        estimate_sigma(None, [], QUARTIC, prof, h=1 / 16)
    with pytest.raises(ValueError):
        estimate_sigma(None, [4.0, 2.0], QUARTIC, prof, h=1 / 16)


def test_estimate_sigma_rejects_a_rotation_of_another_dimension(prof):
    with pytest.raises(ValueError, match="dimension"):
        estimate_sigma(RationalRotation.identity(3), [2.0], QUARTIC, prof, h=1 / 8)


def test_estimate_sigma_lattice_alignment_guard(prof):
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    with pytest.raises(ValueError, match="period 5"):
        estimate_sigma(R, [4.0, 8.0], striped(0.5), prof, h=1 / 16, lattice_aligned=True)


def test_striped_aligned_regression(prof):
    # lattice-aligned direction (3/5, 4/5), schedule {5, 10}
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    est = estimate_sigma(R, [5.0, 10.0], striped(0.5), prof, h=1 / 16, lattice_aligned=True)
    assert est.converged
    assert est.sigma_hat > 0
    assert est.error_bar > 0
    assert est.sigma_hat == pytest.approx(2.6635, abs=5e-3)


def test_minimize_cell_3d_smoke(prof3):
    grid = CellGrid(3, 2.0, 2 / 8)
    res, state = minimize_cell(grid, QUARTIC, prof3)
    assert res.converged
    assert res.g > 0
    assert state.u.shape == grid.box.shape + (1,)


def test_minimize_cell_keeps_pinned_nodes_3d(prof3):
    # periodic tangential faces: only the two normal faces are pinned
    grid = CellGrid(3, 2.0, 2 / 8)
    rng = np.random.default_rng(5)
    init = CellState(grid, rng.uniform(-1.2, 1.2, grid.box.shape + (1,)))
    res, state = minimize_cell(grid, QUARTIC, prof3, init=init)
    bmask = grid.box.boundary_mask()
    assert res.iterations > 0
    assert state.u[bmask].tobytes() == initial_state(grid, prof3).u[bmask].tobytes()


def test_profile_of_another_dimension_rejected(prof):
    # a 2D profile is not the 3D mollified step: the solve would converge to another g
    with pytest.raises(ValueError, match="dimension 2"):
        minimize_cell(CellGrid(3, 2.0, 2 / 8, tangential="dirichlet"), QUARTIC, prof)


def test_profile_of_other_wells_rejected():
    other = TransitionProfile(WellPair(0.0, 2.0), Mollifier("bump", 0.5), dim=2)
    with pytest.raises(ValueError, match="other wells"):
        minimize_cell(CellGrid(2, 2.0, 1 / 8), QUARTIC, other)


def test_grid_validation():
    with pytest.raises(ValueError):
        CellGrid(2, 0.5, 1 / 16)
    with pytest.raises(ValueError):
        CellGrid(2, 2.0, 0.3)  # mesh does not divide the edge
    with pytest.raises(ValueError):
        CellGrid(4, 2.0, 1 / 8)
    with pytest.raises(ValueError):
        CellGrid(2, 2.0, 1 / 2)  # too few nodes
    for h in (0.0, float("nan"), 0.3):  # the mesh must be positive and divide the edge
        with pytest.raises(ValueError):
            CellGrid(2, 4.0, h)


def test_grid_builds_its_box_once():
    grid = CellGrid(2, 4.0, 1 / 16, rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5)))))
    assert grid.box is grid.box
    assert grid.rotation_matrix is grid.rotation_matrix
    coarse = replace(grid, h=2 * grid.h)
    assert coarse.box.shape == (32, 33)
    assert coarse == CellGrid(2, 4.0, 1 / 8, grid.rotation)


def test_grid_tangential_widths():
    grid = CellGrid(3, 4.0, 1 / 8, widths=(2.0, 4.0))
    assert grid.box.shape == (16, 32, 33) and grid.area == 8.0
    assert grid.box.lo == (-1.0, -2.0, -2.0) and grid.box.hi == (1.0, 2.0, 2.0)
    cube = CellGrid(2, 4.0, 1 / 8)
    assert cube.widths == (4.0,) and cube.area == 4.0 and cube == CellGrid(2, 4.0, 1 / 8, widths=(4,))
    assert replace(grid, h=1 / 4).widths == (2.0, 4.0)
    with pytest.raises(ValueError, match="2 tangential widths"):
        CellGrid(3, 4.0, 1 / 8, widths=(2.0,))
    with pytest.raises(ValueError, match="T-cube"):
        CellGrid(2, 4.0, 1 / 8, tangential="dirichlet", widths=(2.0,))
    with pytest.raises(ValueError, match="does not divide"):
        CellGrid(2, 4.0, 1 / 8, widths=(2.1,))


def test_nonconvergence_is_reported_not_raised(prof):
    res, state = minimize_cell(
        CellGrid(2, 2.0, 1 / 16), QUARTIC, prof, SolverOptions(tolerance=1e-14, max_iterations=3)
    )
    assert not res.converged
    assert res.iterations == 3
    assert np.isfinite(res.g)


def test_energy_parts_sum(prof):
    grid = CellGrid(2, 2.0, 1 / 8)
    st = initial_state(grid, prof)
    parts = cell_model(grid, QUARTIC).energy_parts(st.u)
    assert parts.total == pytest.approx(parts.potential + parts.gradient, rel=1e-14)


def test_orbit_members_solve_their_representatives_problem_3d():
    # striped(0.5) along y1 is even in every axis and blind to swapping y2, y3.  (2/3, 1/3, 2/3) is
    # no image of (1/3, 2/3, 2/3); (1/3, 2/3, -2/3) is, under G = diag(1, 1, -1), but rotation_from_direction
    # frames its tangent plane by no signed permutation of the representative's, so it is solved on its own.
    # The quartic's constant weight is its own image under every D, whatever the frame: one orbit.
    dirs = [(1, 2, 2), (-1, 2, 2), (1, -2, 2), (2, 1, 2), (1, 2, -2)]
    rotations = [rotation_from_direction(RationalUnitVector(tuple(F(c, 3) for c in v))) for v in dirs]
    for pot, want in ((striped(0.5), [0, 0, 0, 3, 4]), (QUARTIC, [0, 0, 0, 0, 0])):
        prof3 = TransitionProfile(pot.wells, Mollifier("bump", 0.5), dim=3)
        reps = orbit_representatives([schedule_levels(R, [4.0], 1 / 4, pot) for R in rotations], pot)
        assert reps == want
        estimates = [estimate_sigma(R, [4.0], pot, prof3, 1 / 4, dim=3) for R in rotations]
        for est, rep in zip(estimates, reps):
            assert est.sigma_hat == pytest.approx(estimates[rep].sigma_hat, rel=1e-12, abs=0)
            assert est.error_bar == pytest.approx(estimates[rep].error_bar, rel=1e-12, abs=0)
        assert (abs(estimates[4].sigma_hat - estimates[0].sigma_hat) > 1e-3) == (reps[4] != 0)


@pytest.mark.parametrize(
    "pot, want",
    [
        (striped(0.5), [0, 1, 2, 3, 4, 3, 6, 1, 0, 1, 6, 3, 4, 3, 2, 1]),
        (striped(0.5, axis=1), [0, 1, 2, 3, 4, 3, 6, 1, 0, 1, 6, 3, 4, 3, 2, 1]),
        (checkerboard(2.0), [0, 1, 2, 1, 0, 5, 6, 5, 0, 1, 2, 1, 0, 5, 6, 5]),
        (smooth_modulated(0.5), [0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1]),
        (piecewise_cells(np.random.default_rng(0).uniform(0.5, 2.0, (3, 3))), list(range(16))),
        (piecewise_cells(np.array([[1.0, 2.0], [2.0, 4.0]])), [0, 1, 2, 1, 0, 5, 6, 7, 8, 9, 10, 9, 8, 7, 6, 5]),
        (QUARTIC, [0] * 16),
    ],
    ids=["striped-axis0", "striped-axis1", "checkerboard", "smooth-modulated", "cells-random", "cells-2x2", "quartic"],
)
def test_ring_orbits(pot, want):
    # the directions of a config's `uniform = 16` at `rational_tol = 1e-2`
    thetas = 2 * np.pi * np.arange(16) / 16
    rotations = [rotation_from_direction(rationalize_direction(np.array([np.cos(t), np.sin(t)]), 1e-2)) for t in thetas]
    assert orbit_representatives([schedule_levels(R, [2.0, 4.0], 1 / 8, pot) for R in rotations], pot) == want


def _ring_rotations(tol=1e-2):
    """The directions of a config's `uniform = 16` at `rational_tol`."""
    thetas = 2 * np.pi * np.arange(16) / 16
    return [rotation_from_direction(rationalize_direction(np.array([np.cos(t), np.sin(t)]), tol)) for t in thetas]


def test_ring_orbits_with_mixed_widths():
    # the polar ring: +-e1, whose tangent runs along the stripes, narrow to one cell of the probe mesh 1/4, +-e2 to
    # width 2, the oblique directions keep the cube
    pot = striped(0.5)
    cells = [schedule_levels(R, [4.0, 8.0], 1 / 8, pot) for R in _ring_rotations()]
    widths = {tuple(grids[0].widths for grids in levels) for levels in cells}
    assert widths == {((0.25,), (0.25,)), ((2.0,), (2.0,)), ((4.0,), (8.0,))}
    assert orbit_representatives(cells, pot) == [0, 1, 2, 3, 4, 3, 6, 1, 0, 1, 6, 3, 4, 3, 2, 1]


def test_orbits_with_unequal_widths_3d():
    # stripes along y2: at (0, 3, 4)/5 and its mirrors the tangent -e1 crosses no stripe (one cell of the probe mesh
    # 1/4) and the other tangent crosses them at 4/5 (the cube's 4); an image that swaps the two tangential axes
    # does not fit
    pot = striped(0.5, axis=1)
    dirs = [(0, 3, 4), (0, -3, 4), (0, 4, 3), (3, 0, 4), (0, 3, -4)]
    rotations = [rotation_from_direction(RationalUnitVector(tuple(F(c, 5) for c in v))) for v in dirs]
    cells = [schedule_levels(R, [4.0], 1 / 8, pot) for R in rotations]
    assert [levels[0][0].widths for levels in cells] == [(0.25, 4.0)] * 3 + [(0.25, 2.0), (0.25, 4.0)]
    reps = orbit_representatives(cells, pot)
    assert reps == [0, 0, 2, 3, 0]
    prof3 = TransitionProfile(pot.wells, Mollifier("bump", 0.5), dim=3)
    estimates = [estimate_sigma(R, [4.0], pot, prof3, 1 / 8, dim=3) for R in rotations]
    for est, rep in zip(estimates, reps):
        assert est.sigma_hat == pytest.approx(estimates[rep].sigma_hat, rel=1e-12, abs=0)


def test_orbit_representatives_take_the_dimension_from_the_rotations():
    assert orbit_representatives([], QUARTIC) == []
    rotations = [rotation_from_direction(RationalUnitVector((F(0), F(1)))), RationalRotation.identity(3)]
    with pytest.raises(ValueError, match="mixed dimensions"):
        orbit_representatives([schedule_levels(R, [2.0], 1 / 8, QUARTIC) for R in rotations], QUARTIC)


@pytest.mark.parametrize("stop", list(STOPS))
def test_reported_parts_are_the_energy_at_the_returned_state(monkeypatch, prof, stop):
    opts, backtracks = STOPS[stop]
    monkeypatch.setattr(descent, "MAX_BACKTRACKS", backtracks)
    seen = record_last_point(monkeypatch, cell)
    grid = CellGrid(2, 2.0, 1 / 8)
    res, state = minimize_cell(grid, QUARTIC, prof, opts, init=initial_state(grid, prof, 0.25))
    check_stop(stop, res, state.u.ravel(), seen["x"], opts.resolved_max_iterations(grid.box.shape))
    parts = cell_model(grid, QUARTIC).energy_parts(state.u)
    assert (res.potential_part, res.gradient_part, res.g) == (
        parts.potential / grid.area,
        parts.gradient / grid.area,
        parts.total / grid.area,
    )
    assert res.evaluations == 1 + res.iterations + res.backtracks


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("tangential", ["periodic", "dirichlet"])
@pytest.mark.parametrize("d", [1, 2])
def test_initial_state_is_the_profile_at_every_node(dim, tangential, d):
    pot = homogeneous_quartic(d=d)
    profile = TransitionProfile(pot.wells, Mollifier("bump", 0.5), dim=dim)
    grid = CellGrid(dim, 2.0, 1 / 8, tangential=tangential)
    for offset in (0.0, 0.25, 0.5, 0.75):
        u = initial_state(grid, profile, offset).u
        want = profile(grid.box.node_points()[..., -1] - offset)
        assert u.shape == want.shape == grid.box.shape + (d,)
        assert u.tobytes() == want.tobytes()
        assert u.flags.writeable and u.flags.c_contiguous


def test_warm_start_with_another_component_count_rejected(prof):
    grid = CellGrid(2, 1.0, 1 / 8)
    two = homogeneous_quartic(d=2)
    prof_two = TransitionProfile(two.wells, Mollifier("bump", 0.5), dim=2)
    for pot, profile, d in ((QUARTIC, prof, 2), (two, prof_two, 1)):
        warm = CellState(grid, np.zeros(grid.box.shape + (d,)))
        with pytest.raises(ValueError, match="warm start does not match the grid"):
            minimize_cell(grid, pot, profile, init=warm)


def test_cell_solve_frees_its_model_without_the_cyclic_collector(prof):
    grid = CellGrid(2, 2.0, 1 / 8)
    assert new_models_left_after(lambda: minimize_cell(grid, QUARTIC, prof)) == []
