from fractions import Fraction

import numpy as np
import pytest

from sigmacell.cell import (
    CellGrid,
    CellState,
    SolverOptions,
    assemble_energy,
    assemble_energy_parts,
    assemble_gradient,
    boundary_values,
    estimate_g,
    estimate_sigma,
    initial_state,
    minimize_cell,
)
from sigmacell.lattice import RationalUnitVector, rotation_from_direction
from sigmacell.oned import profile_energy_1d, transition_bvp_energy
from sigmacell.potential import homogeneous_quartic, lower_envelope, striped
from sigmacell.profile import Mollifier, TransitionProfile

F = Fraction
QUARTIC = homogeneous_quartic()


@pytest.fixture(scope="module")
def prof():
    return TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=2)


@pytest.fixture(scope="module")
def prof3():
    return TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=3)


def test_constant_well_field_has_zero_energy(prof):
    grid = CellGrid(2, 2.0, 1 / 8)
    u = np.broadcast_to(QUARTIC.wells.a, grid.box.shape + (1,)).copy()
    assert assemble_energy(grid, QUARTIC, CellState(grid, u)) == 0.0
    g = assemble_gradient(grid, QUARTIC, CellState(grid, u))
    assert np.abs(g).max() == 0.0


def test_constant_midpoint_energy_is_cube_volume(prof):
    grid = CellGrid(2, 1.0, 1 / 16)
    u = np.zeros(grid.box.shape + (1,))
    assert assemble_energy(grid, QUARTIC, CellState(grid, u)) == pytest.approx(1.0, rel=1e-12)


def test_profile_field_matches_1d_quadrature(prof):
    grid = CellGrid(2, 4.0, 1 / 16, tangential="dirichlet")
    st = CellState(grid, boundary_values(grid, prof))
    e2d = assemble_energy(grid, QUARTIC, st)
    e1d = profile_energy_1d(QUARTIC, prof, 4.0)
    assert e2d == pytest.approx(4.0 * e1d, rel=0.01)


def test_non_finite_state_rejected(prof):
    grid = CellGrid(2, 2.0, 1 / 8)
    u = np.zeros(grid.box.shape + (1,))
    u[3, 3, 0] = np.nan
    with pytest.raises(ValueError):
        assemble_energy(grid, QUARTIC, CellState(grid, u))


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
    for trial in range(4):
        u = rng.uniform(-1.3, 1.3, size=grid.box.shape + (pot.d,))
        state = CellState(grid, u)
        g = assemble_gradient(grid, pot, state)
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
            fd = (
                assemble_energy(grid, pot, CellState(grid, up))
                - assemble_energy(grid, pot, CellState(grid, um))
            ) / (2 * step)
            worst = max(worst, abs(fd - g[entry]) / gsup)
        assert worst <= 1e-6


def test_gradient_periodic_tangential_matches_fd(prof):
    rng = np.random.default_rng(77)
    grid = CellGrid(2, 2.0, 1 / 8)  # periodic tangential axis
    u = rng.uniform(-1.2, 1.2, size=grid.box.shape + (1,))
    state = CellState(grid, u)
    g = assemble_gradient(grid, QUARTIC, state)
    free = ~grid.box.boundary_mask()
    idx = np.argwhere(free)[::7]
    step = 1e-6
    gsup = np.abs(g).max()
    for node in idx:
        up = u.copy()
        um = u.copy()
        up[tuple(node) + (0,)] += step
        um[tuple(node) + (0,)] -= step
        fd = (
            assemble_energy(grid, QUARTIC, CellState(grid, up))
            - assemble_energy(grid, QUARTIC, CellState(grid, um))
        ) / (2 * step)
        assert abs(fd - g[tuple(node) + (0,)]) / gsup <= 1e-6


def test_minimize_quartic_matches_reference_interval(prof):
    res, _ = minimize_cell(CellGrid(2, 4.0, 1 / 32), QUARTIC, prof)
    assert res.converged
    assert 2.62 <= res.g <= 2.75
    oracle = transition_bvp_energy(QUARTIC, prof, 4.0)
    assert res.g == pytest.approx(oracle, rel=5e-3)


def test_minimize_monotone_descent(prof):
    opts = SolverOptions(record_trace=True)
    res, _ = minimize_cell(CellGrid(2, 2.0, 1 / 16), QUARTIC, prof, opts)
    trace = np.array(res.trace)
    assert (np.diff(trace) <= 1e-12).all()


def test_minimize_upper_bound_is_initialization(prof):
    grid = CellGrid(2, 2.0, 1 / 16)
    init = initial_state(grid, prof)
    e0 = assemble_energy(grid, QUARTIC, init) / 2.0
    res, _ = minimize_cell(grid, QUARTIC, prof)
    assert res.g <= e0 + 1e-12


def test_loose_tolerance_returns_initial_energy(prof):
    grid = CellGrid(2, 2.0, 1 / 16)
    init = initial_state(grid, prof)
    e0 = assemble_energy(grid, QUARTIC, init) / 2.0
    res, _ = minimize_cell(grid, QUARTIC, prof, SolverOptions(tolerance=1e6))
    assert res.iterations == 0
    assert res.g == pytest.approx(e0, rel=1e-14)


def test_envelope_lower_bound(prof):
    pot = striped(0.5)
    env = lower_envelope(pot).as_potential()
    grid = CellGrid(2, 4.0, 1 / 16)
    res_w, _ = minimize_cell(grid, pot, prof)
    res_e, _ = minimize_cell(grid, env, prof)
    assert res_w.g >= res_e.g - 1e-8


def test_homogeneous_g_is_rotation_invariant(prof):
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    res_rot, _ = minimize_cell(CellGrid(2, 4.0, 1 / 16, R), QUARTIC, prof)
    res_id, _ = minimize_cell(CellGrid(2, 4.0, 1 / 16), QUARTIC, prof)
    assert res_rot.g == pytest.approx(res_id.g, abs=1e-10)


def test_estimate_g_refinement_error_shrinks(prof):
    ref_coarse = estimate_g(None, 2.0, QUARTIC, prof, 1 / 8)
    ref_fine = estimate_g(None, 2.0, QUARTIC, prof, 1 / 16)
    assert ref_coarse.discretization_error >= 2.0 * ref_fine.discretization_error


def test_estimate_g_rejects_small_cubes(prof):
    with pytest.raises(ValueError):
        estimate_g(None, 0.5, QUARTIC, prof, 1 / 16)


def test_estimate_sigma_quartic_small_schedule(prof):
    est = estimate_sigma(None, [2.0, 4.0], QUARTIC, prof, h=1 / 16)
    assert est.converged
    assert abs(est.sigma_hat - 8.0 / 3.0) <= 0.05
    assert est.error_bar > 0


def test_estimate_sigma_validates_schedule(prof):
    with pytest.raises(ValueError):
        estimate_sigma(None, [], QUARTIC, prof, h=1 / 16)
    with pytest.raises(ValueError):
        estimate_sigma(None, [4.0, 2.0], QUARTIC, prof, h=1 / 16)


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
    assert state.u[bmask].tobytes() == boundary_values(grid, prof3)[bmask].tobytes()


def test_grid_validation():
    with pytest.raises(ValueError):
        CellGrid(2, 0.5, 1 / 16)
    with pytest.raises(ValueError):
        CellGrid(2, 2.0, 0.3)  # mesh does not divide the edge
    with pytest.raises(ValueError):
        CellGrid(4, 2.0, 1 / 8)
    with pytest.raises(ValueError):
        CellGrid(2, 2.0, 1 / 2)  # too few nodes


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
    parts = assemble_energy_parts(grid, QUARTIC, st)
    assert parts.total == pytest.approx(parts.potential + parts.gradient, rel=1e-14)
