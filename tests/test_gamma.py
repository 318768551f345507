import numpy as np
import pytest

from sigmacell.cell import CellGrid, CellState, assemble_energy, boundary_values, minimize_cell
from sigmacell.gamma import (
    DomainSpec,
    _boundary_data,
    PhaseField,
    RecoveryParams,
    build_recovery,
    diffuse_energy,
    gamma_gap,
    minimize_diffuse,
)
from sigmacell.grids import node_quadrature_weights
from sigmacell.potential import homogeneous_quartic, striped
from sigmacell.profile import Mollifier, TransitionProfile

QUARTIC = homogeneous_quartic()


@pytest.fixture(scope="module")
def prof():
    return TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=2)


@pytest.fixture(scope="module")
def strip():
    return DomainSpec.flat_strip()


@pytest.fixture(scope="module")
def cell_state(prof):
    _, state = minimize_cell(CellGrid(2, 4.0, 1 / 64), QUARTIC, prof)
    return state


def _all_step_domain():
    faces = (("dirichlet-step", "dirichlet-step"), ("dirichlet-step", "dirichlet-step"))
    return DomainSpec(lo=(-0.5, -0.5), hi=(0.5, 0.5), faces=faces, nu=(0.0, 1.0))


def test_matches_cell_energy_at_unit_scale(prof):
    grid = CellGrid(2, 1.0, 1 / 16, tangential="dirichlet")
    st = CellState(grid, boundary_values(grid, prof))
    dom = _all_step_domain()
    field = PhaseField(dom, 1.0, 1 / 16, st.u)
    assert abs(diffuse_energy(dom, QUARTIC, field) - assemble_energy(grid, QUARTIC, st)) <= 1e-12


def test_pure_phase_has_zero_energy(strip):
    grid = strip.grid(1 / 16)
    u = np.broadcast_to(QUARTIC.wells.a, grid.shape + (1,)).copy()
    dom = DomainSpec(strip.lo, strip.hi, (("periodic", "periodic"), ("dirichlet-a", "dirichlet-a")), strip.nu)
    assert diffuse_energy(dom, QUARTIC, PhaseField(dom, 0.25, 1 / 16, u)) == 0.0


def test_constant_midpoint_value():
    dom = _all_step_domain()
    u = np.zeros((17, 17, 1))
    assert diffuse_energy(dom, QUARTIC, PhaseField(dom, 0.5, 1 / 16, u)) == pytest.approx(2.0)


def test_trivial_minimize_zero_iterations(prof):
    faces = (("dirichlet-a", "dirichlet-a"), ("dirichlet-a", "dirichlet-a"))
    dom = DomainSpec(lo=(0.0, 0.0), hi=(1.0, 1.0), faces=faces, nu=(0.0, 1.0))
    init = np.broadcast_to(QUARTIC.wells.a, (17, 17, 1)).copy()
    _, parts, res = minimize_diffuse(dom, QUARTIC, 0.5, 1 / 16, prof, init=init)
    assert parts.total == 0.0
    assert res.iterations == 0


def test_strip_energies_decrease_toward_sigma(prof, strip):
    energies = []
    for eps, h in ((1 / 4, 1 / 16), (1 / 8, 1 / 32), (1 / 16, 1 / 64)):
        _, parts, res = minimize_diffuse(strip, QUARTIC, eps, h, prof)
        assert res.converged
        energies.append(parts.total)
    target = 8.0 / 3.0
    assert energies[-1] == pytest.approx(target, rel=0.05)
    gaps = [abs(e - target) for e in energies]
    assert gaps[2] < gaps[0]


def test_mass_constraint_exact(prof):
    faces = (("periodic", "periodic"), ("periodic", "periodic"))
    dom = DomainSpec(lo=(0.0, 0.0), hi=(1.0, 1.0), faces=faces, nu=(0.0, 1.0))
    target = np.array([0.0])  # midpoint mass
    fieldv, parts, res = minimize_diffuse(dom, QUARTIC, 0.25, 1 / 32, prof, mass_target=target)
    wq = node_quadrature_weights(dom.grid(1 / 32))
    mass = (wq[..., None] * fieldv.u).sum(axis=(0, 1))
    assert abs(mass - target).max() <= 1e-10


@pytest.mark.parametrize("mass_target", [None, np.array([0.1])])
def test_minimize_diffuse_keeps_pinned_nodes(prof, mass_target):
    dom = _all_step_domain()  # every node on the boundary is pinned
    eps, h = 0.25, 1 / 16
    grid = dom.grid(h)
    init = np.random.default_rng(9).uniform(-1.2, 1.2, grid.shape + (1,))
    fieldv, parts, res = minimize_diffuse(dom, QUARTIC, eps, h, prof, init=init, mass_target=mass_target)
    mask, data = _boundary_data(dom, grid, QUARTIC, prof, eps)
    assert res.iterations > 0
    assert fieldv.u[mask].tobytes() == data[mask].tobytes()


def test_mass_target_validation(prof):
    faces = (("periodic", "periodic"), ("periodic", "periodic"))
    dom = DomainSpec(lo=(0.0, 0.0), hi=(1.0, 1.0), faces=faces, nu=(0.0, 1.0))
    with pytest.raises(ValueError):
        minimize_diffuse(dom, QUARTIC, 0.25, 1 / 16, prof, mass_target=np.array([2.0]))


def test_recovery_far_field_exact(prof, strip, cell_state):
    rec = build_recovery(RecoveryParams(cell_state, 1 / 8, (0.0, 0.0)), strip, 1 / 32, QUARTIC)
    grid = strip.grid(1 / 32)
    pts = grid.node_points()
    far_lo = pts[..., 1] < -0.3
    far_hi = pts[..., 1] > 0.3
    assert np.array_equal(rec.u[far_lo], np.broadcast_to(QUARTIC.wells.a, rec.u[far_lo].shape))
    assert np.array_equal(rec.u[far_hi], np.broadcast_to(QUARTIC.wells.b, rec.u[far_hi].shape))


def test_recovery_tangential_periodicity(prof, strip, cell_state):
    eps = 1 / 8
    rec = build_recovery(RecoveryParams(cell_state, eps, (0.0, 0.0)), strip, 1 / 32, QUARTIC)
    period_nodes = int(round(eps * cell_state.grid.T / (1 / 32)))
    layer = rec.u[:, 8:25, :]  # inside the transition layer
    shifted = np.roll(layer, period_nodes, axis=0)
    assert np.abs(layer - shifted).max() <= 1e-10


def test_recovery_energy_matches_cell_density(prof, strip, cell_state):
    for eps in (1 / 8, 1 / 16):
        rec = build_recovery(RecoveryParams(cell_state, eps, (0.0, 0.0)), strip, eps / 8, QUARTIC)
        e = diffuse_energy(strip, QUARTIC, rec)
        g_cell = assemble_energy(cell_state.grid, QUARTIC, cell_state) / 4.0
        assert e == pytest.approx(g_cell * strip.interface_area(), rel=0.02)


def test_recovery_layer_must_fit(prof, cell_state):
    small = DomainSpec.flat_strip(height=0.25)
    with pytest.raises(ValueError, match="layer"):
        build_recovery(RecoveryParams(cell_state, 1 / 4, (0.0, 0.0)), small, 1 / 32, QUARTIC)


def test_nonzero_lattice_shift_branch(prof, strip, cell_state):
    # anchor off the eps-lattice: shift is nonzero, field stays admissible
    eps = 1 / 8
    params = RecoveryParams(cell_state, eps, (0.3, 0.0))
    assert np.abs(params.lattice_shift()).max() > 0
    rec = build_recovery(params, strip, 1 / 32, QUARTIC)
    assert np.isfinite(rec.u).all()
    # far field is still the pure step relative to the anchor plane
    grid = strip.grid(1 / 32)
    pts = grid.node_points()
    far_hi = pts[..., 1] > 0.4
    assert np.array_equal(rec.u[far_hi], np.broadcast_to(QUARTIC.wells.b, rec.u[far_hi].shape))


def test_gamma_gap_rows(prof, strip, cell_state):
    rows = gamma_gap(strip, [1 / 4, 1 / 8], QUARTIC, prof, 8.0 / 3.0, cell_state)
    assert len(rows) == 2
    for r in rows:
        assert r.converged
        assert r.min_energy <= r.recovery_energy + 1e-10
    assert rows[1].gap_min <= rows[0].gap_min


def test_gamma_gap_single_row(prof, strip, cell_state):
    rows = gamma_gap(strip, [1 / 4], QUARTIC, prof, 8.0 / 3.0, cell_state)
    assert len(rows) == 1


def test_warm_start_dominance_striped(prof, strip):
    pot = striped(0.5)
    _, state = minimize_cell(CellGrid(2, 4.0, 1 / 64), pot, prof)
    rows = gamma_gap(strip, [1 / 4, 1 / 8], pot, prof, 2.66, state)
    for r in rows:
        assert r.min_energy <= r.recovery_energy + 1e-10


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec(lo=(0, 0), hi=(1, 1), faces=(("periodic", "dirichlet-a"), ("dirichlet-a", "dirichlet-a")), nu=(0, 1))
    with pytest.raises(ValueError):
        DomainSpec(lo=(0, 0), hi=(1, 1), faces=(("periodic", "periodic"), ("periodic", "periodic")), nu=(0, 2))
