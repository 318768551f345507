import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from sigmacell import descent, gamma
from sigmacell.cell import CellGrid, SolverOptions, cell_model, initial_state, minimize_cell
from sigmacell.gamma import (
    DomainSpec,
    _boundary_data,
    _multilinear,
    PhaseField,
    build_recovery,
    diffuse_model,
    gamma_gap,
    minimize_diffuse,
)
from sigmacell.grids import node_quadrature_weights
from sigmacell.potential import WellPair, homogeneous_quartic, striped
from sigmacell.profile import Mollifier, TransitionProfile

from solve_checks import STOPS, check_stop, new_models_left_after, record_last_point

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
    st = initial_state(grid, prof)
    dom = _all_step_domain()
    field = PhaseField(dom, 1.0, 1 / 16, st.u)
    e_diffuse = diffuse_model(field.domain.grid(field.h), QUARTIC, field.eps).energy_parts(field.u).total
    assert abs(e_diffuse - cell_model(grid, QUARTIC).energy_parts(st.u).total) <= 1e-12


def test_pure_phase_has_zero_energy(strip):
    grid = strip.grid(1 / 16)
    u = np.broadcast_to(QUARTIC.wells.a, grid.shape + (1,)).copy()
    dom = DomainSpec(strip.lo, strip.hi, (("periodic", "periodic"), ("dirichlet-a", "dirichlet-a")), strip.nu)
    assert diffuse_model(dom.grid(1 / 16), QUARTIC, 0.25).energy_parts(u).total == 0.0


def test_constant_midpoint_value():
    dom = _all_step_domain()
    u = np.zeros((17, 17, 1))
    assert diffuse_model(dom.grid(1 / 16), QUARTIC, 0.5).energy_parts(u).total == pytest.approx(2.0)


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


def test_step_data_is_the_unit_profile_at_x_over_eps(prof):
    faces = (("dirichlet-step", "dirichlet-step"), ("dirichlet-step", "dirichlet-step"))
    dom = DomainSpec(lo=(-0.5, -0.5), hi=(0.5, 0.5), faces=faces, nu=(0.6, 0.8))
    eps, h = 1 / 8, 1 / 64
    grid = dom.grid(h)
    fieldv, _, res = minimize_diffuse(dom, QUARTIC, eps, h, prof, opts=SolverOptions(max_iterations=0))
    expected = prof((1.0 / eps) * (grid.node_points() @ np.asarray(dom.nu)))
    mask, data = _boundary_data(dom, grid, QUARTIC, prof, eps)
    assert res.iterations == 0
    assert len(np.unique(data[mask])) > 2  # the faces cross the transition
    assert data[mask].tobytes() == expected[mask].tobytes()
    assert fieldv.u.tobytes() == expected.tobytes()


def test_mass_target_validation(prof):
    faces = (("periodic", "periodic"), ("periodic", "periodic"))
    dom = DomainSpec(lo=(0.0, 0.0), hi=(1.0, 1.0), faces=faces, nu=(0.0, 1.0))
    with pytest.raises(ValueError):
        minimize_diffuse(dom, QUARTIC, 0.25, 1 / 16, prof, mass_target=np.array([2.0]))


def test_recovery_far_field_exact(prof, strip, cell_state):
    rec = build_recovery(cell_state, 1 / 8, strip, 1 / 32, QUARTIC)
    grid = strip.grid(1 / 32)
    pts = grid.node_points()
    far_lo = pts[..., 1] < -0.3
    far_hi = pts[..., 1] > 0.3
    assert np.array_equal(rec.u[far_lo], np.broadcast_to(QUARTIC.wells.a, rec.u[far_lo].shape))
    assert np.array_equal(rec.u[far_hi], np.broadcast_to(QUARTIC.wells.b, rec.u[far_hi].shape))


def test_recovery_tangential_periodicity(prof, strip, cell_state):
    eps = 1 / 8
    rec = build_recovery(cell_state, eps, strip, 1 / 32, QUARTIC)
    period_nodes = int(round(eps * cell_state.grid.T / (1 / 32)))
    layer = rec.u[:, 8:25, :]  # inside the transition layer
    shifted = np.roll(layer, period_nodes, axis=0)
    assert np.abs(layer - shifted).max() <= 1e-10


def test_recovery_energy_matches_cell_density(prof, strip, cell_state):
    for eps in (1 / 8, 1 / 16):
        rec = build_recovery(cell_state, eps, strip, eps / 8, QUARTIC)
        e = diffuse_model(rec.domain.grid(rec.h), QUARTIC, eps).energy_parts(rec.u).total
        g_cell = cell_model(cell_state.grid, QUARTIC).energy_parts(cell_state.u).total / 4.0
        assert e == pytest.approx(g_cell * strip.interface_area(), rel=0.02)


def test_recovery_layer_must_fit(prof, cell_state):
    faces = (("periodic", "periodic"), ("dirichlet-a", "dirichlet-b"))
    small = DomainSpec(lo=(0.0, -0.125), hi=(1.0, 0.125), faces=faces, nu=(0.0, 1.0))
    with pytest.raises(ValueError, match="layer"):
        build_recovery(cell_state, 1 / 4, small, 1 / 32, QUARTIC)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_multilinear_lookup_equals_scipy(dim, d):
    rng = np.random.default_rng(10 * dim + d)
    axes = [-1.0 + 0.25 * np.arange(n) for n in (9, 10, 11)[:dim]]  # the closed nodes of a cell, T = 2
    values = rng.standard_normal(tuple(x.size for x in axes) + (d,))
    lo, hi = np.array([x[0] for x in axes]), np.array([x[-1] for x in axes])
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    inside = rng.uniform(lo, hi, (1000, dim))
    lines = inside.copy()
    lines[:, -1] = rng.choice(axes[-1], len(lines))  # on grid lines of the last axis
    faces = inside.copy()
    faces[::2, 0] = lo[0]
    faces[1::2, -1] = hi[-1]
    outside = rng.uniform(lo - 0.3, hi + 0.3, (1000, dim))
    scipy_lookup = RegularGridInterpolator(tuple(axes), values, method="linear", bounds_error=False, fill_value=None)
    for pts in (nodes, inside, lines, faces, outside.reshape(10, 100, dim)):
        got, want = _multilinear(axes, values, pts), scipy_lookup(pts)
        assert got.shape == want.shape == pts.shape[:-1] + (d,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


def test_mismatched_profile_rejected(strip):
    prof3 = TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=3)
    with pytest.raises(ValueError, match="dimension 3"):
        minimize_diffuse(strip, QUARTIC, 0.25, 1 / 16, prof3)
    other = TransitionProfile(WellPair(0.0, 2.0), Mollifier("bump", 0.5), dim=2)
    with pytest.raises(ValueError, match="other wells"):
        minimize_diffuse(strip, QUARTIC, 0.25, 1 / 16, other)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec(lo=(0, 0), hi=(1, 1), faces=(("periodic", "dirichlet-a"), ("dirichlet-a", "dirichlet-a")), nu=(0, 1))
    with pytest.raises(ValueError):
        DomainSpec(lo=(0, 0), hi=(1, 1), faces=(("periodic", "periodic"), ("periodic", "periodic")), nu=(0, 2))


def _mass_target(domain, fraction=0.4):
    wells = QUARTIC.wells
    return domain.volume * (wells.a + fraction * (wells.b - wells.a))


@pytest.mark.parametrize("mass", [False, True])
@pytest.mark.parametrize("stop", list(STOPS))
def test_reported_parts_are_the_energy_at_the_returned_field(monkeypatch, prof, strip, stop, mass):
    opts, backtracks = STOPS[stop]
    monkeypatch.setattr(descent, "MAX_BACKTRACKS", backtracks)
    seen = record_last_point(monkeypatch, gamma)
    eps, h = 1 / 2, 1 / 8
    target = _mass_target(strip) if mass else None
    field, parts, res = minimize_diffuse(strip, QUARTIC, eps, h, prof, mass_target=target, opts=opts)
    check_stop(stop, res, res.x, seen["x"], opts.resolved_max_iterations(strip.grid(h).shape))
    assert parts == diffuse_model(strip.grid(h), QUARTIC, eps).energy_parts(field.u)
    assert res.evaluations == 1 + res.iterations + res.backtracks


@pytest.mark.parametrize(
    "faces,nu",
    [
        ((("dirichlet-step",) * 2,) * 2, (0.6, 0.8)),
        ((("dirichlet-a", "dirichlet-step"), ("dirichlet-step", "dirichlet-b")), (-0.8, 0.6)),
        ((("periodic",) * 2, ("dirichlet-step",) * 2, ("dirichlet-step",) * 2), (2 / 3, 1 / 3, 2 / 3)),
    ],
)
def test_boundary_data_equals_the_profile_at_the_face_nodes(prof, faces, nu):
    dom = DomainSpec(lo=(-0.5,) * len(nu), hi=(0.5,) * len(nu), faces=faces, nu=nu)
    grid, eps = dom.grid(1 / 16), 1 / 4
    profile = prof if len(nu) == 2 else TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=3)
    mask, data = _boundary_data(dom, grid, QUARTIC, profile, eps)
    pts = grid.node_points()
    want = np.zeros_like(data)  # each face in turn, from the points of the whole grid
    for ax, pair in enumerate(faces):
        for side, policy in zip((0, -1), pair):
            sl = (slice(None),) * ax + (side,)
            if policy == "dirichlet-step":
                want[sl] = profile((1.0 / eps) * (pts[sl] @ np.asarray(nu)))
            elif policy != "periodic":
                want[sl] = QUARTIC.wells.a if policy == "dirichlet-a" else QUARTIC.wells.b
    assert np.array_equal(mask, grid.boundary_mask())
    assert data.tobytes() == want.tobytes()


@pytest.mark.parametrize("mass", [False, True])
def test_diffuse_solve_frees_its_model_without_the_cyclic_collector(prof, strip, mass):
    target = _mass_target(strip) if mass else None
    run = lambda: minimize_diffuse(strip, QUARTIC, 1 / 2, 1 / 8, prof, mass_target=target)  # noqa: E731
    assert new_models_left_after(run) == []
