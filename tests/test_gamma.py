import sys
from fractions import Fraction

import numpy as np
import pytest

from sigmacell import cell, descent, gamma
from sigmacell.cell import CellGrid, CellState, SolverOptions, cell_model, estimate_g, initial_state, minimize_cell
from sigmacell.gamma import (
    DomainSpec,
    _multilinear,
    build_recovery,
    default_gamma_mesh,
    gamma_gap,
    minimize_diffuse,
)
from sigmacell.grids import BoxGrid, EnergyModel, EnergyParts, closed_nodes, node_quadrature_weights
from sigmacell.lattice import RationalRotation, RationalUnitVector, rotation_from_direction
from sigmacell.potential import WellPair, homogeneous_quartic, striped
from sigmacell.profile import Mollifier, TransitionProfile, step_field

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


def _strip_energy(strip, pot, eps, h, u) -> EnergyParts:
    """The unit-weight energy of u on the strip's nodes in y = x/eps, divided by the area eps^(1-N)."""
    x = strip.grid(h)
    y_box = BoxGrid(np.divide(x.lo, eps), np.divide(x.hi, eps), h / eps, x.periodic)
    model, area = EnergyModel(y_box, pot, pot.spatial_factor(y_box.cell_centers())), eps ** (1 - strip.dim)
    parts = model.energy_parts(u)
    return EnergyParts(parts.total / area, parts.potential / area, parts.gradient / area)


@pytest.mark.parametrize("dim", [2, 3])
def test_interface_area_is_the_strip_width(dim):
    strip = DomainSpec.flat_strip(dim)
    assert strip.interface_area() == strip.volume == 1.0
    grid = strip.grid(1 / 4)
    assert grid.shape == (4,) * (dim - 1) + (5,)
    assert grid.periodic == (True,) * (dim - 1) + (False,)


@pytest.mark.parametrize("dim,h", [(2, 1 / 16), (3, 1 / 8)])
@pytest.mark.parametrize("pot", [QUARTIC, striped(0.5)], ids=["quartic", "striped"])
def test_strip_is_the_cell_at_T_one_over_eps(pot, dim, h):
    eps, profile = 1 / 4, TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=dim)
    strip, area = DomainSpec.flat_strip(dim), eps ** (1 - dim)
    cell, _ = minimize_cell(CellGrid(dim, 1 / eps, h / eps), pot, profile)
    assert cell.converged
    # at the cell's stopping rule in y units the two solves are the same, bit for bit
    same_stop = SolverOptions(tolerance=SolverOptions().resolved_tolerance(pot) / area)
    assert minimize_diffuse(strip, pot, eps, h, profile, opts=same_stop)[1].total == cell.g
    # by default it stops at area times that rule, and the energies differ by less than 1e-9 * area / 4
    _, parts, res = minimize_diffuse(strip, pot, eps, h, profile)
    assert res.converged
    assert abs(parts.total - cell.g) <= 1e-9 * area / 4


@pytest.mark.parametrize("pot", [QUARTIC, striped(0.5)], ids=["quartic", "striped"])
def test_energy_is_the_scaled_functional_in_x(prof, strip, pot):
    # midpoint quadrature of (1/eps) W(x/eps, u) + eps |grad u|^2 on the x-unit nodes, written out for 2D
    eps, h = 1 / 3, 1 / 12
    grid = strip.grid(h)
    u = np.random.default_rng(4).uniform(-1.2, 1.2, grid.shape + (1,))
    u[:, 0], u[:, -1] = QUARTIC.wells.a, QUARTIC.wells.b
    closed = np.concatenate([u, u[:1]], axis=0)  # the periodic lateral axis
    c00, c10, c01, c11 = closed[:-1, :-1], closed[1:, :-1], closed[:-1, 1:], closed[1:, 1:]
    center = (c00 + c10 + c01 + c11) / 4.0
    du_x = (c10 + c11 - c00 - c01) / (2.0 * h)
    du_y = (c01 + c11 - c00 - c10) / (2.0 * h)
    w = pot(grid.cell_centers() / eps, center)
    want = h * h * ((w / eps).sum() + eps * (du_x**2 + du_y**2).sum())
    _, parts, res = minimize_diffuse(strip, pot, eps, h, prof, init=u, opts=SolverOptions(max_iterations=0))
    assert res.iterations == 0
    assert parts.total == pytest.approx(want, rel=1e-12)


def test_trivial_minimize_zero_iterations(prof, strip):
    field, parts, _ = minimize_diffuse(strip, QUARTIC, 0.5, 1 / 16, prof)
    again, parts_again, res = minimize_diffuse(strip, QUARTIC, 0.5, 1 / 16, prof, init=field.u)
    assert res.iterations == 0
    assert parts_again == parts
    assert again.u.tobytes() == field.u.tobytes()


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


def _descents(monkeypatch):
    """Make `gamma.lbfgs_descent` record the size of its start and its keyword arguments in the returned list."""
    calls, real = [], gamma.lbfgs_descent

    def recorded(f_g, x0, **kwargs):
        calls.append((x0.size, kwargs))
        return real(f_g, x0, **kwargs)

    monkeypatch.setattr(gamma, "lbfgs_descent", recorded)
    return calls


def test_mass_constraint_exact(monkeypatch, prof, strip):
    target = np.array([0.0])  # midpoint mass
    calls = _descents(monkeypatch)
    fieldv, parts, res = minimize_diffuse(strip, QUARTIC, 0.25, 1 / 32, prof, mass_target=target)
    assert calls[0][0] * 2 == fieldv.u.size  # 2-wide units of a 1/eps = 4 strip
    wq = node_quadrature_weights(strip.grid(1 / 32))
    mass = (wq[..., None] * fieldv.u).sum(axis=(0, 1))
    assert res.converged
    assert abs(mass - target).max() <= 1e-10


@pytest.mark.parametrize("mass_target", [None, np.array([0.1])])
def test_minimize_diffuse_keeps_pinned_nodes(prof, strip, mass_target):
    eps, h = 0.25, 1 / 16
    init = np.random.default_rng(9).uniform(-1.2, 1.2, strip.grid(h).shape + (1,))
    fieldv, parts, res = minimize_diffuse(strip, QUARTIC, eps, h, prof, init=init, mass_target=mass_target)
    assert res.iterations > 0
    bottom, top = fieldv.u[:, 0], fieldv.u[:, -1]
    assert bottom.tobytes() == np.broadcast_to(QUARTIC.wells.a, bottom.shape).tobytes()
    assert top.tobytes() == np.broadcast_to(QUARTIC.wells.b, top.shape).tobytes()


def test_step_data_is_the_unit_profile_at_x_over_eps(prof, strip):
    eps, h = 1 / 8, 1 / 64
    pts = strip.grid(h).node_points()
    fieldv, _, res = minimize_diffuse(strip, QUARTIC, eps, h, prof, opts=SolverOptions(max_iterations=0))
    expected = prof((1.0 / eps) * pts[..., -1])
    expected[:, 0], expected[:, -1] = QUARTIC.wells.a, QUARTIC.wells.b
    assert res.iterations == 0
    assert len(np.unique(expected)) > 2  # the strip crosses the transition
    assert fieldv.u.tobytes() == expected.tobytes()


def test_mass_target_validation(prof, strip):
    for target in ([2.0], [-1.0], [1.0]):
        with pytest.raises(ValueError, match="strictly between"):
            minimize_diffuse(strip, QUARTIC, 0.25, 1 / 16, prof, mass_target=np.array(target))
    plane = homogeneous_quartic(d=2)
    prof2 = TransitionProfile(plane.wells, Mollifier("bump", 0.5), dim=2)
    with pytest.raises(ValueError, match="on the segment"):
        minimize_diffuse(strip, plane, 0.25, 1 / 16, prof2, mass_target=np.array([0.0, 0.5]))


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
        e = _strip_energy(strip, QUARTIC, eps, eps / 8, rec.u).total
        g_cell = cell_model(cell_state.grid, QUARTIC).energy_parts(cell_state.u).total / 4.0
        assert e == pytest.approx(g_cell * strip.interface_area(), rel=0.02)


def test_recovery_layer_must_fit(prof, strip, cell_state):
    build_recovery(cell_state, 1 / 4, strip, 1 / 32, QUARTIC)  # eps T = 1: the layer fills the strip
    with pytest.raises(ValueError, match="layer"):
        build_recovery(cell_state, 1 / 2, strip, 1 / 32, QUARTIC)


def _full_grid_recovery(cell_state, eps, strip, h, pot) -> np.ndarray:
    """The recovery field by interpolating at every strip node and keeping the step outside the layer."""
    cg, T = cell_state.grid, cell_state.grid.T
    u_cell = closed_nodes(cell_state.u, cg.box.periodic)
    cell_axes = [-T / 2.0 + cg.h * np.arange(n) for n in u_cell.shape[:-1]]
    y = strip.grid(h).node_points() / eps
    zeta = y @ cg.rotation_matrix
    zt = zeta.copy()
    zt[..., :-1] = np.mod(zeta[..., :-1] + T / 2.0, T) - T / 2.0
    inside = np.abs(zeta[..., -1]) <= T / 2.0
    vals = _multilinear(cell_axes, u_cell, tuple(np.moveaxis(np.clip(zt, -T / 2.0, T / 2.0), -1, 0)))
    return np.where(inside[..., None], vals, step_field(cg.nu, y, pot.wells))


def _rotated_cell_state(prof) -> CellState:
    """A perturbed step on the T = 5 cell at nu = (3/5, 4/5)."""
    rotation = rotation_from_direction(RationalUnitVector((Fraction(3, 5), Fraction(4, 5))))
    state = initial_state(CellGrid(2, 5.0, 1 / 4, rotation), prof)
    return CellState(state.grid, state.u + 0.1 * np.random.default_rng(3).standard_normal(state.u.shape))


@pytest.mark.parametrize(
    "eps,h",
    [
        pytest.param(1 / 4, default_gamma_mesh(1 / 4), id="identity-0.25-0.125"),
        pytest.param(1 / 8, default_gamma_mesh(1 / 8), id="identity-0.125-0.03125"),
        pytest.param(1 / 32, default_gamma_mesh(1 / 32), id="identity-0.03125-0.001953125"),
        pytest.param(1 / 5, 1 / 64, id="identity-0.2-0.015625"),  # the strip's nodes do not nest with the cell's
    ],
)
def test_recovery_is_the_full_grid_formula_bit_for_bit(prof, strip, cell_state, eps, h):
    rec = build_recovery(cell_state, eps, strip, h, QUARTIC)
    want = _full_grid_recovery(cell_state, eps, strip, h, QUARTIC)
    assert len(np.unique(want)) > 2  # the layer holds cell values
    assert rec.u.tobytes() == want.tobytes()


@pytest.mark.parametrize("tangential", ["periodic", "dirichlet"])
def test_recovery_is_the_full_grid_formula_bit_for_bit_3d(tangential):
    # two phase components on a 3D cell whose nodes do not nest with the strip's
    pot = homogeneous_quartic(d=2)
    profile = TransitionProfile(pot.wells, Mollifier("bump", 0.5), dim=3)
    state = initial_state(CellGrid(3, 2.0, 1 / 4, tangential=tangential), profile)
    state = CellState(state.grid, state.u + 0.1 * np.random.default_rng(1).standard_normal(state.u.shape))
    strip3 = DomainSpec.flat_strip(3)
    rec = build_recovery(state, 1 / 5, strip3, 1 / 40, pot)
    assert rec.u.tobytes() == _full_grid_recovery(state, 1 / 5, strip3, 1 / 40, pot).tobytes()


def test_recovery_reads_a_narrow_cell_as_its_cube(monkeypatch, prof, strip):
    # the quartic's estimate_g cell at T = 4 is 2 wide; its recovery is that of the cube it stands for
    identity = RationalRotation.identity(2)
    narrow = estimate_g(identity, 4.0, QUARTIC, prof, 1 / 16).state
    monkeypatch.setattr(cell, "_period_width", lambda T, *args: T)
    cube = estimate_g(identity, 4.0, QUARTIC, prof, 1 / 16).state
    assert narrow.grid.widths == (2.0,) and cube.grid.widths == (4.0,)
    for eps, h in ((1 / 4, 1 / 16), (1 / 8, 1 / 32), (1 / 5, 1 / 64)):
        rec_narrow, rec_cube = (build_recovery(s, eps, strip, h, QUARTIC).u for s in (narrow, cube))
        assert len(np.unique(rec_cube)) > 2  # the layer holds cell values
        assert np.abs(rec_narrow - rec_cube).max() <= 1e-12


def test_recovery_refuses_a_cell_off_the_strip_normal(prof, strip):
    # tiled along the strip's interface plane, a cell solved at another normal sits across the wrong interface
    with pytest.raises(ValueError, match="strip normal"):
        build_recovery(_rotated_cell_state(prof), 1 / 8, strip, 1 / 64, QUARTIC)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_multilinear_lookup_equals_scipy(dim, d):
    interpolate = pytest.importorskip("scipy.interpolate")
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
    scipy_lookup = interpolate.RegularGridInterpolator(
        tuple(axes), values, method="linear", bounds_error=False, fill_value=None
    )
    for pts in (nodes, inside, lines, faces, outside.reshape(10, 100, dim)):
        got, want = _multilinear(axes, values, tuple(np.moveaxis(pts, -1, 0))), scipy_lookup(pts)
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


def _mass_target(domain, fraction=0.4):
    wells = QUARTIC.wells
    return domain.volume * (wells.a + fraction * (wells.b - wells.a))


def _check_reported_parts(monkeypatch, prof, strip, stop, mass, eps, h):
    opts, backtracks = STOPS[stop]
    monkeypatch.setattr(descent, "MAX_BACKTRACKS", backtracks)
    seen = record_last_point(monkeypatch, gamma)
    target = _mass_target(strip) if mass else None
    field, parts, res = minimize_diffuse(strip, QUARTIC, eps, h, prof, mass_target=target, opts=opts)
    shape = strip.grid(h).shape + (1,)
    last = seen["x"].reshape((-1,) + shape[1:])  # the unit the descent ran on
    last = np.tile(last, (shape[0] // len(last), 1, 1))
    check_stop(stop, res, res.x, last, opts.resolved_max_iterations(shape[:-1]))
    assert parts == _strip_energy(strip, QUARTIC, eps, h, field.u)
    assert res.evaluations == 1 + res.iterations + res.backtracks
    return len(seen["x"]) < field.u.size  # whether the strip was narrowed


@pytest.mark.parametrize("mass", [False, True])
@pytest.mark.parametrize("stop", list(STOPS))
def test_reported_parts_are_the_energy_at_the_returned_field(monkeypatch, prof, strip, stop, mass):
    assert not _check_reported_parts(monkeypatch, prof, strip, stop, mass, 1 / 2, 1 / 8)


@pytest.mark.parametrize("mass", [False, True])
@pytest.mark.parametrize("stop", list(STOPS))
def test_reported_parts_are_the_energy_at_the_returned_field_of_a_narrowed_strip(monkeypatch, prof, strip, stop, mass):
    assert _check_reported_parts(monkeypatch, prof, strip, stop, mass, 1 / 4, 1 / 32)


@pytest.mark.parametrize("mass", [False, True])
def test_diffuse_solve_frees_its_model_without_the_cyclic_collector(prof, strip, mass):
    target = _mass_target(strip) if mass else None
    run = lambda: minimize_diffuse(strip, QUARTIC, 1 / 2, 1 / 8, prof, mass_target=target)  # noqa: E731
    assert new_models_left_after(run) == []


def _field_starts(frame, args, start, pinned):
    """Names of the frame's local arrays that hold the start `start` or its pinned copy, other than the descent's x0."""
    x0 = args[1]
    return [
        name
        for name, v in frame.f_locals.items()
        if isinstance(v, np.ndarray)
        and not np.shares_memory(v, x0)
        and (v is start or (v.size == pinned.size and np.array_equal(v.ravel(), pinned.ravel())))
    ]


@pytest.mark.parametrize("mass", [False, True])
def test_diffuse_solve_holds_one_start_once_the_descent_begins(monkeypatch, prof, strip, mass):
    eps, h = 1 / 2, 1 / 8
    shape = strip.grid(h).shape + (1,)
    start = np.random.default_rng(5).uniform(-1.0, 1.0, shape)
    pinned = start.copy()
    pinned[..., 0, :], pinned[..., -1, :] = QUARTIC.wells.a, QUARTIC.wells.b
    held = []

    def spy(*args, **kwargs):
        held.append(_field_starts(sys._getframe(1), args, start, pinned))
        return descent.lbfgs_descent(*args, **kwargs)

    monkeypatch.setattr(gamma, "lbfgs_descent", spy)
    target = _mass_target(strip) if mass else None
    minimize_diffuse(strip, QUARTIC, eps, h, prof, init=start, mass_target=target)
    assert held == [[]]


def test_gamma_gap_holds_no_recovery_field_through_a_solve(monkeypatch, prof, strip, cell_state):
    held = []

    def spy(*args, **kwargs):
        caller = sys._getframe(2)  # gamma_gap, through minimize_diffuse
        assert caller.f_code is gamma_gap.__code__
        held.append([name for name, v in caller.f_locals.items() if isinstance(v, (np.ndarray, gamma.PhaseField))])
        return descent.lbfgs_descent(*args, **kwargs)

    monkeypatch.setattr(gamma, "lbfgs_descent", spy)
    gamma_gap(strip, [1 / 4, 1 / 8], QUARTIC, prof, 8.0 / 3.0, cell_state)
    assert held == [[], []]


@pytest.mark.parametrize(
    "pot", [QUARTIC, striped(0.5), striped(0.5).lower_envelope()], ids=["quartic", "striped", "envelope"]
)
def test_strip_weight_is_the_weight_at_the_cell_centres(monkeypatch, prof, strip, pot):
    real, built, models = BoxGrid.cell_centers, [], []
    monkeypatch.setattr(BoxGrid, "cell_centers", lambda grid: built.append(grid) or real(grid))
    monkeypatch.setattr(gamma, "EnergyModel", lambda *args: models.append(EnergyModel(*args)) or models[-1])
    minimize_diffuse(strip, pot, 1 / 2, 1 / 8, prof, opts=SolverOptions(max_iterations=1))
    (model,) = models
    assert (built == []) == (pot.kind != "striped")  # a constant weight is filled in without the centres
    want = np.asarray(pot.spatial_factor(real(model.grid)), dtype=float)
    assert model._factor.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim,eps,h", [(2, 1 / 4, 1 / 16), (3, 1 / 8, 1 / 32)])
@pytest.mark.parametrize("axis", [None, 0, -1], ids=["quartic", "striped-lateral", "striped-normal"])
def test_narrowed_strip_is_the_full_width_cell(monkeypatch, dim, eps, h, axis):
    # the strip is solved on 2-wide lateral units, the cell on the whole T = 1/eps cube
    pot = QUARTIC if axis is None else striped(0.5, axis=axis % dim)
    profile = TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=dim)
    strip, area = DomainSpec.flat_strip(dim), eps ** (1 - dim)
    cube = CellGrid(dim, 1 / eps, h / eps)
    cell, _ = minimize_cell(cube, pot, profile)
    calls = _descents(monkeypatch)
    same_stop = SolverOptions(tolerance=SolverOptions().resolved_tolerance(pot) / area)
    field, parts, res = minimize_diffuse(strip, pot, eps, h, profile, opts=same_stop)
    (size, kwargs), nodes = calls[0], int(np.prod(cube.box.shape))
    assert size == (2 * eps) ** (dim - 1) * nodes
    assert kwargs["max_iterations"] == 20 * nodes  # the full strip's default cap
    assert kwargs["sup_tol"] == pytest.approx(SolverOptions().resolved_tolerance(pot), rel=1e-15)
    assert cell.converged and res.converged
    assert (res.iterations, res.backtracks) == (cell.iterations, cell.backtracks)
    assert parts.total == pytest.approx(cell.g, rel=1e-12)
    assert res.f == parts.total and res.trace[-1] == parts.total
    assert res.x.shape == (nodes,) and field.u.shape == cube.box.shape + (1,)
    assert np.shares_memory(res.x, field.u)


@pytest.mark.parametrize(
    "pot,eps,h,start",
    [
        pytest.param(QUARTIC, 1 / 4, 1 / 16, "random", id="random-init"),
        pytest.param(striped(0.5), 1 / 5, 1 / 40, None, id="non-dyadic-striped"),  # 5 / m is no whole width >= 2
        pytest.param(QUARTIC, 1 / 3, 1 / 12, None, id="non-dyadic-quartic"),  # 3 / m < 2 for m > 1
    ],
)
@pytest.mark.parametrize("mass", [False, True])
def test_strip_without_a_repeating_unit_keeps_the_full_width(monkeypatch, prof, strip, pot, eps, h, start, mass):
    shape = strip.grid(h).shape + (1,)
    init = np.random.default_rng(2).uniform(-1.0, 1.0, shape) if start == "random" else None
    target = _mass_target(strip) if mass else None
    calls = _descents(monkeypatch)
    field, parts, res = minimize_diffuse(strip, pot, eps, h, prof, init=init, mass_target=target)
    monkeypatch.setattr(gamma, "_period_widths", lambda *args: iter(()))
    want_field, want_parts, want_res = minimize_diffuse(strip, pot, eps, h, prof, init=init, mass_target=target)
    assert [size for size, _ in calls] == [field.u.size] * 2
    assert res.iterations > 0
    assert field.u.tobytes() == want_field.u.tobytes() and res.x.tobytes() == want_res.x.tobytes()
    assert parts == want_parts and res.trace == want_res.trace and res.grad_sup == want_res.grad_sup


def test_mass_constraint_exact_3d(monkeypatch):
    eps, h = 1 / 8, 1 / 32
    profile, domain = TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=3), DomainSpec.flat_strip(3)
    target = _mass_target(domain, 0.35)
    calls = _descents(monkeypatch)
    field, _, res = minimize_diffuse(domain, QUARTIC, eps, h, profile, mass_target=target)
    assert calls[0][0] * 16 == field.u.size  # 2 x 2 units of a 1/eps = 8 strip
    wq = node_quadrature_weights(domain.grid(h))
    mass = (wq[..., None] * field.u).sum(axis=(0, 1, 2))
    assert res.converged
    assert abs(mass - target).max() <= 1e-10


def test_narrowed_solve_holds_no_full_width_array_through_the_descent(monkeypatch, prof, strip):
    eps, h = 1 / 8, 1 / 32
    shape = strip.grid(h).shape + (1,)
    unit = np.random.default_rng(6).uniform(-1.0, 1.0, (8,) + shape[1:])
    start = np.tile(unit, (4, 1, 1))  # repeats with period 2 in y
    held = []

    def spy(*args, **kwargs):
        frame = sys._getframe(1)
        assert frame.f_code is minimize_diffuse.__code__
        held.append([name for name, v in frame.f_locals.items() if isinstance(v, np.ndarray) and v.size >= start.size])
        return descent.lbfgs_descent(*args, **kwargs)

    monkeypatch.setattr(gamma, "lbfgs_descent", spy)
    for mass in (None, _mass_target(strip)):
        field, _, res = minimize_diffuse(strip, QUARTIC, eps, h, prof, init=start, mass_target=mass)
        assert res.iterations > 0 and field.u.shape == shape
    assert held == [[], []]


def test_gamma_gap_rows_solve_one_cell_width(monkeypatch, prof, strip, cell_state):
    # the recovery repeats with the cell's width T = 4 in y, 4 / (h / eps) nodes, so each row's unit divides it
    calls = _descents(monkeypatch)
    eps_schedule = [1 / 8, 1 / 16, 1 / 32]
    gamma_gap(strip, eps_schedule, QUARTIC, prof, 8.0 / 3.0, cell_state)
    assert len(calls) == len(eps_schedule)
    for (size, _), eps in zip(calls, eps_schedule):
        shape = strip.grid(default_gamma_mesh(eps)).shape
        across, cell_nodes = size // shape[-1], round(4.0 * shape[0] * eps)
        assert across * shape[-1] == size and cell_nodes % across == 0 and across < shape[0]
