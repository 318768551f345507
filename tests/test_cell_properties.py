"""Hypothesis property tests of the cell layer: prolongation, the pinned set, and invariants that hold exactly in
floating point.  Apart from `tests/test_cell.py` so that file needs neither hypothesis nor scipy.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmacell.cell import CellGrid, CellState, SolverOptions, minimize_cell, pinned_objective, profile_field, _prolong
from sigmacell.grids import BoxGrid, EnergyModel
from sigmacell.potential import checkerboard, homogeneous_quartic, smooth_modulated, striped
from sigmacell.profile import Mollifier, TransitionProfile

from solve_checks import slabs_of


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(2, 6), min_size=2, max_size=3),
    flags=st.lists(st.booleans(), min_size=3, max_size=3),
    d=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_prolong_properties(shape, flags, d, seed):
    periodic = tuple(flags[: len(shape)])
    rng = np.random.default_rng(seed)
    u = rng.uniform(-2.0, 2.0, tuple(shape) + (d,))
    fine = _prolong(u, periodic)
    assert fine.shape == tuple(2 * n if p else 2 * n - 1 for n, p in zip(shape, periodic)) + (d,)
    # even-indexed nodes copy the coarse nodes
    assert fine[(slice(None, None, 2),) * len(shape)].tobytes() == u.tobytes()
    # a field affine along the non-periodic axes (constant along the periodic ones) is reproduced
    coef = rng.uniform(-1.0, 1.0, len(shape) + 1)

    def affine(n_axes, step):
        x = np.indices(n_axes, dtype=float) * step
        val = coef[0] + sum(c * xi for c, xi, p in zip(coef[1:], x, periodic) if not p)
        return np.broadcast_to(val[..., None], tuple(n_axes) + (d,))

    np.testing.assert_allclose(_prolong(affine(shape, 1.0), periodic), affine(fine.shape[:-1], 0.5), rtol=0, atol=1e-13)
    # on a periodic axis the last fine node averages the last and the first coarse node
    for ax, p in enumerate(periodic):
        if not p:
            continue
        sel = [slice(None, None, 2)] * len(shape)
        sel[ax] = -1
        first, last = np.take(u, 0, axis=ax), np.take(u, -1, axis=ax)
        assert fine[tuple(sel)].tobytes() == (0.5 * (last + first)).tobytes()


# Property tests of the pinned set and of invariants that hold exactly in floating point.


def random_box(cells, flags, h):
    """A BoxGrid of the given cells per axis at mesh h, axis k periodic when flags[k]."""
    return BoxGrid((0.0,) * len(cells), tuple(c * h for c in cells), h, tuple(flags[: len(cells)]))


def random_affine(rng, grid):
    """The grid's cell centres x mapped to y = A x + b with a random A and b: they land anywhere in the unit cell."""
    A, b = rng.uniform(-2.0, 2.0, (grid.dim, grid.dim)), rng.uniform(-1.0, 1.0, grid.dim)
    return grid.cell_centers() @ A.T + b


def modulated(kind, strength, d):
    return {"striped": striped, "checkerboard": checkerboard, "smooth_modulated": smooth_modulated}[kind](strength, d=d)


box_cells = st.lists(st.integers(2, 5), min_size=2, max_size=3)
axis_flags = st.lists(st.booleans(), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(cells=box_cells, flags=axis_flags, h=st.sampled_from([0.25, 0.5, 1.0]))
def test_pinned_faces_cover_exactly_the_boundary_mask(cells, flags, h):
    grid = random_box(cells, flags, h)
    index = np.indices(grid.shape)
    want = np.zeros(grid.shape, dtype=bool)
    for ax, per in enumerate(grid.periodic):
        if not per:
            want |= (index[ax] == 0) | (index[ax] == grid.shape[ax] - 1)
    covered = np.zeros(grid.shape, dtype=bool)
    for face in grid.pinned_faces():
        covered[face] = True
    assert np.array_equal(grid.boundary_mask(), want)
    assert np.array_equal(covered, want)


@settings(max_examples=40, deadline=None)
@given(
    cells=box_cells,
    flags=axis_flags,
    d=st.integers(1, 2),
    kind=st.sampled_from(["striped", "checkerboard", "smooth_modulated"]),
    slab_rows=st.sampled_from([None, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pinned_gradient_is_zero_on_faces_and_matches_finite_differences(cells, flags, d, kind, slab_rows, seed):
    rng = np.random.default_rng(seed)
    grid = random_box(cells, flags, 0.5)
    pot = modulated(kind, 0.5 if kind != "checkerboard" else 2.0, d)
    with slabs_of(grid.shape, slab_rows):
        f_g = pinned_objective(EnergyModel(grid, pot, pot.spatial_factor(random_affine(rng, grid))))
    u = rng.uniform(-1.3, 1.3, grid.shape + (d,))
    g = f_g(u.ravel())[1].reshape(u.shape)
    pinned = grid.boundary_mask()
    assert not g[pinned].any()
    gsup = np.abs(g).max()
    free = np.argwhere(~pinned)
    step = 1e-6
    for node in free[rng.permutation(len(free))[:8]]:
        entry = tuple(node) + (int(rng.integers(d)),)
        up, um = u.copy(), u.copy()
        up[entry] += step
        um[entry] -= step
        fd = (f_g(up.ravel())[0] - f_g(um.ravel())[0]) / (2 * step)
        assert abs(fd - g[entry]) <= 1e-6 * gsup


@settings(max_examples=60, deadline=None)
@given(
    cells=box_cells,
    flags=axis_flags,
    d=st.integers(1, 2),
    kind=st.sampled_from(["striped", "checkerboard", "smooth_modulated"]),
    strength=st.floats(0.0, 0.99),
    slab_rows=st.sampled_from([None, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_energy_is_at_least_the_lower_envelope_energy(cells, flags, d, kind, strength, slab_rows, seed):
    # W(y, p) >= (min f) W0(p) node by node, and rounding keeps the order through products and sums
    rng = np.random.default_rng(seed)
    grid = random_box(cells, flags, 0.5)
    pot = modulated(kind, strength if kind != "checkerboard" else 0.01 + 4.0 * strength, d)
    y = random_affine(rng, grid)
    u = rng.uniform(-2.0, 2.0, grid.shape + (d,))
    with slabs_of(grid.shape, slab_rows):
        e_w = EnergyModel(grid, pot, pot.spatial_factor(y)).energy_parts(u)
        envelope = pot.lower_envelope()
        e_env = EnergyModel(grid, envelope, envelope.spatial_factor(y)).energy_parts(u)
    assert e_w.gradient == e_env.gradient
    assert e_w.potential >= e_env.potential
    assert e_w.total >= e_env.total


@functools.cache
def _profile_for(dim, d):
    return TransitionProfile(homogeneous_quartic(d=d).wells, Mollifier("bump", 0.5), dim=dim)


@settings(max_examples=24, deadline=None)
@given(
    dim=st.integers(2, 3),
    tangential=st.sampled_from(["periodic", "dirichlet"]),
    cells=st.integers(7, 9),
    d=st.integers(1, 2),
    iterations=st.sampled_from([0, 3]),
    garbage=st.sampled_from([np.nan, np.inf, -1e6, 0.0]),
    slab_rows=st.sampled_from([None, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_warm_start_comes_back_with_the_profile_on_exactly_the_pinned_nodes(
    dim, tangential, cells, d, iterations, garbage, slab_rows, seed
):
    rng = np.random.default_rng(seed)
    grid = CellGrid(dim, 2.0, 2.0 / cells, tangential=tangential)
    pot, profile = striped(0.5, d=d), _profile_for(dim, d)
    pinned = grid.box.boundary_mask()
    warm = rng.uniform(-1.3, 1.3, grid.box.shape + (d,))
    warm[pinned] = garbage
    with slabs_of(grid.box.shape, slab_rows):
        res, state = minimize_cell(grid, pot, profile, SolverOptions(max_iterations=iterations), CellState(grid, warm))
    data = profile_field(grid, profile)
    assert state.u[pinned].tobytes() == data[pinned].tobytes()
    if iterations == 0:  # no descent step: the free nodes are the warm start's
        assert state.u.tobytes() == np.where(pinned[..., None], data, warm).tobytes()
    else:
        assert res.iterations > 0 and np.isfinite(state.u).all()
