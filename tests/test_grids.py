import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from sigmacell import grids
from sigmacell.cell import CellGrid, _cell_weight, cell_model, pinned_objective
from sigmacell.grids import (
    BoxGrid,
    EnergyModel,
    _axis_eigenbasis,
    _DenseWellInverse,
    _inverse_symbol,
    _WellInverse,
    node_quadrature_weights,
)
from sigmacell.lattice import RationalUnitVector, rotation_from_direction
from sigmacell.potential import homogeneous_quartic, smooth_modulated, striped

from solve_checks import slab_nodes


@pytest.mark.parametrize(
    "lo,hi,h,periodic",
    [
        ((0.0, -1.0), (1.0, 1.0), 1 / 8, (False, False)),
        ((0.0, -1.0), (1.0, 1.0), 1 / 8, (True, False)),
        ((0.0, 0.0), (1.0, 0.5), 1 / 16, (True, True)),
        ((0.0, 0.0, -0.5), (0.5, 1.0, 0.5), 1 / 8, (False, False, False)),
        ((0.0, 0.0, -0.5), (0.5, 1.0, 0.5), 1 / 8, (True, True, False)),
        ((0.0, 0.0, -0.5), (0.5, 1.0, 0.5), 1 / 8, (False, True, True)),
    ],
)
def test_node_quadrature_weights_are_trapezoid_tensor_product(lo, hi, h, periodic):
    # dyadic meshes: every weight is a power of two, so the products are exact
    grid = BoxGrid(lo, hi, h, periodic)
    per_axis = []
    for n, per in zip(grid.shape, grid.periodic):
        w = np.full(n, h)
        if not per:
            w[0] = w[-1] = h / 2
        per_axis.append(w)
    assert np.array_equal(node_quadrature_weights(grid), reduce(np.multiply.outer, per_axis))


def _well_model(lo, hi, h, periodic, pot):
    grid = BoxGrid(lo, hi, h, periodic)
    return EnergyModel(grid, pot, pot.spatial_factor(grid.cell_centers()))


def _free_hessian_and_inverse(model):
    """Central-difference Hessian of the gradient at the well a and the matrix of P^-1, both on the free nodes."""
    shape = model.grid.shape + (model.pot.d,)
    free = np.flatnonzero(~np.broadcast_to(model.grid.boundary_mask()[..., None], shape))
    u = np.broadcast_to(model.pot.wells.a, shape).ravel().copy()
    delta = 1e-5
    hess = np.empty((free.size, free.size))
    inv = np.empty((free.size, free.size))
    for col, i in enumerate(free):
        e = np.zeros(u.size)
        e[i] = 1.0
        g_plus = model.gradient((u + delta * e).reshape(shape))[1].ravel()
        g_minus = model.gradient((u - delta * e).reshape(shape))[1].ravel()
        hess[:, col] = (g_plus - g_minus)[free] / (2.0 * delta)
        inv[:, col] = model.precondition(e)[free]
    return hess, inv, free


@pytest.mark.parametrize(
    "lo,hi,h,periodic,d",
    [
        ((0.0, -0.5), (1.0, 0.5), 1 / 8, (True, False), 1),
        ((0.0, -0.5), (0.75, 0.5), 1 / 8, (False, False), 1),
        ((0.0, -0.5), (1.0, 0.5), 1 / 8, (True, False), 2),
    ],
)
def test_well_inverse_inverts_the_well_hessian_2d(lo, hi, h, periodic, d):
    model = _well_model(lo, hi, h, periodic, homogeneous_quartic(d=d))
    hess, inv, _ = _free_hessian_and_inverse(model)
    assert np.abs(inv @ hess - np.eye(len(hess))).max() <= 1e-8


def test_well_inverse_3d_null_modes():
    # two periodic axes of even length: the (pi, pi, .) modes are flat directions of the energy
    model = _well_model((0.0, 0.0, -0.5), (0.5, 0.5, 0.5), 1 / 8, (True, True, False), homogeneous_quartic())
    hess, inv, free = _free_hessian_and_inverse(model)
    n0, n1, n2 = model.grid.shape
    sign = (-1.0) ** np.add.outer(np.arange(n0), np.arange(n1))
    null = np.zeros((n2 - 2, n0, n1, n2, 1))
    for k in range(n2 - 2):
        null[k, :, :, k + 1, 0] = sign
        assert not model.precondition(null[k].ravel()).any()
    null = null.reshape(n2 - 2, -1)[:, free]
    null /= np.linalg.norm(null, axis=1)[:, None]
    projector = np.eye(len(hess)) - null.T @ null
    assert np.abs(hess @ null.T).max() <= 1e-8
    assert np.abs(inv @ hess - projector).max() <= 1e-8


@pytest.mark.parametrize(
    "axes",
    [
        ((8, True),),
        ((9, False),),
        ((8, True), (6, True)),
        ((7, True), (9, False)),
        ((9, False), (8, False)),
        ((8, True), (8, True), (9, False)),
        ((6, True), (9, False), (4, True)),
        ((5, True), (8, True), (7, False)),
        ((9, False), (7, False), (8, False)),
    ],
    ids=str,
)
def test_inverse_symbol_is_the_inverse_of_the_sum_of_separable_products(axes):
    a, b = 0.37, 0.0123
    symbols = [_axis_eigenbasis(n, per)[1:] for n, per in axes]
    kk, mm = zip(*symbols)
    explicit = b * reduce(np.multiply.outer, mm)
    for ax in range(len(axes)):
        explicit = explicit + a * reduce(np.multiply.outer, mm[:ax] + (kk[ax],) + mm[ax + 1 :])
    inverse = _inverse_symbol(symbols, a, b)
    zero = explicit == 0.0
    # M vanishes at theta = pi on an even periodic axis: the symbol is 0 where it does on two axes
    assert zero.any() == (sum(n % 2 == 0 and per for n, per in axes) >= 2)
    assert np.array_equal(inverse == 0.0, zero)
    assert np.abs(inverse[~zero] * explicit[~zero] - 1.0).max() <= 1e-15


@pytest.mark.parametrize("periodic", [(True, False), (False, False), (True, True, False), (False, False, False)])
def test_well_inverse_is_zero_on_pinned_nodes(periodic):
    dim = len(periodic)
    model = _well_model((0.0,) * dim, (0.5,) * dim, 1 / 8, periodic, striped(0.5))
    v = np.random.default_rng(dim).standard_normal(model.grid.shape + (1,))
    out = model.precondition(v)
    assert out.shape == v.shape
    mask = model.grid.boundary_mask()
    assert not out[mask].any()
    assert np.abs(out[~mask]).min() > 0.0
    # the pinned entries of the argument are ignored
    v[mask] = 1e6
    assert model.precondition(v).tobytes() == out.tobytes()


def _null_modes(grid, d):
    """Unit-amplitude (pi, pi) sign patterns along the two even periodic axes, one per free node of the other axes and component."""
    even = [ax for ax, (n, per) in enumerate(zip(grid.shape, grid.periodic)) if per and n % 2 == 0]
    if len(even) != 2:
        return []
    sign = np.ones(grid.shape)
    for ax in even:
        along = [1] * grid.dim
        along[ax] = -1
        sign = sign * ((-1.0) ** np.arange(grid.shape[ax])).reshape(along)
    rest = [range(n) if per else range(1, n - 1) for n, per in zip(grid.shape, grid.periodic)]
    modes = []
    for index in np.ndindex(*(len(rest[ax]) for ax in range(grid.dim) if ax not in even)):
        picked = iter(index)
        key = tuple(slice(None) if ax in even else rest[ax][next(picked)] for ax in range(grid.dim))
        for c in range(d):
            mode = np.zeros(grid.shape + (d,))
            mode[key + (c,)] = sign[key]
            modes.append(mode)
    return modes


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "cells,periodic,dense",
    [
        ((8, 9), (True, False), True),
        ((6, 7), (False, False), True),
        ((8, 6), (True, True), True),
        ((7, 8), (False, True), True),
        ((128, 128), (True, False), True),
        ((512, 512), (True, False), False),  # 512 x 513: predicted cost ratio 26.9
        ((6, 1024), (False, True), False),  # 38.6
        ((4, 4, 6), (True, True, False), True),
        ((4, 5, 6), (False, False, False), True),
        ((4, 5, 6), (True, False, True), True),
        ((3, 5, 3), (True, True, True), True),
        ((4, 4, 512), (True, True, False), False),  # 18.5
        ((512, 3, 4), (False, True, True), False),  # 19.1
        ((4, 4, 4), (True, True, True), False),  # three even periodic axes keep the FFT
        # predicted cost ratios 5.3, 6.6, 5.7 and 0.6 on the next four; at 1 BLAS thread
        # the products take 0.38, 0.22, 0.49 and 0.04 of the FFT's time on them
        ((130, 6), (True, False), True),
        ((4, 131), (True, False), True),
        ((4, 4, 130), (True, True, False), True),
        ((131, 3, 4), (False, False, False), True),
        ((256, 256), (False, False), True),  # all-Dirichlet 257 x 257: 7.0
        ((384, 384), (False, False), True),  # 9.9
    ],
)
def test_dense_and_fft_well_inverses_agree(cells, periodic, dense, d, monkeypatch):
    dim = len(cells)

    def model():
        return _well_model((0.0,) * dim, tuple(c / 8 for c in cells), 1 / 8, periodic, homogeneous_quartic(d=d))

    assert isinstance(model()._well_inverse, _DenseWellInverse if dense else _WellInverse)
    paths = []
    for ratio in (0, 10**9):  # the FFT, then the dense products
        monkeypatch.setattr(grids, "DENSE_COST_RATIO", ratio)
        paths.append(model())
    grid = paths[0].grid
    rng = np.random.default_rng(dim * 10 + d)
    u, w = rng.standard_normal((2,) + grid.shape + (d,))
    mask = np.broadcast_to(grid.boundary_mask()[..., None], u.shape)
    outs = []
    for m in paths:
        out = m.precondition(u)
        assert out.shape == u.shape and not out[mask].any()
        pinned = u.copy()
        pinned[mask] = 1e6
        assert m.precondition(pinned).tobytes() == out.tobytes()
        for mode in _null_modes(grid, d):
            assert not m.precondition(mode).any()
        # symmetric to rounding: w . P^-1 u = u . P^-1 w
        assert abs(np.vdot(w, out) - np.vdot(u, m.precondition(w))) <= 1e-13 * np.linalg.norm(w) * np.linalg.norm(out)
        outs.append(out)
    assert np.abs(outs[1] - outs[0]).max() <= 1e-12 * np.abs(outs[0]).max()


_THREAD_SCRIPT = """
import hashlib
import numpy as np
from sigmacell.grids import BoxGrid, EnergyModel
from sigmacell.potential import striped
for lo, hi, h, periodic in [
    ((0.0, 0.0, -1.0), (1.0, 1.0, 1.0), 1 / 16, (True, True, False)),  # 16 x 16 x 33
    ((0.0, -4.0), (8.0, 4.0), 1 / 16, (True, False)),  # 128 x 129
    ((0.0, 0.0, -2.0), (4.0, 4.0, 2.0), 1 / 16, (True, True, False)),  # 64 x 64 x 65
    ((0.0, -8.0), (16.0, 8.0), 1 / 16, (True, False)),  # 256 x 257: FFT
    ((0.0, 0.0, -16.0), (0.25, 0.25, 16.0), 1 / 16, (True, True, False)),  # 4 x 4 x 513: FFT
]:
    grid, pot = BoxGrid(lo, hi, h, periodic), striped(0.5)
    model = EnergyModel(grid, pot, pot.spatial_factor(grid.cell_centers()))
    v = np.random.default_rng(5).standard_normal(model.grid.shape + (1,))
    print(type(model._well_inverse).__name__, hashlib.sha256(model.precondition(v).tobytes()).hexdigest())
"""


def test_well_inverse_bytes_do_not_depend_on_blas_threads():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split("\n"))
    assert [line.split()[0] for line in digests[0][:5]] == ["_DenseWellInverse"] * 3 + ["_WellInverse"] * 2
    assert digests[0] == digests[1]


def test_fft_well_inverse_holds_the_extension_and_the_spectrum_alone(monkeypatch):
    # 256 x 257 periodic x Dirichlet: the extension is 256 x 512 floats (1 MB), the spectrum 256 x 257 complex
    monkeypatch.setattr(grids, "DENSE_COST_RATIO", 0)
    model = _well_model((0.0, -16.0), (32.0, 16.0), 1 / 8, (True, False), homogeneous_quartic())
    inverse = model._well_inverse
    assert isinstance(inverse, _WellInverse)
    v = np.random.default_rng(4).standard_normal(model.grid.shape + (1,))
    inverse(v)
    tracemalloc.start()
    try:
        out = inverse(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack: one ufunc buffer of np.getbufsize() complex entries (128 kB), which the FFT along axis 0 takes
    assert peak <= 256 * 512 * 8 + 256 * 257 * 16 + np.getbufsize() * 16 + 64 * 1024
    # the formula as one rfftn and one irfftn of the odd extension, through a separate back array
    e = np.zeros((256, 512, 1))
    e[:, 1:256] = v[:, 1:-1]
    e[:, 257:] = -v[:, 255:0:-1]
    back = np.fft.irfftn(np.fft.rfftn(e, axes=(0, 1)) * inverse._inverse, s=(256, 512), axes=(0, 1))
    want = np.zeros(v.shape)
    want[:, 1:-1] = back[:, 1:256]
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("periodic", [(True, False), (False, False), (True, True, False)])
def test_energy_model_holds_one_cells_sized_array(periodic):
    dim = len(periodic)
    model = _well_model((0.0,) * dim, (1.0,) * dim, 1 / 8, periodic, striped(0.5))
    u = np.random.default_rng(dim).uniform(-1.0, 1.0, model.grid.shape + (1,))
    model.gradient(u)
    held = [a for a in vars(model).values() if isinstance(a, np.ndarray) and a.size == prod(model.grid.cells)]
    assert len(held) == 1


def test_axis_eigenbasis_cache_is_bounded():
    # each n x (n + 1) periodic x Dirichlet grid adds two axis keys
    for n in range(4, 4 + grids.EIGENBASIS_CACHE_SIZE):
        model = _well_model((0.0, 0.0), (n / 8, n / 8), 1 / 8, (True, False), homogeneous_quartic())
        assert isinstance(model._well_inverse, _DenseWellInverse)
    assert grids._axis_eigenbasis.cache_info().currsize == grids.EIGENBASIS_CACHE_SIZE


def _rotated_model(cells, periodic, pot):
    """An EnergyModel on cells at h = 1/16 whose weight is evaluated at R x, R the 2D or 3D rotation of nu = (3, 4) / 5
    or (1, 2, 2) / 3."""
    nu = [(3, 5), (4, 5)] if len(cells) == 2 else [(1, 3), (2, 3), (2, 3)]
    rot = rotation_from_direction(RationalUnitVector(tuple(Fraction(*q) for q in nu))).as_float()
    grid = BoxGrid((0.0,) * len(cells), tuple(c / 16 for c in cells), 1 / 16, periodic)
    return EnergyModel(grid, pot, pot.spatial_factor(grid.cell_centers() @ rot.T))


def _one_slab(monkeypatch, cells, periodic, pot, u):
    monkeypatch.setattr(grids, "SLAB_NODES", 10**9)
    return _rotated_model(cells, periodic, pot).gradient(u)


@pytest.mark.parametrize(
    "cells,periodic,d",
    [
        ((10, 7), (True, False), 1),
        ((10, 7), (False, False), 1),
        ((9, 4, 5), (True, True, False), 1),
        ((10, 7), (True, False), 2),
    ],
)
@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_slabs_give_the_one_slab_gradient_bytes(cells, periodic, d, rows, monkeypatch):
    pot = smooth_modulated(0.5, d=d)
    shape = tuple(c if per else c + 1 for c, per in zip(cells, periodic))
    u = np.random.default_rng(rows).uniform(-1.5, 1.5, shape + (d,))
    parts, g = _one_slab(monkeypatch, cells, periodic, pot, u)
    monkeypatch.setattr(grids, "SLAB_NODES", slab_nodes(shape, rows))
    model = _rotated_model(cells, periodic, pot)
    # as many near-equal slabs as rows allow: 3 and 4 rows do not divide 10 or 9 cell rows
    assert len(model._slabs) - 1 == -(-cells[0] // rows) > 1
    assert max(np.diff(model._slabs)) <= rows
    slab_parts, slab_g = model.gradient(u)
    assert slab_g.tobytes() == g.tobytes()
    for got, want in ((slab_parts.potential, parts.potential), (slab_parts.gradient, parts.gradient)):
        assert abs(got - want) <= 1e-14 * abs(want)
    assert model.energy_parts(u) == slab_parts
    g_pinned = pinned_objective(model)(u.ravel())[1].reshape(u.shape)
    assert not g_pinned[model.grid.boundary_mask()].any()
    assert g_pinned[~model.grid.boundary_mask()].tobytes() == g[~model.grid.boundary_mask()].tobytes()


# the benchmark's grids of more than SLAB_NODES nodes (all take d = 1)
BENCHMARK_SLAB_GRIDS = [
    ((64, 64, 64), (True, True, False)),  # oracle's 3D fine grid, 266,240 nodes
    ((32, 32, 32), (True, True, False)),  # its 2h level
    ((256, 256), (True, False)),  # oracle's 2D fine grid
    ((128, 128), (True, False)),  # oracle's 2D 2h level, diffuse's recovery cell and strips
    ((512, 512), (True, False)),  # diffuse's largest strip
    ((256, 256), (False, False)),  # diffuse's all-Dirichlet tiling competitor
]


@pytest.mark.parametrize("cells,periodic", BENCHMARK_SLAB_GRIDS)
def test_benchmark_grids_take_slabs_with_the_one_slab_gradient_bytes(cells, periodic, monkeypatch):
    pot = striped(0.5)
    shape = tuple(c if per else c + 1 for c, per in zip(cells, periodic))
    u = np.random.default_rng(len(cells)).uniform(-1.5, 1.5, shape + (1,))
    slab_model = _rotated_model(cells, periodic, pot)
    assert len(slab_model._slabs) > 2
    slab_parts, slab_g = slab_model.gradient(u)
    parts, g = _one_slab(monkeypatch, cells, periodic, pot, u)
    assert slab_g.tobytes() == g.tobytes()
    assert abs(slab_parts.total - parts.total) <= 1e-14 * parts.total


@pytest.mark.parametrize("periodic", [(True, False), (False, False)], ids=["periodic", "dirichlet"])
@pytest.mark.parametrize("d", [1, 2])
def test_one_slab_energy_parts_equal_the_gradient_parts(periodic, d):
    model = _rotated_model((10, 7), periodic, smooth_modulated(0.5, d=d))
    assert model._slabs == [0, 10]
    u = np.random.default_rng(d).uniform(-1.5, 1.5, model.grid.shape + (d,))
    assert model.energy_parts(u) == model.gradient(u)[0]


@pytest.mark.parametrize("shape", [(8, 9), (9, 8), (8,), (8, 8, 1), (9, 9)])
def test_weight_of_another_shape_than_the_cells_is_refused(shape):
    grid = BoxGrid((0.0, 0.0), (1.0, 1.0), 1 / 8, (True, False))
    with pytest.raises(ValueError, match="weight has shape"):
        EnergyModel(grid, striped(0.5), np.ones(shape))


@pytest.mark.parametrize("shape", [(64, 65), (16, 16, 17), (128, 128)])
def test_grids_up_to_slab_nodes_are_one_slab(shape):
    grid = BoxGrid((0.0,) * len(shape), tuple(n / 16 for n in shape), 1 / 16, (True,) * len(shape))
    assert prod(grid.shape) <= grids.SLAB_NODES
    assert grids._slab_bounds(grid) == [0, grid.cells[0]]


@pytest.mark.parametrize("dim,nu", [(2, ((3, 5), (4, 5))), (3, ((1, 3), (2, 3), (2, 3)))])
@pytest.mark.parametrize(
    "pot",
    [striped(0.5), smooth_modulated(0.5), homogeneous_quartic(), striped(0.5).lower_envelope()],
    ids=["striped", "smooth", "quartic", "envelope"],
)
def test_cell_weight_bytes_equal_the_stacked_product(dim, nu, pot):
    rot = rotation_from_direction(RationalUnitVector(tuple(Fraction(*q) for q in nu)))
    grid = CellGrid(dim, 4.0, 1 / 16, rot)
    box = grid.box
    axes = [a + box.h * (np.arange(c) + 0.5) for a, c in zip(box.lo, box.cells)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)  # one grid-sized copy per axis
    want = pot.spatial_factor(centers @ grid.rotation_matrix.T)  # one small product per row
    assert _cell_weight(grid, pot).tobytes() == want.tobytes()
    assert cell_model(grid, pot)._factor.tobytes() == want.tobytes()
