import os
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest

from sigmacell.grids import BoxGrid, EnergyModel, node_quadrature_weights
from sigmacell.potential import homogeneous_quartic, striped


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
    return EnergyModel(BoxGrid(lo, hi, h, periodic), pot, y_map=lambda pts: pts)


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


_THREAD_SCRIPT = """
import hashlib
import numpy as np
from sigmacell.grids import BoxGrid, EnergyModel
from sigmacell.potential import striped
model = EnergyModel(BoxGrid((0.0, 0.0, -1.0), (1.0, 1.0, 1.0), 1 / 16, (True, True, False)), striped(0.5), lambda p: p)
v = np.random.default_rng(5).standard_normal(model.grid.shape + (1,))
print(hashlib.sha256(model.precondition(v).tobytes()).hexdigest())
"""


def test_well_inverse_bytes_do_not_depend_on_blas_threads():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]
