from functools import reduce

import numpy as np
import pytest

from sigmacell.grids import BoxGrid, node_quadrature_weights


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
