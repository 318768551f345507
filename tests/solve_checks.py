"""Checks shared by the grid, cell and diffuse tests: how a descent stopped, what it left alive, and slab sizes."""

import gc
from contextlib import contextmanager

import numpy as np
import pytest

from sigmacell import descent, grids
from sigmacell.cell import SolverOptions
from sigmacell.grids import EnergyModel


def record_last_point(monkeypatch, module):
    """Make `module.lbfgs_descent` record the point of its last f_g call in the returned dict."""
    seen = {}
    real = module.lbfgs_descent

    def recorded(f_g, x0, *args, **kwargs):
        def f_g_seen(x):
            seen["x"] = x.copy()
            return f_g(x)

        return real(f_g_seen, x0, *args, **kwargs)

    monkeypatch.setattr(module, "lbfgs_descent", recorded)
    return seen


def slab_nodes(shape, rows: int) -> int:
    """The `grids.SLAB_NODES` that sweeps a grid of node shape `shape` in slabs of at most `rows` cell rows."""
    return (rows + 1) * int(np.prod(shape[1:]))


@contextmanager
def slabs_of(shape, rows):
    """Models built inside sweep a grid of node shape `shape` in slabs of at most `rows` cell rows (None: as built)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(grids, "SLAB_NODES", slab_nodes(shape, rows))
        yield


# how a descent can stop: SolverOptions and MAX_BACKTRACKS
STOPS = {
    "converged": (SolverOptions(), descent.MAX_BACKTRACKS),
    "max-iterations": (SolverOptions(max_iterations=2), descent.MAX_BACKTRACKS),
    # one halving per search: with no tolerance, a search soon fails at rounding level
    "line-search-failed": (SolverOptions(tolerance=0.0, max_iterations=1000), 1),
    "zero-iterations": (SolverOptions(tolerance=1e3), descent.MAX_BACKTRACKS),
}


def check_stop(stop, res, x, last_x, max_iterations):
    """Assert that a descent with result fields `res` and final point x stopped the way `stop` names."""
    assert res.converged == (stop in ("converged", "zero-iterations"))
    assert (res.iterations == 0) == (stop == "zero-iterations")
    assert (res.iterations == max_iterations) == (stop == "max-iterations")
    if stop == "line-search-failed":
        assert last_x.tobytes() != x.tobytes()


def new_models_left_after(run):
    """The EnergyModels that `run()` leaves alive with the cyclic garbage collector off."""
    gc.collect()
    gc.disable()
    try:
        before = [o for o in gc.get_objects() if isinstance(o, EnergyModel)]
        run()
        return [o for o in gc.get_objects() if isinstance(o, EnergyModel) and all(o is not b for b in before)]
    finally:
        gc.enable()

