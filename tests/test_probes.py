"""Phase-offset probes of `cell.estimate_g`: one probe when the weight does not vary along the normal, and one
weight evaluation per mesh.

Needs neither scipy nor hypothesis.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from sigmacell import cell
from sigmacell.cell import CellGrid, CellState, SolverOptions, estimate_g, initial_state, minimize_cell, _prolong
from sigmacell.lattice import RationalRotation, RationalUnitVector, rotation_from_direction
from sigmacell.potential import WellPair, checkerboard, homogeneous_quartic, piecewise_cells, smooth_modulated, striped
from sigmacell.profile import Mollifier, TransitionProfile

F = Fraction
E1 = rotation_from_direction(RationalUnitVector((F(1), F(0))))
OBLIQUE = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
I2, I3 = RationalRotation.identity(2), RationalRotation.identity(3)

# (potential, dimension, rotation) whose weight does not vary along the normal e_N of the reference cell
SYMMETRIC = [
    pytest.param(homogeneous_quartic(), 2, I2, id="quartic-2d"),
    pytest.param(homogeneous_quartic(), 3, I3, id="quartic-3d"),
    pytest.param(homogeneous_quartic(d=2), 2, OBLIQUE, id="quartic-d2"),
    pytest.param(homogeneous_quartic(wells=WellPair(np.array([0.0]), np.array([3.0]))), 2, I2, id="quartic-wells-0-3"),
    pytest.param(striped(0.5).lower_envelope(), 2, OBLIQUE, id="envelope"),
    pytest.param(striped(0.5), 2, I2, id="striped-0.5-axis0-e2"),
    pytest.param(striped(0.9), 2, I2, id="striped-0.9-axis0-e2"),
    pytest.param(striped(0.5, axis=1), 2, E1, id="striped-0.5-axis1-e1"),
    pytest.param(striped(0.9, axis=1), 2, E1, id="striped-0.9-axis1-e1"),
    pytest.param(striped(0.5), 3, I3, id="striped-0.5-axis0-e3"),
]

# (potential, dimension, rotation) whose weight varies along the normal
VARYING = [
    pytest.param(striped(0.5), 2, E1, id="striped-0.5-e1"),
    pytest.param(striped(0.5), 2, OBLIQUE, id="striped-0.5-oblique"),
    pytest.param(checkerboard(2.0), 2, OBLIQUE, id="checkerboard-2"),
    pytest.param(smooth_modulated(0.5), 2, OBLIQUE, id="smooth-0.5"),
    pytest.param(piecewise_cells(np.random.default_rng(0).uniform(0.5, 2.0, (3, 3))), 2, OBLIQUE, id="cells"),
]

@functools.cache
def _profile(a: tuple, b: tuple, dim: int, mollifier: Mollifier) -> TransitionProfile:
    return TransitionProfile(WellPair(np.array(a), np.array(b)), mollifier, dim)


def profile_for(pot, dim, mollifier=Mollifier("bump", 0.5)):
    return _profile(tuple(pot.wells.a), tuple(pot.wells.b), dim, mollifier)


def four_probe_reference(rotation, T, pot, profile, h, dim, tangential):
    """Every phase offset probed on the coarsest mesh, the tie rule, then nested iteration down to h."""
    opts = SolverOptions()
    levels = cell._mesh_levels(CellGrid(dim, T, h, rotation, tangential))
    tie = cell.PROBE_TIE_FRACTION * opts.resolved_tolerance(pot)
    best = None
    for off in (0.0, 0.25, 0.5, 0.75):
        res, state = minimize_cell(levels[-1], pot, profile, opts, init=initial_state(levels[-1], profile, off))
        if best is None or res.g < best[0].g - tie:
            best = (res, state, off)
    results = [None] * len(levels)
    results[-1], state, offset = best
    for k in reversed(range(len(levels) - 1)):
        warm = CellState(levels[k], _prolong(state.u, levels[k + 1].box.periodic))
        results[k], state = minimize_cell(levels[k], pot, profile, opts, init=warm)
    return results[0], results[1], state, offset


def fingerprint(fine, coarse, state, offset):
    solves = [(r.g, r.iterations, r.residual, r.potential_part, r.gradient_part, r.evaluations) for r in (fine, coarse)]
    return solves, state.u.tobytes(), offset


@pytest.mark.parametrize("tangential", ["periodic", "dirichlet"])
@pytest.mark.parametrize("pot, dim, rotation", SYMMETRIC)
def test_one_probe_gives_the_four_probe_result_bit_for_bit(pot, dim, rotation, tangential):
    cases = [(2.0, 1 / 8, Mollifier("bump", 0.5)), (4.0, 1 / 8, Mollifier("polynomial", 0.25))]
    if dim == 2:
        cases += [(8.0, 1 / 8, Mollifier("bump", 1.0)), (2.0, 1 / 16, Mollifier("polynomial", 1.0))]
    for T, h, mollifier in cases:
        profile = profile_for(pot, dim, mollifier)
        est = estimate_g(rotation, T, pot, profile, h, tangential=tangential)
        reference = four_probe_reference(rotation, T, pot, profile, h, dim, tangential)
        assert fingerprint(est.fine, est.coarse, est.state, est.phase_offset) == fingerprint(*reference), (T, h)
        assert est.g == reference[0].g and est.discretization_error == abs(reference[0].g - reference[1].g)


@pytest.mark.parametrize(
    "pot, dim, rotation, probes",
    [pytest.param(*case.values, 1, id=case.id) for case in SYMMETRIC]
    + [pytest.param(*case.values, 4, id=case.id) for case in VARYING],
)
def test_probe_count_follows_the_weight_along_the_normal(monkeypatch, pot, dim, rotation, probes):
    # T = 2, h = 1/8: the cold probes at mesh 1/4, then one warm solve at 1/8
    seen = []

    def recording(grid, *args, **kwargs):
        seen.append(grid.h)
        return minimize_cell(grid, *args, **kwargs)

    monkeypatch.setattr(cell, "minimize_cell", recording)
    estimate_g(rotation, 2.0, pot, profile_for(pot, dim), 1 / 8)
    assert seen == [1 / 4] * probes + [1 / 8]


def test_probe_grid_weight_is_evaluated_once(monkeypatch):
    # T = 4, h = 1/8: four probes at mesh 1/4, then one warm solve at 1/8; one weight per mesh
    calls, weight = [], cell._cell_weight

    def counting(grid, pot):
        calls.append(grid.h)
        return weight(grid, pot)

    monkeypatch.setattr(cell, "_cell_weight", counting)
    pot = striped(0.5)
    est = estimate_g(OBLIQUE, 4.0, pot, profile_for(pot, 2), 1 / 8)
    assert calls == [1 / 4, 1 / 8]
    monkeypatch.undo()
    assert fingerprint(est.fine, est.coarse, est.state, est.phase_offset) == fingerprint(
        *four_probe_reference(OBLIQUE, 4.0, pot, profile_for(pot, 2), 1 / 8, 2, "periodic")
    )
