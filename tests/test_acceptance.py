"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The expensive solve
campaigns are shared through module-scoped fixtures; every tolerance is
fixed here, not configurable.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from sigmacell.cell import (
    CellGrid,
    SolverOptions,
    cell_model,
    estimate_sigma,
    minimize_cell,
    pinned_objective,
)
from sigmacell.cli import main as cli_main
from sigmacell.gamma import DomainSpec, gamma_gap, minimize_diffuse
from sigmacell.grids import node_quadrature_weights
from sigmacell.lattice import (
    RationalUnitVector,
    check_periodicity,
    random_rational_directions,
    rationalize_direction,
    rotation_from_direction,
)
from sigmacell.potential import checkerboard, homogeneous_quartic, striped
from sigmacell.profile import Mollifier, TransitionProfile
from sigmacell.surface import SigmaTable, convexity_check
from sigmacell.tiling import subadditivity_gap

from oned_reference import transition_bvp_energy

F = Fraction
QUARTIC = homogeneous_quartic()
STRIPED = striped(0.5)
SIGMA_REF = 8.0 / 3.0


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


@pytest.fixture(scope="module")
def bump_profile():
    return TransitionProfile(QUARTIC.wells, Mollifier("bump", 0.5), dim=2)


@pytest.fixture(scope="module")
def quartic_sigma_run(bump_profile):
    """Criterion 1 campaign: 8 directions, schedule {2,4,8}, fine mesh 1/64."""
    irrational_1 = rationalize_direction(np.array([1.0, 1.0]) / np.sqrt(2.0), 1e-3)
    irrational_2 = rationalize_direction(np.array([np.cos(1.0), np.sin(1.0)]), 1e-3)
    directions = [
        RationalUnitVector((F(0), F(1))),
        RationalUnitVector((F(1), F(0))),
        RationalUnitVector((F(3, 5), F(4, 5))),
        RationalUnitVector((F(-4, 5), F(3, 5))),
        RationalUnitVector((F(5, 13), F(12, 13))),
        RationalUnitVector((F(-3, 5), F(-4, 5))),
        irrational_1,
        irrational_2,
    ]
    t0 = time.time()
    estimates = []
    for nu in directions:
        rot = rotation_from_direction(nu)
        estimates.append(estimate_sigma(rot, [2.0, 4.0, 8.0], QUARTIC, bump_profile, h=1 / 64))
    elapsed = time.time() - t0
    return directions, estimates, elapsed


def test_criterion_01_isotropic_oracle(quartic_sigma_run, bump_profile):
    directions, estimates, elapsed = quartic_sigma_run
    oracle_bvp = transition_bvp_energy(QUARTIC, bump_profile, 8.0)
    assert oracle_bvp == pytest.approx(SIGMA_REF, rel=2e-4)  # the two oracles agree
    worst = 0.0
    for nu, est in zip(directions, estimates):
        assert est.converged
        rel = abs(est.sigma_hat - SIGMA_REF) / SIGMA_REF
        worst = max(worst, rel)
    ok = worst <= 0.02 and elapsed <= 900.0
    report(
        1,
        "isotropic surface tension within 2% of 8/3 on 8 directions",
        ok,
        f"worst rel err {worst:.2e}, campaign {elapsed:.0f}s",
    )


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for dim, n, count in ((2, 16, 10), (3, 8, 10)):
        T = 2.0
        grid = CellGrid(dim, T, T / (n - 1), tangential="dirichlet")
        pot = STRIPED if dim == 2 else QUARTIC
        f_g = pinned_objective(cell_model(grid, pot))
        for _ in range(count):
            u = rng.uniform(-1.3, 1.3, size=grid.box.shape + (1,))
            g = f_g(u.ravel())[1].reshape(u.shape)
            gsup = np.abs(g).max()
            free = np.argwhere(~grid.box.boundary_mask())
            step = 1e-6
            for node in free[:: max(1, len(free) // 60)]:
                up, um = u.copy(), u.copy()
                up[tuple(node) + (0,)] += step
                um[tuple(node) + (0,)] -= step
                fd = (f_g(up.ravel())[0] - f_g(um.ravel())[0]) / (2 * step)
                worst = max(worst, abs(fd - g[tuple(node) + (0,)]) / gsup)
                checked += 1
    report(2, "discrete gradient matches central differences", worst <= 1e-6,
           f"worst rel err {worst:.2e} over {checked} derivatives")


def test_criterion_03_exact_lattice_algebra():
    total = 0
    for dim in (2, 3):
        for nu in random_rational_directions(dim, 100, seed=10 * dim):
            R = rotation_from_direction(nu)
            M = R.matrix
            n = R.dim
            for i in range(n):
                for j in range(n):
                    dot = sum(M[k][i] * M[k][j] for k in range(n))
                    assert dot == (1 if i == j else 0)
                    assert (R.period * M[i][j]).denominator == 1
            assert tuple(M[i][n - 1] for i in range(n)) == nu.components
            if n == 2:
                det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
            else:
                det = (
                    M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                    - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                    + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
                )
            assert det == 1
            total += 1
    report(3, "exact rotation invariants on 100 random directions per dimension", total == 200,
           f"{total} rotations, zero tolerance")


def test_criterion_04_lattice_periodicity():
    pot = checkerboard(2.0)
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    rep = check_periodicity(pot, R, 1000, seed=314)
    assert R.period == 5
    report(4, "checkerboard invariant under the period-5 rotated shifts", rep.passed,
           "1000 samples, bit-exact")


def test_criterion_05_mollifier_independence():
    nu_aligned = RationalUnitVector((F(3, 5), F(4, 5)))
    rot_aligned = rotation_from_direction(nu_aligned)
    cases = [
        (None, [4.0, 8.0], False),
        (rot_aligned, [5.0, 10.0], True),
    ]
    details = []
    ok = True
    for rot, schedule, aligned in cases:
        ests = []
        for shape in ("bump", "polynomial"):
            prof = TransitionProfile(STRIPED.wells, Mollifier(shape, 0.5), dim=2)
            ests.append(
                estimate_sigma(rot, schedule, STRIPED, prof, h=1 / 32, lattice_aligned=aligned)
            )
        diff = abs(ests[0].sigma_hat - ests[1].sigma_hat)
        budget = 2.0 * (ests[0].error_bar + ests[1].error_bar)
        ok &= diff <= budget
        details.append(f"|diff|={diff:.2e} vs budget {budget:.2e}")
    report(5, "surface tension independent of the mollifier", ok, "; ".join(details))


def test_criterion_06_subadditivity_trend(quartic_sigma_run, bump_profile):
    grid = CellGrid(2, 4.0, 1 / 16, tangential="dirichlet")
    _, u_T = minimize_cell(grid, QUARTIC, bump_profile)
    rep = subadditivity_gap(u_T, 4.0, 16.0, 3, QUARTIC, bump_profile)
    upper_bound_ok = rep.g_S <= rep.e_S + 1e-12 and rep.solver_converged

    _, estimates, _ = quartic_sigma_run
    per_T = {T: g for (T, _, g) in estimates[0].per_T}
    d1 = abs(per_T[4.0] - per_T[2.0])
    d2 = abs(per_T[8.0] - per_T[4.0])
    cauchy_ok = d2 < d1
    report(
        6,
        "tiled competitor bounds g(S); doubling differences shrink",
        upper_bound_ok and cauchy_ok,
        f"g(S)={rep.g_S:.4f} <= e_S={rep.e_S:.4f}; |g4-g2|={d1:.4f} > |g8-g4|={d2:.4f}",
    )


def test_criterion_07_anisotropy_detection(bump_profile):
    e1 = RationalUnitVector((F(1), F(0)))
    rot1 = rotation_from_direction(e1)
    est1 = estimate_sigma(rot1, [8.0, 16.0], STRIPED, bump_profile, h=1 / 32)
    est2 = estimate_sigma(None, [8.0, 16.0], STRIPED, bump_profile, h=1 / 32)
    separation = abs(est1.sigma_hat - est2.sigma_hat)
    bars = est1.error_bar + est2.error_bar
    hard_ok = separation > bars
    soft_ok = est1.sigma_hat < est2.sigma_hat
    report(
        7,
        "striped anisotropy separates beyond the error bars",
        hard_ok,
        f"sigma(e1)={est1.sigma_hat:.5f}, sigma(e2)={est2.sigma_hat:.5f}, "
        f"separation {separation:.2e} > bars {bars:.2e}; "
        f"soft ordering sigma(e1)<sigma(e2): {'holds' if soft_ok else 'violated'}",
    )


@pytest.fixture(scope="module")
def striped_16_table(bump_profile):
    entries = []
    for k in range(16):
        theta = 2 * np.pi * k / 16
        nu = rationalize_direction(np.array([np.cos(theta), np.sin(theta)]), 1e-2)
        rot = rotation_from_direction(nu)
        est = estimate_sigma(rot, [4.0, 8.0], STRIPED, bump_profile, h=1 / 16)
        entries.append((nu.as_float(), est.sigma_hat, est.error_bar))
    return SigmaTable(entries, potential_info=STRIPED.describe())


def test_criterion_08_convexity(striped_16_table):
    violations = convexity_check(striped_16_table)
    s = np.sqrt(0.5)
    corrupted = SigmaTable(
        [((1, 0), 1.0, 0.0), ((0, 1), 1.0, 0.0), ((s, s), np.sqrt(2.0) * 1.01, 0.0)]
    )
    flagged = convexity_check(corrupted)
    ok = len(violations) == 0 and len(flagged) == 1
    report(
        8,
        "16-direction table convex within error bars; corrupted table flagged",
        ok,
        f"{len(violations)} violations on the solver table; corrupted triggers {len(flagged)}",
    )


def test_criterion_09_gamma_gap(bump_profile):
    strip = DomainSpec.flat_strip()
    _, cell_state = minimize_cell(CellGrid(2, 4.0, 1 / 64), QUARTIC, bump_profile)
    rows = gamma_gap(strip, [1 / 4, 1 / 8, 1 / 16, 1 / 32], QUARTIC, bump_profile, SIGMA_REF, cell_state)
    target = SIGMA_REF * strip.interface_area()
    warm_ok = all(r.min_energy <= r.recovery_energy + 1e-10 and r.converged for r in rows)
    final_ok = rows[-1].gap_min <= 0.05 * target
    gaps = [r.gap_min for r in rows]
    trend_ok = all(gaps[i + 1] <= gaps[i] + 1e-3 * target for i in range(len(gaps) - 1))
    report(
        9,
        "diffuse minimizers approach sigma * interface length",
        warm_ok and final_ok and trend_ok,
        f"gaps {['%.4f' % g for g in gaps]}, final rel {gaps[-1] / target:.2e}",
    )


def test_criterion_10_mass_constrained(quartic_sigma_run, bump_profile):
    strip = DomainSpec.flat_strip()
    eps, h = 1 / 16, 1 / 128
    target = np.array([0.0])  # midpoint mass: equal phase volumes
    fieldv, parts, res = minimize_diffuse(
        strip, QUARTIC, eps, h, bump_profile, mass_target=target
    )
    wq = node_quadrature_weights(strip.grid(h))
    mass = (wq[..., None] * fieldv.u).sum(axis=(0, 1))
    drift = abs(mass - target).max()
    _, estimates, _ = quartic_sigma_run
    sharp_best_flat = estimates[0].sigma_hat * strip.interface_area()
    energy_ok = abs(parts.total - sharp_best_flat) <= 0.10 * sharp_best_flat
    report(
        10,
        "mass-constrained minimizer conserves mass and meets the flat-interface energy",
        res.converged and drift <= 1e-10 and energy_ok,
        f"drift {drift:.2e}, energy {parts.total:.4f} vs sharp {sharp_best_flat:.4f}",
    )


def test_criterion_11_determinism(tmp_path):
    config = """
[potential]
kind = homogeneous-quartic

[directions]
dir1 = 0, 1
dir2 = 3/5, 4/5

[schedule]
t = 2, 4
h = 1/16

[solver]
seed = 99
workers = 1

[output]
dir = out
"""
    path = tmp_path / "det.ini"
    path.write_text(config, encoding="utf-8")
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["sigma", "--config", str(path), "--out", str(out), "--seed", "99"]) == 0
        blobs.append(
            ((out / "solves.csv").read_bytes(), (out / "sigma_table.json").read_bytes())
        )
    ok = blobs[0] == blobs[1]
    report(11, "repeated runs with fixed seed and workers are byte-identical", ok,
           f"{len(blobs[0][0])} + {len(blobs[0][1])} bytes compared")
