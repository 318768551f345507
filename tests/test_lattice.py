from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np
import pytest

from sigmacell.lattice import (
    RationalRotation,
    RationalUnitVector,
    _stereographic_point,
    check_periodicity,
    lattice_period,
    random_rational_directions,
    rationalize_direction,
    rotation_from_direction,
)
from sigmacell.potential import checkerboard, homogeneous_quartic, piecewise_cells, smooth_modulated, striped

F = Fraction


def test_unit_vector_requires_exact_norm():
    RationalUnitVector((F(3, 5), F(4, 5)))
    with pytest.raises(ValueError):
        RationalUnitVector((F(1, 2), F(1, 2)))


def test_rationalize_already_rational():
    mu = rationalize_direction([1.0, 0.0], 1e-3)
    assert mu.components == (F(1), F(0))
    mu = rationalize_direction([0.6, 0.8], 1e-6)
    assert mu.components == (F(3, 5), F(4, 5))


def test_rationalize_diagonal():
    mu = rationalize_direction([1 / np.sqrt(2), 1 / np.sqrt(2)], 0.02)
    assert mu.components == (F(20, 29), F(21, 29))
    assert np.abs(mu.as_float() - 1 / np.sqrt(2)).max() <= 0.02


def test_rationalize_error_bound_holds():
    rng = np.random.default_rng(123)
    for tol in (1e-2, 1e-3, 1e-4):
        for _ in range(25):
            theta = rng.uniform(0, 2 * np.pi)
            nu = np.array([np.cos(theta), np.sin(theta)])
            mu = rationalize_direction(nu, tol)
            assert np.abs(mu.as_float() - nu).max() <= tol


def test_rationalize_dimension_three():
    rng = np.random.default_rng(7)
    v = rng.normal(size=3)
    nu = v / np.linalg.norm(v)
    mu = rationalize_direction(nu, 1e-3)
    assert sum(c * c for c in mu.components) == 1
    assert np.abs(mu.as_float() - nu).max() <= 1e-3


def _rationalize_exact_reference(nu, tol):
    """The exact search without a float screen: every candidate is built as Fractions and tested."""
    nu = np.asarray(nu, dtype=float)
    nu = nu / float(np.linalg.norm(nu))
    pole_axis = int(np.argmax(np.abs(nu)))
    sign = 1 if nu[pole_axis] >= 0 else -1
    t_star = np.delete(nu, pole_axis) / (1.0 + sign * nu[pole_axis])
    hits, q_hit, q = [], None, 1
    while q <= int(np.ceil(4.0 / tol)) + 1:
        sides = [{F(int(np.floor(ts * q)), q), F(int(np.ceil(ts * q)), q)} for ts in t_star]
        for t in product(*sides):
            mu = _stereographic_point(t, pole_axis, sign, nu.size)
            if max(abs(float(c) - nu[i]) for i, c in enumerate(mu)) <= tol:
                hits.append(mu)
                q_hit = q if q_hit is None else q_hit
        if q_hit is not None and q >= 2 * q_hit:
            break
        q += 1
    return min(set(hits), key=lambda mu: (lcm(*[c.denominator for c in mu]), mu))


def _reference_cases():
    rng = np.random.default_rng(2024)
    cases = [(np.array([np.cos(2 * np.pi * k / 16), np.sin(2 * np.pi * k / 16)]), 1e-2) for k in range(16)]
    for tol in (1e-2, 3e-3, 1e-3):
        for dim in (2, 3):
            for _ in range(12):
                v = rng.normal(size=dim)
                cases.append((v / np.linalg.norm(v), tol))
    return cases


def test_rationalize_matches_the_exact_search():
    # the float screen only skips candidates outside tol + 1e-9; the exact test and the tie-break decide
    for nu, tol in _reference_cases():
        assert rationalize_direction(nu, tol).components == _rationalize_exact_reference(nu, tol), (nu, tol)


def test_rationalize_tol_guard():
    with pytest.raises(ValueError):
        rationalize_direction([0.6, 0.8], 1e-10)


@pytest.mark.parametrize("nu", [[np.nan, 1.0], [0.6, np.inf], [np.nan, np.nan, np.nan]])
def test_rationalize_refuses_a_non_finite_direction(nu):
    with pytest.raises(ValueError, match="input direction must be finite"):
        rationalize_direction(nu, 1e-3)


def test_rotation_three_four_five():
    nu = RationalUnitVector((F(3, 5), F(4, 5)))
    R = rotation_from_direction(nu)
    assert R.matrix == ((F(4, 5), F(3, 5)), (F(-3, 5), F(4, 5)))
    assert R.period == 5


def test_rotation_identity():
    nu = RationalUnitVector((F(0), F(1)))
    R = rotation_from_direction(nu)
    assert R.matrix == ((F(1), F(0)), (F(0), F(1)))
    assert R.period == 1


def test_rotation_n3_regression():
    nu = RationalUnitVector((F(2, 3), F(2, 3), F(1, 3)))
    R = rotation_from_direction(nu)
    expected = (
        (F(-1, 3), F(-2, 3), F(2, 3)),
        (F(2, 3), F(1, 3), F(2, 3)),
        (F(-2, 3), F(2, 3), F(1, 3)),
    )
    assert R.matrix == expected
    assert 9 % R.period == 0  # period divides 9


def _det(M):
    n = len(M)
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    det = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in [list(r) for r in M[1:]]]
        det += (-1) ** j * M[0][j] * _det(minor)
    return det


@pytest.mark.parametrize("dim", [2, 3])
def test_rotation_exact_invariants_random(dim):
    # 100 random rational directions per dimension, zero-tolerance checks
    dirs = random_rational_directions(dim, 100, seed=dim)
    for nu in dirs:
        R = rotation_from_direction(nu)
        M = R.matrix
        n = R.dim
        for i in range(n):
            for j in range(n):
                dot = sum(M[k][i] * M[k][j] for k in range(n))
                assert dot == (1 if i == j else 0)
        assert _det(M) == 1
        assert tuple(M[i][n - 1] for i in range(n)) == nu.components
        for i in range(n):
            for j in range(n):
                assert (R.period * M[i][j]).denominator == 1


def test_period_divides_reflection_denominators():
    # the rotation is a product of two rational reflections; its period
    # divides the product of their entry-denominator lcms
    for dim in (2, 3):
        for nu in random_rational_directions(dim, 30, seed=99 + dim):
            R = rotation_from_direction(nu)
            n = nu.dim
            e_last = tuple(F(1) if i == n - 1 else F(0) for i in range(n))
            if nu.components == e_last:
                assert R.period == 1
                continue
            w = tuple(e_last[i] - nu.components[i] for i in range(n))

            def refl(v):
                v2 = sum(x * x for x in v)
                return [
                    [(F(1) if i == j else F(0)) - 2 * v[i] * v[j] / v2 for j in range(n)]
                    for i in range(n)
                ]

            H1 = refl(w)
            z = tuple(H1[i][0] for i in range(n))
            H2 = refl(z)
            den1 = lcm(*[x.denominator for row in H1 for x in row])
            den2 = lcm(*[x.denominator for row in H2 for x in row])
            assert (den1 * den2) % R.period == 0


def test_lattice_period_values():
    assert lattice_period(((F(1), F(0)), (F(0), F(1)))) == 1
    assert lattice_period(((F(4, 5), F(3, 5)), (F(-3, 5), F(4, 5)))) == 5


def test_lattice_period_mixed_denominators():
    # product of exact rotations with periods 3 and 5 has period 15
    nu3 = RationalUnitVector((F(2, 3), F(2, 3), F(1, 3)))
    R3 = rotation_from_direction(nu3).matrix
    five = ((F(4, 5), F(3, 5), F(0)), (F(-3, 5), F(4, 5), F(0)), (F(0), F(0), F(1)))
    prod = tuple(
        tuple(sum(five[i][k] * R3[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )
    R = RationalRotation(prod)
    assert R.period == lattice_period(prod) == 15


def test_check_periodicity_checkerboard():
    pot = checkerboard(2.0)
    R = rotation_from_direction(RationalUnitVector((F(3, 5), F(4, 5))))
    report = check_periodicity(pot, R, 1000, seed=21)
    assert report.passed
    assert (report.shifts == np.array([[4, -3], [3, 4]])).all()


def test_check_periodicity_fake_rotation_fails():
    pot = checkerboard(2.0)
    theta = 0.7  # irrational-entry rotation rounded to floats
    c, s = np.cos(theta), np.sin(theta)
    fake = RationalRotation.identity(2)
    object.__setattr__(fake, "matrix", ((F(1), F(0)), (F(0), F(1))))

    class FakeRot:
        dim = 2
        period = 1

        def lattice_vectors(self):
            return np.array([[c, -s], [s, c]])  # not integer shifts

    report = check_periodicity(pot, FakeRot(), 500, seed=2)
    assert not report.passed
    assert report.failures


@pytest.mark.parametrize(
    "pot",
    [homogeneous_quartic(), striped(0.5), checkerboard(2.0), piecewise_cells(np.array([[1.0, 2.0], [2.0, 4.0]])),
     smooth_modulated(0.5)],
    ids=lambda pot: pot.kind,
)
def test_check_periodicity_passes_on_a_uniform_ring(pot):
    # periods up to 16501: x + shift rounds away low bits of x, which the comparison at z - shift does not see
    for k in range(16):
        theta = 2 * np.pi * k / 16
        R = rotation_from_direction(rationalize_direction(np.array([np.cos(theta), np.sin(theta)]), 1e-3))
        assert check_periodicity(pot, R, 1000, seed=0).passed, (k, R.period)


def test_check_periodicity_homogeneous_any_rotation():
    pot = homogeneous_quartic()
    R = rotation_from_direction(RationalUnitVector((F(20, 29), F(21, 29))))
    assert check_periodicity(pot, R, 500, seed=5).passed


def test_rotation_rejects_bad_matrix():
    with pytest.raises(ValueError):
        RationalRotation(((F(1), F(1)), (F(0), F(1))))
