import numpy as np
import pytest

from sigmacell.potential import (
    ConstantWeight,
    GrowthCertificate,
    Potential,
    QuarticBase,
    WellPair,
    checkerboard,
    homogeneous_quartic,
    piecewise_cells,
    smooth_modulated,
    striped,
    validate_hypotheses,
)

ALL_KINDS = [
    homogeneous_quartic(),
    striped(0.5),
    checkerboard(2.0),
    piecewise_cells(np.array([[1.0, 2.0], [2.0, 4.0]])),
    smooth_modulated(0.5),
]


def test_quartic_point_values():
    pot = homogeneous_quartic()
    assert pot([0.3, 0.7], [0.0]) == pytest.approx(1.0)
    assert pot([0.3, 0.7], [1.0]) == 0.0
    assert pot([0.3, 0.7], [-1.0]) == 0.0


def test_checkerboard_contrast_cell():
    pot = checkerboard(2.0)
    assert pot([0.1, 0.1], [0.0]) == pytest.approx(2.0)
    assert pot([0.6, 0.1], [0.0]) == pytest.approx(1.0)
    assert pot([0.6, 0.6], [0.0]) == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_checkerboard_refuses_a_non_positive_or_non_finite_contrast(bad):
    with pytest.raises(ValueError, match="contrast"):
        checkerboard(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_constant_weight_refuses_a_non_positive_or_non_finite_value(bad):
    with pytest.raises(ValueError, match="constant weight"):
        ConstantWeight(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_piecewise_cells_refuses_a_non_positive_or_non_finite_factor(bad):
    with pytest.raises(ValueError, match="cell factors"):
        piecewise_cells(np.array([[1.0, 2.0], [bad, 4.0]]))


def test_weights_state_the_axes_they_vary_along():
    assert homogeneous_quartic().varying_axes(2) == ()
    assert striped(0.5).lower_envelope().varying_axes(3) == ()
    assert striped(0.5, axis=1).varying_axes(3) == (1,)
    for pot in (checkerboard(2.0), smooth_modulated(0.5), piecewise_cells(np.ones((2, 2, 2)))):
        assert pot.varying_axes(3) == (0, 1, 2)


def test_dp_analytic_value():
    pot = homogeneous_quartic()
    assert pot.dp([0.0, 0.0], [0.5])[0] == pytest.approx(-1.5)
    assert pot.dp([0.0, 0.0], [0.0])[0] == 0.0
    assert pot.dp([0.0, 0.0], [1.0])[0] == 0.0


@pytest.mark.parametrize("pot", ALL_KINDS, ids=lambda p: p.kind)
def test_dp_matches_finite_differences(pot):
    rng = np.random.default_rng(11)
    y = rng.uniform(-2, 2, size=(200, 2))
    p = rng.uniform(-2, 2, size=(200, pot.d))
    step = 1e-5
    grad = pot.dp(y, p)
    for k in range(pot.d):
        dp = np.zeros(pot.d)
        dp[k] = step
        fd = (pot(y, p + dp) - pot(y, p - dp)) / (2 * step)
        denom = np.maximum(1.0, np.abs(fd))
        assert (np.abs(fd - grad[..., k]) / denom).max() <= 1e-6


@pytest.mark.parametrize("d", [1, 2])
def test_quartic_value_and_half_dp_match_separate_calls(d):
    base = homogeneous_quartic(d).base
    p = np.random.default_rng(3).uniform(-2, 2, size=(7, 9, d))
    w0, half = base.value_and_half_dp(p)
    dw0 = 2.0 * half  # doubling is exact
    assert w0.tobytes() == base(p).tobytes()
    assert dw0.tobytes() == base.dp(p).tobytes()
    # the formulas written out term by term
    da, db = p - base.wells.a, p - base.wells.b
    sa, sb = (da * da).sum(axis=-1), (db * db).sum(axis=-1)
    assert w0.tobytes() == (sa * sb).tobytes()
    assert dw0.tobytes() == (2.0 * da * sb[..., None] + 2.0 * db * sa[..., None]).tobytes()


@pytest.mark.parametrize("pot", ALL_KINDS, ids=lambda p: p.kind)
def test_unit_cell_periodicity(pot):
    rng = np.random.default_rng(5)
    y = rng.uniform(-3, 3, size=(1000, 2))
    p = rng.uniform(-2, 2, size=(1000, pot.d))
    w = pot(y, p)
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        ws = pot(y + e, p)
        if pot.piecewise:
            assert np.array_equal(ws, w)
        else:
            assert np.abs(ws - w).max() <= 1e-14 * max(1.0, np.abs(w).max())


@pytest.mark.parametrize("pot", ALL_KINDS, ids=lambda p: p.kind)
def test_wells_vanish(pot):
    rng = np.random.default_rng(7)
    y = rng.uniform(-2, 2, size=(500, 2))
    a = np.broadcast_to(pot.wells.a, (500, pot.d))
    b = np.broadcast_to(pot.wells.b, (500, pot.d))
    assert np.abs(pot(y, a)).max() <= 1e-14
    assert np.abs(pot(y, b)).max() <= 1e-14


@pytest.mark.parametrize("pot", ALL_KINDS, ids=lambda p: p.kind)
def test_envelope_dominance(pot):
    rng = np.random.default_rng(3)
    y = rng.uniform(-2, 2, size=(800, 2))
    p = rng.uniform(-3, 3, size=(800, pot.d))
    env = pot.lower_envelope()
    assert (env(y, p) <= pot(y, p) + 1e-12).all()


def test_envelope_scales():
    assert homogeneous_quartic().lower_envelope().weight.value == 1.0
    assert striped(0.5).lower_envelope().weight.value == pytest.approx(0.5)
    assert piecewise_cells(np.array([[1.0, 2.0], [2.0, 4.0]])).lower_envelope().weight.value == 1.0
    env = striped(0.5).lower_envelope()
    assert env(np.zeros(2), np.array([0.0])) == pytest.approx(0.5)


def test_envelope_as_potential_is_homogeneous():
    env = striped(0.5).lower_envelope()
    rng = np.random.default_rng(1)
    y = rng.uniform(-2, 2, size=(50, 2))
    p = rng.uniform(-2, 2, size=(50, 1))
    w0 = env(y, p)
    assert np.allclose(env(y + 0.37, p), w0)


def test_validate_quartic_all_pass():
    report = validate_hypotheses(homogeneous_quartic(), 1000, seed=42)
    assert report.all_passed
    assert [c.code for c in report.checks] == ["H0", "H1", "H2", "H3", "H4"]


def test_validate_striped_all_pass():
    report = validate_hypotheses(striped(0.5), 1000, seed=42)
    assert report.all_passed


def test_validate_broken_zero_set_fails_h2():
    wells = WellPair(np.array([-1.0]), np.array([1.0]))

    class TripleZeroBase(QuarticBase):
        def __call__(self, p):
            p = np.asarray(p, dtype=float)
            return super().__call__(p) * (p * p).sum(axis=-1)

        def dp(self, p):
            p = np.asarray(p, dtype=float)
            s = (p * p).sum(axis=-1)[..., None]
            return super().dp(p) * s + super().__call__(p)[..., None] * 2 * p

    broken = Potential(
        kind="broken-triple-zero",
        wells=wells,
        growth=GrowthCertificate(40.0, 2.0),
        weight=homogeneous_quartic().weight,
        base=TripleZeroBase(wells),
    )
    report = validate_hypotheses(broken, 1000, seed=0)
    assert not report.all_passed
    assert any(c.code == "H2" for c in report.failures)


def test_validate_requires_samples():
    with pytest.raises(ValueError):
        validate_hypotheses(homogeneous_quartic(), 0, seed=0)


def test_growth_certificate_validation():
    with pytest.raises(ValueError):
        GrowthCertificate(-1.0, 4.0)
    with pytest.raises(ValueError):
        GrowthCertificate(4.0, 1.0)


def test_wellpair_validation():
    with pytest.raises(ValueError):
        WellPair(np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize("a,b", [([np.nan], [1.0]), ([-1.0], [np.inf]), ([0.0, -np.inf], [1.0, 0.0])])
def test_wellpair_refuses_non_finite_wells(a, b):
    with pytest.raises(ValueError, match="wells must be finite"):
        WellPair(np.array(a), np.array(b))


def test_vector_wells_default():
    pot = homogeneous_quartic(d=2)
    assert pot.d == 2
    assert pot([0.0, 0.0], [1.0, 0.0]) == 0.0
    assert pot([0.0, 0.0], [-1.0, 0.0]) == 0.0
    assert pot([0.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0)
    report = validate_hypotheses(pot, 500, seed=9)
    assert report.all_passed


def test_growth_sandwich_analytic_quartic():
    # (1 - p^2)^2 <= 4 (1 + p^4) and >= p^4 / 4 - 4 for all p
    p = np.linspace(-20, 20, 40001)
    w = (1 - p**2) ** 2
    assert (w <= 4 * (1 + p**4)).all()
    assert (w >= p**4 / 4 - 4).all()
