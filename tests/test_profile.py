import tracemalloc

import numpy as np
import pytest

from sigmacell.potential import WellPair, homogeneous_quartic
from sigmacell.profile import (
    Mollifier,
    TransitionProfile,
    _interval,
    _marginal_table,
    step_field,
)

WELLS = homogeneous_quartic().wells


@pytest.fixture(scope="module")
def bump_profile():
    return TransitionProfile(WELLS, Mollifier("bump", 0.5), dim=2)


@pytest.fixture(scope="module")
def poly_profile():
    return TransitionProfile(WELLS, Mollifier("polynomial", 0.5), dim=2)


def test_step_field_sign_convention():
    nu = np.array([0.0, 1.0])
    assert step_field(nu, np.array([0.3, -1.0]), WELLS)[0] == -1.0
    assert step_field(nu, np.array([0.3, 0.0]), WELLS)[0] == -1.0  # boundary goes to a
    assert step_field(nu, np.array([0.0, 0.1]), WELLS)[0] == 1.0


@pytest.mark.parametrize("profname", ["bump_profile", "poly_profile"])
def test_midpoint_and_exact_tails(profname, request):
    prof = request.getfixturevalue(profname)
    assert prof(0.0)[0] == pytest.approx(0.0, abs=1e-12)
    assert prof(-10.0)[0] == -1.0
    assert prof(10.0)[0] == 1.0
    assert prof(-0.5)[0] == -1.0  # support edge is exact
    assert prof(0.5)[0] == 1.0


def test_marginal_normalization_against_adaptive_quadrature():
    # the profile against adaptive quadrature of the kernel's marginal, for both shapes in dims 1-3,
    # read as 1/2 plus the marginal's mass between 0 and s; some points lie in the two table intervals at 0
    quad = pytest.importorskip("scipy.integrate").quad
    r = 0.5
    step = 2 * r / 4096  # one table interval
    tight = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    points = (-0.45, -0.3, -0.1, -1.5 * step, -0.5 * step, 0.25 * step, 0.9 * step, 1.7 * step, 0.05, 0.2, 0.4, 0.47)
    for shape in ("bump", "polynomial"):
        moll = Mollifier(shape, r)

        def kernel(q):
            return float(moll.radial(q))

        def line(t):  # 2D: the kernel along the chord at distance t
            half = np.sqrt(max(r * r - t * t, 0.0))
            return 2.0 * quad(lambda w: kernel(np.hypot(t, w)), 0.0, half, **tight)[0]

        def disc(t):  # 3D: the kernel over the disc at distance t, in q = |y|^2
            return np.pi * quad(lambda q: kernel(np.sqrt(q)), t * t, r * r, **tight)[0]

        for dim, marginal in ((1, lambda t: kernel(abs(t))), (2, line), (3, disc)):
            prof = TransitionProfile(WELLS, moll, dim)
            mass = 2.0 * quad(marginal, 0.0, r, **tight)[0]
            for s in points:
                want = 0.5 + quad(marginal, 0.0, s, **tight)[0] / mass
                assert abs(float(prof.fraction(s)) - want) <= 1e-12, (shape, dim, s)


def test_fraction_and_slope_edge_inputs(bump_profile):
    r = 0.5
    s = np.array([np.nan, -np.inf, -1.0, -r, r, 1.0, np.inf])
    frac = bump_profile.fraction(s)
    assert np.isnan(frac[0]) and frac[1:].tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    slope = bump_profile.slope(s)
    assert slope.shape == (7, 1)
    assert np.isnan(slope[0, 0]) and (slope[1:] == 0.0).all()  # NaN propagates, 0 on and beyond the support ends
    assert (bump_profile.slope(np.linspace(-0.49, 0.49, 99)) > 0.0).all()
    # 0-d and empty inputs keep their shapes, with the wells' axis appended
    assert np.shape(bump_profile.fraction(np.array(0.1))) == ()
    assert np.shape(bump_profile.fraction(0.1)) == ()
    assert bump_profile.slope(np.array(0.1)).shape == (1,)
    assert bump_profile(np.array(0.1)).shape == (1,)
    assert bump_profile.fraction(np.empty(0)).shape == (0,)
    assert bump_profile.slope(np.empty((0, 3))).shape == (0, 3, 1)
    assert bump_profile(np.empty((2, 0))).shape == (2, 0, 1)


def test_quarter_width_regression(bump_profile):
    # frozen value of the profile at s = r/(2T) = 0.25 for the default bump
    val = bump_profile(0.25)[0]
    assert 0.0 < val < 1.0  # strictly between midpoint and the b-well
    assert val == pytest.approx(0.8141777, abs=2e-6)


def test_monotone(bump_profile):
    s = np.linspace(-0.6, 0.6, 4001)
    vals = bump_profile(s)[..., 0]
    assert (np.diff(vals) >= -1e-15).all()


def test_rotation_invariance_of_boundary_data(bump_profile):
    rng = np.random.default_rng(17)
    theta = 0.4
    nu1 = np.array([np.sin(theta), np.cos(theta)])
    nu2 = np.array([0.0, 1.0])
    y = rng.uniform(-3, 3, size=(200, 2))
    s = y @ nu1
    y2 = np.stack([rng.uniform(-3, 3, size=200), s], axis=1)  # same normal component
    v1 = bump_profile(y @ nu1)
    v2 = bump_profile(y2 @ nu2)
    assert np.abs(v1 - v2).max() <= 1e-12


def test_slope_matches_finite_differences(bump_profile):
    s = np.linspace(-0.45, 0.45, 41)
    step = 1e-6
    fd = (bump_profile(s + step) - bump_profile(s - step)) / (2 * step)
    assert np.abs(bump_profile.slope(s) - fd).max() <= 1e-5


def test_vector_wells_profile():
    wells = WellPair(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    prof = TransitionProfile(wells, Mollifier("bump", 0.5), dim=2)
    out = prof(np.array([-10.0, 0.0, 10.0]))
    assert out.shape == (3, 2)
    assert np.allclose(out[0], wells.a)
    assert np.allclose(out[2], wells.b)


def test_mollifier_validation():
    with pytest.raises(ValueError):
        Mollifier("gauss", 0.5)
    with pytest.raises(ValueError):
        Mollifier("bump", 0.0)
    with pytest.raises(ValueError):
        Mollifier("bump", 1.5)


def test_profile_dim3_marginal():
    prof = TransitionProfile(WELLS, Mollifier("bump", 0.5), dim=3)
    assert prof(0.0)[0] == pytest.approx(0.0, abs=1e-12)
    assert prof(0.5)[0] == 1.0


def assert_bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def whole_table_marginal(moll, dim):
    """The marginal tabulated on all 4097 points at once: every row's quadrature in one array."""
    r = moll.radius
    s = np.linspace(-r, r, 4097)
    if dim == 1:
        return s, moll.radial(np.abs(s))
    nodes, weights = np.polynomial.legendre.leggauss(96)
    half = np.sqrt(np.maximum(r * r - s * s, 0.0))
    if dim == 2:
        w = half[:, None] * nodes[None, :]
        vals = moll.radial(np.sqrt(s[:, None] ** 2 + w**2))
        return s, (vals * weights[None, :]).sum(axis=1) * half
    t = 0.5 * half[:, None] * (nodes[None, :] + 1.0)
    vals = moll.radial(np.sqrt(s[:, None] ** 2 + t**2)) * t
    return s, 2.0 * np.pi * (vals * weights[None, :]).sum(axis=1) * 0.5 * half


@pytest.mark.parametrize("shape", ["bump", "polynomial"])
@pytest.mark.parametrize("radius", [0.1, 0.3, 1 / 3, 0.5, 0.77, 1.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_marginal_table_equals_whole_table_tabulation(shape, radius, dim):
    # one evaluation per distinct |s|, in row blocks, gives the whole-table numbers bit for bit
    moll = Mollifier(shape, radius)
    s, density = _marginal_table(moll, dim)
    s_ref, density_ref = whole_table_marginal(moll, dim)
    assert_bitwise_equal(s, s_ref)
    assert_bitwise_equal(density, density_ref)


def test_profile_build_scratch_is_bounded():
    # the whole-table quadrature peaked at 22 MB; row blocks keep it near 2 MB
    tracemalloc.start()
    try:
        TransitionProfile(WELLS, Mollifier("bump", 0.5), dim=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_interval_index_matches_searchsorted():
    x = np.linspace(-0.5, 0.5, 4097)  # the uniform table of a radius-1/2 mollifier
    rng = np.random.default_rng(12)
    p = np.concatenate(
        [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf), rng.uniform(-0.6, 0.6, 100_000), [np.inf, -np.inf]]
    )
    expected = np.clip(np.searchsorted(x, p, side="right") - 1, 0, x.size - 2)
    assert np.array_equal(_interval(x, p), expected)
    assert _interval(x, x[-1]) == x.size - 2
