import weakref

import numpy as np
import pytest

from sigmacell import descent
from sigmacell.descent import lbfgs_descent


def two_loop_descent(f_g, x0, sup_tol, max_iterations, h0, memory=10, armijo=1e-4, max_backtracks=60):
    """Reference L-BFGS: the two-loop recursion over lists of secant pairs.

    Same step rule, retry along -H0 g and curvature rule as
    `lbfgs_descent`, with h0 the fixed initial matrix H0;
    `f_g` returns (f, g).  Returns (x, trace, number of pairs rejected
    while the history held pairs).
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = f_g(x)
    trace = [f]
    s_list, y_list, rho_list = [], [], []
    rejected = 0

    def line_search(p, gp):
        step = 1.0
        for _ in range(max_backtracks):
            x_new = x + step * p
            f_new, g_new = f_g(x_new)
            if np.isfinite(f_new) and f_new <= f + armijo * step * gp:
                return x_new, f_new, g_new
            step *= 0.5
        return None

    while float(np.abs(g).max()) > sup_tol and len(trace) - 1 < max_iterations:
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        q = h0(q)
        for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        p = -q
        gp = float(g @ p)
        if gp >= 0.0:
            p = -h0(g)
            gp = float(g @ p)
        if gp == 0.0:
            break
        found = line_search(p, gp)
        if found is None and not np.array_equal(p, -h0(g)):
            p = -h0(g)
            found = line_search(p, float(g @ p))
        if found is None:
            break
        x_new, f_new, g_new = found
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        elif s_list:
            rejected += 1
        x, f, g = x_new, f_new, g_new
        trace.append(f)
    return x, trace, rejected


def scaled_identity(c):
    """H0 = c I."""
    return lambda v: c * v


IDENTITY = scaled_identity(1.0)


def with_info(f_g):
    """The (f, g) objective f_g as lbfgs_descent takes it: (f, g, None)."""
    return lambda x: (*f_g(x), None)


def spd_quadratic(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.geomspace(1.0, 1e3, n)) @ q.T
    b = rng.standard_normal(n)

    def f_g(x):
        ax = a @ x
        return 0.5 * float(x @ ax) - float(b @ x), ax - b

    return f_g, rng.standard_normal(n)


def rosenbrock(x):
    dx = x[1:] - x[:-1] ** 2
    f = float(np.sum(100.0 * dx**2 + (1.0 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * dx - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * dx
    return f, g


def double_well(x):
    # separable wells at +-1 with a weak chain coupling; started near the
    # maximum at 0, steps cross concave ground, where s . y < 0
    c = x[1:] - x[:-1]
    f = float(np.sum((x**2 - 1.0) ** 2) / 4.0 + 0.05 * np.sum(c**2))
    g = x**3 - x
    g[:-1] -= 0.1 * c
    g[1:] += 0.1 * c
    return f, g


def assert_matches_reference(monkeypatch, f_g, x0, iterations, memory, rtol, h0=IDENTITY):
    x_ref, trace_ref, rejected = two_loop_descent(f_g, x0, 0.0, iterations, h0, memory=memory)
    monkeypatch.setattr(descent, "MEMORY", memory)
    res = lbfgs_descent(with_info(f_g), x0, sup_tol=0.0, max_iterations=iterations, precondition=h0)
    assert res.iterations == len(trace_ref) - 1 == iterations
    np.testing.assert_allclose(res.trace, trace_ref, rtol=rtol, atol=0.0)
    np.testing.assert_allclose(res.x, x_ref, rtol=rtol, atol=rtol * float(np.abs(x_ref).max()))
    return rejected


@pytest.mark.parametrize("memory", [1, 3, 5, 10])
def test_matches_two_loop_on_spd_quadratic(monkeypatch, memory):
    # eigenvalues 1 to 1e3: 40 iterations wrap the history several times
    f_g, x0 = spd_quadratic(200, seed=memory)
    assert_matches_reference(monkeypatch, f_g, x0, 40, memory, rtol=1e-8)


def test_matches_two_loop_on_rosenbrock(monkeypatch):
    x0 = np.tile([-1.2, 1.0], 10)
    assert_matches_reference(monkeypatch, rosenbrock, x0, 60, 5, rtol=1e-6)


@pytest.mark.parametrize("memory", [2, 10])
def test_matches_two_loop_when_curvature_rule_rejects_pairs(monkeypatch, memory):
    # from this start with H0 = I/2 the rule rejects 3 pairs at memory 2 and 4 at memory 10
    # (with H0 = I and x0 = 0.05 sin, none at memory 10)
    x0 = 0.2 * np.sin(np.arange(30.0))
    rejected = assert_matches_reference(monkeypatch, double_well, x0, 15, memory, rtol=1e-8, h0=scaled_identity(0.5))
    assert rejected >= 1


@pytest.mark.parametrize("memory", [1, 3, 10])
def test_preconditioned_matches_two_loop_with_the_same_h0(monkeypatch, memory):
    # H0 the inverse of the Hessian's diagonal: a rough preconditioner, so 40 iterations still wrap the history
    f_g, x0 = spd_quadratic(200, seed=memory)
    diag = np.diag([f_g(e)[1] for e in np.eye(200)]) - f_g(np.zeros(200))[1]  # A e_i = g(e_i) - g(0)
    assert_matches_reference(monkeypatch, f_g, x0, 40, memory, rtol=1e-8, h0=lambda v: v / diag)


def test_buffers_do_not_leak(monkeypatch):
    monkeypatch.setattr(descent, "MEMORY", 3)
    f_g, x0 = spd_quadratic(50, seed=7)
    before = x0.copy()
    a = lbfgs_descent(with_info(f_g), x0, sup_tol=1e-10, max_iterations=30, precondition=IDENTITY)
    b = lbfgs_descent(with_info(f_g), x0, sup_tol=1e-10, max_iterations=30, precondition=IDENTITY)
    assert x0.tobytes() == before.tobytes()
    assert not np.shares_memory(a.x, x0)
    assert not np.shares_memory(a.x, b.x)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.trace == b.trace


@pytest.mark.parametrize("memory", [1, 3])
def test_descent_keeps_one_earlier_preconditioned_gradient(monkeypatch, memory):
    monkeypatch.setattr(descent, "MEMORY", memory)
    f_g, x0 = spd_quadratic(50, seed=11)
    results, alive = [], []

    def precondition(v):
        alive.append(sum(r() is not None for r in results))  # earlier H0 g still referenced
        out = 0.5 * v
        results.append(weakref.ref(out))
        return out

    res = lbfgs_descent(with_info(f_g), x0, sup_tol=1e-10, max_iterations=30, precondition=precondition)
    assert res.iterations >= 5
    assert alive[0] == 0
    assert max(alive) == 1


def test_steepest_descent_fallback_when_quasi_newton_search_fails(monkeypatch):
    # The reported gradient M x is not the gradient of f = |x|^2 / 2, but -M x
    # still descends f (x . M x = |x|^2).  The quasi-Newton direction built from
    # its secant pairs does not, so its line search fails from the second
    # iteration on; without the steepest-descent retry the descent stops there.
    M = np.array([[1.0, 3.0], [-3.0, 1.0]])

    def f_g(x):
        return 0.5 * float(x @ x), M @ x

    monkeypatch.setattr(descent, "MAX_BACKTRACKS", 5)
    res = lbfgs_descent(with_info(f_g), np.array([1.0, 0.0]), sup_tol=1e-8, max_iterations=20, precondition=IDENTITY)
    assert res.iterations == 20
    assert all(b < a for a, b in zip(res.trace, res.trace[1:]))
    assert res.f < 0.1


def recording(f_g):
    """f_g that also returns a copy of its argument, and the list of the points it was called at."""
    calls = []

    def f_g_x(x):
        calls.append(x.copy())
        f, g = f_g(x)
        return f, g, x.copy()

    return f_g_x, calls


def rotated_gradient(x):
    # f = |x|^2 / 2 with the gradient rotated: -M x still descends f, but only by steps below 1/5
    M = np.array([[1.0, 3.0], [-3.0, 1.0]])
    return 0.5 * float(x @ x), M @ x


@pytest.mark.parametrize(
    "f_g,x0,sup_tol,max_iterations,backtracks_max,search_fails",
    [
        pytest.param(*spd_quadratic(20, seed=3), 1e-8, 500, 60, False, id="converged"),
        pytest.param(rosenbrock, np.array([-1.2, 1.0, 0.5]), 0.0, 6, 60, False, id="max-iterations"),
        pytest.param(*spd_quadratic(20, seed=3), 0.0, 1000, 1, True, id="line-search-failed"),
        pytest.param(rotated_gradient, np.array([1.0, 0.0]), 0.0, 20, 2, True, id="first-line-search-failed"),
        pytest.param(rosenbrock, np.array([-1.2, 1.0, 0.5]), 1e9, 6, 60, False, id="zero-iterations"),
    ],
)
def test_info_comes_from_the_evaluation_at_the_returned_point(
    monkeypatch, f_g, x0, sup_tol, max_iterations, backtracks_max, search_fails
):
    monkeypatch.setattr(descent, "MAX_BACKTRACKS", backtracks_max)
    f_g_x, calls = recording(f_g)
    res = lbfgs_descent(f_g_x, x0, sup_tol=sup_tol, max_iterations=max_iterations, precondition=IDENTITY)
    assert res.info.tobytes() == res.x.tobytes()
    assert res.f == f_g(res.x)[0]
    assert res.evaluations == len(calls)
    # a failed last line search stops the descent early, its last evaluation at a rejected trial point
    assert (not res.converged and res.iterations < max_iterations) == search_fails
    if search_fails:
        assert calls[-1].tobytes() != res.x.tobytes()


@pytest.mark.parametrize("f_g,x0", [(rosenbrock, np.array([-1.2, 1.0, 0.5, 0.0])), (double_well, np.full(8, 0.01))])
def test_evaluations_are_the_start_the_iterations_and_the_backtracks(f_g, x0):
    f_g_x, calls = recording(f_g)
    res = lbfgs_descent(f_g_x, x0, sup_tol=1e-8, max_iterations=300, precondition=IDENTITY)
    assert res.converged and res.backtracks > 0
    assert res.evaluations == len(calls) == 1 + res.iterations + res.backtracks


def test_evaluations_count_the_steepest_descent_retry(monkeypatch):
    monkeypatch.setattr(descent, "MAX_BACKTRACKS", 5)
    f_g_x, calls = recording(rotated_gradient)
    res = lbfgs_descent(f_g_x, np.array([1.0, 0.0]), sup_tol=1e-8, max_iterations=20, precondition=IDENTITY)
    assert res.backtracks >= 5 * (res.iterations - 1)  # every quasi-Newton search after the first fails
    assert res.evaluations == len(calls) == 1 + res.iterations + res.backtracks
