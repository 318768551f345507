import numpy as np

from sigmacell.descent import lbfgs_descent


def test_steepest_descent_fallback_when_quasi_newton_search_fails():
    # The reported gradient M x is not the gradient of f = |x|^2 / 2, but -M x
    # still descends f (x . M x = |x|^2).  The quasi-Newton direction built from
    # its secant pairs does not, so its line search fails from the second
    # iteration on; without the steepest-descent retry the descent stops there.
    M = np.array([[1.0, 3.0], [-3.0, 1.0]])

    def f_g(x):
        return 0.5 * float(x @ x), M @ x

    res = lbfgs_descent(f_g, np.array([1.0, 0.0]), sup_tol=1e-8, max_iterations=20, max_backtracks=5)
    assert res.iterations == 20
    assert all(b < a for a, b in zip(res.trace, res.trace[1:]))
    assert res.f < 0.1
