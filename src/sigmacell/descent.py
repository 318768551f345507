"""Limited-memory quasi-Newton descent with backtracking line search.

Deterministic by construction: fixed evaluation order, no randomness,
plain numpy reductions.  Every accepted step satisfies an Armijo
decrease, so the energy trace is monotone non-increasing; termination is
on the sup-norm of the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

__all__ = ["DescentResult", "lbfgs_descent"]


@dataclass
class DescentResult:
    x: np.ndarray
    f: float
    grad_sup: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def lbfgs_descent(
    f_g: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    sup_tol: float,
    max_iterations: int,
    memory: int = 10,
    armijo: float = 1e-4,
    max_backtracks: int = 60,
    record_trace: bool = True,
) -> DescentResult:
    """Minimize f from x0 until the gradient sup-norm drops below sup_tol."""
    x = np.asarray(x0, dtype=float).copy()
    f, g = f_g(x)
    trace = [f] if record_trace else []
    s_list: list = []
    y_list: list = []
    rho_list: list = []
    iterations = 0

    def line_search(p, gp):
        """(x_new, f_new, g_new) at the first step 1, 1/2, 1/4, ... along p with an Armijo decrease, or None."""
        step = 1.0
        for _ in range(max_backtracks):
            x_new = x + step * p
            f_new, g_new = f_g(x_new)
            if np.isfinite(f_new) and f_new <= f + armijo * step * gp:
                return x_new, f_new, g_new
            step *= 0.5
        return None

    sup = float(np.abs(g).max()) if g.size else 0.0
    while sup > sup_tol and iterations < max_iterations:
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if y_list:
            gamma = float(s_list[-1] @ y_list[-1]) / float(y_list[-1] @ y_list[-1])
            q *= gamma
        for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        p = -q
        gp = float(g @ p)
        if gp >= 0.0:
            p = -g
            gp = float(g @ p)
        if gp == 0.0:
            break

        found = line_search(p, gp)
        if found is None and not np.array_equal(p, -g):
            # try plain steepest descent once before giving up
            p = -g
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
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if record_trace:
            trace.append(f)
        sup = float(np.abs(g).max()) if g.size else 0.0

    return DescentResult(x, f, sup, iterations, sup <= sup_tol, trace)
