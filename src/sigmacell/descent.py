"""Limited-memory quasi-Newton descent with backtracking line search.

Deterministic by construction: fixed evaluation order, no randomness,
plain numpy reductions.  Every accepted step satisfies an Armijo
decrease, so the energy trace is monotone non-increasing; termination is
on the sup-norm of the gradient.

The inverse Hessian estimate is the compact limited-memory BFGS
representation of Byrd, Nocedal & Schnabel (1994) with the fixed initial
matrix H0 that the caller passes as `precondition`, a symmetric positive
semi-definite operator (an approximate inverse Hessian):

    H = H0 + [S  H0 Y] M [S^T; Y^T H0]

with S, Y the last `memory` secant pairs and M built from the small
matrices R^-1 (R the upper triangle of S^T Y), D = diag(s_i . y_i) and
Y^T H0 Y, updated incrementally as pairs come and go.  The history
stores s_j and the rows z_j = H0 y_j = H0 g_new - H0 g, differences of
the H0 g that each iteration applies once: no H0 application per
backtrack and none per kept pair.  The first step is -H0 g.  The pairs
live in one preallocated array, which each iteration reads twice: one
matrix-vector product gives S^T g and Z^T g (Z = H0 Y), and one gives
the search direction -H0 g - S top + Z r1.  The new entries of S^T Y and
Y^T H0 Y are differences of successive S^T g and Z^T g, so no third
pass is needed.  A pair enters only later directions, so the step that
ends a descent (converged, or at `max_iterations`) stores none: a
one-step solve writes no history slot.

The line search halves the step at most MAX_BACKTRACKS times; when the
quasi-Newton direction finds no decrease, one search along -H0 g
follows before the descent stops.

`f_g(x)` returns (f, g, info), info being anything the caller wants
back from an evaluation, say the parts of f; the result carries the one
that came with the returned x, so the caller need not evaluate there
again.  Trial points are written into two reused buffers, so `f_g` must
not keep a reference to its argument after it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Tuple

import numpy as np

__all__ = ["DescentResult", "lbfgs_descent"]

ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
MAX_BACKTRACKS = 60  # step halvings per line search


@dataclass
class DescentResult:
    x: np.ndarray
    f: float
    grad_sup: float
    iterations: int
    converged: bool
    backtracks: int  # trial points the line search rejected, a failed search's included
    info: Any  # the third item f_g returned at x
    trace: list = field(default_factory=list)

    evaluations = property(lambda self: 1 + self.iterations + self.backtracks)  # f_g calls


def lbfgs_descent(
    f_g: Callable[[np.ndarray], Tuple],
    x0: np.ndarray,
    sup_tol: float,
    max_iterations: int,
    precondition: Callable[[np.ndarray], np.ndarray],
    memory: int = 10,
) -> DescentResult:
    """Minimize f from x0 until the gradient sup-norm drops below sup_tol.

    `precondition(v)` applies the initial matrix H0 and returns an array
    that later calls leave alone.  The descent keeps the last result
    alone, so one earlier H0 g is alive while the next is computed.
    """
    if memory < 1:
        raise ValueError(f"memory must be at least 1, got {memory}")
    x = np.array(x0, dtype=float)
    x_trial = np.empty_like(x)
    p = np.empty_like(x)
    # slot j holds s_j in row 2j and z_j = H0 y_j in row 2j + 1 of `flat`
    # (y_j until the next iteration applies H0); one slot more than
    # `memory` takes each new pair, so a rejected pair never overwrites a
    # kept one.  Slots never written cost no memory (calloc).
    buf = np.zeros((memory + 1, 2, x.size))
    flat = buf.reshape(2 * (memory + 1), x.size)
    kept: list = []  # slots of the kept pairs, oldest first
    spare = used = 0  # the slot the next pair goes to; slots written so far
    # R^-1, Y^T H0 Y and D indexed by slot.  Rows and columns of
    # R^-1 are 0 on slots not kept, which leaves those slots out of the
    # direction; the other two are read there only through those zeros.
    r_inv = np.zeros((memory + 1, memory + 1))
    yty = np.zeros((memory + 1, memory + 1))
    d = np.zeros(memory + 1)
    pending = None  # (slot, s.y, y.y) of a pair added last iteration, awaiting z_j and its cross products
    proj_old = np.zeros((0, 2))

    f, g, info = f_g(x)
    trace = [f]
    iterations = backtracks = 0

    def line_search(gp):
        """(f_new, g_new, info_new) at the first x_trial = x + step p, step 1, 1/2, 1/4, ..., with an Armijo
        decrease, or None."""
        nonlocal backtracks
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            np.multiply(p, step, out=x_trial)
            np.add(x_trial, x, out=x_trial)
            f_new, g_new, info_new = f_g(x_trial)
            if np.isfinite(f_new) and f_new <= f + ARMIJO * step * gp:
                return f_new, g_new, info_new
            backtracks += 1
            step *= 0.5
        return None

    sup = float(max(g.max(), -g.min())) if g.size else 0.0
    while sup > sup_tol and iterations < max_iterations:
        hg_new = precondition(g)  # H0 g
        if pending is not None:
            j, sy, _ = pending
            z = flat[2 * j + 1]  # holds y_j until now
            np.subtract(hg_new, hg, out=p)
            pending = (j, sy, float(z @ p))  # y_j . H0 y_j
            np.copyto(z, p)
        hg = hg_new
        steepest = not kept
        if kept:
            proj = (flat[: 2 * used] @ g).reshape(used, 2)  # (s_j . g, z_j . g) by slot
            if pending is not None:
                j, sy, yy = pending
                n_old = len(proj_old)
                # s_i . y_j and z_i . y_j by slot, as y_j is the change of g
                cross = proj[:n_old] - proj_old
                # the new column of R^-1 is -R^-1 (S^T y_j) / s_j . y_j
                r_inv[:, j] = r_inv[:, :n_old] @ cross[:, 0] / -sy
                r_inv[j, j] = 1.0 / sy
                yty[:n_old, j] = yty[j, :n_old] = cross[:, 1]
                yty[j, j] = yy
                d[j] = sy
                pending = None
            proj_old = proj
            sg, yg = proj.T
            r = r_inv[:used, :used]
            r1 = r @ sg
            top = r.T @ (d[:used] * r1 + (yty[:used, :used] @ r1 - yg))
            coef = np.empty((used, 2))
            coef[:, 0] = -top
            coef[:, 1] = r1
            # p = -H g = -H0 g - S top + Z r1
            np.dot(coef.reshape(-1), flat[: 2 * used], out=p)
            p -= hg
            gp = float(g @ p)
            steepest = gp >= 0.0
        if steepest:
            np.negative(hg, out=p)
            gp = float(g @ p)
        if gp == 0.0:
            break

        found = line_search(gp)
        if found is None and not steepest:
            # try -H0 g once before giving up
            np.negative(hg, out=p)
            found = line_search(float(g @ p))
        if found is None:
            break
        f_new, g_new, info_new = found
        iterations += 1
        sup_new = float(max(g_new.max(), -g_new.min())) if g_new.size else 0.0

        if sup_new > sup_tol and iterations < max_iterations:  # a pair only enters later directions
            s, y = buf[spare]
            np.subtract(x_trial, x, out=s)
            np.subtract(g_new, g, out=y)
            used = max(used, spare + 1)
            sy, yy = float(s @ y), float(y @ y)
            if sy > 1e-12 * math.sqrt(float(s @ s)) * math.sqrt(yy):
                kept.append(spare)
                if len(kept) > memory:
                    # drop the oldest pair: the trailing block of an
                    # upper-triangular inverse is the inverse of the trailing block
                    spare = kept.pop(0)
                    r_inv[spare] = r_inv[:, spare] = 0.0
                else:
                    spare += 1
                pending = (kept[-1], sy, yy)
            elif not math.isfinite(sy):
                buf[spare] = 0.0  # enters the direction product with coefficient 0, and 0 * inf is NaN

        x, x_trial = x_trial, x
        f, g, info, sup = f_new, g_new, info_new, sup_new
        trace.append(f)

    return DescentResult(x, f, sup, iterations, sup <= sup_tol, backtracks, info, trace)
