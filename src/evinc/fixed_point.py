"""The one fixed-point iteration behind every inner solve.

``fixed_point(G, x0, tol, max_iter)`` iterates a map ``G(x) -> (Gx, out)``
until the plain-map residual ``|G(x) - x|`` is at most ``tol``. Iterates are
mixed by type-II Anderson acceleration over the last ``MEMORY`` steps
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011). The maps here are nonsmooth
(projections, soft thresholds), so a mixed candidate is kept only if its
residual is below the current one; otherwise the memory is cleared and the
plain step is taken (Zhang, O'Donoghue & Boyd, SIAM J. Optim. 30, 2020).
The accepted residual therefore never rises for a nonexpansive map, as every
map iterated here is, so an accepted residual above ten times the first one,
``|G(x0) - x0|``, marks a map that is not and stops the run as diverging.
Mixing starts once two residuals exist, so a solve that stops after one or
two evaluations takes exactly the plain steps. Deterministic throughout.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["fixed_point", "CONVERGED", "BUDGET", "DIVERGING", "STALLED", "NONFINITE"]

CONVERGED = "converged"
BUDGET = "budget"
DIVERGING = "diverging"
STALLED = "stalled"
NONFINITE = "nonfinite"

MEMORY = 5
PATIENCE = 100  # evaluations without a new least residual before the stall exit
RIDGE = 1e-12  # Tikhonov term of the mixing's normal equations, relative to their trace


def _mix(gx, r, dgs, drs):
    """Type-II Anderson point G(x) - dG g, g = argmin |r - dR g| by normal equations.

    dG and dR hold differences of successive map values and residuals.
    """
    dR = np.array(drs)
    gram = dR @ dR.T
    gram.flat[:: len(drs) + 1] += RIDGE * gram.trace() + 1e-300
    g = np.linalg.solve(gram, dR @ r)
    return gx - g @ np.array(dgs)


def fixed_point(G, x0, tol, max_iter):
    """Iterate ``G`` from ``x0``; returns ``(out, iterations, residual, reason)``.

    ``out`` and ``residual`` belong to the last accepted evaluation of ``G``
    and an iteration is one evaluation. ``reason`` is ``CONVERGED``,
    ``BUDGET`` (``max_iter`` evaluations done), ``DIVERGING`` (the accepted
    residual is more than tenfold the first one), ``STALLED`` (no
    evaluation in the last ``PATIENCE`` gave a residual below the least one
    before them, as when ``tol`` is below what rounding lets the map reach)
    or ``NONFINITE`` (an evaluation gave a non-finite residual; ``out`` and
    ``residual`` are then that evaluation's).
    """
    gx, out = G(x0)
    r = gx - x0
    res = math.sqrt(r @ r)
    it = 1
    if not math.isfinite(res):
        return out, it, res, NONFINITE
    first = res
    best, best_it = res, it
    prev = None  # (G(x), r) before the last accepted step, once two residuals exist
    dgs, drs = [], []
    while res > tol:
        if it >= max_iter:
            return out, it, res, BUDGET
        mixed = prev is not None
        if mixed:
            dgs.append(gx - prev[0])
            drs.append(r - prev[1])
            if len(dgs) > MEMORY:
                del dgs[0], drs[0]
            x_new = _mix(gx, r, dgs, drs)
        else:
            x_new = gx
        g_new, out_new = G(x_new)
        r_new = g_new - x_new
        res_new = math.sqrt(r_new @ r_new)
        it += 1
        if not math.isfinite(res_new):
            return out_new, it, res_new, NONFINITE
        if res_new < best:
            best, best_it = res_new, it
        if mixed and not res_new < res:
            # safeguard: drop the candidate, restart from the plain step
            dgs.clear()
            drs.clear()
            prev = None
        else:
            prev = (gx, r)
            gx, r, res, out = g_new, r_new, res_new, out_new
        if res > 10.0 * first:
            return out, it, res, DIVERGING
        if it - best_it >= PATIENCE:
            return out, it, res, STALLED
    return out, it, res, CONVERGED

