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

The one-member step pays numpy's dispatch more than arithmetic, so it keeps
the dispatch small and the bits those of the plain formula. The history
lives in one ``(MEMORY, dim)`` pair of arrays, allocated when the kernel
first mixes and shifted up in place once full, so its k latest differences
are a C-contiguous ``(k, dim)`` block: the layout ``np.array`` of a list
gives, which takes the same BLAS calls. The Gram system goes straight to
``_umath_linalg.solve1``, the LAPACK gufunc that ``np.linalg.solve`` calls,
and the ridge's trace is the diagonal's sum as a list, in the order
``trace()`` sums it; the tests pin both against the wrapped forms.

``fixed_point_stack(G, X0, tol, max_iter)`` runs the same iteration on each
row of ``X0`` at once: the arithmetic is stacked, the bookkeeping stays per
row, and each row gets bit for bit what ``fixed_point`` gives it alone. Two
numpy facts carry that, and the tests pin both: a stacked matmul gives each
slice the bits of the per-vector product, so every dot product here is
written as one (``sq_norms``; ``einsum`` and ``(R*R).sum(1)`` differ in the
last bit), and a stacked solve (``_umath_linalg.solve``) with a
``(rows, k, 1)`` right-hand side solves each slice as the vector solve does.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

_solve1 = _umath_linalg.solve1  # a (k, k) system, one right-hand side (k,)
_solve = _umath_linalg.solve  # a stack of (k, k) systems, right-hand sides (..., k, 1)

__all__ = [
    "fixed_point",
    "fixed_point_stack",
    "sq_norms",
    "CONVERGED",
    "BUDGET",
    "DIVERGING",
    "STALLED",
    "NONFINITE",
]

CONVERGED = "converged"
BUDGET = "budget"
DIVERGING = "diverging"
STALLED = "stalled"
NONFINITE = "nonfinite"

MEMORY = 5
PATIENCE = 100  # evaluations without a new least residual before the stall exit
RIDGE = 1e-12  # Tikhonov term of the mixing's normal equations, relative to their trace


def _mix(gx, r, dG, dR):
    """Type-II Anderson point G(x) - dG g, g = argmin |r - dR g| by normal equations.

    dG and dR hold the k latest differences of successive map values and
    residuals, as ``(k, dim)`` arrays or as lists of k vectors.
    """
    dR = np.asarray(dR)
    gram = dR @ dR.T
    # the diagonal's sum in the order of gram.trace(), without its dispatch
    gram.ravel()[:: len(dR) + 1] += RIDGE * sum(gram.diagonal().tolist()) + 1e-300
    # the LAPACK gufunc behind np.linalg.solve, without the wrapper's checks:
    # the diagonal above is positive and the kernel exits on any non-finite
    # residual before mixing, so no pivot is zero; coefficients that still
    # came out NaN would give a non-finite next residual, the NONFINITE exit
    g = _solve1(gram, dR @ r)
    return gx - g @ np.asarray(dG)


def _mix_stack(gx, r, dg, dr):
    """``_mix`` of each row: dg and dr are ``(rows, k, dim)`` stacks of one history length k."""
    gram = dr @ dr.mT
    k = dr.shape[1]
    diag = np.arange(k)
    gram[:, diag, diag] += (RIDGE * np.trace(gram, axis1=1, axis2=2) + 1e-300)[:, None]
    g = _solve(gram, dr @ r[:, :, None])
    return gx - (g.mT @ dg)[:, 0]


def sq_norms(x):
    """``x @ x`` of each vector over the last axis of ``x``, as a stacked matmul."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


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
    # the history: its k latest differences are rows :k of dG and dR, oldest first
    dG = dR = None
    k = 0
    while res > tol:
        if it >= max_iter:
            return out, it, res, BUDGET
        mixed = prev is not None
        if mixed:
            if dG is None:
                dG = np.empty((MEMORY,) + gx.shape)
                dR = np.empty_like(dG)
            if k == MEMORY:
                dG[:-1] = dG[1:]
                dR[:-1] = dR[1:]
            else:
                k += 1
            np.subtract(gx, prev[0], out=dG[k - 1])
            np.subtract(r, prev[1], out=dR[k - 1])
            x_new = _mix(gx, r, dG[:k], dR[:k])
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
            k = 0
            prev = None
        else:
            prev = (gx, r)
            gx, r, res, out = g_new, r_new, res_new, out_new
        if res > 10.0 * first:
            return out, it, res, DIVERGING
        if it - best_it >= PATIENCE:
            return out, it, res, STALLED
    return out, it, res, CONVERGED


def fixed_point_stack(G, X0, tol, max_iter):
    """``fixed_point`` on each row of ``X0``; returns ``(out, iterations, residuals, reasons)``.

    ``G(X, rows)`` evaluates the maps of the rows ``rows`` (indices into
    ``X0``) at the stack ``X`` and returns ``(GX, OUT)``; ``rows`` is one
    array object from call to call until a row exits, so ``G`` may select
    its rows' parameters once per object. A row leaves the
    stack at its own exit; ``out`` holds each row's output and the three
    lists its iterations, residual and reason, all as ``fixed_point`` gives
    them for that row alone.
    """
    size = len(X0)
    out = np.empty_like(X0)
    its, resids, reasons = [1] * size, [0.0] * size, [None] * size
    ids = np.arange(size)
    gx, o = G(X0, ids)
    r = gx - X0
    res = np.sqrt(sq_norms(r)).tolist()
    it = 1
    first, best = list(res), list(res)
    best_it = [it] * size
    # per live row: a previous accepted step exists, and the history length
    has_prev = [False] * size
    count = [0] * size
    pgx = pr = dgs = drs = None
    exits = [(NONFINITE if not math.isfinite(v) else CONVERGED if v <= tol else None) for v in res]
    while True:
        if it >= max_iter:
            exits = [e or BUDGET for e in exits]
        gone = [j for j, e in enumerate(exits) if e is not None]
        for j in gone:
            i = ids[j]
            out[i], its[i], resids[i], reasons[i] = o[j], it, res[j], exits[j]
        if gone:
            if len(gone) == len(ids):
                return out, its, resids, reasons
            keep = [j for j, e in enumerate(exits) if e is None]
            ids, gx, r, o = ids[keep], gx[keep], r[keep], o[keep]
            res, first, best, best_it, has_prev, count = (
                [v[j] for j in keep] for v in (res, first, best, best_it, has_prev, count)
            )
            if pgx is not None:
                pgx, pr = pgx[keep], pr[keep]
            if dgs is not None:
                dgs, drs = dgs[keep], drs[keep]
        # the history takes the last accepted step of each row that has one
        mixed = [j for j, p in enumerate(has_prev) if p]
        x = gx
        if mixed:
            if dgs is None:
                dgs = np.empty((len(ids), MEMORY) + gx.shape[1:])
                drs = np.empty_like(dgs)
            full = [j for j in mixed if count[j] == MEMORY]
            if full:
                dgs[full, :-1] = dgs[full, 1:]
                drs[full, :-1] = drs[full, 1:]
            at = [min(count[j], MEMORY - 1) for j in mixed]
            dgs[mixed, at] = gx[mixed] - pgx[mixed]
            drs[mixed, at] = r[mixed] - pr[mixed]
            for j in mixed:
                count[j] = min(count[j] + 1, MEMORY)
            x = gx.copy()
            for k in {count[j] for j in mixed}:
                rows = [j for j in mixed if count[j] == k]
                x[rows] = _mix_stack(gx[rows], r[rows], dgs[rows, :k], drs[rows, :k])
        g_new, o_new = G(x, ids)
        r_new = g_new - x
        res_new = np.sqrt(sq_norms(r_new)).tolist()
        it += 1
        accepted = []
        exits = [None] * len(ids)
        for j, v in enumerate(res_new):
            if not math.isfinite(v):
                # leaves with this evaluation's output and residual
                exits[j] = NONFINITE
                accepted.append(j)
                res[j] = v
                continue
            if v < best[j]:
                best[j], best_it[j] = v, it
            if has_prev[j] and not v < res[j]:
                # safeguard: drop the candidate, restart from the plain step
                has_prev[j] = False
                count[j] = 0
            else:
                accepted.append(j)
                has_prev[j] = True
                res[j] = v
            if res[j] > 10.0 * first[j]:
                exits[j] = DIVERGING
            elif it - best_it[j] >= PATIENCE:
                exits[j] = STALLED
            elif res[j] <= tol:
                exits[j] = CONVERGED
        # a refused row takes a plain step next, so its previous step is never read
        pgx, pr = gx, r
        if len(accepted) == len(ids):
            gx, r, o = g_new, r_new, o_new
        elif accepted:
            gx, r, o = gx.copy(), r.copy(), o.copy()
            gx[accepted], r[accepted] = g_new[accepted], r_new[accepted]
            o[accepted] = o_new[accepted]
