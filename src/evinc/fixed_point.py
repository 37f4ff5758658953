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

Both kernels take an optional candidate hook ``newton(g, r) -> x'``, a
semismooth Newton step on ``x - G(x)`` from the last accepted evaluation
``g = G(x)`` and its residual ``r`` (SuperMann: Themelis & Patrinos, SIAM J.
Optim. 29, 2019). A run tries it from its first step on, and the safeguard
judges it as it judges a mixed point; after its first refusal the run takes
the plain step and mixes with Anderson for the rest of the call. A Newton
solve is not an evaluation, so it never counts against the budget.

Both kernels keep their history in one layout: a pair of arrays with
``2 * MEMORY`` entries of ``dim`` (per row of the stack in
``fixed_point_stack``), allocated when the kernel first mixes. Each mixing
step writes its new differences at one entry ``pos``, so the k latest
differences are entries ``pos + 1 - k .. pos``, a C-contiguous ``(k, dim)``
block: the layout ``np.array`` of a list gives, which takes the same BLAS
calls. Only once the entries are used up do the latest ``MEMORY - 1`` move
to the start, one copy every ``MEMORY + 1`` mixing steps. The one-member
step pays numpy's dispatch more than arithmetic, so it keeps the dispatch
small and the bits those of the plain formula: the Gram system goes
straight to ``_umath_linalg.solve1``, the LAPACK gufunc that
``np.linalg.solve`` calls, and the ridge's trace is the list sum of the
strided diagonal view it writes, in the order ``trace()`` sums it; the
tests pin both against the wrapped forms.

``fixed_point_stack(G, X0, tol, max_iter)`` runs the same iteration on each
row of ``X0`` at once, with a map of the same signature ``G(X) -> (GX, OUT)``
on the whole stack: the arithmetic is stacked, the bookkeeping stays per
row, and each row gets bit for bit what ``fixed_point`` gives it alone.
Rows never leave the stack: a row that has exited is evaluated at its start
``X0[j]`` from then on, a replay of its first evaluation that raises no new
warning or failure in a stateless map, and its results are ignored. Two
numpy facts carry that, and the tests pin both: a stacked matmul gives each
slice the bits of the per-vector product, so every dot product here is
written as one (``sq_norms``; ``einsum`` and ``(R*R).sum(1)`` differ in the
last bit), and a stacked solve (``_umath_linalg.solve``) with a
``(rows, k, 1)`` right-hand side solves each slice as the vector solve does.
Both facts hold whatever else is in the stack, so the kernel writes and
mixes the history on basic slices of the whole stack, once per history
length present, and each row takes the mix of its own length. An exited
row holds its start and a zero residual there, so its exit values and
replays, which may be non-finite, never reach that arithmetic.
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

    dG and dR are ``(k, dim)`` arrays of the k latest differences of
    successive map values and residuals.
    """
    gram = dR @ dR.T
    # a strided view of the fresh Gram matrix's diagonal; its list sum is
    # gram.trace() in trace()'s order, without its dispatch
    diag = gram.ravel()[:: len(dR) + 1]
    diag += RIDGE * sum(diag.tolist()) + 1e-300
    # the LAPACK gufunc behind np.linalg.solve, without the wrapper's checks:
    # the diagonal above is positive and the kernel exits on any non-finite
    # residual before mixing, so no pivot is zero; coefficients that still
    # came out NaN would give a non-finite next residual, the NONFINITE exit
    g = _solve1(gram, dR @ r)
    return gx - g @ dG


def _mix_stack(gx, r, dg, dr):
    """``_mix`` of each row: dg and dr are ``(rows, k, dim)`` stacks of one history length k."""
    gram = dr @ dr.mT
    k = dr.shape[1]
    # a strided view of each fresh Gram matrix's diagonal, summed in the order of trace()
    diag = gram.reshape(len(gram), k * k)[:, :: k + 1]
    diag += RIDGE * np.add.reduce(diag, axis=1, keepdims=True) + 1e-300
    g = _solve(gram, dr @ r[:, :, None])
    return gx - (g.mT @ dg)[:, 0]


def sq_norms(x):
    """``x @ x`` of each vector over the last axis of ``x``, as a stacked matmul."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def fixed_point(G, x0, tol, max_iter, newton=None):
    """Iterate ``G`` from ``x0``; returns ``(out, iterations, residual, reason)``.

    ``out`` and ``residual`` belong to the last accepted evaluation of ``G``
    and an iteration is one evaluation. ``reason`` is ``CONVERGED``,
    ``BUDGET`` (``max_iter`` evaluations done), ``DIVERGING`` (the accepted
    residual is more than tenfold the first one), ``STALLED`` (no
    evaluation in the last ``PATIENCE`` gave a residual below the least one
    before them, as when ``tol`` is below what rounding lets the map reach)
    or ``NONFINITE`` (an evaluation gave a non-finite residual; ``out`` and
    ``residual`` are then that evaluation's).

    ``newton(g, r) -> x'``, if given, proposes the next point from the last
    accepted evaluation ``g = G(x)`` and its residual ``r = g - x``, from
    the first step on (``g - r`` is ``x`` up to rounding). The safeguard
    judges it as a mixed point: it is kept only if its residual falls. A
    candidate whose squared norm is not finite is refused before ``G`` sees
    it, and a refused candidate, evaluated or not, is never the
    ``NONFINITE`` exit. After its first refusal the run takes no more
    candidates and goes on as a run without them would from its current
    point, with the plain step and then Anderson mixing.
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
    # the history: its k latest differences are entries pos + 1 - k .. pos
    # of dG and dR, oldest first
    dG = dR = None
    pos = -1
    k = 0
    while res > tol:
        if it >= max_iter:
            return out, it, res, BUDGET
        tried = False
        if newton is not None:
            x_new = newton(gx, r)
            tried = math.isfinite(x_new @ x_new)
            if not tried:  # refused unevaluated
                newton = None
        mixed = prev is not None and not tried
        if mixed:
            if dG is None:
                dG = np.empty((2 * MEMORY,) + gx.shape)
                dR = np.empty_like(dG)
            pos += 1
            if pos == 2 * MEMORY:
                # the buffer is used up: its latest entries move to its start
                dG[: MEMORY - 1] = dG[MEMORY + 1 :]
                dR[: MEMORY - 1] = dR[MEMORY + 1 :]
                pos = MEMORY - 1
            if k < MEMORY:
                k += 1
            np.subtract(gx, prev[0], out=dG[pos])
            np.subtract(r, prev[1], out=dR[pos])
            window = slice(pos + 1 - k, pos + 1)
            x_new = _mix(gx, r, dG[window], dR[window])
        elif not tried:
            x_new = gx
        g_new, out_new = G(x_new)
        r_new = g_new - x_new
        res_new = math.sqrt(r_new @ r_new)
        it += 1
        if not (tried or math.isfinite(res_new)):
            return out_new, it, res_new, NONFINITE
        if res_new < best:
            best, best_it = res_new, it
        if (mixed or tried) and not res_new < res:
            # safeguard: drop the candidate, restart from the plain step
            k = 0
            prev = newton = None
        else:
            # a run on candidates keeps no history: it restarts from the plain step
            prev = None if tried else (gx, r)
            gx, r, res, out = g_new, r_new, res_new, out_new
        if res > 10.0 * first:
            return out, it, res, DIVERGING
        if it - best_it >= PATIENCE:
            return out, it, res, STALLED
    return out, it, res, CONVERGED


def fixed_point_stack(G, X0, tol, max_iter, newton=None):
    """``fixed_point`` on each row of ``X0``; returns ``(out, iterations, residuals, reasons)``.

    ``G(X) -> (GX, OUT)`` evaluates every row's map at the stack ``X``, as
    ``fixed_point``'s map does one vector. Rows keep their place until the
    call returns: a row's output, iterations, residual and reason are
    recorded at its own exit, as ``fixed_point`` gives them for that row
    alone, and from then on the row is evaluated at its start ``X0[j]``, a
    replay of its first evaluation, whose results are ignored. When every
    row exits at one evaluation, ``out`` is that evaluation's ``OUT``, as
    ``fixed_point`` returns its map's output.

    An evaluation whose residuals sum to at most ``tol`` ends the call
    without the per-row pass: every live row converges there, with that
    evaluation's output and residual. The pass would record the same: a
    live row's accepted and least residuals are above ``tol``, so the
    safeguard keeps its step, which neither diverges nor stalls. The
    residuals are not negative, so the sum is at most ``tol`` only if each
    is; a NaN or inf residual, or an exited row replayed off its fixed
    point, fails the sum and leaves the evaluation to the pass.

    Every row's history lives in one ``(rows, 2 * MEMORY, dim)`` pair of
    arrays in ``fixed_point``'s layout: each mixing iteration writes the
    new differences of all rows at one entry ``pos``, so a row's k latest
    differences are entries ``pos + 1 - k .. pos``. Each mixing
    iteration mixes the whole stack on basic slices once per history length
    present; a row takes the mix of its own length, and a row refused by
    the safeguard (or not mixing yet) its plain step. Once an exited row's
    results are recorded, the kernel overwrites that row of every later
    ``GX`` and residual with its start and zero; ``GX`` is the array the
    map returned, which the map must not keep. The row's differences are
    then zero and its mix is its start, which is reset bit for bit before
    the map gets it.

    ``newton(GX, R) -> X'``, if given, proposes candidates on the whole
    stack, as ``fixed_point``'s does for one vector: ``GX`` and ``R`` hold
    each row's last accepted evaluation and residual, and each row takes or
    refuses its own candidate as ``fixed_point`` does, so it must give each
    row the bits it gives that row alone. An exited row appears with its
    start and a zero residual, and its candidate is ignored.
    """
    size = len(X0)
    if not size:
        return np.empty_like(X0), [], [], []
    gx, o = G(X0)
    r = gx - X0
    res = np.sqrt(sq_norms(r)).tolist()
    it = 1
    first, best = list(res), list(res)
    best_it = [it] * size
    # per row: still taking candidates
    on = [newton is not None] * size
    # per row: a previous accepted step exists, and the history length
    has_prev = [False] * size
    count = [0] * size
    # the history of every row: its k latest differences are entries
    # pos + 1 - k .. pos of dgs and drs, oldest first
    pgx = pr = dgs = drs = None
    pos = -1
    live = list(range(size))
    # once a row has exited: the outputs, and a column that is True on exited rows
    out = exited = None
    # the rows that exit at this evaluation, with their reasons
    exits = {j: NONFINITE if not math.isfinite(v) else CONVERGED
             for j, v in enumerate(res) if not math.isfinite(v) or v <= tol}
    while True:
        if it >= max_iter:
            exits = {j: exits.get(j, BUDGET) for j in live}
        if exits:
            if len(exits) == size:  # every row leaves now, none before: exits is in row order
                return o, [it] * size, res, list(exits.values())
            if out is None:
                out = np.empty_like(X0)
                its, resids, reasons = [1] * size, [0.0] * size, [None] * size
                exited = np.zeros((size, 1), dtype=bool)
            for j, e in exits.items():
                out[j], its[j], resids[j], reasons[j] = o[j], it, res[j], e
                exited[j] = True
            live = [j for j in live if j not in exits]
            if not live:
                return out, its, resids, reasons
        if exited is not None:
            # an exited row holds its start and a zero residual, so neither its
            # exit values nor its replays reach the history or the mix
            np.copyto(gx, X0, where=exited)
            np.copyto(r, 0.0, where=exited)
        # the history takes the last accepted step of each row that has one
        mixed = [j for j in live if has_prev[j]]
        if mixed:
            if dgs is None:
                # every entry a window reads is written first, for every row
                dgs = np.empty((size, 2 * MEMORY) + gx.shape[1:])
                drs = np.empty_like(dgs)
            pos += 1
            if pos == 2 * MEMORY:
                # the buffer is used up: its latest entries move to its start
                dgs[:, : MEMORY - 1] = dgs[:, MEMORY + 1 :]
                drs[:, : MEMORY - 1] = drs[:, MEMORY + 1 :]
                pos = MEMORY - 1
            np.subtract(gx, pgx, out=dgs[:, pos])
            np.subtract(r, pr, out=drs[:, pos])
            for j in mixed:
                if count[j] < MEMORY:
                    count[j] += 1
            lengths = {count[j] for j in mixed}
            x = gx
            # one mix of the whole stack per history length; a row takes its own
            # length's, and a row not mixing (refused, or new) its plain step
            for k in lengths:
                window = slice(pos + 1 - k, pos + 1)
                mix = _mix_stack(gx, r, dgs[:, window], drs[:, window])
                if len(lengths) == 1 and len(mixed) == len(live):
                    x = mix
                else:
                    rows = [j for j in mixed if count[j] == k]
                    if x is gx:
                        x = gx.copy()
                    x[rows] = mix[rows]
            if exited is not None:
                np.copyto(x, X0, where=exited)
        else:
            x = gx
        trying = ()
        if newton is not None:
            rows = [j for j in live if on[j]]
            if rows:
                cand = newton(gx, r)
                # a row whose candidate is not finite is refused unevaluated and takes its plain step
                finite = sq_norms(cand).tolist()
                for j in rows:
                    on[j] = math.isfinite(finite[j])
                trying = [j for j in rows if on[j]]
                if len(trying) == size:
                    x = cand
                elif trying:
                    if x is gx:
                        x = gx.copy()
                    x[trying] = cand[trying]
                trying = set(trying)
        g_new, o_new = G(x)
        r_new = g_new - x
        res_new = np.sqrt(sq_norms(r_new)).tolist()
        it += 1
        if sum(res_new) <= tol:
            # every live row converges here, as the pass below would find
            if exited is None:
                return o_new, [it] * size, res_new, [CONVERGED] * size
            for j in live:
                out[j], its[j], resids[j], reasons[j] = o_new[j], it, res_new[j], CONVERGED
            return out, its, resids, reasons
        accepted = []
        exits = {}
        for j in live:
            v = res_new[j]
            tried = j in trying
            if not (tried or math.isfinite(v)):
                # leaves with this evaluation's output and residual
                exits[j] = NONFINITE
                accepted.append(j)
                res[j] = v
                continue
            if v < best[j]:
                best[j], best_it[j] = v, it
            if (has_prev[j] or tried) and not v < res[j]:
                # safeguard: drop the candidate, restart from the plain step
                has_prev[j] = on[j] = False
                count[j] = 0
            else:
                accepted.append(j)
                # a row on candidates keeps no history: it restarts from the plain step
                has_prev[j] = not tried
                res[j] = v
            if res[j] > 10.0 * first[j]:
                exits[j] = DIVERGING
            elif it - best_it[j] >= PATIENCE:
                exits[j] = STALLED
            elif res[j] <= tol:
                exits[j] = CONVERGED
        # a refused row takes a plain step next, so its previous step is never read;
        # an exited row's entries are never read
        pgx, pr = gx, r
        if len(accepted) == len(live):
            gx, r, o = g_new, r_new, o_new
        elif accepted:
            gx, r, o = gx.copy(), r.copy(), o.copy()
            gx[accepted], r[accepted] = g_new[accepted], r_new[accepted]
            o[accepted] = o_new[accepted]
