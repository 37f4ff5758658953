"""Discrete causal time calculus: backward difference, its inverse and adjoint.

The derivative stencil is the causal backward difference with an implicit zero
past: (Du)_k = (u_k - u_{k-1})/dt with u_{-1} = 0. The boundary row k=0 treats
the zero past as data, so a constant signal picks up the jump c/dt at k=0 —
documented behaviour, not special-cased away. The weight rho never enters the
stencils; it only enters norms and admission checks, which is what makes
solver output independent of rho on the grid.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, UnsupportedRegime
from .signals import TimeGrid, WeightedSignal

__all__ = [
    "derivative",
    "integrate",
    "translate",
    "difference_quotient",
    "integrate_operator_norm",
    "adjoint_defect",
]


def derivative(u: WeightedSignal) -> WeightedSignal:
    """Causal backward difference; output at k depends on nodes j <= k only."""
    d = np.diff(u.values, axis=0, prepend=np.zeros((1, u.dim))) / u.grid.dt
    return u.with_values(d)


def integrate(f: WeightedSignal) -> WeightedSignal:
    """Causal cumulative sum dt * sum_{j<=k} f_j; inverse of the derivative.

    Only the forward-causal branch (rho > 0) is implemented.
    """
    if not f.rho > 0:
        raise UnsupportedRegime("anticausal integration (rho <= 0) not implemented")
    vals = np.cumsum(f.grid.dt * f.values, axis=0)
    return f.with_values(vals)


def translate(u: WeightedSignal, h_steps: int) -> WeightedSignal:
    """Shift by h_steps nodes, zero-filled: positive h pulls future values earlier."""
    n = u.grid.n
    out = np.zeros_like(u.values)
    if h_steps == 0:
        out = u.values.copy()
    elif h_steps > 0:
        if h_steps < n:
            out[: n - h_steps] = u.values[h_steps:]
    else:
        k = -h_steps
        if k < n:
            out[k:] = u.values[: n - k]
    return u.with_values(out)


def difference_quotient(u: WeightedSignal, h_steps: int) -> WeightedSignal:
    """(translate(u, h) - u) / (h*dt); converges to the derivative on C^1 samples."""
    if h_steps <= 0:
        raise ContractViolation("h_steps must be a positive integer")
    shifted = translate(u, h_steps)
    return u.with_values((shifted.values - u.values) / (h_steps * u.grid.dt))


def _power_norm(matvec, rmatvec, n, iters=5000, tol=1e-13, seed=7):
    """Largest singular value via power iteration on the normal operator."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    lam = 0.0
    for it in range(iters):
        z = rmatvec(matvec(x))
        lam_new = float(np.linalg.norm(z))
        if lam_new == 0.0:
            return 0.0
        x = z / lam_new
        if it > 20 and abs(lam_new - lam) < tol * lam_new:
            return float(np.sqrt(lam_new))
        lam = lam_new
    return float(np.sqrt(lam))


def integrate_operator_norm(grid: TimeGrid, rho: float) -> float:
    """Operator norm of the causal integral in the rho-weighted metric.

    Computed by power iteration on the weighted normal operator; the matvecs
    run through cumulative sums so no n-by-n matrix is formed. The continuum
    value on the whole half-line is 1/rho. On the grid's window of horizon T
    the value approximated is the smaller sigma_T = (rho^2 + k^2)^{-1/2}, with
    k the least positive root of rho*sin(k*T) + k*cos(k*T) = 0; sigma_T tends
    to 1/rho as rho*T grows (0.961381 at rho = 1, T = 10). The rectangle rule
    biases the result upward by about dt/2.
    """
    if not rho > 0:
        raise UnsupportedRegime("rho must be positive")
    dt = grid.dt
    sw = np.exp(-rho * grid.times) * np.sqrt(dt)

    def matvec(x):
        # W^{1/2} J W^{-1/2}
        return sw * (dt * np.cumsum(x / sw))

    def rmatvec(y):
        # transpose of the above: reversed cumulative sum
        return (dt * np.cumsum((sw * y)[::-1])[::-1]) / sw

    return _power_norm(matvec, rmatvec, grid.n)


def adjoint_defect(grid: TimeGrid, rho: float) -> float:
    """Distance of the weighted adjoint of D from its anticausal mirror stencil.

    The adjoint of the backward difference with respect to the weighted inner
    product is computed matrix-free, then compared on interior nodes with
    -(forward difference) + 2*rho*(shift to the next node) — the discrete
    mirror of "minus derivative plus 2 rho". The defect is exactly zero at
    rho=0 and grows like 2*rho^2*dt, a discretization self-check.
    """
    dt = grid.dt
    n = grid.n
    w = np.exp(-2.0 * rho * grid.times) * dt
    decay = np.exp(-2.0 * rho * dt)

    def dstar(v):
        # (D* v)_j = (v_j - e^{-2 rho dt} v_{j+1})/dt, from W^{-1} D^T W
        out = v.copy()
        out[:-1] -= decay * v[1:]
        return out / dt

    def mirror(v):
        # -(forward difference) + 2 rho shifted identity
        out = v.copy()
        out[:-1] -= v[1:]
        out /= dt
        shifted = np.zeros_like(v)
        shifted[:-1] = v[1:]
        return out + 2.0 * rho * shifted

    sw = np.sqrt(w)

    def embed(x):
        v = np.zeros(n)
        v[1:-1] = x
        return v

    def matvec(x):
        v = embed(x / sw[1:-1])
        return (sw * (dstar(v) - mirror(v)))[1:-1]

    def rmatvec(y):
        # adjoint of matvec: the two stencils transposed mechanically
        v = embed(sw[1:-1] * y)
        dstar_t = v.copy()
        dstar_t[1:] -= decay * v[:-1]
        dstar_t /= dt
        mirror_t = v.copy()
        mirror_t[1:] -= v[:-1]
        mirror_t /= dt
        mirror_t[1:] += 2.0 * rho * v[:-1]
        return ((dstar_t - mirror_t) / sw)[1:-1]

    return _power_norm(matvec, rmatvec, n - 2)
