"""Output checks computed apart from evinc.

The recurrences and norms here are written from the method's definition, not
from the package: a scalar implicit-Euler march, a soft-threshold march and
the exponentially weighted norm. The slab check evaluates the natural
residual of the stepped inclusion with ``materials.step_operator`` and the
tail's public ``resolve``; it never runs a step engine.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

FP_TOL = 1e-10
#: scalar recurrences must match to this (the oracle gate of the harness)
RECURRENCE_TOL = 10.0 * FP_TOL
#: natural residual, scaled by 1 + |S_k + K|_2, must stay below this
RESIDUAL_TOL = 10.0 * FP_TOL


def weighted_norm(values, t0, dt, rho):
    """sqrt(sum_k |v_k|^2 exp(-2 rho t_k) dt) over rows of ``values``."""
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    times = t0 + dt * np.arange(len(values))
    weights = np.exp(-2.0 * rho * times) * dt
    return float(np.sqrt(np.sum(np.sum(values * values, axis=1) * weights)))


def unit_forcing(rng, n, dim, t0, dt, rho):
    """Standard normal node values scaled to unit weighted norm."""
    values = rng.standard_normal((n, dim))
    return values / weighted_norm(values, t0, dt, rho)


def implicit_euler(f, dt):
    """u_k = (u_{k-1} + dt f_k) / (1 + dt): du/dt + u = f from a zero past."""
    out = np.empty(len(f))
    u = 0.0
    for k, f_k in enumerate(np.ravel(f)):
        u = (u + dt * f_k) / (1.0 + dt)
        out[k] = u
    return out


def soft_threshold_march(f, dt, weight=1.0):
    """u_k = soft_{dt*weight}(u_{k-1} + dt f_k): du/dt + weight*sign(u) ∋ f."""
    out = np.empty(len(f))
    u = 0.0
    for k, f_k in enumerate(np.ravel(f)):
        y = u + dt * f_k
        u = float(np.sign(y)) * max(abs(y) - dt * weight, 0.0)
        out[k] = u
    return out


def natural_residual(family, relation, forcing, u, t0, dt, step_operator):
    """max_k |u_k - J_tail,1(u_k + b_k - (S_k + K) u_k)| / (1 + |S_k + K|_2).

    b_k = f_k + M0(t_{k-1}) u_{k-1} / dt with a zero past. The residual is
    zero exactly when b_k - (S_k + K) u_k lies in tail(u_k), i.e. when node k
    solves its step inclusion.
    """
    linear, tail = relation.split()
    n, dim = u.shape
    prev_m0u = np.zeros(dim)
    worst = 0.0
    cached = None
    for k in range(n):
        t = t0 + k * dt
        if cached is None or not family.constant:
            S, _ = step_operator(family, t, dt)
            full = S if linear is None else S + linear
            cached = (full, 1.0 + float(np.linalg.norm(full, 2)))
        full, scale = cached
        b = forcing[k] + prev_m0u / dt
        y = u[k] + b - full @ u[k]
        target = y if tail is None else tail.resolve(1.0, y)
        worst = max(worst, float(np.linalg.norm(u[k] - target)) / scale)
        prev_m0u = np.asarray(family.M0_at(t), dtype=float) @ u[k]
    return worst


def anchor_gain(u, f, t0, dt, rho):
    """|u| / |f| in the weighted norm: the gain against the zero solution."""
    return weighted_norm(u, t0, dt, rho) / weighted_norm(f, t0, dt, rho)


def yosida_agreement(direct, path, fp_tol=FP_TOL):
    """(ok, error, tolerance) for a Yosida path against the direct solve.

    The path must land within 10*fp_tol + 5*lambda_min of the direct solution
    in the max norm, and no stage image norm may exceed twice the previous one.
    """
    lam_min = path.lambda_trace[-1][0]
    tol = 10.0 * fp_tol + 5.0 * lam_min
    err = float(np.max(np.abs(direct.solution.values - path.solution.values)))
    norms = [nrm for _, nrm in path.lambda_trace]
    ratios_ok = all(b <= 2.0 * a + 10.0 * fp_tol for a, b in zip(norms, norms[1:]))
    return err <= tol and ratios_ok, err, tol


def read_solution_csv(path):
    """(times, values) from a solution.csv written with 17 significant digits."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


def read_report(path):
    """key = value lines of a report.txt as a dict of strings."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out
