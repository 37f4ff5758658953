"""The shared fixed-point kernel: stop rules, safeguard, determinism, slab rates."""

import numpy as np
import pytest

from evinc.catalog import make_catalog_problem
from evinc.fixed_point import BUDGET, CONVERGED, DIVERGING, NONFINITE, fixed_point
from evinc.signals import weighted_norm
from evinc.solver import solve


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _logged(f):
    """Map G(x) -> (f(x), f(x)) that records every point it is evaluated at."""
    points = []

    def G(x):
        points.append(x.copy())
        gx = f(x)
        return gx, gx

    return G, points


def test_affine_contraction_converges():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    M = q @ np.diag(np.linspace(0.0, 0.95, 10)) @ q.T
    c = rng.standard_normal(10)
    x_star = np.linalg.solve(np.eye(10) - M, c)
    out, it, res, reason = fixed_point(lambda x: (M @ x + c,) * 2, np.zeros(10), 1e-12, 1000)
    assert reason == CONVERGED
    assert res <= 1e-12
    assert np.linalg.norm(out - x_star) <= 1e-10
    # the plain iteration contracts at 0.95 and needs ~560 steps from here
    assert it <= 100


def test_first_evaluation_at_tolerance_returns_at_once():
    out, it, res, reason = fixed_point(lambda x: (x.copy(), "out"), np.ones(3), 1e-10, 5)
    assert (out, it, res, reason) == ("out", 1, 0.0, CONVERGED)


def test_safeguard_falls_back_on_soft_threshold():
    M = np.array([[-0.94, 0.03], [0.03, 0.94]])
    c = np.array([2.2, 2.0])
    x_star = np.array([1.0, 59.0 / 3.0])
    G, points = _logged(lambda x: _soft(M @ x + c, 0.85))
    out, it, res, reason = fixed_point(G, np.array([-7.0, -4.0]), 1e-12, 1000)
    assert reason == CONVERGED and res <= 1e-12
    assert np.linalg.norm(out - x_star) <= 1e-10
    assert it == len(points)
    residuals = [np.linalg.norm(_soft(M @ x + c, 0.85) - x) for x in points]
    # up to the first rise every evaluation was accepted, so the evaluation
    # that rose is a mixed candidate (mixing starts at the third); it must be
    # dropped, and the next evaluation is the plain step from the point before
    rises = [i for i in range(2, len(points) - 1) if residuals[i] >= residuals[i - 1]]
    assert rises
    i = rises[0]
    assert np.array_equal(points[i + 1], _soft(M @ points[i - 1] + c, 0.85))
    # the plain iteration contracts at 0.94 from this start
    assert it <= 20


def test_budget_exit():
    # G(x) = x + 1 has no fixed point: the residual stays at 1
    calls = []

    def G(x):
        calls.append(1)
        return x + 1.0, x + 1.0

    out, it, res, reason = fixed_point(G, np.zeros(2), 1e-10, 50)
    assert reason == BUDGET
    assert it == 50 == len(calls)
    assert res == pytest.approx(np.sqrt(2.0))


def test_divergence_guard():
    # a residual that grows by 3 % per evaluation wherever the map is
    # evaluated: every mixed candidate is dropped and the plain steps grow
    calls = []

    def G(x):
        calls.append(1)
        gx = x + 1.03 ** len(calls)
        return gx, gx

    out, it, res, reason = fixed_point(G, np.zeros(1), 1e-10, 10_000)
    assert reason == DIVERGING
    assert it == len(calls) < 200
    assert res > 10.0


def test_nonfinite_exit_at_third_evaluation():
    calls = []

    def G(x):
        calls.append(1)
        gx = 0.5 * x + 1.0
        if len(calls) == 3:
            gx = gx * np.nan
        return gx, gx

    out, it, res, reason = fixed_point(G, np.zeros(2), 1e-12, 200_000)
    assert reason == NONFINITE
    assert it == 3 == len(calls)
    assert np.isnan(res)


def test_bitwise_deterministic():
    M = np.array([[-0.86, 0.27], [0.27, 0.86]])
    c = np.array([3.5, 0.25])

    def G(x):
        gx = _soft(M @ x + c, 0.85)
        return gx, gx

    runs = [fixed_point(G, np.array([-6.0, -9.5]), 1e-13, 1000) for _ in range(2)]
    assert runs[0][1:] == runs[1][1:]
    assert np.array_equal(runs[0][0], runs[1][0])


@pytest.mark.parametrize("name, gate", [("thermoplastic_slab", 10.0), ("viscoplastic_slab", 20.0)])
def test_slab_iterations_per_node(name, gate):
    # the plain iterations took 34.5 and 48.5 evaluations per node here
    tpl = make_catalog_problem(name, n=81)
    values = np.random.default_rng(0).standard_normal((tpl.grid.n, tpl.dim))
    f = tpl.signal(values)
    rep = solve(tpl.problem(tpl.signal(values / weighted_norm(f))))
    assert rep.converged
    assert np.mean(rep.per_step_iterations) <= gate
