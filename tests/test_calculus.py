import numpy as np
import pytest

from evinc.calculus import (
    adjoint_defect,
    derivative,
    difference_quotient,
    integrate,
    integrate_operator_norm,
    translate,
)
from evinc.errors import UnsupportedRegime
from evinc.signals import TimeGrid, WeightedSignal, cutoff, weighted_norm
from window_norm import window_integral_norm


def signal(values, rho=1.0, t0=0.0, dt=1.0):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return WeightedSignal(TimeGrid(t0, dt, values.shape[0]), values, rho)


class TestDerivative:
    def test_linear_ramp(self):
        grid = TimeGrid(0.0, 0.25, 12)
        u = WeightedSignal(grid, grid.times[:, None], 1.0)
        d = derivative(u)
        assert np.allclose(d.values[1:], 1.0)
        assert d.values[0, 0] == 0.0  # t0 = 0: ramp starts at the zero past

    def test_constant_causal_jump(self):
        u = signal([3.0] * 6, dt=0.5)
        d = derivative(u)
        assert d.values[0, 0] == pytest.approx(3.0 / 0.5)
        assert np.all(d.values[1:] == 0.0)

    def test_derivative_of_integral_recovers_input(self):
        rng = np.random.default_rng(0)
        f = signal(rng.standard_normal((500, 2)), dt=0.02)
        back = derivative(integrate(f))
        # telescoping is exact up to float cancellation against the running sum
        tol = 64 * np.finfo(float).eps * np.sqrt(f.grid.n) * np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= tol

    def test_integral_of_derivative_recovers_input(self):
        rng = np.random.default_rng(1)
        u = signal(rng.standard_normal((400, 1)), dt=0.1)
        back = integrate(derivative(u))
        tol = 64 * np.finfo(float).eps * np.sqrt(u.grid.n) * np.max(np.abs(u.values)) / u.grid.dt
        assert np.max(np.abs(back.values - u.values)) <= tol


class TestIntegrate:
    def test_indicator_clamp(self):
        grid = TimeGrid(-1.0, 0.1, 31)
        f = WeightedSignal(grid, ((grid.times >= 0) & (grid.times <= 1)).astype(float)[:, None], 1.0)
        out = integrate(f).values[:, 0]
        t = grid.times
        clamp = np.clip(t, 0.0, 1.0)
        assert np.max(np.abs(out - clamp)) <= 0.1 + 1e-12  # within one dt

    def test_zero(self):
        f = signal(np.zeros(5))
        assert np.all(integrate(f).values == 0.0)

    def test_rho_nonpositive_rejected(self):
        # signals reject rho <= 0 at construction; the guard is defensive
        bad = signal(np.ones(4))
        object.__setattr__(bad, "rho", -1.0)
        with pytest.raises(UnsupportedRegime):
            integrate(bad)

    def test_operator_norm_near_inverse_weight(self):
        # power-iteration oracle: 1/rho within 2 percent at rho = 2
        grid = TimeGrid(0.0, 1e-3, 10_001)
        nrm = integrate_operator_norm(grid, 2.0)
        assert abs(nrm - 0.5) <= 0.02 * 0.5

    @pytest.mark.parametrize("rho", [1.0, 2.0, 5.0])
    def test_operator_norm_bias_against_window_value(self, rho):
        # exact norm on the horizon-10 window; the rectangle-rule bias is
        # about dt/2 and halves with dt
        exact = window_integral_norm(rho, 10.0)
        gap = integrate_operator_norm(TimeGrid(0.0, 1e-3, 10_001), rho) - exact
        gap_half = integrate_operator_norm(TimeGrid(0.0, 5e-4, 20_001), rho) - exact
        assert abs(gap) <= 1e-3
        assert abs(gap_half) <= 0.6 * abs(gap)


class TestCausality:
    def test_both_operators_causal(self):
        rng = np.random.default_rng(2)
        u = signal(rng.standard_normal(60), dt=0.05, rho=0.5)
        a = u.grid.times[33]
        for op in (derivative, integrate):
            full = cutoff(op(u), a, "past")
            chopped = cutoff(op(cutoff(u, a, "past")), a, "past")
            assert np.array_equal(full.values, chopped.values)


class TestTranslate:
    def test_identity(self):
        u = signal(np.arange(6.0))
        assert np.array_equal(translate(u, 0).values, u.values)

    def test_roundtrip_loses_boundary_node(self):
        # the forward shift moves u_0 off the grid, so the pair of shifts
        # restores everything except that boundary value
        u = signal(np.arange(1.0, 8.0))
        back = translate(translate(u, 1), -1)
        assert np.array_equal(back.values[1:], u.values[1:])
        assert back.values[0, 0] == 0.0

    def test_weighted_norm_growth_bound(self):
        rng = np.random.default_rng(3)
        u = signal(rng.standard_normal(50), dt=0.2, rho=1.3)
        lhs = weighted_norm(translate(u, 1))
        assert lhs <= np.exp(1.3 * 0.2) * weighted_norm(u) * (1.0 + 1e-12)


class TestDifferenceQuotient:
    def test_ramp(self):
        grid = TimeGrid(0.0, 0.5, 10)
        u = WeightedSignal(grid, grid.times[:, None], 1.0)
        d = difference_quotient(u, 1)
        assert np.allclose(d.values[:-1], 1.0)

    def test_matches_analytic_derivative(self):
        grid = TimeGrid(0.0, 1e-3, 4000)
        u = WeightedSignal(grid, np.sin(grid.times)[:, None], 1.0)
        d = difference_quotient(u, 1)
        interior = slice(0, -1)
        err = np.max(np.abs(d.values[interior, 0] - np.cos(grid.times[interior])))
        assert err <= 1e-3

    def test_weighted_bound_against_derivative(self):
        # signal vanishes at the horizon so the quotient never sees the edge
        grid = TimeGrid(0.0, 1e-3, 3001)
        rho = 1.0
        period = grid.horizon
        bump = np.sin(np.pi * grid.times / period) ** 2
        u = WeightedSignal(grid, bump[:, None], rho)
        for h in (1, 3, 10):
            lhs = weighted_norm(difference_quotient(u, h))
            rhs = np.exp(rho * h * grid.dt) * weighted_norm(derivative(u))
            assert lhs <= rhs + 20.0 * (h + 1) * grid.dt

    def test_convergence_to_derivative(self):
        # discrete difference quotients approach the causal derivative at
        # first order in (h+1)*dt on C^1 samples vanishing at the horizon
        rho = 0.8
        errs = []
        for dt in (2e-3, 1e-3):
            n = int(2.0 / dt) + 1
            grid = TimeGrid(0.0, dt, n)
            vals = (np.sin(np.pi * grid.times / grid.horizon) ** 2)[:, None]
            u = WeightedSignal(grid, vals, rho)
            diff = difference_quotient(u, 1).values - derivative(u).values
            errs.append(weighted_norm(u.with_values(diff)))
        ratio = errs[0] / errs[1]
        assert 1.6 <= ratio <= 2.4


class TestAdjointDefect:
    def test_unweighted_is_exact(self):
        assert adjoint_defect(TimeGrid(0.0, 0.01, 300), 0.0) <= 1e-12

    def test_small_defect_at_desk_scale(self):
        assert adjoint_defect(TimeGrid(0.0, 1e-3, 4000), 1.0) <= 0.01

    def test_defect_shrinks_with_dt(self):
        d1 = adjoint_defect(TimeGrid(0.0, 1e-3, 1500), 1.0)
        d2 = adjoint_defect(TimeGrid(0.0, 5e-4, 3000), 1.0)
        assert d2 / d1 <= 0.6
