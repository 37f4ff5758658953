import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evinc.errors import ContractViolation
from evinc.signals import (
    TimeGrid,
    WeightedSignal,
    cutoff,
    read_signal_csv,
    weighted_inner,
    weighted_norm,
    write_signal_csv,
)


def make_signal(values, rho=1.0, t0=0.0, dt=1.0):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.shape[1] > 1:
        values = values.T
    grid = TimeGrid(t0=t0, dt=dt, n=values.shape[0])
    return WeightedSignal(grid, values, rho)


class TestGridAndSignal:
    def test_grid_invariants(self):
        with pytest.raises(ContractViolation):
            TimeGrid(0.0, -0.1, 5)
        with pytest.raises(ContractViolation):
            TimeGrid(0.0, 0.1, 1)

    def test_signal_shape_check(self):
        grid = TimeGrid(0.0, 0.5, 4)
        with pytest.raises(ContractViolation):
            WeightedSignal(grid, np.zeros((3, 2)), 1.0)
        with pytest.raises(ContractViolation):
            WeightedSignal(grid, np.zeros((4, 2)), -1.0)
        with pytest.raises(ContractViolation):
            WeightedSignal(grid, np.zeros((4, 2)), np.inf)

    def test_values_immutable(self):
        u = make_signal([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            u.values[0] = 9.0


class TestWeightedInner:
    def test_constant_ones_small_rho(self):
        # rho -> 0 limit of the two-node unweighted sum is 2.0
        u = make_signal([1.0, 1.0], rho=1e-12)
        assert weighted_inner(u, u) == pytest.approx(2.0, rel=1e-9)

    def test_zero_signal(self):
        u = make_signal([0.0, 0.0, 0.0])
        assert weighted_inner(u, u) == 0.0

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(5)
        grid = TimeGrid(t0=-0.3, dt=0.07, n=40)
        u = WeightedSignal(grid, rng.standard_normal((40, 3)), 1.0)
        v = WeightedSignal(grid, rng.standard_normal((40, 3)), 1.0)
        # independent scalar re-summation
        acc = 0.0
        for k in range(grid.n):
            t = grid.t0 + k * grid.dt
            dot = sum(float(u.values[k, i]) * float(v.values[k, i]) for i in range(3))
            acc += dot * np.exp(-2.0 * t) * grid.dt
        assert weighted_inner(u, v) == pytest.approx(acc, abs=1e-12)

    def test_mismatch_rejected(self):
        u = make_signal([1.0, 2.0])
        v = make_signal([1.0, 2.0], rho=2.0)
        with pytest.raises(ContractViolation):
            weighted_inner(u, v)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        dim = int(rng.integers(1, 4))
        grid = TimeGrid(0.0, float(rng.uniform(0.01, 1.0)), n)
        rho = float(rng.uniform(0.1, 3.0))
        u = WeightedSignal(grid, rng.standard_normal((n, dim)), rho)
        v = WeightedSignal(grid, rng.standard_normal((n, dim)), rho)
        lhs = abs(weighted_inner(u, v))
        rhs = weighted_norm(u) * weighted_norm(v)
        assert lhs <= rhs * (1.0 + 1e-10)


class TestCutoff:
    def test_cut_before_grid_zeroes(self):
        u = make_signal([1.0, 1.0, 1.0])
        out = cutoff(u, u.grid.t0 - 1.0, "past")
        assert np.all(out.values == 0.0)

    def test_cut_at_last_node_is_identity(self):
        u = make_signal([1.0, 2.0, 3.0])
        out = cutoff(u, u.grid.times[-1], "past")
        assert np.array_equal(out.values, u.values)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        u = make_signal(rng.standard_normal(12), dt=0.3)
        once = cutoff(u, 1.7, "past")
        twice = cutoff(once, 1.7, "past")
        assert np.array_equal(once.values, twice.values)

    def test_nonexpansive_and_pythagoras(self):
        rng = np.random.default_rng(1)
        u = make_signal(rng.standard_normal(20), dt=0.25, rho=0.7)
        a = u.grid.times[8]
        past = cutoff(u, a, "past")
        future = cutoff(u, u.grid.times[9], "future")
        assert weighted_norm(past) <= weighted_norm(u) + 1e-14
        total = weighted_norm(past) ** 2 + weighted_norm(future) ** 2
        assert total == pytest.approx(weighted_norm(u) ** 2, rel=1e-12)

    def test_weight_decay_for_supported_signals(self):
        # supp u in [a, inf): raising the weight scales the norm by at most
        # exp(2*(rho - nu)*a)
        rng = np.random.default_rng(2)
        grid = TimeGrid(0.0, 0.1, 50)
        vals = rng.standard_normal((50, 2))
        vals[:20] = 0.0  # support starts at a = 2.0
        a = grid.times[20]
        rho, nu = 0.5, 1.7
        u_rho = WeightedSignal(grid, vals, rho)
        u_nu = WeightedSignal(grid, vals, nu)
        bound = weighted_norm(u_rho) ** 2 * np.exp(2.0 * (rho - nu) * a)
        assert weighted_norm(u_nu) ** 2 <= bound * (1.0 + 1e-12)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = TimeGrid(-0.5, 0.125, 9)
        u = WeightedSignal(grid, rng.standard_normal((9, 2)), 1.3)
        path = tmp_path / "sig.csv"
        write_signal_csv(u, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x0,x1"
        back = read_signal_csv(path, 1.3)
        assert back.grid == u.grid
        assert np.array_equal(back.values, u.values)
