import numpy as np
import pytest

from evinc import harness
from evinc.catalog import make_catalog_problem
from evinc.errors import ContractViolation
from evinc.harness import (
    PropertyCampaign,
    fixed_point_iterates,
    oracle_trajectory,
    random_forcing,
    run_campaign,
)
from evinc.solver import solve


class TestCampaign:
    def test_empty_campaign_passes(self):
        tpl = make_catalog_problem("scalar_ode", n=50)
        rep = run_campaign(PropertyCampaign(template=tpl, trials=0, seed=1))
        assert rep.passed and rep.rows == []

    def test_unknown_check_rejected(self):
        tpl = make_catalog_problem("scalar_ode", n=50)
        with pytest.raises(ContractViolation):
            PropertyCampaign(template=tpl, trials=1, seed=1, checks=("nope",))

    def test_oracle_check_requires_capability(self):
        tpl = make_catalog_problem("thermoplastic_slab", n=30)
        with pytest.raises(ContractViolation):
            PropertyCampaign(template=tpl, trials=1, seed=1, checks=("oracle_match",))

    def test_causality_campaign_all_pass(self):
        tpl = make_catalog_problem("scalar_ode", n=200)
        rep = run_campaign(
            PropertyCampaign(template=tpl, trials=50, seed=3, checks=("causality",))
        )
        summary = rep.summary()["causality"]
        assert summary["passes"] == 50

    def test_determinism_byte_identical(self):
        tpl = make_catalog_problem("degenerate_plane", n=150)
        campaign = PropertyCampaign(
            template=tpl, trials=4, seed=11,
            checks=("causality", "lipschitz", "oracle_match"),
        )
        a = run_campaign(campaign)
        b = run_campaign(campaign)
        assert a.to_csv() == b.to_csv()
        assert a.to_text() == b.to_text()

    def test_failure_recorded_not_raised(self):
        # a template whose forcing admits no convergence is hard to build;
        # instead force a failure through an impossible tolerance
        tpl = make_catalog_problem("sign_scalar", n=80)
        campaign = PropertyCampaign(
            template=tpl, trials=2, seed=5, checks=("oracle_match",), fp_tol=1e-30
        )
        rep = run_campaign(campaign)  # must not raise
        assert len(rep.rows) == 2


    def test_programming_error_propagates(self, monkeypatch):
        # only solver, resolvent and contract failures are recorded as failed
        # checks; anything else is a fault of the program, not a margin
        def broken(template, rng, fp_tol):
            raise TypeError("broken check")

        monkeypatch.setitem(harness._CHECK_FNS, "causality", broken)
        tpl = make_catalog_problem("scalar_ode", n=50)
        campaign = PropertyCampaign(template=tpl, trials=1, seed=1, checks=("causality",))
        with pytest.raises(TypeError, match="broken check"):
            run_campaign(campaign)

class TestOracle:
    def test_linear_scalar_matches_closed_form(self):
        tpl = make_catalog_problem("scalar_ode", n=500)
        f = tpl.signal(np.ones((500, 1)))
        ref = oracle_trajectory(tpl, f)
        dt = tpl.grid.dt
        # per step: (1/dt) u + u = 1 + u_prev/dt
        uk = 0.0
        for k in range(500):
            uk = (1.0 + uk / dt) / (1.0 / dt + 1.0)
            assert abs(ref.values[k, 0] - uk) <= 1e-12

    def test_matches_solver_on_catalog(self):
        rng = np.random.default_rng(12)
        for name in ("scalar_ode", "degenerate_plane", "sign_scalar", "saturation_plane"):
            tpl = make_catalog_problem(name, n=250)
            f = random_forcing(tpl, rng)
            rep = solve(tpl.problem(f, fp_tol=1e-11))
            ref = oracle_trajectory(tpl, f)
            assert np.max(np.abs(rep.solution.values - ref.values)) <= 10 * 1e-11

    def test_sign_ramp_exact(self):
        tpl = make_catalog_problem("sign_scalar", n=2001, dt=1e-3)
        t = tpl.grid.times
        f = tpl.signal(np.where((t >= 0) & (t < 1), 2.0, 0.0)[:, None])
        ref = oracle_trajectory(tpl, f)
        rep = solve(tpl.problem(f))
        assert np.max(np.abs(rep.solution.values - ref.values)) <= 10 * 1e-10

    def test_unknown_relation_flagged(self):
        from evinc.relations import MonotoneRelation

        class Mystery(MonotoneRelation):
            def __init__(self):
                self.dim = 1

            def resolve(self, lam, y):
                return np.asarray(y)

        tpl = make_catalog_problem("scalar_ode", n=30)
        bad = type(tpl)(
            name="mystery", family=tpl.family, relation=Mystery(),
            grid=tpl.grid, c_tilde=tpl.c_tilde, rho=tpl.rho, oracle_capable=True,
        )
        f = bad.signal(np.ones((30, 1)))
        with pytest.raises(ContractViolation):
            oracle_trajectory(bad, f)

    def test_dim_cap(self):
        tpl = make_catalog_problem("thermoplastic_slab", n=20)
        f = tpl.signal(np.zeros((20, tpl.dim)))
        with pytest.raises(ContractViolation):
            oracle_trajectory(tpl, f)


class TestFixedPointIterates:
    def test_immediate_fixed_point(self):
        out = fixed_point_iterates(lambda v: v, lambda v: 0.0 * v,
                                   np.array([2.0]), 3, 1.0, 0.0)
        assert all(np.array_equal(y, [2.0]) for y in out[1:])

    def test_scalar_contraction_limit(self):
        out = fixed_point_iterates(lambda v: 0.5 * v, lambda v: 0.5 * v,
                                   np.array([1.0]), 80, 0.5, 0.5)
        assert out[-1][0] == pytest.approx(0.4, abs=1e-12)

    def test_tail_bound_holds(self):
        lip_f = lip_g = 0.5
        out = fixed_point_iterates(lambda v: 0.5 * v, lambda v: 0.5 * v,
                                   np.array([1.0]), 30, lip_f, lip_g)
        q = lip_f * lip_g
        first_gap = np.linalg.norm(out[1] - out[0])
        limit = out[-1]
        for n in range(1, 25):
            bound = q**n * first_gap / (1 - q)
            assert np.linalg.norm(out[n] - limit) <= bound + 1e-12

    def test_two_starts_same_limit(self):
        a = fixed_point_iterates(lambda v: 0.5 * v, lambda v: 0.5 * v,
                                 np.array([1.0]), 120, 0.5, 0.5)
        b = fixed_point_iterates(lambda v: 0.5 * v, lambda v: 0.5 * v,
                                 np.array([1.0]), 120, 0.5, 0.5,
                                 y0=np.array([-7.0]))
        assert np.linalg.norm(a[-1] - b[-1]) <= 1e-12

    def test_contraction_product_enforced(self):
        with pytest.raises(ContractViolation):
            fixed_point_iterates(lambda v: v, lambda v: v, np.array([1.0]), 5, 1.0, 1.0)


def test_random_forcing_unit_norm():
    from evinc.signals import weighted_norm

    tpl = make_catalog_problem("degenerate_plane", n=100)
    sig = random_forcing(tpl, np.random.default_rng(0))
    assert weighted_norm(sig) == pytest.approx(1.0, rel=1e-12)


class TestReplay:
    def test_failures_reproduce_from_recorded_seed(self):
        from evinc.harness import PropertyCampaign, replay_check, run_campaign

        tpl = make_catalog_problem("sign_scalar", n=80)
        campaign = PropertyCampaign(
            template=tpl, trials=3, seed=6, checks=("oracle_match",), fp_tol=1e-30
        )
        rep = run_campaign(campaign)
        assert rep.failures
        trial, check, passed, margin, seed = rep.failures[0]
        again_passed, again_margin = replay_check(tpl, check, seed, fp_tol=1e-30)
        assert again_passed == passed
        assert again_margin == margin

    def test_passes_reproduce_too(self):
        from evinc.harness import PropertyCampaign, replay_check, run_campaign

        tpl = make_catalog_problem("scalar_ode", n=120)
        rep = run_campaign(
            PropertyCampaign(template=tpl, trials=2, seed=8, checks=("causality",))
        )
        for trial, check, passed, margin, seed in rep.rows:
            assert replay_check(tpl, check, seed) == (passed, margin)
