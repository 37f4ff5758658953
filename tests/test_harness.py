from dataclasses import replace

import numpy as np
import pytest

from evinc import harness
from evinc.catalog import CatalogProblem, make_catalog_problem
from evinc.errors import ContractViolation, ResolventFailure
from evinc.harness import (
    PropertyCampaign,
    fixed_point_iterates,
    monotonicity_margin,
    oracle_trajectory,
    random_forcing,
    replay_check,
    run_campaign,
)
from evinc import solver
from evinc.materials import constant_family, sinusoidal_family
from evinc.relations import BallSaturation, NormSubdifferential, ZeroRelation
from evinc.signals import TimeGrid
from evinc.solver import FP_TOL, solve, solve_batch


def _counting(family):
    """The family with M0_at and M1_at that record each time they are asked for."""
    calls = {"M0": [], "M1": []}

    def m0_at(t):
        calls["M0"].append(t)
        return family.M0_at(t)

    def m1_at(t):
        calls["M1"].append(t)
        return family.M1_at(t)

    return replace(family, M0_at=m0_at, M1_at=m1_at), calls


def _sinusoidal_plane(n):
    fam = sinusoidal_family(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), amplitude=0.3, frequency=2.0)
    grid = TimeGrid(0.0, 1e-3, n)
    return CatalogProblem.admissible("sinusoidal_plane", fam, ZeroRelation(2), grid, oracle_capable=True)


def _nodes(grid):
    return [grid.t0 + k * grid.dt for k in range(grid.n)]


class TestCampaign:
    def test_empty_campaign_rejected(self):
        # a campaign that checks nothing must not report a pass
        tpl = make_catalog_problem("scalar_ode", n=50)
        for trials in (0, -1):
            with pytest.raises(ContractViolation, match="at least one trial"):
                PropertyCampaign(template=tpl, trials=trials, seed=1)
        with pytest.raises(ContractViolation, match="one check"):
            PropertyCampaign(template=tpl, trials=1, seed=1, checks=())

    def test_negative_seed_rejected(self):
        # numpy's generators refuse it, so it once ended run_campaign in a ValueError
        tpl = make_catalog_problem("scalar_ode", n=50)
        with pytest.raises(ContractViolation, match="non-negative"):
            PropertyCampaign(template=tpl, trials=1, seed=-1)
        with pytest.raises(ContractViolation, match="non-negative"):
            replay_check(tpl, "lipschitz", -1)

    def test_unknown_check_rejected(self):
        tpl = make_catalog_problem("scalar_ode", n=50)
        with pytest.raises(ContractViolation):
            PropertyCampaign(template=tpl, trials=1, seed=1, checks=("nope",))

    def test_oracle_check_requires_capability(self):
        tpl = make_catalog_problem("thermoplastic_slab", n=30)
        with pytest.raises(ContractViolation):
            PropertyCampaign(template=tpl, trials=1, seed=1, checks=("oracle_match",))

    @pytest.mark.parametrize("name, oracle", [("scalar_ode", True), ("thermoplastic_slab", False)])
    def test_supported_checks_are_the_accepted_ones(self, name, oracle):
        tpl = make_catalog_problem(name, n=30)
        checks = harness.supported_checks(tpl)
        assert checks == tuple(c for c in harness.ALL_CHECKS if oracle or c != "oracle_match")
        assert PropertyCampaign(template=tpl, trials=1, checks=checks).checks == checks

    @pytest.mark.parametrize("name", ["scalar_ode", "thermoplastic_slab"])
    def test_default_checks_are_the_supported_ones(self, name):
        # a template without an oracle takes a campaign with no checks named
        tpl = make_catalog_problem(name, n=30)
        assert PropertyCampaign(template=tpl, trials=1).checks == harness.supported_checks(tpl)

    @pytest.mark.parametrize("name", ["scalar_ode", "thermoplastic_slab"])
    def test_causality_needs_a_cut_node(self, name):
        # on 2 nodes no node lies strictly between the first and the last: the
        # campaign leaves causality out, and its draw is a typed failure
        tpl = make_catalog_problem(name, n=2)
        assert "causality" not in harness.supported_checks(tpl)
        rep = run_campaign(PropertyCampaign(template=tpl, trials=1, seed=3))
        assert [check for _, check, *_ in rep.rows] == list(harness.supported_checks(tpl))
        with pytest.raises(ContractViolation, match="does not support checks"):
            PropertyCampaign(template=tpl, trials=1, checks=("causality",))
        assert replay_check(tpl, "causality", 5) == (False, float("-inf"))
        [(_, _, error)] = harness._run_checks(tpl, [(5, "causality")], FP_TOL)
        assert isinstance(error, ContractViolation) and "n >= 3" in str(error)

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

    @pytest.mark.parametrize("name", ["sign_scalar", "saturation_plane", "thermoplastic_slab"])
    def test_yosida_agreement_campaign_solves_in_one_call(self, monkeypatch, name):
        # the direct and Yosida-path problems of all trials go to one
        # solve_batch call, which marches them as two groups
        tpl = make_catalog_problem(name, n=40)
        calls = []
        monkeypatch.setattr(harness, "solve_batch", lambda ps: calls.append(ps) or solve_batch(ps))
        checks = ("causality", "yosida_agreement")
        rep = run_campaign(PropertyCampaign(template=tpl, trials=2, seed=7, checks=checks))
        assert rep.passed and len(rep.rows) == 4
        assert [len(ps) for ps in calls] == [8]
        assert len({solver._march_key(p) for p in calls[0]}) == 2

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

    def test_a_relation_that_raises_fails_only_its_own_checks(self):
        # a resolvent failure raised inside a batch is no one member's: each
        # problem is then solved alone, and only the checks whose own solves
        # raise record it
        class Brittle(NormSubdifferential):
            def resolve(self, lam, y):
                if np.max(np.abs(y)) > 0.05:
                    raise ResolventFailure("too far out")
                return super().resolve(lam, y)

        base = make_catalog_problem("sign_scalar", n=40)
        tpl = replace(base, relation=Brittle(1, weight=1.0))
        checks = ("causality", "rho_independence")
        rep = run_campaign(PropertyCampaign(template=tpl, trials=6, seed=3, checks=checks))
        expected = set()
        for trial, check, passed, margin, seed in rep.rows:
            rng = np.random.default_rng([seed, harness.ALL_CHECKS.index(check)])
            problems, _ = harness._CHECK_FNS[check](tpl, rng, 1e-10)
            try:
                for p in problems:
                    solve(p)
            except ResolventFailure:
                expected.add((trial, check))
        assert 0 < len(expected) < len(rep.rows)
        assert set(rep.errors) == expected
        assert all(text == "ResolventFailure: too far out" for text in rep.errors.values())
        assert all(passed for trial, check, passed, *_ in rep.rows if (trial, check) not in expected)

    def test_a_step_size_error_fails_its_check(self):
        # a family whose step matrix is not coercive at this dt: the march
        # raises StepSizeError at its first node, a failed row like the others
        fam = constant_family(np.diag([1.0, 0.0]), np.diag([0.0, -0.5]), c0=1.0, c1=1.0)
        tpl = CatalogProblem.admissible("noncoercive", fam, NormSubdifferential(2),
                                        TimeGrid(0.0, 0.01, 20))
        rep = run_campaign(PropertyCampaign(template=tpl, trials=1, checks=("causality",)))
        [(trial, check, passed, margin, seed)] = rep.rows
        assert not passed and margin == float("-inf")
        assert rep.errors[(trial, check)].startswith(
            "StepSizeError: implicit step matrix at t=0.0 has nonpositive symmetric part")
        assert replay_check(tpl, check, seed) == (False, float("-inf"))


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

    @pytest.mark.parametrize("size", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("s", [0.5, 3.0])
    def test_planar_steps_match_closed_form(self, s, size):
        # with S = s I both planar relations act radially, so each step has a
        # closed form: soft thresholding for the sign, and for the ball the
        # free step b/(s+1) until it leaves the ball, then the saturated one
        b = size * np.array([0.6, -0.8])
        S = s * np.eye(2)
        sign = harness._oracle_step(NormSubdifferential(2, weight=1.0), S, b, 1e-12)
        assert np.max(np.abs(sign - max(size - 1.0, 0.0) / s * b / size)) <= 10 * FP_TOL
        ball = harness._oracle_step(BallSaturation(2, radius=1.0), S, b, 1e-12)
        free = b / (s + 1.0)
        exact = free if size / (s + 1.0) <= 1.0 else (size - 1.0) / s * b / size
        assert np.max(np.abs(ball - exact)) <= 10 * FP_TOL

    def test_matches_solver_on_an_isotropic_sign_plane(self):
        # the planar sign relation on both of its branches: forcings at unit
        # weighted norm, and thirty times that
        tpl = CatalogProblem.admissible(
            "sign_plane", constant_family(np.eye(2), np.zeros((2, 2))),
            NormSubdifferential(2, weight=1.0), TimeGrid(0.0, 1e-3, 60), oracle_capable=True,
        )
        rng = np.random.default_rng(13)
        forcings = [random_forcing(tpl, rng) for _ in range(3)]
        forcings += [tpl.signal(30.0 * f.values) for f in forcings]
        branches = set()
        for f, rep in zip(forcings, solve_batch([tpl.problem(f) for f in forcings])):
            ref = oracle_trajectory(tpl, f)
            assert np.max(np.abs(rep.solution.values - ref.values)) <= 10 * FP_TOL
            branches |= set(np.linalg.norm(ref.values, axis=1) > 0.0)
        assert branches == {False, True}

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

    def test_coefficients_evaluated_once_per_node(self):
        tpl = _sinusoidal_plane(30)
        fam, calls = _counting(tpl.family)
        f = random_forcing(tpl, np.random.default_rng(4))
        ref = oracle_trajectory(replace(tpl, family=fam), f)
        assert calls == {"M0": _nodes(tpl.grid), "M1": _nodes(tpl.grid)}
        assert np.array_equal(ref.values, oracle_trajectory(tpl, f).values)

    def test_constant_family_evaluated_once(self):
        tpl = make_catalog_problem("degenerate_plane", n=30)
        fam, calls = _counting(tpl.family)
        f = random_forcing(tpl, np.random.default_rng(4))
        ref = oracle_trajectory(replace(tpl, family=fam), f)
        assert calls == {"M0": [tpl.grid.t0], "M1": [tpl.grid.t0]}
        assert np.array_equal(ref.values, oracle_trajectory(tpl, f).values)

    def test_dim_cap(self):
        tpl = make_catalog_problem("thermoplastic_slab", n=20)
        f = tpl.signal(np.zeros((20, tpl.dim)))
        with pytest.raises(ContractViolation):
            oracle_trajectory(tpl, f)


class TestMonotonicityMargin:
    @pytest.mark.parametrize("name", ["degenerate_plane", "thermoplastic_slab"])
    def test_constant_family_evaluated_once(self, name):
        tpl = make_catalog_problem(name, n=40)
        fam, calls = _counting(tpl.family)
        u = random_forcing(tpl, np.random.default_rng(2))
        monotonicity_margin(replace(tpl, family=fam), u)
        assert calls == {"M0": [tpl.grid.t0], "M1": [tpl.grid.t0]}

    def test_time_dependent_family_once_per_node(self):
        tpl = _sinusoidal_plane(25)
        fam, calls = _counting(tpl.family)
        monotonicity_margin(replace(tpl, family=fam), random_forcing(tpl, np.random.default_rng(3)))
        assert calls == {"M0": _nodes(tpl.grid), "M1": _nodes(tpl.grid)}

    @pytest.mark.parametrize("dim", [1, 2, 22, 28])
    def test_stacked_products_are_bitwise_rowwise(self, dim):
        # the margin forms every M0(t_k) v_k as one stacked matmul, so its rows
        # must equal the per-node products bit for bit
        rng = np.random.default_rng(dim)
        vals = rng.standard_normal((37, dim))
        shared = rng.standard_normal((1, dim, dim))
        per_node = rng.standard_normal((37, dim, dim))
        for mats in (shared, per_node):
            rows = (mats @ vals[:, :, None])[:, :, 0]
            for k in range(37):
                assert np.array_equal(rows[k], mats[k % len(mats)] @ vals[k])


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
