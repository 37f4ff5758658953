from dataclasses import replace

import numpy as np
import pytest

from evinc import harness
from evinc.catalog import CatalogProblem, make_catalog_problem
from evinc.errors import ContractViolation, ResolventFailure, StepFailure
from evinc.harness import (
    PropertyCampaign,
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
from test_pinned_oracle import PINNED, _digest


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
    return CatalogProblem.admissible("sinusoidal_plane", fam, ZeroRelation(2), grid)


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

    @pytest.mark.parametrize("fp_tol", [0.0, -1.0, float("nan")])
    def test_bad_fp_tol_rejected(self, fp_tol):
        # it once ran, every row failing with margin -inf on the solver's ContractViolation
        tpl = make_catalog_problem("scalar_ode", n=50)
        with pytest.raises(ContractViolation, match="fp_tol must be finite and positive"):
            PropertyCampaign(template=tpl, trials=1, seed=1, fp_tol=fp_tol)
        with pytest.raises(ContractViolation, match="fp_tol must be finite and positive"):
            replay_check(tpl, "lipschitz", 1, fp_tol=fp_tol)

    def test_unknown_check_rejected(self):
        tpl = make_catalog_problem("scalar_ode", n=50)
        with pytest.raises(ContractViolation):
            PropertyCampaign(template=tpl, trials=1, seed=1, checks=("nope",))

    def test_replay_refuses_an_unknown_check(self):
        # it once ended in a bare ValueError from the position lookup of the name
        tpl = make_catalog_problem("scalar_ode", n=50)
        with pytest.raises(ContractViolation,
                           match=r"unknown checks \['nope'\] for template 'scalar_ode'"):
            replay_check(tpl, "nope", 1)

    def test_replay_refuses_an_unsupported_check(self):
        # it once returned a failed row (False, -inf), where a campaign refuses the check
        tpl = make_catalog_problem("thermoplastic_slab", n=30)
        with pytest.raises(ContractViolation, match=(
                r"template 'thermoplastic_slab' does not support checks \['oracle_match'\]")):
            replay_check(tpl, "oracle_match", 1)

    @pytest.mark.parametrize("checks, match", [
        (("causality", "causality"), "named more than once"),
        (("lipschitz", "causality", "lipschitz"), "named more than once"),
        ("causality", "got the string 'causality'"),
    ])
    def test_checks_are_distinct_names(self, checks, match):
        # a repeated name once wrote each of its rows twice, and a bare string
        # was split into letters, each refused as unsupported
        tpl = make_catalog_problem("scalar_ode", n=30)
        with pytest.raises(ContractViolation, match=match):
            PropertyCampaign(template=tpl, trials=2, checks=checks)

    def test_rng_indices_are_frozen(self):
        # each check's draws are seeded by (trial seed, rng index): these pin every recorded seed
        assert {name: check.rng_index for name, check in harness.CHECKS.items()} == {
            "causality": 0, "lipschitz": 1, "monotonicity_bound": 2,
            "rho_independence": 3, "yosida_agreement": 4, "oracle_match": 5,
        }

    def test_a_new_row_changes_no_draw(self, monkeypatch):
        # a check added at the front of the table takes the next free rng index,
        # and the campaigns of the other checks write the same bytes
        tpl = make_catalog_problem("scalar_ode", n=40)
        campaign = PropertyCampaign(template=tpl, trials=2, seed=4, checks=tuple(harness.CHECKS))
        before = run_campaign(campaign).to_csv()
        dummy = harness.Check(lambda template, rng, fp_tol: ([], lambda: (True, 0.0)), 6)
        monkeypatch.setattr(harness, "CHECKS", {"dummy": dummy, **harness.CHECKS})
        assert harness.supported_checks(tpl)[0] == "dummy"
        assert run_campaign(campaign).to_csv() == before

    def test_oracle_check_requires_capability(self):
        tpl = make_catalog_problem("thermoplastic_slab", n=30)
        with pytest.raises(ContractViolation):
            PropertyCampaign(template=tpl, trials=1, seed=1, checks=("oracle_match",))

    @pytest.mark.parametrize("name, oracle", [("scalar_ode", True), ("thermoplastic_slab", False)])
    def test_supported_checks_are_the_accepted_ones(self, name, oracle):
        tpl = make_catalog_problem(name, n=30)
        checks = harness.supported_checks(tpl)
        assert checks == tuple(c for c in harness.CHECKS if oracle or c != "oracle_match")
        assert PropertyCampaign(template=tpl, trials=1, checks=checks).checks == checks

    @pytest.mark.parametrize("name", ["scalar_ode", "thermoplastic_slab"])
    def test_default_checks_are_the_supported_ones(self, name):
        # a template without an oracle takes a campaign with no checks named
        tpl = make_catalog_problem(name, n=30)
        assert PropertyCampaign(template=tpl, trials=1).checks == harness.supported_checks(tpl)

    @pytest.mark.parametrize("name", ["scalar_ode", "thermoplastic_slab"])
    def test_causality_needs_a_cut_node(self, name):
        # on 2 nodes no node lies strictly between the first and the last: the
        # campaign leaves causality out, and a campaign and a replay refuse it
        tpl = make_catalog_problem(name, n=2)
        assert "causality" not in harness.supported_checks(tpl)
        assert "causality" in harness.supported_checks(make_catalog_problem(name, n=3))
        rep = run_campaign(PropertyCampaign(template=tpl, trials=1, seed=3))
        assert [check for _, check, *_ in rep.rows] == list(harness.supported_checks(tpl))
        refusal = f"template '{name}' does not support checks \\['causality'\\]"
        with pytest.raises(ContractViolation, match=refusal):
            PropertyCampaign(template=tpl, trials=1, checks=("causality",))
        with pytest.raises(ContractViolation, match=refusal):
            replay_check(tpl, "causality", 5)

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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_yosida_judge_fails_a_nonfinite_stage_norm(self, bad):
        # infinite norms meet every ratio bound b <= 2 a + slack, so the judge asks for finite ones
        tpl = make_catalog_problem("sign_scalar", n=40)
        rng = np.random.default_rng(1)
        problems, judge = harness.CHECKS["yosida_agreement"].draw(tpl, rng, FP_TOL)
        direct, path = solve_batch(problems)
        assert judge(direct, path)[0] and len(path.lambda_trace) > 1
        trace = [(lam, bad) for lam, _ in path.lambda_trace]
        assert not judge(direct, replace(path, lambda_trace=trace))[0]

    def test_programming_error_propagates(self, monkeypatch):
        # only solver, resolvent and contract failures are recorded as failed
        # checks; anything else is a fault of the program, not a margin
        def broken(template, rng, fp_tol):
            raise TypeError("broken check")

        row = harness.CHECKS["causality"]._replace(draw=broken)
        monkeypatch.setitem(harness.CHECKS, "causality", row)
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
            rng = np.random.default_rng([seed, harness.CHECKS[check].rng_index])
            problems, _ = harness.CHECKS[check].draw(tpl, rng, 1e-10)
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
        sign = harness._oracle_step(NormSubdifferential(2, weight=1.0), 2)(
            S.ravel().tolist(), b.tolist(), 1e-12)
        assert np.max(np.abs(sign - max(size - 1.0, 0.0) / s * b / size)) <= 10 * FP_TOL
        ball = harness._oracle_step(BallSaturation(2, radius=1.0), 2)(
            S.ravel().tolist(), b.tolist(), 1e-12)
        free = b / (s + 1.0)
        exact = free if size / (s + 1.0) <= 1.0 else (size - 1.0) / s * b / size
        assert np.max(np.abs(ball - exact)) <= 10 * FP_TOL

    def test_matches_solver_on_an_isotropic_sign_plane(self):
        # the planar sign relation on both of its branches: forcings at unit
        # weighted norm, and thirty times that
        tpl = CatalogProblem.admissible(
            "sign_plane", constant_family(np.eye(2), np.zeros((2, 2))),
            NormSubdifferential(2, weight=1.0), TimeGrid(0.0, 1e-3, 60),
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
            grid=tpl.grid, c_tilde=tpl.c_tilde, rho=tpl.rho,
        )
        f = bad.signal(np.ones((30, 1)))
        with pytest.raises(ContractViolation):
            oracle_trajectory(bad, f)
        assert "oracle_match" not in harness.supported_checks(bad)

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

    def test_matches_solver_on_a_non_diagonal_family(self):
        # off the diagonal the oracle's products round apart from the solver's
        # BLAS calls; both saturation branches, at unit forcings and thirty times them
        fam = constant_family(np.array([[2.0, 0.7], [0.7, 1.5]]),
                              np.array([[0.3, 0.4], [-0.4, 0.5]]))
        tpl = CatalogProblem.admissible("tilted_ball", fam, BallSaturation(2),
                                        TimeGrid(0.0, 1e-3, 200))
        rng = np.random.default_rng(14)
        forcings = [random_forcing(tpl, rng) for _ in range(3)]
        forcings += [tpl.signal(30.0 * f.values) for f in forcings]
        saturated = set()
        for f, rep in zip(forcings, solve_batch([tpl.problem(f) for f in forcings])):
            ref = oracle_trajectory(tpl, f)
            assert np.max(np.abs(rep.solution.values - ref.values)) <= 10 * FP_TOL
            saturated |= set(np.linalg.norm(ref.values, axis=1) > tpl.relation.radius)
        assert saturated == {False, True}

    @pytest.mark.parametrize("name, branch", [
        ("scalar_ode", "linear branch residual too large"),
        # the free branch misses at tol = 0 and no saturated radius exists: the free one fails
        ("saturation_plane", "free branch residual too large"),
    ])
    def test_a_failure_names_its_node(self, name, branch):
        # a zero forcing is solved exactly, so with tol = 0 the first node to
        # fail is node 7, where a forcing of 30 starts
        tpl = make_catalog_problem(name, n=30)
        vals = np.zeros((30, tpl.dim))
        vals[7:] = 30.0
        with pytest.raises(StepFailure, match=f"^oracle: {branch} at node 7$") as failure:
            oracle_trajectory(tpl, tpl.signal(vals), tol=0.0)
        assert failure.value.step == 7
        assert failure.value.residual > 0.0

    def test_saturated_bisection_stops_at_its_fixed_point(self, monkeypatch):
        # halving stops once the midpoint is an end of the bracket; the roots
        # keep every bit of the pinned trajectories
        bisect, counts = harness._bisect_radius, []

        def counting(phi, lo, hi):
            calls = []
            root = bisect(lambda r: calls.append(r) or phi(r), lo, hi)
            counts.append(len(calls))
            return root

        monkeypatch.setattr(harness, "_bisect_radius", counting)
        [expected] = [pin for name, scale, pin in PINNED
                      if (name, scale) == ("saturation_plane", 30.0)]
        assert _digest("saturation_plane", 30.0) == expected
        assert counts and max(counts) <= 80

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
