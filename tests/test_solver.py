import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from evinc.catalog import CatalogProblem, catalog_names, make_catalog_problem
from evinc import relations, solver
from evinc.errors import ContractViolation, ResolventFailure, StepFailure, StepSizeError
from evinc.fixed_point import sq_norms
from evinc.gallery import Coefficient, SlabGrid, build_thermoplasticity
from evinc.harness import random_forcing
from evinc.materials import MaterialFamily, constant_family, sinusoidal_family, step_operator
from evinc.relations import (
    BallSaturation, LinearRelation, NormSubdifferential, YosidaRelation, ZeroRelation,
)
from evinc.signals import TimeGrid, WeightedSignal, weighted_norm
from evinc.solver import (
    InclusionProblem,
    _march,
    _node_plans,
    default_lambda_schedule,
    lipschitz_bound,
    lipschitz_certificate,
    solve,
    solve_batch,
    solve_step,
    yosida_delta,
    yosida_reference_bound,
)
from test_pinned_solutions import MOVING_TEMPLATES, _moving_plane


class TestSolveStep:
    def test_plain_linear_step(self):
        fam = constant_family([[1.0]], [[0.0]])
        u = solve_step(fam, ZeroRelation(1), t=0.5, dt=0.5,
                       prev_state=np.zeros(1), prev_m0u=np.zeros(1),
                       f_k=np.array([2.0]))
        assert u[0] == pytest.approx(1.0)

    def test_pure_algebraic_branch_exact(self):
        fam = constant_family([[0.0]], [[1.0]], c0=1.0, c1=1.0)
        u = solve_step(fam, ZeroRelation(1), t=0.0, dt=0.1,
                       prev_state=np.zeros(1), prev_m0u=np.zeros(1),
                       f_k=np.array([0.731]))
        assert u[0] == 0.731

    def test_sign_inclusion_step(self):
        # 10 u + sign(u) ∋ 2  ->  u = 0.1
        fam = constant_family([[1.0]], [[0.0]])
        u = solve_step(fam, NormSubdifferential(1, weight=1.0), t=0.0, dt=0.1,
                       prev_state=np.zeros(1), prev_m0u=np.zeros(1),
                       f_k=np.array([2.0]), fp_tol=1e-13)
        assert u[0] == pytest.approx(0.1, abs=1e-11)

    def test_budget_exit_raises_step_failure(self):
        # one map evaluation leaves the sign step short of its tolerance
        fam = constant_family([[1.0]], [[0.0]])
        with pytest.raises(StepFailure,
                           match=r"^forward-backward step 0 did not converge: budget after 1 iterations"):
            solve_step(fam, NormSubdifferential(1, weight=1.0), t=0.0, dt=0.1,
                       prev_state=np.zeros(1), prev_m0u=np.zeros(1), f_k=np.array([2.0]), fp_max_iter=1)

    @pytest.mark.parametrize("name, engine", [("scalar_ode", "direct"), ("sign_scalar", "forward-backward")])
    def test_overflowing_forcing_fails_without_a_numpy_warning(self, name, engine):
        # under the suite's filterwarnings = error a RuntimeWarning would end the step first
        tpl = make_catalog_problem(name, n=10)
        z = np.zeros(tpl.dim)
        with pytest.raises(StepFailure, match=rf"^{engine} step 0 did not converge: nonfinite"):
            solve_step(tpl.family, tpl.relation, t=0.0, dt=0.1, prev_state=z, prev_m0u=z,
                       f_k=np.full(tpl.dim, 1.5e308))

    @pytest.mark.parametrize(
        "name",
        ["scalar_ode", "saturation_plane", "sign_scalar", "viscoplastic_slab", "moving_sign_plane"],
        ids=["direct", "explicit_fb", "resolvent_fb", "douglas_rachford", "moving_douglas_rachford"],
    )
    def test_matches_the_march(self, name):
        # from the march's own state at node k-1, one step gives node k bit for
        # bit; the moving plane's march runs past its first planning block
        if name == "moving_sign_plane":
            family = sinusoidal_family(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5, 8.0)
            grid = TimeGrid(0.0, 1e-3, solver.PLAN_BLOCK + 4)
            tpl = CatalogProblem.admissible(name, family, NormSubdifferential(2), grid)
        else:
            tpl = make_catalog_problem(name, n=12)
        f = random_forcing(tpl, np.random.default_rng(12))
        u = solve(tpl.problem(f)).solution.values
        t0, dt = tpl.grid.t0, tpl.grid.dt
        for k in range(1, tpl.grid.n):
            m0u = np.asarray(tpl.family.M0_at(t0 + (k - 1) * dt), dtype=float) @ u[k - 1]
            step = solve_step(tpl.family, tpl.relation, t=t0 + k * dt, dt=dt,
                              prev_state=u[k - 1], prev_m0u=m0u, f_k=f.values[k])
            assert np.array_equal(step, u[k])


class TestSolveBasics:
    def test_implicit_recursion_and_analytic_limit(self):
        tpl = make_catalog_problem("scalar_ode", n=5001, dt=1e-3)
        f = tpl.signal(np.ones((tpl.grid.n, 1)))
        rep = solve(tpl.problem(f))
        assert rep.converged
        u = rep.solution.values[:, 0]
        # the recursion u_k = (u_{k-1} + dt) / (1 + dt)
        dt = tpl.grid.dt
        uk = 0.0
        for k in range(tpl.grid.n):
            uk = (uk + dt) / (1 + dt)
            assert abs(u[k] - uk) <= 1e-12
        exact = 1.0 - np.exp(-tpl.grid.times)
        assert np.max(np.abs(u - exact)) <= 5e-3

    def test_zero_forcing_zero_solution(self):
        for name in ("scalar_ode", "sign_scalar", "degenerate_plane", "saturation_plane"):
            tpl = make_catalog_problem(name, n=50)
            z = tpl.signal(np.zeros((tpl.grid.n, tpl.dim)))
            rep = solve(tpl.problem(z))
            assert np.all(rep.solution.values == 0.0)

    def test_sign_ramp_piecewise_linear(self):
        tpl = make_catalog_problem("sign_scalar", n=3001, dt=1e-3)
        t = tpl.grid.times
        f = tpl.signal(np.where((t >= 0) & (t < 1), 2.0, 0.0)[:, None])
        rep = solve(tpl.problem(f))
        exact = np.where(t < 1.0, np.clip(t, 0, None), np.clip(2.0 - t, 0.0, None))
        assert np.max(np.abs(rep.solution.values[:, 0] - exact)) <= 5e-3


class TestAdmission:
    def test_rho_below_threshold_rejected(self):
        tpl = make_catalog_problem("scalar_ode", n=20)
        f = WeightedSignal(tpl.grid, np.ones((20, 1)), 0.1)
        with pytest.raises(ContractViolation):
            InclusionProblem(
                family=tpl.family, relation=tpl.relation, forcing=f,
                rho=0.1, c_tilde=0.5,
            )

    def test_oversized_dt_rejected(self):
        fam = constant_family(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        grid = TimeGrid(0.0, 5.0, 10)  # dt above c0 / bracket
        f = WeightedSignal(grid, np.ones((10, 2)), 10.0)
        with pytest.raises(ContractViolation):
            InclusionProblem(
                family=fam, relation=ZeroRelation(2), forcing=f,
                rho=10.0, c_tilde=0.5,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_forcing_rejected(self, bad):
        tpl = make_catalog_problem("scalar_ode", n=50)
        values = np.ones((50, 1))
        values[3, 0] = bad
        with pytest.raises(ContractViolation):
            tpl.problem(tpl.signal(values))

    @pytest.mark.parametrize("fp_tol", [0.0, -1e-10, np.nan, np.inf])
    def test_bad_tolerance_rejected(self, fp_tol):
        tpl = make_catalog_problem("sign_scalar", n=20)
        with pytest.raises(ContractViolation):
            tpl.problem(tpl.signal(np.ones((20, 1))), fp_tol=fp_tol)

    def test_empty_iteration_budget_rejected(self):
        tpl = make_catalog_problem("sign_scalar", n=20)
        with pytest.raises(ContractViolation):
            tpl.problem(tpl.signal(np.ones((20, 1))), fp_max_iter=0)

    def test_relation_must_contain_origin(self):
        class Shifted(ZeroRelation):
            def __init__(self, dim):
                super().__init__(dim)
                self.contains_origin = False

        tpl = make_catalog_problem("scalar_ode", n=20)
        f = tpl.signal(np.ones((20, 1)))
        with pytest.raises(ContractViolation):
            InclusionProblem(
                family=tpl.family, relation=Shifted(1), forcing=f,
                rho=tpl.rho, c_tilde=tpl.c_tilde,
            )


class TestLipschitz:
    def test_identical_forcing_gives_zero(self):
        tpl = make_catalog_problem("scalar_ode", n=100)
        f = tpl.signal(np.ones((100, 1)))
        assert lipschitz_certificate(tpl.problem(f), f) == 0.0

    def test_scalar_bound(self):
        rng = np.random.default_rng(3)
        tpl = make_catalog_problem("scalar_ode", n=600)
        for _ in range(10):
            f = random_forcing(tpl, rng)
            g = random_forcing(tpl, rng)
            prob = tpl.problem(f)
            assert lipschitz_certificate(prob, g) <= lipschitz_bound(prob)

    def test_degenerate_bound(self):
        rng = np.random.default_rng(4)
        tpl = make_catalog_problem("degenerate_plane", n=600)
        for _ in range(10):
            f = random_forcing(tpl, rng)
            g = random_forcing(tpl, rng)
            prob = tpl.problem(f)
            assert lipschitz_certificate(prob, g) <= lipschitz_bound(prob)

    def test_zero_anchoring(self):
        # with (0,0) in the relation, |u| <= bound * |f|
        rng = np.random.default_rng(5)
        for name in ("sign_scalar", "saturation_plane"):
            tpl = make_catalog_problem(name, n=400)
            f = random_forcing(tpl, rng)
            prob = tpl.problem(f)
            rep = solve(prob)
            assert weighted_norm(rep.solution) <= lipschitz_bound(prob) * weighted_norm(f)


class TestCausalityAndWeight:
    def test_bitwise_prefix_agreement(self):
        rng = np.random.default_rng(6)
        for name in ("scalar_ode", "sign_scalar", "degenerate_plane"):
            tpl = make_catalog_problem(name, n=300)
            f = random_forcing(tpl, rng)
            g = random_forcing(tpl, rng)
            cut = 150
            gv = g.values.copy()
            gv[:cut] = f.values[:cut]
            rep_f = solve(tpl.problem(f))
            rep_g = solve(tpl.problem(tpl.signal(gv)))
            assert np.array_equal(
                rep_f.solution.values[:cut], rep_g.solution.values[:cut]
            )

    def test_weight_independence_bitwise(self):
        rng = np.random.default_rng(7)
        for name in ("scalar_ode", "sign_scalar"):
            tpl = make_catalog_problem(name, n=300)
            f = random_forcing(tpl, rng)
            ra, rb = tpl.admissible_rho_pair()
            rep_a = solve(tpl.problem(tpl.signal(f.values, ra), rho=ra))
            rep_b = solve(tpl.problem(tpl.signal(f.values, rb), rho=rb))
            assert np.array_equal(rep_a.solution.values, rep_b.solution.values)

    @pytest.mark.parametrize("name", ["scalar_ode", "degenerate_plane"])
    def test_exact_solution_operator(self, name):
        # on a linear template the solutions to the n*dim unit forcings are the columns
        # of the discrete solution operator: causal at every cut for every forcing, the
        # same bits at both weights, and within the gain bound in the weighted 2-norm
        n = 60
        tpl = make_catalog_problem(name, n=n)
        units = np.eye(n * tpl.dim).reshape(-1, n, tpl.dim)
        node = np.arange(n * tpl.dim) // tpl.dim
        ops = []
        for rho in tpl.admissible_rho_pair():
            reports = solve_batch([tpl.problem(tpl.signal(e, rho), rho=rho) for e in units])
            assert all(rep.converged for rep in reports)
            op = np.stack([rep.solution.values.ravel() for rep in reports], axis=1)
            assert np.all(op[node[:, None] < node[None, :]] == 0.0)
            w = np.repeat(np.sqrt(reports[0].solution.weights()), tpl.dim)
            gain = np.linalg.norm(w[:, None] * op / w[None, :], 2)
            assert gain <= lipschitz_bound(tpl.problem(tpl.signal(units[0], rho), rho=rho))
            ops.append(op)
        assert ops[0].tobytes() == ops[1].tobytes()

    def test_horizon_insensitivity_zero_past(self):
        # prepending a zero-forcing past leaves the common window bit-identical
        tpl_short = make_catalog_problem("sign_scalar", n=200, t0=0.0)
        tpl_long = make_catalog_problem("sign_scalar", n=300, t0=-0.1)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((200, 1))
        long_vals = np.vstack([np.zeros((100, 1)), vals])
        rep_s = solve(tpl_short.problem(tpl_short.signal(vals)))
        rep_l = solve(tpl_long.problem(tpl_long.signal(long_vals)))
        assert np.array_equal(rep_l.solution.values[100:], rep_s.solution.values)


class TestYosidaPath:
    def test_schedule_shape(self):
        lams = default_lambda_schedule()
        assert lams[0] == 1.0
        assert lams[-1] <= 1e-6
        assert all(b == a * 0.5 for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("kwargs", [
        {"start": 0.0}, {"start": -1.0}, {"stop": 0.0}, {"stop": -1e-6},
        {"factor": 1.0}, {"factor": 2.0}, {"factor": 0.0}, {"factor": -0.5},
        {"factor": float("nan")}, {"start": float("inf")},
    ])
    def test_schedule_rejects_arguments_that_never_reach_stop(self, kwargs):
        # checked before the loop: factor >= 1 or an infinite start would grow the list without bound
        with pytest.raises(ContractViolation, match="lambda schedule"):
            default_lambda_schedule(**kwargs)

    def test_agreement_and_bounded_trace(self):
        rng = np.random.default_rng(9)
        for name in ("sign_scalar", "saturation_plane"):
            tpl = make_catalog_problem(name, n=200)
            f = random_forcing(tpl, rng)
            direct = solve(tpl.problem(f))
            path = solve(tpl.problem(f, mode="yosida_path"))
            assert path.converged
            lam_min = path.lambda_trace[-1][0]
            err = np.max(np.abs(direct.solution.values - path.solution.values))
            assert err <= 10 * 1e-10 + 5 * lam_min
            norms = [nrm for _, nrm in path.lambda_trace]
            assert all(b <= 2.0 * a + 1e-9 for a, b in zip(norms, norms[1:]))
            assert yosida_delta(tpl.family) == 2.0 * (tpl.family.sup_M1 + tpl.family.lip_M0) + 1.0
            assert np.isfinite(yosida_reference_bound(tpl.problem(f, mode="yosida_path")))

    def test_custom_schedule_respected(self):
        tpl = make_catalog_problem("sign_scalar", n=100)
        f = tpl.signal(np.ones((100, 1)))
        path = solve(tpl.problem(f, mode="yosida_path", lambda_schedule=(0.5, 0.25, 0.125)))
        assert [lam for lam, _ in path.lambda_trace] == [0.5, 0.25, 0.125]

    def test_iterations_summed_over_stages(self):
        # stage j's cells read only stages up to j, so the march over the first j
        # stages gives them as the whole path does: the difference of two such
        # marches is stage j's iterations, at least one per node
        tpl = make_catalog_problem("viscoplastic_slab", n=21)
        f = random_forcing(tpl, np.random.default_rng(11))
        path = solve(tpl.problem(f, mode="yosida_path"))
        assert path.converged
        total = np.zeros(tpl.grid.n, dtype=int)
        linear, tail = tpl.relation.split()
        tails = [YosidaRelation(tail, lam) for lam in default_lambda_schedule()]
        for j in range(1, len(tails) + 1):
            plans = _node_plans(tpl.family, linear, tails[:j], tpl.grid.t0, tpl.grid.dt, tpl.grid.n)
            vals, iters, _, failures = _march(plans, f.values[None], tpl.grid.dt, tails[:j],
                                              1e-10, 200_000)
            assert failures == [None]
            stage = iters[0] - total
            assert stage.min() >= 1
            total += stage
        assert np.array_equal(vals[-1, 0], path.solution.values)
        assert path.per_step_iterations == total.tolist()
        assert sum(path.per_step_iterations) > sum(stage)

    def test_increasing_schedule_rejected(self):
        tpl = make_catalog_problem("sign_scalar", n=100)
        f = tpl.signal(np.ones((100, 1)))
        # a non-finite schedule too, though NaN and a leading inf pass the order check
        for schedule in ((0.25, 0.5), (1.0, float("nan")), (float("inf"), 0.5)):
            with pytest.raises(ContractViolation):
                tpl.problem(f, mode="yosida_path", lambda_schedule=schedule)


class TestReport:
    def test_residual_budget(self):
        rng = np.random.default_rng(10)
        tpl = make_catalog_problem("saturation_plane", n=300)
        rep = solve(tpl.problem(random_forcing(tpl, rng), fp_tol=1e-10))
        assert rep.max_residual <= 10 * 1e-10
        assert len(rep.per_step_iterations) == 300


class TestFailurePaths:
    def test_iteration_budget_exhaustion_reports_step(self):
        # the slab step contracts geometrically, so a 3-iteration budget
        # cannot reach tolerance from a cold start
        tpl = make_catalog_problem("thermoplastic_slab", n=10)
        f = tpl.signal(np.ones((10, tpl.dim)))
        rep = solve(tpl.problem(f, fp_tol=1e-14, fp_max_iter=3))
        assert rep.status == "failed"
        assert rep.fail_step == 0
        assert "did not converge" in rep.fail_reason

    def test_nonfinite_map_fails_fast_naming_the_node(self):
        # a saturation that breaks down (returns NaN) on its third call: node
        # 0 converges in two evaluations, node 1 stops at its first
        calls = []

        class Breaking(BallSaturation):
            def apply(self, x):
                calls.append(1)
                out = super().apply(x)
                return out * np.nan if len(calls) == 3 else out

        tpl = make_catalog_problem("saturation_plane", n=50)
        relation = Breaking(2, radius=tpl.relation.radius)
        f = tpl.signal(np.ones((50, 2)))
        assert solve(tpl.problem(f)).per_step_iterations[:2] == [2, 2]
        prob = InclusionProblem(
            family=tpl.family, relation=relation, forcing=f, rho=tpl.rho, c_tilde=tpl.c_tilde,
        )
        rep = solve(prob)
        assert rep.status == "failed"
        assert rep.fail_step == 1
        assert "step 1" in rep.fail_reason and "nonfinite" in rep.fail_reason
        assert len(calls) == 3

    def test_unreachable_tolerance_stalls_instead_of_spending_the_budget(self):
        # the budget is 200 000 evaluations per node
        tpl = make_catalog_problem("sign_scalar", n=80)
        f = random_forcing(tpl, np.random.default_rng(0))
        rep = solve(tpl.problem(f, fp_tol=1e-30))
        assert rep.status == "failed"
        assert "stalled after" in rep.fail_reason
        assert int(rep.fail_reason.split("stalled after ")[1].split()[0]) < 300

    def test_unreachable_resolvent_tolerance_raises_stalled(self, monkeypatch):
        monkeypatch.setattr(relations, "PICARD_TOL", 1e-30)
        rel = make_catalog_problem("viscoplastic_slab", n=10).relation
        y = 3.0 * np.random.default_rng(2).standard_normal(rel.dim)
        with pytest.raises(ResolventFailure, match="stalled") as raised:
            rel.resolve(0.5, y)
        # the step's last residual, as a StepFailure carries it
        assert math.isfinite(raised.value.residual) and raised.value.residual > 1e-30


def _coercive_until(node, dt=1e-3):
    """A scalar family whose step matrix 1/dt + M1(t) turns negative at ``node``.

    Its claims are those of a coercive family, so every problem on it is
    admitted; only planning the node sees the defect.
    """
    return MaterialFamily(
        dim=1, M0_at=lambda t: np.eye(1),
        M1_at=lambda t: np.eye(1) * (0.0 if t < (node - 0.5) * dt else -2.0 / dt),
        lip_M0=0.0, sup_M1=0.0, c0=1.0, c1=1.0, kernel_basis=np.zeros((1, 0)),
    )


def _counting_sq_norms(monkeypatch):
    """Record the shape of each array the march hands ``sq_norms``."""
    calls = []

    def counting(x):
        calls.append(x.shape)
        return sq_norms(x)

    monkeypatch.setattr(solver, "sq_norms", counting)
    return calls


FB, FBR, DR = "forward-backward", "forward-backward through the resolvent", "Douglas-Rachford"
# template -> node 0's engine in each stage, direct mode then the Yosida path; forward-backward
# through the resolvent is the one with no inverse
ENGINES = {
    "scalar_ode": (["direct"], ["direct"]),
    "degenerate_plane": (["direct"], ["direct"]),
    "sign_scalar": ([FBR], [FB] * 3 + [FBR] * 18),
    "saturation_plane": ([FB], [FB] * 3 + [FBR] * 18),
    "thermoplastic_slab": ([FB], [FB] * 3 + [DR] * 18),
    "viscoplastic_slab": ([DR], [FB] * 3 + [DR] * 18),
}


class TestNodePlans:
    def _template(self, node, n=20, relation=None):
        grid = TimeGrid(0.0, 1e-3, n)
        relation = NormSubdifferential(1) if relation is None else relation
        return CatalogProblem.admissible("turning", _coercive_until(node), relation, grid)

    @pytest.mark.parametrize("relation", [NormSubdifferential(1), ZeroRelation(1)],
                             ids=["NormSubdifferential", "ZeroRelation"])
    def test_non_coercive_node_raises_when_the_march_reaches_it(self, monkeypatch, relation):
        # with no tail every cell is direct: the march still raises at node 5,
        # before it takes any of the residuals it defers
        tpl = self._template(5, relation=relation)
        calls = _counting_sq_norms(monkeypatch)
        with pytest.raises(StepSizeError) as planned:
            solve(tpl.problem(tpl.signal(np.full((20, 1), 5.0))))
        assert calls == []
        with pytest.raises(StepSizeError) as alone:
            step_operator(tpl.family, 5 * tpl.grid.dt, tpl.grid.dt)
        assert str(planned.value) == str(alone.value)
        assert planned.value.suggested_dt == alone.value.suggested_dt
        # the nodes before it are planned and handed out first
        linear, tail = tpl.relation.split()
        plans = _node_plans(tpl.family, linear, [tail], 0.0, tpl.grid.dt, 20)
        seen = []
        with pytest.raises(StepSizeError):
            for plan in plans:
                seen.append(plan)
        assert len(seen) == 5

    @pytest.mark.parametrize("mode", ["direct", "yosida_path"])
    @pytest.mark.parametrize("name", list(ENGINES))
    def test_each_template_gets_its_engines(self, monkeypatch, name, mode):
        # node 0's rule in each stage, as the planner hands it to the march
        plan, seen = solver._node_plans, []

        def recording(*args):
            plans = plan(*args)
            first = next(plans)
            seen.append([FBR if rule == FB and inv is None else rule for rule, _, inv in first[2]])
            yield first
            yield from plans

        monkeypatch.setattr(solver, "_node_plans", recording)
        tpl = make_catalog_problem(name, n=3)
        assert solve(tpl.problem(random_forcing(tpl, np.random.default_rng(3)), mode=mode)).converged
        assert seen == [ENGINES[name][mode == "yosida_path"]]

    def test_no_error_for_a_node_every_member_failed_before(self):
        # with one evaluation per node every member fails at node 0, so the
        # march never asks for node 5, although its block holds it
        tpl = self._template(5)
        forcing = tpl.signal(np.full((20, 1), 5.0))
        reports = solve_batch([tpl.problem(forcing, fp_max_iter=1)] * 2)
        assert [(rep.status, rep.fail_step) for rep in reports] == [("failed", 0)] * 2

    def test_no_error_for_a_node_every_direct_member_failed_before(self):
        # with no tail the march keeps a failed member; a forcing of 1.5e308
        # overflows b at node 1, both members fail there when the first plan
        # block's residuals are taken, and the march stops before node 40
        tpl = self._template(40, n=60, relation=ZeroRelation(1))
        forcing = tpl.signal(np.full((60, 1), 1.5e308))
        with np.errstate(over="ignore", invalid="ignore"):
            reports = solve_batch([tpl.problem(forcing)] * 2)
        assert [(rep.status, rep.fail_step) for rep in reports] == [("failed", 1)] * 2


# a moving plane whose linear relation is not symmetric
LINEAR_PLANE = _moving_plane(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                             LinearRelation([[1.0, 0.5], [-0.5, 1.0]]))


def _direct_template(name, n):
    """A catalog template, a moving plane of test_pinned_solutions or LINEAR_PLANE, on n nodes."""
    moving = {**MOVING_TEMPLATES, "moving_linear_plane": LINEAR_PLANE}
    if name in moving:
        return moving[name](name, TimeGrid(t0=0.0, dt=1e-3, n=n))
    return make_catalog_problem(name, n=n)


def _node_residual_max(problem, rep):
    """max over nodes of |(S_k + K) u_k - b_k| / (1 + |b_k|), one node at a time.

    ``b_k = f_k + M0(t_{k-1}) u_{k-1} / dt`` from the report's solution, on
    the march's own plans, each product and dot product on one vector.
    """
    grid = problem.forcing.grid
    linear, tail = problem.relation.split()
    plans = _node_plans(problem.family, linear, [tail], grid.t0, grid.dt, grid.n)
    worst, m0u = 0.0, np.zeros(problem.family.dim)
    for (M0, lam, _), u, f in zip(plans, rep.solution.values, problem.forcing.values):
        b = f + m0u / grid.dt
        r = lam @ u - b
        worst = max(worst, math.sqrt(r @ r) / (1.0 + math.sqrt(b @ b)))
        m0u = M0 @ u
    return worst


class TestDirectResiduals:
    """A direct cell is its linear solve; the march takes its residuals after the waves."""

    @pytest.mark.parametrize("mode", ["direct", "yosida_path"])
    @pytest.mark.parametrize(
        "name", ["scalar_ode", "degenerate_plane", "moving_scalar_ode", "moving_degenerate_plane"]
    )
    def test_block_residual_is_the_per_node_formula(self, name, mode):
        # solo and in a 16-member batch; the moving planes run past three plan blocks
        tpl = _direct_template(name, 60)
        rng = np.random.default_rng(len(name))
        problems = [tpl.problem(random_forcing(tpl, rng), mode=mode) for _ in range(16)]
        for reports in ([solve(problems[0])], solve_batch(problems)):
            for p, rep in zip(problems, reports):
                assert rep.converged
                assert float(rep.max_residual).hex() == float(_node_residual_max(p, rep)).hex()
                assert rep.per_step_iterations == [1] * tpl.grid.n  # one stage in either mode

    @pytest.mark.parametrize("name", [
        "scalar_ode", "degenerate_plane", "moving_scalar_ode", "moving_degenerate_plane",
        "moving_linear_plane",
    ])
    def test_a_tailless_path_is_its_direct_march(self, name):
        # with no tail the path marches one stage, solo and in a 16-member batch:
        # the direct march, whose image norm it reports at every scheduled lambda
        tpl = _direct_template(name, 60)
        rng = np.random.default_rng(len(name))
        forcings = [random_forcing(tpl, rng) for _ in range(16)]
        solo = [solve(tpl.problem(forcings[0])), solve(tpl.problem(forcings[0], mode="yosida_path"))]
        batch = [solve_batch([tpl.problem(f, mode=mode) for f in forcings])
                 for mode in ("direct", "yosida_path")]
        for direct, path in [solo, *zip(*batch)]:
            assert path.solution.values.tobytes() == direct.solution.values.tobytes()
            assert float(path.max_residual).hex() == float(direct.max_residual).hex()
            assert path.status == direct.status == "converged"
            assert path.per_step_iterations == direct.per_step_iterations == [1] * tpl.grid.n
            assert [lam for lam, _ in path.lambda_trace] == default_lambda_schedule()
            assert len({float(norm).hex() for _, norm in path.lambda_trace}) == 1

    def test_constant_march_takes_its_residuals_at_once(self, monkeypatch):
        # one sq_norms pair per march, for a batch or a solve, whatever n
        calls = _counting_sq_norms(monkeypatch)
        counts = []
        for n in (50, 100):
            tpl = make_catalog_problem("degenerate_plane", n=n)
            rng = np.random.default_rng(n)
            problems = [tpl.problem(random_forcing(tpl, rng)) for _ in range(4)]
            calls.clear()
            assert all(rep.converged for rep in solve_batch(problems) + [solve(problems[0])])
            counts.append(len(calls))
        assert counts == [4, 4]

    @pytest.mark.parametrize("mode", ["direct", "yosida_path"])
    @pytest.mark.parametrize("name, start", [
        ("scalar_ode", 0), ("degenerate_plane", 0), ("moving_scalar_ode", 20),
    ])
    def test_nonfinite_direct_node_fails(self, name, mode, start):
        # a forcing of 1.5e308 is finite, but from node `start` on b overflows at
        # the next node; the moving plane fails past its first plan block, and
        # the normal members around it keep their solo reports
        tpl = _direct_template(name, 40)
        values = np.zeros((40, tpl.dim))
        values[start:] = 1.5e308
        huge = tpl.problem(tpl.signal(values), mode=mode)
        normal = tpl.problem(random_forcing(tpl, np.random.default_rng(4)), mode=mode)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = solve(huge)
            batch = solve_batch([normal, huge, normal])
        assert (rep.status, rep.fail_step) == ("failed", start + 1)
        assert rep.fail_reason.startswith(
            f"direct step {start + 1} did not converge: nonfinite after 1 iterations (residual "
        )
        assert _same_report(batch[1], rep)
        alone = solve(normal)
        assert alone.converged
        assert _same_report(batch[0], alone) and _same_report(batch[2], alone)


def _counting(family):
    """The family with M0_at and M1_at that record each time they are asked for."""
    m0_calls, m1_calls = [], []

    def m0_at(t):
        m0_calls.append(t)
        return family.M0_at(t)

    def m1_at(t):
        m1_calls.append(t)
        return family.M1_at(t)

    return replace(family, M0_at=m0_at, M1_at=m1_at), m0_calls, m1_calls


def _same_report(batch, alone):
    """Bit for bit the same answer, iterations, residual, stage norms and outcome."""
    return (
        batch.solution.values.tobytes() == alone.solution.values.tobytes()
        and batch.per_step_iterations == alone.per_step_iterations
        and float(batch.max_residual).hex() == float(alone.max_residual).hex()
        and [(lam, float(nrm).hex()) for lam, nrm in batch.lambda_trace]
        == [(lam, float(nrm).hex()) for lam, nrm in alone.lambda_trace]
        and (batch.status, batch.fail_step, batch.fail_reason)
        == (alone.status, alone.fail_step, alone.fail_reason)
    )


def _members(tpl, mode, seed, count=7, low=-3, **kwargs):
    """``count`` problems on ``tpl``, forcings scaled by 10**[low, 1), at both admissible weights."""
    rng = np.random.default_rng(seed)
    out = []
    for rho in itertools.islice(itertools.cycle(tpl.admissible_rho_pair()), count):
        values = random_forcing(tpl, rng).values * 10.0 ** rng.uniform(low, 1)
        out.append(tpl.problem(tpl.signal(values, rho), rho=rho, mode=mode, **kwargs))
    return out


#: (status, fail_step, fail_reason, per_step_iterations) of each distinct member of the
#: Yosida cases of test_a_failed_member_drops_out_alone, recorded before the march
#: solved its cells in waves. On the viscoplastic slab the sixth member fails in
#: stage 5 and the others that fail in stage 3, so the pins fix which failure a
#: member reports: the first one of its lowest failing stage.
FAILED_YOSIDA_MEMBERS = {
    'thermoplastic_slab': [
        ('failed', 3, 'forward-backward step 3 did not converge: budget after 4 iterations (residual 1.101e-10)', []),
        ('failed', 0, 'forward-backward step 0 did not converge: budget after 4 iterations (residual 1.091e-04)', []),
        ('failed', 2, 'forward-backward step 2 did not converge: budget after 4 iterations (residual 3.308e-10)', []),
        ('converged', None, None, [23, 23, 23, 28, 38, 40, 40, 41, 41, 41]),
        ('failed', 0, 'forward-backward step 0 did not converge: budget after 4 iterations (residual 2.503e-10)', []),
        ('failed', 0, 'forward-backward step 0 did not converge: budget after 4 iterations (residual 3.520e-06)', []),
        ('failed', 0, 'forward-backward step 0 did not converge: budget after 4 iterations (residual 4.041e-07)', []),
        ('failed', 0, 'forward-backward step 0 did not converge: budget after 4 iterations (residual 1.736e-04)', []),
        ('failed', 0, 'forward-backward step 0 did not converge: budget after 4 iterations (residual 8.760e-10)', []),
        ('failed', 0, 'forward-backward step 0 did not converge: budget after 4 iterations (residual 5.431e-09)', []),
        ('failed', 1, 'forward-backward step 1 did not converge: budget after 4 iterations (residual 1.239e-10)', []),
        ('failed', 0, 'forward-backward step 0 did not converge: budget after 4 iterations (residual 1.865e-07)', []),
    ],
    'viscoplastic_slab': [
        ('failed', 0, 'Douglas-Rachford step 0 did not converge: budget after 4 iterations (residual 3.705e-10)', []),
        ('converged', None, None, [79, 79, 79, 79, 79, 79, 79, 80, 80, 80]),
        ('failed', 0, 'Douglas-Rachford step 0 did not converge: budget after 4 iterations (residual 1.037e-08)', []),
        ('failed', 7, 'Douglas-Rachford step 7 did not converge: budget after 4 iterations (residual 1.194e-10)', []),
        ('failed', 0, 'Douglas-Rachford step 0 did not converge: budget after 4 iterations (residual 1.709e-10)', []),
        ('failed', 9, 'Douglas-Rachford step 9 did not converge: budget after 4 iterations (residual 1.002e-10)', []),
        ('converged', None, None, [33, 34, 35, 37, 40, 38, 40, 40, 42, 42]),
        ('failed', 1, 'Douglas-Rachford step 1 did not converge: budget after 4 iterations (residual 1.068e-10)', []),
        ('failed', 0, 'Douglas-Rachford step 0 did not converge: budget after 4 iterations (residual 2.204e-08)', []),
        ('converged', None, None, [22, 22, 22, 32, 22, 22, 25, 27, 25, 30]),
        ('converged', None, None, [79, 79, 79, 79, 79, 79, 79, 79, 79, 79]),
        ('converged', None, None, [79, 79, 79, 79, 79, 79, 79, 79, 79, 79]),
    ],
}


class TestBatch:
    """A member of a batch gets the report solve gives it alone, wherever it stands."""

    @pytest.mark.parametrize("mode", ["direct", "yosida_path"])
    @pytest.mark.parametrize("name", catalog_names())
    def test_members_get_their_solo_reports(self, name, mode):
        tpl = make_catalog_problem(name, n=6 if name.endswith("slab") else 30)
        distinct = _members(tpl, mode, seed=len(name))
        alone = [solve(p) for p in distinct]
        rng = np.random.default_rng(1)
        for picks in ([3], rng.permutation(7), rng.permutation(np.arange(100) % 7)):
            reports = solve_batch([distinct[i] for i in picks])
            assert len(reports) == len(picks)
            for i, rep in zip(picks, reports):
                assert rep.converged
                assert _same_report(rep, alone[i])

    @pytest.mark.parametrize("name, mode, budget, seed", [
        ("thermoplastic_slab", "direct", 4, 1),
        ("thermoplastic_slab", "yosida_path", 4, 1),
        ("viscoplastic_slab", "direct", 6, 1),
        ("viscoplastic_slab", "yosida_path", 4, 0),
    ])
    def test_a_failed_member_drops_out_alone(self, name, mode, budget, seed):
        # at this budget some members fail, some at a later node than others
        # or in a later stage, and the others converge; each gets its own
        # solo report
        tpl = make_catalog_problem(name, n=10)
        distinct = _members(tpl, mode, seed, count=12, low=-8, fp_max_iter=budget)
        rng = np.random.default_rng(2)
        picks = rng.permutation(np.arange(30) % 12)
        reports = solve_batch([distinct[i] for i in picks])
        alone = [solve(p) for p in distinct]
        for i, rep in zip(picks, reports):
            assert _same_report(rep, alone[i])
        steps = {rep.fail_step for rep in reports}
        assert None in steps and len(steps - {None, 0}) >= 1

    @pytest.mark.parametrize("name, seed", [("thermoplastic_slab", 1), ("viscoplastic_slab", 0)])
    def test_failed_yosida_members_pinned(self, name, seed):
        # the Yosida cases above, each member's outcome as recorded, in a batch and alone
        tpl = make_catalog_problem(name, n=10)
        distinct = _members(tpl, "yosida_path", seed, count=12, low=-8, fp_max_iter=4)
        for reports in (solve_batch(distinct), [solve(p) for p in distinct]):
            got = [(r.status, r.fail_step, r.fail_reason, r.per_step_iterations) for r in reports]
            assert got == FAILED_YOSIDA_MEMBERS[name]

    def test_any_list_marches_key_by_key(self, monkeypatch):
        # the base problem interleaved with problems that each differ in one
        # march setting: every member gets its solo report, in input order
        tpl = make_catalog_problem("sign_scalar", n=20)
        other = make_catalog_problem("sign_scalar", n=20)
        longer = make_catalog_problem("sign_scalar", n=21)
        rng = np.random.default_rng(8)
        base = tpl.problem(random_forcing(tpl, rng))
        odd = [
            other.problem(random_forcing(other, rng)),  # another family and relation object
            tpl.problem(random_forcing(tpl, rng), mode="yosida_path"),
            tpl.problem(random_forcing(tpl, rng), fp_tol=1e-9),
            tpl.problem(random_forcing(tpl, rng), fp_max_iter=50),
            longer.problem(random_forcing(longer, rng)),  # another grid
            tpl.problem(random_forcing(tpl, rng), lambda_schedule=(0.5, 0.25)),  # not read
        ]
        problems = [q for p in odd for q in (base, p)]
        alone = [solve(p) for p in problems]
        march, sizes = solver._march, []

        def counting(plans, forcing, *args, **kwargs):
            sizes.append(len(forcing))
            return march(plans, forcing, *args, **kwargs)

        monkeypatch.setattr(solver, "_march", counting)
        reports = solve_batch(problems)
        assert len(reports) == len(problems)
        assert all(_same_report(rep, ref) for rep, ref in zip(reports, alone))
        # one march per key in order of first appearance: the six bases with
        # the direct problem whose schedule direct mode never reads, then each
        # odd problem alone, the Yosida one with all its stages
        assert sizes == [7, 1, 1, 1, 1, 1]
        assert solve_batch([]) == []

    def test_certificate_pair_is_one_batch(self, monkeypatch):
        tpl = make_catalog_problem("saturation_plane", n=40)
        rng = np.random.default_rng(4)
        f, g = random_forcing(tpl, rng), random_forcing(tpl, rng)
        prob = tpl.problem(f)
        batches = []
        monkeypatch.setattr(solver, "solve_batch", lambda ps: batches.append(ps) or solve_batch(ps))
        gain = lipschitz_certificate(prob, g)
        assert [len(b) for b in batches] == [2]
        rep_f, rep_g = solve(prob), solve(tpl.problem(g))
        diff = weighted_norm(f.with_values(rep_f.solution.values - rep_g.solution.values))
        assert gain == diff / weighted_norm(f.with_values(f.values - g.values))


class TestCoefficientEvaluations:
    """M0(t) and M1(t) are evaluated once per plan: once per march, or once per node if they move.

    A solve reads the coefficients only through its node plans, in either
    mode: the Yosida path's reference bound is a function of the problem
    (``yosida_reference_bound``), not part of the solve.
    """

    @pytest.mark.parametrize("n", [3, 30])
    def test_constant_slab_count_does_not_grow_with_n(self, n):
        tpl = make_catalog_problem("thermoplastic_slab", n=n)
        fam, m0_calls, m1_calls = _counting(tpl.family)
        f = random_forcing(tpl, np.random.default_rng(n))
        direct = replace(tpl.problem(f), family=fam)
        assert solve(direct).converged
        assert len(m0_calls) == len(m1_calls) == 1
        m0_calls.clear()
        m1_calls.clear()
        schedule = (1.0, 0.1, 0.01)
        path = replace(tpl.problem(f, mode="yosida_path", lambda_schedule=schedule), family=fam)
        assert solve(path).converged
        # one plan for every stage
        assert len(m0_calls) == len(m1_calls) == 1

    def test_time_dependent_plane_once_per_node(self):
        fam = sinusoidal_family(np.eye(2), np.zeros((2, 2)), amplitude=0.3, frequency=2.0)
        counted, m0_calls, m1_calls = _counting(fam)
        grid = TimeGrid(0.0, 1e-3, 25)
        relation = BallSaturation(2, radius=0.5)
        tpl = CatalogProblem.admissible("sinusoidal_plane", counted, relation, grid)
        f = random_forcing(tpl, np.random.default_rng(3))
        rep = solve(tpl.problem(f))
        assert rep.converged
        assert m0_calls == m1_calls == [grid.t0 + k * grid.dt for k in range(grid.n)]
        # the evaluation it saves changes no bit of the answer
        same = solve(replace(tpl, family=fam).problem(f))
        assert np.array_equal(rep.solution.values, same.solution.values)

    def test_moving_slab_yosida_path_once_per_node(self):
        # one plan per node serves all 21 stages
        model = build_thermoplasticity(
            SlabGrid(), M=Coefficient(1.0, 0.3, 2.0), kappa=Coefficient(1.0, 0.4, 0.5)
        )
        counted, m0_calls, m1_calls = _counting(model.family)
        grid = TimeGrid(0.0, 1e-3, 101)
        tpl = CatalogProblem.admissible("moving_thermoplastic_slab", counted, model.relation, grid)
        rep = solve(tpl.problem(random_forcing(tpl, np.random.default_rng(12)), mode="yosida_path"))
        assert rep.converged
        assert len(rep.lambda_trace) == len(default_lambda_schedule())
        assert m0_calls == m1_calls == [grid.t0 + k * grid.dt for k in range(grid.n)]

    def test_time_dependent_plane_batch_once_per_node(self):
        # one plan per node serves all seven members
        fam = sinusoidal_family(np.eye(2), np.zeros((2, 2)), amplitude=0.3, frequency=2.0)
        counted, m0_calls, m1_calls = _counting(fam)
        grid = TimeGrid(0.0, 1e-3, 25)
        relation = BallSaturation(2, radius=0.5)
        tpl = CatalogProblem.admissible("sinusoidal_plane", counted, relation, grid)
        problems = _members(tpl, "direct", seed=5)
        reports = solve_batch(problems)
        assert all(rep.converged for rep in reports)
        assert m0_calls == m1_calls == [grid.t0 + k * grid.dt for k in range(grid.n)]
        plain = replace(tpl, family=fam)
        for p, rep in zip(problems, reports):
            assert _same_report(rep, solve(plain.problem(p.forcing, rho=p.rho)))

    @pytest.mark.parametrize("mode, stages", [("direct", 1), ("yosida_path", 3)])
    def test_constant_slab_batch_once_per_march(self, mode, stages):
        # one plan serves every member and every stage
        tpl = make_catalog_problem("thermoplastic_slab", n=5)
        fam, m0_calls, m1_calls = _counting(tpl.family)
        schedule = (1.0, 0.1, 0.01)[:stages]
        problems = [replace(p, family=fam) for p in _members(tpl, mode, 6, lambda_schedule=schedule)]
        assert all(rep.converged for rep in solve_batch(problems))
        assert len(m0_calls) == len(m1_calls) == 1
