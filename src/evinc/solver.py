"""Causal implicit stepper for degenerate evolutionary inclusions.

Marches (M0(t_k) u_k - M0(t_{k-1}) u_{k-1})/dt + M1(t_k) u_k + A(u_k) ∋ f_k
forward in time with a zero past. Each step solves the stationary inclusion
S u + A(u) ∋ b with S = M0(t_k)/dt + M1(t_k), using only resolvents of A:

- no relation, or a purely linear one: a single linear solve;
- single-valued cocoercive tail (projection-type): forward-backward with the
  whole linear part treated implicitly;
- otherwise, forward-backward through the tail resolvent when the step
  matrix is well conditioned, and Douglas-Rachford between the affine part
  and the tail resolvent when it is stiff (the degenerate regime).

Every iterative engine runs safeguarded Anderson(5) on one fixed-point
kernel (``fixed_point.fixed_point``), which also owns the stop rule, the
iteration budget, the divergence guard and the non-finite exit.

The weight rho is used for admission checks and norms only — it never enters
the stepping arithmetic, so solutions agree bit for bit across admissible
weights, and the march is strictly causal: node k sees f_0..f_k only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import derivative
from .errors import ContractViolation, StepFailure
from .fixed_point import CONVERGED, fixed_point
from .materials import MaterialFamily, dt_max, rho_zero, step_operator
from .relations import MonotoneRelation, StructuredSum, YosidaRelation
from .signals import WeightedSignal, weighted_norm

__all__ = [
    "InclusionProblem",
    "SolveReport",
    "solve",
    "solve_step",
    "lipschitz_certificate",
    "lipschitz_bound",
    "default_lambda_schedule",
]


def default_lambda_schedule(start: float = 1.0, stop: float = 1e-6, factor: float = 0.5):
    """Geometric regularization schedule; warm starts keep each stage cheap."""
    lams = [float(start)]
    while lams[-1] > stop:
        lams.append(lams[-1] * factor)
    return lams


@dataclass(frozen=True)
class InclusionProblem:
    """A material family, a relation, a forcing signal and solver knobs."""

    family: MaterialFamily
    relation: MonotoneRelation
    forcing: WeightedSignal
    rho: float
    c_tilde: float
    mode: str = "direct"
    lambda_schedule: tuple = None
    fp_tol: float = 1e-10
    fp_max_iter: int = 200_000

    def __post_init__(self):
        if not np.all(np.isfinite(self.forcing.values)):
            raise ContractViolation("forcing values must be finite")
        if not (np.isfinite(self.fp_tol) and self.fp_tol > 0):
            raise ContractViolation(f"fp_tol must be finite and positive, got {self.fp_tol}")
        if self.fp_max_iter < 1:
            raise ContractViolation(f"fp_max_iter must be at least 1, got {self.fp_max_iter}")
        if self.mode not in ("direct", "yosida_path"):
            raise ContractViolation(f"mode must be 'direct' or 'yosida_path', got {self.mode!r}")
        if self.forcing.dim != self.family.dim or self.relation.dim != self.family.dim:
            raise ContractViolation("family, relation and forcing dimensions disagree")
        if not self.relation.contains_origin:
            raise ContractViolation("the relation must contain (0, 0)")
        rho0 = rho_zero(self.family, self.c_tilde)
        if self.rho < rho0:
            raise ContractViolation(
                f"rho={self.rho} below the admissible threshold {rho0:.6g}"
            )
        step_bound = dt_max(self.family, self.c_tilde)
        if self.forcing.grid.dt > step_bound * (1.0 + 1e-12):
            raise ContractViolation(
                f"dt={self.forcing.grid.dt} exceeds the admissible step {step_bound:.6g}"
            )
        if self.rho != self.forcing.rho:
            raise ContractViolation("problem rho and forcing rho disagree")
        if self.lambda_schedule is not None:
            lams = tuple(float(l) for l in self.lambda_schedule)
            if not lams or any(l <= 0 for l in lams):
                raise ContractViolation("lambda schedule must be nonempty and positive")
            if any(b >= a for a, b in zip(lams, lams[1:])):
                raise ContractViolation("lambda schedule must be strictly decreasing")
            object.__setattr__(self, "lambda_schedule", lams)

    def schedule(self):
        if self.lambda_schedule is not None:
            return list(self.lambda_schedule)
        return default_lambda_schedule()


@dataclass
class SolveReport:
    """Solution plus convergence diagnostics; produced once, never mutated.

    ``per_step_iterations[k]`` counts the fixed-point map evaluations spent
    on node k; on the Yosida path it is the sum over all lambda-stages.
    ``max_residual`` is the largest stop residual over the nodes of the
    (last) march.
    """

    solution: WeightedSignal
    per_step_iterations: list
    max_residual: float
    status: str
    fail_step: int = None
    fail_reason: str = None
    lambda_trace: list = field(default_factory=list)
    yosida_sup_norm: float = None
    delta: float = None
    yosida_reference_bound: float = None

    @property
    def converged(self):
        return self.status == "converged"


# ---------------------------------------------------------------------------
# per-step engines


class _StepEngine:
    """Solves S u + A(u) ∋ b for the marching loop, one prepared plan per S.

    The engine choice depends only on the relation's structure, never on the
    data, so identical inputs reproduce identical iterates.
    """

    def __init__(self, relation: MonotoneRelation, fp_tol: float, fp_max_iter: int):
        self.fp_tol = fp_tol
        self.fp_max_iter = fp_max_iter
        self.linear, self.tail = relation.split()
        if self.tail is None:
            self.kind = "direct"
        elif (
            self.tail.single_valued
            and self.tail.cocoercivity >= 0.25
            and self.tail.lipschitz is not None
        ):
            self.kind = "forward_backward"
        else:
            self.kind = "douglas_rachford"

    def prepare(self, S: np.ndarray, margin: float):
        """Per-time-node plan: (engine name, step(b, warm) -> (u, iterations, residual, reason))."""
        lam_mat = S if self.linear is None else S + self.linear
        eye = np.eye(S.shape[0])
        tail = self.tail
        if self.kind == "direct":
            inv = np.linalg.inv(lam_mat)

            def direct(b, warm):
                u = inv @ b
                res = float(np.linalg.norm(lam_mat @ u - b) / (1.0 + np.linalg.norm(b)))
                return u, 1, res, CONVERGED

            return "direct", direct
        if self.kind == "forward_backward":
            # the whole linear part implicit, the cocoercive tail explicit
            gamma = min(tail.cocoercivity, 1.0)
            inv = np.linalg.inv(eye + gamma * lam_mat)

            def fb(u, b):
                u_new = inv @ (u - gamma * tail.apply(u) + gamma * b)
                return u_new, u_new

            return "forward-backward", self._iterate(fb)
        sym = 0.5 * (lam_mat + lam_mat.T)
        m_hat = float(np.min(np.linalg.eigvalsh(sym)))
        big = float(np.linalg.norm(lam_mat, 2))
        if m_hat <= 0:
            # margin of S is positive, so this only happens for a
            # non-monotone linear part, rejected at relation build time
            m_hat = margin
        if m_hat / big >= 0.9:
            # well-conditioned step: plain forward-backward through the
            # tail resolvent contracts at sqrt(1 - (m/L)^2) and beats
            # the splitting; gamma = m/L^2 minimizes the factor
            gamma = m_hat / big**2

            def resolvent_fb(u, b):
                u_new = tail.resolve(gamma, u - gamma * (lam_mat @ u - b))
                return u_new, u_new

            return "forward-backward", self._iterate(resolvent_fb)
        # stiff step: Douglas-Rachford between the affine part and the tail
        gamma = 1.0 / np.sqrt(m_hat * big)
        inv = np.linalg.inv(eye + gamma * lam_mat)

        def dr(z, b):
            x = inv @ (z + gamma * b)
            w = tail.resolve(gamma, 2.0 * x - z)
            return z + (w - x), w

        return "Douglas-Rachford", self._iterate(dr)

    def _iterate(self, G):
        return lambda b, warm: fixed_point(
            lambda x: G(x, b), warm, self.fp_tol, self.fp_max_iter
        )


def _run_step(plan, b, warm, step_index):
    """One node through its plan; a stop other than convergence is a StepFailure."""
    name, step = plan
    u, iters, res, reason = step(b, warm)
    if reason != CONVERGED:
        raise StepFailure(
            f"{name} step {step_index} did not converge: {reason} after "
            f"{iters} iterations (residual {res:.3e})",
            step=step_index,
            residual=res,
        )
    return u, iters, res


def _march(
    family: MaterialFamily,
    relation: MonotoneRelation,
    forcing: np.ndarray,
    t0: float,
    dt: float,
    fp_tol: float,
    fp_max_iter: int,
    warm_values: np.ndarray = None,
):
    """Causal sweep over the grid; returns (values, iteration counts, residual)."""
    n, dim = forcing.shape
    engine = _StepEngine(relation, fp_tol, fp_max_iter)
    out = np.empty_like(forcing)
    iterations = []
    max_res = 0.0
    prev_state = np.zeros(dim)
    prev_m0u = np.zeros(dim)  # M0(t_{-1}) @ 0: the implicit zero past
    plan = None
    for k in range(n):
        t = t0 + k * dt
        if plan is None or not family.constant:
            plan = engine.prepare(*step_operator(family, t, dt))
        b = forcing[k] + prev_m0u / dt
        warm = warm_values[k] if warm_values is not None else prev_state
        u, iters, res = _run_step(plan, b, warm, k)
        out[k] = u
        iterations.append(iters)
        max_res = max(max_res, res)
        prev_m0u = np.asarray(family.M0_at(t), dtype=float) @ u
        prev_state = u
    return out, iterations, max_res


def solve_step(
    family: MaterialFamily,
    relation: MonotoneRelation,
    t: float,
    dt: float,
    prev_state: np.ndarray,
    prev_m0u: np.ndarray,
    f_k: np.ndarray,
    fp_tol: float = 1e-10,
    fp_max_iter: int = 200_000,
) -> np.ndarray:
    """One implicit step: S u + A(u) ∋ f_k + prev_m0u/dt, warm-started at prev_state.

    ``prev_m0u`` is M0(t - dt) @ prev_state; pass None to have it computed.
    """
    prev_state = np.asarray(prev_state, dtype=float)
    if prev_m0u is None:
        prev_m0u = np.asarray(family.M0_at(t - dt), dtype=float) @ prev_state
    plan = _StepEngine(relation, fp_tol, fp_max_iter).prepare(*step_operator(family, t, dt))
    b = np.asarray(f_k, dtype=float) + np.asarray(prev_m0u, dtype=float) / dt
    u, _, _ = _run_step(plan, b, prev_state, 0)
    return u


def _yosida_stage(relation: MonotoneRelation, lam: float) -> MonotoneRelation:
    """Stage relation with the nonlinear tail replaced by its Yosida surrogate."""
    linear, tail = relation.split()
    if tail is None:
        return relation
    surrogate = YosidaRelation(tail, lam)
    if linear is None:
        return surrogate
    return StructuredSum(linear, surrogate)


def _stage_image_norm(relation: MonotoneRelation, values: np.ndarray, sig: WeightedSignal):
    """Weighted norm of k -> A_stage(u_k) along a trajectory."""
    image = np.stack([relation.apply(row) for row in values])
    return weighted_norm(sig.with_values(image))


def solve(problem: InclusionProblem) -> SolveReport:
    """March the inclusion causally; optionally through a Yosida-regularized path.

    Direct mode steps the relation itself. The regularized path repeats the
    march with the relation's nonlinear tail replaced by its Yosida surrogate
    at every scheduled lambda, warm-starting from the previous stage, and
    reports the weighted norms of the stage images (they must stay bounded as
    lambda shrinks); the last stage is the answer.
    """
    grid = problem.forcing.grid
    f_vals = problem.forcing.values

    def march(relation, warm_values=None):
        return _march(problem.family, relation, f_vals, grid.t0, grid.dt,
                      problem.fp_tol, problem.fp_max_iter, warm_values)

    try:
        if problem.mode == "direct":
            vals, iters, res = march(problem.relation)
            return SolveReport(
                solution=problem.forcing.with_values(vals),
                per_step_iterations=iters,
                max_residual=res,
                status="converged",
            )
        # yosida_path
        delta = 2.0 * (problem.family.sup_M1 + problem.family.lip_M0) + 1.0
        sup_m0 = _sup_m0_norm(problem.family, grid)
        f_norm = weighted_norm(problem.forcing)
        df_norm = weighted_norm(derivative(problem.forcing))
        reference = (1.0 + delta / problem.c_tilde) * f_norm + (
            sup_m0 / problem.c_tilde
        ) * df_norm
        trace = []
        prev_vals = None
        iters = np.zeros(grid.n, dtype=int)
        res = 0.0
        for lam in problem.schedule():
            stage = _yosida_stage(problem.relation, lam)
            vals, stage_iters, res = march(stage, prev_vals)
            iters += stage_iters
            image_norm = _stage_image_norm(stage, vals, problem.forcing)
            trace.append((lam, image_norm))
            prev_vals = vals
        return SolveReport(
            solution=problem.forcing.with_values(prev_vals),
            per_step_iterations=iters.tolist(),
            max_residual=res,
            status="converged",
            lambda_trace=trace,
            yosida_sup_norm=max(norm for _, norm in trace),
            delta=delta,
            yosida_reference_bound=reference,
        )
    except StepFailure as exc:
        empty = problem.forcing.with_values(np.zeros_like(f_vals))
        return SolveReport(
            solution=empty,
            per_step_iterations=[],
            max_residual=float("inf"),
            status="failed",
            fail_step=exc.step,
            fail_reason=str(exc),
        )


def _sup_m0_norm(family: MaterialFamily, grid) -> float:
    if family.constant:
        return float(np.linalg.norm(np.asarray(family.M0_at(grid.t0)), 2))
    samples = grid.t0 + grid.dt * np.linspace(0, grid.n - 1, 16)
    return max(float(np.linalg.norm(np.asarray(family.M0_at(t)), 2)) for t in samples)


def lipschitz_bound(problem: InclusionProblem) -> float:
    """Contract bound (1/c_tilde)(1 + 20*dt*(rho + lip + sup)) for the certificate."""
    fam = problem.family
    tol_dt = 20.0 * problem.forcing.grid.dt * (problem.rho + fam.lip_M0 + fam.sup_M1)
    return (1.0 + tol_dt) / problem.c_tilde


def lipschitz_certificate(problem: InclusionProblem, g: WeightedSignal) -> float:
    """Observed gain |u_f - u_g| / |f - g| in the weighted norm (0 for f = g)."""
    if (
        g.grid != problem.forcing.grid
        or g.dim != problem.forcing.dim
        or g.rho != problem.forcing.rho
    ):
        raise ContractViolation("g must live on the forcing's grid, dim and rho")
    diff = problem.forcing.with_values(problem.forcing.values - g.values)
    denom = weighted_norm(diff)
    if denom == 0.0:
        return 0.0
    rep_f = solve(problem)
    rep_g = solve(replace(problem, forcing=g))
    if not (rep_f.converged and rep_g.converged):
        raise StepFailure(
            "certificate solve failed", step=rep_f.fail_step or rep_g.fail_step
        )
    num = weighted_norm(
        problem.forcing.with_values(rep_f.solution.values - rep_g.solution.values)
    )
    return num / denom
