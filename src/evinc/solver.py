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

The relation's split A = K + tail is taken once per solve and the pair
(K, tail) is passed down: ``_plan`` builds the per-node engine from it,
``_march`` sweeps the nodes from a given past (zero by default, so
``solve_step`` is a one-node march), and the Yosida path marches
(K, A_lam) with the surrogate A_lam of the tail. Every iterative engine runs
safeguarded Anderson(5) on one fixed-point kernel
(``fixed_point.fixed_point``), which also owns the stop rule, the iteration
budget, the divergence guard, the stall exit and the non-finite exit.

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
from .materials import MaterialFamily, _step_matrix, dt_max, measure_constants, rho_zero
from .relations import MonotoneRelation, YosidaRelation
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

FP_TOL = 1e-10  # default stop tolerance of every per-node iteration
FP_MAX_ITER = 200_000  # default per-node budget of fixed-point map evaluations


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
    fp_tol: float = FP_TOL
    fp_max_iter: int = FP_MAX_ITER

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


def _plan(linear, tail, S: np.ndarray, margin: float, fp_tol: float, fp_max_iter: int):
    """Per-node plan for S u + K u + tail(u) ∋ b, with (K, tail) = relation.split().

    Returns (engine name, step(b, warm) -> (u, iterations, residual, reason)).
    The engine depends only on the split and on S, never on the data, so
    identical inputs reproduce identical iterates.
    """
    lam_mat = S if linear is None else S + linear
    if tail is None:
        inv = np.linalg.inv(lam_mat)

        def direct(b, warm):
            u = inv @ b
            res = float(np.linalg.norm(lam_mat @ u - b) / (1.0 + np.linalg.norm(b)))
            return u, 1, res, CONVERGED

        return "direct", direct
    eye = np.eye(S.shape[0])
    if tail.single_valued and tail.cocoercivity >= 0.25:
        # the whole linear part implicit, the cocoercive tail explicit
        name = "forward-backward"
        gamma = min(tail.cocoercivity, 1.0)
        inv = np.linalg.inv(eye + gamma * lam_mat)

        def G(u, b):
            u_new = inv @ (u - gamma * tail.apply(u) + gamma * b)
            return u_new, u_new

    else:
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
            name = "forward-backward"
            gamma = m_hat / big**2

            def G(u, b):
                u_new = tail.resolve(gamma, u - gamma * (lam_mat @ u - b))
                return u_new, u_new

        else:
            # stiff step: Douglas-Rachford between the affine part and the tail
            name = "Douglas-Rachford"
            gamma = 1.0 / np.sqrt(m_hat * big)
            inv = np.linalg.inv(eye + gamma * lam_mat)

            def G(z, b):
                x = inv @ (z + gamma * b)
                w = tail.resolve(gamma, 2.0 * x - z)
                return z + (w - x), w

    return name, lambda b, warm: fixed_point(lambda x: G(x, b), warm, fp_tol, fp_max_iter)


def _march(
    family: MaterialFamily,
    linear,
    tail,
    forcing: np.ndarray,
    t0: float,
    dt: float,
    fp_tol: float,
    fp_max_iter: int,
    warm_values: np.ndarray = None,
    past=None,
):
    """Causal sweep over the grid; returns (values, iteration counts, residual).

    ``(linear, tail)`` is the relation's split. ``past`` is the state before
    the first node and its M0 image, ``(u, M0 u)``; None is the zero past.
    M0(t) and M1(t) are evaluated once per plan, so once per march for a
    constant family and once per node otherwise, and the same M0 gives the
    next node's past image. A node whose iteration stops short of the
    tolerance raises StepFailure.
    """
    n, dim = forcing.shape
    out = np.empty_like(forcing)
    iterations = []
    max_res = 0.0
    prev_state, prev_m0u = (np.zeros(dim), np.zeros(dim)) if past is None else past
    plan = None
    for k in range(n):
        t = t0 + k * dt
        if plan is None or not family.constant:
            M0 = np.asarray(family.M0_at(t), dtype=float)
            M1 = np.asarray(family.M1_at(t), dtype=float)
            plan = _plan(linear, tail, *_step_matrix(family, M0, M1, t, dt), fp_tol, fp_max_iter)
        name, step = plan
        b = forcing[k] + prev_m0u / dt
        warm = warm_values[k] if warm_values is not None else prev_state
        u, iters, res, reason = step(b, warm)
        if reason != CONVERGED:
            raise StepFailure(
                f"{name} step {k} did not converge: {reason} after "
                f"{iters} iterations (residual {res:.3e})",
                step=k,
                residual=res,
            )
        out[k] = u
        iterations.append(iters)
        max_res = max(max_res, res)
        prev_m0u = M0 @ u
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
    fp_tol: float = FP_TOL,
    fp_max_iter: int = FP_MAX_ITER,
) -> np.ndarray:
    """One implicit step: S u + A(u) ∋ f_k + prev_m0u/dt, warm-started at prev_state.

    ``prev_m0u`` is M0(t - dt) @ prev_state; pass None to have it computed.
    This is a one-node march from that past.
    """
    prev_state = np.asarray(prev_state, dtype=float)
    if prev_m0u is None:
        prev_m0u = np.asarray(family.M0_at(t - dt), dtype=float) @ prev_state
    forcing = np.asarray(f_k, dtype=float).reshape(1, -1)
    past = (prev_state, np.asarray(prev_m0u, dtype=float))
    vals, _, _ = _march(family, *relation.split(), forcing, t, dt, fp_tol, fp_max_iter, past=past)
    return vals[0]


def _stage_image_norm(linear, tail, values: np.ndarray, sig: WeightedSignal):
    """Weighted norm of k -> K u_k + tail(u_k) along a trajectory, all nodes at once.

    The stacked product ``K @ u_k`` gives the bits of the product row by row.
    """
    image = np.zeros_like(values) if linear is None else (linear @ values[:, :, None])[:, :, 0]
    if tail is not None:
        image += tail.apply_block(values)
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
    linear, tail = problem.relation.split()

    def march(stage_tail, warm_values=None):
        return _march(problem.family, linear, stage_tail, f_vals, grid.t0, grid.dt,
                      problem.fp_tol, problem.fp_max_iter, warm_values)

    try:
        if problem.mode == "direct":
            vals, iters, res = march(tail)
            return SolveReport(
                solution=problem.forcing.with_values(vals),
                per_step_iterations=iters,
                max_residual=res,
                status="converged",
            )
        # yosida_path
        fam = problem.family
        delta = 2.0 * (fam.sup_M1 + fam.lip_M0) + 1.0
        ts = [grid.t0] if fam.constant else grid.t0 + grid.dt * np.linspace(0, grid.n - 1, 16)
        sup_m0 = measure_constants(
            fam.M0_at, fam.M1_at, fam.kernel_basis, fam.range_basis, ts
        ).sup_M0
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
            stage = None if tail is None else YosidaRelation(tail, lam)
            vals, stage_iters, res = march(stage, prev_vals)
            iters += stage_iters
            trace.append((lam, _stage_image_norm(linear, stage, vals, problem.forcing)))
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
    for rep in (rep_f, rep_g):
        if not rep.converged:
            raise StepFailure(f"certificate solve failed: {rep.fail_reason}", step=rep.fail_step)
    num = weighted_norm(
        problem.forcing.with_values(rep_f.solution.values - rep_g.solution.values)
    )
    return num / denom
