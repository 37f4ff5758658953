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
(K, tail) is passed down to ``_node_plans``, the one place that plans nodes:
it yields each node's M0(t_k), engine and step, planning a constant family
once and a moving one PLAN_BLOCK nodes at a time, with stacked eigvalsh,
2-norm and inverse calls, as the march reaches them. ``_march`` consumes
that stream and sweeps the nodes from a given past (zero by default, so
``solve_step`` is a one-node march); it evaluates no coefficient. A solve
is a list of stages, each one march: direct mode is the one stage (K,
tail), the Yosida path the stages (K, A_lam) with the surrogate A_lam of
the tail at each scheduled lambda. Every iterative engine runs safeguarded
Anderson(5) on one fixed-point kernel (``fixed_point.fixed_point``), which
also owns the stop rule, the iteration budget, the divergence guard, the
stall exit and the non-finite exit.

The march has a member axis. ``solve_batch`` marches problems that differ
only in forcing, rho and c_tilde together: one plan per node serves every
member, and each inner iteration is one stacked evaluation of the members
still iterating (``fixed_point.fixed_point_stack``), each keeping its own
stop, safeguard and exits. Numpy's stacked products and solves give each
member the bits it gets alone, so a member's report does not depend on the
batch around it. ``_march`` alone decides who marches, from the batch's
list of member failures: a member whose node fails drops out of that stage
and every later one, and gets the report a solo solve gives it. ``solve``
is a batch of one; a node with one live member runs on vectors through
``fixed_point``, which is the faster kernel at that size.

The weight rho is used for admission checks and norms only — it never enters
the stepping arithmetic, so solutions agree bit for bit across admissible
weights, and the march is strictly causal: node k sees f_0..f_k only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import derivative
from .errors import ContractViolation, StepFailure
from .fixed_point import CONVERGED, fixed_point, fixed_point_stack, sq_norms
from .materials import (
    MaterialFamily, _step_size_error, dt_max, measure_constants, rho_zero, step_matrices,
)
from .relations import MonotoneRelation, YosidaRelation
from .signals import WeightedSignal, weighted_norm

__all__ = [
    "InclusionProblem",
    "SolveReport",
    "solve",
    "solve_batch",
    "solve_step",
    "certificate_problems",
    "certificate_gain",
    "lipschitz_certificate",
    "lipschitz_bound",
    "default_lambda_schedule",
]

FP_TOL = 1e-10  # default stop tolerance of every per-node iteration
FP_MAX_ITER = 200_000  # default per-node budget of fixed-point map evaluations


def default_lambda_schedule(start: float = 1.0, stop: float = 1e-6, factor: float = 0.5):
    """Geometric regularization schedule; warm starts keep each stage cheap.

    Needs a finite ``start > 0``, ``stop > 0`` and ``0 < factor < 1``: a
    regularization parameter must be finite and positive, and with an
    infinite start or ``factor >= 1`` the loop never ends.
    """
    if not (0 < start < math.inf and stop > 0 and 0 < factor < 1):
        raise ContractViolation(
            f"lambda schedule needs finite start > 0, stop > 0 and 0 < factor < 1, "
            f"got start={start}, stop={stop}, factor={factor}"
        )
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
            if not lams or not all(0 < l < math.inf for l in lams):
                raise ContractViolation("lambda schedule must be nonempty, finite and positive")
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
    (last) march. It is what each engine stops on, so it means a different
    thing per engine: on a Douglas-Rachford node it is the splitting gap
    ``|w - x|``, which can understate the node's natural residual (by about
    600x on ``viscoplastic_slab``); it is not an error bound.
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


def _mv(A, x):
    """``A @ x`` for each vector over the last axis of ``x``, as a stacked matmul.

    Each vector gets the bits of ``A @ v`` alone, whatever the stack; a
    single vector takes the plain product, which is those bits too and
    cheaper by a third at dimension 1.
    """
    return A @ x if x.ndim == 1 else (A @ x[..., None])[..., 0]


PLAN_BLOCK = 16  # nodes of a moving family planned by one stacked pass


def _node_step(name, tail, lam_mat, gamma, inv, fp_tol: float, fp_max_iter: int):
    """One node's step(b, warm) -> (u, iterations, residual, reason) on its engine.

    ``b`` and ``warm`` are one state ``(dim,)`` or a stack ``(rows, dim)`` of
    members; a stack runs the stacked kernel and gives lists, row by row the
    values a single state gives. ``inv`` is None on forward-backward through
    the tail resolvent.
    """
    if name == "direct":

        def direct(b, warm):
            u = _mv(inv, b)
            r = _mv(lam_mat, u) - b
            if b.ndim == 1:
                return u, 1, math.sqrt(r @ r) / (1.0 + math.sqrt(b @ b)), CONVERGED
            res = np.sqrt(sq_norms(r)) / (1.0 + np.sqrt(sq_norms(b)))
            return u, [1] * len(b), res.tolist(), [CONVERGED] * len(b)

        return direct
    scaled = inv is not None  # gamma * (L u - b) is not gamma L u - gamma b in the last bit
    if name == "Douglas-Rachford":

        def G(z, gb):
            x = _mv(inv, z + gb)
            w = tail.resolve(gamma, 2.0 * x - z)
            return z + (w - x), w

    elif scaled:

        def G(u, gb):
            u_new = _mv(inv, u - gamma * tail.apply(u) + gb)
            return u_new, u_new

    else:

        def G(u, b):
            u_new = tail.resolve(gamma, u - gamma * (_mv(lam_mat, u) - b))
            return u_new, u_new

    def step(b, warm):
        # the map's per-node constant: gamma * b where the map takes it, computed once
        c = gamma * b if scaled else b
        if b.ndim == 1:
            return fixed_point(lambda x: G(x, c), warm, fp_tol, fp_max_iter)
        return fixed_point_stack(lambda x, rows: G(x, c[rows]), warm, fp_tol, fp_max_iter)

    return step


def _node_plans(family: MaterialFamily, linear, tail, t0: float, dt: float, n: int,
                fp_tol: float, fp_max_iter: int):
    """Yield (M0(t_k), engine name, step) for the nodes k < n of a march from t0.

    The one place that plans nodes. Node k solves S_k u + K u + tail(u) ∋ b,
    (K, tail) the relation's split, on an engine chosen from the split and
    S_k alone. A constant family is planned once, at t0. A moving one is
    planned PLAN_BLOCK nodes at a time as the march reaches them, with M0 and
    M1 evaluated once per node and one stacked ``eigvalsh``, 2-norm and
    ``inv`` per block, which give each node the bits of its own calls
    (pinned in test_fixed_point.py). A node whose step matrix is not coercive
    raises StepSizeError when the march asks for it, not before.
    """
    # a constant family is planned at t0 alone, and that plan serves all n nodes
    size, repeat = (1, n) if family.constant else (PLAN_BLOCK, 1)
    eye = np.eye(family.dim)
    for lo in range(0, n, size * repeat):
        ts = [t0 + k * dt for k in range(lo, min(lo + size, n))]
        M0, S, margins = step_matrices(family, ts, dt)
        ok = next((k for k, margin in enumerate(margins) if margin <= 0.0), len(ts))
        lam = S[:ok] if linear is None else S[:ok] + linear
        # each node's (engine, gamma), and the nodes whose engine takes an inverse
        if tail is None:
            rules, need, mats = [("direct", None)] * ok, range(ok), lam
        elif tail.single_valued and tail.cocoercivity >= 0.25:
            # the whole linear part implicit, the cocoercive tail explicit
            gamma = min(tail.cocoercivity, 1.0)
            rules, need, mats = [("forward-backward", gamma)] * ok, range(ok), eye + gamma * lam
        else:
            rules = []
            m_hats = np.linalg.eigvalsh(0.5 * (lam + lam.mT)).min(axis=-1).tolist()
            bigs = np.linalg.norm(lam, 2, axis=(-2, -1)).tolist()
            for m_hat, big, margin in zip(m_hats, bigs, margins):
                # m_hat <= 0 needs a non-monotone linear part, rejected at relation build
                m_hat = margin if m_hat <= 0 else m_hat
                # well-conditioned: forward-backward through the tail resolvent contracts
                # at sqrt(1 - (m/L)^2), least at gamma = m/L^2, and beats the splitting;
                # stiff: Douglas-Rachford between the affine part and the tail
                rules.append(("forward-backward", m_hat / big**2) if m_hat / big >= 0.9
                             else ("Douglas-Rachford", 1.0 / np.sqrt(m_hat * big)))
            need = [k for k, (name, _) in enumerate(rules) if name == "Douglas-Rachford"]
            mats = eye + np.array([rules[k][1] for k in need])[:, None, None] * lam[need]
        invs = dict(zip(need, np.linalg.inv(mats)))
        for k, (m0, lam_mat, (name, gamma)) in enumerate(zip(M0, lam, rules)):
            step = _node_step(name, tail, lam_mat, gamma, invs.get(k), fp_tol, fp_max_iter)
            yield from itertools.repeat((m0, name, step), repeat)
        if ok < len(ts):
            raise _step_size_error(family, ts[ok], margins[ok])
        del S, mats  # not kept while the next block is built, so memory stays flat


def _node_major(values, rows):
    """The rows' ``(n, dim)`` values with the node axis first, so node k is one index."""
    return np.ascontiguousarray(values[rows].swapaxes(0, -2))


def _march(plans, forcing: np.ndarray, dt: float, failures: list, warm_values: np.ndarray = None,
           past=None):
    """Causal sweep of a batch over the grid; returns (values, iterations, residuals).

    ``plans`` yields each node's (M0(t_k), engine name, step), one for every
    member, from ``_node_plans``: the march plans nothing. ``forcing`` is
    ``(members, n, dim)``, as are ``warm_values`` and the values; iterations
    are ``(members, n)`` and ``residuals[m]`` is member m's largest stop
    residual. ``failures`` is the batch's list of member failures and the
    march alone decides from it who marches: a member whose entry is set
    (it failed in an earlier stage) is skipped, and a member whose iteration
    stops short of the tolerance gets the StepFailure naming that node and
    drops out there. The others go on, and with none left no plan is asked
    for. ``past`` is ``(u, M0 u)`` before the first node, each
    ``(members, dim)``; None is the zero past. A node's M0 gives the next
    node's past. One live member runs as vectors (``fixed_point``), more as a
    stack (``fixed_point_stack``).
    """
    size, n, dim = forcing.shape
    out = np.zeros_like(forcing)
    iterations = np.zeros((size, n), dtype=int)
    max_res = [0.0] * size
    state, m0u = (np.zeros((size, dim)), np.zeros((size, dim))) if past is None else past
    live = keep = [m for m, failure in enumerate(failures) if failure is None]
    if not live:
        return out, iterations, max_res
    for k, (M0, name, step) in enumerate(plans):
        if keep:
            # the live members' rows: one member's as vectors, more as a stack
            rows, at = (live[0], keep[0]) if len(live) == 1 else (np.array(live), keep)
            state, m0u = state[at], m0u[at]
            F = _node_major(forcing, rows)
            W = None if warm_values is None else _node_major(warm_values, rows)
            keep = None
        b = F[k] + m0u / dt
        u, iters, res, reasons = step(b, state if W is None else W[k])
        out[rows, k] = u
        iterations[rows, k] = iters
        state, m0u = u, _mv(M0, u)
        if b.ndim == 1:
            iters, res, reasons = (iters,), (res,), (reasons,)
        dropped = False
        for m, it, r, reason in zip(live, iters, res, reasons):
            if reason != CONVERGED:
                failures[m] = StepFailure(
                    f"{name} step {k} did not converge: {reason} after "
                    f"{it} iterations (residual {r:.3e})",
                    step=k,
                    residual=r,
                )
                dropped = True
            elif r > max_res[m]:
                max_res[m] = r
        if dropped:
            keep = [j for j, m in enumerate(live) if failures[m] is None]
            live = [live[j] for j in keep]
            if not live:
                break
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
    This is a one-node march of one member from that past.
    """
    prev_state = np.asarray(prev_state, dtype=float)
    if prev_m0u is None:
        prev_m0u = np.asarray(family.M0_at(t - dt), dtype=float) @ prev_state
    forcing = np.asarray(f_k, dtype=float).reshape(1, 1, -1)
    past = (prev_state[None], np.asarray(prev_m0u, dtype=float)[None])
    plans = _node_plans(family, *relation.split(), t, dt, 1, fp_tol, fp_max_iter)
    failures = [None]
    vals, _, _ = _march(plans, forcing, dt, failures, past=past)
    if failures[0] is not None:
        raise failures[0]
    return vals[0, 0]


def _stage_image_norms(linear, tail, values: np.ndarray, signals):
    """Weighted norms of k -> K u_k + tail(u_k) along each member's trajectory.

    ``values`` is ``(members, n, dim)``; every node of every member goes
    through one stacked product and one block call, which give the bits of
    the product and the call row by row. Member m's norm is taken in the
    weight of ``signals[m]``.
    """
    image = np.zeros_like(values) if linear is None else _mv(linear, values)
    if tail is not None:
        image += tail.apply(values)
    return [weighted_norm(sig.with_values(img)) for sig, img in zip(signals, image)]


def _batch_key(p: InclusionProblem):
    return (p.forcing.grid, p.mode, p.schedule(), p.fp_tol, p.fp_max_iter)


def solve_batch(problems) -> list:
    """Solve a batch of problems on one template; returns one SolveReport each.

    The members share the family, the relation, the grid, the mode, the
    λ-schedule, ``fp_tol`` and ``fp_max_iter``, or ContractViolation is
    raised; their forcing, rho and c_tilde may differ, because rho never
    enters the stepping. They march together: one plan per node serves every
    member and one stacked relation call per inner iteration evaluates every
    member still iterating. Direct mode is the one-stage path and the Yosida
    path one stage per λ, all through one loop; ``_march`` records each
    member's failure and skips that member in later stages, and every report
    is built after the loop, in one place. Each member's report is bit for
    bit the one ``solve`` gives it alone, failures included: a member whose
    node fails gets solve's failed report and drops out, and the others go on.
    """
    problems = list(problems)
    if not problems:
        return []
    head = problems[0]
    key = _batch_key(head)
    for p in problems[1:]:
        if p.family is not head.family or p.relation is not head.relation or _batch_key(p) != key:
            raise ContractViolation(
                "a batch must share family, relation, grid, mode, lambda schedule, "
                "fp_tol and fp_max_iter"
            )
    grid = head.forcing.grid
    forcing = np.stack([p.forcing.values for p in problems])
    linear, tail = head.relation.split()
    fam = head.family
    yosida = head.mode == "yosida_path"
    # direct mode is the one-stage path; each Yosida stage warm-starts from the last
    stages = [(None, tail)] if not yosida else [
        (lam, None if tail is None else YosidaRelation(tail, lam)) for lam in head.schedule()
    ]
    failures = [None] * len(problems)
    traces = [[] for _ in problems]
    vals, total = None, 0
    for lam, stage in stages:
        plans = _node_plans(fam, linear, stage, grid.t0, grid.dt, grid.n, head.fp_tol,
                            head.fp_max_iter)
        vals, iters, res = _march(plans, forcing, grid.dt, failures, vals)
        total = total + iters
        live = [m for m, failure in enumerate(failures) if failure is None]
        if not live:
            break
        if yosida:
            norms = _stage_image_norms(linear, stage, vals[live], [problems[m].forcing for m in live])
            for m, norm in zip(live, norms):
                traces[m].append((lam, norm))
    if yosida:
        delta = 2.0 * (fam.sup_M1 + fam.lip_M0) + 1.0
        ts = [grid.t0] if fam.constant else grid.t0 + grid.dt * np.linspace(0, grid.n - 1, 16)
        sup_m0 = measure_constants(fam.M0_at, fam.M1_at, fam.kernel_basis, fam.range_basis,
                                   ts).sup_M0
    reports = []
    for m, p in enumerate(problems):
        failure = failures[m]
        if failure is not None:
            reports.append(SolveReport(
                solution=p.forcing.with_values(np.zeros_like(p.forcing.values)),
                per_step_iterations=[],
                max_residual=float("inf"),
                status="failed",
                fail_step=failure.step,
                fail_reason=str(failure),
            ))
            continue
        path = {}
        if yosida:
            reference = (1.0 + delta / p.c_tilde) * weighted_norm(p.forcing) + (
                sup_m0 / p.c_tilde
            ) * weighted_norm(derivative(p.forcing))
            path = dict(
                lambda_trace=traces[m],
                yosida_sup_norm=max(norm for _, norm in traces[m]),
                delta=delta,
                yosida_reference_bound=reference,
            )
        reports.append(SolveReport(
            solution=p.forcing.with_values(vals[m]),
            per_step_iterations=total[m].tolist(),
            max_residual=res[m],
            status="converged",
            **path,
        ))
    return reports


def solve(problem: InclusionProblem) -> SolveReport:
    """March the inclusion causally; optionally through a Yosida-regularized path.

    Direct mode steps the relation itself. The regularized path repeats the
    march with the relation's nonlinear tail replaced by its Yosida surrogate
    at every scheduled lambda, warm-starting from the previous stage, and
    reports the weighted norms of the stage images (they must stay bounded as
    lambda shrinks); the last stage is the answer. It is a batch of one.
    """
    return solve_batch([problem])[0]


def lipschitz_bound(problem: InclusionProblem) -> float:
    """Contract bound (1/c_tilde)(1 + 20*dt*(rho + lip + sup)) for the certificate."""
    fam = problem.family
    tol_dt = 20.0 * problem.forcing.grid.dt * (problem.rho + fam.lip_M0 + fam.sup_M1)
    return (1.0 + tol_dt) / problem.c_tilde


def certificate_problems(problem: InclusionProblem, g: WeightedSignal) -> list:
    """The pair a Lipschitz certificate solves: ``problem`` and ``problem`` forced by g."""
    if (
        g.grid != problem.forcing.grid
        or g.dim != problem.forcing.dim
        or g.rho != problem.forcing.rho
    ):
        raise ContractViolation("g must live on the forcing's grid, dim and rho")
    return [problem, replace(problem, forcing=g)]


def certificate_gain(pair, reports) -> float:
    """|u_f - u_g| / |f - g| in the weighted norm from the pair's reports (0 for f = g)."""
    f, g = (p.forcing for p in pair)
    denom = weighted_norm(f.with_values(f.values - g.values))
    if denom == 0.0:
        return 0.0
    for rep in reports:
        if not rep.converged:
            raise StepFailure(f"certificate solve failed: {rep.fail_reason}", step=rep.fail_step)
    rep_f, rep_g = reports
    return weighted_norm(f.with_values(rep_f.solution.values - rep_g.solution.values)) / denom


def lipschitz_certificate(problem: InclusionProblem, g: WeightedSignal) -> float:
    """Observed gain |u_f - u_g| / |f - g| in the weighted norm (0 for f = g).

    The two solves run as one batch.
    """
    pair = certificate_problems(problem, g)
    return certificate_gain(pair, solve_batch(pair))
