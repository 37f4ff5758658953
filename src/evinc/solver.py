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

A solve is a list of stages over one split A = K + tail of the relation:
direct mode is the one stage (K, tail), the Yosida path the stages (K, A_lam)
with the surrogate A_lam of the tail at each scheduled lambda, each
warm-started from the one before. A relation with no tail (zero or linear)
marches the one stage (K, None) in either mode: every lambda would solve the
same linear step. ``_node_plans`` is the one place that plans nodes: it
yields each node's M0(t_k), S_k + K and each stage's engine with its gamma
and inverse, as the march reaches them.

``_march`` consumes that stream and evaluates no coefficient. It solves
cells, one node k of one stage s, in waves: the cells of one anti-diagonal
d = s + k are independent, and those that share an engine make one kernel
call. A direct cell is its linear solve alone, its residual taken after the
waves in one stacked product per run of nodes on one step matrix, where a
non-finite node fails its member. An iterative cell is one ``_node_step``,
which builds its engine's map G(x) -> (Gx, out) and runs safeguarded
Anderson(5) on one fixed-point kernel (``fixed_point.fixed_point`` on one
vector, ``fixed_point.fixed_point_stack`` on a stack), which owns the stop
rule, the budget and the diverging, stall and non-finite exits.

``solve_batch`` marches the problems that differ only in forcing, rho and
c_tilde together. Numpy's stacked products and solves, and the relations'
evaluation at a lambda column, give each row the bits it gets alone, so a
member's report is bit for bit that of a stage-by-stage march of it alone.
``solve`` is a batch of one, and ``solve_step`` a one-node, one-stage march.

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
from .fixed_point import CONVERGED, NONFINITE, fixed_point, fixed_point_stack, sq_norms
from .materials import (
    MaterialFamily, _rho_error, _step_size_error, dt_max, measure_constants, rho_zero,
    step_matrices,
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
    "yosida_delta",
    "yosida_reference_bound",
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
            raise _rho_error(self.rho, rho0)
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
    on node k, 1 on a direct node; on the Yosida path it is the sum over the
    stages marched, one for a relation with no tail, whose ``lambda_trace``
    gives its one stage's image norm at every scheduled lambda.
    ``max_residual`` is the largest stop residual over the nodes of the
    (last) march, so it means a different thing per engine. On a direct node
    it is |(S + K) u - b| / (1 + |b|), the linear solve's relative residual,
    taken after the march; a direct node where it is not finite fails
    (``nonfinite``), as an iterative one does. On a Douglas-Rachford node it
    is the splitting gap ``|w - x|``, which can understate the node's natural
    residual (by about 600x on ``viscoplastic_slab``); it is not an error
    bound. The report holds only what the march gives: the bounds that the
    data give are ``lipschitz_bound``, ``yosida_delta`` and
    ``yosida_reference_bound``, functions of the problem.
    """

    solution: WeightedSignal
    per_step_iterations: list
    max_residual: float
    status: str
    fail_step: int = None
    fail_reason: str = None
    lambda_trace: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == "converged"


# ---------------------------------------------------------------------------
# per-step engines


def _mv(A, x):
    """``A @ x`` for each vector over the last axis of ``x``, as a stacked matmul.

    Each vector gets the bits of ``A @ v`` alone, whatever the stack; a
    single vector takes the plain product, which is those bits too and
    cheaper by a third at dimension 1. ``A`` may also hold one matrix per
    vector, ``(rows, dim, dim)`` for ``(rows, dim)``, with the same bits.
    """
    return A @ x if x.ndim == 1 else (A @ x[..., None])[..., 0]


PLAN_BLOCK = 16  # nodes of a moving family planned by one stacked pass


def _node_step(name, tail, lam_mat, gamma, inv, b, warm, fp_tol: float, fp_max_iter: int):
    """Solve S u + tail(u) ∋ b by one iterative engine; returns (u, iterations, residual, reason).

    ``b`` and ``warm`` are one state ``(dim,)`` or a stack ``(rows, dim)``; a
    stack runs the stacked kernel and gives lists, row by row the values a
    single state gives. The parameters (``lam_mat`` is S + K) are one
    node's, shared by every row, or each row's own: ``gamma`` a ``(rows, 1)``
    column, ``inv`` and ``lam_mat`` ``(rows, dim, dim)`` stacks, ``tail`` a
    Yosida surrogate at a lambda column. ``inv`` is None on forward-backward
    through the tail resolvent. A map takes its parameters as default
    arguments, not as closure cells. ``_march`` solves direct cells itself.
    """
    # gamma * b is taken once per step where a map adds it; gamma * (L u - b) differs in the last bit
    if name == "Douglas-Rachford":
        def G(z, inv=inv, gb=gamma * b, resolve=tail.resolve, gamma=gamma):
            x = _mv(inv, z + gb)
            w = resolve(gamma, 2.0 * x - z)
            return z + (w - x), w
    elif inv is not None:
        def G(u, inv=inv, gb=gamma * b, apply=tail.apply, gamma=gamma):
            u_new = _mv(inv, u - gamma * apply(u) + gb)
            return u_new, u_new
    else:
        def G(u, lam_mat=lam_mat, b=b, resolve=tail.resolve, gamma=gamma):
            u_new = resolve(gamma, u - gamma * (_mv(lam_mat, u) - b))
            return u_new, u_new
    # the map evaluates the whole stack: the kernel keeps an exited row in place
    return (fixed_point if b.ndim == 1 else fixed_point_stack)(G, warm, fp_tol, fp_max_iter)


def _node_plans(family: MaterialFamily, linear, tails, t0: float, dt: float, n: int):
    """Yield one plan (M0(t_k), S_k + K, rules) per node k < n of a march from t0.

    The one place that plans nodes, once for every stage. Node k solves
    S_k u + K u + tail_s(u) ∋ b in stage s, (K, tail) the relation's split and
    ``tails`` the stages' tails; ``rules[s]`` is stage s's engine there, as
    ``(name, gamma, inv)``, chosen from tail_s and S_k alone. The stages
    share what does not depend on the tail: M0, S_k, the least eigenvalue
    and 2-norm behind the node's own engine rule, and each inverse, one per
    distinct gamma, so stages with one rule hold the same objects. A
    constant family is planned once, at t0, and that plan serves all n
    nodes. A moving one is planned PLAN_BLOCK nodes at a time as the march
    reaches them, with M0 and M1 evaluated once per node and one stacked
    ``eigvalsh``, 2-norm and ``inv`` per block, which give each node the bits
    of its own calls (pinned in test_fixed_point.py). A node whose step
    matrix is not coercive raises StepSizeError when the march asks for it,
    not before.
    """
    size, repeat = (1, n) if family.constant else (PLAN_BLOCK, 1)
    eye = np.eye(family.dim)
    # each stage's engine where it does not depend on the node, as (name, gamma, inverted):
    # a linear solve; the whole linear part implicit and a cocoercive tail explicit; else None
    kinds = [
        ("direct", None, True) if tail is None
        else ("forward-backward", min(tail.cocoercivity, 1.0), True)
        if tail.single_valued and tail.cocoercivity >= 0.25 else None
        for tail in tails
    ]
    for lo in range(0, n, size * repeat):
        ts = [t0 + k * dt for k in range(lo, min(lo + size, n))]
        M0, S, margins = step_matrices(family, ts, dt)
        ok = next((k for k, margin in enumerate(margins) if margin <= 0.0), len(ts))
        lam = S[:ok] if linear is None else S[:ok] + linear
        own = [None] * ok  # each node's own rule, for the stages that take one
        if None in kinds:
            m_hats = np.linalg.eigvalsh(0.5 * (lam + lam.mT)).min(axis=-1).tolist()
            bigs = np.linalg.norm(lam, 2, axis=(-2, -1)).tolist()
            for k, (m_hat, big, margin) in enumerate(zip(m_hats, bigs, margins)):
                # m_hat <= 0 needs a non-monotone linear part, rejected at relation build
                m_hat = margin if m_hat <= 0 else m_hat
                # well-conditioned: forward-backward through the tail resolvent contracts
                # at sqrt(1 - (m/L)^2), least at gamma = m/L^2, and beats the splitting;
                # stiff: Douglas-Rachford between the affine part and the tail
                own[k] = (("forward-backward", m_hat / big**2, False) if m_hat / big >= 0.9
                          else ("Douglas-Rachford", 1.0 / np.sqrt(m_hat * big), True))
        # each node's rule per stage as (name, gamma, inverted), and one stacked inverse
        # per distinct (node, gamma) of the rules that take one
        node_kinds = [[kind or own[k] for kind in kinds] for k in range(ok)]
        need = list(dict.fromkeys((k, gamma) for k, ks in enumerate(node_kinds)
                                  for _, gamma, inverted in ks if inverted))
        invs = {}
        if need:
            mats = np.stack([lam[k] if gamma is None else eye + gamma * lam[k] for k, gamma in need])
            invs = dict(zip(need, np.linalg.inv(mats)))
        for k, ks in enumerate(node_kinds):
            rules = tuple((name, gamma, invs[k, gamma] if inverted else None)
                          for name, gamma, inverted in ks)
            yield from itertools.repeat((M0[k], lam[k], rules), repeat)
        if ok < len(ts):
            raise _step_size_error(family, ts[ok], margins[ok])
        del S  # not kept while the next block is built, so memory stays flat


def _per_row(values, counts):
    """The value all cells share, else each row's: a ``(rows, 1)`` column or ``(rows, d, d)``."""
    first = values[0]
    if all(v is first for v in values):
        return first
    stacked = np.repeat(np.array(values), counts, axis=0)
    return stacked[:, None] if stacked.ndim == 1 else stacked


# a member whose arithmetic leaves the floats fails with its step's typed reason, so
# numpy need not warn about it too, whether solve_batch or solve_step marches it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _march(plans, forcing: np.ndarray, dt: float, tails, fp_tol: float, fp_max_iter: int,
           past=None):
    """Causal sweep of a batch through every stage; returns (values, iterations, residuals, failures).

    A cell is one node k of one stage s. It reads its stage's past, cell
    (s, k-1), and its warm start, cell (s-1, k), or (0, k-1) in stage 0; so
    the cells of one anti-diagonal d = s + k are independent and the march
    solves them as one wave, asking ``plans`` (from ``_node_plans``) for node
    d at wave d. A wave's cells that share an engine make one kernel call:
    one cell on its node's parameters, its members as vectors or as a stack,
    or one stack of several cells' rows, each with its own gamma, inverse and
    lambda. ``tails`` holds each stage's tail: it is ``[None]``, a relation
    with no tail marching one stage in either mode, or has no None. With no
    tail every cell is direct and does only u = inv b, keeping b, whose
    residuals |(S_k + K) u - b| / (1 + |b|) are taken later: one stacked
    product and ``sq_norms`` pair per run of nodes on one S_k + K, a
    constant family's whole march or at most a plan block of a moving one. A
    member fails at its first non-finite one.

    ``forcing`` is ``(members, n, dim)``; values are ``(stages, members, n,
    dim)``, iterations ``(members, n)`` summed over the stages,
    ``residuals[m]`` member m's largest stop residual in the last stage and
    ``failures[m]`` None or its StepFailure. A cell that stops short of the
    tolerance sets the StepFailure naming its node, keeping the first failure
    of the member's lowest failing stage, whose earlier stages go on; the
    member no longer marches the stages from there. A direct march keeps
    every member in its one stage, a failed one too, since its residuals come
    later. The march stops once every member has failed in stage 0, and asks
    for no plan after that. ``past`` is ``(u, M0 u)`` before the first node,
    each ``(members, dim)``; None is the zero past. A node's M0 gives the
    next node's past.
    """
    stages = len(tails)
    size, n, dim = forcing.shape
    F = np.ascontiguousarray(forcing.swapaxes(0, 1))  # node k of every member is F[k]
    # node-major stages: cell (s, k) of member m is U[s, k + 1, m], and U[:, 0] the past state
    U = np.zeros((stages, n + 1, size, dim))
    m0u = np.zeros((stages, size, dim))  # each stage's M0 u at its last node
    direct = tails[0] is None  # then the one stage's cells are each one linear solve
    iterations = np.full((stages, n, size), int(direct))
    B = np.zeros((n if direct else 0, size, dim))  # each direct node's b, node-major
    if past is not None:
        U[:, 0], m0u[:] = past
    max_res = [0.0] * size
    failures = [None] * size
    top = [stages] * size  # member m marches the stages s < top[m]
    live, lanes = [], []
    lo, mats = 0, []  # direct nodes k >= lo owe their residuals, on mats[0] or mats[k - lo]

    def relane():
        # each stage's live members and, where one index selects them all or one, its lane views
        live[:] = [[m for m in range(size) if top[m] > s] for s in range(stages)]
        lanes[:] = [None] * stages
        for s, members in enumerate(live):
            if len(members) == 1 or len(members) == size:
                rows = members[0] if len(members) == 1 else slice(None)
                lanes[s] = (F[:, rows], U[max(s - 1, 0), int(s > 0):, rows], U[s, 1:, rows],
                            m0u[s, rows], iterations[s, :, rows], rows)

    def settle(s, k, name, members, its, res, reasons):
        # record the cells' failures, keeping each member's lowest stage, and the last
        # stage's residuals; True if a member failed
        failed = False
        for m, it, r, reason in zip(members, its, res, reasons):
            if reason != CONVERGED:
                if s < top[m]:
                    failures[m] = StepFailure(f"{name} step {k} did not converge: {reason} after "
                                              f"{it} iterations (residual {r:.3e})", step=k, residual=r)
                    top[m] = s
                    failed = True
            elif s == stages - 1 and r > max_res[m]:
                max_res[m] = r
        return failed

    def flush(hi):
        # take the residuals of the direct nodes lo..hi-1
        nonlocal lo
        mat = mats[0] if len(mats) == 1 else np.stack(mats)[:, None]
        b = B[lo:hi]
        r = (mat @ U[0, lo + 1:hi + 1, :, :, None])[..., 0]
        r -= b
        res = np.sqrt(sq_norms(r))
        res /= 1.0 + np.sqrt(sq_norms(b))
        for m, worst in enumerate(res.max(axis=0).tolist()):
            if not math.isfinite(worst):  # fails at its first such node
                j = int(np.isfinite(res[:, m]).argmin())
                settle(0, lo + j, "direct", (m,), (1,), (float(res[j, m]),), (NONFINITE,))
            elif worst > max_res[m]:
                max_res[m] = worst
        lo, mats[:] = hi, []

    def take(k, lam_mat, b):
        # keep b at direct node k, owing its residual on lam_mat, after flushing a full
        # block or a run on one matrix that k leaves
        B[k] = b
        if not mats or lam_mat is not mats[-1]:
            if mats and (len(mats) == PLAN_BLOCK or len(mats) < k - lo):
                flush(k)
            mats.append(lam_mat)

    relane()
    ring = [None] * stages  # the plans of the nodes in flight: node k's is ring[k % stages]
    for d in range(n + stages - 1):
        if not any(top):
            break
        if d < n:
            ring[d % stages] = next(plans)
        cells = range(d - n + 1 if d >= n else 0, d + 1 if d < stages else stages)
        if len(cells) == 1:
            groups = (cells,)
        else:
            groups = {}
            for s in cells:
                if live[s]:
                    name, _, inv = ring[(d - s) % stages][2][s]
                    groups.setdefault((name, inv is None), []).append(s)
            groups = groups.values()
        failed = False
        for group in groups:
            s = group[0]
            if len(group) == 1 and lanes[s] is not None:
                # one cell on its node's own step: its members as vectors or as a stack
                k = d - s
                M0, lam_mat, rules = ring[k % stages]
                name, gamma, inv = rules[s]
                forcing_s, warm, values, m0u_s, iterations_s, rows = lanes[s]
                b = forcing_s[k] + m0u_s / dt
                if direct:
                    u = _mv(inv, b)
                    take(k, lam_mat, b)
                else:
                    u, its, res, reasons = _node_step(name, tails[s], lam_mat, gamma, inv, b,
                                                      warm[k], fp_tol, fp_max_iter)
                    iterations_s[k] = its
                    if u.ndim == 1:
                        its, res, reasons = (its,), (res,), (reasons,)
                    failed |= settle(s, k, name, live[s], its, res, reasons)
                values[k] = u
                m0u_s[...] = _mv(M0, u)
                continue
            if not live[s]:
                continue
            # one stack of every row of the group's iterative cells, each row with its own parameters
            members = [live[s] for s in group]
            counts = [len(cell) for cell in members]
            ss = np.repeat(group, counts)
            kk = d - ss
            ms = np.concatenate(members)
            later = ss > 0
            node_plans = [ring[(d - s) % stages] for s in group]
            rules = [plan[2][s] for plan, s in zip(node_plans, group)]
            tail = tails[group[0]]
            if len(group) > 1:  # the stages' surrogates of one tail
                tail = YosidaRelation(tail.base, np.repeat([tails[s].lam for s in group], counts)[:, None])
            name = rules[0][0]
            u, its, res, reasons = _node_step(
                name, tail, _per_row([plan[1] for plan in node_plans], counts),
                _per_row([rule[1] for rule in rules], counts),
                _per_row([rule[2] for rule in rules], counts),
                F[kk, ms] + m0u[ss, ms] / dt, U[ss - later, kk + later, ms], fp_tol, fp_max_iter,
            )
            iterations[ss, kk, ms] = its
            U[ss, kk + 1, ms] = u
            m0u[ss, ms] = _mv(_per_row([plan[0] for plan in node_plans], counts), u)
            end = 0
            for s, cell in zip(group, members):
                start, end = end, end + len(cell)
                failed |= settle(s, d - s, name, cell, its[start:end], res[start:end],
                                 reasons[start:end])
        if failed:
            relane()
    if mats and any(top):  # else every member failed
        flush(n)
    return U[:, 1:].swapaxes(1, 2), iterations.sum(axis=0).T, max_res, failures


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

    ``prev_m0u`` is M0(t - dt) @ prev_state. This is a one-node, one-stage
    march of one member from that past. With M0 = 1, M1 = 0, dt = lam, zero
    forcing and the past y it is the resolvent (1 + lam A)^{-1} y, which is
    how ``StructuredSum.resolve`` evaluates it.
    """
    forcing = np.asarray(f_k, dtype=float).reshape(1, 1, -1)
    past = (np.asarray(prev_state, dtype=float)[None], np.asarray(prev_m0u, dtype=float)[None])
    linear, tail = relation.split()
    plans = _node_plans(family, linear, [tail], t, dt, 1)
    vals, _, _, (failure,) = _march(plans, forcing, dt, [tail], fp_tol, fp_max_iter, past=past)
    if failure is not None:
        raise failure
    return vals[0, 0, 0]


def _stage_image_norms(linear, tails, values: np.ndarray, signals):
    """Weighted norms of k -> K u_k + tail_s(u_k) along each stage's trajectory of each member.

    ``values`` is ``(stages, members, n, dim)`` and ``tails`` the stages'
    Yosida surrogates of one tail, or ``[None]``: a relation with no tail
    marches one stage, whose image K u (0 for the zero relation) stands for
    every lambda. Every node of every stage and member goes through one
    stacked product and one block call, at a lambda column, which give the
    bits of the product and of each stage's call row by row. Returns
    ``norms[s][m]``, member m's norm in stage s, in the weight of
    ``signals[m]``.
    """
    flat = values.reshape(-1, values.shape[-1])
    image = np.zeros_like(flat) if linear is None else _mv(linear, flat)
    if tails[0] is not None:
        lams = np.repeat([tail.lam for tail in tails], len(flat) // len(tails))[:, None]
        image += YosidaRelation(tails[0].base, lams).apply(flat)
    image = image.reshape(values.shape)
    return [[weighted_norm(sig.with_values(img)) for sig, img in zip(signals, stage)]
            for stage in image]


def _march_key(p: InclusionProblem):
    # direct mode never reads the λ-schedule, so only the Yosida path is split by it
    lams = tuple(p.schedule()) if p.mode == "yosida_path" else None
    return (id(p.family), id(p.relation), p.forcing.grid, p.mode, lams, p.fp_tol, p.fp_max_iter)


def solve_batch(problems) -> list:
    """Solve any list of problems; returns one SolveReport each, in input order.

    Problems with one ``_march_key`` (family and relation objects, grid, mode,
    ``fp_tol``, ``fp_max_iter`` and, on the Yosida path, the λ-schedule)
    march together, key by key in order of first appearance; their forcing,
    rho and c_tilde may differ, because rho never enters the stepping. Each key
    is one ``_march`` call, which records each member's failure; the stage
    image norms of the Yosida path are taken after it, in one block call,
    and every report is built after that, in one place. Each member's
    report is bit for bit the one ``solve`` gives it alone, failures included,
    so the grouping changes no answer.
    """
    problems = list(problems)
    groups = {}
    for m, p in enumerate(problems):
        groups.setdefault(_march_key(p), []).append(m)
    if len(groups) != 1:  # none, or one march per key
        reports = [None] * len(problems)
        for members in groups.values():
            for m, rep in zip(members, solve_batch([problems[m] for m in members])):
                reports[m] = rep
        return reports
    head = problems[0]
    grid = head.forcing.grid
    forcing = np.stack([p.forcing.values for p in problems])
    linear, tail = head.relation.split()
    yosida = head.mode == "yosida_path"
    # direct mode, and a relation with no tail in either mode, is the one stage [tail];
    # each Yosida stage warm-starts from the last
    lams = head.schedule() if yosida else [None]
    tails = [YosidaRelation(tail, lam) for lam in lams] if yosida and tail is not None else [tail]
    plans = _node_plans(head.family, linear, tails, grid.t0, grid.dt, grid.n)
    vals, total, res, failures = _march(plans, forcing, grid.dt, tails, head.fp_tol, head.fp_max_iter)
    live = [m for m, failure in enumerate(failures) if failure is None]
    traces = {}
    if yosida and live:
        norms = _stage_image_norms(linear, tails, vals[:, live], [problems[m].forcing for m in live])
        # the one stage of a tailless path is the image at every lambda
        traces = {m: list(zip(lams, itertools.cycle(stage_norms)))
                  for m, stage_norms in zip(live, zip(*norms))}
    final = vals[-1].copy()  # so the reports do not keep the earlier stages alive
    reports = []
    for m, (p, failure) in enumerate(zip(problems, failures)):
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
        reports.append(SolveReport(
            solution=p.forcing.with_values(final[m]),
            per_step_iterations=total[m].tolist(),
            max_residual=res[m],
            status="converged",
            lambda_trace=traces.get(m, []),
        ))
    return reports


def solve(problem: InclusionProblem) -> SolveReport:
    """March the inclusion causally; optionally through a Yosida-regularized path.

    Direct mode steps the relation itself. The regularized path marches with
    the relation's nonlinear tail replaced by its Yosida surrogate at every
    scheduled lambda, each stage warm-started from the previous one, and
    reports the weighted norms of the stage images (they must stay bounded as
    lambda shrinks); the last stage is the answer. It is a batch of one.
    """
    return solve_batch([problem])[0]


def lipschitz_bound(problem: InclusionProblem) -> float:
    """Contract bound (1/c_tilde)(1 + 20*dt*(rho + lip + sup)) for the certificate."""
    fam = problem.family
    tol_dt = 20.0 * problem.forcing.grid.dt * (problem.rho + fam.lip_M0 + fam.sup_M1)
    return (1.0 + tol_dt) / problem.c_tilde


def yosida_delta(family: MaterialFamily) -> float:
    """The Yosida path's delta = 2 (sup M1 + lip M0) + 1, from the family's claims."""
    return 2.0 * (family.sup_M1 + family.lip_M0) + 1.0


def yosida_reference_bound(problem: InclusionProblem) -> float:
    """Reference bound (1 + delta/c_tilde)|f| + (sup|M0|/c_tilde)|f'| on the Yosida path's images.

    Norms are weighted; sup|M0| is measured at t0 on a constant family, else
    at 16 times spread over the grid.
    """
    fam, f = problem.family, problem.forcing
    grid = f.grid
    ts = [grid.t0] if fam.constant else grid.t0 + grid.dt * np.linspace(0, grid.n - 1, 16)
    sup_m0 = measure_constants(fam.M0_at, fam.M1_at, fam.kernel_basis, fam.range_basis, ts).sup_M0
    return ((1.0 + yosida_delta(fam) / problem.c_tilde) * weighted_norm(f)
            + (sup_m0 / problem.c_tilde) * weighted_norm(derivative(f)))


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
