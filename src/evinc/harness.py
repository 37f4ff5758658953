"""Randomized verification campaigns for the solver's quantitative guarantees.

Each check runs over seeded trials: causality and weight-independence compare
solutions bit for bit (the march is deterministic and causal, so anything
weaker would hide bugs); the Lipschitz and monotonicity checks compare against
their closed-form bounds; the oracle check cross-validates the stepper against
an independent branch-enumeration solver that never touches a resolvent.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .catalog import CatalogProblem
from .errors import ContractViolation, ResolventFailure, StepFailure, StepSizeError
from .materials import coefficients
from .relations import BallSaturation, LinearRelation, NormSubdifferential, ZeroRelation
from .signals import WeightedSignal, weighted_inner, weighted_norm
from .solver import (FP_TOL, certificate_gain, certificate_problems, lipschitz_bound, solve,
                     solve_batch)

__all__ = [
    "CHECKS",
    "PropertyCampaign",
    "CampaignReport",
    "run_campaign",
    "replay_check",
    "supported_checks",
    "random_forcing",
    "oracle_reaches",
    "oracle_trajectory",
    "monotonicity_margin",
]


def supported_checks(template: CatalogProblem) -> tuple:
    """The checks a campaign can run on ``template``: each whose needs it meets, in table order."""
    return tuple(name for name, check in CHECKS.items() if check.needs(template))


def _check_request(template: CatalogProblem, seed: int, checks, fp_tol: float):
    """Refuse a negative seed, an ``fp_tol`` that is not finite and positive, and checks
    other than distinct ones that ``template`` supports."""
    if seed < 0:
        raise ContractViolation(f"a seed must be a non-negative integer, got {seed}")
    if not (math.isfinite(fp_tol) and fp_tol > 0):
        raise ContractViolation(f"fp_tol must be finite and positive, got {fp_tol}")
    if isinstance(checks, str):
        raise ContractViolation(f"checks must be a list of check names, got the string {checks!r}")
    if len(set(checks)) < len(checks):
        raise ContractViolation(f"a check is named more than once in {list(checks)}")
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ContractViolation(f"unknown checks {unknown} for template {template.name!r}; "
                                f"the checks are {', '.join(CHECKS)}")
    unsupported = sorted(set(checks) - set(supported_checks(template)))
    if unsupported:
        raise ContractViolation(f"template {template.name!r} does not support checks {unsupported}")


def random_forcing(template: CatalogProblem, rng: np.random.Generator) -> WeightedSignal:
    """Node-wise standard normal values scaled to unit weighted norm."""
    vals = rng.standard_normal((template.grid.n, template.dim))
    sig = template.signal(vals)
    nrm = weighted_norm(sig)
    if nrm == 0.0:
        return sig
    return template.signal(vals / nrm)


@dataclass(frozen=True)
class PropertyCampaign:
    """Seed-determined batch of checks over a catalog template.

    ``checks`` names distinct rows of ``CHECKS``; by default every check the
    template supports.
    """

    template: CatalogProblem
    trials: int = 20
    seed: int = 0
    checks: tuple = None
    fp_tol: float = FP_TOL

    def __post_init__(self):
        if self.checks is None:
            object.__setattr__(self, "checks", supported_checks(self.template))
        if self.trials < 1 or not self.checks:
            raise ContractViolation(
                f"a campaign needs at least one trial and one check, got "
                f"trials={self.trials}, checks={tuple(self.checks)}"
            )
        _check_request(self.template, self.seed, self.checks, self.fp_tol)


@dataclass
class CampaignReport:
    """One row per (trial, check); rows are ordered, so serialization is stable.

    ``errors`` maps (trial, check) to ``"<Type>: <message>"`` for each check
    that failed by raising; it goes to ``to_text`` only, never to the CSV.
    """

    campaign_name: str
    seed: int
    rows: list = field(default_factory=list)  # (trial, check, passed, margin, seed)
    errors: dict = field(default_factory=dict)

    def add(self, trial, check, passed, margin, seed, error=None):
        # + 0.0 folds negative zero so serialized margins are sign-stable
        self.rows.append((trial, check, bool(passed), float(margin) + 0.0, int(seed)))
        if error is not None:
            self.errors[(trial, check)] = f"{type(error).__name__}: {error}"

    @property
    def failures(self):
        return [r for r in self.rows if not r[2]]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        out = {}
        for check in sorted({r[1] for r in self.rows}):
            rows = [r for r in self.rows if r[1] == check]
            out[check] = {
                "trials": len(rows),
                "passes": sum(1 for r in rows if r[2]),
                "worst_margin": min(r[3] for r in rows),
                "failing_seeds": [r[4] for r in rows if not r[2]],
            }
        return out

    def to_csv(self) -> str:
        lines = ["trial,check,passed,margin,seed"]
        for trial, check, passed, margin, seed in sorted(self.rows, key=lambda r: (r[0], r[1])):
            lines.append(f"{trial},{check},{int(passed)},{margin:.17g},{seed}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"campaign = {self.campaign_name}", f"seed = {self.seed}"]
        for check, info in self.summary().items():
            lines.append(f"{check}.trials = {info['trials']}")
            lines.append(f"{check}.passes = {info['passes']}")
            lines.append(f"{check}.worst_margin = {info['worst_margin']:.17g}")
            if info["failing_seeds"]:
                lines.append(
                    f"{check}.failing_seeds = {' '.join(str(s) for s in info['failing_seeds'])}"
                )
            for (trial, name), text in sorted(self.errors.items()):
                if name == check:
                    lines.append(f"{check}.error.{trial} = {text}")
        lines.append(f"passed = {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def monotonicity_margin(template: CatalogProblem, u: WeightedSignal) -> float:
    """Slack of the discrete coercivity inequality for the material part.

    Compares Re<(D(M0 u) + M1 u, u>_rho against the kernel/range bracket with
    eps = (c1 - c_tilde)/2, allowing the implicit-scheme correction
    10*(rho^2 + lip)*max_k|u_k| * dt * |u|^2. Nonnegative margin means pass.
    """
    fam = template.family
    grid = u.grid
    dt = grid.dt
    rho = u.rho
    vals = u.values
    # a constant family is evaluated once; a stacked matmul row is bitwise M0 @ v_k
    ts = [grid.t0] if fam.constant else [grid.t0 + k * dt for k in range(grid.n)]
    M0, M1 = coefficients(fam, ts)
    m0u = (M0 @ vals[:, :, None])[:, :, 0]
    m1u = (M1 @ vals[:, :, None])[:, :, 0]
    d_m0u = np.diff(m0u, axis=0, prepend=np.zeros((1, vals.shape[1]))) / dt
    lhs = weighted_inner(u.with_values(d_m0u + m1u), u)
    eps = 0.5 * (fam.c1 - template.c_tilde)
    bracket = rho * fam.c0 - 0.5 * fam.lip_M0 - fam.sup_M1 - fam.sup_M1**2 / eps
    range_part = u.with_values(vals @ fam.range_basis @ fam.range_basis.T)
    kernel_part = u.with_values(vals @ fam.kernel_basis @ fam.kernel_basis.T)
    rhs = bracket * weighted_inner(range_part, range_part) + (
        fam.c1 - eps
    ) * weighted_inner(kernel_part, kernel_part)
    sup_u = float(np.max(np.linalg.norm(vals, axis=1)))
    allowance = 10.0 * (rho**2 + fam.lip_M0) * sup_u * dt * weighted_inner(u, u)
    return float(lhs - rhs + allowance)


# ---------------------------------------------------------------------------
# independent branch-enumeration oracle (no resolvents, no shared step code)


def _solve(S, b, x=0.0):
    """The u with (S + x I) u = b, by Cramer's rule; a matrix is a flat list, row by row."""
    if len(b) == 1:
        return [b[0] / (S[0] + x)]
    a, c, d, e = S
    det = (a + x) * (e + x) - c * d
    return [(b[0] * (e + x) - c * b[1]) / det, ((a + x) * b[1] - b[0] * d) / det]


def _matvec(M, u):
    return [M[0] * u[0]] if len(u) == 1 else [M[0] * u[0] + M[1] * u[1], M[2] * u[0] + M[3] * u[1]]


def _norm(v) -> float:
    """The 2-norm as written, ``x*x + y*y`` rounded twice: no fused multiply-add."""
    return abs(v[0]) if len(v) == 1 else math.sqrt(v[0] * v[0] + v[1] * v[1])


def _residual(S, u, a, b) -> float:
    """|S u + a - b|: how far ``u``, with ``a`` in A(u), is from solving the step."""
    r = _matvec(S, u)
    r = [r[0] + a[0] - b[0]] if len(b) == 1 else [r[0] + a[0] - b[0], r[1] + a[1] - b[1]]
    return _norm(r)


def _min_sym_eig(S) -> float:
    if len(S) == 1:
        return S[0]
    a, c, d, e = S
    off, tr = 0.5 * (c + d), a + e
    return tr / 2.0 - math.sqrt(max(tr * tr / 4.0 - (a * e - off * off), 0.0))


def _bisect_radius(phi, lo, hi, iters=200):
    """A root of ``phi`` from ``lo``, doubling ``hi`` until they bracket one; None if they never do.

    Halving stops once the midpoint is an end: from there on the state does
    not change, so the root is the one that all ``iters`` halvings give.
    """
    flo, fhi, expand = phi(lo), phi(hi), 0
    while flo * fhi > 0 and expand < 60:
        hi, expand = 2.0 * hi, expand + 1
        fhi = phi(hi)
    if flo * fhi > 0:
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fm = phi(mid)
        lo, hi, flo = (lo, mid, flo) if flo * fm <= 0 else (mid, hi, fm)
    return 0.5 * (lo + hi)


def _radial_branch(S, b, c, lo, tol, no_root, too_far, no_root_residual=None):
    """The u != 0 with S u + c u/|u| = b: bisect |(S + (c/r) I)^-1 b| = r for r = |u|."""
    hi = (_norm(b) + c) / max(_min_sym_eig(S), 1e-12) + 1.0
    root = _bisect_radius(lambda r: _norm(_solve(S, b, c / r)) - r, lo, hi)
    if root is None:
        raise StepFailure(f"oracle: {no_root}", step=None, residual=no_root_residual)
    u = _solve(S, b, c / root)
    res = _residual(S, u, [c * ui / _norm(u) for ui in u], b)
    if res <= tol * (1.0 + _norm(b)):
        return u
    raise StepFailure(f"oracle: {too_far}", step=None, residual=res)


def _linear_step(G, S, b, tol):
    """The one branch of the linear relation G u; G = 0 is the zero relation."""
    u = _solve(list(map(operator.add, S, G)), b)
    res = _residual(S, u, _matvec(G, u), b)
    if res <= tol * (1.0 + _norm(b)):
        return u
    raise StepFailure("oracle: linear branch residual too large", step=None, residual=res)


def _sign_step1(w, S, b, tol):
    """The three branches of the scalar sign relation w sgn(u): u > 0, u < 0 and u = 0."""
    s, b, scale = S[0], b[0], 1.0 + abs(b[0])
    for sgn in (1.0, -1.0):
        u = (b - sgn * w) / s
        if sgn * u > 0 and abs(s * u + sgn * w - b) <= tol * scale:
            return [u]
    res = max(abs(b) - w, 0.0)
    if abs(b) <= w + tol and res <= tol * scale:
        return [0.0]
    raise StepFailure("oracle: no sign branch admits a solution", step=None, residual=res)


def _sign_step2(w, S, b, tol):
    """The planar sign relation w u/|u|: zero while |b| <= w, else its smooth branch."""
    if _norm(b) <= w * (1.0 + 1e-14):
        return [0.0, 0.0]
    return _radial_branch(S, b, w, 1e-14, tol, "radial bisection failed",
                          "smooth branch residual too large")


def _ball_step(s0, S, b, tol):
    """The saturation: its free branch (A(u) = u) inside the ball, else its saturated branch."""
    u = _solve(S, b, 1.0)
    free = _residual(S, u, u, b) if _norm(u) <= s0 * (1.0 + 1e-14) else None
    if free is not None and free <= tol * (1.0 + _norm(b)):
        return u
    # no saturated radius lies past a free point inside the ball: then the free branch failed
    no_root = ("no saturation branch admits a solution" if free is None
               else "free branch residual too large")
    return _radial_branch(S, b, s0, s0, tol, no_root, "saturated branch residual too large", free)


#: the relations ``_oracle_step`` has branches for
_ORACLE_RELATIONS = (ZeroRelation, LinearRelation, NormSubdifferential, BallSaturation)


def oracle_reaches(template: CatalogProblem) -> bool:
    """Whether the oracle solves ``template``: dim <= 2 and a relation it has branches for."""
    return template.dim <= 2 and isinstance(template.relation, _ORACLE_RELATIONS)


def _oracle_step(relation, dim: int):
    """The node step ``(S, b, tol) -> u`` of ``relation`` at ``dim``, on lists of floats."""
    if isinstance(relation, NormSubdifferential):
        return partial(_sign_step1 if dim == 1 else _sign_step2, relation.weight)
    if isinstance(relation, BallSaturation):
        return partial(_ball_step, relation.radius)
    G = relation.matrix if isinstance(relation, LinearRelation) else np.zeros((dim, dim))
    return partial(_linear_step, G.ravel().tolist())


def oracle_trajectory(template: CatalogProblem, forcing: WeightedSignal,
                      tol: float = 1e-12) -> WeightedSignal:
    """Ground-truth trajectory of a catalog template via per-step branch enumeration.

    Restricted to the templates ``oracle_reaches``. The per-step solves
    enumerate the relation's branches and bisect the radial equations; no
    resolvents, no step-engine code. A node steps on Python floats, as a numpy
    call on a one- or two-entry array costs about 1 µs; numpy only reads the
    forcing and coefficients and builds the result. The values are the numpy
    oracle's of ``09a8e12`` bit for bit on the four low-dimensional catalog
    templates and on a moving diagonal plane. Elsewhere BLAS fuses the
    multiply-adds of ``M0 u`` and of a 2-norm, which Python rounds twice, so
    the last ulps may move: by up to 2e-15 with a non-diagonal ``M0``, and by
    1e-17 where a planar sign bisection reads the last bit of a norm.
    """
    family, relation, dim = template.family, template.relation, template.dim
    if not oracle_reaches(template):
        raise ContractViolation(f"{template.name!r} has no oracle: it needs dim <= 2 and a relation "
                                f"it has branches for, got dim {dim}, {type(relation).__name__}")
    grid, dt, step = forcing.grid, forcing.grid.dt, _oracle_step(relation, dim)
    # each node's M0 and S as flat lists; a constant family is evaluated once, as the march
    # plans it, and its one node's lists serve every node
    ts, repeat = (([grid.t0], grid.n) if family.constant
                  else ([grid.t0 + k * dt for k in range(grid.n)], 1))
    M0, M1 = coefficients(family, ts)
    m0s = M0.reshape(len(ts), -1).tolist() * repeat
    ss = (M0 / dt + M1).reshape(len(ts), -1).tolist() * repeat
    out, p = [], [0.0] * dim  # p is M0 u of the last node
    try:
        for k, (f, m0, S) in enumerate(zip(forcing.values.tolist(), m0s, ss)):
            b = [f[0] + p[0] / dt] if dim == 1 else [f[0] + p[0] / dt, f[1] + p[1] / dt]
            u = step(S, b, tol)
            out.append(u)
            p = _matvec(m0, u)
    except StepFailure as miss:  # a node step knows its residual, not its node
        raise StepFailure(f"{miss} at node {k}", step=k, residual=miss.residual) from None
    return forcing.with_values(np.array(out))



# ---------------------------------------------------------------------------
# campaign driver

#: failures that a campaign records as a failed check; anything else propagates
_TYPED_FAILURES = (StepFailure, StepSizeError, ResolventFailure, ContractViolation)

# A check is split in two. Its draw, ``(template, rng, fp_tol) -> (problems,
# judge)``, takes everything random from its rng and builds the problems it
# needs solved; its judge takes their reports, in the same order, and gives
# ``(passed, margin)``. In between, the campaign solves the problems of all
# its draws in one ``solve_batch`` call, which decides what shares a march.


def _report(outcome):
    """The report of a solve; a solve that raised a typed failure raises it here."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _converged(outcome):
    """The converged report of a solve; a failed march raises its StepFailure."""
    rep = _report(outcome)
    if not rep.converged:
        raise StepFailure(rep.fail_reason, step=rep.fail_step)
    return rep


def _draw_causality(template, rng, fp_tol):
    f = random_forcing(template, rng)
    g = random_forcing(template, rng)
    cut = int(rng.integers(1, template.grid.n - 1))
    g_vals = g.values.copy()
    g_vals[:cut] = f.values[:cut]
    g = template.signal(g_vals)

    def judge(rep_f, rep_g):
        u_f, u_g = (_converged(rep).solution.values[:cut] for rep in (rep_f, rep_g))
        diff = np.max(np.abs(u_f - u_g), initial=0.0)
        return diff == 0.0, -float(diff)

    return [template.problem(f, fp_tol=fp_tol), template.problem(g, fp_tol=fp_tol)], judge


def _draw_lipschitz(template, rng, fp_tol):
    f = random_forcing(template, rng)
    g = random_forcing(template, rng)
    prob = template.problem(f, fp_tol=fp_tol)
    pair = certificate_problems(prob, g)

    def judge(*reports):
        ratio = certificate_gain(pair, [_report(rep) for rep in reports])
        bound = lipschitz_bound(prob)
        return ratio <= bound, float(bound - ratio)

    return pair, judge


def _draw_monotonicity(template, rng, fp_tol):
    u = random_forcing(template, rng)

    def judge():
        margin = monotonicity_margin(template, u)
        return margin >= 0.0, margin

    return [], judge


def _draw_rho_independence(template, rng, fp_tol):
    f = random_forcing(template, rng)
    rhos = template.admissible_rho_pair()

    def judge(rep_a, rep_b):
        u_a, u_b = (_converged(rep).solution.values for rep in (rep_a, rep_b))
        diff = np.max(np.abs(u_a - u_b), initial=0.0)
        return diff == 0.0, -float(diff)

    return [
        template.problem(template.signal(f.values, rho), rho=rho, fp_tol=fp_tol) for rho in rhos
    ], judge


def _draw_yosida(template, rng, fp_tol):
    f = random_forcing(template, rng)

    def judge(direct, path):
        direct, path = _converged(direct), _converged(path)
        lam_min = path.lambda_trace[-1][0]
        tol = 10.0 * fp_tol + 5.0 * lam_min
        err = float(
            np.max(np.abs(direct.solution.values - path.solution.values), initial=0.0)
        )
        # each stage's image norm is finite and at most twice the one before
        norms = [nrm for _, nrm in path.lambda_trace]
        norms_ok = all(map(math.isfinite, norms)) and all(
            b <= 2.0 * a + 10.0 * fp_tol for a, b in zip(norms, norms[1:])
        )
        return (err <= tol) and norms_ok, float(tol - err)

    return [
        template.problem(f, fp_tol=fp_tol),
        template.problem(f, mode="yosida_path", fp_tol=fp_tol),
    ], judge


def _draw_oracle(template, rng, fp_tol):
    f = random_forcing(template, rng)

    def judge(rep):
        rep = _converged(rep)
        ref = oracle_trajectory(template, f)
        err = float(np.max(np.abs(rep.solution.values - ref.values), initial=0.0))
        tol = 10.0 * fp_tol
        return err <= tol, float(tol - err)

    return [template.problem(f, fp_tol=fp_tol)], judge


class Check(NamedTuple):
    """A check's draw, the index that seeds its rng with a trial's seed, and what it needs."""

    draw: Callable
    rng_index: int
    needs: Callable = lambda template: True


#: check name -> its row; a row's rng index is frozen, so adding a row changes no draw
CHECKS = {
    # a cut node strictly between the first node and the last
    "causality": Check(_draw_causality, 0, lambda template: template.grid.n >= 3),
    "lipschitz": Check(_draw_lipschitz, 1),
    "monotonicity_bound": Check(_draw_monotonicity, 2),
    "rho_independence": Check(_draw_rho_independence, 3),
    "yosida_agreement": Check(_draw_yosida, 4),
    "oracle_match": Check(_draw_oracle, 5, oracle_reaches),
}


def _solve_alone(problem):
    try:
        return solve(problem)
    except _TYPED_FAILURES as exc:
        return exc


def _solve_all(problems):
    """One report per problem, from one ``solve_batch`` call.

    A typed failure of the call as a whole (a relation that raises, say)
    is not one member's: then each problem is solved alone, and one that
    raises gets its failure in place of its report.
    """
    try:
        return solve_batch(problems)
    except _TYPED_FAILURES:
        return [_solve_alone(p) for p in problems]


def _run_checks(template, cases, fp_tol):
    """``(passed, margin, error)`` of each ``(seed, check)`` in ``cases``, in order.

    Every case draws from its own rng, seeded by its seed and check; then the
    problems of all draws are solved with one ``solve_batch`` call, and then
    each case is judged. A typed failure in a case's draw, solve or
    judge fails that case alone, with margin ``-inf``; it is its ``error``.
    """
    drawn = []
    for seed, check in cases:
        rng = np.random.default_rng([int(seed), CHECKS[check].rng_index])
        try:
            drawn.append(CHECKS[check].draw(template, rng, fp_tol))
        except _TYPED_FAILURES as exc:
            drawn.append(exc)
    outcomes = iter(_solve_all([p for d in drawn if not isinstance(d, Exception) for p in d[0]]))
    results = []
    for d in drawn:
        if isinstance(d, Exception):
            results.append((False, float("-inf"), d))
            continue
        case_problems, judge = d
        reports = [next(outcomes) for _ in case_problems]
        try:
            results.append((*judge(*reports), None))
        except _TYPED_FAILURES as exc:
            results.append((False, float("-inf"), exc))
    return results


def replay_check(template: CatalogProblem, check: str, seed: int,
                 fp_tol: float = FP_TOL):
    """Re-run one trial check from its recorded seed; returns (passed, margin).

    It takes the campaign's path, so a typed failure gives the row
    ``run_campaign`` records for it, and it refuses what a campaign refuses.
    """
    _check_request(template, seed, [check], fp_tol)
    passed, margin, _ = _run_checks(template, [(seed, check)], fp_tol)[0]
    return passed, margin


def run_campaign(campaign: PropertyCampaign) -> CampaignReport:
    """Run every selected check over seeded trials; failures never abort.

    Every (trial, check) is drawn first, in trial order; the problems of all
    of them are solved in one ``solve_batch`` call; then each is judged, in
    the same order. A ``StepFailure``, ``StepSizeError`` (a node whose
    step matrix is not coercive), ``ResolventFailure`` or
    ``ContractViolation`` is a failed check with margin ``-inf``, and the
    report keeps its type and message; any other exception propagates.
    """
    master = np.random.default_rng(campaign.seed)
    trial_seeds = master.integers(0, 2**63 - 1, size=campaign.trials)
    rows = [(trial, seed, check) for trial, seed in enumerate(trial_seeds)
            for check in campaign.checks]
    cases = [(seed, check) for _, seed, check in rows]
    results = _run_checks(campaign.template, cases, campaign.fp_tol)
    report = CampaignReport(campaign_name=campaign.template.name, seed=campaign.seed)
    for (trial, seed, check), (passed, margin, error) in zip(rows, results):
        report.add(trial, check, passed, margin, seed, error)
    return report
