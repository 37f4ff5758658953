"""Randomized verification campaigns for the solver's quantitative guarantees.

Each check runs over seeded trials: causality and weight-independence compare
solutions bit for bit (the march is deterministic and causal, so anything
weaker would hide bugs); the Lipschitz and monotonicity checks compare against
their closed-form bounds; the oracle check cross-validates the stepper against
an independent branch-enumeration solver that never touches a resolvent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import CatalogProblem
from .errors import ContractViolation, ResolventFailure, StepFailure, StepSizeError
from .relations import (
    BallSaturation,
    LinearRelation,
    NormSubdifferential,
    ZeroRelation,
)
from .signals import WeightedSignal, weighted_inner, weighted_norm
from .solver import (
    FP_TOL,
    certificate_gain,
    certificate_problems,
    lipschitz_bound,
    solve,
    solve_batch,
)

__all__ = [
    "PropertyCampaign",
    "CampaignReport",
    "run_campaign",
    "supported_checks",
    "random_forcing",
    "oracle_trajectory",
    "fixed_point_iterates",
    "monotonicity_margin",
]

ALL_CHECKS = (
    "causality",
    "lipschitz",
    "monotonicity_bound",
    "rho_independence",
    "yosida_agreement",
    "oracle_match",
)


def supported_checks(template: CatalogProblem) -> tuple:
    """The checks a campaign can run on ``template``.

    oracle_match needs its oracle, and causality a cut node between the
    first and the last, so at least 3 nodes.
    """
    return tuple(c for c in ALL_CHECKS if (c != "oracle_match" or template.oracle_capable)
                 and (c != "causality" or template.grid.n >= 3))


def _check_seed(seed):
    """Refuse a negative seed, which numpy's generators would reject with a ValueError."""
    if seed < 0:
        raise ContractViolation(f"a seed must be a non-negative integer, got {seed}")


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

    ``checks`` defaults to every check the template supports.
    """

    template: CatalogProblem
    trials: int = 20
    seed: int = 0
    checks: tuple = None
    fp_tol: float = FP_TOL

    def __post_init__(self):
        _check_seed(self.seed)
        if self.checks is None:
            object.__setattr__(self, "checks", supported_checks(self.template))
        if self.trials < 1 or not self.checks:
            raise ContractViolation(
                f"a campaign needs at least one trial and one check, got "
                f"trials={self.trials}, checks={tuple(self.checks)}"
            )
        unsupported = set(self.checks) - set(supported_checks(self.template))
        if unsupported:
            raise ContractViolation(
                f"template {self.template.name!r} does not support checks {sorted(unsupported)}"
            )


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
    M0 = np.stack([np.asarray(fam.M0_at(t), dtype=float) for t in ts])
    M1 = np.stack([np.asarray(fam.M1_at(t), dtype=float) for t in ts])
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


def _cramer_solve(S: np.ndarray, b: np.ndarray) -> np.ndarray:
    if S.shape == (1, 1):
        return np.array([b[0] / S[0, 0]])
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    return np.array(
        [
            (b[0] * S[1, 1] - S[0, 1] * b[1]) / det,
            (S[0, 0] * b[1] - b[0] * S[1, 0]) / det,
        ]
    )


def _bisect_radius(phi, lo, hi, iters=200):
    flo = phi(lo)
    fhi = phi(hi)
    expand = 0
    while flo * fhi > 0 and expand < 60:
        hi *= 2.0
        fhi = phi(hi)
        expand += 1
    if flo * fhi > 0:
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = phi(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _norm(v) -> float:
    """The 2-norm of a vector: what ``np.linalg.norm`` computes for one, without its dispatch."""
    return math.sqrt(v.dot(v))


def _oracle_step(relation, S: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Solve S u + A(u) ∋ b by exhaustive branch enumeration plus bisection."""
    scale = 1.0 + _norm(b)

    def residual(u, a_val):
        return _norm(S @ u + a_val - b)

    if isinstance(relation, ZeroRelation):
        u = _cramer_solve(S, b)
        if residual(u, 0.0 * u) <= tol * scale:
            return u
        raise StepFailure("oracle: linear branch residual too large", step=-1)

    if isinstance(relation, LinearRelation):
        u = _cramer_solve(S + relation.matrix, b)
        if residual(u, relation.matrix @ u) <= tol * scale:
            return u
        raise StepFailure("oracle: linear branch residual too large", step=-1)

    if isinstance(relation, NormSubdifferential):
        wgt = relation.weight
        if S.shape == (1, 1):
            s = S[0, 0]
            # three branches of the sign relation
            for u_val, a_val, ok in (
                ((b[0] - wgt) / s, wgt, lambda x: x > 0),
                ((b[0] + wgt) / s, -wgt, lambda x: x < 0),
                (0.0, b[0], lambda x: abs(b[0]) <= wgt + tol),
            ):
                if ok(u_val):
                    u = np.array([u_val])
                    res = abs(s * u_val + (a_val if u_val != 0.0 else 0.0) - b[0])
                    if u_val == 0.0:
                        res = max(abs(b[0]) - wgt, 0.0)
                    if res <= tol * scale:
                        return u
            raise StepFailure("oracle: no sign branch admits a solution", step=-1)
        # planar: zero branch, else radial equation on the smooth branch
        if _norm(b) <= wgt * (1.0 + 1e-14):
            return np.zeros(2)

        def phi(r):
            u = _cramer_solve(S + (wgt / r) * np.eye(2), b)
            return _norm(u) - r

        hi = (_norm(b) + wgt) / max(_min_sym_eig(S), 1e-12) + 1.0
        root = _bisect_radius(phi, 1e-14, hi)
        if root is None:
            raise StepFailure("oracle: radial bisection failed", step=-1)
        u = _cramer_solve(S + (wgt / root) * np.eye(2), b)
        if residual(u, wgt * u / _norm(u)) <= tol * scale:
            return u
        raise StepFailure("oracle: smooth branch residual too large", step=-1)

    if isinstance(relation, BallSaturation):
        s0 = relation.radius
        eye = np.eye(S.shape[0])
        u = _cramer_solve(S + eye, b)  # unsaturated branch: A(u) = u
        if _norm(u) <= s0 * (1.0 + 1e-14):
            if residual(u, u) <= tol * scale:
                return u

        def phi(r):
            v = _cramer_solve(S + (s0 / r) * eye, b)
            return _norm(v) - r

        hi = (_norm(b) + s0) / max(_min_sym_eig(S), 1e-12) + 1.0
        root = _bisect_radius(phi, s0, hi)
        if root is None:
            raise StepFailure("oracle: no saturation branch admits a solution", step=-1)
        u = _cramer_solve(S + (s0 / root) * eye, b)
        if residual(u, s0 * u / _norm(u)) <= tol * scale:
            return u
        raise StepFailure("oracle: saturated branch residual too large", step=-1)

    raise ContractViolation(f"no oracle branches for relation {type(relation).__name__}")


def _min_sym_eig(S):
    sym = 0.5 * (S + S.T)
    if sym.shape == (1, 1):
        return float(sym[0, 0])
    tr = sym[0, 0] + sym[1, 1]
    det = sym[0, 0] * sym[1, 1] - sym[0, 1] * sym[1, 0]
    disc = np.sqrt(max(tr * tr / 4.0 - det, 0.0))
    return float(tr / 2.0 - disc)


def oracle_trajectory(template: CatalogProblem, forcing: WeightedSignal,
                      tol: float = 1e-12) -> WeightedSignal:
    """Ground-truth trajectory of a catalog template via per-step branch enumeration.

    Restricted to dim <= 2. The per-step solves enumerate the relation's
    branches and bisect the radial equations; no resolvents, no step-engine
    code.
    """
    family, relation = template.family, template.relation
    dim = family.dim
    if dim > 2:
        raise ContractViolation("oracle is restricted to dim <= 2")
    if not template.oracle_capable:
        raise ContractViolation(f"{template.name!r} has no oracle")
    grid = forcing.grid
    dt = grid.dt
    vals = forcing.values
    out = np.empty_like(vals)
    prev_m0u = np.zeros(dim)

    def matrices(t):
        M0 = np.asarray(family.M0_at(t), dtype=float)
        return M0, M0 / dt + np.asarray(family.M1_at(t), dtype=float)

    # a constant family is evaluated once, as the march plans it
    fixed = matrices(grid.t0) if family.constant else None
    for k in range(grid.n):
        M0, S = fixed or matrices(grid.t0 + k * dt)
        b = vals[k] + prev_m0u / dt
        u = _oracle_step(relation, S, b, tol)
        out[k] = u
        prev_m0u = M0 @ u
    return forcing.with_values(out)


def fixed_point_iterates(f_map, g_map, x: np.ndarray, n_iter: int,
                         lip_f: float, lip_g: float, y0=None):
    """Iterates y_{n+1} = F(x - G(y_n)) from y_0 (zero by default).

    Requires lip_f * lip_g < 1; the tail of the sequence then contracts at
    that rate toward the unique fixed point, whatever the starting point.
    """
    if lip_f * lip_g >= 1.0:
        raise ContractViolation(
            f"contraction product must be < 1, got {lip_f * lip_g:.3g}"
        )
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x) if y0 is None else np.asarray(y0, dtype=float).copy()
    iterates = [y.copy()]
    for _ in range(n_iter):
        y = np.asarray(f_map(x - g_map(y)), dtype=float)
        iterates.append(y.copy())
    return iterates


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
    n = template.grid.n
    if n < 3:
        raise ContractViolation(f"causality needs a cut node inside the grid, so n >= 3, got n={n}")
    f = random_forcing(template, rng)
    g = random_forcing(template, rng)
    cut = int(rng.integers(1, n - 1))
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
        norms = [nrm for _, nrm in path.lambda_trace]
        ratio_ok = all(
            b <= 2.0 * a + 10.0 * fp_tol for a, b in zip(norms, norms[1:])
        )
        return (err <= tol) and ratio_ok, float(tol - err)

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


#: check -> its draw
_CHECK_FNS = {
    "causality": _draw_causality,
    "lipschitz": _draw_lipschitz,
    "monotonicity_bound": _draw_monotonicity,
    "rho_independence": _draw_rho_independence,
    "yosida_agreement": _draw_yosida,
    "oracle_match": _draw_oracle,
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
        rng = np.random.default_rng([int(seed), ALL_CHECKS.index(check)])
        try:
            drawn.append(_CHECK_FNS[check](template, rng, fp_tol))
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
    ``run_campaign`` records for it.
    """
    _check_seed(seed)
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
