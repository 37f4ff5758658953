"""Maximal monotone relations defined through their resolvents.

A relation A is accessed exclusively via resolve(lam, y), the unique x with
(x, (y-x)/lam) in A; set-valuedness stays exact without any set representation
because every construction downstream (Yosida surrogates, per-step solves,
Lipschitz-perturbed sums) consumes resolvents only.

Catalog members ship closed-form resolvents derived by case analysis and are
cross-checked by the surjectivity scan in the tests. The resolvent of an
assembled relation, ``StructuredSum`` (a monotone matrix plus a tail), is one
implicit step: x + lam*A(x) ∋ y is the step of u' + A(u) ∋ 0 from the past y
with M0 = 1, M1 = 0 and dt = lam, which ``solver.solve_step`` solves with the
engine the march plans for it. The Lipschitz-perturbed sum iterates its own
Picard map. Structural hooks used by the stepper:

- ``split()`` returns ``(linear_matrix_or_None, tail_or_None)`` with
  A = linear + tail;
- single-valued tails expose ``apply`` and a cocoercivity constant
  (projection-type maps are 1-cocoercive), which decides between
  forward-backward and Douglas-Rachford in the per-step engines;
- ``graph_distance(x, v)`` measures dist(v, A(x)) for brute-force oracles.

Shape contract: ``resolve`` and ``apply`` take ``(..., dim)`` states and give
each row the bits of that row alone. The two sums that resolve by iteration loop over the rows.
A ``(rows, dim)`` stack may also take its parameter as a ``(rows, 1)`` column, one
value per row: ``resolve`` then gives each row the bits of ``resolve`` on that row
with its own value, and ``YosidaRelation`` takes its ``lam`` the same way, so the
march can evaluate the cells of several lambda-stages in one call.
One vector through a norm relation on nodes of fewer than ``ORDERED_SUM`` entries (bare,
in a slot of at most ``FLOAT_ENTRIES`` entries, or under a Yosida surrogate at one lam)
runs on Python floats with the array form's bits (``_blockwise``); wider nodes take the array form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation, ResolventFailure, StepFailure
from .fixed_point import CONVERGED, fixed_point
from .materials import constant_family

__all__ = [
    "MonotoneRelation",
    "ZeroRelation",
    "LinearRelation",
    "NormSubdifferential",
    "BallSaturation",
    "DeviatoricSaturation",
    "NodewiseRelation",
    "SlotEmbedded",
    "StructuredSum",
    "YosidaRelation",
    "resolvent",
    "yosida",
    "lift",
    "LiftedRelation",
    "minty_scan",
    "MintyReport",
    "sum_with_lipschitz",
    "relation_from_config",
]

PICARD_TOL = 1e-12
PICARD_MAX_ITER = 10_000
ORDERED_SUM = 8  # numpy sums rows shorter than this in order, pairwise from here
FLOAT_ENTRIES = 48  # slot entries up to which one vector runs on floats (BENCH_float_relations.json)


def _row_norms(ys):
    """Euclidean norms over the last axis of ``ys``, keeping that axis.

    ``np.add.reduce`` gives a row the same bits alone or in any stack; ``np.linalg.norm``
    of a vector goes through BLAS ``dot`` and can differ in the last bit.
    """
    return np.sqrt(np.add.reduce(ys * ys, axis=-1, keepdims=True))


def _block_norm(block):
    """``_row_norms`` of a list of fewer than ``ORDERED_SUM`` floats, with its bits."""
    s = 0.0  # as np.add.reduce; x ** 2 would raise OverflowError
    for x in block:
        s += x * x
    return math.sqrt(s)


def _scaled(block, f):
    return [x * f for x in block]


def _blockwise(base, lam, y):
    """``base._floats`` of each block of the vector ``y``, as one list: the array
    form's operations in order, dividing only by a positive or NaN norm."""
    v, d, lam = y.tolist(), base.dim, None if lam is None else float(lam)
    for i in range(0, len(v), d):
        v[i : i + d] = base._floats(v[i : i + d], lam)
    return v


def _monotone_matrix(matrix, what):
    """(matrix, least eigenvalue of its symmetric part, 2-norm), if monotone."""
    G = np.array(matrix, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ContractViolation(f"{what} needs a square matrix")
    lo = float(np.min(np.linalg.eigvalsh(0.5 * (G + G.T))))
    nrm = float(np.linalg.norm(G, 2))
    if lo < -1e-12 * max(nrm, 1.0):
        raise ContractViolation(f"{what} is not monotone (min sym eig {lo:.3e})")
    return G, lo, nrm


def _row_by_row(resolve, lam, y):
    """``resolve(lam, row)`` of each row of ``y``; a ``lam`` column gives each row its own."""
    rows = y.reshape(-1, y.shape[-1])
    lams = lam.ravel() if isinstance(lam, np.ndarray) else [lam] * len(rows)
    return np.array([resolve(l, r) for l, r in zip(lams, rows)]).reshape(y.shape)


class MonotoneRelation:
    """Base: a maximal monotone relation on R^dim accessed via its resolvent."""

    dim: int
    contains_origin: bool = True
    single_valued: bool = False
    #: largest c with <A(x)-A(y), x-y> >= c |A(x)-A(y)|^2 (0.0 if unknown/none)
    cocoercivity: float = 0.0

    def resolve(self, lam: float, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} is not single-valued")

    def split(self):
        """Decompose A = linear + tail for the step engines."""
        return None, self

    def graph_distance(self, x: np.ndarray, v: np.ndarray) -> float:
        """dist(v, A(x)); NaN when the relation cannot evaluate its graph."""
        if self.single_valued:
            return float(np.linalg.norm(v - self.apply(x)))
        return float("nan")

    def has_eval(self) -> bool:
        return self.single_valued or type(self).graph_distance is not MonotoneRelation.graph_distance


class ZeroRelation(MonotoneRelation):
    """A(x) = {0}; its resolvent is the identity."""

    def __init__(self, dim: int):
        self.dim = dim
        self.single_valued = True
        self.cocoercivity = float("inf")

    def resolve(self, lam, y):
        return np.array(y, dtype=float)

    def apply(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def split(self):
        return None, None


class LinearRelation(MonotoneRelation):
    """A(x) = G x with a monotone matrix G (positive semidefinite symmetric part)."""

    def __init__(self, matrix: np.ndarray):
        G, lo, nrm = _monotone_matrix(matrix, "linear relation")
        self.matrix = G
        self.dim = G.shape[0]
        self.single_valued = True
        self.cocoercivity = max(lo, 0.0) / nrm**2 if nrm > 0 else float("inf")

    # stacked solves and products: row by row the solve and product of a vector;
    # a lam column gives each row its own matrix
    def resolve(self, lam, y):
        A = np.eye(self.dim) + (lam[..., None] if isinstance(lam, np.ndarray) else lam) * self.matrix
        return np.linalg.solve(A, np.asarray(y, dtype=float)[..., None])[..., 0]

    def apply(self, x):
        return (self.matrix @ np.asarray(x, dtype=float)[..., None])[..., 0]

    def split(self):
        return self.matrix, None


class NormSubdifferential(MonotoneRelation):
    """Subdifferential of x -> weight*|x|_2: the sign relation in one dimension.

    Set-valued at the origin (the whole ball of radius ``weight``); the
    resolvent is the block soft threshold.
    """

    def __init__(self, dim: int, weight: float = 1.0):
        if not 0 < weight < np.inf:
            raise ContractViolation(f"weight must be finite and positive, got {weight}")
        self.dim = dim
        self.weight = float(weight)
        self.single_valued = False

    def resolve(self, lam, y):
        y = np.asarray(y, dtype=float)
        if y.ndim == 1 and self.dim < ORDERED_SUM:
            return np.array(_blockwise(self, lam, y))
        th = lam * self.weight
        r = _row_norms(y)
        # a NaN row stays NaN; the divisor is r wherever the row is kept, never 0
        return np.where(r <= th, 0.0, y * (1.0 - th / np.maximum(r, th)))

    def _floats(self, y, lam):
        th, r = lam * self.weight, _block_norm(y)
        return [0.0] * self.dim if r <= th else _scaled(y, 1.0 - th / r)

    def graph_distance(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        r = np.linalg.norm(x)
        if r == 0.0:
            return max(float(np.linalg.norm(v)) - self.weight, 0.0)
        return float(np.linalg.norm(v - self.weight * x / r))


class BallSaturation(MonotoneRelation):
    """A(x) = projection of x onto the ball of the given radius (single-valued)."""

    def __init__(self, dim: int, radius: float = 1.0):
        if not 0 < radius < np.inf:
            raise ContractViolation(f"radius must be finite and positive, got {radius}")
        self.dim = dim
        self.radius = float(radius)
        self.single_valued = True
        self.cocoercivity = 1.0  # projections are firmly nonexpansive

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1 and self.dim < ORDERED_SUM:
            return np.array(_blockwise(self, None, x))
        r = _row_norms(x)
        return np.where(r <= self.radius, x, x * (self.radius / np.maximum(r, self.radius)))

    def resolve(self, lam, y):
        y = np.asarray(y, dtype=float)
        if y.ndim == 1 and self.dim < ORDERED_SUM:
            return np.array(_blockwise(self, lam, y))
        r = _row_norms(y)
        saturated = y * ((r - lam * self.radius) / np.maximum(r, self.radius))
        return np.where(r <= self.radius * (1.0 + lam), y / (1.0 + lam), saturated)

    def _floats(self, y, lam):  # apply at lam=None; past an edge r > radius, or NaN
        r = _block_norm(y)
        if lam is None:
            return y if r <= self.radius else _scaled(y, self.radius / r)
        if r <= self.radius * (1.0 + lam):
            return [x / (1.0 + lam) for x in y]
        return _scaled(y, (r - lam * self.radius) / r)


class DeviatoricSaturation(MonotoneRelation):
    """T -> projection of dev T onto a ball, on Mandel 6-vectors.

    Outputs are trace free; the spherical part of the input passes through the
    resolvent untouched.
    """

    BLOCK = 6

    def __init__(self, radius: float = 1.0):
        if not 0 < radius < np.inf:
            raise ContractViolation(f"radius must be finite and positive, got {radius}")
        self.dim = self.BLOCK
        self.radius = float(radius)
        self.single_valued = True
        self.cocoercivity = 1.0
        self._ball = BallSaturation(self.BLOCK, radius)

    def _dev_rows(self, xs):
        xs = np.asarray(xs, dtype=float)
        dev = xs.copy()
        # the bits of np.mean, without its overhead
        dev[..., :3] -= np.add.reduce(xs[..., :3], axis=-1, keepdims=True) / 3.0
        return dev

    def apply(self, x):
        return self._ball.apply(self._dev_rows(x))

    def resolve(self, lam, y):
        y = np.asarray(y, dtype=float)
        dev = self._dev_rows(y)
        return (y - dev) + self._ball.resolve(lam, dev)

    def _floats(self, y, lam):
        mean = (0.0 + y[0] + y[1] + y[2]) / 3.0  # np.add.reduce starts from +0.0
        dev = [y[0] - mean, y[1] - mean, y[2] - mean, y[3], y[4], y[5]]
        out = self._ball._floats(dev, lam)
        return out if lam is None else [(p - q) + w for p, q, w in zip(y, dev, out)]


class SlotEmbedded(MonotoneRelation):
    """Base relation on each of ``count`` nodes of a contiguous slot, zero elsewhere.

    The slot starts at ``start`` in a state of ``total_dim`` entries and holds
    ``count`` consecutive blocks of ``base.dim`` entries. A stack is one block
    call of the base on its ``(rows * count, base.dim)`` slot nodes, and so is
    one vector past ``FLOAT_ENTRIES`` slot entries. A shorter one runs on the base's
    ``_floats``, unless the base overrides the resolve or apply of the class defining it.
    """

    def __init__(self, base: MonotoneRelation, start: int, total_dim: int, count: int = 1):
        if count < 1 or start < 0 or start + base.dim * count > total_dim:
            raise ContractViolation("slot does not fit in the state vector")
        self.base = base
        self.count = count
        self.start = start
        self.stop = start + base.dim * count
        self.dim = total_dim
        self.contains_origin = base.contains_origin
        self.single_valued = base.single_valued
        self.cocoercivity = base.cocoercivity
        own = next((c for c in type(base).__mro__ if "_floats" in vars(c)), None)
        self._on_floats = (own is not None and (type(base).resolve, type(base).apply) == (own.resolve, own.apply)
                           and base.dim < ORDERED_SUM and self.stop - self.start <= FLOAT_ENTRIES)

    # the slot entries of (..., dim) states, as rows of base.dim, are
    # sliced in place: the march calls these once per iteration
    def resolve(self, lam, y):
        y = np.asarray(y, dtype=float)
        nodes = y[..., self.start : self.stop]
        if isinstance(lam, np.ndarray):  # a column: each node of a row takes the row's lam
            lam = np.repeat(lam, self.count, axis=0)
        out = y.copy()
        out[..., self.start : self.stop] = (
            _blockwise(self.base, lam, nodes) if y.ndim == 1 and self._on_floats
            else self.base.resolve(lam, nodes.reshape(-1, self.base.dim)).reshape(nodes.shape))
        return out

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        nodes = x[..., self.start : self.stop]
        out = np.zeros_like(x)
        out[..., self.start : self.stop] = (
            _blockwise(self.base, None, nodes) if x.ndim == 1 and self._on_floats
            else self.base.apply(nodes.reshape(-1, self.base.dim)).reshape(nodes.shape))
        return out

    def graph_distance(self, x, v):
        slot = slice(self.start, self.stop)
        v = np.asarray(v, dtype=float)
        nodes = np.stack([np.asarray(x, dtype=float), v])[:, slot].reshape(2, -1, self.base.dim)
        dists = [self.base.graph_distance(xb, vb) for xb, vb in zip(*nodes)]
        rest = np.delete(v, slot)
        return float(np.hypot(np.linalg.norm(dists), np.linalg.norm(rest)))


class NodewiseRelation(SlotEmbedded):
    """Block-diagonal repetition of a base relation across ``count`` nodes.

    It is the slot embedding whose slot fills the whole state.
    """

    def __init__(self, base: MonotoneRelation, count: int):
        super().__init__(base, 0, base.dim * count, count)


class StructuredSum(MonotoneRelation):
    """A = K + tail with K a monotone matrix; the stepper exploits the split.

    Its resolvent is one implicit step: x + lam*K x + lam*tail(x) ∋ y is the
    step of u' + A(u) ∋ 0 from the past y with M0 = 1, M1 = 0 and dt = lam,
    so ``solve_step`` solves it with the engine the march would plan for that
    step. The unit family is built on the first resolve, not with the sum.
    """

    def __init__(self, matrix: np.ndarray, tail: MonotoneRelation):
        self.matrix = K = _monotone_matrix(matrix, "linear part")[0]
        if K.shape != (tail.dim, tail.dim):
            raise ContractViolation("matrix and tail dimensions disagree")
        self.tail = tail
        self.dim = tail.dim
        self.contains_origin = tail.contains_origin
        self.single_valued = tail.single_valued
        self._unit = None

    def split(self):
        return self.matrix, self.tail

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return (self.matrix @ x[..., None])[..., 0] + self.tail.apply(x)

    def graph_distance(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return self.tail.graph_distance(x, v - self.matrix @ x)

    def resolve(self, lam, y):
        from .solver import solve_step  # solver imports this module

        y = np.asarray(y, dtype=float)
        if y.ndim != 1:  # each row iterates to its own tolerance, with its own lam
            return _row_by_row(self.resolve, lam, y)
        if self._unit is None:
            self._unit = constant_family(np.eye(self.dim), np.zeros((self.dim, self.dim)))
        try:
            return solve_step(self._unit, self, 0.0, lam, y, y, np.zeros(self.dim),
                              PICARD_TOL * (1.0 + float(np.linalg.norm(y))), PICARD_MAX_ITER)
        except StepFailure as exc:
            raise ResolventFailure(f"structured-sum resolvent: {exc}", residual=exc.residual) from exc


class YosidaRelation(MonotoneRelation):
    """Single-valued Lipschitz surrogate A_lam = (1 - resolvent(lam))/lam.

    Monotone, (1/lam)-Lipschitz and lam-cocoercive; its own resolvent comes
    from the exact identity
    resolve(gamma, y) = (lam*y + gamma*base.resolve(lam+gamma, y))/(lam+gamma).
    ``lam`` is one number, or a ``(rows, 1)`` column for ``(rows, dim)`` states:
    then row i is evaluated by the surrogate at ``lam[i]``, bit for bit, and
    ``gamma`` may be a column too.
    """

    def __init__(self, base: MonotoneRelation, lam):
        if isinstance(lam, np.ndarray):
            if not (lam.size and np.all((lam > 0) & (lam < np.inf))):
                raise ContractViolation("a lam column must be nonempty, finite and positive")
            self.cocoercivity = float(lam.min())
        elif 0 < lam < np.inf:
            lam = self.cocoercivity = float(lam)
        else:
            raise ContractViolation(f"lam must be finite and positive, got {lam}")
        self.base = base
        self.lam = lam
        self.dim = base.dim
        self.contains_origin = base.contains_origin
        self.single_valued = True

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return (x - self.base.resolve(self.lam, x)) / self.lam

    def resolve(self, gamma, y):
        y = np.asarray(y, dtype=float)
        total = self.lam + gamma
        return (self.lam * y + gamma * self.base.resolve(total, y)) / total


def resolvent(a: MonotoneRelation, lam: float, y: np.ndarray) -> np.ndarray:
    """(1 + lam A)^{-1} y; nonexpansive in y, defined for every y."""
    if not 0 < lam < np.inf:
        raise ContractViolation(f"resolvent parameter must be finite and positive, got {lam}")
    return a.resolve(lam, np.asarray(y, dtype=float))


def yosida(a: MonotoneRelation, lam: float, y: np.ndarray) -> np.ndarray:
    """(y - resolvent(a, lam, y)) / lam; monotone with Lipschitz bound 1/lam."""
    return YosidaRelation(a, lam).apply(y)


class LiftedRelation:
    """Node-wise extension of a relation to weighted signals on a grid.

    Acting independently at every time node, the lift commutes with
    translations wherever both sides are defined.
    """

    def __init__(self, base: MonotoneRelation, grid, rho: float):
        self.base = base
        self.grid = grid
        self.rho = rho

    def resolve_signal(self, lam, u):
        return u.with_values(self.base.resolve(lam, u.values))

    def yosida_signal(self, lam, u):
        return u.with_values(YosidaRelation(self.base, lam).apply(u.values))


def lift(a: MonotoneRelation, grid, rho: float) -> LiftedRelation:
    return LiftedRelation(a, grid, rho)


class MintyReport:
    """Outcome of a surjectivity/nonexpansiveness scan (a smoke test, not a proof)."""

    def __init__(self, samples, inclusion_checked, inclusion_failures,
                 nonexpansive_failures, max_residual, max_expansion_slack):
        self.samples = samples
        self.inclusion_checked = inclusion_checked
        self.inclusion_failures = inclusion_failures
        self.nonexpansive_failures = nonexpansive_failures
        self.max_residual = max_residual
        self.max_expansion_slack = max_expansion_slack

    @property
    def passed(self) -> bool:
        return self.inclusion_failures == 0 and self.nonexpansive_failures == 0

    def __repr__(self):
        return (
            f"MintyReport(samples={self.samples}, passed={self.passed}, "
            f"inclusion_failures={self.inclusion_failures}, "
            f"nonexpansive_failures={self.nonexpansive_failures}, "
            f"max_residual={self.max_residual:.3e}, "
            f"max_expansion_slack={self.max_expansion_slack:.3e})"
        )


def minty_scan(a: MonotoneRelation, lam: float, samples: int, radius: float,
               seed: int = 0, residual_tol: float = 1e-8) -> MintyReport:
    """Sample targets in a ball, run the resolvent, verify the defining inclusion.

    For each y the pair (x, (y-x)/lam) must lie in the graph (checked through
    ``graph_distance`` when the relation can evaluate it), and consecutive
    resolvent outputs must be nonexpansive in the inputs.
    """
    if not 0 < lam < np.inf:
        raise ContractViolation(f"lam must be finite and positive, got {lam}")
    rng = np.random.default_rng(seed)
    has_eval = a.has_eval()
    incl_fail = 0
    nonexp_fail = 0
    max_res = 0.0
    max_slack = 0.0
    prev_y = prev_x = None
    for _ in range(samples):
        direction = rng.standard_normal(a.dim)
        nrm = np.linalg.norm(direction)
        if nrm == 0.0:
            continue
        y = direction / nrm * radius * rng.uniform() ** (1.0 / a.dim)
        x = a.resolve(lam, y)
        if has_eval:
            res = a.graph_distance(x, (y - x) / lam)
            if np.isfinite(res):
                max_res = max(max_res, res)
                if res > residual_tol:
                    incl_fail += 1
            else:
                incl_fail += 1
        if prev_y is not None:
            slack = np.linalg.norm(x - prev_x) - np.linalg.norm(y - prev_y)
            max_slack = max(max_slack, slack)
            if slack > 1e-12 * (1.0 + np.linalg.norm(y - prev_y)):
                nonexp_fail += 1
        prev_y, prev_x = y, x
    return MintyReport(samples, has_eval, incl_fail, nonexp_fail, max_res, max_slack)


class _LipschitzPerturbedSum(MonotoneRelation):
    def __init__(self, a, b_map, lip_b):
        self.a = a
        self.b_map = b_map
        self.lip_b = float(lip_b)
        self.dim = a.dim
        zero = np.zeros(a.dim)
        self.contains_origin = a.contains_origin and bool(
            np.allclose(b_map(zero), 0.0, atol=1e-14)
        )
        self.single_valued = False

    def resolve(self, lam, y):
        y = np.asarray(y, dtype=float)
        if y.ndim != 1:  # each row iterates to its own tolerance, with its own lam
            return _row_by_row(self.resolve, lam, y)
        if lam * self.lip_b >= 1.0:
            raise ContractViolation(
                f"need lam*Lip(B) < 1 for the Picard resolvent, got {lam * self.lip_b:.3g}"
            )

        def picard(u):
            u_new = self.a.resolve(lam, y - lam * self.b_map(u))
            return u_new, u_new

        tol = PICARD_TOL * (1.0 + float(np.linalg.norm(y)))
        out, _, res, reason = fixed_point(picard, y, tol, PICARD_MAX_ITER)
        if reason != CONVERGED:
            raise ResolventFailure(f"Picard iteration for the perturbed sum did not converge: "
                                   f"{reason}", residual=res)
        return out

    def graph_distance(self, x, v):
        x = np.asarray(x, dtype=float)
        return self.a.graph_distance(x, np.asarray(v, dtype=float) - self.b_map(x))


def sum_with_lipschitz(a: MonotoneRelation, b_map, lip_b: float) -> MonotoneRelation:
    """Realize A + B as a resolvent-defined relation, B Lipschitz with bound lip_b.

    The resolvent at parameter lam is the fixed point of
    u -> resolvent(a, lam, y - lam*B(u)), which contracts when lam*lip_b < 1.
    """
    if not np.isfinite(lip_b) or lip_b < 0:
        raise ContractViolation("lip_b must be a finite nonnegative bound")
    return _LipschitzPerturbedSum(a, b_map, lip_b)


def _linear(dim, matrix=None, gain=None):
    if matrix is not None and gain is not None:
        raise ContractViolation("a linear relation takes a matrix or a gain, not both")
    if matrix is None:
        matrix = (1.0 if gain is None else gain) * np.eye(dim)
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.shape != (dim, dim):
        raise ContractViolation(
            f"a linear relation on a {dim}-dim state needs a {dim}x{dim} matrix, got {matrix.shape}"
        )
    return LinearRelation(matrix)


def _deviatoric(dim, radius=1.0):
    if dim % 6 != 0:
        raise ContractViolation("deviatoric saturation needs dim divisible by 6")
    base = DeviatoricSaturation(radius)
    return base if dim == 6 else NodewiseRelation(base, dim // 6)


#: config kind -> (constructor(dim, **parameters), the parameter keys it reads)
RELATION_KINDS = {
    "zero": (ZeroRelation, ()),
    "linear": (_linear, ("matrix", "gain")),
    "soft_threshold": (NormSubdifferential, ("weight",)),
    "ball_saturation": (BallSaturation, ("radius",)),
    "deviatoric_saturation": (_deviatoric, ("radius",)),
}


def relation_from_config(kind: str, dim: int, **params) -> MonotoneRelation:
    """Catalog factory used by config files: ``kind`` with the keys it reads."""
    if kind not in RELATION_KINDS:
        raise ContractViolation(f"unknown relation kind {kind!r}")
    return RELATION_KINDS[kind][0](dim, **params)
