"""Plasticity block systems on a one-dimensional slab.

Fields depend on the through-thickness coordinate only, but tensors keep the
full symmetric 3x3 algebra (Mandel 6-vectors per node) so that the trace-free
saturation relation stays nontrivial: a purely scalar reduction would collapse
it to the zero relation. Velocity and temperature carry Dirichlet conditions
through the closed-support stencils; the dual fields get the natural zero on
the opposite face. All spatial operators are exact transposes of one another,
so the assembled first-order block is skew to machine precision.

State layouts are field blocks in order, node-major inside each block:
thermoplastic slab (v, T, theta, q), viscoplastic slab (v, w, T).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ConditionCheckError, ContractViolation
from .materials import (Coefficient, ConditionsReport, MaterialFamily, check_conditions,
                        measure_constants)
from .relations import (
    RELATION_KINDS,
    DeviatoricSaturation,
    MonotoneRelation,
    SlotEmbedded,
    StructuredSum,
)
from .tensors import TRACE_VECTOR, deviatoric_basis

__all__ = [
    "SlabGrid",
    "SpatialOperators",
    "Coefficient",
    "build_slab_operators",
    "build_thermoplasticity",
    "build_viscoplasticity",
    "GalleryModel",
]

#: relation kinds set by one scalar at any dimension: the viscoplastic internal relation
VISCOPLASTIC_RELATIONS = ("soft_threshold", "ball_saturation")


@dataclass(frozen=True)
class SlabGrid:
    """m interior cells of width dx; fields depend on x1 only."""

    m: int = 2
    dx: float = 0.5

    def __post_init__(self):
        if self.m < 2:
            raise ContractViolation("need at least 2 cells")
        if not 0 < self.dx < np.inf:
            raise ContractViolation(f"dx must be finite and positive, got {self.dx}")


@dataclass(frozen=True)
class SpatialOperators:
    """First-order staggered stencils with exact discrete adjointness."""

    grad_c: np.ndarray   # scalar gradient with Dirichlet closure, m x m
    div: np.ndarray      # -grad_c^T, m x m
    Grad_c: np.ndarray   # symmetrized vector gradient, 6m x 3m (Mandel)
    Div: np.ndarray      # -Grad_c^T, 3m x 6m
    trace_op: np.ndarray  # node-wise tensor trace, m x 6m


def build_slab_operators(g: SlabGrid) -> SpatialOperators:
    m, dx = g.m, g.dx
    # backward difference with an implicit zero at the clamped face
    D = (np.eye(m) - np.eye(m, k=-1)) / dx
    grad_c = D
    div = -grad_c.T
    # sym(d1 v ⊗ e1) in Mandel components: T11 = d1 v1, T13 = d1 v3 / sqrt2,
    # T12 = d1 v2 / sqrt2 (the sqrt2 Mandel scaling is already included)
    B = np.zeros((6, 3))
    B[0, 0] = 1.0
    B[4, 2] = 1.0 / np.sqrt(2.0)
    B[5, 1] = 1.0 / np.sqrt(2.0)
    Grad_c = np.kron(D, B)
    Div = -Grad_c.T
    trace_op = np.kron(np.eye(m), TRACE_VECTOR[None, :])
    return SpatialOperators(grad_c=grad_c, div=div, Grad_c=Grad_c, Div=Div, trace_op=trace_op)


@dataclass(frozen=True)
class GalleryModel:
    """Assembled slab system: coefficients, relation and spatial structure."""

    name: str
    family: MaterialFamily
    relation: MonotoneRelation
    operators: SpatialOperators
    slots: dict
    skew_block: np.ndarray
    conditions: ConditionsReport
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.family.dim

    def summary(self) -> str:
        lines = [f"model = {self.name}", f"state_dim = {self.dim}"]
        for name, (a, b) in self.slots.items():
            lines.append(f"slot_{name} = {a}:{b}")
        lines.append(f"kernel_dim = {self.family.kernel_basis.shape[1]}")
        for key in ("c0", "c1", "lip_M0", "sup_M1"):
            lines.append(f"{key} = {getattr(self.family, key):.17g}")
        for key, val in self.meta.items():
            lines.append(f"{key} = {val}")
        lines.append("")
        lines.append(self.conditions.to_text())
        return "\n".join(lines)


def _slab_model(name, g, ops, fields, m0_blocks, m1_blocks, kernel, coefficients, lip_M0,
                skew, tail, meta):
    """Scaffold shared by the slab models; each builder supplies only its physics.

    ``fields`` is [(slot, size)] in state order, ``m0_blocks(*values)`` and
    ``m1_blocks(*values)`` map (row slot, column slot) to nonzero blocks at
    values of ``coefficients``, ``kernel`` names the slot spanning ker M0
    (None: empty), ``lip_M0`` bounds |dM0/dt|, ``skew`` is [(a, b, K_ab)] and
    ``tail`` is (slot, per-node relation). Each block is linear in one
    coefficient or its reciprocal, so least eigenvalues are least and 2-norms
    greatest at a corner of the coefficients' ranges: c0, c1 and sup_M1 are
    claimed from one measurement at the corners (one if no coefficient moves).
    A moving model's claims are then checked on time samples.
    """
    slots, end = {}, 0
    for key, size in fields:
        slots[key] = (end, end + size)
        end += size
    dim = end

    def fill(blocks, values):
        out = np.zeros((dim, dim))
        for (a, b), block in blocks(*values).items():
            out[slice(*slots[a]), slice(*slots[b])] = block
        return out

    eye = np.eye(dim)
    lo, hi = slots[kernel] if kernel else (dim, dim)
    kb = eye[:, lo:hi].copy()
    rb = np.delete(eye, np.s_[lo:hi], axis=1)
    corners = list(product(*(dict.fromkeys((co.lower, co.upper)) for co in coefficients)))
    measured = measure_constants(np.stack([fill(m0_blocks, v) for v in corners]),
                                 np.stack([fill(m1_blocks, v) for v in corners]), kb, rb)
    if not measured.c0 > 0:
        raise ConditionCheckError(
            f"{name} assembly rejected: the selfadjoint block is not positive "
            "definite on its range"
        )
    family = MaterialFamily(
        dim=dim,
        M0_at=lambda t: fill(m0_blocks, [co(t) for co in coefficients]),
        M1_at=lambda t: fill(m1_blocks, [co(t) for co in coefficients]),
        lip_M0=lip_M0 + 1e-12,
        sup_M1=measured.sup_M1,
        c0=measured.c0 * (1.0 - 1e-9),
        # an empty kernel makes the condition vacuous
        c1=measured.c1 * (1.0 - 1e-9) if kb.shape[1] else 1.0,
        kernel_basis=kb,
        range_basis=rb,
        constant=len(corners) == 1,
    )
    report = (ConditionsReport.compare(family, measured, 0.0) if family.constant
              else check_conditions(family, np.linspace(0.0, 10.0, 129)))
    if not report.passed:
        raise ConditionCheckError(
            f"{name} assembly rejected; failing conditions: {report.failing()}"
        )
    K = np.zeros((dim, dim))
    for a, b, block in skew:
        K[slice(*slots[a]), slice(*slots[b])] = block
        K[slice(*slots[b]), slice(*slots[a])] = -block.T
    tail_slot, node_relation = tail
    embedded = SlotEmbedded(node_relation, slots[tail_slot][0], dim, count=g.m)
    return GalleryModel(
        name=name, family=family, relation=StructuredSum(K, embedded), operators=ops,
        slots=slots, skew_block=K, conditions=report,
        meta={"m": g.m, "dx": g.dx, **meta},
    )


def build_thermoplasticity(
    g: SlabGrid,
    M: Coefficient = Coefficient(1.0),
    C: Coefficient = Coefficient(1.0),
    w: Coefficient = Coefficient(1.0),
    kappa: Coefficient = Coefficient(1.0),
    c: float = 1.0,
    tau0: float = 1.0,
    s0: float = 1.0,
) -> GalleryModel:
    """Coupled heat/momentum system with a saturating trace-free flow relation.

    State (v, T, theta, q); the flux block of the selfadjoint part is zero, so
    the kernel is exactly the q slot and the zeroth-order heat-conduction term
    provides the coercivity there.
    """
    if not all(0 < x < np.inf for x in (c, tau0, s0)):
        raise ContractViolation(
            f"c, tau0 and s0 must be finite and positive, got c={c}, tau0={tau0}, s0={s0}"
        )
    ops = build_slab_operators(g)
    m = g.m
    nv, nT, nth, nq = 3 * m, 6 * m, m, m
    trace_star = ops.trace_op.T

    def m0_blocks(M, C, w, kappa) -> dict:
        cinv = 1.0 / C
        coupling = c * cinv * trace_star
        return {
            ("v", "v"): M * np.eye(nv),
            ("T", "T"): cinv * np.eye(nT),
            ("T", "theta"): coupling,
            ("theta", "T"): coupling.T,
            ("theta", "theta"): (c * w / tau0 + 3.0 * c * c * cinv) * np.eye(nth),
        }

    return _slab_model(
        "thermoplasticity", g, ops,
        fields=[("v", nv), ("T", nT), ("theta", nth), ("q", nq)],
        m0_blocks=m0_blocks, kernel="q",
        m1_blocks=lambda M, C, w, kappa: {("q", "q"): (tau0 / (c * kappa)) * np.eye(nq)},
        coefficients=(M, C, w, kappa),
        # |dM0/dt| block by block: 1 + 3c^2 is the 2-norm of dM0/d(1/C) on (T, theta)
        lip_M0=max(M.lip, C.lip / C.lower / C.lower * (1.0 + 3.0 * c * c) + c * w.lip / tau0),
        skew=[("v", "T", ops.Grad_c.T), ("theta", "q", ops.grad_c.T)],  # -Div, -div
        tail=("T", DeviatoricSaturation(radius=s0)),
        meta={"c": c, "tau0": tau0, "s0": s0},
    )


def build_viscoplasticity(
    g: SlabGrid,
    M: Coefficient = Coefficient(1.0),
    D: Coefficient = Coefficient(1.0),
    L: Coefficient = Coefficient(1.0),
    N: int = 5,
    coupling: np.ndarray = None,
    relation_kind: str = "soft_threshold",
    relation_param: float = 1.0,
) -> GalleryModel:
    """Internal-variable system; the selfadjoint block has an empty kernel.

    Positivity of the (w, T) block is equivalent to positivity of the
    decoupled creep/elasticity moduli (a symmetric Gauss step), which is the
    assembly gate here.
    """
    if not 1 <= N <= 5:
        raise ContractViolation("N must be between 1 and 5 (deviatoric basis size)")
    if min(D.lower, L.lower, M.lower) <= 0:
        raise ConditionCheckError(
            "viscoplastic assembly rejected: creep/elastic moduli must be "
            "uniformly positive definite for the block to stay positive"
        )
    ops = build_slab_operators(g)
    m = g.m
    B = deviatoric_basis()[:, :N] if coupling is None else np.asarray(coupling, dtype=float)
    if B.shape != (6, N) or not np.isfinite(B).all():
        raise ContractViolation(f"coupling matrix must be a finite 6 x {N} matrix")
    nv, nw, nT = 3 * m, N * m, 6 * m
    BBt = B @ B.T
    B_nodes = np.kron(np.eye(m), B)
    BBt_nodes = np.kron(np.eye(m), BBt)

    def m0_blocks(M, D, L) -> dict:
        linv = 1.0 / L
        return {
            ("v", "v"): M * np.eye(nv),
            ("w", "w"): linv * np.eye(nw),
            ("w", "T"): -linv * B_nodes.T,
            ("T", "w"): -linv * B_nodes,
            ("T", "T"): (1.0 / D) * np.eye(nT) + linv * BBt_nodes,
        }

    if relation_kind not in VISCOPLASTIC_RELATIONS:
        raise ContractViolation(f"unknown internal-variable relation {relation_kind!r}")
    make, (key,) = RELATION_KINDS[relation_kind]
    base = make(N, **{key: relation_param})
    return _slab_model(
        "viscoplasticity", g, ops,
        fields=[("v", nv), ("w", nw), ("T", nT)],
        m0_blocks=m0_blocks, m1_blocks=lambda *values: {}, kernel=None,
        coefficients=(M, D, L),
        # |dM0/dt| block by block: 1 + |B B^T| is the 2-norm of dM0/d(1/L) on (w, T)
        lip_M0=max(M.lip, L.lip / L.lower / L.lower * (1.0 + np.linalg.norm(BBt, 2))
                   + D.lip / D.lower / D.lower),
        skew=[("v", "T", ops.Grad_c.T)],  # -Div
        tail=("w", base),
        meta={"N": N, "relation": relation_kind},
    )


def raw_viscoplastic_block(D_val: float, L_val: float, B: np.ndarray) -> np.ndarray:
    """The per-node (w, T) block assembled verbatim, for positivity cross-checks."""
    N = B.shape[1]
    linv = 1.0 / L_val
    top = np.hstack([linv * np.eye(N), -linv * B.T])
    bottom = np.hstack([-linv * B, (1.0 / D_val) * np.eye(6) + linv * (B @ B.T)])
    return np.vstack([top, bottom])
