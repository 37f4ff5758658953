"""Time-dependent coefficient families and their structural conditions.

A family carries two matrix-valued functions of time: a selfadjoint part with
a time-independent kernel (the degenerate direction) and a zeroth-order part
whose symmetric restriction to that kernel is coercive. The constants
``c0, c1, lip_M0, sup_M1`` are user claims. ``measure_constants`` is the one
pass that reads structural constants off time samples: the family builders
here and the slab builders derive their claims from it, and
``check_conditions`` compares claims against it, so it can only falsify them
on samples, never certify. Pointwise differentiability off a null set is
assumed by construction for the shipped builders and not tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConditionCheckError, ContractViolation, StepSizeError

__all__ = [
    "MaterialFamily",
    "kernel_decompose",
    "m0_prime",
    "measure_constants",
    "StructuralConstants",
    "check_conditions",
    "ConditionsReport",
    "rho_zero",
    "dt_max",
    "step_operator",
    "constant_family",
    "sinusoidal_family",
]

KERNEL_EIG_TOL = 1e-9  # relative eigenvalue threshold; kernels are exact in models


def kernel_decompose(m0_sample: np.ndarray, tol: float = KERNEL_EIG_TOL):
    """Split the state space into kernel and range of a symmetric sample.

    Returns orthonormal bases (kernel_basis, range_basis) from a symmetric
    eigendecomposition; eigenvalues with |sigma| <= tol * sigma_max go to the
    kernel. The two projectors sum to the identity by construction.
    """
    M = np.asarray(m0_sample, dtype=float)
    nrm = float(np.linalg.norm(M, 2)) if M.size else 0.0
    asym = float(np.linalg.norm(M - M.T, 2))
    if asym > tol * max(nrm, 1.0):
        raise ConditionCheckError(
            f"sample is not symmetric (defect {asym:.3e}); selfadjointness is required"
        )
    sym = 0.5 * (M + M.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    if nrm == 0.0:
        return np.eye(M.shape[0]), np.zeros((M.shape[0], 0))
    in_kernel = np.abs(eigvals) <= tol * np.max(np.abs(eigvals))
    kernel_basis = eigvecs[:, in_kernel]
    range_basis = eigvecs[:, ~in_kernel]
    return kernel_basis, range_basis


@dataclass(frozen=True)
class MaterialFamily:
    """Sampled operator families with claimed structural constants.

    ``kernel_basis`` has orthonormal columns spanning the (time-independent)
    kernel of the selfadjoint part; ``range_basis`` spans its complement.
    """

    dim: int
    M0_at: Callable[[float], np.ndarray]
    M1_at: Callable[[float], np.ndarray]
    lip_M0: float
    sup_M1: float
    c0: float
    c1: float
    kernel_basis: np.ndarray
    range_basis: np.ndarray = field(default=None)
    #: constant-in-time families let the solver cache per-step factorizations
    constant: bool = False

    def __post_init__(self):
        kb = np.asarray(self.kernel_basis, dtype=float).reshape(self.dim, -1)
        object.__setattr__(self, "kernel_basis", kb)
        if self.range_basis is None:
            rb = _orthonormal_complement(kb, self.dim)
            object.__setattr__(self, "range_basis", rb)
        if not self.c0 > 0 or not self.c1 > 0:
            raise ContractViolation("c0 and c1 must be positive claims")
        if self.lip_M0 < 0 or self.sup_M1 < 0:
            raise ContractViolation("lip_M0 and sup_M1 must be nonnegative")


def _orthonormal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    if basis.shape[1] == 0:
        return np.eye(dim)
    proj = np.eye(dim) - basis @ basis.T
    eigvals, eigvecs = np.linalg.eigh(proj)
    return eigvecs[:, eigvals > 0.5]


def m0_prime(family: MaterialFamily, t: float, h: float = 1e-6) -> np.ndarray:
    """Symmetrized central difference of the selfadjoint part at time t.

    The spectral norm must stay under the claimed Lipschitz bound up to a
    finite-difference allowance 10*h*(second-difference estimate); a larger
    value means the claimed bound is inconsistent with the samples.
    """
    if h <= 0:
        raise ContractViolation("h must be positive")
    plus = np.asarray(family.M0_at(t + h), dtype=float)
    minus = np.asarray(family.M0_at(t - h), dtype=float)
    mid = np.asarray(family.M0_at(t), dtype=float)
    diff = (plus - minus) / (2.0 * h)
    diff = 0.5 * (diff + diff.T)
    curvature = float(np.linalg.norm((plus - 2.0 * mid + minus) / h**2, 2))
    tol_fd = 10.0 * h * curvature + 1e-12
    nrm = float(np.linalg.norm(diff, 2))
    if nrm > family.lip_M0 + tol_fd:
        raise ConditionCheckError(
            f"derivative norm {nrm:.6g} exceeds claimed Lipschitz bound "
            f"{family.lip_M0:.6g} beyond the allowance {tol_fd:.2e}"
        )
    return diff


@dataclass(frozen=True)
class StructuralConstants:
    """What one pass over time samples reads off the coefficients (see ``measure_constants``)."""

    c0: float
    c1: float
    sup_M0: float
    sup_M1: float
    lip_M0: float
    symmetry_defect: float
    kernel_defect: float


def measure_constants(M0_at, M1_at, kernel_basis, range_basis, ts) -> StructuralConstants:
    """Read the structural constants off the coefficients at the times ``ts``.

    ``c0`` is the least eigenvalue of sym M0 on the range, ``c1`` that of
    sym M1 on the kernel, ``inf`` when that space is empty. ``lip_M0`` is
    the largest quotient |M0(t) - M0(s)| / |t - s| over consecutive distinct
    samples. The symmetry defect is |M0 - M0^T| and the kernel defect |M0 K|
    for the kernel basis K, both maxima over the samples (spectral norms).
    """
    kb, rb = kernel_basis, range_basis
    c0 = c1 = math.inf
    sup0 = sup1 = lip = sym_defect = kernel_defect = 0.0
    prev = None
    for t in np.atleast_1d(np.asarray(ts, dtype=float)):
        M0 = np.asarray(M0_at(t), dtype=float)
        M1 = np.asarray(M1_at(t), dtype=float)
        sym_defect = max(sym_defect, float(np.linalg.norm(M0 - M0.T, 2)))
        sup0 = max(sup0, float(np.linalg.norm(M0, 2)))
        sup1 = max(sup1, float(np.linalg.norm(M1, 2)))
        if rb.shape[1]:
            on_range = rb.T @ (0.5 * (M0 + M0.T)) @ rb
            c0 = min(c0, float(np.min(np.linalg.eigvalsh(on_range))))
        if kb.shape[1]:
            kernel_defect = max(kernel_defect, float(np.linalg.norm(M0 @ kb, 2)))
            on_kernel = kb.T @ (0.5 * (M1 + M1.T)) @ kb
            c1 = min(c1, float(np.min(np.linalg.eigvalsh(on_kernel))))
        if prev is not None and t != prev[0]:
            lip = max(lip, float(np.linalg.norm(M0 - prev[1], 2) / abs(t - prev[0])))
        prev = (t, M0)
    return StructuralConstants(
        c0=c0, c1=c1, sup_M0=sup0, sup_M1=sup1, lip_M0=lip,
        symmetry_defect=sym_defect, kernel_defect=kernel_defect,
    )


@dataclass
class ConditionsReport:
    """Per-condition pass flags plus measured constants from the samples."""

    symmetric: bool
    lipschitz_ok: bool
    kernel_constant: bool
    range_coercive: bool
    kernel_coercive: bool
    measured_c0: float
    measured_c1: float
    measured_lipschitz: float
    measured_sup_M1: float
    max_symmetry_defect: float
    max_kernel_defect: float

    @classmethod
    def compare(cls, family: MaterialFamily, measured: StructuralConstants):
        """The family's claims against a measurement; an empty range or kernel (inf) passes."""
        return cls(
            symmetric=bool(measured.symmetry_defect <= 1e-10),
            lipschitz_ok=bool(measured.lip_M0 <= family.lip_M0 * (1.0 + 1e-6) + 1e-14),
            kernel_constant=bool(measured.kernel_defect <= 1e-10),
            range_coercive=bool(measured.c0 >= family.c0 * (1.0 - 1e-9)),
            kernel_coercive=bool(measured.c1 >= family.c1 * (1.0 - 1e-9)),
            measured_c0=measured.c0,
            measured_c1=measured.c1,
            measured_lipschitz=measured.lip_M0,
            measured_sup_M1=measured.sup_M1,
            max_symmetry_defect=measured.symmetry_defect,
            max_kernel_defect=measured.kernel_defect,
        )

    @property
    def passed(self) -> bool:
        return (
            self.symmetric
            and self.lipschitz_ok
            and self.kernel_constant
            and self.range_coercive
            and self.kernel_coercive
        )

    def failing(self) -> list[str]:
        names = {
            "symmetric": self.symmetric,
            "lipschitz": self.lipschitz_ok,
            "kernel_constant": self.kernel_constant,
            "range_coercive": self.range_coercive,
            "kernel_coercive": self.kernel_coercive,
        }
        return [k for k, ok in names.items() if not ok]

    def to_text(self) -> str:
        lines = []
        for key, val in vars(self).items():
            if isinstance(val, bool):
                lines.append(f"{key} = {'pass' if val else 'FAIL'}")
            else:
                lines.append(f"{key} = {val:.17g}")
        lines.append(f"passed = {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def check_conditions(family: MaterialFamily, t_samples) -> ConditionsReport:
    """Falsification pass over time samples for the structural conditions.

    Measures the tightest coercivity constants that would still be valid and
    the empirical Lipschitz constant; pass/fail compares them with the claims.
    """
    measured = measure_constants(
        family.M0_at, family.M1_at, family.kernel_basis, family.range_basis, t_samples
    )
    return ConditionsReport.compare(family, measured)


def rho_zero(family: MaterialFamily, c_tilde: float) -> float:
    """Weight threshold above which the time-space operator is coercive.

    (1/c0) * (c_tilde + lip_M0/2 + sup_M1 + sup_M1^2/(c1 - c_tilde)),
    valid for 0 < c_tilde < c1.
    """
    if not 0.0 < c_tilde < family.c1:
        raise ContractViolation(
            f"c_tilde must lie in (0, c1) = (0, {family.c1}), got {c_tilde}"
        )
    return (
        c_tilde
        + 0.5 * family.lip_M0
        + family.sup_M1
        + family.sup_M1**2 / (family.c1 - c_tilde)
    ) / family.c0


def dt_max(family: MaterialFamily, c_tilde: float) -> float:
    """Admissible implicit step: dt <= c0 / (c_tilde + lip/2 + sup + sup^2/(c1-c_tilde)).

    The same bracket as the weight threshold, with 1/dt in the role of the
    weight: it is what the implicit step must dominate to stay coercive.
    """
    return 1.0 / rho_zero(family, c_tilde)


def step_operator(family: MaterialFamily, t: float, dt: float):
    """Implicit step matrix S(t) = M0(t)/dt + M1(t) and its coercivity margin.

    Returns (S, margin) with margin the smallest eigenvalue of the symmetric
    part. A nonpositive margin raises a step-size error carrying the
    suggested dt (computed with the reference c_tilde = c1/2).
    """
    M0 = np.asarray(family.M0_at(t), dtype=float)
    return _step_matrix(family, M0, np.asarray(family.M1_at(t), dtype=float), t, dt)


def _step_matrix(family: MaterialFamily, M0: np.ndarray, M1: np.ndarray, t: float, dt: float):
    """``step_operator`` from the float arrays M0(t) and M1(t), already evaluated at t."""
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    S = M0 / dt + M1
    margin = float(np.min(np.linalg.eigvalsh(0.5 * (S + S.T))))
    if margin <= 0.0:
        suggestion = dt_max(family, 0.5 * family.c1)
        raise StepSizeError(
            f"implicit step matrix at t={t} has nonpositive symmetric part "
            f"(margin {margin:.3e}); try dt <= {suggestion:.6g}",
            suggested_dt=suggestion,
        )
    return S, margin


def _vacuous_if_empty(measured: float) -> float:
    """A claim over an empty range or kernel (measured ``inf``) is vacuous: 1.0."""
    return measured if math.isfinite(measured) else 1.0


def constant_family(m0: np.ndarray, m1: np.ndarray, c0=None, c1=None) -> MaterialFamily:
    """Family with constant coefficients; constants measured from the matrices."""
    return sinusoidal_family(m0, m1, amplitude=0.0, c0=c0, c1=c1)


def sinusoidal_family(
    m0_base: np.ndarray,
    m1_base: np.ndarray,
    amplitude: float = 0.5,
    frequency: float = 1.0,
    c0=None,
    c1=None,
) -> MaterialFamily:
    """M0(t) = (1 + amplitude*sin(frequency*t)) * m0_base, M1 constant.

    Requires |amplitude| < 1 so the kernel and coercivity are preserved in
    time; the Lipschitz claim is amplitude*frequency*|m0_base|. A zero
    amplitude gives the constant family, which lets the solver reuse its
    per-step preparation.
    """
    if not abs(amplitude) < 1.0:
        raise ContractViolation("amplitude must have magnitude < 1")
    M0 = np.atleast_2d(np.asarray(m0_base, dtype=float))
    M1 = np.atleast_2d(np.asarray(m1_base, dtype=float))
    dim = M0.shape[0]
    kb, rb = kernel_decompose(M0)
    # the base matrices bound every time: M0(t) >= (1 - |amplitude|) m0_base
    base = measure_constants(lambda t: M0, lambda t: M1, kb, rb, [0.0])
    constant = amplitude == 0.0

    def m0_at(t):
        return M0 if constant else (1.0 + amplitude * np.sin(frequency * t)) * M0

    return MaterialFamily(
        dim=dim,
        M0_at=m0_at,
        M1_at=lambda t: M1,
        lip_M0=abs(amplitude) * abs(frequency) * base.sup_M0,
        sup_M1=base.sup_M1,
        c0=_vacuous_if_empty((1.0 - abs(amplitude)) * base.c0) if c0 is None else c0,
        c1=_vacuous_if_empty(base.c1) if c1 is None else c1,
        kernel_basis=kb,
        range_basis=rb,
        constant=constant,
    )
