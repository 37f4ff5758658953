"""Time-dependent coefficient families and their structural conditions.

A family carries two matrix-valued functions of time: a selfadjoint part with
a time-independent kernel (the degenerate direction) and a zeroth-order part
whose symmetric restriction to that kernel is coercive. The constants
``c0, c1, lip_M0, sup_M1`` are claims, given by the user or read by the
builders off their coefficients' bounds. ``coefficients`` is the one place
that evaluates a family, as stacks over times. ``measure_constants`` is the
one measurement of structural constants, read off such stacks:
``sinusoidal_family`` passes its base matrices and scales by its
coefficient's range and rate; the slab builders (``gallery``) pass the
corners of their coefficients' ranges and take ``lip_M0`` in closed form.
``check_conditions`` samples a family at the times it is given and compares
the claims with the measurement and with the chords of ``M0`` between those
times, so it can only falsify them, never certify (a moving slab runs it on
129 samples when built; a constant family is measured at its first sample).
A stack that is exactly zero (the symmetry defects of a symmetric ``M0``, its
chords where it does not move, ``M0 K`` on an exact kernel) has norms 0.0
without an SVD. Pointwise differentiability off a
null set is assumed by construction for the shipped builders and not tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConditionCheckError, ContractViolation, StepSizeError

__all__ = [
    "Coefficient",
    "MaterialFamily",
    "coefficients",
    "kernel_decompose",
    "measure_constants",
    "StructuralConstants",
    "check_conditions",
    "ConditionsReport",
    "rho_zero",
    "dt_max",
    "step_operator",
    "step_matrices",
    "constant_family",
    "sinusoidal_family",
]

KERNEL_EIG_TOL = 1e-9  # relative eigenvalue threshold; kernels are exact in models


@dataclass(frozen=True)
class Coefficient:
    """Scalar time-sampled coefficient base*(1 + amplitude*sin(frequency*t)).

    Carries analytic bounds so the structural constants can be claimed
    without sampling slack; |amplitude| < 1 keeps it uniformly positive.
    """

    base: float
    amplitude: float = 0.0
    frequency: float = 1.0

    def __post_init__(self):
        if not 0 < self.base < np.inf:
            raise ContractViolation(
                f"coefficient base must be finite and positive, got {self.base}"
            )
        if not abs(self.amplitude) < 1.0:
            raise ContractViolation("coefficient amplitude must have magnitude < 1")
        if not np.isfinite(self.frequency):
            raise ContractViolation(f"coefficient frequency must be finite, got {self.frequency}")

    def __call__(self, t: float) -> float:
        return self.base * (1.0 + self.amplitude * np.sin(self.frequency * t))

    @property
    def lower(self) -> float:
        return self.base * (1.0 - abs(self.amplitude))

    @property
    def upper(self) -> float:
        return self.base * (1.0 + abs(self.amplitude))

    @property
    def lip(self) -> float:
        return self.base * abs(self.amplitude) * abs(self.frequency)

    @property
    def constant(self) -> bool:
        return self.amplitude == 0.0


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
    #: the solver plans a constant family once per march (``solver._node_plans``)
    constant: bool = False

    def __post_init__(self):
        kb = np.asarray(self.kernel_basis, dtype=float).reshape(self.dim, -1)
        object.__setattr__(self, "kernel_basis", kb)
        if self.range_basis is None:
            rb = _orthonormal_complement(kb, self.dim)
            object.__setattr__(self, "range_basis", rb)
        if not (0 < self.c0 < math.inf and 0 < self.c1 < math.inf):
            raise ContractViolation("c0 and c1 must be finite positive claims")
        if not (0 <= self.lip_M0 < math.inf and 0 <= self.sup_M1 < math.inf):
            raise ContractViolation("lip_M0 and sup_M1 must be finite and nonnegative")


def _orthonormal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    if basis.shape[1] == 0:
        return np.eye(dim)
    proj = np.eye(dim) - basis @ basis.T
    eigvals, eigvecs = np.linalg.eigh(proj)
    return eigvecs[:, eigvals > 0.5]


def coefficients(family: MaterialFamily, ts):
    """M0(t), M1(t) over the times ``ts`` as (len(ts), dim, dim) stacks: the one evaluation."""
    shape = (-1, family.dim, family.dim)
    return (np.array([family.M0_at(t) for t in ts], dtype=float).reshape(shape),
            np.array([family.M1_at(t) for t in ts], dtype=float).reshape(shape))


@dataclass(frozen=True)
class StructuralConstants:
    """What one pass over coefficient stacks reads off them (see ``measure_constants``)."""

    c0: float
    c1: float
    sup_M0: float
    sup_M1: float
    symmetry_defect: float
    kernel_defect: float


def _norms2(a) -> np.ndarray:
    """The spectral norms of the stacked matrices ``a``, 0.0 without an SVD where all are zero."""
    return np.linalg.norm(a, 2, axis=(-2, -1)) if a.any() else np.zeros(a.shape[:-2])


def measure_constants(M0, M1, kernel_basis, range_basis) -> StructuralConstants:
    """Read the structural constants off stacks of coefficient samples ``M0``, ``M1``.

    ``c0`` is the least eigenvalue of sym M0 on the range, ``c1`` that of
    sym M1 on the kernel, ``inf`` when that space is empty. The symmetry
    defect is |M0 - M0^T| and the kernel defect |M0 K| for the kernel basis
    K, both maxima over the stack (spectral norms), as are ``sup_M0`` and
    ``sup_M1``. Each slice gets the bits of the same calls on it alone. A
    stack with a NaN or inf entry is refused.
    """
    kb, rb = kernel_basis, range_basis
    M0, M1 = np.asarray(M0, dtype=float), np.asarray(M1, dtype=float)
    if not (np.isfinite(M0).all() and np.isfinite(M1).all()):
        raise ContractViolation("measure_constants needs finite M0 and M1 stacks")
    on_range = rb.T @ (0.5 * (M0 + M0.mT)) @ rb
    on_kernel = kb.T @ (0.5 * (M1 + M1.mT)) @ kb
    return StructuralConstants(
        c0=float(np.linalg.eigvalsh(on_range).min(initial=math.inf)),
        c1=float(np.linalg.eigvalsh(on_kernel).min(initial=math.inf)),
        sup_M0=float(_norms2(M0).max(initial=0.0)),
        sup_M1=float(_norms2(M1).max(initial=0.0)),
        symmetry_defect=float(_norms2(M0 - M0.mT).max(initial=0.0)),
        kernel_defect=float(_norms2(M0 @ kb).max(initial=0.0)),
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
    def compare(cls, family: MaterialFamily, measured: StructuralConstants, lipschitz: float):
        """The claims against a measurement and a rate of M0; an empty range or kernel passes."""
        return cls(
            symmetric=bool(measured.symmetry_defect <= 1e-10),
            lipschitz_ok=bool(lipschitz <= family.lip_M0 * (1.0 + 1e-6) + 1e-14),
            kernel_constant=bool(measured.kernel_defect <= 1e-10),
            range_coercive=bool(measured.c0 >= family.c0 * (1.0 - 1e-9)),
            kernel_coercive=bool(measured.c1 >= family.c1 * (1.0 - 1e-9)),
            measured_c0=measured.c0,
            measured_c1=measured.c1,
            measured_lipschitz=lipschitz,
            measured_sup_M1=measured.sup_M1,
            max_symmetry_defect=measured.symmetry_defect,
            max_kernel_defect=measured.kernel_defect,
        )

    @property
    def passed(self) -> bool:
        return not self.failing()

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

    Measures, at every sample of one or more finite times (a constant family
    at the first alone, which the others repeat), the tightest coercivity
    constants that would still be valid and the largest chord
    |M0(t) - M0(s)| / |t - s| over consecutive distinct samples; pass/fail
    compares them with the claims.
    """
    ts = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if not (ts.size and np.isfinite(ts).all()):
        raise ContractViolation("check_conditions needs at least one time sample, all finite")
    if family.constant:
        ts = ts[:1]
    M0, M1 = coefficients(family, ts)
    finite = np.isfinite(M0).all(axis=(-2, -1)) & np.isfinite(M1).all(axis=(-2, -1))
    if not finite.all():
        raise ConditionCheckError(f"coefficients are not finite at t={ts[finite.argmin()]}")
    step = np.diff(ts)
    distinct = step != 0.0
    rate = (_norms2(np.diff(M0, axis=0)[distinct]) / np.abs(step[distinct])).max(initial=0.0)
    measured = measure_constants(M0, M1, family.kernel_basis, family.range_basis)
    return ConditionsReport.compare(family, measured, float(rate))


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


def _rho_error(rho: float, rho0: float) -> ContractViolation:
    """The error of a weight rho below the threshold rho0 = rho_zero."""
    return ContractViolation(f"rho={rho} below the admissible threshold {rho0:.6g}")


def dt_max(family: MaterialFamily, c_tilde: float) -> float:
    """Admissible implicit step: dt <= c0 / (c_tilde + lip/2 + sup + sup^2/(c1-c_tilde)).

    The same bracket as the weight threshold, with 1/dt in the role of the
    weight: it is what the implicit step must dominate to stay coercive.
    """
    return 1.0 / rho_zero(family, c_tilde)


def step_matrices(family: MaterialFamily, ts, dt: float):
    """M0(t) and S(t) = M0(t)/dt + M1(t) stacked over the times ``ts``, and the margins.

    Each coefficient is evaluated once per time. A margin is the least eigenvalue
    of sym S(t), as a float; the caller raises on a nonpositive one.
    """
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    M0, M1 = coefficients(family, ts)
    S = M0 / dt + M1
    return M0, S, np.linalg.eigvalsh(0.5 * (S + S.mT)).min(axis=-1).tolist()


def _step_size_error(family: MaterialFamily, t: float, margin: float) -> StepSizeError:
    """The error of a step matrix at t with a nonpositive margin, suggesting a dt."""
    dt = dt_max(family, 0.5 * family.c1)
    return StepSizeError(f"implicit step matrix at t={t} has nonpositive symmetric part "
                         f"(margin {margin:.3e}); try dt <= {dt:.6g}", suggested_dt=dt)


def step_operator(family: MaterialFamily, t: float, dt: float):
    """Implicit step matrix S(t) = M0(t)/dt + M1(t) and its coercivity margin.

    Returns (S, margin) with margin the smallest eigenvalue of the symmetric
    part. A nonpositive margin raises a step-size error carrying the
    suggested dt (computed with the reference c_tilde = c1/2).
    """
    _, (S,), (margin,) = step_matrices(family, [t], dt)
    if margin <= 0.0:
        raise _step_size_error(family, t, margin)
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
    """M0(t) = Coefficient(1, amplitude, frequency)(t) * m0_base, M1 constant.

    Requires |amplitude| < 1 so the kernel and coercivity are preserved in
    time; the Lipschitz claim is the coefficient's rate times |m0_base|. A
    zero amplitude gives the constant family, which lets the solver reuse its
    per-step preparation.
    """
    coef = Coefficient(1.0, amplitude, frequency)
    M0 = np.atleast_2d(np.asarray(m0_base, dtype=float))
    M1 = np.atleast_2d(np.asarray(m1_base, dtype=float))
    if not (M0.ndim == 2 and M0.shape[0] == M0.shape[1] and M1.shape == M0.shape):
        raise ContractViolation(
            f"m0 and m1 must be square matrices of one shape, got {M0.shape} and {M1.shape}"
        )
    if not (np.isfinite(M0).all() and np.isfinite(M1).all()):
        raise ContractViolation("m0 and m1 must be finite")
    kb, rb = kernel_decompose(M0)
    # the base matrices bound every time: M0(t) >= coef.lower * m0_base
    base = measure_constants(M0[None], M1[None], kb, rb)

    def m0_at(t):
        return M0 if coef.constant else coef(t) * M0

    return MaterialFamily(
        dim=M0.shape[0],
        M0_at=m0_at,
        M1_at=lambda t: M1,
        lip_M0=coef.lip * base.sup_M0,
        sup_M1=base.sup_M1,
        c0=_vacuous_if_empty(coef.lower * base.c0) if c0 is None else c0,
        c1=_vacuous_if_empty(base.c1) if c1 is None else c1,
        kernel_basis=kb,
        range_basis=rb,
        constant=coef.constant,
    )
