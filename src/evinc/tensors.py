"""Symmetric 3x3 tensors as Mandel 6-vectors.

Ordering (T11, T22, T33, sqrt2*T23, sqrt2*T13, sqrt2*T12): the Euclidean dot
of two Mandel vectors equals the Frobenius pairing of the tensors, so ball
projections and norms can be done componentwise on the vectors.
"""

import numpy as np

SQRT2 = float(np.sqrt(2.0))

#: Mandel vector of the identity tensor.
TRACE_VECTOR = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def mandel_trace(v: np.ndarray) -> float:
    return float(v[0] + v[1] + v[2])


def mandel_dev(v: np.ndarray) -> np.ndarray:
    """Trace-free part: subtract mean of the diagonal entries."""
    out = np.array(v, dtype=float)
    third = mandel_trace(out) / 3.0
    out[:3] -= third
    return out


def deviatoric_basis() -> np.ndarray:
    """Orthonormal basis (columns) of the 5-dim trace-free subspace in Mandel form."""
    cols = [
        np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]) / SQRT2,
        np.array([1.0, 1.0, -2.0, 0.0, 0.0, 0.0]) / np.sqrt(6.0),
        np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
    ]
    return np.stack(cols, axis=1)
