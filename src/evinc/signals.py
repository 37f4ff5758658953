"""Exponentially weighted signals on a finite causal time grid.

A signal is a vector-valued function sampled on an equispaced grid, together
with a weight parameter ``rho > 0``; inner products and norms carry the factor
``exp(-2*rho*t)``. Signals are implicitly zero for t < t0 (compactly supported
past), which is what makes the backward-difference calculus causal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

__all__ = [
    "TimeGrid",
    "WeightedSignal",
    "weighted_inner",
    "weighted_norm",
    "cutoff",
    "write_signal_csv",
    "read_signal_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Equispaced time grid t_k = t0 + k*dt, k = 0..n-1."""

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise ContractViolation(f"t0 must be finite, got {self.t0}")
        if not 0 < self.dt < np.inf:
            raise ContractViolation(f"dt must be positive and finite, got {self.dt}")
        if self.n < 2:
            raise ContractViolation(f"need at least 2 nodes, got n={self.n}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def horizon(self) -> float:
        return self.dt * (self.n - 1)


@dataclass(frozen=True)
class WeightedSignal:
    """Values (n, dim) on a grid, normed with the weight exp(-2*rho*t)."""

    grid: TimeGrid
    values: np.ndarray
    rho: float
    dim: int = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != self.grid.n:
            raise ContractViolation(
                f"values must have shape (n, dim) with n={self.grid.n}, got {vals.shape}"
            )
        if not 0 < self.rho < np.inf:
            raise ContractViolation(f"rho must be finite and positive, got {self.rho}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dim", vals.shape[1])

    def with_values(self, values: np.ndarray) -> "WeightedSignal":
        return WeightedSignal(self.grid, values, self.rho)

    def weights(self) -> np.ndarray:
        """Left-rectangle quadrature weights exp(-2*rho*t_k)*dt."""
        return np.exp(-2.0 * self.rho * self.grid.times) * self.grid.dt


def _check_compatible(u: WeightedSignal, v: WeightedSignal):
    if u.grid != v.grid or u.dim != v.dim or u.rho != v.rho:
        raise ContractViolation("signals must share grid, dim and rho")


def weighted_inner(u: WeightedSignal, v: WeightedSignal) -> float:
    """Discrete weighted inner product sum_k <u_k, v_k> exp(-2*rho*t_k) dt."""
    _check_compatible(u, v)
    return float(np.sum(np.sum(u.values * v.values, axis=1) * u.weights()))


def weighted_norm(u: WeightedSignal) -> float:
    return float(np.sqrt(max(weighted_inner(u, u), 0.0)))


def cutoff(u: WeightedSignal, a: float, side: str) -> WeightedSignal:
    """Sharp temporal cut: 'past' keeps t_k <= a, 'future' keeps t_k >= a.

    Idempotent and linear; the two sides at adjacent cut points are
    complementary orthogonal projections.
    """
    t = u.grid.times
    if side == "past":
        mask = t <= a
    elif side == "future":
        mask = t >= a
    else:
        raise ContractViolation(f"side must be 'past' or 'future', got {side!r}")
    vals = np.where(mask[:, None], u.values, 0.0)
    return u.with_values(vals)


def write_signal_csv(u: WeightedSignal, path) -> None:
    """Serialize as CSV: header t,x0,...,x{dim-1}, 17 significant digits."""
    header = "t," + ",".join(f"x{i}" for i in range(u.dim))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t_k, row in zip(u.grid.times, u.values):
            fields = [f"{t_k:.17g}"] + [f"{x:.17g}" for x in row]
            fh.write(",".join(fields) + "\n")


def read_signal_csv(path, rho: float) -> WeightedSignal:
    """Read a signal written by :func:`write_signal_csv`.

    The grid is reconstructed from the time column; spacing must be uniform
    to ~1e-12 relative. A row that is not one number per header column is
    a ContractViolation naming the file and line.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("t,"):
            raise ContractViolation(f"not a signal CSV (header {header!r})")
        width = header.count(",") + 1
        rows = []
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                row = None
            if row is None or len(row) != width:
                raise ContractViolation(
                    f"{path}, line {number}: expected {width} numbers, got {line.strip()!r}")
            rows.append(row)
    data = np.asarray(rows)
    if data.shape[0] < 2:
        raise ContractViolation("signal CSV needs at least 2 rows")
    t = data[:, 0]
    dts = np.diff(t)
    dt = float(dts[0])
    if not np.max(np.abs(dts - dt)) <= 1e-12 * max(abs(dt), 1.0):  # a NaN time fails too
        raise ContractViolation("non-uniform time column in signal CSV")
    grid = TimeGrid(t0=float(t[0]), dt=dt, n=data.shape[0])
    return WeightedSignal(grid, data[:, 1:], rho)
