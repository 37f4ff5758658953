"""Named desk-scale problems used by campaigns, the CLI and the acceptance suite.

Each entry fixes a material family, a relation, a grid and an admissible
weight, and builds inclusion problems for caller-supplied forcing. The scalar
and planar entries have independent branch-enumeration oracles; the slab
entries exercise the assembled block systems at m = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .materials import MaterialFamily, _rho_error, constant_family, rho_zero
from .relations import (
    BallSaturation,
    LinearRelation,
    MonotoneRelation,
    NormSubdifferential,
    ZeroRelation,
)
from .signals import TimeGrid, WeightedSignal
from .solver import InclusionProblem

__all__ = ["CatalogProblem", "catalog_names", "make_catalog_problem"]


@dataclass(frozen=True)
class CatalogProblem:
    """A reusable problem template: everything but the forcing."""

    name: str
    family: MaterialFamily
    relation: MonotoneRelation
    grid: TimeGrid
    c_tilde: float
    rho: float
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.family.dim

    def signal(self, values: np.ndarray, rho: float = None) -> WeightedSignal:
        return WeightedSignal(self.grid, values, self.rho if rho is None else rho)

    def problem(self, forcing: WeightedSignal, rho: float = None, **solver) -> InclusionProblem:
        """The template forced by ``forcing`` at ``rho`` (the template's by default).

        ``solver`` holds ``InclusionProblem``'s knobs (``mode``,
        ``lambda_schedule``, ``fp_tol``, ``fp_max_iter``), which default there.
        """
        rho = self.rho if rho is None else rho
        if forcing.rho != rho:
            forcing = WeightedSignal(forcing.grid, forcing.values, rho)
        return InclusionProblem(family=self.family, relation=self.relation, forcing=forcing,
                                rho=rho, c_tilde=self.c_tilde, **solver)

    @classmethod
    def admissible(cls, name, family, relation, grid, c_tilde=None, rho=None, **kwargs):
        """Template with the default admissible pair where none is given.

        The defaults are ``c_tilde = c1/2`` and ``rho = 1.01 rho_zero + 0.1``;
        a given ``rho`` below ``rho_zero`` is refused, as the problem refuses it.
        """
        c_tilde = 0.5 * family.c1 if c_tilde is None else c_tilde
        rho0 = rho_zero(family, c_tilde)
        if rho is None:
            rho = _default_rho(rho0)
        elif rho < rho0:
            raise _rho_error(rho, rho0)
        return cls(name, family, relation, grid, c_tilde, rho, **kwargs)

    def admissible_rho_pair(self):
        """Two distinct admissible weights, for independence checks."""
        rho0 = rho_zero(self.family, self.c_tilde)
        return _default_rho(rho0), rho0 * 1.5 + 1.0


def _default_rho(rho0):
    return rho0 * 1.01 + 0.1


# name -> (M0, M1, relation, default n)
_LOW_DIM = {
    "scalar_ode": ([[1.0]], [[0.0]], lambda: LinearRelation([[1.0]]), 2001),
    "degenerate_plane": (
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], lambda: ZeroRelation(2), 1201,
    ),
    "sign_scalar": ([[1.0]], [[0.0]], lambda: NormSubdifferential(1, weight=1.0), 2001),
    # planar reduction of the trace-free saturation: on the deviatoric plane
    # the relation is exactly a ball projection
    "saturation_plane": (np.eye(2), np.zeros((2, 2)), lambda: BallSaturation(2, radius=1.0), 1201),
}
# name -> its slab builder in ``gallery``, assembled at m = 2 with a default n of 201
_SLABS = {"thermoplastic_slab": "build_thermoplasticity",
          "viscoplastic_slab": "build_viscoplasticity"}


def catalog_names():
    return [*_LOW_DIM, *_SLABS]


def make_catalog_problem(name: str, n: int = None, dt: float = 1e-3, t0: float = 0.0) -> CatalogProblem:
    """Build a catalog template; n defaults to a per-problem desk-scale value."""
    name = name.strip().lower()
    if name in _LOW_DIM:
        m0, m1, relation, default_n = _LOW_DIM[name]
        family, relation, meta = constant_family(m0, m1), relation(), {}
    elif name in _SLABS:
        from . import gallery  # only a slab entry builds a slab model

        model = getattr(gallery, _SLABS[name])(gallery.SlabGrid())
        family, relation, meta, default_n = model.family, model.relation, {"model": model}, 201
    else:
        raise ContractViolation(f"unknown catalog problem {name!r}")
    grid = TimeGrid(t0=t0, dt=dt, n=default_n if n is None else n)
    return CatalogProblem.admissible(name, family, relation, grid, meta=meta)
