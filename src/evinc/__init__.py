"""Causal solver and verification harness for degenerate evolutionary inclusions."""

from .signals import TimeGrid, WeightedSignal, cutoff, weighted_inner, weighted_norm
from .calculus import derivative, difference_quotient, integrate, translate
from .relations import (
    BallSaturation,
    DeviatoricSaturation,
    LinearRelation,
    MonotoneRelation,
    NormSubdifferential,
    ZeroRelation,
    lift,
    minty_scan,
    resolvent,
    sum_with_lipschitz,
    yosida,
)
from .materials import (
    MaterialFamily,
    check_conditions,
    constant_family,
    kernel_decompose,
    measure_constants,
    rho_zero,
    sinusoidal_family,
    step_operator,
)
from .solver import (
    InclusionProblem,
    SolveReport,
    lipschitz_certificate,
    solve,
    solve_batch,
    solve_step,
)
from .harness import PropertyCampaign, oracle_trajectory, run_campaign
from .catalog import catalog_names, make_catalog_problem
from .gallery import SlabGrid, build_slab_operators, build_thermoplasticity, build_viscoplasticity

__version__ = "0.1.0"
