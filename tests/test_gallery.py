import numpy as np
import pytest

from evinc.errors import ConditionCheckError, ContractViolation
from evinc.gallery import (
    Coefficient,
    SlabGrid,
    build_slab_operators,
    build_thermoplasticity,
    build_viscoplasticity,
    raw_viscoplastic_block,
)
from evinc.materials import check_conditions, kernel_decompose
from evinc.signals import weighted_norm
from evinc.solver import solve
from evinc.tensors import deviatoric_basis


class TestSpatialOperators:
    def test_adjointness_exact(self):
        ops = build_slab_operators(SlabGrid(m=8, dx=0.3))
        assert np.linalg.norm(ops.div + ops.grad_c.T, 2) <= 1e-12
        assert np.linalg.norm(ops.Div + ops.Grad_c.T, 2) <= 1e-12

    def test_constant_field_gradient(self):
        ops = build_slab_operators(SlabGrid(m=6, dx=0.5))
        g = ops.grad_c @ np.ones(6)
        assert np.allclose(g[1:], 0.0)
        # the Dirichlet closure sees the zero extension at the clamped face
        assert g[0] == pytest.approx(1.0 / 0.5)

    def test_trace_adjoint_identity(self):
        ops = build_slab_operators(SlabGrid(m=4, dx=0.25))
        prod = ops.trace_op @ ops.trace_op.T
        assert np.allclose(prod, 3.0 * np.eye(4), atol=1e-13)


class TestThermoplasticity:
    def test_assembly_and_kernel(self):
        model = build_thermoplasticity(SlabGrid(m=2, dx=0.5))
        assert model.dim == 22
        assert model.conditions.passed
        # the kernel of the assembled matrix is exactly the flux block
        kb, _ = kernel_decompose(model.family.M0_at(0.0))
        assert kb.shape[1] == 2
        q0 = model.slots["q"][0]
        proj = kb @ kb.T
        expected = np.zeros((22, 22))
        expected[q0:, q0:] = np.eye(2)
        assert np.linalg.norm(proj - expected, 2) <= 1e-10

    def test_skew_block_antisymmetric(self):
        model = build_thermoplasticity(SlabGrid(m=3, dx=0.4))
        K = model.skew_block
        assert np.linalg.norm(K + K.T, 2) <= 1e-12

    def test_flow_relation_trace_free(self):
        model = build_thermoplasticity(SlabGrid(m=2, dx=0.5))
        rng = np.random.default_rng(0)
        _, tail = model.relation.split()
        t_lo, t_hi = model.slots["T"]
        for _ in range(50):
            x = rng.standard_normal(model.dim) * 3
            out = tail.apply(x)
            T_part = out[t_lo:t_hi].reshape(-1, 6)
            assert np.max(np.abs(T_part[:, :3].sum(axis=1))) <= 1e-12
            # nothing leaks outside the stress slot
            rest = np.concatenate([out[:t_lo], out[t_hi:]])
            assert np.all(rest == 0.0)

    def test_zero_forcing_zero_solution(self):
        from evinc.catalog import make_catalog_problem

        tpl = make_catalog_problem("thermoplastic_slab", n=40)
        rep = solve(tpl.problem(tpl.signal(np.zeros((40, tpl.dim)))))
        assert np.all(rep.solution.values == 0.0)

    def test_time_dependent_coefficients_pass(self):
        model = build_thermoplasticity(
            SlabGrid(m=2, dx=0.5),
            M=Coefficient(1.0, 0.3, 2.0),
            C=Coefficient(1.0, 0.2, 1.0),
        )
        assert model.conditions.passed
        assert model.family.lip_M0 > 0


def _drawn_coefficient(rng):
    """Base in [0.5, 2]; one in four constant, the others |amplitude| <= 0.6, frequency in [0.2, 5]."""
    base = rng.uniform(0.5, 2.0)
    if rng.random() < 0.25:
        return Coefficient(base)
    return Coefficient(base, rng.uniform(-0.6, 0.6), rng.uniform(0.2, 5.0))


@pytest.mark.parametrize("build, names", [
    (build_thermoplasticity, ("M", "C", "w", "kappa")),
    (build_viscoplasticity, ("M", "D", "L")),
], ids=["thermoplastic", "viscoplastic"])
def test_claims_hold_on_moving_coefficients(build, names):
    # the claims are read off the coefficients' bounds, so dense samples must not falsify
    # them; one draw per builder, as 2001 samples take about 0.4 s
    rng = np.random.default_rng(2028)
    coefficients = {name: _drawn_coefficient(rng) for name in names}
    report = check_conditions(build(SlabGrid(), **coefficients).family, np.linspace(0, 10, 2001))
    assert report.passed, (coefficients, report.failing())


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_scalars_must_be_finite_and_positive(value):
    for build in (
        lambda: Coefficient(value),
        lambda: SlabGrid(m=2, dx=value),
        lambda: build_thermoplasticity(SlabGrid(), c=value),
        lambda: build_thermoplasticity(SlabGrid(), tau0=value),
        lambda: build_thermoplasticity(SlabGrid(), s0=value),
    ):
        with pytest.raises(ContractViolation, match="finite and positive"):
            build()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_coefficient_frequency_must_be_finite(value):
    with pytest.raises(ContractViolation, match="finite"):
        Coefficient(1.0, 0.3, value)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_coupling_must_be_finite(value):
    # once an untyped LinAlgError, with LAPACK's DLASCL complaints on stderr
    coupling = deviatoric_basis()[:, :5].copy()
    coupling[0, 0] = value
    with pytest.raises(ContractViolation, match="finite 6 x 5"):
        build_viscoplasticity(SlabGrid(), coupling=coupling)


class TestViscoplasticity:
    def test_decoupled_block_constants(self):
        model = build_viscoplasticity(SlabGrid(m=2, dx=0.5), coupling=np.zeros((6, 5)))
        # with no coupling the block is diag(M, 1/L, 1/D): c0 = min of those
        assert model.family.c0 == pytest.approx(1.0, rel=1e-6)
        assert model.family.kernel_basis.shape[1] == 0

    def test_assembled_block_positive(self):
        model = build_viscoplasticity(SlabGrid(m=2, dx=0.5), N=5)
        M0 = model.family.M0_at(0.0)
        assert np.min(np.linalg.eigvalsh(0.5 * (M0 + M0.T))) > 0
        assert model.conditions.passed

    def test_positivity_iff_schur_blocks(self):
        B = deviatoric_basis()[:, :3]
        # passing set: both decoupled moduli positive -> block positive
        good = raw_viscoplastic_block(D_val=0.8, L_val=1.2, B=B)
        assert np.min(np.linalg.eigvalsh(good)) > 0
        # failing set: indefinite creep modulus -> block indefinite
        bad = raw_viscoplastic_block(D_val=-0.5, L_val=1.2, B=B)
        assert np.min(np.linalg.eigvalsh(bad)) < 0

        class Indefinite:
            # a "coefficient" violating the uniform positivity hypothesis
            lower = -0.5
            upper = -0.5
            lip = 0.0
            constant = True

            def __call__(self, t):
                return -0.5

        with pytest.raises(ConditionCheckError):
            build_viscoplasticity(SlabGrid(m=2, dx=0.5), D=Indefinite())

    def test_zero_forcing_zero_solution(self):
        from evinc.catalog import make_catalog_problem

        tpl = make_catalog_problem("viscoplastic_slab", n=40)
        rep = solve(tpl.problem(tpl.signal(np.zeros((40, tpl.dim)))))
        assert np.all(rep.solution.values == 0.0)

    def test_ball_saturation_variant(self):
        model = build_viscoplasticity(
            SlabGrid(m=2, dx=0.5), relation_kind="ball_saturation", relation_param=0.5
        )
        assert model.conditions.passed


class TestRefinement:
    def test_halving_dx_and_dt_is_stable(self):
        # smooth forcing on the velocity slot; physical norms change mildly
        from evinc.catalog import CatalogProblem
        from evinc.materials import rho_zero
        from evinc.signals import TimeGrid

        norms = []
        for m, dt, n in ((2, 2e-3, 100), (4, 1e-3, 200)):
            model = build_thermoplasticity(SlabGrid(m=m, dx=1.0 / m))
            c_tilde = 0.5 * model.family.c1
            rho = rho_zero(model.family, c_tilde) * 1.01 + 0.1
            tpl = CatalogProblem(
                name="thermo", family=model.family, relation=model.relation,
                grid=TimeGrid(0.0, dt, n), c_tilde=c_tilde, rho=rho,
            )
            t = tpl.grid.times
            x = (np.arange(m) + 0.5) / m
            profile = np.sin(np.pi * x)
            vals = np.zeros((n, tpl.dim))
            v0 = model.slots["v"][0]
            for j in range(m):
                vals[:, v0 + 3 * j] = np.sin(2 * np.pi * t) * profile[j]
            rep = solve(tpl.problem(tpl.signal(vals)))
            assert rep.converged
            # physical L2-in-space scaling so resolutions are comparable
            norms.append(weighted_norm(rep.solution) * np.sqrt(1.0 / m))
        change = abs(norms[1] - norms[0]) / norms[0]
        assert change <= 0.10


def test_energy_estimate_along_solved_trajectory():
    # the discrete coercivity inequality holds on the solution itself
    from evinc.catalog import make_catalog_problem
    from evinc.harness import monotonicity_margin, random_forcing

    rng = np.random.default_rng(17)
    for name in ("thermoplastic_slab", "viscoplastic_slab"):
        tpl = make_catalog_problem(name, n=60)
        rep = solve(tpl.problem(random_forcing(tpl, rng)))
        assert rep.converged
        assert monotonicity_margin(tpl, rep.solution) >= 0.0
