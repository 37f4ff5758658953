from dataclasses import replace

import numpy as np
import pytest

from evinc.catalog import make_catalog_problem
from evinc.errors import ConditionCheckError, ContractViolation, StepSizeError
from evinc.materials import (
    MaterialFamily,
    check_conditions,
    constant_family,
    dt_max,
    kernel_decompose,
    measure_constants,
    rho_zero,
    sinusoidal_family,
    step_operator,
)


class TestKernelDecompose:
    def test_identity_full_range(self):
        kb, rb = kernel_decompose(np.eye(3))
        assert kb.shape == (3, 0)
        assert rb.shape == (3, 3)

    def test_diag_split(self):
        kb, rb = kernel_decompose(np.diag([1.0, 0.0]))
        assert kb.shape == (2, 1)
        assert abs(abs(kb[1, 0]) - 1.0) <= 1e-12
        assert abs(abs(rb[0, 0]) - 1.0) <= 1e-12

    def test_random_psd_known_nullity(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        d = np.diag([2.0, 1.5, 0.7, 0.2, 0.0, 0.0])
        m = q @ d @ q.T
        kb, rb = kernel_decompose(0.5 * (m + m.T))
        assert kb.shape[1] == 2

    def test_projectors_sum_to_identity(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        m = q @ np.diag([1.0, 2.0, 0.0, 3.0, 0.0]) @ q.T
        kb, rb = kernel_decompose(0.5 * (m + m.T))
        total = kb @ kb.T + rb @ rb.T
        assert np.linalg.norm(total - np.eye(5), 2) <= 1e-12
        assert np.linalg.norm(kb.T @ kb - np.eye(kb.shape[1]), 2) <= 1e-12
        assert np.linalg.norm(rb.T @ rb - np.eye(rb.shape[1]), 2) <= 1e-12

    def test_asymmetry_rejected(self):
        with pytest.raises(ConditionCheckError):
            kernel_decompose(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestCheckConditions:
    def test_identity_passes(self):
        fam = constant_family(np.eye(2), np.zeros((2, 2)))
        rep = check_conditions(fam, np.linspace(0, 1, 5))
        assert rep.passed
        assert rep.measured_c0 == pytest.approx(1.0)
        assert fam.kernel_basis.shape[1] == 0  # kernel empty: (d) kernel part vacuous
        # a moving identity (1 + 0.5 sin t) I: the lip_M0 claim covers its true rate 0.5
        moving = sinusoidal_family(np.eye(3), np.zeros((3, 3)), amplitude=0.5, frequency=1.0)
        assert check_conditions(moving, np.linspace(0, 6, 601)).passed

    def test_degenerate_passes(self):
        fam = constant_family(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        rep = check_conditions(fam, [0.0, 0.5])
        assert rep.passed
        assert rep.measured_c0 == pytest.approx(1.0)
        assert rep.measured_c1 == pytest.approx(1.0)

    def test_missing_kernel_coercivity_fails(self):
        fam = constant_family(np.diag([1.0, 0.0]), np.zeros((2, 2)), c1=1.0)
        rep = check_conditions(fam, [0.0])
        assert not rep.passed
        assert "kernel_coercive" in rep.failing()
        assert rep.measured_c1 <= 0.0

    @pytest.mark.parametrize(
        "condition, m0_at, claims",
        [
            # M0 is not selfadjoint; the range claim holds for its symmetric part
            ("symmetric", lambda t: np.array([[1.0, 0.1], [0.0, 1.0]]), {"c0": 0.9}),
            # M0(t) = (1 + 0.5 sin t) I moves at rate 0.5, more than the claim
            ("lipschitz", lambda t: (1.0 + 0.5 * np.sin(t)) * np.eye(2), {"lip_M0": 0.1}),
            # the claimed kernel direction is not annihilated by M0
            ("kernel_constant", lambda t: np.diag([1.0, 1e-3]), {"kernel": True}),
            # M0 on its range is 0.5, below the claimed c0 = 1
            ("range_coercive", lambda t: np.diag([0.5, 0.0]), {"kernel": True}),
        ],
    )
    def test_each_condition_fails_alone(self, condition, m0_at, claims):
        fam = MaterialFamily(
            dim=2, M0_at=m0_at, M1_at=lambda t: np.diag([0.0, 1.0]),
            lip_M0=claims.get("lip_M0", 0.0), sup_M1=1.0, c0=claims.get("c0", 1.0), c1=1.0,
            kernel_basis=np.array([[0.0], [1.0]]) if claims.get("kernel") else np.zeros((2, 0)),
        )
        rep = check_conditions(fam, np.linspace(0.0, 1.0, 11))
        assert rep.failing() == [condition]
        assert "passed = FAIL" in rep.to_text()

    def test_chord_rate_over_distinct_times_only(self):
        # M0(t) = (1 + 0.5 sin t) I: a repeated time adds no chord, one sample measures rate 0
        fam = sinusoidal_family(np.eye(2), np.zeros((2, 2)), amplitude=0.5, frequency=1.0)
        chord = float(np.linalg.norm(fam.M0_at(1.0) - fam.M0_at(0.0), 2))
        assert check_conditions(fam, [0.0, 0.0, 1.0]).measured_lipschitz == chord
        assert check_conditions(fam, [0.5]).measured_lipschitz == 0.0

    @pytest.mark.parametrize("ts", [[], [0.0, np.nan], [np.inf]])
    def test_empty_or_nonfinite_samples_refused(self, ts):
        # an empty set once reported passed = pass with measured_c0 = inf: it measured nothing
        fam = constant_family(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ContractViolation, match="at least one time sample, all finite"):
            check_conditions(fam, ts)

    def test_nonfinite_coefficient_sample_names_its_time(self):
        # once an untyped LinAlgError (SVD did not converge)
        fam = MaterialFamily(
            dim=1, M0_at=lambda t: np.eye(1) * (np.nan if t == 0.5 else 1.0),
            M1_at=lambda t: np.zeros((1, 1)), lip_M0=0.0, sup_M1=0.0, c0=1.0, c1=1.0,
            kernel_basis=np.zeros((1, 0)),
        )
        with pytest.raises(ConditionCheckError, match="not finite at t=0.5"):
            check_conditions(fam, [0.0, 0.5, 1.0])

    def test_constant_family_is_measured_once(self):
        # every sample repeats the first, so 2 001 samples once took 2 001 evaluations
        base = constant_family(np.diag([2.0, 0.0]), np.array([[0.5, 0.3], [-0.3, 1.5]]))
        calls = []
        fam = replace(base, M0_at=lambda t: calls.append(t) or base.M0_at(t))
        ts = np.linspace(0.0, 10.0, 2001)
        rep = check_conditions(fam, ts)
        assert calls == [0.0]
        # the same fields as a measurement at every sample
        assert rep == check_conditions(replace(base, constant=False), ts)
        assert rep.measured_lipschitz == 0.0 and rep.passed

    def test_report_serializes_flat(self):
        fam = constant_family(np.eye(2), np.zeros((2, 2)))
        text = check_conditions(fam, [0.0]).to_text()
        assert "passed = pass" in text
        assert all("=" in line for line in text.strip().splitlines())


class TestRhoZero:
    def test_reference_value(self):
        fam = constant_family(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        lied = MaterialFamily(
            dim=2, M0_at=fam.M0_at, M1_at=fam.M1_at,
            lip_M0=0.2, sup_M1=1.0, c0=1.0, c1=1.0,
            kernel_basis=fam.kernel_basis, range_basis=fam.range_basis,
        )
        # (1/c0)(c~ + lip/2 + sup + sup^2/(c1 - c~))
        assert rho_zero(lied, 0.5) == pytest.approx(0.5 + 0.1 + 1.0 + 2.0)

    def test_unperturbed_case(self):
        fam = constant_family(np.eye(2), np.zeros((2, 2)))
        assert rho_zero(fam, 0.5) == pytest.approx(0.5)

    def test_doubling_sup(self):
        fam = constant_family(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        lied = MaterialFamily(
            dim=2, M0_at=fam.M0_at, M1_at=fam.M1_at,
            lip_M0=0.2, sup_M1=2.0, c0=1.0, c1=1.0,
            kernel_basis=fam.kernel_basis, range_basis=fam.range_basis,
        )
        assert rho_zero(lied, 0.5) == pytest.approx(0.5 + 0.1 + 2.0 + 8.0)

    def test_c_tilde_range_enforced(self):
        fam = constant_family(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ContractViolation):
            rho_zero(fam, 1.5)
        with pytest.raises(ContractViolation):
            rho_zero(fam, 0.0)


@pytest.mark.parametrize("m0, m1", [
    (np.eye(2), [[5.0]]),  # once broadcast into an all-fives M1
    (np.ones((2, 3)), np.zeros((2, 3))),
    (np.eye(2), np.zeros((3, 3))),
])
def test_family_matrices_square_of_one_shape(m0, m1):
    with pytest.raises(ContractViolation, match="square matrices of one shape"):
        constant_family(m0, np.array(m1))


class TestNonFiniteInput:
    """Non-finite matrices and claims are refused where a family is built."""

    @pytest.mark.parametrize("m0, m1", [
        ([[np.nan]], [[0.0]]),  # once an untyped LinAlgError from the SVD
        ([[1.0]], [[np.inf]]),  # once accepted with sup_M1 = 0
    ])
    def test_constant_family_matrices(self, m0, m1):
        with pytest.raises(ContractViolation, match="finite"):
            constant_family(np.array(m0), np.array(m1))

    @pytest.mark.parametrize("frequency", [np.nan, np.inf])
    def test_sinusoidal_family_frequency(self, frequency):
        # once accepted with lip_M0 = nan
        with pytest.raises(ContractViolation, match="finite"):
            sinusoidal_family(np.eye(1), np.zeros((1, 1)), amplitude=0.3, frequency=frequency)

    @pytest.mark.parametrize("claim, value", [
        ("lip_M0", np.nan), ("lip_M0", np.inf), ("sup_M1", np.nan), ("sup_M1", np.inf),
        ("c0", np.nan), ("c0", np.inf), ("c1", np.nan), ("c1", np.inf),
    ])
    def test_family_claims(self, claim, value):
        # lip_M0 = nan once gave rho_zero = dt_max = nan, which admitted any rho and dt
        claims = {"lip_M0": 0.0, "sup_M1": 0.0, "c0": 1.0, "c1": 1.0, claim: value}
        with pytest.raises(ContractViolation, match="finite"):
            MaterialFamily(dim=1, M0_at=lambda t: np.eye(1), M1_at=lambda t: np.zeros((1, 1)),
                           kernel_basis=np.zeros((1, 0)), **claims)

    @pytest.mark.parametrize("m0, m1", [
        (np.full((1, 2, 2), np.nan), np.eye(2)[None]),  # the SVD of a NaN stack does not converge
        (np.eye(2)[None], np.full((1, 2, 2), np.inf)),
    ])
    def test_measure_constants_stacks(self, m0, m1):
        with pytest.raises(ContractViolation, match="finite"):
            measure_constants(m0, m1, np.zeros((2, 0)), np.eye(2))


class TestStepOperator:
    def test_identity(self):
        fam = constant_family(np.eye(2), np.zeros((2, 2)))
        S, margin = step_operator(fam, 0.0, 0.1)
        assert np.allclose(S, 10.0 * np.eye(2))
        assert margin == pytest.approx(10.0)

    def test_degenerate(self):
        fam = constant_family(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        S, margin = step_operator(fam, 0.0, 0.1)
        assert np.allclose(S, np.diag([10.0, 1.0]))
        assert margin == pytest.approx(1.0)

    def test_dt_rule_restores_margin(self):
        # nonsymmetric coupling: the admissible step keeps the symmetric
        # part positive
        m1 = np.array([[0.0, 2.0], [0.0, 1.0]])
        fam = constant_family(np.diag([1.0, 0.0]), m1)
        dt = dt_max(fam, 0.5 * fam.c1)
        _, margin = step_operator(fam, 0.0, dt)
        assert margin > 0.0

    def test_too_large_step_rejected_with_suggestion(self):
        m1 = np.array([[0.0, 4.0], [0.0, 1.0]])
        fam = constant_family(np.diag([1.0, 0.0]), m1)
        with pytest.raises(StepSizeError) as exc:
            step_operator(fam, 0.0, 10.0)
        assert exc.value.suggested_dt is not None
        _, margin = step_operator(fam, 0.0, exc.value.suggested_dt)
        assert margin > 0.0


    @pytest.mark.parametrize(
        "name", ["degenerate_plane", "saturation_plane", "thermoplastic_slab", "viscoplastic_slab"]
    )
    def test_step_matrix_bit_for_bit(self, name):
        # the benchmark's residual check rebuilds each step from this contract
        fam = make_catalog_problem(name).family
        t, dt = 0.37, 1e-3
        S, margin = step_operator(fam, t, dt)
        M0 = np.asarray(fam.M0_at(t), dtype=float)
        expected = M0 / dt + np.asarray(fam.M1_at(t), dtype=float)
        assert S.dtype == np.float64 and S.tobytes() == expected.tobytes()
        assert margin == float(np.min(np.linalg.eigvalsh(0.5 * (expected + expected.T))))

    def test_step_matrix_of_a_moving_family(self):
        fam = sinusoidal_family(np.eye(2), np.zeros((2, 2)), amplitude=0.5, frequency=1.0)
        S, _ = step_operator(fam, 1.1, 0.01)
        assert S.tobytes() == (fam.M0_at(1.1) / 0.01 + fam.M1_at(1.1)).tobytes()
        assert not np.array_equal(S, step_operator(fam, 0.0, 0.01)[0])


class TestChainRule:
    def test_first_order_in_dt(self):
        # backward difference of M0(t)u(t) vs M0*Du + M0'*u_{k-1}, M0'(t) = 0.5 cos(t) base
        base = np.array([[1.0, 0.3], [0.3, 2.0]])
        fam = sinusoidal_family(base, np.zeros((2, 2)), amplitude=0.5, frequency=1.0)
        from evinc.signals import TimeGrid, WeightedSignal, weighted_norm

        errs = []
        for dt in (2e-3, 1e-3):
            n = int(2.0 / dt) + 1
            grid = TimeGrid(0.0, dt, n)
            t = grid.times
            u = np.stack([np.sin(t), np.sin(2 * t)], axis=1)
            m0u = np.stack([fam.M0_at(tk) @ u[k] for k, tk in enumerate(t)])
            lhs = np.diff(m0u, axis=0, prepend=np.zeros((1, 2))) / dt
            du = np.diff(u, axis=0, prepend=np.zeros((1, 2))) / dt
            rhs = np.empty_like(u)
            for k, tk in enumerate(t):
                prev = u[k - 1] if k else np.zeros(2)
                rhs[k] = fam.M0_at(tk) @ du[k] + (0.5 * np.cos(tk) * base) @ prev
            sig = WeightedSignal(grid, lhs - rhs, 1.0)
            errs.append(weighted_norm(sig))
        order = np.log2(errs[0] / errs[1])
        assert order >= 0.9


class TestDiscreteCoercivity:
    def test_monotonicity_margin_on_families(self):
        from evinc.catalog import CatalogProblem, make_catalog_problem
        from evinc.harness import monotonicity_margin, random_forcing
        from evinc.signals import TimeGrid

        rng = np.random.default_rng(21)
        templates = [
            make_catalog_problem("scalar_ode", n=400),
            make_catalog_problem("degenerate_plane", n=400),
        ]
        # a time-varying family as well
        fam = sinusoidal_family(
            np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), amplitude=0.3, frequency=2.0
        )
        templates.append(
            CatalogProblem(
                name="sinusoidal",
                family=fam,
                relation=__import__("evinc.relations", fromlist=["ZeroRelation"]).ZeroRelation(2),
                grid=TimeGrid(0.0, 1e-3, 400),
                c_tilde=0.5,
                rho=rho_zero(fam, 0.5) + 0.5,
            )
        )
        for tpl in templates:
            for _ in range(30):
                u = random_forcing(tpl, rng)
                assert monotonicity_margin(tpl, u) >= 0.0
