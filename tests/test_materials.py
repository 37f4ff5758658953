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
    m0_prime,
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


class TestM0Prime:
    def test_constant_gives_zero(self):
        fam = constant_family(np.eye(2), np.zeros((2, 2)))
        assert np.allclose(m0_prime(fam, 0.3, 1e-5), 0.0)

    def test_sinusoidal_matches_analytic(self):
        fam = sinusoidal_family(np.eye(2), np.zeros((2, 2)), amplitude=0.5, frequency=1.0)
        d = m0_prime(fam, 0.0, 1e-4)
        assert np.linalg.norm(d - 0.5 * np.eye(2), 2) <= 1e-7

    def test_norm_within_claimed_bound(self):
        fam = sinusoidal_family(np.eye(3), np.zeros((3, 3)), amplitude=0.5, frequency=1.0)
        for t in np.linspace(0, 6, 13):
            d = m0_prime(fam, t, 1e-5)
            assert np.linalg.norm(d, 2) <= fam.lip_M0 + 1e-6

    def test_inconsistent_claim_detected(self):
        fam = sinusoidal_family(np.eye(2), np.zeros((2, 2)), amplitude=0.5, frequency=1.0)
        lied = MaterialFamily(
            dim=2,
            M0_at=fam.M0_at,
            M1_at=fam.M1_at,
            lip_M0=0.01,  # claim far below the true slope
            sup_M1=0.0,
            c0=fam.c0,
            c1=fam.c1,
            kernel_basis=fam.kernel_basis,
            range_basis=fam.range_basis,
        )
        with pytest.raises(ConditionCheckError):
            m0_prime(lied, 0.0, 1e-5)


class TestCheckConditions:
    def test_identity_passes(self):
        fam = constant_family(np.eye(2), np.zeros((2, 2)))
        rep = check_conditions(fam, np.linspace(0, 1, 5))
        assert rep.passed
        assert rep.measured_c0 == pytest.approx(1.0)
        assert fam.kernel_basis.shape[1] == 0  # kernel empty: (d) kernel part vacuous

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
        # backward difference of M0(t)u(t) vs M0*Du + M0'*u_{k-1}
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
                rhs[k] = fam.M0_at(tk) @ du[k] + m0_prime(fam, tk, 1e-6) @ prev
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
