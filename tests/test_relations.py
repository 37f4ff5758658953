import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evinc.errors import ContractViolation
from evinc.relations import (
    FLOAT_ENTRIES,
    BallSaturation,
    DeviatoricSaturation,
    LinearRelation,
    MonotoneRelation,
    NodewiseRelation,
    NormSubdifferential,
    SlotEmbedded,
    StructuredSum,
    YosidaRelation,
    ZeroRelation,
    _LipschitzPerturbedSum,
    lift,
    minty_scan,
    relation_from_config,
    resolvent,
    sum_with_lipschitz,
    yosida,
)
from evinc.signals import TimeGrid, WeightedSignal
from evinc.calculus import translate
from evinc.tensors import TRACE_VECTOR, deviatoric_basis, mandel_dev, mandel_trace


def catalog(dim=1):
    return [
        ZeroRelation(dim),
        LinearRelation(np.eye(dim)),
        NormSubdifferential(dim, weight=1.0),
        BallSaturation(dim, radius=1.0),
    ]


class TestResolvent:
    def test_zero_relation_identity(self):
        a = ZeroRelation(3)
        y = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(resolvent(a, 0.7, y), y)

    def test_identity_map(self):
        a = LinearRelation([[1.0]])
        assert resolvent(a, 1.0, np.array([4.0]))[0] == pytest.approx(2.0)

    def test_soft_threshold_branches(self):
        a = NormSubdifferential(1, weight=1.0)
        assert resolvent(a, 1.0, np.array([2.0]))[0] == pytest.approx(1.0)
        assert resolvent(a, 1.0, np.array([0.5]))[0] == 0.0
        assert resolvent(a, 1.0, np.array([-2.0]))[0] == pytest.approx(-1.0)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ContractViolation):
            resolvent(ZeroRelation(1), 0.0, np.array([1.0]))

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_lambda_must_be_finite_and_positive(self, lam):
        with pytest.raises(ContractViolation):
            resolvent(ZeroRelation(1), lam, np.array([1.0]))
        with pytest.raises(ContractViolation):
            minty_scan(ZeroRelation(1), lam, samples=2, radius=1.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_weight_and_radius_must_be_finite_and_positive(self, value):
        for build in (
            lambda: NormSubdifferential(1, weight=value),
            lambda: BallSaturation(2, radius=value),
            lambda: DeviatoricSaturation(radius=value),
        ):
            with pytest.raises(ContractViolation, match="finite and positive"):
                build()

    def test_ball_saturation_cases(self):
        a = BallSaturation(2, radius=1.0)
        inside = resolvent(a, 1.0, np.array([1.0, 0.0]))
        assert np.allclose(inside, [0.5, 0.0])
        far = resolvent(a, 1.0, np.array([5.0, 0.0]))
        assert np.allclose(far, [4.0, 0.0])  # |x| = |y| - lam*s on the saturated branch


class TestYosida:
    def test_identity_map(self):
        a = LinearRelation([[1.0]])
        assert yosida(a, 1.0, np.array([2.0]))[0] == pytest.approx(1.0)

    def test_sign(self):
        a = NormSubdifferential(1, weight=1.0)
        assert yosida(a, 1.0, np.array([2.0]))[0] == pytest.approx(1.0)
        assert yosida(a, 1.0, np.array([0.5]))[0] == pytest.approx(0.5)

    def test_fixed_point_at_origin(self):
        for a in catalog(2):
            out = yosida(a, 0.8, np.zeros(2))
            assert np.allclose(out, 0.0)

    def test_resolvent_identity_bitwise(self):
        # power-of-two parameters scale exactly, so the rearranged identity
        # lam * yosida == y - resolvent holds bit for bit
        rng = np.random.default_rng(9)
        for dim in (1, 3):
            for a in catalog(dim):
                for lam in (0.5, 1.0, 2.0):
                    for _ in range(200):
                        y = rng.standard_normal(dim) * 3.0
                        r = resolvent(a, lam, y)
                        z = yosida(a, lam, y)
                        assert np.array_equal(lam * z, y - r)

    def test_yosida_lipschitz_and_monotone(self):
        rng = np.random.default_rng(10)
        lam = 0.7
        for a in catalog(2):
            for _ in range(500):
                x = rng.standard_normal(2) * 4
                y = rng.standard_normal(2) * 4
                zx, zy = yosida(a, lam, x), yosida(a, lam, y)
                gap = np.linalg.norm(x - y)
                assert np.linalg.norm(zx - zy) <= gap / lam + 1e-9
                assert np.dot(zx - zy, x - y) >= -1e-12

    def test_yosida_relation_resolvent_identity(self):
        # resolvent of the surrogate agrees with direct fixed-point solving
        a = NormSubdifferential(1, weight=1.0)
        surrogate = YosidaRelation(a, lam=0.3)
        for y in (2.5, 0.2, -1.1):
            x = surrogate.resolve(0.9, np.array([y]))
            # verify x + gamma * A_lam(x) = y
            recon = x + 0.9 * surrogate.apply(x)
            assert recon[0] == pytest.approx(y, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -0.3, float("nan"), float("inf")])
    def test_yosida_relation_needs_a_finite_positive_lam(self, lam):
        with pytest.raises(ContractViolation):
            YosidaRelation(NormSubdifferential(1, weight=1.0), lam)


class TestNonexpansiveness:
    def test_bulk_random_pairs(self):
        rng = np.random.default_rng(11)
        lam = 0.9
        for a in catalog(3):
            xs = rng.standard_normal((300, 3)) * 5
            ys = rng.standard_normal((300, 3)) * 5
            for x, y in zip(xs, ys):
                rx, ry = resolvent(a, lam, x), resolvent(a, lam, y)
                assert (
                    np.linalg.norm(rx - ry)
                    <= np.linalg.norm(x - y) + 1e-12
                )


class TestLift:
    def grid_signal(self, dim=1, n=16):
        rng = np.random.default_rng(12)
        grid = TimeGrid(0.0, 0.25, n)
        return WeightedSignal(grid, rng.standard_normal((n, dim)), 1.0)

    def test_zero_lift_is_identity(self):
        u = self.grid_signal()
        lifted = lift(ZeroRelation(1), u.grid, u.rho)
        assert np.array_equal(lifted.resolve_signal(0.5, u).values, u.values)

    def test_commutes_with_translate(self):
        u = self.grid_signal(dim=2)
        lifted = lift(BallSaturation(2, radius=0.8), u.grid, u.rho)
        a = lifted.resolve_signal(0.5, translate(u, 2))
        b = translate(lifted.resolve_signal(0.5, u), 2)
        # overlap excludes the nodes where the shift filled zeros
        assert np.array_equal(a.values[:-2], b.values[:-2])

    def test_nodewise_thresholding(self):
        u = self.grid_signal()
        lifted = lift(NormSubdifferential(1, weight=1.0), u.grid, u.rho)
        out = lifted.resolve_signal(0.5, u)
        base = NormSubdifferential(1, weight=1.0)
        for k in range(u.grid.n):
            expected = base.resolve(0.5, u.values[k])
            assert np.array_equal(out.values[k], expected)

    def test_yosida_of_lift_equals_lift_of_yosida(self):
        u = self.grid_signal(dim=2)
        base = BallSaturation(2, radius=0.5)
        lifted = lift(base, u.grid, u.rho)
        lam = 0.4
        a = lifted.yosida_signal(lam, u)
        nodewise = np.stack([(row - base.resolve(lam, row)) / lam for row in u.values])
        assert np.array_equal(a.values, nodewise)


class TestMintyScan:
    def test_zero_relation_all_pass(self):
        rep = minty_scan(ZeroRelation(2), 0.7, samples=100, radius=5.0, seed=1)
        assert rep.passed and rep.samples == 100

    def test_sign_full_pass(self):
        rep = minty_scan(NormSubdifferential(1, weight=1.0), 0.5, samples=1000, radius=10.0, seed=2)
        assert rep.passed
        assert rep.max_residual <= 1e-8

    def test_catalog_graph_residuals(self):
        for a in catalog(2):
            rep = minty_scan(a, 0.8, samples=300, radius=6.0, seed=3)
            assert rep.passed, repr(rep)

    def test_non_maximal_relation_flagged(self):
        class PuncturedSign(NormSubdifferential):
            # sign restricted to x != 0: the graph rejects the origin
            def graph_distance(self, x, v):
                if np.linalg.norm(x) == 0.0:
                    return float("inf")
                return super().graph_distance(x, v)

        bad = PuncturedSign(1, weight=1.0)
        rep = minty_scan(bad, 0.5, samples=500, radius=2.0, seed=4)
        assert rep.inclusion_failures > 0
        # failures are exactly the targets the missing point would have served
        good = minty_scan(NormSubdifferential(1, weight=1.0), 0.5, samples=500, radius=2.0, seed=4)
        assert good.passed

    def test_expansive_resolvent_flagged(self):
        class Doubling(ZeroRelation):
            # a "resolvent" that doubles its input: |x - x'| = 2 |y - y'|
            def resolve(self, lam, y):
                return 2.0 * y

        rep = minty_scan(Doubling(2), 0.5, samples=50, radius=3.0, seed=6)
        assert not rep.passed
        assert rep.nonexpansive_failures == 49  # every consecutive pair of the 50 samples
        assert rep.max_expansion_slack > 0.0


class TestAssembledMaximality:
    """Minty scans of the assembled relations that the paper's examples rest on."""

    @pytest.mark.parametrize("name", ["thermoplastic_slab", "viscoplastic_slab"])
    def test_slab_relation(self, name):
        from evinc.catalog import make_catalog_problem

        rel = make_catalog_problem(name, n=3).relation
        rep = minty_scan(rel, 0.5, samples=200, radius=5.0, seed=1)
        assert rep.passed and rep.inclusion_checked, repr(rep)
        assert rep.max_residual <= 1e-9 and rep.max_expansion_slack <= 0.0

    def test_single_valued_slab_apply_inverts_its_resolvent(self):
        from evinc.catalog import make_catalog_problem

        rel = make_catalog_problem("thermoplastic_slab", n=3).relation
        y = np.random.default_rng(2).standard_normal((4, rel.dim)) * 5.0
        x = rel.resolve(0.5, y)
        assert np.max(np.abs(x + 0.5 * rel.apply(x) - y)) <= 1e-9

    @pytest.mark.parametrize("rel, lam", [
        (SlotEmbedded(NormSubdifferential(2), 1, 6, count=2), 0.5),  # set-valued slot
        (sum_with_lipschitz(NormSubdifferential(2), lambda u: 0.5 * u, 0.5), 0.8),
    ], ids=["slot", "lipschitz_sum"])
    def test_embedded_and_perturbed(self, rel, lam):
        rep = minty_scan(rel, lam, samples=200, radius=5.0, seed=1)
        assert rep.passed and rep.inclusion_checked, repr(rep)
        assert rep.max_residual <= 1e-9


class TestSumWithLipschitz:
    def test_zero_perturbation_reduces_to_base(self):
        a = NormSubdifferential(1, weight=1.0)
        s = sum_with_lipschitz(a, lambda x: np.zeros_like(x), 0.0)
        y = np.array([3.3])
        assert s.resolve(0.5, y) == pytest.approx(a.resolve(0.5, y))

    def test_identity_perturbation_closed_form(self):
        s = sum_with_lipschitz(ZeroRelation(1), lambda x: x, 1.0)
        assert s.resolve(0.5, np.array([3.0]))[0] == pytest.approx(2.0, abs=1e-11)

    def test_contraction_precondition(self):
        s = sum_with_lipschitz(ZeroRelation(1), lambda x: 2.0 * x, 2.0)
        with pytest.raises(ContractViolation):
            s.resolve(0.6, np.array([1.0]))

    def test_sign_plus_identity_vs_grid_search(self):
        a = NormSubdifferential(1, weight=1.0)
        s = sum_with_lipschitz(a, lambda x: x, 1.0)
        lam, y = 0.5, 3.0
        x = s.resolve(lam, np.array([y]))[0]

        # independent dense grid search with progressive refinement
        def residual(u):
            if u > 0:
                return abs(u + lam * (u + 1.0) - y)
            if u < 0:
                return abs(u + lam * (u - 1.0) - y)
            return max(abs(y) - lam, 0.0)

        lo, hi = -5.0, 5.0
        for _ in range(4):
            grid = np.linspace(lo, hi, 10001)
            vals = [residual(u) for u in grid]
            best = grid[int(np.argmin(vals))]
            span = (hi - lo) / 10000
            lo, hi = best - 2 * span, best + 2 * span
        assert abs(x - best) <= 1e-8
        assert x == pytest.approx(5.0 / 3.0, abs=1e-9)


class TestStructuredAndEmbedded:
    def test_slot_embedding(self):
        base = BallSaturation(2, radius=1.0)
        emb = SlotEmbedded(base, start=1, total_dim=4)
        y = np.array([5.0, 3.0, 4.0, -2.0])
        out = emb.resolve(1.0, y)
        assert np.allclose(out[[0, 3]], y[[0, 3]])
        assert np.allclose(out[1:3], base.resolve(1.0, y[1:3]))

    def test_nodewise_blocks(self):
        base = NormSubdifferential(2, weight=1.0)
        node = NodewiseRelation(base, 3)
        y = np.arange(6.0)
        out = node.resolve(0.5, y)
        for i in range(3):
            blk = slice(2 * i, 2 * i + 2)
            assert np.array_equal(out[blk], base.resolve(0.5, y[blk]))

    def test_structured_sum_resolvent(self):
        # skew part plus saturation: verify the defining inclusion directly
        K = np.array([[0.0, 2.0], [-2.0, 0.0]])
        tail = BallSaturation(2, radius=0.7)
        rel = StructuredSum(K, tail)
        rng = np.random.default_rng(13)
        for _ in range(50):
            y = rng.standard_normal(2) * 4
            lam = float(rng.uniform(0.05, 2.0))
            x = rel.resolve(lam, y)
            recon = x + lam * (K @ x) + lam * tail.apply(x)
            assert np.allclose(recon, y, atol=1e-10)

    def test_structured_sum_rejects_nonmonotone_linear_part(self):
        with pytest.raises(ContractViolation):
            StructuredSum(-np.eye(2), BallSaturation(2, radius=1.0))


class TestDeviatoricSaturation:
    def test_outputs_trace_free(self):
        rng = np.random.default_rng(14)
        rel = DeviatoricSaturation(radius=1.3)
        for _ in range(100):
            x = rng.standard_normal(6) * 3
            assert abs(mandel_trace(rel.apply(x))) <= 1e-12

    def test_matches_ball_on_deviatoric_plane(self):
        # restricted to a 2-dim trace-free subspace the relation is a ball
        # projection of the plane coordinates
        rng = np.random.default_rng(15)
        basis = deviatoric_basis()[:, :2]
        dev = DeviatoricSaturation(radius=0.9)
        ball = BallSaturation(2, radius=0.9)
        for _ in range(100):
            c = rng.standard_normal(2) * 2
            x6 = basis @ c
            out6 = dev.apply(x6)
            assert np.allclose(basis.T @ out6, ball.apply(c), atol=1e-13)
            r6 = dev.resolve(0.8, x6)
            assert np.allclose(basis.T @ r6, ball.resolve(0.8, c), atol=1e-13)

    def test_spherical_part_passes_through_resolvent(self):
        rel = DeviatoricSaturation(radius=1.0)
        y = np.array([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])  # purely spherical
        assert np.allclose(rel.resolve(0.5, y), y)
        assert np.allclose(mandel_dev(y), 0.0)


def test_relation_factory_names():
    assert isinstance(relation_from_config("zero", 3), ZeroRelation)
    assert isinstance(relation_from_config("soft_threshold", 2, weight=2.0), NormSubdifferential)
    assert isinstance(relation_from_config("ball_saturation", 2, radius=0.5), BallSaturation)
    assert isinstance(relation_from_config("deviatoric_saturation", 12), NodewiseRelation)
    lin = relation_from_config("linear", 2, gain=3.0)
    assert isinstance(lin, LinearRelation)
    with pytest.raises(ContractViolation):
        relation_from_config("nope", 2)
    with pytest.raises(ContractViolation, match="not both"):
        relation_from_config("linear", 2, matrix=np.eye(2), gain=3.0)
    for matrix in ([[1.0, 2.0, 3.0, 4.0]], np.eye(3)):  # the first was once read as 2x2
        with pytest.raises(ContractViolation, match="needs a 2x2 matrix"):
            relation_from_config("linear", 2, matrix=matrix)


def test_minty_scan_degrades_without_eval():
    from evinc.relations import MonotoneRelation, minty_scan

    class ResolventOnly(MonotoneRelation):
        # nonexpansive resolvent, no graph evaluation
        def __init__(self):
            self.dim = 2

        def resolve(self, lam, y):
            return np.asarray(y, dtype=float) / (1.0 + lam)

    rep = minty_scan(ResolventOnly(), 0.5, samples=200, radius=3.0, seed=5)
    assert not rep.inclusion_checked
    assert rep.inclusion_failures == 0
    assert rep.nonexpansive_failures == 0


# name -> (relation, slot start, nodes, node dim, deviatoric nodes, radii(lam))
# radii are the norms where the relation switches branch at parameter lam
PARITY_CASES = {
    "zero": (ZeroRelation(3), 0, 1, 3, False, lambda lam: ()),
    "linear": (LinearRelation([[2.0, 1.0], [-1.0, 0.5]]), 0, 1, 2, False, lambda lam: ()),
    "norm_subdifferential": (
        NormSubdifferential(3, weight=1.3), 0, 1, 3, False, lambda lam: (1.3 * lam,)
    ),
    "ball": (BallSaturation(2, radius=0.8), 0, 1, 2, False, lambda lam: (0.8, 0.8 * (1.0 + lam))),
    "deviatoric": (
        DeviatoricSaturation(radius=0.9), 0, 1, 6, True, lambda lam: (0.9, 0.9 * (1.0 + lam))
    ),
    "nodewise": (
        NodewiseRelation(DeviatoricSaturation(radius=0.9), 3), 0, 3, 6, True,
        lambda lam: (0.9, 0.9 * (1.0 + lam)),
    ),
    "slot": (
        SlotEmbedded(NormSubdifferential(5, weight=1.0), 2, 18, count=3), 2, 3, 5, False,
        lambda lam: (lam,),
    ),
    "yosida": (
        YosidaRelation(SlotEmbedded(BallSaturation(2, radius=0.7), 1, 6, count=2), 0.3),
        1, 2, 2, False, lambda lam: (0.7 * 1.3, 0.7 * (1.3 + lam)),
    ),
    # the two slab tails at m = 2: a vector evaluates on floats, a stack in numpy
    "thermoplastic_slot": (
        SlotEmbedded(DeviatoricSaturation(radius=0.9), 6, 22, count=2), 6, 2, 6, True,
        lambda lam: (0.9, 0.9 * (1.0 + lam)),
    ),
    "viscoplastic_slot": (
        SlotEmbedded(NormSubdifferential(5, weight=1.0), 6, 28, count=2), 6, 2, 5, False,
        lambda lam: (lam,),
    ),
    # a slot above the cut keeps numpy's block call for a vector too
    "wide_slot": (
        SlotEmbedded(DeviatoricSaturation(radius=0.9), 4, 12 + FLOAT_ENTRIES, count=FLOAT_ENTRIES // 6 + 1),
        4, FLOAT_ENTRIES // 6 + 1, 6, True, lambda lam: (0.9, 0.9 * (1.0 + lam)),
    ),
    # a vector reaches the base's float path, a stack its array form
    "yosida_soft": (
        YosidaRelation(NormSubdifferential(1, weight=1.3), 0.4), 0, 1, 1, False,
        lambda lam: (1.3 * 0.4, 1.3 * (0.4 + lam)),
    ),
    "yosida_ball": (
        YosidaRelation(BallSaturation(2, radius=0.8), 0.3), 0, 1, 2, False,
        lambda lam: (0.8 * 1.3, 0.8 * (1.3 + lam)),
    ),
}


def _parity_rows(name, lam, kinds, seed):
    """Rows whose nodes are zero, all -0.0, deep inside, on a branch radius or random."""
    rel, start, count, node_dim, deviatoric, radii = PARITY_CASES[name]
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(kinds), rel.dim)) * rng.uniform(0.01, 5.0)
    edges = radii(lam) or (1.0,)
    for i, row_kinds in enumerate(kinds):
        for j, kind in enumerate(row_kinds[:count]):
            node = rows[i, start + j * node_dim : start + (j + 1) * node_dim]
            part = mandel_dev(node) if deviatoric else node
            if kind == "zero":
                node[:] = 0.0
            elif kind == "negzero":
                node[:] = -0.0
            elif kind in ("inside", "edge"):
                target = 1e-3 * min(edges) if kind == "inside" else edges[j % len(edges)]
                scaled = part * (target / np.linalg.norm(part))
                node[:] = scaled + node[0] * TRACE_VECTOR if deviatoric else scaled
    return rows


def _assert_rows_match(name, lam, kinds, seed):
    rel = PARITY_CASES[name][0]
    ys = _parity_rows(name, lam, kinds, seed)
    forms = [lambda y: rel.resolve(lam, y)]
    if rel.single_valued:
        forms.append(rel.apply)
    for evaluate in forms:
        rows = [evaluate(y).tobytes() for y in ys]
        out = evaluate(ys)
        assert out.shape == ys.shape
        assert [row.tobytes() for row in out] == rows
        out = evaluate(np.stack([ys, ys[::-1]]))
        assert out.shape == (2, *ys.shape)
        assert [row.tobytes() for row in out.reshape(ys.shape[0] * 2, -1)] == rows + rows[::-1]


class TestBlockParity:
    """Every evaluation on a (rows, dim) or (2, rows, dim) stack gives row i the
    bits of that evaluation on row i alone."""

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(sorted(PARITY_CASES)),
        lam=st.floats(0.01, 3.0),
        kinds=st.lists(
            st.lists(st.sampled_from(["zero", "negzero", "inside", "edge", "random"]), min_size=3, max_size=3),
            min_size=1, max_size=16,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_vector_forms(self, name, lam, kinds, seed):
        _assert_rows_match(name, lam, kinds, seed)

    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_many_seeded_rows(self, name):
        # a last-bit disagreement shows on a few rows in a hundred, so look at many
        rng = np.random.default_rng(sorted(PARITY_CASES).index(name))
        kinds = rng.choice(["zero", "negzero", "inside", "edge", "random"], size=(400, 3))
        _assert_rows_match(name, float(rng.uniform(0.01, 3.0)), kinds.tolist(), 7)

    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_non_finite_rows_stay_non_finite(self, name):
        rel = PARITY_CASES[name][0]
        ys = np.ones((3, rel.dim))
        col = max(rel.dim - 2, 0)  # inside every slot
        ys[1, col] = np.nan
        ys[2, col] = np.inf
        with np.errstate(invalid="ignore"):
            pairs = [(rel.resolve(0.5, ys), lambda y: rel.resolve(0.5, y))]
            if rel.single_valued:
                pairs.append((rel.apply(ys), rel.apply))
            for block, vector in pairs:
                for y, row in zip(ys, block):
                    assert np.array_equal(row, vector(y), equal_nan=True)

    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_overflowing_rows_match(self, name):
        # squares overflow to inf, in numpy and on floats alike, without an exception
        rel = PARITY_CASES[name][0]
        ys = np.full((2, rel.dim), 1e200)
        ys[1, ::2] = -1e300
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = [(rel.resolve(0.5, ys), lambda y: rel.resolve(0.5, y))]
            if rel.single_valued:
                pairs.append((rel.apply(ys), rel.apply))
            for block, vector in pairs:
                for y, row in zip(ys, block):
                    assert np.array_equal(row, vector(y), equal_nan=True)

    def test_slot_evaluates_its_nodes_in_one_block_call(self):
        calls = []

        class Counting(BallSaturation):
            def resolve(self, lam, ys):
                calls.append(np.shape(ys))
                return super().resolve(lam, ys)

            def _floats(self, y, lam):
                calls.append(len(y))
                return super()._floats(y, lam)

        # one vector below the cut: its nodes on floats, no block call
        emb = SlotEmbedded(Counting(2, radius=0.5), 1, 8, count=3)
        out = emb.resolve(0.4, np.arange(8.0))
        assert calls == [2, 2, 2]
        assert out[0] == 0.0 and out[7] == 7.0
        # above the cut: one block call
        count = FLOAT_ENTRIES // 2 + 1
        wide = SlotEmbedded(Counting(2, radius=0.5), 1, 2 * count + 2, count=count)
        calls.clear()
        wide.resolve(0.4, np.arange(2.0 * count + 2))
        assert calls == [(count, 2)]
        emb.resolve(0.4, np.ones((5, 8)))
        assert calls[-1] == (15, 2)

    def test_slot_keeps_a_base_override_for_one_vector(self):
        # a base class that overrides apply but not _floats: its apply, not the
        # float path, evaluates a vector's nodes, in one block call
        calls = []

        class Logged(BallSaturation):
            def apply(self, x):
                calls.append(np.shape(x))
                return super().apply(x)

        emb = SlotEmbedded(Logged(2, radius=0.5), 1, 8, count=3)
        x = np.arange(8.0)
        assert np.array_equal(emb.apply(x), SlotEmbedded(BallSaturation(2, radius=0.5), 1, 8, count=3).apply(x))
        assert calls == [(3, 2)]

    def test_every_relation_class_has_a_parity_case(self):
        def subclasses(cls):
            return [c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))]

        # these resolve row by row by iteration, each row to its own tolerance
        exempt = {StructuredSum, _LipschitzPerturbedSum}
        concrete = {c for c in subclasses(MonotoneRelation) if c.__module__ == "evinc.relations"}
        covered = {type(case[0]) for case in PARITY_CASES.values()}
        assert concrete - exempt - covered == set()


def _slab_tail(name):
    from evinc.catalog import make_catalog_problem

    return make_catalog_problem(name, n=3).relation.split()[1]


# bases whose Yosida surrogates the march stacks with a lambda column: every
# parity case, both slab tails and the two sums that resolve row by row
COLUMN_BASES = {
    **{name: case[0] for name, case in PARITY_CASES.items()},
    "thermoplastic_tail": _slab_tail("thermoplastic_slab"),
    "viscoplastic_tail": _slab_tail("viscoplastic_slab"),
    "structured_sum": StructuredSum(np.array([[0.0, 2.0], [-2.0, 0.0]]), BallSaturation(2, radius=0.7)),
    "perturbed_sum": sum_with_lipschitz(NormSubdifferential(2), lambda u: 0.5 * u, 0.5),
}


def _column_rows(name, lams, gammas, seed):
    """One row per (lam, gamma): on a branch radius of resolve(lam + gamma), inside, zero or random."""
    base = COLUMN_BASES[name]
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["zero", "negzero", "inside", "edge", "random"], size=(len(lams), 3)).tolist()
    if name not in PARITY_CASES:
        rows = rng.standard_normal((len(lams), base.dim)) * rng.uniform(0.01, 5.0, (len(lams), 1))
        rows[[k[0] == "zero" for k in kinds]] = 0.0
        return rows
    return np.concatenate([
        _parity_rows(name, lam + gamma, [kind], seed + i)
        for i, (lam, gamma, kind) in enumerate(zip(lams, gammas, kinds))
    ])


class TestLambdaColumn:
    """A (rows, dim) stack at a (rows, 1) column of lambda (and gamma) gives row i
    the bits of the same evaluation on row i alone at lam[i] (and gamma[i])."""

    @pytest.mark.parametrize("name", sorted(COLUMN_BASES))
    def test_stacked_yosida_rows_are_solo_bits(self, name):
        base = COLUMN_BASES[name]
        rng = np.random.default_rng(sorted(COLUMN_BASES).index(name))
        rows = 40 if name.endswith("sum") else 200
        # the march's lambdas, 1 down to 1e-6, and gammas around the engines' steps
        lams = 0.5 ** rng.integers(0, 21, rows).astype(float)
        gammas = 10.0 ** rng.uniform(-3, -0.05, rows)  # lam + gamma < 2 = 1/Lip(B) of perturbed_sum
        ys = _column_rows(name, lams, gammas, 11)
        stacked = YosidaRelation(base, lams[:, None])
        resolved = stacked.resolve(gammas[:, None], ys)
        applied = stacked.apply(ys)
        assert resolved.shape == applied.shape == ys.shape
        for lam, gamma, y, res, app in zip(lams, gammas, ys, resolved, applied):
            alone = YosidaRelation(base, lam)
            assert res.tobytes() == alone.resolve(gamma, y).tobytes()
            assert app.tobytes() == alone.apply(y).tobytes()

    @pytest.mark.parametrize("name", sorted(COLUMN_BASES))
    def test_stacked_base_rows_are_solo_bits(self, name):
        base = COLUMN_BASES[name]
        rng = np.random.default_rng([sorted(COLUMN_BASES).index(name), 1])
        lams = 10.0 ** rng.uniform(-6, 0.25, 40 if name.endswith("sum") else 200)
        ys = _column_rows(name, lams, np.zeros_like(lams), 12)
        out = base.resolve(lams[:, None], ys)
        for lam, y, row in zip(lams, ys, out):
            assert row.tobytes() == base.resolve(lam, y).tobytes()

    @pytest.mark.parametrize("bad", [[[0.5], [0.0]], [[0.5], [np.nan]], [[np.inf]], np.zeros((0, 1))])
    def test_a_lam_column_must_be_finite_and_positive(self, bad):
        with pytest.raises(ContractViolation, match="lam column"):
            YosidaRelation(BallSaturation(2), np.array(bad, dtype=float))


class TestShapeContract:
    def test_relation_without_resolve_is_not_implemented(self):
        class Bare(MonotoneRelation):
            dim = 2

        with pytest.raises(NotImplementedError):
            Bare().resolve(0.5, np.ones(2))

    def test_set_valued_relation_has_no_apply(self):
        with pytest.raises(NotImplementedError, match="not single-valued"):
            NormSubdifferential(2).apply(np.ones(2))

    def test_iterative_sums_resolve_stacks_row_by_row(self):
        rels = [
            StructuredSum(np.array([[0.0, 2.0], [-2.0, 0.0]]), BallSaturation(2, radius=0.7)),
            sum_with_lipschitz(NormSubdifferential(2), lambda u: 0.5 * u, 0.5),
        ]
        ys = np.random.default_rng(3).standard_normal((2, 3, 2)) * 3
        for rel in rels:
            out = rel.resolve(0.4, ys)
            assert out.shape == ys.shape
            for y, row in zip(ys.reshape(-1, 2), out.reshape(-1, 2)):
                assert row.tobytes() == rel.resolve(0.4, y).tobytes()
