"""The shared fixed-point kernel: stop rules, safeguard, determinism, slab rates, stacked form."""

import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import evinc.fixed_point
from evinc.catalog import make_catalog_problem
from evinc.fixed_point import (
    BUDGET,
    CONVERGED,
    DIVERGING,
    MEMORY,
    NONFINITE,
    PATIENCE,
    RIDGE,
    STALLED,
    _mix,
    _mix_stack,
    _solve,
    _solve1,
    fixed_point,
    fixed_point_stack,
    sq_norms,
)
from evinc.signals import weighted_norm
from evinc.solver import solve


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _logged(f):
    """Map G(x) -> (f(x), f(x)) that records every point it is evaluated at."""
    points = []

    def G(x):
        points.append(x.copy())
        gx = f(x)
        return gx, gx

    return G, points


def test_affine_contraction_converges():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    M = q @ np.diag(np.linspace(0.0, 0.95, 10)) @ q.T
    c = rng.standard_normal(10)
    x_star = np.linalg.solve(np.eye(10) - M, c)
    out, it, res, reason = fixed_point(lambda x: (M @ x + c,) * 2, np.zeros(10), 1e-12, 1000)
    assert reason == CONVERGED
    assert res <= 1e-12
    assert np.linalg.norm(out - x_star) <= 1e-10
    # the plain iteration contracts at 0.95 and needs ~560 steps from here
    assert it <= 100


def test_first_evaluation_at_tolerance_returns_at_once():
    out, it, res, reason = fixed_point(lambda x: (x.copy(), "out"), np.ones(3), 1e-10, 5)
    assert (out, it, res, reason) == ("out", 1, 0.0, CONVERGED)


def test_safeguard_falls_back_on_soft_threshold():
    M = np.array([[-0.94, 0.03], [0.03, 0.94]])
    c = np.array([2.2, 2.0])
    x_star = np.array([1.0, 59.0 / 3.0])
    G, points = _logged(lambda x: _soft(M @ x + c, 0.85))
    out, it, res, reason = fixed_point(G, np.array([-7.0, -4.0]), 1e-12, 1000)
    assert reason == CONVERGED and res <= 1e-12
    assert np.linalg.norm(out - x_star) <= 1e-10
    assert it == len(points)
    residuals = [np.linalg.norm(_soft(M @ x + c, 0.85) - x) for x in points]
    # up to the first rise every evaluation was accepted, so the evaluation
    # that rose is a mixed candidate (mixing starts at the third); it must be
    # dropped, and the next evaluation is the plain step from the point before
    rises = [i for i in range(2, len(points) - 1) if residuals[i] >= residuals[i - 1]]
    assert rises
    i = rises[0]
    assert np.array_equal(points[i + 1], _soft(M @ points[i - 1] + c, 0.85))
    # the plain iteration contracts at 0.94 from this start
    assert it <= 20


def test_budget_exit():
    # G(x) = x + 1 has no fixed point: the residual stays at 1
    calls = []

    def G(x):
        calls.append(1)
        return x + 1.0, x + 1.0

    out, it, res, reason = fixed_point(G, np.zeros(2), 1e-10, 50)
    assert reason == BUDGET
    assert it == 50 == len(calls)
    assert res == pytest.approx(np.sqrt(2.0))


def test_divergence_guard():
    # a residual that grows by 3 % per evaluation wherever the map is
    # evaluated: every mixed candidate is dropped and the plain steps grow
    calls = []

    def G(x):
        calls.append(1)
        gx = x + 1.03 ** len(calls)
        return gx, gx

    out, it, res, reason = fixed_point(G, np.zeros(1), 1e-10, 10_000)
    assert reason == DIVERGING
    assert it == len(calls) < 200
    assert res > 10.0


@pytest.mark.parametrize("seed", range(5))
def test_noisy_contraction_is_not_diverging(seed):
    # a contraction whose every evaluation carries noise of size 1e-9 levels
    # off far above tol: its accepted residual never rises above the first
    rng = np.random.default_rng(seed)

    def G(x):
        gx = 0.5 * x + 1.0 + rng.normal(0.0, 1e-9, x.shape)
        return gx, gx

    out, it, res, reason = fixed_point(G, np.zeros(1), 1e-12, 200_000)
    assert reason in (STALLED, CONVERGED)
    assert abs(out[0] - 2.0) <= 1e-8


def test_stall_exit_on_constant_residual():
    # G(x) = x + 1 has no fixed point and every evaluation's residual is the
    # first one's: the stall exit ends the run long before the budget
    out, it, res, reason = fixed_point(lambda x: (x + 1.0,) * 2, np.zeros(2), 1e-10, 200_000)
    assert reason == STALLED
    assert it == PATIENCE + 1
    assert res == pytest.approx(np.sqrt(2.0))


def test_stall_exit_when_rounding_floors_the_residual():
    # the residual of this soft-threshold map levels off at rounding size,
    # far above a tolerance of 1e-30
    M = np.array([[-0.94, 0.03], [0.03, 0.94]])
    c = np.array([2.2, 2.0])

    def f(x):
        return _soft(M @ x + c, 0.85)

    G, points = _logged(f)
    out, it, res, reason = fixed_point(G, np.array([-7.0, -4.0]), 1e-30, 200_000)
    assert reason == STALLED
    assert it == len(points) < 300
    assert 0.0 < res <= 1e-15
    assert np.linalg.norm(out - np.array([1.0, 59.0 / 3.0])) <= 1e-10
    residuals = [np.sqrt((f(x) - x) @ (f(x) - x)) for x in points]
    # the least residual came PATIENCE evaluations before the last one
    assert int(np.argmin(residuals)) == it - 1 - PATIENCE


def test_nonfinite_exit_at_third_evaluation():
    calls = []

    def G(x):
        calls.append(1)
        gx = 0.5 * x + 1.0
        if len(calls) == 3:
            gx = gx * np.nan
        return gx, gx

    out, it, res, reason = fixed_point(G, np.zeros(2), 1e-12, 200_000)
    assert reason == NONFINITE
    assert it == 3 == len(calls)
    assert np.isnan(res)


def test_bitwise_deterministic():
    M = np.array([[-0.86, 0.27], [0.27, 0.86]])
    c = np.array([3.5, 0.25])

    def G(x):
        gx = _soft(M @ x + c, 0.85)
        return gx, gx

    runs = [fixed_point(G, np.array([-6.0, -9.5]), 1e-13, 1000) for _ in range(2)]
    assert runs[0][1:] == runs[1][1:]
    assert np.array_equal(runs[0][0], runs[1][0])


@pytest.mark.parametrize("name, gate", [("thermoplastic_slab", 10.0), ("viscoplastic_slab", 20.0)])
def test_slab_iterations_per_node(name, gate):
    # the plain iterations took 34.5 and 48.5 evaluations per node here
    tpl = make_catalog_problem(name, n=81)
    values = np.random.default_rng(0).standard_normal((tpl.grid.n, tpl.dim))
    f = tpl.signal(values)
    rep = solve(tpl.problem(tpl.signal(values / weighted_norm(f))))
    assert rep.converged
    assert np.mean(rep.per_step_iterations) <= gate


# ---------------------------------------------------------------------------
# the stacked kernel: numpy's stacked forms give each row its per-vector bits

DIMS = [1, 2, 22, 28, 88]
SIZES = [1, 7, 100]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("dim", DIMS)
def test_stacked_matmul_and_dot_are_per_vector_bits(dim, size):
    rng = np.random.default_rng([dim, size])
    A = rng.standard_normal((dim, dim))
    U = rng.standard_normal((size, dim))
    products = (A @ U[..., None])[..., 0]
    dots = sq_norms(U)
    for u, prod, dot in zip(U, products, dots):
        assert prod.tobytes() == (A @ u).tobytes()
        assert dot == u @ u
        assert sq_norms(u) == u @ u


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("dim", DIMS)
def test_stacked_solve_and_anderson_step_are_per_vector_bits(dim, size):
    rng = np.random.default_rng([dim, size, 1])
    for k in range(1, MEMORY + 1):
        gram = rng.standard_normal((size, k, k)) + 3.0 * np.eye(k)
        rhs = rng.standard_normal((size, k))
        stacked = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        gx, r = rng.standard_normal((2, size, dim))
        dg, dr = rng.standard_normal((2, size, k, dim))
        mixed = _mix_stack(gx, r, dg, dr)
        for i in range(size):
            assert stacked[i].tobytes() == np.linalg.solve(gram[i], rhs[i]).tobytes()
            assert mixed[i].tobytes() == _mix(gx[i], r[i], dg[i], dr[i]).tobytes()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("dim", DIMS)
def test_product_with_a_matrix_per_row_is_per_vector_bits(dim, size):
    # the march stacks cells of several nodes and stages, each row with its
    # own inverse, step matrix or M0: row i must get the bits of A[i] @ x[i]
    rng = np.random.default_rng([dim, size, 3])
    A = rng.standard_normal((size, dim, dim))
    X = rng.standard_normal((size, dim))
    products = (A @ X[..., None])[..., 0]
    for a, x, prod in zip(A, X, products):
        assert prod.tobytes() == (a @ x).tobytes()


def test_einsum_dot_is_not_the_per_vector_bits():
    # why every dot product in the stacked kernel is a matmul: einsum sums in
    # another order and misses the per-vector dot in the last bit
    rng = np.random.default_rng(0)
    U = rng.standard_normal((100, 22))
    assert np.array_equal(sq_norms(U), [u @ u for u in U])
    assert not np.array_equal(np.einsum("bi,bi->b", U, U), [u @ u for u in U])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("dim", DIMS)
def test_stacked_planning_calls_are_per_matrix_bits(dim, size):
    # the solver plans a block of nodes with one inv, eigvalsh and 2-norm
    # call each, and materials.measure_constants projects a stack of samples
    # onto a range basis (two-sided) and a kernel basis (right product) in one
    # call each; every node must get the bits of the calls on it alone
    rng = np.random.default_rng([dim, size, 2])
    mats = rng.standard_normal((size, dim, dim)) + dim * np.eye(dim)
    syms = 0.5 * (mats + mats.mT)
    invs = np.linalg.inv(mats)
    eigs = np.linalg.eigvalsh(syms)
    norms = np.linalg.norm(mats, 2, axis=(-2, -1))
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    rb, kb = basis[:, : (dim + 1) // 2], basis[:, (dim + 1) // 2:]
    on_range = rb.T @ syms @ rb
    on_kernel = mats @ kb
    for A, sym, inv, eig, nrm, r, k in zip(mats, syms, invs, eigs, norms, on_range, on_kernel):
        assert inv.tobytes() == np.linalg.inv(A).tobytes()
        assert eig.tobytes() == np.linalg.eigvalsh(sym).tobytes()
        assert float(nrm).hex() == float(np.linalg.norm(A, 2)).hex()
        assert r.tobytes() == (rb.T @ sym @ rb).tobytes()
        assert k.tobytes() == (A @ kb).tobytes()


def _exit_maps():
    """One map per exit of the kernel, all on the plane, each with its own call count."""
    M = np.array([[-0.94, 0.03], [0.03, 0.94]])
    c = np.array([2.2, 2.0])
    calls = [0] * 7

    def affine(x, i):  # converges; mixes and hits the safeguard (see above)
        return _soft(M @ x + c, 0.85)

    def shift(x, i):  # no fixed point: budget or stall
        return x + 1.0

    def growing(x, i):  # a residual that grows with every evaluation
        return x + 1.03 ** calls[i]

    def breaking(x, i):  # non-finite at its third evaluation
        return 0.5 * x + 1.0 if calls[i] != 3 else x * np.nan

    def fixed(x, i):  # at tolerance from the start
        return x.copy()

    def blowing(x, i):  # non-finite at its first evaluation
        return x * np.inf

    maps = [affine, shift, growing, breaking, fixed, affine, blowing]

    def G(X, rows=range(len(maps))):  # the whole stack, or the rows named
        gx = []
        for x, i in zip(X, rows):
            calls[i] += 1
            gx.append(maps[i](x, i))
        gx = np.array(gx)
        return gx, 2.0 * gx

    return G


@pytest.mark.parametrize("max_iter", [1, 2, 50, 200_000])
def test_stacked_kernel_gives_each_row_its_own_run(max_iter):
    # a mix of rows that converge, stall, run out of budget, diverge and turn
    # non-finite at different evaluations; each row leaves the stack at its
    # own exit with what fixed_point gives it alone
    X0 = np.array([[-7.0, -4.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [3.0, -1.0],
                   [1.0, 1.0]])
    out, its, res, reasons = fixed_point_stack(_exit_maps(), X0, 1e-12, max_iter)
    seen = set()
    for i, x0 in enumerate(X0):
        G = _exit_maps()
        alone = fixed_point(lambda x: tuple(a[0] for a in G(x[None], [i])), x0, 1e-12, max_iter)
        assert (its[i], res[i], reasons[i]) == alone[1:] or (
            np.isnan(res[i]) and np.isnan(alone[2]) and (its[i], reasons[i]) == (alone[1], alone[3])
        )
        assert out[i].tobytes() == alone[0].tobytes()
        seen.add(reasons[i])
    if max_iter == 200_000:
        assert seen == {CONVERGED, STALLED, DIVERGING, NONFINITE}
    if max_iter == 50:
        assert BUDGET in seen and CONVERGED in seen


def _tagged_rows(rates, shifts, seen):
    """Map G(X) -> (a X + c, tag) of rows x -> a_j x + c_j; it records every X it gets.

    The output of every row is the evaluation's number, counted per map, so
    an output taken from a later evaluation than the one it belongs to shows.
    """

    def G(X):
        seen.append(X.copy())
        return rates * X + shifts, np.full(X.shape, float(len(seen)))

    return G


def test_stacked_map_gets_the_whole_stack_and_exited_rows_at_their_start():
    # rows that exit at different evaluations: contractions at four rates, a
    # shift without a fixed point (budget) and a row at its fixed point (first
    # evaluation)
    X0 = np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 4.0], [2.0, 2.0], [0.0, 0.0], [5.0, 5.0]])
    rates = np.array([0.1, 0.5, 0.9, 0.99, 1.0, 0.0])[:, None]
    shifts = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0], [0.5, 0.5], [1.0, 1.0], [5.0, 5.0]])
    seen = []
    out, its, res, reasons = fixed_point_stack(_tagged_rows(rates, shifts, seen), X0, 1e-12, 40)
    assert reasons[4] == BUDGET and reasons[5] == CONVERGED and its[5] == 1
    assert len(set(its)) >= 4
    assert len(seen) == max(its) and all(X.shape == X0.shape for X in seen)
    for j, x0 in enumerate(X0):
        # from the evaluation after its exit on, a row is evaluated at its start
        assert all(X[j].tobytes() == x0.tobytes() for X in seen[its[j]:])
        alone = fixed_point(_tagged_rows(rates[j], shifts[j], []), x0, 1e-12, 40)
        assert out[j].tobytes() == alone[0].tobytes() and out[j, 0] <= its[j]
        assert (its[j], res[j], reasons[j]) == alone[1:]


@pytest.mark.parametrize("start, its", [
    ([0.5, 0.5], [1, 3, 3, 1]),  # only rows started at their fixed point exited before
    ([2.0, 2.0], [1, 3, 3, 2]),  # and a row that exited later, replayed off its fixed point
])
def test_stacked_rows_converging_together_after_others_exited_are_their_solo_runs(start, its):
    # rows at rate 0 exit at their first evaluation (started at their fixed
    # point) or their second; the rows at rates 0.5 and 0.3 then reach tol at
    # one evaluation, the third; each row gets what fixed_point gives it alone
    rates = np.array([0.0, 0.5, 0.3, 0.0])[:, None]
    shifts = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    X0 = np.array([[1.0, 2.0], [3.0, 0.5], [0.0, 0.0], start])
    out, got_its, res, reasons = fixed_point_stack(_tagged_rows(rates, shifts, []), X0, 1e-12, 40)
    assert got_its == its and set(reasons) == {CONVERGED}
    for j, x0 in enumerate(X0):
        alone = fixed_point(_tagged_rows(rates[j], shifts[j], []), x0, 1e-12, 40)
        assert out[j].tobytes() == alone[0].tobytes() and out[j, 0] == its[j]
        assert (got_its[j], res[j], reasons[j]) == alone[1:]


def _shift_rows(shifts, nan_at_second):
    """Map G(X) -> (C, 2 C) of rows x -> c_j; rows flagged give NaN at the second evaluation.

    A stack ``X`` takes every row of ``shifts``, a single row ``x`` the one
    row given; the NaN is put in, never computed, so the map raises no warning.
    """
    calls = []

    def G(X):
        calls.append(None)
        Y = np.broadcast_to(shifts, X.shape).copy()
        if len(calls) == 2:
            Y[nan_at_second] = np.nan
        return Y, 2.0 * Y

    return G


def test_row_turning_nan_as_the_others_reach_tol_exits_nonfinite():
    # every row maps to its shift, so all reach tol at the second evaluation,
    # where one row turns NaN instead: that row exits NONFINITE, the others
    # CONVERGED, each as fixed_point gives it alone
    shifts = np.array([[1.0, 2.0], [0.0, 1.0], [-3.0, 1.0]])
    nan_at_second = np.array([False, True, False])
    X0 = np.zeros((3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, its, res, reasons = fixed_point_stack(_shift_rows(shifts, nan_at_second), X0,
                                                   1e-12, 40)
        assert its == [2, 2, 2] and reasons == [CONVERGED, NONFINITE, CONVERGED]
        assert np.isnan(res[1]) and np.isnan(out[1]).all()
        for j, x0 in enumerate(X0):
            alone = fixed_point(_shift_rows(shifts[j], nan_at_second[j]), x0, 1e-12, 40)
            assert out[j].tobytes() == alone[0].tobytes()
            assert its[j] == alone[1] and reasons[j] == alone[3]
            assert res[j] == alone[2] or np.isnan(res[j]) and np.isnan(alone[2])


def test_stack_converging_at_its_second_evaluation_returns_that_output():
    # every row maps to its shift and reaches tol at the second evaluation:
    # the kernel returns that evaluation's OUT itself, as fixed_point returns
    # its map's output
    shifts = np.array([[1.0, 2.0], [0.0, 1.0], [-3.0, 1.0]])
    outs = []

    def G(X):
        outs.append(np.broadcast_to(-shifts, X.shape).copy())
        return np.broadcast_to(shifts, X.shape).copy(), outs[-1]

    out, its, res, reasons = fixed_point_stack(G, np.zeros((3, 2)), 1e-12, 40)
    assert len(outs) == 2 and out is outs[1]
    assert its == [2, 2, 2] and res == [0.0, 0.0, 0.0] and reasons == [CONVERGED] * 3


def test_empty_stack_returns_at_once():
    calls = []

    def G(X):
        calls.append(X.shape)
        assert len(calls) <= 5, "the kernel kept evaluating an empty stack"
        return 0.5 * X, X

    out, its, res, reasons = fixed_point_stack(G, np.empty((0, 3)), 1e-10, 5)
    assert out.shape == (0, 3)
    assert (its, res, reasons) == ([], [], [])
    assert len(calls) <= 1


def _soft_rows(M, C, T, blowing):
    """Map G(X) -> (GX, -GX) of rows x -> soft(M_j x + c_j, t_j), or +inf on a blowing row.

    A stack ``X`` takes one matrix per row (``M`` is ``(rows, dim, dim)``),
    a single row ``x`` the one ``M`` given; +inf is put in, never computed,
    so the map itself raises no warning.
    """

    def G(X):
        if X.ndim == 1:
            Y = _soft(M @ X + C, T)
        else:
            Y = _soft((M @ X[..., None])[..., 0] + C, T)
        Y = np.where(blowing, np.inf, Y)
        return Y, -Y

    return G


ROW = st.tuples(
    st.floats(0.0, 1.5),  # rate: contractions, and expansions Anderson may still solve
    st.floats(0.0, 2.0),  # soft threshold
    st.floats(0.0, 4.0),  # size of the shift
    st.sampled_from([0.0, 1.0, 10.0]),  # size of the start
    st.integers(0, 23).map(lambda v: v == 0),  # blowing: +inf from the first evaluation on
)


@settings(max_examples=100, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(
    rows=st.lists(ROW, min_size=1, max_size=24),
    dim=st.integers(1, 28),
    max_iter=st.integers(1, 80),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_rows_are_their_solo_runs(rows, dim, max_iter, tol, seed):
    # soft-thresholded affine maps at drawn rates leave the stack at staggered
    # evaluations, hit the safeguard and so hold different history lengths;
    # each row must get bit for bit what fixed_point gives it alone, with no
    # warning, while exited rows hold their start in the whole-stack mixes
    rng = np.random.default_rng(seed)
    rates, thresholds, shifts, starts, blowing = (np.array(v) for v in zip(*rows))
    qs = np.linalg.qr(rng.standard_normal((len(rows), dim, dim)))[0]
    M = rates[:, None, None] * (qs * np.linspace(-1.0, 1.0, dim)) @ qs.mT
    C = shifts[:, None] * rng.standard_normal((len(rows), dim))
    T = thresholds[:, None]
    X0 = starts[:, None] * rng.standard_normal((len(rows), dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, its, res, reasons = fixed_point_stack(
            _soft_rows(M, C, T, blowing[:, None]), X0, tol, max_iter)
        for j, x0 in enumerate(X0):
            alone = fixed_point(_soft_rows(M[j], C[j], T[j], blowing[j]), x0, tol, max_iter)
            assert out[j].tobytes() == alone[0].tobytes()
            assert (its[j], res[j], reasons[j]) == alone[1:]


def _ball_rows(M, C, T, radius):
    """``_soft_rows`` map that gives +inf on every row whose iterate is outside its ball.

    Row j's ball is ``|x| <= radius_j``, tested with ``sq_norms``, so a stack
    and a single row decide alike. The map is stateless: a row evaluated at
    its start again replays its first evaluation.
    """
    soft = _soft_rows(M, C, T, False)

    def G(X):
        Y = np.where((sq_norms(X) > radius * radius)[..., None], np.inf, soft(X)[0])
        return Y, -Y

    return G


BALL_ROW = st.tuples(
    st.floats(0.0, 5.0),  # rate: contractions, and expansions that diverge
    st.floats(0.0, 2.0),  # soft threshold
    st.floats(0.0, 4.0),  # size of the shift
    st.sampled_from([0.0, 1.0, 10.0]),  # size of the start
    st.one_of(st.floats(1.0, 100.0), st.just(np.inf)),  # radius of the ball
)


@settings(max_examples=80, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(
    rows=st.lists(BALL_ROW, min_size=2, max_size=16),
    dim=st.integers(1, 16),
    max_iter=st.integers(1, 80),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_rows_leaving_later_are_their_solo_runs(rows, dim, max_iter, tol, seed):
    # rows that leave their ball turn +inf, and expansions diverge, so rows
    # exit NONFINITE or DIVERGING at staggered evaluations while the others
    # go on mixing with several history lengths; each row must get bit for
    # bit what fixed_point gives it alone, with no warning
    rng = np.random.default_rng(seed)
    rates, thresholds, shifts, starts, radius = (np.array(v) for v in zip(*rows))
    qs = np.linalg.qr(rng.standard_normal((len(rows), dim, dim)))[0]
    M = rates[:, None, None] * (qs * np.linspace(-1.0, 1.0, dim)) @ qs.mT
    C = shifts[:, None] * rng.standard_normal((len(rows), dim))
    T = thresholds[:, None]
    X0 = starts[:, None] * rng.standard_normal((len(rows), dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, its, res, reasons = fixed_point_stack(_ball_rows(M, C, T, radius), X0, tol, max_iter)
        for j, x0 in enumerate(X0):
            alone = fixed_point(_ball_rows(M[j], C[j], T[j], radius[j]), x0, tol, max_iter)
            assert out[j].tobytes() == alone[0].tobytes()
            assert (its[j], res[j], reasons[j]) == alone[1:]


def test_stacked_kernel_mixes_the_whole_stack_per_history_length(monkeypatch):
    # rows at staggered rates, one refused by the safeguard, one that goes on
    # after it with another history length: every mix takes every row of the
    # stack, exited rows included, and some iterations mix once per length
    calls = []
    mix = evinc.fixed_point._mix_stack

    def counted(gx, r, dg, dr):
        calls[-1].append(len(gx))
        return mix(gx, r, dg, dr)

    monkeypatch.setattr(evinc.fixed_point, "_mix_stack", counted)
    M = np.array([[-0.94, 0.03], [0.03, 0.94]])
    rates = np.array([1.0, 0.2, 0.5, 0.8, 0.3])
    X0 = np.array([[-7.0, -4.0], [1.0, 1.0], [-2.0, 3.0], [0.5, -0.5], [10.0, -3.0]])
    Ms = rates[:, None, None] * M
    C = np.array([2.2, 2.0])
    G = _soft_rows(Ms, C, 0.85, False)

    def G_logged(X):  # one entry per evaluation: the _mix_stack calls before it
        calls.append([])
        return G(X)

    out, its, res, reasons = fixed_point_stack(G_logged, X0, 1e-12, 1000)
    assert len(set(its)) > 1 and set(reasons) == {CONVERGED}
    assert all(size == len(X0) for sizes in calls for size in sizes)
    assert any(len(sizes) > 1 for sizes in calls)
    for j, x0 in enumerate(X0):
        alone = fixed_point(_soft_rows(Ms[j], C, 0.85, False), x0, 1e-12, 1000)
        assert out[j].tobytes() == alone[0].tobytes()
        assert (its[j], res[j], reasons[j]) == alone[1:]


# ---------------------------------------------------------------------------
# the lean one-member step: the LAPACK gufunc behind np.linalg.solve, the
# list sum of the strided diagonal, and windows of the preallocated history
# give the bits of the wrapped, stacked step

NUMPY = f"numpy {np.__version__}"


def _mix_wrapped(gx, r, dgs, drs):
    """The Anderson step through np.linalg.solve and gram.trace(), on stacked lists."""
    dR = np.array(drs)
    gram = dR @ dR.T
    gram.flat[:: len(drs) + 1] += RIDGE * gram.trace() + 1e-300
    return gx - np.linalg.solve(gram, dR @ r) @ np.array(dgs)


@pytest.mark.parametrize("dim", DIMS)
def test_lean_step_is_the_wrapped_step_bits(dim):
    rng = np.random.default_rng([dim, 2])
    # the history as the kernel keeps it: written at pos, the latest entries
    # moved to the start once the buffer is used up, here twice
    dG, dR = np.empty((2, 2 * MEMORY, dim))
    dgs, drs = [], []
    pos = -1
    moves = 0
    for step in range(3 * MEMORY + 3):
        k = min(step + 1, MEMORY)
        pos += 1
        if pos == 2 * MEMORY:
            dG[: MEMORY - 1] = dG[MEMORY + 1 :]
            dR[: MEMORY - 1] = dR[MEMORY + 1 :]
            pos = MEMORY - 1
            moves += 1
        if step >= MEMORY:
            del dgs[0], drs[0]
        dg, dr = rng.standard_normal((2, dim))
        dG[pos], dR[pos] = dg, dr
        dgs.append(dg)
        drs.append(dr)
        window = slice(pos + 1 - k, pos + 1)
        gx, r = rng.standard_normal((2, dim))
        gram = dR[window] @ dR[window].T + k * np.eye(k)
        rhs = rng.standard_normal(k)
        assert _solve1(gram, rhs).tobytes() == np.linalg.solve(gram, rhs).tobytes(), (
            f"solve1 left the bits of np.linalg.solve at k={k} under {NUMPY}"
        )
        grams = rng.standard_normal((7, k, k)) + 3.0 * np.eye(k)
        rhss = rng.standard_normal((7, k, 1))
        assert _solve(grams, rhss).tobytes() == np.linalg.solve(grams, rhss).tobytes(), (
            f"the stacked solve left the bits of np.linalg.solve at k={k} under {NUMPY}"
        )
        for g in (gram, *grams):
            assert sum(g.ravel()[:: k + 1].tolist()) == g.trace(), (
                f"the strided diagonal's list sum left the bits of trace() at k={k} under {NUMPY}"
            )
        lean = _mix(gx, r, dG[window], dR[window])
        assert lean.tobytes() == _mix(gx, r, np.array(dgs), np.array(drs)).tobytes(), (
            f"_mix on a buffer window left its bits on fresh arrays at k={k} under {NUMPY}"
        )
        assert lean.tobytes() == _mix_wrapped(gx, r, dgs, drs).tobytes(), (
            f"_mix left the bits of the wrapped step at k={k} under {NUMPY}"
        )
    assert moves == 2


def _degenerate(kind, k, v):
    if kind == "zero":
        return np.zeros((k, len(v)))
    if kind == "some zero":
        return np.array([v if i % 2 == 0 else 0.0 * v for i in range(k)])
    return np.tile(v, (k, 1))  # repeated: rank one


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("kind", ["zero", "some zero", "repeated"])
@pytest.mark.parametrize("dim", DIMS)
def test_degenerate_histories_mix_quietly(dim, kind, scale):
    # with dG = the first rows of the identity and gx = 0 the mixed point is
    # minus the coefficients: they must come out finite, and the direct
    # gufunc call must raise no warning
    rng = np.random.default_rng([dim, 3])
    for k in range(1, MEMORY + 1):
        v, r = scale * rng.standard_normal((2, dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = _mix(np.zeros(dim), r, np.eye(k, dim), _degenerate(kind, k, v))
        assert np.all(np.isfinite(mixed)), f"{kind} history at k={k} under {NUMPY}"
