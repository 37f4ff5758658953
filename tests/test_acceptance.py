"""Acceptance suite: every quantitative guarantee at its stated tolerance.

One pass/fail line prints per test (run with -s or -rA to see them all).
Criterion 01 measures the weighted-integral norm against its exact value
sigma_T(rho) on the stated horizon-10 window, not against the half-line
value 1/rho: at rho = 1, 2, 5 sigma_T is 0.961381, 0.494493, 0.199622, and
the computed norm sits 0.05%, 0.10%, 0.25% above it (rectangle-rule bias of
about dt/2). Against 1/rho the window alone costs 3.86% at rho = 1, more than
the 2% gate, so no correct computation met the old comparison. Tier-1 has no
known red.

Criteria 03-08 are the campaign's check rows. Each entry of ``CRITERIA``
names a ``harness.CHECKS`` row, a campaign seed, a trial count and its
templates; it becomes the test ``test_criterion_<num>_<title>``, which runs
the row on each template through ``run_campaign`` at ``fp_tol = 1e-10``,
needs every trial to pass and prints the worst margin per template. Within
one criterion every template gets the same trial seeds. A new row becomes a
criterion by adding one entry, and a row without one fails
``test_criteria_run_every_check_row``.
"""

import numpy as np
import pytest

from evinc.calculus import integrate_operator_norm
from evinc.catalog import CatalogProblem, make_catalog_problem
from evinc.gallery import SlabGrid, build_slab_operators, raw_viscoplastic_block
from evinc.harness import CHECKS, PropertyCampaign, oracle_trajectory, random_forcing, run_campaign
from evinc.materials import rho_zero, sinusoidal_family
from evinc.relations import (
    BallSaturation,
    DeviatoricSaturation,
    LinearRelation,
    NormSubdifferential,
    ZeroRelation,
)
from evinc.signals import TimeGrid
from evinc.solver import solve, solve_batch
from evinc.tensors import deviatoric_basis
from window_norm import window_integral_norm

FP_TOL = 1e-10


def report(num, name, ok, detail):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# shared templates at acceptance scale -------------------------------------


SMALL = ("scalar_ode", "degenerate_plane", "sign_scalar", "saturation_plane")
SLABS = ("thermoplastic_slab", "viscoplastic_slab")


def _templates():
    return ([make_catalog_problem(name, n=400) for name in SMALL]
            + [make_catalog_problem(name, n=81) for name in SLABS])


def _relation_suite():
    rng = np.random.default_rng(1234)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    psd = q @ np.diag([0.3, 1.0, 2.5]) @ q.T
    return [
        ("zero", ZeroRelation(3)),
        ("linear_psd", LinearRelation(0.5 * (psd + psd.T))),
        ("soft_threshold", NormSubdifferential(3, weight=1.0)),
        ("ball_saturation", BallSaturation(3, radius=1.0)),
        ("deviatoric_saturation", DeviatoricSaturation(radius=1.0)),
    ]


# 1 ---------------------------------------------------------------------------


@pytest.mark.parametrize("rho", [1.0, 2.0, 5.0])
def test_criterion_01_inverse_derivative_norm(rho):
    grid = TimeGrid(0.0, 1e-3, 10_001)  # horizon 10
    nrm = integrate_operator_norm(grid, rho)
    exact = window_integral_norm(rho, grid.horizon)
    rel_dev = abs(nrm - exact) / exact
    window_deficit = abs(nrm - 1.0 / rho) * rho
    ok = rel_dev <= 0.02
    report(1, f"integrate norm, rho={rho:g}", ok,
           f"|J|={nrm:.6f}, sigma_T={exact:.6f}, deviation {rel_dev:.2%} vs 2%; "
           f"1/rho={1/rho:.6f}, off by {window_deficit:.2%}")
    assert ok


# 2 ---------------------------------------------------------------------------


def test_criterion_02_resolvent_yosida_suite():
    rng = np.random.default_rng(20_240_001)
    n_pairs = 10_000
    worst_slack = 0.0
    worst_ratio_gap = 0.0
    bit_ok = True
    for name, rel in _relation_suite():
        dim = rel.dim
        for lam in (0.5, 2.0):
            xs = rng.standard_normal((n_pairs, dim)) * 3.0
            ys = rng.standard_normal((n_pairs, dim)) * 3.0
            rx = rel.resolve(lam, xs)
            ry = rel.resolve(lam, ys)
            gaps = np.linalg.norm(xs - ys, axis=1)
            slack = np.max(np.linalg.norm(rx - ry, axis=1) - gaps)
            worst_slack = max(worst_slack, slack)
            zx = (xs - rx) / lam
            zy = (ys - ry) / lam
            znorm = np.linalg.norm(zx - zy, axis=1)
            mask = gaps > 0
            ratio_gap = np.max(znorm[mask] / gaps[mask] - (1.0 / lam + 1e-9))
            worst_ratio_gap = max(worst_ratio_gap, ratio_gap)
            # power-of-two lam: the identity lam*yosida == y - resolvent is exact
            bit_ok = bit_ok and np.array_equal(lam * zy, ys - ry)
    ok = worst_slack <= 1e-12 and worst_ratio_gap <= 0.0 and bit_ok
    report(2, "resolvent/yosida suite", ok,
           f"nonexpansive slack {worst_slack:.2e}, lipschitz gap {worst_ratio_gap:.2e}, "
           f"identity bit-exact {bit_ok}")
    assert ok


# 3-8: the campaign's check rows ---------------------------------------------


def _sinusoidal_degenerate():
    fam = sinusoidal_family(
        np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), amplitude=0.3, frequency=2.0
    )
    return CatalogProblem(name="sinusoidal_degenerate", family=fam, relation=ZeroRelation(2),
                          grid=TimeGrid(0.0, 1e-3, 400), c_tilde=0.5, rho=rho_zero(fam, 0.5) + 0.5)


#: (criterion, title) -> (the CHECKS row it runs, campaign seed, trials per template,
#: a function that builds the templates)
CRITERIA = {
    (3, "solution_operator_lipschitz"): ("lipschitz", 20_240_003, 100, _templates),
    (4, "causality"): ("causality", 20_240_004, 50, _templates),
    (5, "weight_independence"): ("rho_independence", 20_240_005, 1, _templates),
    (6, "monotonicity_bound"): (
        "monotonicity_bound", 20_240_006, 100, lambda: _templates() + [_sinusoidal_degenerate()]
    ),
    (7, "oracle_equivalence"): (
        "oracle_match", 20_240_007, 5, lambda: [make_catalog_problem(name, n=500) for name in SMALL]
    ),
    (8, "yosida_path"): ("yosida_agreement", 20_240_008, 1, _templates),
}


def _row_criterion(num, check, seed, trials, templates):
    """The test of criterion ``num``: the row ``check`` run as a campaign on each template."""

    def test():
        worst, failed = [], []
        for tpl in templates():
            campaign = PropertyCampaign(tpl, trials, seed, checks=(check,), fp_tol=FP_TOL)
            rep = run_campaign(campaign)
            worst.append(f"{tpl.name}: {rep.summary()[check]['worst_margin']:.6g}")
            if not rep.passed:
                failed.append(rep.to_text())  # its failing seeds replay with replay_check
        report(num, f"{check}, trials {trials}, worst margin", not failed, "; ".join(worst))
        assert not failed, "\n".join(failed)

    return test


# one test per entry, test_criterion_<num>_<title>
globals().update({f"test_criterion_{num:02d}_{title}": _row_criterion(num, *row)
                  for (num, title), row in CRITERIA.items()})


def test_criteria_run_every_check_row():
    # a CHECKS row added without a criterion fails here
    assert sorted(check for check, *_ in CRITERIA.values()) == sorted(CHECKS)


def test_criterion_07_saturation_and_ramp():
    tol = 10.0 * FP_TOL
    # unit forcings never leave the saturation ball; thirty times them saturate it
    rng = np.random.default_rng(20_240_007)
    tpl = make_catalog_problem("saturation_plane", n=500)
    forcings = [tpl.signal(30.0 * random_forcing(tpl, rng).values) for _ in range(5)]
    worst, saturated = 0.0, 0
    for f, rep in zip(forcings, solve_batch(tpl.problem(f, fp_tol=FP_TOL) for f in forcings)):
        ref = oracle_trajectory(tpl, f)
        worst = max(worst, float(np.max(np.abs(rep.solution.values - ref.values))))
        saturated += int(np.sum(np.linalg.norm(ref.values, axis=1) > tpl.relation.radius))
    ok = worst <= tol and saturated > 0
    summary = [f"saturation_plane x30: {worst:.2e}, {saturated} saturated nodes"]
    # the set-valued ramp: slope +1 up, -1 down, then rest
    tpl = make_catalog_problem("sign_scalar", n=3001, dt=1e-3)
    t = tpl.grid.times
    f = tpl.signal(np.where((t >= 0) & (t < 1), 2.0, 0.0)[:, None])
    rep = solve(tpl.problem(f, fp_tol=FP_TOL))
    ref = oracle_trajectory(tpl, f)
    gap = float(np.max(np.abs(rep.solution.values - ref.values)))
    exact = np.where(t < 1.0, np.clip(t, 0, None), np.clip(2.0 - t, 0.0, None))
    shape_err = float(np.max(np.abs(ref.values[:, 0] - exact)))
    ok = ok and gap <= tol and shape_err <= 5e-3
    summary.append(f"ramp: solver-vs-oracle {gap:.2e}, vs exact {shape_err:.2e}")
    report(7, "oracle at saturation and on the ramp", ok, "; ".join(summary))
    assert ok


# 9 ---------------------------------------------------------------------------


def test_criterion_09_gallery_structure():
    ops = build_slab_operators(SlabGrid(m=8, dx=0.25))
    adj1 = float(np.linalg.norm(ops.div + ops.grad_c.T, 2))
    adj2 = float(np.linalg.norm(ops.Div + ops.Grad_c.T, 2))
    thermo = make_catalog_problem("thermoplastic_slab", n=10).meta["model"]
    skew = float(np.linalg.norm(thermo.skew_block + thermo.skew_block.T, 2))
    rng = np.random.default_rng(20_240_009)
    _, tail = thermo.relation.split()
    t_lo, t_hi = thermo.slots["T"]
    trace_defect = 0.0
    for _ in range(100):
        x = rng.standard_normal(thermo.dim) * 3
        out = tail.apply(x)
        traces = out[t_lo:t_hi].reshape(-1, 6)[:, :3].sum(axis=1)
        trace_defect = max(trace_defect, float(np.max(np.abs(traces))))
    basis = deviatoric_basis()[:, :4]
    good = raw_viscoplastic_block(0.8, 1.2, basis)
    bad = raw_viscoplastic_block(-0.5, 1.2, basis)
    iff_ok = (np.min(np.linalg.eigvalsh(good)) > 0) and (np.min(np.linalg.eigvalsh(bad)) < 0)
    ok = adj1 <= 1e-12 and adj2 <= 1e-12 and skew <= 1e-12 and trace_defect <= 1e-12 and iff_ok
    report(9, "slab structure", ok,
           f"adjointness {max(adj1, adj2):.2e}, skew {skew:.2e}, "
           f"trace-free {trace_defect:.2e}, positivity iff {iff_ok}")
    assert ok


# 10 --------------------------------------------------------------------------


def test_criterion_10_convergence_smoke():
    errs = {}
    for dt in (1e-3, 5e-4):
        n = int(round(5.0 / dt)) + 1
        tpl = make_catalog_problem("scalar_ode", n=n, dt=dt)
        f = tpl.signal(np.ones((n, 1)))
        rep = solve(tpl.problem(f, fp_tol=FP_TOL))
        exact = 1.0 - np.exp(-tpl.grid.times)
        errs[dt] = float(np.max(np.abs(rep.solution.values[:, 0] - exact)))
    ratio = errs[1e-3] / errs[5e-4]
    ok = errs[1e-3] <= 5e-3 and 1.5 <= ratio <= 2.5
    report(10, "convergence smoke", ok,
           f"err(1e-3)={errs[1e-3]:.2e}<=5e-3, halving ratio {ratio:.2f} in [1.5,2.5]")
    assert ok
