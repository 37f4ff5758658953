"""Solutions pinned bit for bit: one sha256 per solve, recorded before a refactor.

Each digest covers the solution values, the per-node iteration counts, the
reported ``max_residual`` and the Yosida path's ``lambda_trace``, so a change
that alters any answer, iteration count or stage norm in the last bit fails
here. The forcing is ``random_forcing`` seeded by the case's index.

Four digests were re-recorded on purpose: the Yosida path of ``scalar_ode``,
``degenerate_plane``, ``moving_scalar_ode`` and ``moving_degenerate_plane``.
Their relations have no tail, so the path marches one stage, not 21 copies
of it, and ``per_step_iterations`` reads 1 per node instead of 21. Nothing
else moved: each new report, its counts multiplied by 21, hashes to the old
pin. The four ``moving_*_slab`` digests were re-recorded when the slab
claims came to be read off the coefficients' bounds: ``rho`` follows the
claims, and ``random_forcing`` scales by the weighted norm. The old forcing
values solved on the new templates (at the old ``rho`` and reference bound
on the Yosida path) hash to the old pins. Two direct digests were
re-recorded when Douglas-Rachford nodes began to take semismooth Newton
candidates through a ``resolve_jacobian``: ``viscoplastic_slab`` and
``moving_viscoplastic_slab``, the only pinned marches with Douglas-Rachford
nodes on a tail with that hook (a slot of the norm subdifferential; the bare
one of ``moving_sign_plane`` has none). Their nodes stop on the same
splitting gap in about a third of the evaluations, so the answers move
within the stop tolerance, closer to a tight-tolerance solve.
``PYTHONPATH=src python tests/test_pinned_solutions.py`` prints every
case, its pin and the digest it computes now, marking the pins that moved.
"""

import hashlib

import numpy as np
import pytest

from evinc.catalog import CatalogProblem, make_catalog_problem
from evinc.gallery import Coefficient, SlabGrid, build_thermoplasticity, build_viscoplasticity
from evinc.harness import random_forcing
from evinc.materials import sinusoidal_family
from evinc.relations import BallSaturation, LinearRelation, NormSubdifferential, ZeroRelation
from evinc.signals import TimeGrid
from evinc.solver import solve, yosida_reference_bound

# (template, n, mode, sha256)
PINNED = [
    ("scalar_ode", 60, "direct", "426d28d345aa778efd5c80edf5c8e876a3667604978badf409134d98ab9aebfe"),
    ("scalar_ode", 60, "yosida_path", "59ac1ea99f0500056e2fc8852e21d1b6e58c60fd7be7459bb259222b7b995a26"),
    ("degenerate_plane", 60, "direct", "cf874a8ba8a3c94a315e7c996c0a7f18a65d9d245e7ffd3d3e7809c6ed784486"),
    ("degenerate_plane", 60, "yosida_path", "89292af31ab27246d71323065892a96a4297c6334a79dd3af38a76a13575cc8f"),
    ("sign_scalar", 60, "direct", "8a7a4ed0ab6205f7826084de87da99b1d0f70f2c1d155b41aea10111a38371f5"),
    ("sign_scalar", 60, "yosida_path", "de6578ac9ed009c529a35ea7108bd9d95b7e7e62563f5a78d3d683d355e57c6e"),
    ("saturation_plane", 60, "direct", "6df7c6b03df90115df3238784c093569a34412c1fda73ff09695bd882ad02bdf"),
    ("saturation_plane", 60, "yosida_path", "9655f69c39d40b4bbdd657d2429a96464c98a0c70dfbdba01d7892db05be6eab"),
    ("thermoplastic_slab", 21, "direct", "b05f0c7994c4608465a4167cf43d5d5f270a3806985b03171dd8844d72de332f"),
    ("thermoplastic_slab", 21, "yosida_path", "c84fa81b05095b8ef4aa0d2575094a373781b56d6c1622257547533ba027de5e"),
    ("viscoplastic_slab", 21, "direct", "514e2de876f7f0fd885529f3f715eebe69a0ebb6767b992663404662edfaa694"),
    ("viscoplastic_slab", 21, "yosida_path", "ea1aa8555b1c0268a3d4cedeb1a43e359720e9363a0d888e95f688e4c4daf2a4"),
]
TEMPLATES = list(dict.fromkeys(name for name, *_ in PINNED))


def _digest(rep, bound=None):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(rep.solution.values, dtype=np.float64).tobytes())
    h.update(np.asarray(rep.per_step_iterations, dtype=np.int64).tobytes())
    h.update(float(rep.max_residual).hex().encode())
    for lam, norm in rep.lambda_trace:
        h.update(float(lam).hex().encode() + float(norm).hex().encode())
    if bound is not None:
        h.update(float(bound).hex().encode())
    return h.hexdigest()


def _pinned_digest(name, n, mode):
    tpl = make_catalog_problem(name, n=n)
    f = random_forcing(tpl, np.random.default_rng(TEMPLATES.index(name)))
    rep = solve(tpl.problem(f, mode=mode))
    assert rep.converged
    return _digest(rep)


@pytest.mark.parametrize("name, n, mode, expected", PINNED, ids=[f"{p[0]}-{p[2]}" for p in PINNED])
def test_solution_digest(name, n, mode, expected):
    assert _pinned_digest(name, n, mode) == expected


SLAB_CASES = [p for p in PINNED if p[0].endswith("_slab")]


@pytest.mark.parametrize("name, n, mode, expected", SLAB_CASES, ids=[f"{p[0]}-{p[2]}" for p in SLAB_CASES])
def test_slab_digest_without_the_solve_wrapper(monkeypatch, name, n, mode, expected):
    # the one-member Anderson step calls numpy's LAPACK gufunc directly; a
    # slab solve routed back through np.linalg.solve fails here
    def wrapper(*args, **kwargs):
        raise AssertionError("np.linalg.solve reached from a slab solve")

    monkeypatch.setattr(np.linalg, "solve", wrapper)
    assert _pinned_digest(name, n, mode) == expected


# Moving (non-autonomous) families, pinned before the march's planning moved
# out of its node loop. The planes move as sinusoidal_family(amplitude=0.5,
# frequency=8.0); the slabs move M and kappa, or M and D. Between them they
# reach every engine (direct, the two forward-backward forms and
# Douglas-Rachford), and n = 60 and n = 21 run past more than one planning
# block. These digests also cover the Yosida path's reference bound,
# ``yosida_reference_bound`` of the problem.


def _moving_plane(m0, m1, relation):
    def template(name, grid):
        family = sinusoidal_family(m0, m1, amplitude=0.5, frequency=8.0)
        return CatalogProblem.admissible(name, family, relation, grid)

    return template


def _moving_slab(build, **coefficients):
    def template(name, grid):
        model = build(SlabGrid(), **coefficients)
        return CatalogProblem.admissible(name, model.family, model.relation, grid)

    return template


MOVING_TEMPLATES = {
    "moving_scalar_ode": _moving_plane([[1.0]], [[0.0]], LinearRelation([[1.0]])),
    "moving_degenerate_plane": _moving_plane(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), ZeroRelation(2)),
    "moving_sign_scalar": _moving_plane([[1.0]], [[0.0]], NormSubdifferential(1)),
    "moving_saturation_plane": _moving_plane(np.eye(2), np.zeros((2, 2)), BallSaturation(2)),
    "moving_sign_plane": _moving_plane(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), NormSubdifferential(2)),
    "moving_thermoplastic_slab": _moving_slab(
        build_thermoplasticity, M=Coefficient(1.0, 0.3, 2.0), kappa=Coefficient(1.0, 0.4, 0.5)
    ),
    "moving_viscoplastic_slab": _moving_slab(
        build_viscoplasticity, M=Coefficient(1.0, 0.3, 2.0), D=Coefficient(1.0, 0.3, 1.0)
    ),
}

# (template, n, mode, sha256)
MOVING_PINNED = [
    ("moving_scalar_ode", 60, "direct", "ddb11871937a88fb5178e08f4b80ba66561b084ae04a47f73401a7c81e315e44"),
    ("moving_scalar_ode", 60, "yosida_path", "a20be388e358a4f641be0a78014bf0427925fb457a21c2dc9e302f62d60b8e80"),
    ("moving_degenerate_plane", 60, "direct", "a1a6879b228f89e81bddb17244c778f7298f72d338811e8de7e1412e68d4b574"),
    ("moving_degenerate_plane", 60, "yosida_path", "2f83ee02dc258ee0afd7eefbfb5968953a7955625b4f645efa0ad09fad061c40"),
    ("moving_sign_scalar", 60, "direct", "93589d505949c5e647f04c77821850bbf8496390503c00b0453b87ed2b86787f"),
    ("moving_sign_scalar", 60, "yosida_path", "4eb033e63946a8a1a1d9d963a776064c1ce97bd2474b66bf08e0fd594e47ad9e"),
    ("moving_saturation_plane", 60, "direct", "2e8b30ed101ddbe65db06803883f3a9c834b9f943bc3f0c2e211c8c17b34f887"),
    ("moving_saturation_plane", 60, "yosida_path", "529630846c8574094812b15930accc96f1755790da37ee628809bc90e546b635"),
    ("moving_sign_plane", 60, "direct", "8f72fa31397ccd5771de7e845f9200169fe79a296aa4095901a13e1c1807234a"),
    ("moving_sign_plane", 60, "yosida_path", "6b1618f21ed7eb8da2cc92134f34aa1ed0b196fbbb4ce51fe35edb1078806149"),
    ("moving_thermoplastic_slab", 21, "direct", "5ce284a2c870d02327b28e8c122ffad6d935317554b2bf4f3953767ee6cc7e9f"),
    ("moving_thermoplastic_slab", 21, "yosida_path", "bc20568712162c7856fe85842536cc8e5f6ed0ea307d20395702c99cd907e5a5"),
    ("moving_viscoplastic_slab", 21, "direct", "cc7c3827dae7f9788bf30c9f2ece3d44feacc54fd05e619f73b66e6959d955d1"),
    ("moving_viscoplastic_slab", 21, "yosida_path", "58322a31e8123e7aaada2b90b444afe1360dbc4c936b849823825885c422731e"),
]


def _moving_digest(name, n, mode):
    tpl = MOVING_TEMPLATES[name](name, TimeGrid(t0=0.0, dt=1e-3, n=n))
    f = random_forcing(tpl, np.random.default_rng(list(MOVING_TEMPLATES).index(name)))
    problem = tpl.problem(f, mode=mode)
    rep = solve(problem)
    assert rep.converged
    return _digest(rep, yosida_reference_bound(problem) if mode == "yosida_path" else None)


@pytest.mark.parametrize(
    "name, n, mode, expected", MOVING_PINNED, ids=[f"{p[0]}-{p[2]}" for p in MOVING_PINNED]
)
def test_moving_solution_digest(name, n, mode, expected):
    assert _moving_digest(name, n, mode) == expected


# Direct thermoplastic solves on refined slabs, on either side of the number of
# slot entries up to which a one-vector relation call runs on Python floats:
# m = 8 (48 entries, the cut) evaluates on floats, m = 16 (96 entries) on numpy.
# The forcing is scaled so that the flow relation saturates at 79 % (m = 8) and
# 51 % (m = 16) of the tail nodes: both branches of the ball are reached.
# Recorded before the float path was written.
REFINED_PINNED = [
    (8, 21, "direct", "f7c90a4eaa2447ce7fb9bebba92089d388459dd50e3c91ff91c9bd6eca3be1f7"),
    (16, 21, "direct", "8b2b9196947caac37e0c6c15bc2446ea485f941de272f30c402861a31075774f"),
]


def _refined_digest(m, n, mode):
    model = build_thermoplasticity(SlabGrid(m=m, dx=1.0 / m))
    tpl = CatalogProblem.admissible(f"thermoplastic_m{m}", model.family, model.relation,
                                    TimeGrid(t0=0.0, dt=1e-3, n=n))
    f = random_forcing(tpl, np.random.default_rng(m))
    rep = solve(tpl.problem(tpl.signal(300.0 * f.values), mode=mode))
    assert rep.converged
    return _digest(rep)


@pytest.mark.parametrize("m, n, mode, expected", REFINED_PINNED, ids=[f"m{p[0]}-{p[2]}" for p in REFINED_PINNED])
def test_refined_slab_digest(m, n, mode, expected):
    assert _refined_digest(m, n, mode) == expected


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_pinned_solutions.py prints each case, its pin and the
    # digest it computes now, marking the pins that moved: the tool of a deliberate re-record.
    # It exits 1 when any pin moved, so a change that must keep its bits checks by exit code.
    any_moved = False
    for cases, digest in ((PINNED, _pinned_digest), (MOVING_PINNED, _moving_digest),
                          (REFINED_PINNED, _refined_digest)):
        for name, n, mode, expected in cases:
            now = digest(name, n, mode)
            any_moved |= now != expected
            print(f"{name:27} {mode:11} pin {expected} now {now}{'' if now == expected else '  MOVED'}")
    raise SystemExit(1 if any_moved else 0)
