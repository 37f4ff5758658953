"""Oracle trajectories pinned bit for bit: one sha256 per case, recorded before a rewrite.

Each digest covers ``oracle_trajectory(...).values`` of the case's five
forcings, ``random_forcing`` seeded 0 to 4, in order. The unit forcings leave
the saturation ball alone; thirty times them saturate it. The ramp is the
set-valued sign ramp of ``TestOracle.test_sign_ramp_exact``.
"""

import hashlib

import numpy as np
import pytest

from evinc.catalog import make_catalog_problem
from evinc.harness import oracle_trajectory, random_forcing

SEEDS = range(5)

# (template, forcing scale, sha256 over seeds 0-4 at n = 400)
PINNED = [
    ("scalar_ode", 1.0, "25e08ca9dd2029c1eca48d5c6de90b0e005135a0e1a279086452f8987865f4c5"),
    ("degenerate_plane", 1.0, "90ddbe74f056dc3cecad4daa742d618acad00ca0407ff0f5821954dbb70c18bc"),
    ("sign_scalar", 1.0, "1b48e6c8b06d191fac5ae8e9362ae7fd135767c5b59588515f507756a528fafb"),
    ("saturation_plane", 1.0, "127a56f64bd65fb0a6edfffe2730ed99a472c24eb760e427d9ff086813daee5c"),
    ("saturation_plane", 30.0, "6c4536db4b60a346f745de773611402eb97f731923caff5cb00d08b37e85c0f2"),
]
RAMP = "2135805e437e4820f022ca6c1404ab89e1849fc61daab2887b271ff76c66d701"


def _forcings(tpl, scale):
    return [tpl.signal(scale * random_forcing(tpl, np.random.default_rng(s)).values) for s in SEEDS]


def _digest(name, scale):
    tpl = make_catalog_problem(name, n=400)
    h = hashlib.sha256()
    for f in _forcings(tpl, scale):
        h.update(oracle_trajectory(tpl, f).values.tobytes())
    return h.hexdigest()


def _ramp_digest():
    tpl = make_catalog_problem("sign_scalar", n=2001, dt=1e-3)
    t = tpl.grid.times
    f = tpl.signal(np.where((t >= 0) & (t < 1), 2.0, 0.0)[:, None])
    return hashlib.sha256(oracle_trajectory(tpl, f).values.tobytes()).hexdigest()


@pytest.mark.parametrize("name, scale, expected", PINNED, ids=[f"{p[0]}-x{p[1]:g}" for p in PINNED])
def test_oracle_trajectory_pinned(name, scale, expected):
    assert _digest(name, scale) == expected


def test_sign_ramp_pinned():
    assert _ramp_digest() == RAMP


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_pinned_oracle.py prints each case, its pin and the digest
    # it computes now, marking the pins that moved: the tool of a deliberate re-record.
    # It exits 1 when any pin moved, so a change that must keep its bits checks by exit code.
    cases = [(f"{name} x{scale:g}", expected, lambda name=name, scale=scale: _digest(name, scale))
             for name, scale, expected in PINNED] + [("sign ramp", RAMP, _ramp_digest)]
    any_moved = False
    for label, expected, digest in cases:
        now = digest()
        any_moved |= now != expected
        print(f"{label:22} pin {expected} now {now}{'' if now == expected else '  MOVED'}")
    raise SystemExit(1 if any_moved else 0)
