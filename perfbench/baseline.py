"""Direct-solve figures for the six catalog templates at acceptance scale.

    python3 perfbench/baseline.py

Run from the root of a checkout. For each template it prints the median wall
time of a direct solve over ``REPEATS`` unit-norm forcings made from ``SEED``, the
engine's iterations per node and, for the slabs, the marches of one Yosida
path. The README's reference table comes from this script.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SEED = 0
REPEATS = 5
TEMPLATES = (
    ("scalar_ode", 400),
    ("degenerate_plane", 400),
    ("sign_scalar", 400),
    ("saturation_plane", 400),
    ("thermoplastic_slab", 81),
    ("viscoplastic_slab", 81),
)


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy as np
    from evinc.catalog import make_catalog_problem
    from evinc.solver import solve

    import reference as ref

    print(f"python {platform.python_version()}, numpy {np.__version__}, {platform.machine()}, {os.cpu_count()} cpus")
    print("| template | n | dim | time | iterations per node | Yosida marches |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name, n in TEMPLATES:
        tpl = make_catalog_problem(name, n=n)
        times, iters = [], []
        for i in range(REPEATS):
            values = ref.unit_forcing(np.random.default_rng([SEED, i]), n, tpl.dim, tpl.grid.t0, tpl.grid.dt, tpl.rho)
            t0 = time.perf_counter()
            report = solve(tpl.problem(tpl.signal(values)))
            times.append(time.perf_counter() - t0)
            iters.append(np.mean(report.per_step_iterations))
        marches = "-"
        if name.endswith("_slab"):
            marches = len(solve(tpl.problem(tpl.signal(values), mode="yosida_path")).lambda_trace)
        print(f"| `{name}` | {n} | {tpl.dim} | {1e3 * statistics.median(times):.1f} ms "
              f"| {statistics.mean(iters):.2f} | {marches} |")


if __name__ == "__main__":
    main()
