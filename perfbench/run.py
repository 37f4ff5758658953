"""Benchmark of evinc: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload slab_direct --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads: slab_direct, slab_yosida, lowdim_campaign, cli_configs
(see perfbench/README.md). With ``--trace 0`` the run reports the end-to-end
metrics ``setup_s``, ``peak_rss_mb`` and ``pass_s``; with ``--trace 1`` it
runs half the time untraced and the same passes again with layer spans, and
reports the per-layer metrics and the tracing overhead. ``correct`` is false
when any operation failed, or when the traced half's outputs are not bitwise
equal to the untraced half's. Exit code 2 means the directory is not an
evinc checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("slab_direct", "slab_yosida", "lowdim_campaign", "cli_configs")
SETUP_PROBES = 7

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread limits, which BLAS reads at import)


class _Clip:
    def apply(self, x):
        return np.clip(x, -0.5, 0.5)


class _Wrap:
    def __init__(self, inner):
        self.inner = inner

    def apply(self, x):
        return self.inner.apply(x)


class Gauge:
    """A fixed piece of work, timed to read how fast the host runs right now.

    The host slows every process by 1.3-1.8x for seconds to minutes at a
    time. Each timed operation is divided by the median of gauge readings
    taken just before and just after it, and multiplied by the gauge's
    reference time, which gives the operation's time at reference speed.
    The median of readings on both sides follows the slowdown that an
    operation of 5-500 ms sees; the best reading before it catches brief
    fast moments and under-corrects.

    The gauge mirrors the kind of work it corrects, since the slowdown
    differs by kind. Work in process is gauged by a forward-backward
    iteration at dim 22 through two wrapper calls, small numpy operations
    with Python dispatch in between, like the solver's inner loop. Work in
    fresh processes is gauged by starting ``python -c pass``. Neither runs
    evinc code, so a change to evinc does not move them.
    """

    #: median readings on a 2-core Xeon VM at 2.1 GHz when it runs at full speed
    REFERENCE_S = {"inprocess": 0.00064, "spawn": 0.045}
    DIM = 22
    ITERATIONS = 80

    def __init__(self, kind):
        self.kind = kind
        self.reference = self.REFERENCE_S[kind]
        rng = np.random.default_rng(0)
        a = 0.05 * rng.standard_normal((self.DIM, self.DIM))
        self.inv = np.linalg.inv(np.eye(self.DIM) + 0.5 * (a + a.T + 2.0 * np.eye(self.DIM)))
        self.b = rng.standard_normal(self.DIM)
        self.tail = _Wrap(_Wrap(_Clip()))

    def _once(self):
        t0 = time.perf_counter()
        if self.kind == "spawn":
            subprocess.run([sys.executable, "-c", "pass"], check=True)
        else:
            u = np.zeros(self.DIM)
            for _ in range(self.ITERATIONS):
                u_new = self.inv @ (u - 0.5 * self.tail.apply(u) + 0.5 * self.b)
                float(np.linalg.norm(u_new - u))
                u = u_new
        return time.perf_counter() - t0

    def readings(self):
        return [self._once() for _ in range(3)]

    def scale(self, seconds, readings):
        """``seconds`` measured between gauge ``readings``, at reference speed."""
        return seconds * self.reference / statistics.median(readings)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the one the gauge reads."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def setup_seconds(args, root, gauge):
    """Median over fresh processes that only set the workload up, at reference speed."""
    if args.workload == "cli_configs":
        cmd = [sys.executable, "-c", "import evinc.cli"]
    else:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        readings = gauge.readings()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True)
        elapsed = time.perf_counter() - t0
        times.append(gauge.scale(elapsed, readings + gauge.readings()))
    return statistics.median(times)


def run_passes(workload, first, gauge, seconds=None, count=None, instrument=None, tracer=None):
    """Whole passes until ``seconds`` have gone by, or exactly ``count`` passes.

    Returns one dict per pass: attempted and failed operations, operations
    whose output bytes differ from ``first`` (label -> bytes of the first
    pass, filled in here), and per label the operation's wall time and the
    gauge readings taken just before and after it. Output checks are not
    timed.
    """
    deadline = None if seconds is None else time.perf_counter() + seconds
    passes = []
    while True:
        record = {"attempted": 0, "failed": 0, "unstable": 0, "ops": {}, "gauge": {}}
        with tracer.segment("pass") if tracer else contextlib.nullcontext():
            for label, fn in workload.ops():
                readings = record["gauge"][label] = gauge.readings()
                try:
                    with instrument or contextlib.nullcontext():
                        t0 = time.perf_counter()
                        result = fn()
                        elapsed = time.perf_counter() - t0
                    readings += gauge.readings()
                    attempted, failed, fingerprint = workload.verify(label, result)
                except Exception:  # an operation that raises counts as failed
                    traceback.print_exc()
                    attempted, failed, fingerprint, elapsed = 1, 1, None, 0.0
                if first.setdefault(label, fingerprint) != fingerprint:
                    print(f"{label}: outputs differ from the first pass", file=sys.stderr)
                    record["unstable"] += 1
                    failed = max(failed, 1)
                record["attempted"] += attempted
                record["failed"] += failed
                record["ops"][label] = elapsed
        passes.append(record)
        if (count is not None and len(passes) >= count) or (deadline is not None and time.perf_counter() >= deadline):
            return passes


def pass_seconds(passes, gauge):
    """Sum over the pass's operations of each one's median time at reference speed."""
    return sum(
        statistics.median(gauge.scale(p["ops"][label], p["gauge"][label]) for p in passes)
        for label in passes[0]["ops"]
    )


def summarize(name, passes, gauge):
    """Per-operation medians, wall time and at reference speed, on standard error."""
    parts = []
    for label in passes[0]["ops"]:
        wall = statistics.median(p["ops"][label] for p in passes)
        ref = statistics.median(gauge.scale(p["ops"][label], p["gauge"][label]) for p in passes)
        parts.append(f"{label} {1e3 * wall:.1f} ({1e3 * ref:.1f}) ms")
    speed = statistics.median(g for p in passes for r in p["gauge"].values() for g in r)
    print(f"{name}: {len(passes)} passes, median gauge {1e3 * speed:.2f} ms; "
          "median per operation, wall (reference speed): " + ", ".join(parts), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description="evinc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "evinc" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("run from the root of an evinc checkout (src/evinc and configs/ not found)", file=sys.stderr)
        return 2
    src = str(root / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    pin_to_one_cpu()

    if args.trace:
        return traced_run(args, root)
    if args.setup_probe:
        from workloads import WORKLOADS as CLASSES

        workload = CLASSES[args.workload](args.seed, root)
        workload.setup()
        return 0

    setup_s = setup_seconds(args, root, Gauge("spawn"))
    from workloads import WORKLOADS as CLASSES

    workload = CLASSES[args.workload](args.seed, root)
    workload.setup()
    gauge = Gauge("spawn" if args.workload == "cli_configs" else "inprocess")
    passes = run_passes(workload, {}, gauge, seconds=args.seconds)
    summarize(args.workload, passes, gauge)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_configs" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "pass_s": (pass_seconds(passes, gauge), "s"),
    }
    emit(passes, metrics)
    return 0


def traced_run(args, root):
    import tracing

    tracer = tracing.Tracer()
    cli = args.workload == "cli_configs"
    # every traced run imports the CLI, whose layer the wrappers also cover
    with tracer.segment("import"), tracer.span("cli.import"):
        import evinc.cli  # noqa: F401
    from workloads import WORKLOADS as CLASSES

    workload = CLASSES[args.workload](args.seed, root, in_process=cli)
    instrument = tracing.Instrumentation(tracer)
    for _ in range(3):
        with tracer.segment("setup"), instrument:
            workload.setup()
    first = {}
    gauge = Gauge("inprocess")  # the traced CLI runs in process too
    plain = run_passes(workload, first, gauge, seconds=args.seconds / 2.0)
    traced = run_passes(workload, first, gauge, count=len(plain), instrument=instrument, tracer=tracer)
    summarize(args.workload + " (untraced)", plain, gauge)
    summarize(args.workload + " (traced)", traced, gauge)
    # the wrappers must not change a single bit of any output
    same = not any(p["unstable"] for p in traced)
    layers = tracing.layer_metrics(tracer)
    overhead = pass_seconds(traced, gauge) / pass_seconds(plain, gauge)
    layers["trace.overhead_pct"] = 100.0 * (overhead - 1.0)
    out = root / ".bench_out" / "trace"
    out.mkdir(parents=True, exist_ok=True)
    tracer.save(out / f"{args.workload}-seed{args.seed}.npz")
    metrics = {k: (layers[k], unit) for k, unit in tracing.LAYER_METRICS.items()}
    emit(plain + traced, metrics, same)
    return 0


def emit(passes, metrics, same=True):
    """The result line; ``correct`` needs every check passed and, traced, equal outputs."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "correct": bool(same and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
