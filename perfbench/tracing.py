"""Layer spans around calls into evinc's public functions, and their totals.

``Instrumentation`` swaps each listed function, in every evinc module that
binds it, and the ``resolve``/``apply`` methods of every relation class for
wrappers that record a span (name, start, end, parent) in a ``Tracer``; on
exit it puts the originals back. Nothing in ``src/`` changes. Spans stay in
memory, in flat arrays, until the run writes them out.

Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

FUNCTIONS = (
    ("evinc.solver", "solve", "solver.solve"),
    ("evinc.solver", "lipschitz_certificate", "solver.lipschitz_certificate"),
    ("evinc.materials", "rho_zero", "materials.admission"),
    ("evinc.materials", "dt_max", "materials.admission"),
    ("evinc.materials", "step_operator", "materials.step_operator"),
    ("evinc.signals", "weighted_norm", "signals.weighted_norm"),
    ("evinc.signals", "write_signal_csv", "signals.csv_write"),
    ("evinc.harness", "run_campaign", "harness.run_campaign"),
    ("evinc.harness", "random_forcing", "harness.random_forcing"),
    ("evinc.harness", "oracle_trajectory", "harness.oracle"),
    ("evinc.harness", "monotonicity_margin", "harness.monotonicity"),
    ("evinc.catalog", "make_catalog_problem", "catalog.template_build"),
    ("evinc.gallery", "build_thermoplasticity", "gallery.model_build"),
    ("evinc.gallery", "build_viscoplasticity", "gallery.model_build"),
    ("evinc.config", "load_config", "config.load"),
    ("evinc.cli", "main", "cli.main"),
)
METHODS = (("evinc.config", "RunConfig", "build_problem", "config.build_problem"),)
RELATION_METHODS = {
    "resolve": "relations.resolve",
    "resolve_block": "relations.resolve",
    "apply": "relations.apply",
    "apply_block": "relations.apply",
}

#: per-layer metrics in output order: name -> unit
LAYER_METRICS = {
    "solver.iterations_per_node": "iter/node",
    "solver.us_per_iteration": "us",
    "solver.marches": "count",
    "solver.nodes": "count",
    "solver.self_ms": "ms",
    "solver.solve_calls": "count",
    "relations.resolve_calls": "count",
    "relations.apply_calls": "count",
    "relations.resolve_ms": "ms",
    "relations.apply_ms": "ms",
    "relations.nested_calls_per_call": "calls/call",
    "materials.admission_ms": "ms",
    "materials.step_operator_calls": "count",
    "materials.step_operator_ms": "ms",
    "signals.weighted_norm_calls": "count",
    "signals.weighted_norm_ms": "ms",
    "harness.oracle_ms": "ms",
    "harness.monotonicity_ms": "ms",
    "harness.self_ms": "ms",
    "catalog.template_build_ms": "ms",
    "gallery.model_build_ms": "ms",
    "cli.import_ms": "ms",
    "config.load_ms": "ms",
    "config.build_problem_ms": "ms",
    "signals.csv_write_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans in flat arrays; ids are indices, -1 is the root."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        #: solve span id -> (mode, nodes per march, marches, reported iterations)
        self.solves = {}
        #: (kind, first span id, end span id) for set-up repetitions and passes
        self.segments = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    @contextlib.contextmanager
    def segment(self, kind):
        lo = len(self.name)
        try:
            yield
        finally:
            self.segments.append((kind, lo, len(self.name)))

    def save(self, path):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            segments=np.array([(lo, hi) for _, lo, hi in self.segments], dtype=np.int64).reshape(-1, 2),
            segment_kinds=np.array([kind for kind, _, _ in self.segments]),
        )


def _wrap(tracer, fn, name):
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    traced.__wrapped__ = fn
    return traced


def _wrap_solve(tracer, fn):
    nid = tracer.name_id("solver.solve")

    def traced(problem):
        i = tracer.open(nid)
        try:
            report = fn(problem)
        finally:
            tracer.close(i)
        marches = max(len(report.lambda_trace), 1)
        tracer.solves[i] = (problem.mode, problem.forcing.grid.n, marches, sum(report.per_step_iterations))
        return report

    traced.__wrapped__ = fn
    return traced


def _relation_classes(base):
    out = [base]
    for sub in base.__subclasses__():
        out.extend(_relation_classes(sub))
    return out


class Instrumentation:
    """Context manager that installs the span wrappers; the evinc modules must be imported."""

    def __init__(self, tracer):
        modules = [m for n, m in sys.modules.items() if n == "evinc" or n.startswith("evinc.")]
        self.patches = []  # (owner, attribute, original, wrapper)
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = _wrap_solve(tracer, original) if name == "solver.solve" else _wrap(tracer, original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, key, original, wrapper))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self.patches.append((cls, attr, original, _wrap(tracer, original, name)))
        for cls in _relation_classes(sys.modules["evinc.relations"].MonotoneRelation):
            for attr, name in RELATION_METHODS.items():
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    self.patches.append((cls, attr, original, _wrap(tracer, original, name)))

    def __enter__(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)
        return False


def layer_metrics(tracer):
    """Per-layer figures from the spans.

    Counts come from the first pass and repeat exactly for a seed. Times are
    the median over passes of each pass's total; the build and import times
    are medians over the set-up repetitions or passes in which they occur.
    """
    import numpy as np

    names = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(names))
    self_time = dur - child
    parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)

    def mask(*span_names):
        ids = [tracer._ids[n] for n in span_names if n in tracer._ids]
        return np.isin(names, ids)

    rel = mask("relations.resolve", "relations.apply")
    rel_ids = [tracer._ids[n] for n in ("relations.resolve", "relations.apply") if n in tracer._ids]
    outer_rel = rel & ~np.isin(parent_name, rel_ids)
    adm = mask("materials.admission")
    outer_adm = adm & (parent_name != tracer._ids.get("materials.admission", -2))
    solver_spans = mask("solver.solve", "solver.lipschitz_certificate")
    harness_spans = mask("harness.run_campaign", "harness.random_forcing", "harness.oracle", "harness.monotonicity")
    solve_spans = mask("solver.solve")
    # inner iterations per solve: the reported counts in direct mode; on the
    # Yosida path the report keeps only the last stage, so count the outermost
    # relation calls made from the solve, less the one image evaluation per
    # node and stage that the stage norms take
    rel_from = np.bincount(parent[outer_rel & has_parent], minlength=len(names))

    def iterations(i):
        mode, n, marches, reported = tracer.solves[i]
        return reported if mode == "direct" else int(rel_from[i]) - n * marches

    passes = [(lo, hi) for kind, lo, hi in tracer.segments if kind == "pass"]
    sums = {
        "solver.self_ms": (solver_spans, self_time),
        "relations.resolve_ms": (outer_rel & mask("relations.resolve"), dur),
        "relations.apply_ms": (outer_rel & mask("relations.apply"), dur),
        "materials.admission_ms": (outer_adm, dur),
        "materials.step_operator_ms": (mask("materials.step_operator"), dur),
        "signals.weighted_norm_ms": (mask("signals.weighted_norm"), dur),
        "harness.oracle_ms": (mask("harness.oracle"), dur),
        "harness.monotonicity_ms": (mask("harness.monotonicity"), dur),
        "harness.self_ms": (harness_spans, self_time),
        "config.load_ms": (mask("config.load"), dur),
        "config.build_problem_ms": (mask("config.build_problem"), dur),
        "signals.csv_write_ms": (mask("signals.csv_write"), dur),
    }
    out = {}
    for key, (m, values) in sums.items():
        out[key] = float(np.median([1e3 * values[lo:hi][m[lo:hi]].sum() for lo, hi in passes]))
    for key, span in (
        ("catalog.template_build_ms", "catalog.template_build"),
        ("gallery.model_build_ms", "gallery.model_build"),
        ("cli.import_ms", "cli.import"),
    ):
        m = mask(span)
        totals = [1e3 * dur[lo:hi][m[lo:hi]].sum() for _, lo, hi in tracer.segments if m[lo:hi].any()]
        out[key] = float(np.median(totals)) if totals else 0.0

    per_pass_us = []
    for lo, hi in passes:
        ids = np.flatnonzero(solve_spans[lo:hi]) + lo
        its = sum(iterations(i) for i in ids)
        per_pass_us.append(1e6 * dur[ids].sum() / its if its else 0.0)
    out["solver.us_per_iteration"] = float(np.median(per_pass_us))

    lo, hi = passes[0]
    first = np.flatnonzero(solve_spans[lo:hi]) + lo
    nodes = sum(tracer.solves[i][1] * tracer.solves[i][2] for i in first)
    outer = int(outer_rel[lo:hi].sum())
    out["solver.iterations_per_node"] = sum(iterations(i) for i in first) / nodes if nodes else 0.0
    out["solver.marches"] = sum(tracer.solves[i][2] for i in first)
    out["solver.nodes"] = nodes
    out["solver.solve_calls"] = len(first)
    out["relations.resolve_calls"] = int((outer_rel & mask("relations.resolve"))[lo:hi].sum())
    out["relations.apply_calls"] = int((outer_rel & mask("relations.apply"))[lo:hi].sum())
    out["relations.nested_calls_per_call"] = int((rel & ~outer_rel)[lo:hi].sum()) / outer if outer else 0.0
    out["materials.step_operator_calls"] = int(mask("materials.step_operator")[lo:hi].sum())
    out["signals.weighted_norm_calls"] = int(mask("signals.weighted_norm")[lo:hi].sum())
    return out
