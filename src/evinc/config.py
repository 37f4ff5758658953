"""INI-style run configuration: one typed schema, strict keys, diffable files.

``_SCHEMA`` declares every (section, key) with its parser. ``load_config``
parses each value, from the file or from an override, once; unknown sections
or keys and malformed values are errors, so there are no silent typos.

A config uses one problem source: a catalog problem ([problem]), a custom
one ([material] with [relation]), or a slab model ([thermoplasticity] or
[viscoplasticity]); a section of a second source is an error. [grid],
[forcing], [solver] and [campaign] go with any source, and ``n``, ``dt`` and
``t0`` are read from [grid] over [problem].
"""

from __future__ import annotations

import configparser
import importlib
import math
import textwrap
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogProblem, catalog_names, make_catalog_problem
from .errors import ContractViolation
from .materials import Coefficient, constant_family, sinusoidal_family
from .relations import RELATION_KINDS, relation_from_config
from .signals import TimeGrid, WeightedSignal, read_signal_csv
from .solver import FP_TOL, InclusionProblem, default_lambda_schedule

__all__ = ["RunConfig", "load_config", "ConfigError", "config_help"]


class ConfigError(ContractViolation):
    """Malformed or inconsistent run configuration."""


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("a seed is a non-negative integer")
    return value


def _floats(text: str) -> list:
    return [_float(x) for x in text.split(",")]


def _vector(text: str) -> np.ndarray:
    return np.array(_floats(text))


def _matrix(text: str) -> np.ndarray:
    rows = [r for r in text.strip().split(";") if r.strip()]
    if not rows:
        raise ValueError("a matrix needs at least one row")
    return np.array([_floats(r) for r in rows])


def _coefficient(text: str) -> Coefficient:
    parts = _floats(text)
    if len(parts) > 3:
        raise ValueError("a coefficient is 1-3 comma-separated numbers")
    return Coefficient(*parts)


class _Choice:
    """One of ``names``; with ``many``, a comma-separated list of them.

    ``names`` is an iterable of names, or a callable that returns one when a
    value is parsed or the help is printed.
    """

    def __init__(self, names, many=False):
        self._names, self.many = names, many

    @property
    def names(self) -> tuple:
        return tuple(self._names() if callable(self._names) else self._names)

    def __call__(self, text: str):
        picked = [c.strip() for c in text.split(",") if c.strip()] if self.many else [text]
        for name in picked:
            if name not in self.names:
                raise ValueError(f"{name!r} is not one of {', '.join(self.names)}")
        return tuple(picked) if self.many else text


def _table(module: str, name: str):
    """Read the table ``name`` of ``module`` when called, importing the module only then."""
    return lambda: getattr(importlib.import_module(f".{module}", __package__), name)


_FAMILIES = {"constant": constant_family, "sinusoidal": sinusoidal_family}
#: slab source -> its builder in ``gallery``
_SLABS = {"thermoplasticity": "build_thermoplasticity", "viscoplasticity": "build_viscoplasticity"}
#: slab keys that the builders name otherwise
_SLAB_ARGS = {"relation": "relation_kind", "parameter": "relation_param"}
_GRID = {"n": int, "dt": _float, "t0": _float}
#: forcing kind -> the [forcing] keys it reads
_FORCING_KEYS = {
    "constant": ("value",),
    "window": ("value", "start", "stop"),
    "impulse": ("value", "start"),
    "random": ("seed",),
    "csv": ("path",),
}

_SCHEMA = {
    "problem": {"catalog": _Choice(catalog_names), **_GRID},
    "grid": dict(_GRID),
    "material": {
        "builder": _Choice(_FAMILIES), "m0": _matrix, "m1": _matrix,
        "amplitude": _float, "frequency": _float, "c0": _float, "c1": _float,
    },
    "relation": {
        "kind": _Choice(RELATION_KINDS),
        "weight": _float, "radius": _float, "gain": _float, "matrix": _matrix,
    },
    "forcing": {
        "kind": _Choice(_FORCING_KEYS),
        "value": _vector, "start": _float, "stop": _float, "path": str, "seed": _seed,
    },
    "solver": {
        "rho": _float, "c_tilde": _float, "mode": _Choice(("direct", "yosida_path")),
        "fp_tol": _float, "fp_max_iter": int,
        "lambda_start": _float, "lambda_stop": _float, "lambda_factor": _float,
    },
    "campaign": {
        "trials": int, "checks": _Choice(_table("harness", "CHECKS"), many=True), "seed": _seed,
    },
    "thermoplasticity": {
        "m": int, "dx": _float, "M": _coefficient, "C": _coefficient, "w": _coefficient,
        "kappa": _coefficient, "c": _float, "tau0": _float, "s0": _float,
    },
    "viscoplasticity": {
        "m": int, "dx": _float, "M": _coefficient, "D": _coefficient, "L": _coefficient,
        "N": int, "relation": _Choice(_table("gallery", "VISCOPLASTIC_RELATIONS")),
        "parameter": _float,
    },
}

#: each problem source and its sections
_SOURCES = {
    "catalog": ("problem",),
    "custom": ("material", "relation"),
    "thermoplasticity": ("thermoplasticity",),
    "viscoplasticity": ("viscoplasticity",),
}

_HELP_NOTES = """
Matrices use ';' between rows and ',' between entries. Coefficients are
"base[,amplitude[,frequency]]". Campaign checks are a comma-separated list,
each named once; without one, a campaign runs every check its problem
supports. A config uses one problem source: [problem], [material] with
[relation], [thermoplasticity] or [viscoplasticity]. The grid's n, dt and
t0 come from [grid] over [problem]. A [relation] or [forcing] kind takes
only the keys it reads; linear takes matrix or gain. Only evinc solve reads
[solver] mode, fp_max_iter and the lambda keys (these with mode =
yosida_path only); every other command takes only rho, c_tilde and fp_tol
from [solver]. Every number must be finite, and a seed non-negative. A
window must hold a node of the grid, and an impulse start lie in the grid's
span. There is no initial-condition interface: the past is identically
zero, so model initial values with impulsive forcing (kind = impulse).
"""


def config_help() -> str:
    """Every config section and key, with the names each choice accepts."""
    lines = ["config sections and keys:"]
    for section, keys in _SCHEMA.items():
        entries = ", ".join(
            f"{key} ({' | '.join(parse.names)})" if isinstance(parse, _Choice) else key
            for key, parse in keys.items()
        )
        lines += textwrap.wrap(entries, 78, initial_indent=f"  {f'[{section}]':20}",
                               subsequent_indent=" " * 22)
    return "\n".join(lines) + "\n" + _HELP_NOTES


@dataclass
class RunConfig:
    """Parsed configuration: typed values by section, and its problem source."""

    sections: dict
    path: str
    source: str

    def _section(self, name: str) -> dict:
        return dict(self.sections.get(name, {}))

    def fixed_solver(self) -> dict:
        """[solver] of every command but solve, which alone reads mode, fp_max_iter and lambda_*."""
        solver = self._section("solver")
        refused = [key for key in solver if key not in ("rho", "c_tilde", "fp_tol")]
        if refused:
            raise ConfigError(f"only evinc solve reads [solver] {', '.join(refused)}")
        return solver

    # -- assembly -----------------------------------------------------------

    def build_template(self) -> CatalogProblem:
        """The configured problem without its forcing, at the [solver] admissible pair."""
        grid_args = {**self._section("problem"), **self._section("grid")}
        name = grid_args.pop("catalog", "custom")  # a slab model names itself
        meta = {}
        if self.source == "catalog":
            tpl = make_catalog_problem(name, **grid_args)
            family, relation, grid = tpl.family, tpl.relation, tpl.grid
            meta = tpl.meta
        elif self.source == "custom":
            family = self.build_family()
            rel = self._section("relation")
            relation = relation_from_config(rel.pop("kind", "zero"), family.dim, **rel)
            grid = TimeGrid(**{"t0": 0.0, "dt": 1e-3, "n": 1001, **grid_args})
        else:
            model = self.build_gallery_model()
            name, family, relation = model.name, model.family, model.relation
            grid = TimeGrid(**{"t0": 0.0, "dt": 1e-3, "n": 201, **grid_args})
            meta = {"model": model}
        solver = self.sections.get("solver", {})
        return CatalogProblem.admissible(
            name, family, relation, grid,
            c_tilde=solver.get("c_tilde"), rho=solver.get("rho"), meta=meta,
        )

    def build_family(self):
        sec = self._section("material")
        builder = sec.pop("builder", "constant")
        if builder == "constant" and sec.keys() & {"amplitude", "frequency"}:
            raise ConfigError("[material] amplitude and frequency need builder = sinusoidal")
        m0 = sec.pop("m0", np.ones((1, 1)))
        m1 = sec.pop("m1", np.zeros_like(m0))
        return _FAMILIES[builder](m0, m1, **sec)

    def build_gallery_model(self):
        if self.source not in _SLABS:
            raise ConfigError("a gallery model needs [thermoplasticity] or [viscoplasticity]")
        from . import gallery  # only a slab source builds a slab model

        args = {_SLAB_ARGS.get(k, k): v for k, v in self.sections[self.source].items()}
        grid = gallery.SlabGrid(**{k: args.pop(k) for k in ("m", "dx") if k in args})
        return getattr(gallery, _SLABS[self.source])(grid, **args)

    def build_forcing(self, template: CatalogProblem) -> WeightedSignal:
        sec = self.sections.get("forcing", {})
        kind = sec.get("kind", "window")
        grid, dim = template.grid, template.dim
        if kind == "csv":
            if "path" not in sec:
                raise ConfigError("forcing kind 'csv' needs 'path'")
            sig = read_signal_csv(sec["path"], template.rho)
            if sig.dim != dim or sig.grid.n != grid.n:
                raise ConfigError("forcing CSV shape does not match the problem")
            # the grids agree to the tolerance read_signal_csv allows within one time column
            if not all(abs(a - b) <= 1e-12 * max(abs(b), 1.0)
                       for a, b in ((sig.grid.t0, grid.t0), (sig.grid.dt, grid.dt))):
                raise ConfigError(
                    f"forcing CSV {sec['path']} is on the grid t0={sig.grid.t0}, "
                    f"dt={sig.grid.dt}, the problem on t0={grid.t0}, dt={grid.dt}")
            return template.signal(sig.values)
        if kind == "random":
            rng = np.random.default_rng(sec.get("seed", 0))
            return template.signal(rng.standard_normal((grid.n, dim)))
        value = sec.get("value", np.ones(1))
        if value.size not in (1, dim):
            raise ConfigError(f"forcing value has {value.size} entries, state dim is {dim}")
        value = np.broadcast_to(value, dim)
        t = grid.times
        start = sec.get("start", grid.t0)
        span = f"the grid's span {grid.t0:g} .. {grid.t0 + grid.horizon:g}"
        if kind == "constant":
            mask = np.ones(grid.n, dtype=bool)
        elif kind == "window":
            stop = sec.get("stop", grid.t0 + grid.horizon + grid.dt)
            mask = (t >= start) & (t < stop)
            if not mask.any():
                raise ConfigError(f"forcing window [{start:g}, {stop:g}) holds no node of {span}")
        else:  # impulse: a unit-area pulse on the node nearest to start
            slack = 1e-9 * grid.dt  # the last node's time as typed may round above t0 + horizon
            if not grid.t0 - slack <= start <= grid.t0 + grid.horizon + slack:
                raise ConfigError(f"forcing impulse start {start:g} lies outside {span}")
            mask = np.zeros(grid.n, dtype=bool)
            mask[int(np.argmin(np.abs(t - start)))] = True
            value = value / grid.dt
        return template.signal(np.where(mask[:, None], value[None, :], 0.0))

    def build_problem(self) -> InclusionProblem:
        sec = self.sections.get("solver", {})
        lam = {k.removeprefix("lambda_"): v for k, v in sec.items() if k.startswith("lambda_")}
        if lam and sec.get("mode") != "yosida_path":
            unread = ", ".join(f"lambda_{k}" for k in lam)
            raise ConfigError(f"a direct solve reads no lambda schedule; drop [solver] {unread} "
                              "or set mode = yosida_path")
        template = self.build_template()
        forcing = self.build_forcing(template)
        knobs = {k: sec[k] for k in ("mode", "fp_tol", "fp_max_iter") if k in sec}
        schedule = default_lambda_schedule(**lam) if lam else None
        return template.problem(forcing, lambda_schedule=schedule, **knobs)

    def build_campaign(self, template: CatalogProblem):
        """The [campaign] over ``template`` at [solver] fp_tol; by default each supported check."""
        from .harness import PropertyCampaign

        fp_tol = self.fixed_solver().get("fp_tol", FP_TOL)
        sec = self._section("campaign")
        checks = sec.pop("checks", ()) or None  # none given: the campaign's default
        return PropertyCampaign(template=template, checks=checks, fp_tol=fp_tol, **sec)


def _parse(section: str, key: str, text: str):
    try:
        return _SCHEMA[section][key](text)
    except (ValueError, ContractViolation) as exc:
        raise ConfigError(f"bad value {text!r} for {section}.{key}: {exc}") from exc


def _source(sections: dict) -> str:
    """The one problem source that the sections name."""
    named = [src for src, secs in _SOURCES.items() if any(s in sections for s in secs)]
    if not named:
        raise ConfigError(
            "config needs one of [problem], [material], [thermoplasticity] or [viscoplasticity]"
        )
    if len(named) > 1:
        found = ", ".join(f"[{s}]" for src in named for s in _SOURCES[src] if s in sections)
        raise ConfigError(f"{found} belong to different problem sources; a config uses one")
    if named == ["catalog"] and "catalog" not in sections["problem"]:
        raise ConfigError("[problem] needs 'catalog = <name>'")
    if named == ["custom"] and "material" not in sections:
        raise ConfigError("[relation] needs [material]")
    return named[0]


def _check_kinds(sections: dict):
    """Each [relation] and [forcing] key must be one that its kind reads."""
    for section, default, reads in [("relation", "zero", lambda kind: RELATION_KINDS[kind][1]),
                                    ("forcing", "window", _FORCING_KEYS.get)]:
        sec = sections.get(section, {})
        kind = sec.get("kind", default)
        unread = [key for key in sec if key != "kind" and key not in reads(kind)]
        if unread:
            raise ConfigError(f"[{section}] kind {kind!r} does not read {', '.join(unread)}")
    if {"matrix", "gain"} <= sections.get("relation", {}).keys():
        raise ConfigError("[relation] kind 'linear' takes matrix or gain, not both")


def load_config(path: str, overrides=None) -> RunConfig:
    """Read, parse and validate; overrides are 'section.key=value' strings."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # coefficient keys are case-sensitive (m vs M)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    raw = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        raw[section] = dict(parser.items(section))
        for key in raw[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    for item in overrides or []:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not (eq and dot):
            raise ConfigError(f"override {item!r} must look like section.key=value")
        if key not in _SCHEMA.get(section, {}):
            raise ConfigError(f"unknown override target {target!r}")
        raw.setdefault(section, {})[key] = value
    sections = {
        section: {key: _parse(section, key, text) for key, text in entries.items()}
        for section, entries in raw.items()
    }
    _check_kinds(sections)
    return RunConfig(sections=sections, path=str(path), source=_source(sections))
