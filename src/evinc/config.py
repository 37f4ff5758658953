"""INI-style run configuration: strict keys, flat sections, diffable files.

A config either references a catalog problem ([problem]), defines a custom
one ([grid]/[material]/[relation]/[forcing]/[solver]), or assembles a slab
model ([thermoplasticity]/[viscoplasticity] plus grid/forcing/solver).
Unknown sections or keys are errors: there are no silent typos.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogProblem, catalog_names, make_catalog_problem
from .errors import ContractViolation
from .gallery import Coefficient, SlabGrid, build_thermoplasticity, build_viscoplasticity
from .materials import constant_family, sinusoidal_family
from .relations import relation_from_config
from .signals import TimeGrid, WeightedSignal, read_signal_csv
from .solver import FP_MAX_ITER, FP_TOL, InclusionProblem, default_lambda_schedule

__all__ = ["RunConfig", "load_config", "ConfigError"]


class ConfigError(ContractViolation):
    """Malformed or inconsistent run configuration."""


_SCHEMA = {
    "problem": {"catalog", "n", "dt", "t0"},
    "grid": {"t0", "dt", "n"},
    "material": {"builder", "m0", "m1", "amplitude", "frequency", "c0", "c1"},
    "relation": {"kind", "weight", "radius", "gain", "matrix"},
    "forcing": {"kind", "value", "start", "stop", "path", "seed"},
    "solver": {
        "rho",
        "c_tilde",
        "mode",
        "fp_tol",
        "fp_max_iter",
        "lambda_start",
        "lambda_stop",
        "lambda_factor",
    },
    "campaign": {"trials", "checks", "seed", "fp_tol"},
    "thermoplasticity": {"m", "dx", "M", "C", "w", "kappa", "c", "tau0", "s0"},
    "viscoplasticity": {"m", "dx", "M", "D", "L", "N", "relation", "parameter"},
}


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in text.strip().split(";") if r.strip()]
    return np.array([[float(x) for x in r.split(",")] for r in rows])


def _parse_vector(text: str, dim: int) -> np.ndarray:
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 1:
        return np.full(dim, parts[0])
    if len(parts) != dim:
        raise ConfigError(f"forcing value has {len(parts)} entries, state dim is {dim}")
    return np.array(parts)


def _parse_coefficient(text: str) -> Coefficient:
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 1:
        return Coefficient(parts[0])
    if len(parts) == 2:
        return Coefficient(parts[0], parts[1])
    if len(parts) == 3:
        return Coefficient(parts[0], parts[1], parts[2])
    raise ConfigError(f"coefficient entry {text!r} needs 1-3 comma-separated numbers")


@dataclass
class RunConfig:
    """Validated configuration ready to produce problems and campaigns."""

    sections: dict
    path: str

    def has(self, section: str) -> bool:
        return section in self.sections

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    # -- assembly -----------------------------------------------------------

    def build_grid(self, default_n=1001, default_dt=1e-3) -> TimeGrid:
        src = "grid" if self.has("grid") else "problem"
        sec = self.sections.get(src, {})
        return TimeGrid(
            t0=float(sec.get("t0", 0.0)),
            dt=float(sec.get("dt", default_dt)),
            n=int(sec.get("n", default_n)),
        )

    def build_template(self) -> CatalogProblem:
        """Resolve the configured problem into a catalog-style template."""
        if self.has("problem"):
            sec = self.sections["problem"]
            name = sec.get("catalog")
            if name is None:
                raise ConfigError("[problem] needs 'catalog = <name>'")
            if name not in catalog_names():
                raise ConfigError(
                    f"unknown catalog problem {name!r}; choices: {catalog_names()}"
                )
            kwargs = {}
            if "n" in sec:
                kwargs["n"] = int(sec["n"])
            if "dt" in sec:
                kwargs["dt"] = float(sec["dt"])
            if "t0" in sec:
                kwargs["t0"] = float(sec["t0"])
            return make_catalog_problem(name, **kwargs)
        if self.has("thermoplasticity") or self.has("viscoplasticity"):
            model = self.build_gallery_model()
            name, family, relation = model.name, model.family, model.relation
            grid, meta = self.build_grid(default_n=201), {"model": model}
        elif self.has("material"):
            family = self.build_family()
            rel_sec = dict(self.sections.get("relation", {"kind": "zero"}))
            kind = rel_sec.pop("kind", "zero")
            if "matrix" in rel_sec:
                rel_sec["matrix"] = _parse_matrix(rel_sec["matrix"])
            relation = relation_from_config(
                kind, family.dim, **{k: v for k, v in rel_sec.items()}
            )
            name, grid, meta = "custom", self.build_grid(), {}
        else:
            raise ConfigError(
                "config needs one of [problem], [material], "
                "[thermoplasticity] or [viscoplasticity]"
            )
        c_tilde, rho = (self.get("solver", key) for key in ("c_tilde", "rho"))
        return CatalogProblem.admissible(
            name, family, relation, grid,
            c_tilde=None if c_tilde is None else float(c_tilde),
            rho=None if rho is None else float(rho),
            meta=meta,
        )

    def build_family(self):
        sec = self.sections["material"]
        builder = sec.get("builder", "constant")
        m0 = _parse_matrix(sec.get("m0", "1.0"))
        m1_text = sec.get("m1")
        m1 = _parse_matrix(m1_text) if m1_text else np.zeros_like(m0)
        c0 = float(sec["c0"]) if "c0" in sec else None
        c1 = float(sec["c1"]) if "c1" in sec else None
        if builder == "constant":
            return constant_family(m0, m1, c0=c0, c1=c1)
        if builder == "sinusoidal":
            return sinusoidal_family(
                m0,
                m1,
                amplitude=float(sec.get("amplitude", 0.5)),
                frequency=float(sec.get("frequency", 1.0)),
                c0=c0,
                c1=c1,
            )
        raise ConfigError(f"unknown material builder {builder!r}")

    def build_gallery_model(self):
        if self.has("thermoplasticity"):
            sec = self.sections["thermoplasticity"]
            grid = SlabGrid(m=int(sec.get("m", 2)), dx=float(sec.get("dx", 0.5)))
            return build_thermoplasticity(
                grid,
                M=_parse_coefficient(sec.get("M", "1.0")),
                C=_parse_coefficient(sec.get("C", "1.0")),
                w=_parse_coefficient(sec.get("w", "1.0")),
                kappa=_parse_coefficient(sec.get("kappa", "1.0")),
                c=float(sec.get("c", 1.0)),
                tau0=float(sec.get("tau0", 1.0)),
                s0=float(sec.get("s0", 1.0)),
            )
        if self.has("viscoplasticity"):
            sec = self.sections["viscoplasticity"]
            grid = SlabGrid(m=int(sec.get("m", 2)), dx=float(sec.get("dx", 0.5)))
            return build_viscoplasticity(
                grid,
                M=_parse_coefficient(sec.get("M", "1.0")),
                D=_parse_coefficient(sec.get("D", "1.0")),
                L=_parse_coefficient(sec.get("L", "1.0")),
                N=int(sec.get("N", 5)),
                relation_kind=sec.get("relation", "soft_threshold"),
                relation_param=float(sec.get("parameter", 1.0)),
            )
        raise ConfigError("no gallery section present")

    def build_forcing(self, template: CatalogProblem) -> WeightedSignal:
        sec = self.sections.get("forcing", {"kind": "window", "value": "1.0"})
        kind = sec.get("kind", "window")
        grid = template.grid
        dim = template.dim
        if kind == "csv":
            path = sec.get("path")
            if path is None:
                raise ConfigError("forcing kind 'csv' needs 'path'")
            sig = read_signal_csv(path, template.rho)
            if sig.dim != dim or sig.grid.n != grid.n:
                raise ConfigError("forcing CSV shape does not match the problem")
            return sig
        if kind == "random":
            seed = int(sec.get("seed", 0))
            rng = np.random.default_rng(seed)
            vals = rng.standard_normal((grid.n, dim))
            return template.signal(vals)
        value = _parse_vector(sec.get("value", "1.0"), dim)
        t = grid.times
        if kind == "constant":
            mask = np.ones(grid.n, dtype=bool)
        elif kind == "window":
            start = float(sec.get("start", grid.t0))
            stop = float(sec.get("stop", grid.t0 + grid.horizon + grid.dt))
            mask = (t >= start) & (t < stop)
        elif kind == "impulse":
            start = float(sec.get("start", grid.t0))
            mask = np.zeros(grid.n, dtype=bool)
            mask[int(np.argmin(np.abs(t - start)))] = True
            value = value / grid.dt  # unit-area pulse
        else:
            raise ConfigError(f"unknown forcing kind {kind!r}")
        vals = np.where(mask[:, None], value[None, :], 0.0)
        return template.signal(vals)

    def build_problem(self) -> InclusionProblem:
        template = self.build_template()
        forcing = self.build_forcing(template)
        sec = self.sections.get("solver", {})
        schedule = None
        if any(k in sec for k in ("lambda_start", "lambda_stop", "lambda_factor")):
            schedule = default_lambda_schedule(
                start=float(sec.get("lambda_start", 1.0)),
                stop=float(sec.get("lambda_stop", 1e-6)),
                factor=float(sec.get("lambda_factor", 0.5)),
            )
        return template.problem(
            forcing,
            mode=sec.get("mode", "direct"),
            fp_tol=float(sec.get("fp_tol", FP_TOL)),
            fp_max_iter=int(sec.get("fp_max_iter", FP_MAX_ITER)),
            lambda_schedule=schedule,
        )


def load_config(path: str, overrides=None) -> RunConfig:
    """Parse and validate; overrides are 'section.key=value' strings."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # coefficient keys are case-sensitive (m vs M)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    sections = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        sections[section] = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            sections[section][key] = value
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {target!r}")
        sections.setdefault(section, {})[key] = value
    return RunConfig(sections=sections, path=str(path))
