"""Command-line front door: solve, check-conditions, campaign, gallery.

Exit codes: 0 success, 1 usage/config error, 2 condition-check failure,
3 solver failure, 4 property-campaign failures present. Output paths go to
stdout, diagnostics to stderr; outputs are byte-stable for a fixed config
and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, config_help, load_config
from .errors import ConditionCheckError, ContractViolation, StepFailure, StepSizeError
from .materials import check_conditions, rho_zero
from .signals import weighted_norm, write_signal_csv
from .solver import lipschitz_bound, solve, yosida_delta, yosida_reference_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITIONS = 2
EXIT_SOLVER = 3
EXIT_CAMPAIGN = 4

#: flag -> (the config entry it sets, its argparse options); the config parses the value
_FLAGS = {
    "--mode": ("solver.mode", dict(choices=["direct", "yosida"],
                                   help="solve mode (yosida: the Yosida path)")),
    "--seed": ("campaign.seed", dict(help="campaign seed override")),
    "--rho": ("solver.rho", dict(help="weight override")),
    "--dt": ("grid.dt", dict(help="time step override")),
}
#: flag values that name their config value otherwise
_ALIASES = {"yosida": "yosida_path"}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, whose epilog, the config reference, is built only for its help."""

    def format_help(self):
        self.epilog = config_help()
        return super().format_help()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evinc",
        description="causal solver and property harness for evolutionary inclusions",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (descr, flags, _) in _COMMANDS.items():
        sub = subs.add_parser(
            name,
            help=descr,
            description=descr,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument("--config", required=True, help="path to the run configuration")
        sub.add_argument("--out", default=".", help="output directory (created if missing)")
        sub.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            dest="overrides",
            help="override a config entry (repeatable)",
        )
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag][1])
    return parser



def _write(path: Path, text: str):
    # the output directory is made with the first file, so a run that fails before leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(path)


def _cmd_solve(cfg, out: Path) -> int:
    problem = cfg.build_problem()
    report = solve(problem)
    if not report.converged:
        print(f"solver failed at step {report.fail_step}: {report.fail_reason}",
              file=sys.stderr)
        return EXIT_SOLVER
    out.mkdir(parents=True, exist_ok=True)
    write_signal_csv(report.solution, out / "solution.csv")
    print(out / "solution.csv")
    sol_norm = weighted_norm(report.solution)
    f_norm = weighted_norm(problem.forcing)
    bound = lipschitz_bound(problem)
    lines = [
        "status = converged",
        f"mode = {problem.mode}",
        f"rho = {problem.rho:.17g}",
        f"c_tilde = {problem.c_tilde:.17g}",
        f"dt = {problem.forcing.grid.dt:.17g}",
        f"n = {problem.forcing.grid.n}",
        f"max_residual = {report.max_residual:.17g}",
        f"max_step_iterations = {max(report.per_step_iterations)}",
        f"solution_weighted_norm = {sol_norm:.17g}",
        f"forcing_weighted_norm = {f_norm:.17g}",
        # the zero pair is admissible, so |u|/|f| certifies the gain bound
        f"anchor_gain = {(sol_norm / f_norm if f_norm else 0.0):.17g}",
        f"anchor_gain_bound = {bound:.17g}",
    ]
    if report.lambda_trace:
        lines.append(f"lambda_stages = {len(report.lambda_trace)}")
        lines.append(f"lambda_min = {report.lambda_trace[-1][0]:.17g}")
        lines.append(f"yosida_sup_norm = {max(norm for _, norm in report.lambda_trace):.17g}")
        lines.append(f"delta = {yosida_delta(problem.family):.17g}")
        lines.append(f"yosida_reference_bound = {yosida_reference_bound(problem):.17g}")
    _write(out / "report.txt", "\n".join(lines) + "\n")
    return EXIT_OK


def _conditions_report(cfg):
    import numpy as np

    template = cfg.build_template()
    grid = template.grid
    ts = np.linspace(grid.t0, grid.t0 + grid.horizon, 33)
    return template, check_conditions(template.family, ts)


def _cmd_check_conditions(cfg, out: Path) -> int:
    cfg.fixed_solver()
    template, report = _conditions_report(cfg)
    rho0 = None
    if report.passed:
        rho0 = rho_zero(template.family, template.c_tilde)
    text = report.to_text()
    if rho0 is not None:
        text += f"\nrho_zero = {rho0:.17g}\nc_tilde = {template.c_tilde:.17g}"
    _write(out / "report.txt", text + "\n")
    if not report.passed:
        print(f"conditions failed: {report.failing()}", file=sys.stderr)
        return EXIT_CONDITIONS
    return EXIT_OK


def _cmd_campaign(cfg, out: Path) -> int:
    template, cond = _conditions_report(cfg)
    if not cond.passed:
        print(f"conditions failed: {cond.failing()}", file=sys.stderr)
        _write(out / "report.txt", cond.to_text() + "\n")
        return EXIT_CONDITIONS
    from .harness import run_campaign

    report = run_campaign(cfg.build_campaign(template))
    _write(out / "campaign.csv", report.to_csv())
    _write(out / "report.txt", report.to_text() + "\n")
    if not report.passed:
        print(f"{len(report.failures)} failing trial checks", file=sys.stderr)
        return EXIT_CAMPAIGN
    return EXIT_OK


def _cmd_gallery(cfg, out: Path) -> int:
    cfg.fixed_solver()
    model = cfg.build_gallery_model()
    _write(out / "report.txt", model.summary() + "\n")
    return EXIT_OK


#: command -> (description, the flags it reads, handler)
_COMMANDS = {
    "solve": ("solve a configured problem, write solution.csv and report.txt",
              ("--mode", "--rho", "--dt"), _cmd_solve),
    "check-conditions": ("verify the structural conditions of the material", ("--dt",),
                         _cmd_check_conditions),
    "campaign": ("run randomized property checks, write campaign.csv", ("--seed", "--rho", "--dt"),
                 _cmd_campaign),
    "gallery": ("assemble a slab model and write its structural summary", (), _cmd_gallery),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        given = {target: getattr(args, flag[2:], None) for flag, (target, _) in _FLAGS.items()}
        flags = [f"{target}={_ALIASES.get(v, v)}" for target, v in given.items() if v is not None]
        cfg = load_config(args.config, overrides=[*args.overrides, *flags])
        return _COMMANDS[args.command][2](cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConditionCheckError as exc:
        print(f"condition check failed: {exc}", file=sys.stderr)
        return EXIT_CONDITIONS
    except (StepFailure, StepSizeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ContractViolation as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
