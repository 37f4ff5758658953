"""The config schema: pinned outputs of the shipped configs, help, typed errors, sources."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from evinc import config
from evinc.cli import main
from evinc.signals import TimeGrid, WeightedSignal, read_signal_csv, write_signal_csv

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (command, extra arguments) per shipped config; the campaigns run 3 trials,
# and on the solve configs only the monotonicity check, which needs no solve
_CAMPAIGN = ("campaign", ("--set", "campaign.trials=3"))
_MARGIN_CAMPAIGN = ("campaign", ("--set", "campaign.trials=3",
                                 "--set", "campaign.checks=monotonicity_bound"))
RUNS = {
    "campaign_degenerate.ini": [("solve", ()), ("check-conditions", ()), _CAMPAIGN],
    "scalar_ode.ini": [("solve", ()), ("check-conditions", ()), _MARGIN_CAMPAIGN],
    "sign_ramp.ini": [("solve", ()), ("check-conditions", ()), _MARGIN_CAMPAIGN],
    "thermoplastic.ini": [
        ("solve", ()), ("solve", ("--mode", "yosida")), ("check-conditions", ()),
        _MARGIN_CAMPAIGN, ("gallery", ()),
    ],
    "viscoplastic.ini": [
        ("solve", ()), ("check-conditions", ()), _MARGIN_CAMPAIGN, ("gallery", ()),
    ],
}

# sha256 of every output file, recorded before the schema refactor
PINS = {
    ("campaign_degenerate.ini", "solve", ()): {
        "report.txt": "63947b84a9b35c3d7414e91f9c0e1d8b58528f370b7218afb3114958917f1b6b",
        "solution.csv": "0933d1bc01409f1874279278438ea8604cc3503f5bae3826ad2455dd2b1f03cf",
    },
    ("campaign_degenerate.ini", "check-conditions", ()): {
        "report.txt": "a02e9f19eacf7d0a1c2b823878b48171934a8c649a04967e206ec08597f68446",
    },
    ("campaign_degenerate.ini", "campaign", ("--set", "campaign.trials=3")): {
        "campaign.csv": "e8f64aa951b0a269869f5331d38ac1c10b97eff6568e2d1cb09e4cece7af4cc1",
        "report.txt": "293fcfd229dca6688bdf2a9b3a46c64e7382ed879fdde66d21fc1484e1dc6c62",
    },
    ("scalar_ode.ini", "solve", ()): {
        "report.txt": "dcf2fd06645562c54a0236898af86432c9fb6da525fb736d24061a79e647c819",
        "solution.csv": "6bd6c96fa680804576ee45d4a48068fffa619e4bc4385b086a5fc8a060dd28f8",
    },
    ("scalar_ode.ini", "check-conditions", ()): {
        "report.txt": "fca5f6e6624a894b72eb23aa3b43799aef462e64fbf5f7f612165ce16b5071ea",
    },
    ("scalar_ode.ini", "campaign", ("--set", "campaign.trials=3", "--set", "campaign.checks=monotonicity_bound")): {
        "campaign.csv": "f5d00e025c9829945f321cd7b8923e35038d192542fe750eb6e18e57a1288dbd",
        "report.txt": "aa246b95adb44c537bf6b026f37f1c1c767d4202f2518e5abfb3e6a73bd93325",
    },
    ("sign_ramp.ini", "solve", ()): {
        "report.txt": "9b85de84dcd8ef437a5c59aca55ebc8c05bbf72df257d125da51b98e4075f393",
        "solution.csv": "c24b7f992ef99c48f90567258bda50ce4ee48b601b3e92c44d9755e315dc3f4b",
    },
    ("sign_ramp.ini", "check-conditions", ()): {
        "report.txt": "fca5f6e6624a894b72eb23aa3b43799aef462e64fbf5f7f612165ce16b5071ea",
    },
    ("sign_ramp.ini", "campaign", ("--set", "campaign.trials=3", "--set", "campaign.checks=monotonicity_bound")): {
        "campaign.csv": "a229898a0a1813477f99008e5f5974639f870f1e9b25c88b281b59c703e5e953",
        "report.txt": "c333a79b4a2f44a9bad20c0101ef7b7afb39606cc463602cb129b902034dddf2",
    },
    ("thermoplastic.ini", "solve", ()): {
        "report.txt": "1a0553b5aea880804429507afb718d62314cf3a3f8f41a36e24f6f70d50403b8",
        "solution.csv": "611d9ecabf96e48bbdc40d500afe071d1fc5958963ccc7d4e2c08ca3bd77859a",
    },
    ("thermoplastic.ini", "solve", ("--mode", "yosida")): {
        "report.txt": "3210dfffa0ce532ea94b9332bb8906d37cfbcff399c537d0627d0e98b34fa118",
        "solution.csv": "3abc2a6857c7c1689eafa27297395800e47e4fb4703f4dfc493896f74a7378da",
    },
    ("thermoplastic.ini", "check-conditions", ()): {
        "report.txt": "2e1cd1ed4981c7cdefc29353a9542185a7196dc978657561270949a9c0d91be5",
    },
    ("thermoplastic.ini", "campaign", ("--set", "campaign.trials=3", "--set", "campaign.checks=monotonicity_bound")): {
        "campaign.csv": "f3391ddee67253bdd94038b05b3e6933ef2fad6e055667438aab3b12a295f6c5",
        "report.txt": "703edd955fa7d63920bfd3d511262aa2db431382c48710bad373d1cd5ddeb6f1",
    },
    ("thermoplastic.ini", "gallery", ()): {
        "report.txt": "f683b3d58d2d1a98fa30f0c632c75e00b2ba3833b695f6cde0811392b63d0f88",
    },
    ("viscoplastic.ini", "solve", ()): {
        "report.txt": "e98bea0c4cedcf43c5f12917867789137e367a6522692951988f706b25c4122f",
        "solution.csv": "1fe669999eb83ac6ac78233fe5bd607ae720b637cb68281c6de7e183aee38a30",
    },
    ("viscoplastic.ini", "check-conditions", ()): {
        "report.txt": "9320d4693008839c7c97bbd07742828cd6a6eec4e2e294eea4bef4b0aa1a5ebf",
    },
    ("viscoplastic.ini", "campaign", ("--set", "campaign.trials=3", "--set", "campaign.checks=monotonicity_bound")): {
        "campaign.csv": "124d6131ed610d0cf55de80fc1bb74598c4d6edb215b3b5aed191e130f51a842",
        "report.txt": "bae1bc890c1e686fdbdec218365b72ee75c20f7ee9b2014e070dce1b45db5136",
    },
    ("viscoplastic.ini", "gallery", ()): {
        "report.txt": "92788c557279d0737361b29f929a72da09feb56094d4991124338c6d9878acf1",
    },
}

# the accepted (section, key) pairs
KEYS = {
    "problem": {"catalog", "n", "dt", "t0"},
    "grid": {"t0", "dt", "n"},
    "material": {"builder", "m0", "m1", "amplitude", "frequency", "c0", "c1"},
    "relation": {"kind", "weight", "radius", "gain", "matrix"},
    "forcing": {"kind", "value", "start", "stop", "path", "seed"},
    "solver": {"rho", "c_tilde", "mode", "fp_tol", "fp_max_iter",
               "lambda_start", "lambda_stop", "lambda_factor"},
    "campaign": {"trials", "checks", "seed"},
    "thermoplasticity": {"m", "dx", "M", "C", "w", "kappa", "c", "tau0", "s0"},
    "viscoplasticity": {"m", "dx", "M", "D", "L", "N", "relation", "parameter"},
}
TEXT_KEYS = {("forcing", "path")}


def run(tmp_path, command, cfg, *extra):
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def report(out) -> dict:
    lines = (out / "report.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def test_every_shipped_config_is_pinned():
    assert sorted(RUNS) == sorted(p.name for p in CONFIGS.glob("*.ini"))


@pytest.mark.parametrize(
    "name, command, extra",
    [(name, command, extra) for name, runs in RUNS.items() for command, extra in runs],
)
def test_shipped_config_outputs_pinned(tmp_path, name, command, extra):
    code, out = run(tmp_path, command, CONFIGS / name, *extra)
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == PINS[(name, command, extra)]


class TestSchema:
    def test_accepted_keys_unchanged(self):
        assert {s: set(keys) for s, keys in config._SCHEMA.items()} == KEYS
        assert sum(len(keys) for keys in KEYS.values()) == 53

    @pytest.mark.parametrize("command", ["solve", "check-conditions", "campaign", "gallery"])
    def test_help_lists_every_key(self, capsys, command):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        listing = text[text.index("config sections and keys:"):].split("\n\n")[0]
        by_section, section = {}, None
        for line in listing.splitlines()[1:]:
            head = line.split()[0]
            if head.startswith("["):
                section = head.strip("[]")
                line = line.replace(head, "", 1)
            by_section.setdefault(section, []).append(line)
        for section, keys in KEYS.items():
            entries = " ".join(by_section[section]).split(",")
            assert {entry.split("(")[0].strip() for entry in entries} == keys

    def test_help_names_the_choices(self, capsys):
        main(["solve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for names in ("direct | yosida_path", "constant | sinusoidal", "soft_threshold | ball_saturation"):
            assert names in text


_MALFORMED = [
    (section, key, "abc")
    for section, keys in sorted(KEYS.items())
    for key in sorted(keys)
    if (section, key) not in TEXT_KEYS
] + [
    ("problem", "n", "2.5"),
    ("grid", "n", "2.5"),
    ("campaign", "trials", "1e3"),
    ("material", "m0", "1,0;0"),
    ("material", "m1", ""),
    ("thermoplasticity", "M", "1,0.5,1,2"),
    ("thermoplasticity", "kappa", "0"),
    ("viscoplasticity", "L", "1,1.5"),
    ("campaign", "checks", "causality,nope"),
    ("problem", "catalog", "Scalar_ODE"),
] + [
    # every number is finite: no key needs infinity, and NaN compares false to any bound
    (section, key, value)
    for section, keys in sorted(KEYS.items())
    for key in sorted(keys)
    if config._SCHEMA[section][key] not in (int, str)
    and not isinstance(config._SCHEMA[section][key], config._Choice)
    for value in ("nan", "inf", "1,nan")
]


@pytest.mark.parametrize("section, key, value", _MALFORMED)
def test_malformed_value_is_a_config_error(tmp_path, capsys, section, key, value):
    code, _ = run(tmp_path, "solve", CONFIGS / "scalar_ode.ini", "--set", f"{section}.{key}={value}")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and f"{section}.{key}" in err
    assert "Traceback" not in err and err.count("\n") == 1


class TestGrid:
    def test_dt_flag_reaches_a_catalog_config(self, tmp_path):
        code, out = run(tmp_path, "solve", CONFIGS / "scalar_ode.ini",
                        "--dt", "0.002", "--set", "problem.n=301")
        assert code == 0
        assert report(out)["dt"] == "0.002" and report(out)["n"] == "301"

    @pytest.mark.parametrize("name", ["sign_ramp.ini", "thermoplastic.ini"])
    def test_dt_flag_reaches_grid_configs(self, tmp_path, name):
        code, out = run(tmp_path, "solve", CONFIGS / name, "--dt", "0.002", "--set", "grid.n=31")
        assert code == 0
        assert report(out)["dt"] == "0.002" and report(out)["n"] == "31"

    def test_grid_over_problem(self, tmp_path):
        code, out = run(tmp_path, "solve", CONFIGS / "scalar_ode.ini",
                        "--set", "grid.n=51", "--set", "problem.n=301")
        assert code == 0
        assert report(out)["n"] == "51"

    def test_rho_flag_reaches_a_catalog_config(self, tmp_path):
        code, out = run(tmp_path, "solve", CONFIGS / "scalar_ode.ini",
                        "--rho", "3.5", "--set", "problem.n=101")
        assert code == 0
        assert report(out)["rho"] == "3.5"


RANDOM_CONFIG = """
[problem]
catalog = sign_scalar
n = 300

[forcing]
kind = random
seed = 7
"""


class TestForcingKinds:
    """The impulse, random and csv forcings, each against what it must reproduce."""

    def test_impulse_is_the_implicit_euler_pulse(self, tmp_path):
        # du/dt + u = delta(t - 0.1): u_k = (1 + dt)^-(k - k0 + 1) from the pulse node k0 on
        code, out = run(tmp_path, "solve", CONFIGS / "scalar_ode.ini", "--set", "problem.n=400",
                        "--set", "forcing.kind=impulse", "--set", "forcing.start=0.1")
        assert code == 0
        u = read_signal_csv(out / "solution.csv", 1.0).values[:, 0]
        dt, k0 = 0.001, 100
        k = np.arange(400)
        expected = np.where(k >= k0, (1.0 + dt) ** -(k - k0 + 1.0), 0.0)
        assert np.max(np.abs(u - expected)) <= 1e-12

    def test_impulse_on_the_last_node(self, tmp_path):
        # 3 * 0.3 rounds below 0.9, the last node's time as typed; the pulse lands there
        code, out = run(tmp_path, "solve", CONFIGS / "scalar_ode.ini", "--set", "problem.n=4",
                        "--dt", "0.3", "--set", "forcing.kind=impulse", "--set", "forcing.start=0.9")
        assert code == 0
        u = read_signal_csv(out / "solution.csv", 1.0).values[:, 0]
        assert u[:3].tolist() == [0.0, 0.0, 0.0] and u[3] > 0.0

    def test_random_draws_from_its_seed(self, tmp_path):
        path = tmp_path / "random.ini"
        path.write_text(RANDOM_CONFIG)
        cfg = config.load_config(str(path))
        template = cfg.build_template()
        forcing = cfg.build_forcing(template)
        draws = np.random.default_rng(7).standard_normal((template.grid.n, template.dim))
        expected = template.signal(draws)
        assert forcing.grid == expected.grid and forcing.rho == expected.rho
        assert np.array_equal(forcing.values, expected.values)

    def test_csv_replays_a_written_forcing(self, tmp_path):
        random_ini, csv_ini = tmp_path / "random.ini", tmp_path / "csv.ini"
        random_ini.write_text(RANDOM_CONFIG)
        cfg = config.load_config(str(random_ini))
        template = cfg.build_template()
        write_signal_csv(cfg.build_forcing(template), tmp_path / "forcing.csv")
        csv_ini.write_text(RANDOM_CONFIG.replace(
            "kind = random\nseed = 7", f"kind = csv\npath = {tmp_path / 'forcing.csv'}"))
        solutions = []
        for ini in (random_ini, csv_ini):
            out = tmp_path / ini.stem
            assert main(["solve", "--config", str(ini), "--out", str(out)]) == 0
            solutions.append((out / "solution.csv").read_bytes())
        assert solutions[0] == solutions[1]

    @pytest.mark.parametrize("row", ["0.001", "0.001,abc"])
    def test_malformed_csv_row_is_an_invalid_configuration(self, tmp_path, capsys, row):
        # a row missing its value or holding a non-number names its file and line
        random_ini, csv_ini = tmp_path / "random.ini", tmp_path / "csv.ini"
        random_ini.write_text(RANDOM_CONFIG)
        cfg = config.load_config(str(random_ini))
        path = tmp_path / "forcing.csv"
        write_signal_csv(cfg.build_forcing(cfg.build_template()), path)
        lines = path.read_text().splitlines()
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        csv_ini.write_text(RANDOM_CONFIG.replace("kind = random\nseed = 7", f"kind = csv\npath = {path}"))
        code, out = run(tmp_path, "solve", csv_ini)
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            f"invalid configuration: {path}, line 3: expected 2 numbers, got {row!r}"]
        assert not (out / "report.txt").exists()

    def test_csv_on_another_grid_is_a_config_error(self, tmp_path, capsys):
        # the CSV has the problem's shape but its own spacing, which must not replace dt
        path = tmp_path / "forcing.csv"
        write_signal_csv(WeightedSignal(TimeGrid(0.0, 0.5, 11), np.ones((11, 1)), 1.0), path)
        ini = tmp_path / "csv.ini"
        ini.write_text(CSV_CONFIG.format(path=path))
        code, out = run(tmp_path, "solve", ini)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: forcing CSV {path} is on the grid t0=0.0, dt=0.5, "
            "the problem on t0=0.0, dt=0.001"]
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("extra, message", [
        (("forcing.kind=impulse", "forcing.start=99"),
         "forcing impulse start 99 lies outside the grid's span 0 .. 0.049"),
        (("forcing.kind=impulse", "forcing.start=-0.001"),
         "forcing impulse start -0.001 lies outside the grid's span 0 .. 0.049"),
        (("forcing.start=5", "forcing.stop=1"),
         "forcing window [5, 1) holds no node of the grid's span 0 .. 0.049"),
        (("forcing.start=0.06",),
         "forcing window [0.06, 0.05) holds no node of the grid's span 0 .. 0.049"),
    ], ids=["impulse_after", "impulse_before", "window_reversed", "window_after"])
    def test_forcing_that_misses_the_grid(self, tmp_path, capsys, extra, message):
        # an impulse once landed on the nearest edge node, and an empty window gave
        # an all-zero forcing; both runs exited 0
        sets = [arg for target in extra for arg in ("--set", target)]
        code, out = run(tmp_path, "solve", CONFIGS / "scalar_ode.ini", "--set", "problem.n=50", *sets)
        assert config_error(capsys, code) == f"config error: {message}\n"
        assert not out.exists()

    def test_csv_on_the_problem_grid_takes_its_times(self, tmp_path):
        # times that agree to 1e-12 give the forcing the template's own grid
        path = tmp_path / "forcing.csv"
        ini = tmp_path / "csv.ini"
        ini.write_text(CSV_CONFIG.format(path=path))
        cfg = config.load_config(str(ini))
        template = cfg.build_template()
        near = TimeGrid(template.grid.t0 + 1e-14, template.grid.dt * (1 + 1e-13), 11)
        write_signal_csv(WeightedSignal(near, np.ones((11, 1)), 1.0), path)
        forcing = cfg.build_forcing(template)
        assert forcing.grid == template.grid
        assert np.array_equal(forcing.values, np.ones((11, 1)))


CSV_CONFIG = """
[problem]
catalog = scalar_ode
n = 11
dt = 0.001

[forcing]
kind = csv
path = {path}
"""


class TestSources:
    @pytest.mark.parametrize("name, target", [
        ("thermoplastic.ini", "material.m0=2.0"),
        ("thermoplastic.ini", "relation.kind=zero"),
        ("thermoplastic.ini", "viscoplasticity.N=3"),
        ("thermoplastic.ini", "problem.catalog=scalar_ode"),
        ("viscoplastic.ini", "thermoplasticity.m=3"),
        ("scalar_ode.ini", "material.m0=2.0"),
        ("scalar_ode.ini", "relation.kind=zero"),
        ("sign_ramp.ini", "problem.n=10"),
        ("sign_ramp.ini", "viscoplasticity.N=3"),
    ])
    def test_second_source_is_a_config_error(self, tmp_path, capsys, name, target):
        code, _ = run(tmp_path, "solve", CONFIGS / name, "--set", target)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "different problem sources" in err

    @pytest.mark.parametrize("text, message", [
        ("[relation]\nkind = zero\n", "[relation] needs [material]"),
        ("[problem]\nn = 10\n", "needs 'catalog"),
        ("[grid]\nn = 10\n", "config needs one of"),
        ("[material]\nm0 = 1\namplitude = 0.2\n", "need builder = sinusoidal"),
    ])
    def test_incomplete_source_is_a_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.ini"
        path.write_text(text)
        code, _ = run(tmp_path, "solve", path)
        assert code == 1
        assert message in capsys.readouterr().err


class TestTypedRejections:
    """Values that parse but cannot run fail with a typed error before any work."""

    def test_campaign_without_trials(self, tmp_path, capsys):
        code, out = run(tmp_path, "campaign", CONFIGS / "campaign_degenerate.ini",
                        "--set", "campaign.trials=0")
        err = capsys.readouterr().err
        assert code == 1 and "at least one trial" in err
        assert not (out / "campaign.csv").exists()

    @pytest.mark.parametrize("extra, message", [
        (("--dt", "0"), "dt must be positive"),
        (("--set", "problem.n=0"), "at least 2 nodes"),
    ])
    def test_zero_grid_on_a_catalog_config(self, tmp_path, capsys, extra, message):
        # zero is a bad grid value, not a request for the catalog default
        code, _ = run(tmp_path, "solve", CONFIGS / "scalar_ode.ini", *extra)
        assert code == 1
        assert message in capsys.readouterr().err

    def test_lambda_factor_that_never_reaches_stop(self, tmp_path, capsys):
        code, _ = run(tmp_path, "solve", CONFIGS / "scalar_ode.ini",
                      "--set", "solver.lambda_factor=1")
        assert code == 1
        assert "lambda schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, target", [
        ("solve", "sign_ramp.ini", "relation.weight=nan"),
        ("solve", "sign_ramp.ini", "relation.weight=inf"),
        ("solve", "sign_ramp.ini", "grid.t0=nan"),
        ("solve", "sign_ramp.ini", "material.m0=nan"),
        ("check-conditions", "sign_ramp.ini", "material.m1=nan"),
        ("solve", "thermoplastic.ini", "thermoplasticity.s0=nan"),
        ("solve", "thermoplastic.ini", "thermoplasticity.M=nan"),
        ("solve", "thermoplastic.ini", "thermoplasticity.M=inf"),
        ("solve", "thermoplastic.ini", "thermoplasticity.tau0=nan"),
        ("solve", "thermoplastic.ini", "thermoplasticity.c=inf"),
        ("gallery", "thermoplastic.ini", "thermoplasticity.kappa=nan"),
        ("solve", "viscoplastic.ini", "viscoplasticity.parameter=nan"),
        ("solve", "viscoplastic.ini", "viscoplasticity.dx=inf"),
    ])
    def test_non_finite_value(self, tmp_path, capsys, command, name, target):
        # each of these once failed in the solver, in numpy, or not at all
        code, out = run(tmp_path, command, CONFIGS / name, "--set", target)
        assert target.partition("=")[0] in config_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, target", [
        ("campaign", ("--seed", "-1", "--set", "campaign.trials=1"), "campaign.seed"),
        ("campaign", ("--set", "campaign.seed=-3"), "campaign.seed"),
        ("solve", ("--set", "forcing.seed=-2"), "forcing.seed"),
    ], ids=["campaign_flag", "campaign_key", "forcing_key"])
    def test_negative_seed(self, tmp_path, capsys, command, extra, target):
        # numpy's generators refuse a negative seed, which once ended in their traceback
        ini = tmp_path / "random.ini"
        ini.write_text(RANDOM_CONFIG)
        cfg = CONFIGS / "campaign_degenerate.ini" if command == "campaign" else ini
        code, out = run(tmp_path, command, cfg, *extra)
        err = config_error(capsys, code)
        assert target in err and "non-negative" in err
        assert not out.exists()

    def test_lambda_keys_need_the_yosida_path(self, tmp_path, capsys):
        # a direct solve never reads the schedule, so setting it is an error
        args = ("--set", "solver.lambda_start=0.5", "--set", "solver.lambda_factor=0.9")
        code, out = run(tmp_path, "solve", CONFIGS / "sign_ramp.ini", *args)
        assert "lambda_start, lambda_factor" in config_error(capsys, code)
        assert not (out / "report.txt").exists()
        code, out = run(tmp_path, "solve", CONFIGS / "sign_ramp.ini", *args,
                        "--mode", "yosida", "--set", "grid.n=20")
        # 0.5 * 0.9**125 is the first stage at or below the default stop 1e-6
        assert code == 0 and report(out)["lambda_stages"] == "126"

    def test_material_matrices_of_two_shapes(self, tmp_path, capsys):
        # a 1x1 m1 on a 2x2 m0 once broadcast to an all-fives matrix, and the
        # solve exited 0 with u = 1/110 where 1/105 was meant, while the
        # campaign ended in numpy's ValueError
        path = tmp_path / "plane.ini"
        path.write_text(PLANE_CONFIG)
        for command in ("solve", "campaign"):
            code, out = run(tmp_path, command, path, "--set", "material.m1=5")
            assert invalid_configuration(capsys, code) == (
                "m0 and m1 must be square matrices of one shape, got (2, 2) and (1, 1)")
            assert not out.exists()

    @pytest.mark.parametrize("m0, matrix, shape", [
        ("1", "1,2;3,4", "(2, 2)"),  # once numpy's ValueError from reshape
        ("1,0;0,1", "1,2,3,4", "(1, 4)"),  # once silently read as 1,2;3,4
    ])
    def test_linear_matrix_of_another_size(self, tmp_path, capsys, m0, matrix, shape):
        path = tmp_path / "linear.ini"
        path.write_text(f"[material]\nm0 = {m0}\n\n[relation]\nkind = linear\nmatrix = {matrix}\n")
        code, out = run(tmp_path, "solve", path)
        dim = m0.count(";") + 1
        assert invalid_configuration(capsys, code) == (
            f"a linear relation on a {dim}-dim state needs a {dim}x{dim} matrix, got {shape}")
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("campaign", ("--rho", "0.01", "--set", "campaign.trials=2")),
        ("check-conditions", ("--set", "solver.rho=0.01")),
    ])
    def test_rho_below_the_threshold(self, tmp_path, capsys, command, extra):
        # the campaign once ran and reported each trial's refusal as a failed
        # check (exit 4), and check-conditions passed (exit 0)
        code, out = run(tmp_path, command, CONFIGS / "campaign_degenerate.ini", *extra)
        assert invalid_configuration(capsys, code) == (
            "rho=0.01 below the admissible threshold 3.5")
        assert not out.exists()

    def test_infinite_rho(self, tmp_path, capsys):
        # the flag's value is parsed as [solver] rho, which must be finite
        code, out = run(tmp_path, "solve", CONFIGS / "sign_ramp.ini", "--rho", "inf")
        assert "solver.rho" in config_error(capsys, code)
        assert not (out / "report.txt").exists()


def config_error(capsys, code) -> str:
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("config error:")
    assert "Traceback" not in err and err.count("\n") == 1
    return err


def invalid_configuration(capsys, code) -> str:
    """The one stderr line of a ContractViolation, without its prefix."""
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("invalid configuration: ")
    assert "Traceback" not in err and err.count("\n") == 1
    return err.removeprefix("invalid configuration: ").rstrip("\n")


PLANE_CONFIG = """[grid]
dt = 0.01
n = 3

[material]
m0 = 1,0;0,1

[forcing]
kind = constant
value = 1.0
"""


class TestKindKeys:
    """A [relation] or [forcing] key that its kind does not read is a config error."""

    @pytest.mark.parametrize("name, targets, message", [
        ("sign_ramp.ini", ("relation.radius=5", "relation.gain=9", "forcing.seed=3"),
         "[relation] kind 'soft_threshold' does not read radius, gain"),
        ("sign_ramp.ini", ("relation.kind=linear",), "kind 'linear' does not read weight"),
        ("sign_ramp.ini", ("forcing.seed=3",), "[forcing] kind 'window' does not read seed"),
        ("sign_ramp.ini", ("forcing.kind=csv", "forcing.path=f.csv"),
         "kind 'csv' does not read value, start, stop"),
        ("scalar_ode.ini", ("forcing.kind=constant",), "kind 'constant' does not read start"),
        ("scalar_ode.ini", ("forcing.kind=impulse", "forcing.stop=1"), "does not read stop"),
        ("thermoplastic.ini", ("forcing.kind=random",), "kind 'random' does not read value"),
    ])
    def test_unread_key(self, tmp_path, capsys, name, targets, message):
        overrides = [arg for target in targets for arg in ("--set", target)]
        code, out = run(tmp_path, "solve", CONFIGS / name, *overrides)
        assert message in config_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("kind = linear\nmatrix = 2\ngain = 3\n", "matrix or gain, not both"),
        ("weight = 2\n", "kind 'zero' does not read weight"),
    ])
    def test_relation_section(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.ini"
        path.write_text("[material]\nm0 = 1\n\n[relation]\n" + text)
        code, _ = run(tmp_path, "solve", path)
        assert message in config_error(capsys, code)


class TestCampaignSolver:
    @pytest.mark.parametrize("target", [
        "solver.mode=yosida_path", "solver.fp_max_iter=5", "solver.lambda_start=0.5",
    ])
    def test_campaign_refuses_solve_only_keys(self, tmp_path, capsys, target):
        code, out = run(tmp_path, "campaign", CONFIGS / "campaign_degenerate.ini",
                        "--set", "campaign.trials=1", "--set", "solver.fp_tol=1e-3",
                        "--set", target)
        assert target.split("=")[0].split(".")[1] in config_error(capsys, code)
        assert not (out / "campaign.csv").exists()


class TestFixedSolver:
    """Every command but solve takes only rho, c_tilde and fp_tol from [solver]."""

    SOLVE_ONLY = ("solver.lambda_start=0.5", "solver.mode=yosida_path", "solver.fp_max_iter=3")

    @pytest.mark.parametrize("command", ["check-conditions", "gallery"])
    def test_solve_only_keys_refused(self, tmp_path, capsys, command):
        # both commands once accepted these keys, ignored them and exited 0
        overrides = [arg for target in self.SOLVE_ONLY for arg in ("--set", target)]
        code, out = run(tmp_path, command, CONFIGS / "thermoplastic.ini", *overrides)
        err = config_error(capsys, code)
        assert all(target.split("=")[0].split(".")[1] in err for target in self.SOLVE_ONLY)
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("command", ["check-conditions", "gallery"])
    def test_fixed_keys_accepted(self, tmp_path, command):
        code, out = run(tmp_path, command, CONFIGS / "thermoplastic.ini",
                        "--set", "solver.fp_tol=1e-9", "--set", "solver.c_tilde=0.25")
        assert code == 0 and (out / "report.txt").exists()
