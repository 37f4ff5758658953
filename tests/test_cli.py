import re

import numpy as np
import pytest

from evinc.cli import main


def write(path, text):
    path.write_text(text)
    return str(path)


SCALAR_CONFIG = """
[problem]
catalog = scalar_ode
n = 301

[forcing]
kind = window
value = 1.0
start = 0.0
"""

BROKEN_C1_CONFIG = """
[material]
builder = constant
m0 = 1,0;0,0
m1 = 0,0;0,0
c1 = 1.0

[relation]
kind = zero
"""

CAMPAIGN_CONFIG = """
[problem]
catalog = degenerate_plane
n = 201

[campaign]
trials = 3
checks = causality,lipschitz
seed = 9
"""

GALLERY_CONFIG = """
[thermoplasticity]
m = 2
dx = 0.5
"""


class TestSolve:
    def test_golden_solution(self, tmp_path):
        cfg = write(tmp_path / "run.ini", SCALAR_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "solution.csv").read_text().splitlines()
        assert lines[0] == "t,x0"
        assert len(lines) == 302
        # golden values from the closed-form implicit recursion
        dt = 1e-3
        uk = 0.0
        for k, line in enumerate(lines[1:]):
            t_str, x_str = line.split(",")
            uk = (1.0 + uk / dt) / (1.0 / dt + 1.0)
            assert abs(float(x_str) - uk) <= 1e-12
        report = (out / "report.txt").read_text()
        assert "status = converged" in report

    def test_deterministic_bytes(self, tmp_path):
        cfg = write(tmp_path / "run.ini", SCALAR_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path)])
        assert code == 1
        assert "absent.ini" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path / "bad.ini", "[problem]\ncatalog = scalar_ode\ntypo_key = 1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = write(tmp_path / "dup.ini", "[thermoplasticity]\nm = 2\nm = 3\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_coefficient_keys_are_case_sensitive(self, tmp_path):
        # m (cells) and M (mass coefficient) must not collide
        cfg = write(
            tmp_path / "g.ini",
            "[thermoplasticity]\nm = 2\nM = 1.0,0.2,1.0\n",
        )
        out = tmp_path / "out"
        assert main(["gallery", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        lip = float(next(l for l in text.splitlines() if l.startswith("lip_M0")).split("=")[1])
        assert lip > 0.1  # the time-varying mass coefficient was picked up

    def test_set_override(self, tmp_path):
        cfg = write(tmp_path / "run.ini", SCALAR_CONFIG)
        out = tmp_path / "out"
        assert main([
            "solve", "--config", cfg, "--out", str(out),
            "--set", "solver.fp_tol=1e-9",
        ]) == 0

    def test_yosida_mode_flag(self, tmp_path):
        cfg = write(tmp_path / "run.ini", SCALAR_CONFIG.replace("n = 301", "n = 81"))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--mode", "yosida"]) == 0
        report = (out / "report.txt").read_text()
        assert "yosida_sup_norm" in report


class TestCheckConditions:
    def test_broken_claim_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.ini", BROKEN_C1_CONFIG)
        out = tmp_path / "out"
        assert main(["check-conditions", "--config", cfg, "--out", str(out)]) == 2
        assert "kernel_coercive" in (out / "report.txt").read_text()

    def test_good_material_exits_0(self, tmp_path):
        cfg = write(
            tmp_path / "ok.ini",
            "[material]\nbuilder = constant\nm0 = 1,0;0,0\nm1 = 0,0;0,1\n",
        )
        out = tmp_path / "out"
        assert main(["check-conditions", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "rho_zero" in text

    def test_non_symmetric_m0_is_a_failed_condition(self, tmp_path, capsys):
        cfg = write(tmp_path / "skew.ini",
                    "[material]\nbuilder = constant\nm0 = 1,0.5;0,1\nm1 = 0,0;0,0\n")
        out = tmp_path / "out"
        assert main(["check-conditions", "--config", cfg, "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("condition check failed: ") and "not symmetric" in line
        assert not (out / "report.txt").exists()


class TestCampaign:
    def test_campaign_outputs(self, tmp_path):
        cfg = write(tmp_path / "camp.ini", CAMPAIGN_CONFIG)
        out = tmp_path / "out"
        assert main(["campaign", "--config", cfg, "--out", str(out)]) == 0
        csv = (out / "campaign.csv").read_text()
        assert csv.splitlines()[0] == "trial,check,passed,margin,seed"
        assert len(csv.splitlines()) == 1 + 3 * 2  # trials x checks

    def test_campaign_broken_conditions_exit_2(self, tmp_path):
        cfg = write(tmp_path / "camp.ini", BROKEN_C1_CONFIG + "\n[campaign]\ntrials = 1\n")
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_campaign_determinism(self, tmp_path):
        cfg = write(tmp_path / "camp.ini", CAMPAIGN_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["campaign", "--config", cfg, "--out", str(out1)])
        main(["campaign", "--config", cfg, "--out", str(out2)])
        assert (out1 / "campaign.csv").read_bytes() == (out2 / "campaign.csv").read_bytes()


class TestGallery:
    def test_summary_written(self, tmp_path):
        cfg = write(tmp_path / "g.ini", GALLERY_CONFIG)
        out = tmp_path / "out"
        assert main(["gallery", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "model = thermoplasticity" in text
        assert "state_dim = 22" in text
        assert "kernel_dim = 2" in text
        assert "passed = pass" in text

    def test_gallery_solve_roundtrip(self, tmp_path):
        cfg = write(
            tmp_path / "g.ini",
            GALLERY_CONFIG + "\n[grid]\nn = 31\ndt = 0.001\n\n[forcing]\nkind = window\nvalue = 1.0\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "solution.csv").read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"x{i}" for i in range(22))
        assert len(lines) == 32


class TestExitCodes:
    def test_solver_failure_exit_3(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "hard.ini",
            "[thermoplasticity]\nm = 2\ndx = 0.5\n\n"
            "[grid]\nn = 10\ndt = 0.001\n\n"
            "[forcing]\nkind = constant\nvalue = 1.0\n\n"
            "[solver]\nfp_tol = 1e-14\nfp_max_iter = 3\n",
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "failed" in capsys.readouterr().err

    def test_nonfinite_direct_node_exit_3(self, tmp_path, capsys):
        # a finite forcing of 1.5e308 overflows at node 1 of the linear solve
        cfg = write(tmp_path / "scalar.ini", SCALAR_CONFIG)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--set", "forcing.value=1.5e308"])
        assert code == 3
        assert "direct step 1 did not converge: nonfinite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nonfinite_direct_node_prints_no_numpy_warning(self, tmp_path, capsys):
        # the same run with no errstate of its own: under the suite's
        # filterwarnings = error a numpy RuntimeWarning would end it here
        cfg = write(tmp_path / "scalar.ini", SCALAR_CONFIG)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--set", "forcing.value=1.5e308"])
        assert code == 3
        err = capsys.readouterr().err
        assert "Warning" not in err
        assert "direct step 1 did not converge: nonfinite" in err

    def test_campaign_failures_exit_4(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "camp.ini",
            "[problem]\ncatalog = sign_scalar\nn = 80\n\n"
            "[solver]\nfp_tol = 1e-30\n\n"
            "[campaign]\ntrials = 2\nchecks = oracle_match\n",
        )
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "failing" in capsys.readouterr().err
        # the report says why each check failed
        report = (tmp_path / "o" / "report.txt").read_text()
        errors = [line for line in report.splitlines() if line.startswith("oracle_match.error.")]
        assert len(errors) == 2
        assert all("= StepFailure: " in line and "stalled" in line for line in errors)

    def test_help_lists_config_keys(self, capsys):
        for cmd in ("solve", "check-conditions", "campaign", "gallery"):
            code = main([cmd, "--help"])
            out = capsys.readouterr().out
            assert code == 0
            assert "config sections and keys" in out
            assert "[solver]" in out

    @pytest.mark.parametrize("command, flags", [
        ("solve", {"--mode", "--rho", "--dt"}),
        ("check-conditions", {"--dt"}),
        ("campaign", {"--seed", "--rho", "--dt"}),
        ("gallery", set()),
    ])
    def test_help_lists_exactly_the_flags_a_command_reads(self, capsys, command, flags):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert listed == {"--help", "--config", "--out", "--set"} | flags

    @pytest.mark.parametrize("command, config, extra", [
        ("solve", SCALAR_CONFIG, ("--seed", "7")),
        ("check-conditions", SCALAR_CONFIG, ("--rho", "99")),
        ("check-conditions", SCALAR_CONFIG, ("--mode", "yosida")),
        ("gallery", GALLERY_CONFIG, ("--dt", "0.5")),
    ])
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command, config, extra):
        cfg = write(tmp_path / "run.ini", config)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 1
        assert "unrecognized arguments: " + " ".join(extra) in capsys.readouterr().err
        assert not out.exists()


class TestOutputDirectory:
    """The output directory is made with the first output file, not before the run."""

    CONFIGS = __import__("pathlib").Path(__file__).resolve().parent.parent / "configs"

    @pytest.mark.parametrize("command, config, override, code", [
        ("gallery", "thermoplastic.ini", "solver.mode=direct", 1),
        ("check-conditions", "thermoplastic.ini", "solver.fp_max_iter=3", 1),
        ("campaign", "campaign_degenerate.ini", "campaign.trials=0", 1),
        ("solve", "thermoplastic.ini", "solver.fp_max_iter=1", 3),
    ])
    def test_a_run_that_writes_nothing_leaves_no_directory(self, tmp_path, capsys, command,
                                                           config, override, code):
        # each error is raised inside the command, after the config loaded
        out = tmp_path / "o" / "deeper"
        args = [command, "--config", str(self.CONFIGS / config), "--out", str(out), "--set", override]
        assert main(args) == code
        assert capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_run_that_writes_makes_the_directory(self, tmp_path):
        out = tmp_path / "o" / "deeper"
        assert main(["gallery", "--config", str(self.CONFIGS / "thermoplastic.ini"), "--out", str(out)]) == 0
        assert (out / "report.txt").is_file()

    def test_an_out_path_that_is_a_file_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["solve", "--config", str(self.CONFIGS / "scalar_ode.ini"), "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("i/o error: ")
        assert out.read_text() == ""

    def test_a_two_node_campaign_names_the_unsupported_check(self, tmp_path, capsys):
        # causality needs a cut node strictly inside the grid, which 2 nodes lack
        out = tmp_path / "out"
        args = ["campaign", "--config", str(self.CONFIGS / "campaign_degenerate.ini"), "--out", str(out),
                "--set", "problem.n=2", "--set", "campaign.trials=1"]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid configuration: template 'degenerate_plane' does not support checks ['causality']"]
        assert not out.exists()
