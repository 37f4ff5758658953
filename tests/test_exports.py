"""Every evinc module imports alone with warnings as errors, every name in its __all__
resolves, and each command imports only the modules it runs."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import evinc
import evinc.gallery
import evinc.materials

SRC = Path(evinc.__file__).resolve().parents[1]
CONFIGS = SRC.parent / "configs"
MODULES = ["evinc"] + [f"evinc.{info.name}" for info in pkgutil.iter_modules(evinc.__path__)]

# run in a fresh interpreter, so that each import warning is raised; every
# module is imported with no evinc module loaded, so none leans on another's imports
PROBE = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "evinc" or m.startswith("evinc.")]:
        del sys.modules[loaded]
    module = importlib.import_module(name)
    missing = [key for key in getattr(module, "__all__", ()) if not hasattr(module, key)]
    assert not missing, f"{name}.__all__ names missing {missing}"
"""


def _env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def test_exported_names_resolve():
    assert {"evinc.cli", "evinc.config", "evinc.materials"} <= set(MODULES)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", PROBE, *MODULES],
                          env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_gallery_exports_the_materials_coefficient():
    # the sinusoid lives in materials; callers of the slab builders still find it in gallery
    assert "Coefficient" in evinc.gallery.__all__
    assert evinc.gallery.Coefficient is evinc.materials.Coefficient


# one fresh interpreter runs every case, each from no evinc module loaded,
# and prints the evinc modules that each case leaves loaded
IMPORTS_PROBE = """
import contextlib, io, json, os, sys
out, cases = sys.argv[1], json.loads(sys.argv[2])
loaded = {}
for case, code in cases.items():
    for name in [m for m in sys.modules if m == "evinc" or m.startswith("evinc.")]:
        del sys.modules[name]
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, {"OUT": os.path.join(out, str(len(loaded)))})
    loaded[case] = sorted(m for m in sys.modules if m.startswith("evinc."))
print(json.dumps(loaded))
"""


def _command(*argv):
    return f"import evinc.cli; assert evinc.cli.main([*{list(argv)!r}, '--out', OUT]) == 0"


def _config(name):
    return str(CONFIGS / name)


#: case -> (its code, evinc modules it must load, evinc modules it must not load)
IMPORTS = {
    "import evinc": ("import evinc", set(), set(MODULES[1:])),
    "import evinc.cli": ("import evinc.cli", {"evinc.cli"},
                         {"evinc.harness", "evinc.gallery", "evinc.tensors"}),
    "solve sign_ramp": (_command("solve", "--config", _config("sign_ramp.ini")),
                        {"evinc.solver"}, {"evinc.harness", "evinc.gallery"}),
    "solve scalar_ode": (_command("solve", "--config", _config("scalar_ode.ini")),
                         {"evinc.catalog"}, {"evinc.harness", "evinc.gallery"}),
    "solve thermoplastic": (_command("solve", "--config", _config("thermoplastic.ini")),
                            {"evinc.gallery"}, {"evinc.harness"}),
    "campaign degenerate": (_command("campaign", "--config", _config("campaign_degenerate.ini"),
                                     "--set", "campaign.trials=1"),
                            {"evinc.harness"}, {"evinc.gallery"}),
}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    cases = {case: code for case, (code, _, _) in IMPORTS.items()}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTS_PROBE, str(tmp_path_factory.mktemp("imports")), json.dumps(cases)],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {case: set(modules) for case, modules in json.loads(proc.stdout).items()}


@pytest.mark.parametrize("case", IMPORTS)
def test_a_command_imports_only_what_it_runs(loaded, case):
    _, loads, skips = IMPORTS[case]
    assert loads <= loaded[case]
    assert not skips & loaded[case], f"{case} imports {sorted(skips & loaded[case])}"
