"""Every evinc module imports with warnings as errors, and every name in its __all__ resolves."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import evinc
import evinc.gallery
import evinc.materials

SRC = Path(evinc.__file__).resolve().parents[1]
MODULES = ["evinc"] + [f"evinc.{info.name}" for info in pkgutil.iter_modules(evinc.__path__)]

# run in a fresh interpreter, so that no module is cached and each import warning is raised
PROBE = """
import importlib, sys
for name in sys.argv[1:]:
    module = importlib.import_module(name)
    missing = [key for key in getattr(module, "__all__", ()) if not hasattr(module, key)]
    assert not missing, f"{name}.__all__ names missing {missing}"
"""


def test_exported_names_resolve():
    assert {"evinc.cli", "evinc.config", "evinc.materials"} <= set(MODULES)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", PROBE, *MODULES],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_gallery_exports_the_materials_coefficient():
    # the sinusoid lives in materials; callers of the slab builders still find it in gallery
    assert "Coefficient" in evinc.gallery.__all__
    assert evinc.gallery.Coefficient is evinc.materials.Coefficient
