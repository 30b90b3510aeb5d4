"""Every weil2 module imports on its own in a fresh interpreter, so an
import cycle between modules shows as a failure here instead of hiding
behind whichever module a test happened to import first."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "weil2").glob("*.py")
                 if p.stem != "__init__")


def test_every_module_is_listed():
    assert {"cli", "heisenberg", "models", "symplectic", "transport",
            "verify", "weil", "witt"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", f"import weil2.{module}"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
