"""Every weil2 module imports on its own in a fresh interpreter, so an
import cycle between modules shows as a failure here instead of hiding
behind whichever module a test happened to import first; and every
definition in the package has a caller in the package."""

import ast
import collections
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


def _definitions(tree):
    """(qualified name, node) of every module-level function or class and
    every non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _references(node):
    """Every name the subtree uses: Name ids, Attribute attrs and import
    aliases."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
            if sub.asname:
                out[sub.asname] += 1
    return out


def test_every_definition_has_a_caller():
    """Every definition in weil2 is named somewhere in weil2 outside its
    own body; the console entry point cli.main is the one exemption."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((SRC / "weil2").glob("*.py"))}
    used = sum((_references(t) for t in trees.values()), collections.Counter())
    dead = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if f"{module}.{name}" != "cli.main" \
                    and used[short] <= _references(node)[short]:
                dead.append(f"{module}.{name}")
    assert not dead, dead
