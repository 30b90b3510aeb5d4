"""Every weil2 module imports on its own in a fresh interpreter, so an
import cycle between modules shows as a failure here instead of hiding
behind whichever module a test happened to import first; the commands that
need no suite import none; every definition in the package has a caller
in the package; and every attribute it stores on self is read in it."""

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


# a command that runs no suite loads none of these
SUITE_MODULES = {"weil2.verify", "weil2.heisenberg", "weil2.weil",
                 "weil2.transport", "dataclasses"}
FOOTPRINT = """\
import contextlib, io, sys
from weil2.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main({argv!r})
print(rc, *sorted(sys.modules))
"""


@pytest.mark.parametrize("argv", [
    ["cocycle-table", "--d", "1", "--n", "1"],
    ["ring-info", "--d", "1"],
    ["witt", "gauss", "1"],
    pytest.param(["witt", "classify", "[[2,1],[1,2]]"], id="witt-classify"),
    pytest.param(["witt", "isometric", "[[1]]", "[[3]]"], id="witt-isometric"),
], ids=lambda argv: argv[0])
def test_light_commands_import_no_suite(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT.format(argv=argv)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, *loaded = proc.stdout.split()
    assert rc == "0"
    assert "weil2.cli" in loaded
    assert not SUITE_MODULES & set(loaded), sorted(SUITE_MODULES & set(loaded))


def test_verify_help_lists_every_suite(capsys):
    from weil2 import verify
    from weil2.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    names = ("witt", "cocycle", "trivialization", "splitting", "weil")
    assert verify.SUITE_NAMES == names
    assert "{" + ",".join(names + ("all",)) + "}" in out


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


def test_every_stored_attribute_is_read():
    """Every `self.X = ...` in weil2 has a load of `.X` somewhere in weil2,
    on any object: a stored attribute that nothing reads is dead code that
    the caller check above cannot see."""
    stored, read = {}, set()
    for path in sorted((SRC / "weil2").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                stored.setdefault(node.attr, f"{path.stem}:{node.lineno}")
    unread = sorted(f"{where} self.{attr}" for attr, where in stored.items()
                    if attr not in read)
    assert stored and not unread, unread


# the only places weil2 may name Cyc8 or reach to_cyc or monomial_cyc: the
# output encoders
CYC8_SCOPES = {"cli._gaussian_cyc", "cli._monomial_json", "cli._matrix_json",
               "models.monomial_cyc", "models.ZiMatrix.to_cyc"}


def _scopes(tree):
    """(name, node) of each top-level statement of a module: the methods
    of a class one by one as Class.method, an assignment by its target."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '?')}", item
        elif isinstance(node, ast.Assign):
            yield ",".join(map(ast.unparse, node.targets)), node
        else:
            yield getattr(node, "name", type(node).__name__), node


def test_cyc8_only_at_the_output_edge():
    """Outside cyclotomic, a Cyc8 is built, and to_cyc or monomial_cyc
    called, only in CYC8_SCOPES: cocycle values and Gauss sums are
    Gaussian integers (re, im), operator scalars exponent pairs, and Q(zeta8)
    is where they meet for output."""
    found = set()
    for path in sorted((SRC / "weil2").glob("*.py")):
        if path.stem == "cyclotomic":
            continue
        for name, node in _scopes(ast.parse(path.read_text())):
            if any(isinstance(sub, ast.Name) and sub.id in ("Cyc8", "monomial_cyc")
                   or isinstance(sub, ast.Attribute) and sub.attr == "to_cyc"
                   for sub in ast.walk(node)):
                found.add(f"{path.stem}.{name}")
    assert found == CYC8_SCOPES


# the only place outside galois that may name k's multiplication or
# inverse: x^d mod the modulus for _multiples, from which every mask and
# every packed multiple is built
FIELD_SCOPES = {"symplectic.SympSpace._xi_shift"}


def _name_scopes(tree, names):
    """(scope, name) of each use of one of `names` in a module: the
    innermost enclosing Class.function, or Class.attr for a use inside an
    assignment to self.attr."""
    def walk(node, scope, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            scope = f"{cls}.{node.name}" if cls else node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    scope = f"{cls}.{target.attr}"
        name = node.attr if isinstance(node, ast.Attribute) \
            else node.id if isinstance(node, ast.Name) else None
        if name in names:
            yield scope, name
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope, cls)
    return walk(tree, "<module>", None)


# the generic elimination kernel, which only the tests keep (tests/kref.py)
KERNEL_NAMES = ("ScalarOps", "ring_ops", "eliminate", "solve_many",
                "unit_vectors", "rref", "rref_ring")


def test_k_arithmetic_only_in_galois_and_the_forms():
    """Outside galois, field_mul and field_inv are named only in
    FIELD_SCOPES: k-linear algebra, the forms and H(V) run on packed
    vectors through _multiples, the form masks and the F2 echelon, not
    coordinate by coordinate.  And no weil2 module names the elimination
    kernel: R-linear systems are solved from k by one Newton step
    (SympSpace._ring_solve)."""
    found, kernel = set(), set()
    for path in sorted((SRC / "weil2").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem != "galois":
            found |= {f"{path.stem}.{scope}"
                      for scope, _ in _name_scopes(tree, ("field_mul", "field_inv"))}
        kernel |= {f"{path.stem}.{scope}: {name}"
                   for scope, name in _name_scopes(tree, KERNEL_NAMES)}
        kernel |= {f"{path.stem}: def {node.name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name in KERNEL_NAMES}
    assert found == FIELD_SCOPES
    assert not kernel, sorted(kernel)


# the only places weil2 may correct a family against duals or solve for
# them: a free lift of canonical rows is a closed form (SympSpace._lift_at);
# heisenberg.symplectic_lift_matrix lifts rows that are not in RREF
SOLVE_SCOPES = {
    "make_isotropic": {"heisenberg.symplectic_lift_matrix"},
    "_dual_family": {"heisenberg.symplectic_lift_matrix"},
    "_ring_solve": {"symplectic.SympSpace._projection",
                    "symplectic.SympSpace._dual_family",
                    "symplectic.SympSpace.oriented_transform"},
}


def test_lifts_of_canonical_rows_solve_nothing():
    """Outside their definitions, make_isotropic and _dual_family are named
    only in heisenberg.symplectic_lift_matrix, and _ring_solve only in the
    projection onto N along L, the solved dual family and the moved
    oriented Lagrangian: no free lift of canonical rows solves a system or
    needs a dual family."""
    found = collections.defaultdict(set)
    for path in sorted((SRC / "weil2").glob("*.py")):
        for scope, name in _name_scopes(ast.parse(path.read_text()), SOLVE_SCOPES):
            found[name].add(f"{path.stem}.{scope}")
    assert found == SOLVE_SCOPES


# the packed Z[i] row format of models' product kernel
ZI_PACKING = {"_zi_rows", "_packed", "_slot_width", "_product_bits"}


def test_zi_packing_stays_in_models():
    """No weil2 module but models names the packed Z[i] rows: a comparison
    of operator products is a ZiMatrix method (product_ratio,
    intertwines), so one module knows the format."""
    found = set()
    for path in sorted((SRC / "weil2").glob("*.py")):
        if path.stem != "models":
            refs = _references(ast.parse(path.read_text()))
            found |= {f"{path.stem}.{name}" for name in ZI_PACKING & set(refs)}
    assert not found, sorted(found)
