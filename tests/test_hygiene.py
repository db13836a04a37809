"""Every name a module under ``src/edim`` imports is used in that module,
every module-level ``_private`` definition is referenced somewhere in the
package besides its own definition, every function, class and method the
package defines is referenced somewhere in the repository, no library
module imports ``unipoly`` or ``dataclasses``, the engine imports nothing
from ``pgl2`` and no ``reduce``, no module reads the halves of a product,
and ``import edim`` loads none of the slow standard modules."""

import ast
import collections
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def _imports(tree, module):
    """Whether tree imports the module or a name from it."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if any(module in name.split(".") for name in names):
                return True
    return False


def _importers(module):
    return sorted(p.name for p in SRC.glob("*.py") if _imports(
        ast.parse(p.read_text(encoding="utf-8"), filename=str(p)), module))


def test_no_library_module_imports_unipoly():
    """``unipoly`` is factoring for the tests' oracles.  Only the package
    ``__init__`` imports it, so that perfbench/tracer.py finds it in
    ``sys.modules``."""
    assert _importers("unipoly") == ["__init__.py"]


def test_engine_imports_nothing_from_pgl2():
    """R-PGL-OBS reads Dickson's list of the subgroups of PGL_2(F_q), so
    ``bound`` builds no field context and no PGL_2 kernel; ``pgl2``'s
    search is the list's test oracle and the ``edim pgl2`` commands', and
    no library module but the package ``__init__`` and the CLI imports it."""
    assert _importers("pgl2") == ["__init__.py", "cli.py"]
    assert "edengine.py" not in _importers("fq_context")


def _attribute_readers(*names):
    return sorted(p.name for p in SRC.glob("*.py") if any(
        isinstance(n, ast.Attribute) and n.attr in names
        for n in ast.walk(ast.parse(p.read_text(encoding="utf-8"),
                                    filename=str(p)))))


def test_products_are_flat():
    """A ``Product`` holds one flat tuple of factors: no module reads a
    ``left`` or ``right`` half, and the engine folds no product tree with
    ``functools.reduce``."""
    assert _attribute_readers("left", "right") == []
    engine = ast.parse((SRC / "edengine.py").read_text(encoding="utf-8"))
    assert not any(isinstance(n, ast.ImportFrom) and n.module == "functools"
                   and "reduce" in [a.name for a in n.names]
                   for n in ast.walk(engine))


def test_no_module_imports_dataclasses():
    """The value classes are ``record.Record``s: ``dataclasses`` generates
    and compiles source for each class at import."""
    assert _importers("dataclasses") == []


def test_import_edim_loads_no_slow_standard_module():
    """``dataclasses`` and ``inspect`` cost a fresh ``import edim`` tens of
    milliseconds; ``argparse`` (with ``gettext``) is only for the CLI, which
    imports it in ``cli.build_parser``."""
    code = ("import sys; sys.path.insert(0, %r); import edim; "
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'} "
            "& set(sys.modules)))" % str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def _references(node):
    """How often each name is read, imported or used as an attribute."""
    found = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name] += 1
    return found


def _private_definitions(tree):
    """(name, node) for each module-level ``_private`` definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    total = collections.Counter()
    for tree in trees.values():
        total.update(_references(tree))
    unused = [(module, name) for module, tree in trees.items()
              for name, node in _private_definitions(tree)
              if total[name] == _references(node)[name]]
    assert unused == []


# argparse calls the override itself (``_Parser.error``, defined in
# ``cli.build_parser``); nothing in the repository names it
CALLED_BY_LIBRARIES = {("cli.py", "error")}


def test_every_definition_is_referenced():
    """A function, class or method defined under ``src/edim`` is read,
    imported or used as an attribute in ``src/edim``, ``tests``, ``demos``
    or ``perfbench``, outside its own body.  Dunder methods are exempt: the
    interpreter calls them by protocol."""
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    trees = {p.name: parse(p) for p in sorted(SRC.glob("*.py"))}
    total = collections.Counter()
    for tree in trees.values():
        total.update(_references(tree))
    for folder in ("tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            total.update(_references(parse(path)))
    unused = [(module, node.name) for module, tree in trees.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not (node.name.startswith("__")
                       and node.name.endswith("__"))
              and (module, node.name) not in CALLED_BY_LIBRARIES
              and total[node.name] == _references(node)[node.name]]
    assert unused == []
