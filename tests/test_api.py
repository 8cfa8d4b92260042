"""The package's public names: each one is used, not only exported."""

import ast
import pkgutil
import re
from pathlib import Path

import kslab

PACKAGE = Path(kslab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
CALLERS = ("perfbench", "tools", "tests")  # the directories of code that imports the package


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text())


def _imported_names(tree: ast.AST) -> set[str]:
    """Names a module binds by ``from ... import``, before any ``as``."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _used_names(tree: ast.AST) -> set[str]:
    """Names a module reads, as a bare name, an attribute or an import."""
    used = _imported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _top_level_reads(tree: ast.AST) -> set[str]:
    """Names a file reads from the package's top level: ``kslab.<name>``,
    and ``from kslab import <name>`` where the name is not a submodule."""
    modules = {m.name for m in pkgutil.iter_modules(kslab.__path__)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "kslab":
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "kslab" and not node.level:
            reads |= {alias.name for alias in node.names if alias.name not in modules}
    return reads


def test_every_export_is_read_from_the_top_level_by_a_caller():
    """A name that ``kslab/__init__.py`` imports is read as ``kslab.<name>``,
    or imported from ``kslab`` where it is not a submodule, by a file under
    ``perfbench/``, ``tools/`` or ``tests/``, or by README. A name read only
    from its own module does not count."""
    reads = set(re.findall(r"\bkslab\.(\w+)", (ROOT / "README.md").read_text()))
    for path in sorted(p for caller in CALLERS for p in (ROOT / caller).glob("*.py")):
        reads |= _top_level_reads(_tree(path))
    exported = _imported_names(_tree(PACKAGE / "__init__.py"))
    assert exported and sorted(exported - reads) == []


def test_every_public_definition_is_read_elsewhere_in_the_package_or_by_the_acceptance_tests():
    """A public top-level function or class of a package module is read
    outside its own definition, in its module or another one
    (``__init__.py``'s re-export does not count), or the acceptance tests
    import it."""
    trees = {path.name: _tree(path) for path in PACKAGE.glob("*.py")
             if path.name != "__init__.py"}
    acceptance = _imported_names(_tree(ACCEPTANCE))
    unused = []
    for name, tree in sorted(trees.items()):
        used = acceptance.union(*(_used_names(other) for other_name, other in trees.items()
                                  if other_name != name))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
                if node.name not in used | _used_names(rest):
                    unused.append(f"{name}:{node.name}")
    assert trees and unused == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_a_private_name_of_another():
    """A package module imports no private name from another package module
    and reads none as ``module._name``. Attributes of other objects, such
    as a NamedTuple's ``_fields`` and ``_replace``, are not module names."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        modules = set()  # the names this module binds to package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
                modules |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level:
                reads += [f"{path.name}: from .{node.module} import {alias.name}"
                          for alias in node.names if _private(alias.name)]
        reads += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert reads == []
