"""The package's public names: each one is used, not only exported."""

import ast
from pathlib import Path

import kslab

PACKAGE = Path(kslab.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


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


def test_every_export_is_used_by_the_package_or_the_acceptance_tests():
    """A name that ``kslab/__init__.py`` exports is read somewhere in the
    package beyond ``__init__.py`` (a definition alone does not count), or
    the acceptance tests import it."""
    used = set().union(*(_used_names(_tree(path)) for path in PACKAGE.glob("*.py")
                         if path.name != "__init__.py"))
    used |= _imported_names(_tree(ACCEPTANCE))
    exported = _imported_names(_tree(PACKAGE / "__init__.py"))
    assert exported and sorted(exported - used) == []


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
