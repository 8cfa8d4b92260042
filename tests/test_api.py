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
