"""Every module-level import in the package is used, and every module-level
private name is referenced somewhere in the package (stdlib ``ast`` scans)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sakde"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name.split(".")[0]): node.lineno
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    assert [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used] == []


def _private_definitions(node):
    """Module-level ``_private`` names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(node):
    """Names a statement reads: loaded names, attributes and ``from`` imports."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs |= {alias.name for alias in sub.names}
    return refs


def test_no_unreferenced_private_names():
    statements = [(path.name, node, _references(node)) for path in MODULES
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    orphans = []
    for name, node, _ in statements:
        for private in _private_definitions(node):
            # a definition's own body (e.g. a recursive call) does not count
            if not any(private in refs for _, other, refs in statements if other is not node):
                orphans.append(f"{name}:{node.lineno} {private}")
    assert orphans == []
