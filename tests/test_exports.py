"""The package exports only what it runs: every name in the ``__all__`` of
a package module is loaded somewhere in the package modules or the demos.
A function that only the tests call belongs with the tests (see
``tests/oracles.py`` and ``tests/jet_oracle.py``)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    path
    for path in sorted((ROOT / "src" / "confcurves").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    if path.name != "__init__.py"
]


def exports(tree):
    """The names of a module's ``__all__``, none if it has no such list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def loaded(tree):
    """Every name read in a module, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_is_used_by_the_package_or_the_demos():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert any(path.parent.name == "demos" for path in trees)
    used = set().union(*map(loaded, trees.values()))
    unused = [f"{path.stem}.{name}" for path, tree in trees.items() for name in exports(tree) if name not in used]
    assert unused == []
