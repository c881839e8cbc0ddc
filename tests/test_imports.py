"""Every name a module imports is used somewhere else in that module.

An AST scan over ``src/chorded`` and ``tests``: a name counts as used when
it appears as a name anywhere in the module (attribute bases included) or
is listed in the module's ``__all__``.  ``__init__.py`` files are skipped,
because their imports are the package's re-exports, and so are
``from __future__`` imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "chorded", ROOT / "tests")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for every imported name that the rest of the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys as system\nfrom a.b import c, d\nprint(c, os.sep)\n"
    assert unused_imports(source) == [(3, "system"), (4, "d")]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for directory in SCANNED
        for path in sorted(directory.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
