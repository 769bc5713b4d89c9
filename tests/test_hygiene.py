"""Source hygiene of the `solmem` package, checked on its syntax trees.

No handler may catch everything (a bare `except`, `except Exception` or
`except BaseException`), and every imported name must be used by its
module, or re-exported through `__all__`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "solmem").glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}


def catch_alls(tree: ast.AST) -> list[int]:
    """Lines of handlers that catch everything."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(c, ast.Name) and c.id in CATCH_ALL for c in caught):
            lines.append(node.lineno)
    return lines


def unused_imports(tree: ast.AST) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_catch_all_handlers(path):
    assert catch_alls(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_checks_find_what_they_look_for():
    tree = ast.parse(
        "import os\nfrom a import b, c as d\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    d()\n"
        "try:\n    pass\nexcept BaseException:\n    pass\n"
    )
    assert catch_alls(tree) == [5, 9, 13]
    assert unused_imports(tree) == ["os (line 1)", "b (line 2)"]
