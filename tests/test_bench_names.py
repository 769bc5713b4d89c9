"""Every solmem name the benchmark calls or patches still exists.

`perfbench/pipeline.py` calls solmem's stages by name (`STAGES`) and
`perfbench/spans.py` wraps functions and methods in place
(`IMPORT_SITES`), so a rename would otherwise show up only when the
benchmark runs. Both tables are read from the benchmark's source, not
imported, so this test depends on nothing else in `perfbench/`.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _table(filename: str, name: str) -> tuple:
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} has no {name}")


NAMES = [(module, fn) for fn, module, _ in _table("pipeline.py", "STAGES")] + [
    (module, attr) for module, attr, _, _ in _table("spans.py", "IMPORT_SITES")
]


@pytest.mark.parametrize("module, attr", NAMES)
def test_benchmark_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
