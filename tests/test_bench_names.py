"""Every solmem name the benchmark calls or patches still exists.

`perfbench/pipeline.py` calls solmem's stages by name (`STAGES`) and
`perfbench/spans.py` wraps functions and methods in place
(`IMPORT_SITES`), so a rename would otherwise show up only when the
benchmark runs. Both tables are read from the benchmark's source, not
imported, so these name checks depend on nothing else in `perfbench/`.
The benchmark's own tests, which pin its deterministic counts, run in a
subprocess.
"""

import ast
import importlib
import os
import subprocess
import sys
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


def test_benchmark_tests_pass():
    """`perfbench`'s tests pin counts such as the corpus SMT bytes per
    pass. They run in their own process, since `pipeline.load_stages`
    purges `solmem.*` from `sys.modules`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=PERFBENCH.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
