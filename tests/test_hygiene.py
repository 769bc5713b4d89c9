"""Source hygiene of the `solmem` package, checked on its syntax trees.

No handler, in the package or in its tests, may catch everything (a bare
`except`, `except Exception` or `except BaseException`), every imported
name must be used by its module, or re-exported through `__all__`, and
every public function and method must have a caller in the pipeline or
the benchmark, so that helpers only tests need live in `tests/`. The
reference interpreter imports nothing from the translator's side of the
pipeline, so that a fault there cannot hide from differential testing,
and reads no storage tree edge's ordinal: it takes pointer arguments as
access paths and checks them against the declared types, so the
translator alone maps ordinals to edges. The translator reads its
`--unroll` bound in `_array_bound` alone, and spells `use --unroll`
once, so no other site can restate the bound rule. The solver command
has one source: no function takes a `solver_cmd` parameter, and outside
docstrings only `solver.default_solver_command` spells `SOLMEM_SOLVER`.
IR operators have one vocabulary: every operator the package passes to
`BinOp` or `UnOp` as a literal, and every operator the translator maps
a source operator to, is one the SMT-LIB printer and the IR evaluator
know. Every walker's
dispatch table has exactly one handler per IR expression class, so a forgotten node is caught here
and not at run time. No concrete syntax-tree node or type class of
`sol_ast` or `ir` is subclassed, since the walkers dispatch on a node's
exact class and interning keys a type by its exact class, and every type
class is interned, slotted and compares by identity. No module of the
package imports `dataclasses`: records are written out (`records`). The
names the translator invents are spelled only where it invents them. No
nested function refers to its own name, so that no closure holds itself
in a reference cycle. README.md names every option of the command line,
and its Usage section names no option that the command line lacks, so a
removed option cannot linger in the docs. Every `read_text`,
`write_text` and `open` of the package names `encoding="utf-8"`, so no
file means what the locale makes of it. Every text that
`tests/mutants.py` replaces still occurs exactly once in its module, and
each of its `PINS` ids names a test function its file defines.
Within a module, each diagnostic text is raised from one site, so the
rule that decides it is stated once. The stage chain has one owner: no
module nests `normalize_lhs(…)` in `to_ssa(…)` or `vc_gen(…)` in
`emit_smtlib(…)` outside `verify.ssa_form` and `verify.vc_script`, bar
the test that watches a paused stage run on its own. The collector has
one owner too: no module of the package but `gcpause.py` calls
`gc.collect`, `gc.freeze`, `gc.unfreeze`, `gc.disable` or `gc.enable`,
so the pause-and-promote policy is stated once. The parser's hot path
stays off Python's slow protocols: no module of the package imports
`enum`, no `sol_ast` constructor declares a keyword-only parameter, and
the parser passes no keyword argument to a `sol_ast` class. A failure
has one path: `RecursionError` is caught only where it is graded
(`cli.main`, the two harness workers) and in `verify_translated`, whose
per-assert catch keeps a function's other verdicts, and no `cmd_*`
function of the CLI returns 2 itself, since `main` prints every error.
Test inputs have one home: no module of `tests/` imports a `test_*`
module, and only `tests/sources.py` globs or names the corpus directory.
The differential has one home too: outside `PAIRING_SITES`, no function
of `tests/` calls `eval_ir` and also `run_constructor` or
`exec_function`, so every comparison of the two sides goes through
`irserialize.differential` and compares whole storage. A process has
one launcher: outside `sources.run_cli`, no module of `tests/` spells
the CLI module `solmem.cli` as a string, and outside
`stub_solver.command` none spells the stub solver's script, so every
CLI launch gets one fixed environment and writes no bytecode.
"""

import argparse
import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import irsorts
import mutants
import pytest
import sources
import stub_solver
from solmem import cli, ir, ireval, smtlib, sol_ast, ssa, translate
from solmem.interning import Interned
from solmem.ir import IrExpr, UnOp

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "solmem").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# Where a caller may live: the package's modules (not the `__init__.py`
# re-exports) and the benchmark, whose `STAGES` and `IMPORT_SITES`
# tables name what they call in strings.
CALLERS = [p for p in SOURCES if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}
# The stems of the names the translator invents (datatypes, heaps, default
# contexts, the allocation counter), and the modules that spell them.
INVENTED = ("StorStruct", "MemStruct", "structHeap", "StorArr", "MemArr", "arrHeap", "defaultctx", "$alloc")
NAMERS = {"translate.py", "sol_ast.py"}
# The source diagnostics whose message texts are stated at one site each.
DIAGNOSTICS = {"ParseError", "ResolveError", "UnsupportedError"}
# Each stage call that takes another stage's result as written: the
# outer callee and the inner one. `verify` composes them once.
CHAINS = {"to_ssa": "normalize_lhs", "emit_smtlib": "vc_gen"}
# (module, top-level definition) of each place that may write a chain out:
# its owners, and the test that times `to_ssa` unwrapped of its pause.
CHAIN_SITES = {
    ("verify.py", "ssa_form"), ("verify.py", "vc_script"),
    ("test_gc.py", "test_no_collection_starts_inside_a_paused_stage"),
}
# The modules that turn a resolved contract into IR and SMT-LIB or
# evaluate IR; `oracle.py` must not import them.
TRANSLATOR_SIDE = {"translate", "ir", "normalize", "ssa", "vcgen", "smtlib", "ireval"}
# (module, innermost function) of each handler that may catch
# `RecursionError`: the CLI's failure path, the corpus and fuzz workers,
# and the per-assert VC printing.
RECURSION_CATCHERS = {
    ("cli.py", "main"), ("harness.py", "run_test"), ("harness.py", "run_one"), ("verify.py", "verify_translated"),
}
# The `gc` functions that change the collector's state or its
# generations; `gcpause.py` alone calls them.
COLLECTOR_CALLS = {"collect", "freeze", "unfreeze", "disable", "enable"}
# The functions of `tests/` that run the interpreter and the IR evaluator
# side by side: the differential itself, a run of every stage that
# compares nothing, and the one deliberate disagreement (under an unroll
# bound the IR assumes what the interpreter does not).
PAIRING_SITES = {
    ("irserialize.py", "differential"), ("test_gc.py", "run_everything"),
    ("test_translate.py", "test_unroll_bounds_lengths_instead_of_covering_them"),
}
# The text that names each process a test starts, and its one launcher;
# derived, so that this table spells neither text.
LAUNCHERS = {cli.__name__: sources.run_cli, Path(stub_solver.__file__).name: stub_solver.command}


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


def imported_modules(tree: ast.AST) -> set[str]:
    """Names of the package modules a module imports, however spelled:
    `from .x import …`, `from . import x`, `import solmem.x` and
    `from solmem import x`. Other imports are kept under their names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("solmem.") for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                module = module.removeprefix("solmem").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
    return found


def public_definitions(tree: ast.Module) -> list[ast.FunctionDef]:
    """Public top-level functions and public methods of top-level classes."""
    found = []
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        found += [
            d for d in body
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not d.name.startswith("_")
        ]
    return found


def references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name, attribute, import alias and word of a
    non-docstring string constant."""
    docstrings = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found += [(part, node.lineno) for part in node.name.split(".")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            found += [(word, node.lineno) for word in re.findall(r"\w+", node.value)]
    return found


def uncalled(definitions: dict[str, ast.Module], callers: dict[str, ast.Module]) -> list[str]:
    """`file:name` of each public definition that no caller references
    outside the definition's own body."""
    lines_by_name: dict[str, list[tuple[str, int]]] = {}
    for path, tree in callers.items():
        for name, line in references(tree):
            lines_by_name.setdefault(name, []).append((path, line))
    out = []
    for path, tree in definitions.items():
        for d in public_definitions(tree):
            if not any(
                p != path or not d.lineno <= line <= d.end_lineno
                for p, line in lines_by_name.get(d.name, ())
            ):
                out.append(f"{path}:{d.name}")
    return out


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
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


def self_referencing_closures(tree: ast.Module) -> list[str]:
    """Qualified names of the functions defined inside a function that
    name themselves, as a recursive closure does: the closure holds its
    own cell, a reference cycle that keeps everything it captures alive
    until the cyclic collector runs."""
    found = []
    stack: list[tuple[ast.AST, str, bool]] = [(tree, "", False)]
    while stack:
        node, prefix, in_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if in_function and any(
                    isinstance(n, ast.Name) and n.id == child.name for stmt in child.body for n in ast.walk(stmt)
                ):
                    found.append(name)
                stack.append((child, f"{name}.<locals>.", True))
            elif isinstance(child, ast.ClassDef):
                # a method's name is not in scope inside the method
                stack.append((child, f"{prefix}{child.name}.", False))
            else:
                stack.append((child, prefix, in_function))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_nested_function_names_itself(path):
    assert self_referencing_closures(ast.parse(path.read_text())) == []


def test_closure_check_finds_what_it_looks_for():
    tree = ast.parse(
        "def top(n):\n    return top(n - 1)\n"
        "class K:\n"
        "    def method(self):\n"
        "        def walk(x):\n            return [walk(y) for y in x]\n"
        "        def leaf(x):\n            return x\n"
        "        return walk, leaf, self.method\n"
        "def outer():\n"
        "    class Inner:\n        def again(self):\n            return again\n"
        "    async def poll():\n        await poll()\n"
        "    return Inner, poll\n"
    )
    assert self_referencing_closures(tree) == ["K.method.<locals>.walk", "outer.<locals>.poll"]


def spelled_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(stem, line) of each invented-name stem in a string constant,
    docstrings and the literal parts of f-strings included."""
    return [
        (stem, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for stem in INVENTED
        if stem in node.value
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in NAMERS], ids=lambda p: p.name)
def test_invented_names_are_spelled_only_where_they_are_invented(path):
    assert spelled_names(ast.parse(path.read_text())) == []


def test_spelling_check_finds_what_it_looks_for():
    tree = ast.parse('"""a StorArr$int"""\nx = f"arrHeap${y}"\nz = ("$alloc", "alloc", StorStruct)\n')
    assert spelled_names(tree) == [("StorArr", 1), ("arrHeap", 2), ("$alloc", 3)]
    assert all(spelled_names(ast.parse((ROOT / "src" / "solmem" / name).read_text())) for name in NAMERS)


def test_oracle_imports_nothing_from_the_translator_side():
    tree = ast.parse((ROOT / "src" / "solmem" / "oracle.py").read_text())
    assert imported_modules(tree) & TRANSLATOR_SIDE == set()


def attribute_uses(tree: ast.AST, attr: str) -> list[int]:
    """Lines that read or write an attribute named `attr`, other than a
    record's own field set as `self.attr = ...`."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
        and not (isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name) and node.value.id == "self")
    )


def test_oracle_reads_no_edge_ordinal():
    tree = ast.parse((ROOT / "src" / "solmem" / "oracle.py").read_text())
    assert attribute_uses(tree, "ordinal") == []


def test_attribute_check_finds_what_it_looks_for():
    tree = ast.parse(
        "ordinal = 1\nx = edge.ordinal\ndef f(ordinal): return node.edges[ordinal].label\n"
        "class R:\n    def __init__(self, ordinal):\n        self.ordinal = ordinal\n        edge.ordinal = 0\n"
    )
    assert attribute_uses(tree, "ordinal") == [2, 7]
    assert attribute_uses(tree, "label") == [3]


def unencoded_text_io(tree: ast.AST) -> list[int]:
    """Lines of each `read_text`, `write_text` or `open` call, the
    built-in or a method (`os.open` opens no text file), that does not
    pass `encoding="utf-8"`."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute) and node.func.attr in ("read_text", "write_text", "open")
            and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "os")
        )
        and not any(k.arg == "encoding" and isinstance(k.value, ast.Constant) and k.value.value == "utf-8"
                    for k in node.keywords)
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_text_file_is_read_and_written_as_utf8(path):
    assert unencoded_text_io(ast.parse(path.read_text())) == []


def test_encoding_check_finds_what_it_looks_for():
    tree = ast.parse(
        "import os\nfrom pathlib import Path\np = Path('x')\n"
        "text = p.read_text()\np.write_text(text, encoding='utf-8')\n"
        "with open(p, 'w') as f:\n    f.write(text)\n"
        "os.dup2(os.open(os.devnull, os.O_WRONLY), 1)\n"
        "p.open(encoding='latin-1').close()\nPath('y').write_text(text)\n"
    )
    assert unencoded_text_io(tree) == [4, 6, 9, 10]


def test_the_unroll_bound_is_read_in_one_place():
    source = (ROOT / "src" / "solmem" / "translate.py").read_text()
    tree = ast.parse(source)
    bound = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_array_bound")
    reads = attribute_uses(tree, "unroll")
    assert reads and all(bound.lineno <= line <= bound.end_lineno for line in reads), reads
    assert source.count("use --unroll") == 1


def solver_command_sources(trees: dict[str, ast.Module]) -> list[str]:
    """`module:function` for each function of `trees` (keyed by file
    name) that takes a `solver_cmd` parameter, and `module:line` for each
    string, docstrings aside, that spells `SOLMEM_SOLVER` outside
    `default_solver_command` of `solver.py`."""
    found = []
    for module, tree in trees.items():
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
                allowed.add(node.body[0].value)
            if isinstance(node, ast.FunctionDef):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(a.arg == "solver_cmd" for a in params):
                    found.append(f"{module}:{node.name}")
                if (module, node.name) == ("solver.py", "default_solver_command"):
                    allowed.update(ast.walk(node))
        found += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and "SOLMEM_SOLVER" in str(node.value) and node not in allowed]
    return found


def test_the_solver_command_has_one_source():
    assert solver_command_sources({p.name: ast.parse(p.read_text()) for p in SOURCES}) == []


def test_solver_command_check_finds_what_it_looks_for():
    """The signatures the `solver_cmd` chain had, and strings that name
    the variable in a docstring, in its one reader and elsewhere."""
    solver = ast.parse(
        '"""Reads SOLMEM_SOLVER."""\n'
        "def default_solver_command():\n"
        '    """SOLMEM_SOLVER, else PATH."""\n'
        '    return os.environ.get("SOLMEM_SOLVER") or "set SOLMEM_SOLVER"\n'
        "def _command(solver_cmd: str | None) -> list[str]: pass\n"
        "def check(script, timeout_seconds=60.0, solver_cmd=None): pass\n"
        "def query(script, timeout_seconds=60.0, solver_cmd=None): pass\n"
        'HINT = f"or set SOLMEM_SOLVER {x}"\n'
    )
    verify = ast.parse(
        "def verify_translated(tf, solver_cmd=None, timeout=60.0): pass\n"
        "def verify_source(text, solver_cmd=None, timeout=60.0, unroll=None): pass\n"
    )
    harness = ast.parse(
        "def run_test(path, solver_cmd=None, timeout=60.0, unroll=None): pass\n"
        "def run_corpus(corpus_dir, solver_cmd=None, timeout=60.0, unroll=None):\n"
        "    return map(lambda item: run_test(item, solver_cmd), [])\n"
        "def run_fuzz(seeds, size_budget=10, *, solver_cmd=None, timeout=60.0): pass\n"
        "class K:\n"
        '    """Set SOLMEM_SOLVER."""\n'
        "    def default_solver_command(self):\n"
        '        return os.environ["SOLMEM_SOLVER"]\n'
    )
    trees = {"solver.py": solver, "verify.py": verify, "harness.py": harness}
    assert solver_command_sources(trees) == [
        "solver.py:_command", "solver.py:check", "solver.py:query", "solver.py:8",
        "verify.py:verify_translated", "verify.py:verify_source",
        "harness.py:run_test", "harness.py:run_corpus", "harness.py:run_fuzz", "harness.py:8",
    ]


def operator_literals(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, class, operator) of each literal operator passed to
    `BinOp(...)` or `UnOp(...)`; both branches of a conditional count."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in ("BinOp", "UnOp"):
            op = node.args[0]
            choices = (op.body, op.orelse) if isinstance(op, ast.IfExp) else (op,)
            found += [(node.lineno, name, c.value) for c in choices if isinstance(c, ast.Constant)]
    return sorted(found)


def unknown_operators(found: list[tuple[object, str, str]]) -> list[str]:
    """Those of `found` that the SMT-LIB printer, or for a binary
    operator also the IR evaluator, has no entry for."""
    known = {"BinOp": smtlib._OPS.keys() & ireval._BINOPS.keys(), "UnOp": smtlib._UNOPS.keys()}
    return [f"{line}: {name}({op!r})" for line, name, op in found if op not in known[name]]


def test_ir_operators_have_one_vocabulary():
    found = [
        (f"{path.name}:{line}", name, op)
        for path in SOURCES for line, name, op in operator_literals(ast.parse(path.read_text()))
    ]
    assert {op for _, _, op in found} >= {"+", "-", "==", "<", "<=", "and", "or", "not"}
    assert unknown_operators(found) == []
    assert unknown_operators([("translate._BINOPS", "BinOp", op) for op in translate._BINOPS.values()]) == []


def test_operator_check_finds_what_it_looks_for():
    tree = ast.parse(
        'BinOp("<==", a, b)\nir.BinOp("<=", a, b)\nUnOp("not" if c else "neg!", a)\n'
        'BinOp(op, a, b)\nf("<==")\nUnOp("!=", a)\n'
    )
    assert operator_literals(tree) == [
        (1, "BinOp", "<=="), (2, "BinOp", "<="), (3, "UnOp", "neg!"), (3, "UnOp", "not"), (6, "UnOp", "!="),
    ]
    assert unknown_operators(operator_literals(tree)) == ["1: BinOp('<==')", "3: UnOp('neg!')", "6: UnOp('!=')"]


def test_import_check_finds_what_it_looks_for():
    tree = ast.parse(
        "from .ir import Ite\nfrom . import ssa\nimport solmem.vcgen\n"
        "from solmem import smtlib, errors\nfrom solmem.sol_ast import Loc\n"
        "from ..translate import x\nfrom dataclasses import field\n"
    )
    assert imported_modules(tree) & TRANSLATOR_SIDE == {"ir", "ssa", "vcgen", "smtlib", "translate"}
    assert "dataclasses" in imported_modules(tree)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """Records are written out: `@dataclass` generates and compiles each
    class's methods again at every import."""
    assert "dataclasses" not in imported_modules(ast.parse(path.read_text()))


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """A one-file `solmem verify` pays for every module `solmem.cli`
    imports, in a fresh interpreter."""
    code = "import sys, solmem.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _trees(paths: list[Path]) -> dict[str, ast.Module]:
    return {str(p.relative_to(ROOT)): ast.parse(p.read_text()) for p in paths}


def test_every_public_definition_has_a_caller():
    assert uncalled(_trees(SOURCES), _trees(CALLERS)) == []


def test_caller_check_finds_what_it_looks_for():
    module = ast.parse(
        "def called(): pass\n"
        "def imported(): pass\n"
        "def named_in_a_table(): pass\n"
        "def named_in_a_docstring(): pass\n"
        "def recursive():\n    recursive()\n"
        "def _private(): pass\n"
        "class K:\n"
        "    def method(self): pass\n"
        "    def unused(self):\n        self.unused()\n"
    )
    caller = ast.parse(
        '"""named_in_a_docstring"""\n'
        "from m import imported\n"
        "TABLE = ('m', 'K.named_in_a_table')\n"
        "called()\n"
        "K().method()\n"
    )
    assert uncalled({"m.py": module}, {"m.py": module, "c.py": caller}) == [
        "m.py:named_in_a_docstring",
        "m.py:recursive",
        "m.py:unused",
    ]


def leaf_classes(root: type) -> set[type]:
    """The classes below `root`, collected recursively through
    `__subclasses__`, that have no subclasses of their own."""
    found, stack = set(), root.__subclasses__()
    while stack:
        cls = stack.pop()
        below = cls.__subclasses__()
        stack += below
        if not below:
            found.add(cls)
    return found


def table_gaps(table: dict, root: type) -> tuple[list[str], list[str]]:
    """The leaf classes of `root` that `table` has no key for, and the
    keys of `table` that are not such a class, by name."""
    leaves = leaf_classes(root)
    return sorted(c.__name__ for c in leaves - table.keys()), sorted(c.__name__ for c in table.keys() - leaves)


DISPATCH_TABLES = {
    "smtlib._SEXPR": smtlib._SEXPR,
    "ssa._RENAME": ssa._RENAME,
    "ireval._EVAL": ireval._EVAL,
    "irsorts._SORT": irsorts._SORT,
}


@pytest.mark.parametrize("name", DISPATCH_TABLES)
def test_dispatch_table_has_one_handler_per_expression_class(name):
    assert table_gaps(DISPATCH_TABLES[name], IrExpr) == ([], [])


def test_table_check_finds_what_it_looks_for():
    a = type("A", (), {})
    b = type("B", (a,), {})
    c, d = type("C", (b,), {}), type("D", (a,), {})
    assert leaf_classes(a) == {c, d}
    table = dict.fromkeys(leaf_classes(IrExpr) - {UnOp})
    table[IrExpr] = None
    assert table_gaps(table, IrExpr) == (["UnOp"], ["IrExpr"])


# the classes of `sol_ast` and `ir` that serve only as bases
ABSTRACT = {sol_ast.SolType, sol_ast.Expr, sol_ast.Stmt, ir.IrType, ir.IrExpr, ir.IrStmt}


def module_classes(module) -> list[type]:
    return [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]


def subclassed(classes: list[type], abstract: set[type]) -> list[str]:
    """The names of the classes in `classes`, other than those in
    `abstract`, that some class subclasses."""
    return sorted(c.__name__ for c in classes if c not in abstract and c.__subclasses__())


def uninterned(roots: list[type]) -> list[str]:
    """The names of the classes at or below `roots` that are not built by
    `Interned` with slots of their own, or that define `==` or `hash`."""
    found, stack = [], list(roots)
    while stack:
        cls = stack.pop()
        stack += cls.__subclasses__()
        own = vars(cls)
        if type(cls) is not Interned or "__slots__" not in own or "__eq__" in own or "__hash__" in own:
            found.append(cls.__name__)
    return sorted(found)


def test_no_concrete_node_or_type_class_is_subclassed():
    assert subclassed(module_classes(sol_ast) + module_classes(ir), ABSTRACT) == []


def test_every_type_class_is_interned_and_compares_by_identity():
    assert uninterned([sol_ast.SolType, ir.IrType, ir.DatatypeDef]) == []


def test_class_checks_find_what_they_look_for():
    root = type("Root", (), {})
    leaf = type("Leaf", (root,), {})
    below = type("Below", (leaf,), {})
    assert subclassed([root, leaf, below], {root}) == ["Leaf"]

    class Interned_(metaclass=Interned):
        __slots__ = ()

    class Structural(Interned_):
        __slots__ = ()

        def __eq__(self, other):
            return self is other

    class Unslotted(Interned_):
        pass

    class Plain:
        __slots__ = ()

    assert uninterned([Interned_, Plain]) == ["Plain", "Structural", "Unslotted"]


def cli_options(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings of every subcommand of `parser`, `--help` aside,
    read from the usage line and each subcommand's `--help` output."""
    [commands] = re.findall(r"\{([\w,-]+)\}", parser.format_usage())
    options = set()
    for command in commands.split(","):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        for invocation in re.findall(r"^  (-.*?)(?: {2,}|$)", out.getvalue(), re.M):
            options.update(re.findall(r"(?<![\w-])--?[a-z][\w-]*", invocation))
    return options - {"-h", "--help"}


def readme_disagreements(readme: str, options: set[str]) -> list[str]:
    """The `options` that `readme` never names, and the `--options` its
    Usage section names that are not among `options`."""
    usage = readme.split("\n## Usage\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", usage))
    mentioned = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", readme))
    return [f"undocumented {o}" for o in sorted(options - mentioned)] + [f"stale {o}" for o in sorted(named - options)]


def test_readme_and_the_command_line_name_the_same_options():
    assert readme_disagreements((ROOT / "README.md").read_text(), cli_options(cli.build_parser())) == []


def test_readme_check_finds_what_it_looks_for():
    readme = (
        "# tool\n`--count` (`-c`)\n## Usage\n```sh\nsolmem corpus dir --jobs 8 --json r.json\n```\n"
        "## Tests\n`perfbench/run.py --trace 0`, `--json-lines`\n"
    )
    options = {"--count", "-c", "--json", "--timeout", "--json-lines"}
    assert readme_disagreements(readme, options) == ["undocumented --timeout", "stale --jobs"]
    parser = argparse.ArgumentParser()
    commands = parser.add_subparsers()
    p = commands.add_parser("run")
    p.add_argument("--entry", help="see --count")
    p.add_argument("-n", "--count", metavar="N")
    commands.add_parser("check").add_argument("--a-very-long-option-name-that-wraps", help="an option")
    assert cli_options(parser) == {"--entry", "-n", "--count", "--a-very-long-option-name-that-wraps"}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_text_occurs_once(mutant):
    """`tests/mutants.py` replaces each text in place, so it must still
    name exactly one spot of its module."""
    assert (ROOT / mutant.path).read_text().count(mutant.text) == 1


def stale_pins(pins: set[str], root: Path) -> list[str]:
    """Each id of `pins`, `<file>::<function>`, whose file under `root`
    does not exist or defines no top-level function of that name."""
    stale = []
    for pin in sorted(pins):
        path, _, name = pin.partition("::")
        file = root / path
        body = ast.parse(file.read_text()).body if file.is_file() else []
        if not any(isinstance(node, ast.FunctionDef) and node.name == name for node in body):
            stale.append(pin)
    return stale


def test_every_pin_names_a_test_that_exists():
    """A stale id in `mutants.PINS` would silently count a pin among a
    mutant's killers."""
    assert stale_pins(mutants.PINS, ROOT) == []


def test_pin_check_finds_what_it_looks_for(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "def test_kept():\n    pass\n"
        "def helper():\n    def test_nested():\n        pass\n"
        "class TestK:\n    def test_method(self):\n        pass\n"
    )
    pins = {f"tests/test_{f}.py::test_{name}" for f in "ab" for name in ("kept", "gone", "nested", "method")}
    assert stale_pins(pins, tmp_path) == sorted(pins - {"tests/test_a.py::test_kept"})
    # a pinned test that no longer exists reads stale against the real tree
    removed = "tests/test_acceptance.py::test_criterion_1_pack_unpack_goldens"
    assert stale_pins(mutants.PINS | {removed}, ROOT) == [removed]


def callee(node: ast.AST) -> str | None:
    """The name a call calls, bare or as an attribute; None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def repeated_diagnostics(tree: ast.AST) -> list[str]:
    """Each message text, a string or an f-string as spelled, that more
    than one construction of a `DIAGNOSTICS` error in `tree` passes, with
    the lines of its sites. A message computed elsewhere is not a text."""
    sites: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        message = node.args[0]
        if callee(node) in DIAGNOSTICS and isinstance(message, (ast.JoinedStr, ast.Constant)):
            sites.setdefault(ast.unparse(message), []).append(node.lineno)
    return sorted(f"{text} (lines {', '.join(map(str, sorted(lines)))})"
                  for text, lines in sites.items() if len(lines) > 1)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_each_diagnostic_is_raised_from_one_site(path):
    assert repeated_diagnostics(ast.parse(path.read_text())) == []


def test_diagnostic_check_finds_what_it_looks_for():
    tree = ast.parse(
        'raise ResolveError(f"cannot assign {a} to {b}", 1)\n'
        'raise ResolveError(f"cannot assign {a} to {b}", 2)\n'
        'raise errors.ParseError("bad", 3)\n'
        'e = ParseError("bad")\n'
        'raise UnsupportedError(f"{op} unsupported", 5)\n'
        'raise OracleError("bad")\n'
        'raise ResolveError(message, 7)\n'
        'raise ResolveError(message, 8)\n'
        'raise ResolveError(f"cannot assign {a.ty} to {b}", 9)\n'
    )
    assert repeated_diagnostics(tree) == ["'bad' (lines 3, 4)", "f'cannot assign {a} to {b}' (lines 1, 2)"]


def written_chains(tree: ast.Module) -> list[tuple[str, int]]:
    """(top-level definition, line) of each call of a `CHAINS` stage
    whose arguments call the stage it follows; `<module>` for a call
    outside any definition."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            inner = CHAINS.get(callee(node))
            if inner and any(callee(n) == inner for arg in node.args + node.keywords for n in ast.walk(arg)):
                found.append((owner, node.lineno))
    return found


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_the_stage_chain_is_written_in_verify_alone(path):
    sites = written_chains(ast.parse(path.read_text()))
    assert [(name, line) for name, line in sites if (path.name, name) not in CHAIN_SITES] == []


def test_chain_check_finds_what_it_looks_for():
    tree = ast.parse(
        "s = to_ssa(normalize_lhs(p))\n"
        "def f(p):\n    n = normalize_lhs(p)\n    return to_ssa(n), emit_smtlib(p, formula)\n"
        "class K:\n    def g(self, p):\n        return stages.emit_smtlib(p, formula=vc_gen(p, 0)).strip()\n"
        "def h(p):\n    return eval_ir(to_ssa(x.normalize_lhs(p)).program)\n"
    )
    assert written_chains(tree) == [("<module>", 1), ("K", 7), ("h", 9)]
    # every allowed site still writes a chain out, so the list cannot go stale
    sites = {(path.name, name) for path in SOURCES + TESTS for name, _ in written_chains(ast.parse(path.read_text()))}
    assert CHAIN_SITES <= sites


def collector_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, function) of each call of a `COLLECTOR_CALLS` function,
    made through the `gc` module under any name or imported from it."""
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "gc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gc" and not node.level:
            functions |= {alias.asname or alias.name: alias.name for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            name = func.attr
        else:
            name = functions.get(func.id) if isinstance(func, ast.Name) else None
        if name in COLLECTOR_CALLS:
            found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "gcpause.py"], ids=lambda p: p.name)
def test_gcpause_alone_calls_the_collector(path):
    assert collector_calls(ast.parse(path.read_text())) == []


def test_collector_check_finds_what_it_looks_for():
    tree = ast.parse(
        "import gc\nimport gc as g\nfrom gc import freeze, unfreeze as thaw\n"
        "gc.collect(1)\ng.disable()\nfreeze()\nthaw()\n"
        "gc.isenabled()\ngc.get_freeze_count()\nself.collect()\nenable()\n"
    )
    assert collector_calls(tree) == [(4, "collect"), (5, "disable"), (6, "freeze"), (7, "unfreeze")]
    # the owner calls every one of them, so the check reads real calls
    owner = ast.parse((ROOT / "src" / "solmem" / "gcpause.py").read_text())
    assert {name for _, name in collector_calls(owner)} == COLLECTOR_CALLS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_enum(path):
    """An `enum` member costs a metaclass `__getattr__` per lookup; the
    data locations are a plain class (`sol_ast.Loc`)."""
    assert "enum" not in imported_modules(ast.parse(path.read_text()))


def test_enum_check_finds_what_it_looks_for():
    for text in ("import enum\n", "import enum as e\n", "from enum import Enum\n"):
        assert "enum" in imported_modules(ast.parse(text)), text
    assert "enum" not in imported_modules(ast.parse("from .lexer import enum\nimport enumerate\n"))


def keyword_only_constructors(classes: list[type]) -> list[str]:
    """The names of the classes in `classes` whose own `__init__` declares
    a keyword-only parameter."""
    return sorted(
        c.__name__ for c in classes
        if "__init__" in vars(c) and vars(c)["__init__"].__code__.co_kwonlyargcount
    )


def keyword_constructions(tree: ast.AST, classes: set[str]) -> list[tuple[int, str]]:
    """(line, class) of each call of one of `classes`, by name or as an
    attribute, that passes a keyword argument or a `**` mapping."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.keywords:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in classes:
            found.append((node.lineno, name))
    return sorted(found)


SOL_AST_CLASSES = module_classes(sol_ast)
PARSER = ROOT / "src" / "solmem" / "parser.py"


def test_no_syntax_tree_constructor_is_keyword_only():
    """A node built with keyword arguments costs about twice one built
    positionally, so the parser must be able to pass every field by
    position."""
    assert keyword_only_constructors(SOL_AST_CLASSES) == []


def test_the_parser_builds_nodes_positionally():
    tree = ast.parse(PARSER.read_text())
    assert keyword_constructions(tree, {c.__name__ for c in SOL_AST_CLASSES}) == []


def test_constructor_checks_find_what_they_look_for():
    class KeywordOnly:
        def __init__(self, a, *, line=0):
            pass

    class Positional:
        def __init__(self, a, line=0, *args, **kwargs):
            pass

    class Inherited(KeywordOnly):
        pass

    assert keyword_only_constructors([KeywordOnly, Positional, Inherited]) == ["KeywordOnly"]
    # every syntax-tree node class writes its own constructor, so the check reads them all
    assert all("__init__" in vars(c) for c in SOL_AST_CLASSES if issubclass(c, (sol_ast.Expr, sol_ast.Stmt)))
    tree = ast.parse(
        "IdentExpr(v, line=l, col=c)\nsa.BinExpr(op, a, b, line, col)\nf(x, line=1)\n"
        'AssertStmt(c, "", line)\nsol_ast.PopStmt(t, line=l)\nIdentExpr(*args, **kw)\n'
    )
    assert keyword_constructions(tree, {"IdentExpr", "BinExpr", "AssertStmt", "PopStmt"}) == [
        (1, "IdentExpr"), (5, "PopStmt"), (6, "IdentExpr"),
    ]
    # the parser calls the node classes by name, so the check reads real calls
    parser_tree = ast.parse(PARSER.read_text())
    called = {n.func.id for n in ast.walk(parser_tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert {"IdentExpr", "BinExpr", "IndexExpr", "AssignStmt", "AssertStmt"} <= called


def recursion_catches(tree: ast.AST) -> list[str]:
    """The innermost function around each handler that names
    `RecursionError`, `<module>` outside any function, in line order."""
    owners = {}
    for fn in ast.walk(tree):  # breadth first: a nested function comes after the one around it
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owners.update((node, fn.name) for node in ast.walk(fn) if isinstance(node, ast.ExceptHandler))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(c, ast.Name) and c.id == "RecursionError" for c in caught):
                found.append((node.lineno, owners.get(node, "<module>")))
    return [owner for _, owner in sorted(found)]


def command_exit_twos(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each `return 2` in a top-level `cmd_*` function."""
    return [
        (fn.name, node.lineno)
        for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 2
    ]


def test_a_recursion_limit_is_caught_only_where_it_is_graded():
    sites = [(path.name, owner) for path in SOURCES for owner in recursion_catches(ast.parse(path.read_text()))]
    assert sorted(sites) == sorted(RECURSION_CATCHERS)


def test_no_command_returns_2_itself():
    assert command_exit_twos(ast.parse((ROOT / "src" / "solmem" / "cli.py").read_text())) == []


def test_failure_path_checks_find_what_they_look_for():
    tree = ast.parse(
        "try:\n    pass\nexcept RecursionError:\n    pass\n"
        "def cmd_a(args):\n    try:\n        return 0\n    except (OSError, RecursionError) as e:\n        return 2\n"
        "def outer():\n    def inner():\n        try:\n            pass\n        except RecursionError:\n            pass\n"
        "    try:\n        pass\n    except ValueError:\n        return 2\n"
        "def cmd_b(args):\n    if args:\n        return 1\n    return args.code\n"
    )
    assert recursion_catches(tree) == ["<module>", "cmd_a", "inner"]
    assert command_exit_twos(tree) == [("cmd_a", 9)]
    # the CLI still catches it in `main`, which returns 2 for every
    # command, so the checks read real code
    cli_tree = ast.parse((ROOT / "src" / "solmem" / "cli.py").read_text())
    assert recursion_catches(cli_tree) == ["main"]
    next(fn for fn in cli_tree.body if getattr(fn, "name", None) == "main").name = "cmd_main"
    assert len(command_exit_twos(cli_tree)) == 3


def imported_test_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of each import of a `test_*` module, or of names
    from one, however spelled."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # `from tests import test_x` imports the module as a name
            module = node.module or ""
            modules = [module] + [f"{module}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.rpartition(".")[2].startswith("test_")]
    return found


def corpus_namings(tree: ast.AST) -> list[int]:
    """Lines that glob for `.sol` files, join `corpus` onto a path not
    rooted at a test's `tmp_path`, or spell a corpus file's path."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("glob", "rglob"):
            if any(isinstance(a, ast.Constant) and str(a.value).endswith(".sol") for a in node.args):
                lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and isinstance(node.right, ast.Constant):
            if node.right.value == "corpus" and not ast.unparse(node.left).startswith("tmp_path"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and re.fullmatch(r"corpus/[\w/]+[.]sol", str(node.value)):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_no_test_module_imports_another():
    """Shared inputs and helpers live in `sources.py` and the other
    helper modules, so no test module depends on another's body."""
    found = {path.name: imported_test_modules(ast.parse(path.read_text())) for path in TESTS}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_only_the_catalogue_names_the_corpus():
    """`sources.py` lists the corpus once; every other module takes it
    from there."""
    found = {path.name: corpus_namings(ast.parse(path.read_text())) for path in TESTS if path.name != "sources.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_catalogue_checks_find_what_they_look_for():
    tree = ast.parse(
        "import sources\nfrom test_invariants import frame_formula\nimport test_gc as g\n"
        "from tests.test_names import x\nfrom tests import test_oracle\nfrom irgen import conjoin\n"
    )
    assert imported_test_modules(tree) == [(2, "test_invariants"), (3, "test_gc"), (4, "tests.test_names"), (5, "tests.test_oracle")]
    tree = ast.parse(
        'CORPUS = Path(__file__).resolve().parent.parent / "corpus"\n'
        'paths = sorted(CORPUS.glob("*/*.sol"))\n'
        'paths = ROOT.rglob("*.sol")\n'
        'VERIFY = ["verify", "corpus/storage/a.sol"]\n'
        'd = tmp_path / "corpus" / "storage"\n'
        'main(["corpus", str(d)])\nlabel = f"corpus/{name}"\nscripts = d.glob("*.smt2")\n'
    )
    assert corpus_namings(tree) == [1, 2, 3, 4]
    # the catalogue globs the corpus itself, so the check reads real code
    assert corpus_namings(ast.parse((ROOT / "tests" / "sources.py").read_text())) != []


def paired_runs(tree: ast.AST) -> list[str]:
    """Each function that calls `eval_ir` and also the interpreter's
    `run_constructor` or `exec_function`, bare or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            called = {callee(n) for n in ast.walk(node)}
            if "eval_ir" in called and called & {"run_constructor", "exec_function"}:
                found.append(node.name)
    return found


def test_the_differential_is_written_once():
    """Every allowed site still pairs the two, so the list cannot go stale."""
    found = {(path.name, name) for path in TESTS for name in paired_runs(ast.parse(path.read_text()))}
    assert found == PAIRING_SITES


def test_pairing_check_finds_what_it_looks_for():
    tree = ast.parse(
        "def f(c):\n    return run_constructor(c), eval_ir(p)\n"
        "def g(c):\n    return exec_function(c, 'g')\n"
        "class K:\n    def h(self):\n        ireval.eval_ir(p)\n        def inner():\n"
        "            return oracle.exec_function(c, 'h')\n"
        "def run_constructor_ir(src):\n    return eval_ir(p)\n"
    )
    assert paired_runs(tree) == ["f", "h"]


def inlined_launches(module: str, tree: ast.Module) -> list[int]:
    """Lines of `module` (named as imported) with a string equal to a
    `LAUNCHERS` text outside that text's launcher; a string that only
    contains one does not count."""
    inside = {
        text: {n for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               and (module, f.name) == (launcher.__module__, launcher.__name__) for n in ast.walk(f)}
        for text, launcher in LAUNCHERS.items()
    }
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in inside and node not in inside[node.value])


def test_each_process_has_one_launcher():
    found = {path.name: inlined_launches(path.stem, ast.parse(path.read_text())) for path in TESTS}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_launch_check_finds_what_it_looks_for():
    tree = ast.parse(
        '"""Runs `python -m solmem.cli`, and stub_solver.py as the solver."""\n'
        'STUB = TESTS / "stub_solver.py"\n'
        "def run_cli(*argv):\n"
        '    return subprocess.run([sys.executable, "-m", "solmem.cli", *argv])\n'
        "def test_run(tmp_path):\n"
        '    subprocess.run([sys.executable, "-m", "solmem.cli", "run", str(tmp_path)])\n'
        "    def command(answers, log):\n"
        '        return shlex.join([sys.executable, str(TESTS / "stub_solver.py"), answers, log])\n'
        'code = "import sys, solmem.cli"\n'
    )
    assert inlined_launches("sources", tree) == [2, 6, 8]
    assert inlined_launches("stub_solver", tree) == [2, 4, 6]
    assert inlined_launches("test_cli", tree) == [2, 4, 6, 8]
    # the launcher spells the module itself, so the check reads real code
    assert inlined_launches("test_cli", ast.parse((ROOT / "tests" / "sources.py").read_text())) != []
