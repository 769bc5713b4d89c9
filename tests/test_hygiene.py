"""Source hygiene of the `solmem` package, checked on its syntax trees.

No handler, in the package or in its tests, may catch everything (a bare
`except`, `except Exception` or `except BaseException`), every imported
name must be used by its module, or re-exported through `__all__`, and
every public function and method must have a caller in the pipeline or
the benchmark, so that helpers only tests need live in `tests/`. The
reference interpreter imports nothing from the translator's side of the
pipeline, so that a fault there cannot hide from differential testing,
and reads no storage tree edge's ordinal: it takes pointer arguments as
access paths and uses the trees only to check them, so the translator
alone maps ordinals to edges. Every walker's dispatch table has exactly
one handler per IR expression class, so a forgotten node is caught here
and not at run time. No concrete syntax-tree node or type class of
`sol_ast` or `ir` is subclassed, since the walkers dispatch on a node's
exact class and interning keys a type by its exact class, and every type
class is interned, slotted and compares by identity. No module of the
package imports `dataclasses`: records are written out (`records`). The
names the translator invents are spelled only where it invents them. No
nested function refers to its own name, so that no closure holds itself
in a reference cycle. Every text that `tests/mutants.py` replaces still
occurs exactly once in its module.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import irsorts
import mutants
import pytest
from solmem import ir, ireval, smtlib, sol_ast, ssa
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
NAMERS = {"translate.py", "storage_tree.py"}
# The modules that turn a resolved contract into IR and SMT-LIB or
# evaluate IR; `oracle.py` must not import them.
TRANSLATOR_SIDE = {"translate", "ir", "normalize", "ssa", "vcgen", "smtlib", "ireval"}


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


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_text_occurs_once(mutant):
    """`tests/mutants.py` replaces each text in place, so it must still
    name exactly one spot of its module."""
    assert (ROOT / mutant.path).read_text().count(mutant.text) == 1
