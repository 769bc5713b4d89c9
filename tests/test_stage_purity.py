"""No pipeline stage changes the program it is given.

IR nodes are slotted, mutable records (see `solmem.ir`): nothing stops a
stage from assigning to a field of a node it was handed, so this test
checks that none does. Every stage after translation runs on the
corpus, the shared test contracts, generated programs and one long
benchmark-shaped constructor, and the input program's text must be the
same afterwards. The nodes must also be unhashable, so that no memo can
key a node by value: memos key by `id()` and hold the node. So must
every other mutable record of the package, and every record and type
class is slotted.
"""

import importlib
import pkgutil
import random
import sys
from pathlib import Path

import pytest

import solmem
import sources
from solmem import ir, oracle, sol_ast
from solmem.records import Record, Value
from test_invariants import frame_formula
from solmem.generator import random_program
from solmem.ireval import eval_ir
from solmem.normalize import normalize_lhs
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.smtlib import emit_smtlib, program_text
from solmem.ssa import to_ssa
from solmem.translate import translate_function
from solmem.vcgen import vc_gen

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import stress_source  # noqa: E402


def inputs():
    """The source of every program the stages run on."""
    for path in sorted((ROOT / "corpus").glob("*/*.sol")):
        yield path.read_text()
    for name in ("DATA_STORAGE", "POINTER_CONTRACT", "TUPLE_SWAP", "DANGLING_POINTER"):
        yield getattr(sources, name)
    yield sources.tuple_swap_with("s1.x == 3", "s1.x == 3")
    for seed in range(20):
        yield random_program(seed, 10)
    yield stress_source(300, 25, random.Random(0))


def _pure(stage, program, *args):
    """`stage(program, *args)`, checking that it leaves `program`'s text
    as it was."""
    before = program_text(program)
    result = stage(program, *args)
    assert program_text(program) == before, f"{stage.__name__} changed its input"
    return result


def test_stages_leave_their_input_unchanged():
    count = 0
    for source in inputs():
        contract = resolve_and_check(parse_source(source))
        for fn in contract.all_functions():
            tf = translate_function(contract, fn)
            _pure(eval_ir, tf.program)
            normalized = _pure(normalize_lhs, tf.program)
            _pure(eval_ir, normalized)
            ssa = _pure(to_ssa, normalized).program
            _pure(eval_ir, ssa)
            for info in tf.asserts:
                vc = _pure(vc_gen, ssa, info.ordinal)
                _pure(emit_smtlib, ssa, vc)
            names = list(ssa.decls)
            if names:
                _pure(frame_formula, ssa, names[0], names[-1])
            count += 1
    assert count == 66  # constructors and functions


NODE_CLASSES = [
    c for c in vars(ir).values() if isinstance(c, type) and issubclass(c, (ir.IrExpr, ir.IrStmt))
]


def below(roots: list[type]) -> list[type]:
    """`roots` and every class below them."""
    found, stack = [], list(roots)
    while stack:
        found.append(stack.pop())
        stack += found[-1].__subclasses__()
    return found


def test_nodes_are_slotted_and_unhashable():
    assert {ir.IrExpr, ir.IrStmt, ir.BinOp, ir.Assign} <= set(NODE_CLASSES)
    for cls in NODE_CLASSES:
        assert "__slots__" in vars(cls), cls.__name__
        node = cls(*[None] * len(cls._fields))
        assert not hasattr(node, "__dict__"), cls.__name__
        with pytest.raises(TypeError):
            hash(node)
    for module in pkgutil.iter_modules(solmem.__path__):
        importlib.import_module(f"solmem.{module.name}")
    records = [c for c in below([Record]) if c.__module__.startswith("solmem.")]
    types = below([sol_ast.SolType, ir.IrType, ir.DatatypeDef])
    assert {sol_ast.IdentExpr, sol_ast.Contract, ir.SmtProgram, oracle.Struct, oracle.MemRef} <= set(records)
    for cls in records + types:
        assert "__slots__" in vars(cls), cls.__name__
        assert not hasattr(object.__new__(cls), "__dict__"), cls.__name__
    for cls in records:
        if not issubclass(cls, Value):
            with pytest.raises(TypeError):
                hash(object.__new__(cls))
