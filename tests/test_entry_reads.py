"""Closed programs, found by the brute-force walk `irserialize.entry_reads`.

A closed SSA program reads no name before it assigns it, so evaluation
from the empty environment decides its asserts without a solver (ROADMAP
item 28). The closed corpus functions and the count of closed fuzz
constructors are pinned here, and the inputs of the tests that must reach
the solver boundary (`sources.SOLVER_BOUNDARY`, the corpus file and the
fuzz seeds beside it) must stay open, each by name.
"""

import sys

import pytest

from irserialize import entry_reads
from sources import BOUNDARY_FILE, BOUNDARY_FUZZ, SOLVER_BOUNDARY, compile_source, corpus, fuzz, translated
from solmem.cli import build_parser
from solmem.harness import _self_contained
from solmem.ir import INT, Assert, Assign, BinOp, Ident, IntLit, SmtProgram
from solmem.sol_ast import is_value_type

CLOSED_CORPUS = {
    "assignment/mapping_pointer_assign.sol:constructor",
    "assignment/nested_struct_array_copy.sol:constructor",
    "assignment/struct_deep_copy.sol:constructor",
    "assignment/struct_members.sol:constructor",
    "assignment/tuple_order.sol:primitiveAssign",
    "assignment/tuple_order.sol:storageAssign",
    "delete/delete_dynarray.sol:constructor",
    "delete/delete_fixarray.sol:constructor",
    "delete/delete_mapping_entry.sol:constructor",
    "delete/delete_nested.sol:constructor",
    "delete/delete_through_pointer_member.sol:constructor",
    "delete/delete_value_and_struct.sol:constructor",
    "init/defaults_arrays.sol:constructor",
    "init/defaults_mapping.sol:constructor",
    "init/defaults_struct.sol:constructor",
    "init/defaults_values.sol:constructor",
    "storage/deep_copy_independence.sol:constructor",
    "storage/fixarray_elements.sol:constructor",
    "storageptr/pointer_mapping_entry.sol:constructor",
    "storageptr/pointer_nested_repack.sol:constructor",
    "storageptr/pointer_read_write.sol:constructor",
    "storageptr/pointer_repoint.sol:constructor",
}


def _asserts(program: SmtProgram) -> int:
    return sum(isinstance(s, Assert) for s in program.stmts)


def _reads(source: str) -> dict[str, set[str]]:
    """The entry reads of each function of `source` that asserts."""
    return {fn.name: entry_reads(program) for _, fn, program in translated(source) if _asserts(program)}


def test_entry_reads_are_the_names_read_before_assigned():
    stmts = [Assign(Ident("x"), IntLit(1)), Assert(BinOp("==", Ident("x"), Ident("y"))), Assign(Ident("y"), Ident("z"))]
    assert entry_reads(SmtProgram(decls={"x": INT, "y": INT, "z": INT}, stmts=stmts)) == {"y", "z"}


def test_entry_reads_keep_their_own_stack():
    """A 3,000-statement program and a 5,000-deep sum at the default limit."""
    assert sys.getrecursionlimit() == 1000
    [(_, _, program)] = translated(SOLVER_BOUNDARY["stress_3000"])
    assert len(program.stmts) > 3000 and entry_reads(program) == {"k"}
    chain = IntLit(1)
    for _ in range(5000):
        chain = BinOp("+", chain, Ident("x"))
    assert entry_reads(SmtProgram(decls={"x": INT, "y": INT}, stmts=[Assign(Ident("y"), chain)])) == {"x"}


def test_closed_corpus_functions_and_fuzz_constructors_are_pinned():
    closed = {f"{name}:{fn.name}": _asserts(program)
              for name, text in corpus().items() for _, fn, program in translated(text) if not entry_reads(program)}
    assert set(closed) == CLOSED_CORPUS
    assert sum(closed.values()) == 56
    assert sum(not entry_reads(program) for seed in range(200) for _, _, program in translated(fuzz(seed))) == 44


@pytest.mark.parametrize("name", [*SOLVER_BOUNDARY, "corpus"])
def test_each_solver_boundary_input_is_open(name):
    """Every function that asserts reads a free name, and, but for a
    self-contained contract, some function reads a free value parameter."""
    source = SOLVER_BOUNDARY[name] if name != "corpus" else BOUNDARY_FILE.read_text(encoding="utf-8")
    reads, contract = _reads(source), compile_source(source)
    assert reads and all(reads.values()), reads
    params = {p.name for fn in contract.all_functions() for p in fn.params if is_value_type(p.ty)}
    assert _self_contained(contract) or params & set().union(*reads.values()), reads


def test_the_boundary_fuzz_seeds_are_open():
    args = build_parser().parse_args(["fuzz", *BOUNDARY_FUZZ])
    for seed in range(args.start, args.start + args.count):
        reads = _reads(fuzz(seed, args.budget))
        assert reads and all(reads.values()), seed
