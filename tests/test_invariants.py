"""Translation-level invariants checked with the solver: storage
non-aliasing frames, deep-copy validity, allocation freshness, and
default-value conformance between the translator and the interpreter."""

import pytest

from irgen import conjoin, evaluate, frame_formula, premises
from irserialize import serialize_ir
from sources import compile_source
from solmem import ir
from solmem.ir import Ident
from solmem.oracle import Machine, serialize
from solmem.smtlib import emit_smtlib
from solmem.solver import check
from solmem.sol_ast import Loc, is_reference_type
from solmem.translate import Translator, translate_function
from solmem.verify import ssa_form


def frame_verdict(src: str, framed: str):
    """The solver's verdict on whether `framed` can change across `f`."""
    c = compile_source(src)
    ssa = ssa_form(translate_function(c, c.function("f")).program)
    formula = frame_formula(ssa.program, framed, ssa.final_versions[framed])
    return check(emit_smtlib(ssa.program, formula), 60)


# Twenty mutation routes; each names the state variable it writes and the
# variables that must remain untouched.
S2 = "struct S { int x; int[] data; }"
FRAME_CONTRACTS = [
    # direct value/member writes
    (f"contract C {{ {S2} S a; S b; function f() {{ a.x = 1; }} }}", ["b"]),
    (f"contract C {{ {S2} S a; S b; function f() {{ a.data.push(4); }} }}", ["b"]),
    (f"contract C {{ {S2} S a; S b; int n; function f() {{ n = 9; }} }}", ["a", "b"]),
    # whole-struct deep copies
    (f"contract C {{ {S2} S a; S b; S c; function f() {{ a = b; }} }}", ["c", "b"]),
    # pointer-mediated writes hit only the pointee
    (
        f"contract C {{ {S2} S a; S b; function f() {{ S storage p = a; p.x = 5; }} }}",
        ["b"],
    ),
    (
        f"contract C {{ {S2} S a; S b; function f() {{ S storage p = a; p.data.push(1); }} }}",
        ["b"],
    ),
    # array and mapping writes
    ("contract C { int[] a; int[] b; function f() { a.push(3); } }", ["b"]),
    ("contract C { int[] a; int[] b; function f() { a.push(3); a.pop(); } }", ["b"]),
    ("contract C { int[3] a; int[3] b; function f() { a[0] = 2; } }", ["b"]),
    (
        "contract C { mapping(int => int) m; mapping(int => int) n; function f() { m[4] = 2; } }",
        ["n"],
    ),
    (
        "contract C { mapping(int => int) m; int[] a; function f(int k) { m[k] = 2; } }",
        ["a"],
    ),
    # delete
    (f"contract C {{ {S2} S a; S b; function f() {{ delete a; }} }}", ["b"]),
    ("contract C { int[] a; int[] b; function f() { delete a; } }", ["b"]),
    # tuple swaps touch only their operands
    (
        "contract C { int x; int y; int z; function f() { (x, y) = (y, x); } }",
        ["z"],
    ),
    (
        f"contract C {{ {S2} S a; S b; S c; function f() {{ (a, b) = (b, a); }} }}",
        ["c"],
    ),
    # memory copies never touch storage
    (
        f"contract C {{ {S2} S a; S b; function f() {{ S memory m = a; m.x = 9; }} }}",
        ["a", "b"],
    ),
    ("contract C { int[] a; function f() { int[] memory m = a; m[0] = 1; } }", ["a"]),
    (
        "contract C { int[] a; int[] b; function f() { a = b; } }",
        ["b"],
    ),
    # struct constructor writes stay on the heap
    (
        f"contract C {{ {S2} S a; function f() {{ S memory m = S(1, new int[](2)); }} }}",
        ["a"],
    ),
    # re-pointing is pure pointer arithmetic
    (
        f"contract C {{ {S2} S a; S b; function f() {{ S storage p = a; p = b; }} }}",
        ["a", "b"],
    ),
]


def _flatten_frames():
    for i, (src, framed) in enumerate(FRAME_CONTRACTS):
        for var in framed:
            yield pytest.param(src, var, id=f"frame{i}-{var}")


@pytest.mark.parametrize("src,framed", list(_flatten_frames()))
def test_storage_non_aliasing_frames(src, framed, solver_available):
    assert frame_verdict(src, framed).kind == "unsat"


def test_untouched_variable_is_syntactically_stable():
    src = f"contract C {{ {S2} S a; S b; function f() {{ a.x = 1; }} }}"
    c = compile_source(src)
    tf = translate_function(c, c.function("f"))
    ssa = ssa_form(tf.program)
    assert ssa.final_versions["b"] == "b"
    assert ssa.final_versions["a"] != "a"


def test_deep_copy_storage_to_memory_preserves_source(solver_available):
    src = """
contract C {
    struct S { int x; int[] data; }
    S s;
    function f() {
        S memory m = s;
        m.x = 77;
        m.data[0] = 5;
    }
}
"""
    assert frame_verdict(src, "s").kind == "unsat"


def test_fresh_allocations_exceed_memory_parameters(solver_available):
    src = """
contract C {
    struct S { int x; }
    function f(S memory p) {
        S memory q = S(1);
        assert(q != p);
    }
}
"""
    # pointer inequality is not expressible in the fragment directly;
    # check the formula at the IR level instead
    c = compile_source(src.replace("assert(q != p);", ""))
    tf = translate_function(c, c.function("f"))
    ssa = ssa_form(tf.program)
    q_final = ssa.final_versions[c.function("f").body[0].name]
    p_name = c.function("f").params[0].name
    formula = conjoin(premises(ssa.program) + [ir.BinOp("==", Ident(q_final), Ident(p_name))])
    assert check(emit_smtlib(ssa.program, formula), 60).kind == "unsat"


def test_distinct_allocations_in_sequence(solver_available):
    src = """
contract C {
    struct S { int x; }
    constructor() {
        S memory a = S(1);
        S memory b = S(2);
        S memory c = S(3);
    }
}
"""
    c = compile_source(src)
    tf = translate_function(c, c.constructor)
    ssa = ssa_form(tf.program)
    names = [ssa.final_versions[s.name] for s in c.constructor.body]
    parts = []
    for s in ssa.program.stmts:
        if isinstance(s, ir.Assign):
            parts.append(ir.BinOp("==", s.lhs, s.rhs))
    distinct = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            distinct.append(ir.BinOp("==", Ident(names[i]), Ident(names[j])))
    formula = conjoin(parts + [ir.BinOp("or", ir.BinOp("or", distinct[0], distinct[1]), distinct[2])])
    assert check(emit_smtlib(ssa.program, formula), 60).kind == "unsat"


# ---------------------------------------------------------------------------
# default-value conformance (translator vs interpreter), depth <= 3 zoo


ZOO_STRUCTS = """
    struct A { int x; bool y; }
    struct B { A a; int[] xs; uint z; }
    struct D { B b; A[2] pair; }
    struct M { mapping(int => A) table; A a; }
"""

ZOO_TYPES = [
    "int",
    "uint",
    "bool",
    "address",
    "int[]",
    "uint[3]",
    "bool[]",
    "mapping(int => int)",
    "mapping(address => bool)",
    "A",
    "int[][]",
    "A[]",
    "A[2]",
    "mapping(int => A)",
    "mapping(bool => int[])",
    "B",
    "B[]",
    "B[2]",
    "mapping(address => B)",
    "mapping(int => A[])",
    "D",
    "M",
    "int[2][2]",
]

MEMORY_ZOO = ["int[]", "uint[3]", "bool[]", "A", "A[2]", "B", "D", "int[2][2]"]


def _zoo_contract(type_src: str) -> str:
    return f"contract Zoo {{ {ZOO_STRUCTS} {type_src} subject; }}"


def default_jsons(type_src: str, memory: bool):
    """The default value of the zoo type `type_src`, in memory or else in
    storage, as the IR evaluator and as the interpreter serialize it."""
    c = compile_source(_zoo_contract(type_src))
    ty = c.state_vars[0].ty
    loc = Loc.MEMORY if memory else Loc.STORAGE if is_reference_type(ty) else Loc.VALUE

    machine = Machine(c)
    oracle_json = serialize(machine, ty, machine.default(ty, loc))

    tr = Translator(c)
    value, env = evaluate(tr, tr.default_value(ty, loc))
    return serialize_ir(c, ty, loc, value, env), oracle_json


@pytest.mark.parametrize("type_src", ZOO_TYPES)
def test_storage_default_conformance(type_src):
    ir_json, oracle_json = default_jsons(type_src, memory=False)
    assert ir_json == oracle_json


@pytest.mark.parametrize("type_src", MEMORY_ZOO)
def test_memory_default_conformance(type_src):
    ir_json, oracle_json = default_jsons(type_src, memory=True)
    assert ir_json == oracle_json
