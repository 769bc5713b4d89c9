"""Type mapping, default values, and the assignment matrix."""

import pytest

from sources import DATA_STORAGE, POINTER_CONTRACT
from solmem import ir
from solmem.errors import UnsupportedError
from solmem.ir import (
    Assign,
    ArrayType,
    BoolLit,
    ConstArray,
    Construct,
    DatatypeType,
    Ident,
    IntLit,
        format_stmt,
)
from solmem.ireval import VData, eval_ir
from solmem.normalize import normalize_lhs
from solmem.oracle import exec_function, run_constructor
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.smtlib import emit_smtlib
from solmem.sol_ast import (
    ADDRESS,
    BOOL,
    INT,
    UINT,
    DynArrayType,
    FixArrayType,
    Loc,
    MappingType,
    StructType,
)
from solmem.ssa import to_ssa
from solmem.translate import Translator, translate_function
from solmem.vcgen import vc_gen


def compile_source(text):
    return resolve_and_check(parse_source(text))


STRUCTS = "contract C { struct T { int z; } struct S { int x; T t; } T t0; S s0; }"


def fresh_translator(src=STRUCTS):
    return Translator(compile_source(src))


# ---------------------------------------------------------------------------
# type mapping


def test_value_types():
    tr = fresh_translator()
    assert tr.map_type(BOOL, Loc.VALUE) == ir.BOOL
    for t in (INT, UINT, ADDRESS):
        assert tr.map_type(t, Loc.VALUE) == ir.INT


def test_mapping_types():
    tr = fresh_translator()
    assert tr.map_type(MappingType(ADDRESS, INT), Loc.STORAGE) == ArrayType(ir.INT, ir.INT)
    assert tr.map_type(MappingType(BOOL, INT), Loc.STORAGE) == ArrayType(ir.BOOL, ir.INT)
    assert tr.map_type(MappingType(ADDRESS, INT), Loc.STORPTR) == ir.PTR


def test_fixed_arrays_collapse_to_dynamic():
    tr = fresh_translator()
    assert tr.map_type(FixArrayType(INT, 3), Loc.STORAGE) == tr.map_type(
        DynArrayType(INT), Loc.STORAGE
    )


def test_storage_array_datatype():
    tr = fresh_translator()
    mapped = tr.map_type(DynArrayType(INT), Loc.STORAGE)
    assert mapped == DatatypeType("StorArr$int")
    dt = tr.program.datatype("StorArr$int")
    assert dt.members == (("arr", ArrayType(ir.INT, ir.INT)), ("length", ir.INT))


def test_memory_array_introduces_heap():
    tr = fresh_translator()
    mapped = tr.map_type(DynArrayType(INT), Loc.MEMORY)
    assert mapped == ir.INT
    assert tr.program.datatype("MemArr$int") is not None
    assert tr.program.decl_type("arrHeap$int") == ArrayType(ir.INT, DatatypeType("MemArr$int"))


def test_struct_types_and_pointer_encoding():
    tr = fresh_translator()
    assert tr.map_type(StructType("S"), Loc.STORPTR) == ir.PTR
    stor = tr.map_type(StructType("S"), Loc.STORAGE)
    assert stor == DatatypeType("StorStruct$S")
    dt = tr.program.datatype("StorStruct$S")
    assert dt.members == (("x", ir.INT), ("t", DatatypeType("StorStruct$T")))
    mem = tr.map_type(StructType("S"), Loc.MEMORY)
    assert mem == ir.INT
    # memory struct members of reference type are pointers
    mdt = tr.program.datatype("MemStruct$S")
    assert mdt.members == (("x", ir.INT), ("t", ir.INT))
    assert tr.program.decl_type("structHeap$S") == ArrayType(ir.INT, DatatypeType("MemStruct$S"))


def test_datatype_deduplication():
    tr = fresh_translator()
    tr.map_type(DynArrayType(INT), Loc.STORAGE)
    tr.map_type(FixArrayType(INT, 7), Loc.STORAGE)
    assert len([d for d in tr.program.datatypes.values() if d.name == "StorArr$int"]) == 1


def test_nested_array_mangling():
    tr = fresh_translator()
    mapped = tr.map_type(DynArrayType(DynArrayType(INT)), Loc.STORAGE)
    assert mapped == DatatypeType("StorArr$int*")
    inner = tr.program.datatype("StorArr$int*")
    assert dict(inner.members)["arr"] == ArrayType(ir.INT, DatatypeType("StorArr$int"))


# ---------------------------------------------------------------------------
# default values


def test_primitive_defaults():
    tr = fresh_translator()
    assert tr.default_value(BOOL, Loc.VALUE) == BoolLit(False)
    assert tr.default_value(UINT, Loc.VALUE) == IntLit(0)


def test_storage_array_defaults():
    tr = fresh_translator()
    d = tr.default_value(FixArrayType(INT, 3), Loc.STORAGE)
    assert d == Construct(
        "StorArr$int", (ConstArray(ir.INT, ir.INT, IntLit(0)), IntLit(3))
    )
    d0 = tr.default_value(DynArrayType(INT), Loc.STORAGE)
    assert d0 == Construct(
        "StorArr$int", (ConstArray(ir.INT, ir.INT, IntLit(0)), IntLit(0))
    )


def test_mapping_default_is_const_array():
    tr = fresh_translator()
    d = tr.default_value(MappingType(ADDRESS, BOOL), Loc.STORAGE)
    assert d == ConstArray(ir.INT, ir.BOOL, BoolLit(False))


def test_storage_struct_default_recursive():
    tr = fresh_translator()
    d = tr.default_value(StructType("S"), Loc.STORAGE)
    assert d == Construct("StorStruct$S", (IntLit(0), Construct("StorStruct$T", (IntLit(0),))))


def test_memory_struct_default_allocates():
    tr = fresh_translator()
    result = tr.default_value(StructType("S"), Loc.MEMORY)
    lines = [line for s in tr.stmts for line in format_stmt(s)]
    assert lines[0] == "$alloc := ($alloc + 1)"
    assert "$alloc" in lines[1]
    # nested member t allocates its own entity before the struct write
    assert any(line.startswith("structHeap$T[") for line in lines)
    assert any(line.startswith("structHeap$S[") for line in lines)
    assert isinstance(result, Ident)


def test_memory_array_default_and_eval():
    tr = fresh_translator()
    ptr = tr.default_value(FixArrayType(INT, 2), Loc.MEMORY)
    prog = tr.program.copy_shell()
    prog.stmts = list(tr.stmts)
    env = eval_ir(prog).env
    heap = env["arrHeap$int"]
    obj = heap.read(env[ptr.name])
    assert obj.members[1] == 2  # length
    assert obj.members[0].read(0) == 0 and obj.members[0].read(1) == 0


def test_storage_pointer_has_no_default():
    tr = fresh_translator()
    with pytest.raises(Exception):
        tr.default_value(StructType("S"), Loc.STORPTR)


# ---------------------------------------------------------------------------
# assignment matrix (behavioral, through the evaluator)


def run_constructor_ir(src: str):
    c = compile_source(src)
    tf = translate_function(c, c.constructor)
    return eval_ir(tf.program), tf


def test_value_assignment_is_plain():
    src = DATA_STORAGE
    c = compile_source(src)
    tf = translate_function(c, c.function("append"))
    # `r.set = true` contributes a single assignment into the unpacked
    # entity; no allocation statements in between
    texts = [line for s in tf.program.stmts for line in format_stmt(s)]
    assert any(".set := true" in t for t in texts)


def test_storage_to_storage_is_datatype_assign():
    res, tf = run_constructor_ir(
        "contract C { struct S { int x; } S a; S b; constructor() { a.x = 5; b = a; a.x = 6; } }"
    )
    assert res.env["b"] == VData("StorStruct$S", (5,))
    assert res.env["a"] == VData("StorStruct$S", (6,))


def test_storage_to_memory_allocates_and_copies():
    res, tf = run_constructor_ir(
        """
contract C {
    int[] a;
    constructor() {
        a.push(7);
        int[] memory m = a;
        a.push(8);
    }
}
"""
    )
    env = res.env
    m_ptr = env[next(n for n in tf.program.decls if n == "m")]
    obj = env["arrHeap$int"].read(m_ptr)
    assert obj.members[1] == 1  # snapshot before the second push
    assert obj.members[0].read(0) == 7
    assert env["a"].members[1] == 2


def test_memory_to_storage_deep_copy():
    res, _ = run_constructor_ir(
        """
contract C {
    struct S { int x; int[] data; }
    S s;
    constructor() {
        S memory m = S(3, new int[](2));
        s = m;
    }
}
"""
    )
    s = res.env["s"]
    assert s.members[0] == 3
    assert s.members[1].members[1] == 2  # copied length


def test_memory_to_memory_is_pointer_assignment():
    res, tf = run_constructor_ir(
        """
contract C {
    struct S { int x; }
    constructor() {
        S memory m1 = S(1);
        S memory m2 = m1;
        m2.x = 9;
        assert(m1.x == 9);
    }
}
"""
    )
    assert res.status == "ok"  # aliasing observed concretely


def test_pointer_assignments_pack_and_copy():
    c = compile_source(
        POINTER_CONTRACT.replace(
            "S[] ss;",
            "S[] ss;\n    function f() { S storage p = s1; S storage q = p; q.x = 4; }",
        )
    )
    tf = translate_function(c, c.function("f"))
    res = eval_ir(tf.program)
    assert res.env["s1"].members[0] == 4


def test_unsupported_dynamic_reference_copies():
    src = """
contract C {
    struct S { int x; }
    S[] a;
    constructor() {
        S[] memory m = a;
    }
}
"""
    c = compile_source(src)
    with pytest.raises(UnsupportedError, match="unroll"):
        translate_function(c, c.constructor)
    # bounded mode translates, with a length assumption
    tf = translate_function(c, c.constructor, unroll=3)
    texts = [line for s in tf.program.stmts for line in format_stmt(s)]
    assert any(t.startswith("assume") and "length" in t for t in texts)


def test_unsupported_new_reference_array_with_symbolic_length():
    src = """
contract C {
    struct S { int x; }
    constructor() {
        int n = 3;
        S[] memory m = new S[](n);
    }
}
"""
    c = compile_source(src)
    with pytest.raises(UnsupportedError, match="unroll"):
        translate_function(c, c.constructor)
    # constant lengths enumerate elements instead
    src_const = src.replace("int n = 3;\n        S[] memory m = new S[](n);", "S[] memory m = new S[](2);")
    tf = translate_function(compile_source(src_const), compile_source(src_const).constructor)
    res = eval_ir(tf.program)
    assert res.status == "ok"


def test_unroll_bounds_lengths_instead_of_covering_them():
    """`unroll=2` assumes the symbolic length is at most 2, so a verdict
    covers only such lengths: the IR cannot run with `n = 3`, while the
    oracle runs it and fails the assert that the assumption makes hold."""
    c = compile_source(
        "contract C { struct S { int x; } function f(uint n) { S[] memory a = new S[](n); assert(n <= 2); } }"
    )
    tf = translate_function(c, c.function("f"), unroll=2)
    assert eval_ir(tf.program, {"n": 2}).status == "ok"
    ran = eval_ir(tf.program, {"n": 3})
    assert (ran.status, ran.failed_index) == ("assume-violated", 0)
    assert [a.passed for a in exec_function(c, "f", [3]).asserts] == [False]


def test_negative_unroll_bound_is_rejected():
    """A negative bound would assume `n <= -1` beside `0 <= n`, so every
    later assert would verify vacuously; the translator refuses it."""
    c = compile_source(
        "contract C { struct S { int x; } function f(uint n) { S[] memory a = new S[](n); assert(false); } }"
    )
    with pytest.raises(ValueError, match="got -1"):
        translate_function(c, c.function("f"), -1)
    assert translate_function(c, c.function("f"), 0).asserts


def test_fixed_reference_arrays_copy_without_unroll():
    src = """
contract C {
    struct S { int x; }
    S[2] a;
    constructor() {
        a[0].x = 9;
        S[2] memory m = a;
        s_probe = m[0].x;
    }
    int s_probe;
}
"""
    # state vars must precede the constructor in the fragment grammar
    src = src.replace("    int s_probe;\n", "")
    src = src.replace("S[2] a;", "S[2] a;\n    int s_probe;")
    res, _ = run_constructor_ir(src)
    assert res.env["s_probe"] == 9


def test_memory_param_assumptions():
    src = """
contract C {
    struct S { int x; int[] data; }
    function f(S memory p) { }
}
"""
    c = compile_source(src)
    tf = translate_function(c, c.function("f"))
    texts = [line for s in tf.program.stmts for line in format_stmt(s)]
    p = c.function("f").params[0].name
    assert f"assume ({p} <= $alloc)" in texts
    assert any(t.startswith("assume (structHeap$S[") for t in texts)


def test_memory_param_dynamic_reference_array_needs_unroll():
    src = """
contract C {
    struct S { int x; }
    function f(S[] memory p) { }
}
"""
    c = compile_source(src)
    with pytest.raises(UnsupportedError, match="quantified"):
        translate_function(c, c.function("f"))
    tf = translate_function(c, c.function("f"), unroll=2)
    assert any(isinstance(s, ir.Assume) for s in tf.program.stmts)


def test_memory_param_fixed_array_of_structs_assumes_each_element():
    c = compile_source("contract C { struct T { int z; } function f(T[2] memory xs) { } }")
    tf = translate_function(c, c.function("f"))
    texts = [line for s in tf.program.stmts for line in format_stmt(s)]
    assert [t for t in texts if t.startswith("assume")] == [
        "assume (xs <= $alloc)",
        "assume (arrHeap$T[xs].arr[0] <= $alloc)",
        "assume (arrHeap$T[xs].arr[1] <= $alloc)",
    ]


@pytest.mark.parametrize("header", ["constructor(S memory m)", "function f(S memory m)"])
def test_memory_param_cannot_alias_a_fresh_allocation(header):
    """A memory parameter precedes every allocation in a constructor as in
    a function: the state where `m` is the address `new` hands out next is
    excluded, so the assert, which holds, is never reached failing."""
    c = compile_source(
        f"contract C {{ struct S {{ int x; }} {header} "
        "{ int old = m.x; S memory n = S(old + 1); assert(m.x == old); } }"
    )
    fn = c.constructor or c.function("f")
    ssa = to_ssa(normalize_lhs(translate_function(c, fn).program))
    assert eval_ir(ssa.program, {"$alloc": 0, "m": 1}).status == "assume-violated"
    assert eval_ir(ssa.program, {"$alloc": 1, "m": 1}).status == "ok"


def test_returns_are_default_initialized():
    c = compile_source(DATA_STORAGE)
    tf = translate_function(c, c.function("get"))
    ret = c.function("get").returns[0].name
    texts = [line for s in tf.program.stmts for line in format_stmt(s)]
    # allocation prologue for the memory return value
    assert texts[0] == "$alloc := ($alloc + 1)"
    assert any(t.startswith(f"{ret} :=") for t in texts)


def test_constructor_initializes_state_in_order():
    src = "contract C { int x; bool b; constructor() { } }"
    c = compile_source(src)
    tf = translate_function(c, c.constructor)
    assert tf.program.stmts[0] == Assign(Ident("x"), IntLit(0))
    assert tf.program.stmts[1] == Assign(Ident("b"), BoolLit(False))


def test_delete_assigns_defaults():
    res, _ = run_constructor_ir(
        """
contract C {
    struct S { int x; int[] data; }
    S s;
    constructor() {
        s.x = 3;
        s.data.push(1);
        delete s;
    }
}
"""
    )
    s = res.env["s"]
    assert s.members[0] == 0
    assert s.members[1].members[1] == 0


def test_guarded_index_reads_default_out_of_range():
    res, _ = run_constructor_ir(
        """
contract C {
    int[] a;
    int probe;
    constructor() {
        a.push(5);
        probe = a[3];
    }
}
"""
    )
    assert res.env["probe"] == 0


def test_nested_index_read_is_linear_in_depth():
    # a[a[...a[0]...]] with a = [1, 2, 0] reads depth % 3
    depth = 100
    read = "0"
    for _ in range(depth):
        read = f"a[{read}]"
    c = compile_source(
        f"contract C {{ int[] a; constructor() {{ a.push(1); a.push(2); a.push(0); "
        f"int x = {read}; assert(x == {depth % 3}); }} }}"
    )
    tf = translate_function(c, c.constructor)
    ssa = to_ssa(normalize_lhs(tf.program)).program
    assert len(emit_smtlib(ssa, vc_gen(ssa, 0))) < 64 * 1024
    assert run_constructor(c).failed is None
    assert eval_ir(ssa).status == "ok"
    assert eval_ir(tf.program).env["x"] == depth % 3


def test_temporaries_do_not_overwrite_renamed_locals():
    # the resolver renames g's `tmp` to `tmp~2`, which must not be the
    # name of the tuple assignment's temporary
    c = compile_source(
        """
contract C {
    function f(int tmp) {}
    function g() { int tmp = 1; int a = 2; int b = 3; (a, b) = (b, a); assert(tmp == 1); }
}
"""
    )
    assert exec_function(c, "g").failed is None
    assert eval_ir(translate_function(c, c.function("g")).program).status == "ok"
