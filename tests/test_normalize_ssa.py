"""LHS elimination and SSA conversion, checked against the evaluator."""

import pytest

from irgen import program, random_env, random_ir_program
from solmem import ir
from solmem.errors import IrError
from solmem.ir import (
    ArrayRead,
    ArrayWrite,
    Assert,
    Assign,
    BoolLit,
    Construct,
    Ident,
    IfStmt,
    IntLit,
    Ite,
    Select,
)
from solmem.ireval import eval_ir, values_equal
from solmem.normalize import normalize_lhs
from solmem.ssa import to_ssa


def test_array_write_rule():
    p = program(decls=[("a", ir.ArrayType(ir.INT, ir.INT)), ("i", ir.INT), ("e", ir.INT)])
    p.stmts = [Assign(ArrayRead(Ident("a"), Ident("i")), Ident("e"))]
    out = normalize_lhs(p)
    assert out.stmts == [Assign(Ident("a"), ArrayWrite(Ident("a"), Ident("i"), Ident("e")))]


def test_member_constructor_rule():
    dt = ir.DatatypeDef("D", (("m1", ir.INT), ("m2", ir.INT), ("m3", ir.INT)))
    p = program(decls=[("d", ir.DatatypeType("D")), ("e", ir.INT)], datatypes=[dt])
    p.stmts = [Assign(Select(Ident("d"), "m2", "D"), Ident("e"))]
    out = normalize_lhs(p)
    expected = Assign(
        Ident("d"),
        Construct(
            "D",
            (Select(Ident("d"), "m1", "D"), Ident("e"), Select(Ident("d"), "m3", "D")),
        ),
    )
    assert out.stmts == [expected]


def test_ite_branch_duplication_rule():
    p = program(decls=[("c", ir.BOOL), ("x", ir.INT), ("y", ir.INT)])
    p.stmts = [Assign(Ite(Ident("c"), Ident("x"), Ident("y")), IntLit(5))]
    out = normalize_lhs(p)
    assert out.stmts == [
        IfStmt(
            Ident("c"),
            (Assign(Ident("x"), IntLit(5)),),
            (Assign(Ident("y"), IntLit(5)),),
        )
    ]


def test_nested_lvalue_peels_to_identifier():
    dt = ir.DatatypeDef("D", (("m", ir.ArrayType(ir.INT, ir.INT)),))
    p = program(decls=[("d", ir.DatatypeType("D"))], datatypes=[dt])
    p.stmts = [Assign(ArrayRead(Select(Ident("d"), "m", "D"), IntLit(1)), IntLit(9))]
    out = normalize_lhs(p)
    (stmt,) = out.stmts
    assert isinstance(stmt, Assign) and stmt.lhs == Ident("d")
    result = eval_ir(out)
    assert result.env["d"].members[0].read(1) == 9


def test_identifier_assignments_are_kept_not_rebuilt():
    p = program(decls=[("c", ir.BOOL), ("x", ir.INT), ("a", ir.ArrayType(ir.INT, ir.INT))])
    top, nested = Assign(Ident("x"), IntLit(1)), Assign(Ident("x"), IntLit(2))
    composite = Assign(ArrayRead(Ident("a"), IntLit(0)), IntLit(3))
    p.stmts = [top, IfStmt(Ident("c"), (nested,), (composite,))]
    out = normalize_lhs(p)
    assert out.stmts[0] is top
    assert out.stmts[1].then[0] is nested
    assert out.stmts[1].other == (Assign(Ident("a"), ArrayWrite(Ident("a"), IntLit(0), IntLit(3))),)
    assert p.stmts[1].other == (composite,)  # the input is left as it was


def test_non_lvalue_rejected():
    p = program()
    p.stmts = [Assign(IntLit(3), IntLit(4))]
    with pytest.raises(IrError):
        normalize_lhs(p)


def test_ssa_sequential_renaming():
    p = program(decls=[("x", ir.INT)])
    p.stmts = [
        Assign(Ident("x"), IntLit(1)),
        Assign(Ident("x"), ir.BinOp("+", Ident("x"), IntLit(1))),
    ]
    out = to_ssa(p)
    assert out.program.stmts == [
        Assign(Ident("x!1"), IntLit(1)),
        Assign(Ident("x!2"), ir.BinOp("+", Ident("x!1"), IntLit(1))),
    ]
    assert out.final_versions["x"] == "x!2"


def test_ssa_merges_branches_with_ite():
    p = program(decls=[("c", ir.BOOL), ("x", ir.INT)])
    p.stmts = [
        IfStmt(
            Ident("c"),
            (Assign(Ident("x"), IntLit(1)),),
            (Assign(Ident("x"), IntLit(2)),),
        ),
        Assert(ir.BinOp("<", IntLit(0), Ident("x"))),
    ]
    out = to_ssa(p)
    stmts = out.program.stmts
    # both branch definitions, one ite merge, then the assert over it
    merge = stmts[2]
    assert isinstance(merge, Assign)
    assert merge.rhs == Ite(Ident("c"), Ident("x!1"), Ident("x!2"))
    assert isinstance(stmts[3], Assert)
    assert out.final_versions["x"] == merge.lhs.name
    for env in ({"c": True}, {"c": False}):
        a = eval_ir(p, dict(env))
        b = eval_ir(out.program, dict(env))
        assert a.status == b.status == "ok"
        assert a.env["x"] == b.env[out.final_versions["x"]]


# Seeds 0-999 in 40 shards: shard k runs seeds k, k + 40, ..., k + 960.
SEEDS = 1000
SHARDS = 40


@pytest.mark.parametrize("shard", range(SHARDS))
def test_transformations_preserve_evaluation(shard):
    """On each seed's random program and environment, LHS elimination and
    SSA conversion keep the outcome, the index of a failing assert and,
    when the program runs to the end, every declared name's final value."""
    for seed in range(shard, SEEDS, SHARDS):
        original = random_ir_program(seed)
        env = random_env(seed)
        normalized = normalize_lhs(original)
        ssa = to_ssa(normalized)
        r0, r1, r2 = (eval_ir(p, dict(env)) for p in (original, normalized, ssa.program))
        assert (r0.status, r0.failed_index) == (r1.status, r1.failed_index) == (r2.status, r2.failed_index), seed
        if r0.status == "ok":
            for name in original.decls:
                assert values_equal(r0.env.get(name), r1.env.get(name)), (seed, name)
                assert values_equal(r0.env.get(name), r2.env.get(ssa.final_versions[name])), (seed, name)


def test_ssa_requires_normalized_input():
    p = program(decls=[("a", ir.ArrayType(ir.INT, ir.INT))])
    p.stmts = [Assign(ArrayRead(Ident("a"), IntLit(0)), IntLit(1))]
    with pytest.raises(IrError):
        to_ssa(p)


def test_ssa_guards_nested_asserts_with_path_condition():
    p = program(decls=[("c", ir.BOOL)])
    p.stmts = [IfStmt(Ident("c"), (Assert(BoolLit(False)),), ())]
    out = to_ssa(p)
    assert eval_ir(out.program, {"c": False}).status == "ok"
    assert eval_ir(out.program, {"c": True}).status == "assert-failed"
