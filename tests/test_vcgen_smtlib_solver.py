"""VC generation, SMT-LIB emission, and the external solver driver."""

import time

import pytest

from irgen import program
from solmem import ir
from solmem.errors import IrError
from solmem.ir import (
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolLit,
    ConstArray,
    DatatypeDef,
    DatatypeType,
    Ident,
    IntLit,
)
from solmem.ireval import eval_ir
from solmem.smtlib import datatype_block, emit_smtlib, expr_to_sexpr
from solmem.solver import check, parse_model
from solmem.vcgen import vc_gen
from solmem.verify import vc_script


def test_vc_for_trivially_valid_assert():
    p = program(
        Assign(Ident("x"), IntLit(1)),
        Assert(BinOp("==", Ident("x"), IntLit(1))),
        decls=[("x", ir.INT)],
    )
    formula = vc_gen(p, 0)
    # x = 1 and not (x = 1): concretely false
    assert eval_ir(program(decls=[("x", ir.INT)]), {}).status == "ok"
    result = eval_ir(program(Assign(Ident("ok"), formula), decls=[("x", ir.INT), ("ok", ir.BOOL)]), {"x": 1})
    assert result.env["ok"] is False


def test_vc_index_out_of_range():
    p = program(Assert(BoolLit(True)))
    with pytest.raises(IrError):
        vc_gen(p, 1)


def test_prior_asserts_are_assumed():
    p = program(
        Assert(BinOp("<", IntLit(0), Ident("x"))),
        Assert(BinOp("<=", IntLit(1), Ident("x"))),
        decls=[("x", ir.INT)],
    )
    formula = vc_gen(p, 1)
    # under x > 0 (integers), x >= 1 cannot fail
    result = eval_ir(
        program(Assign(Ident("ok"), formula), decls=[("x", ir.INT), ("ok", ir.BOOL)]),
        {"x": 1},
    )
    assert result.env["ok"] is False


# ---------------------------------------------------------------------------
# SMT-LIB emission


def test_emit_declares_and_asserts():
    p = program(decls=[("x", ir.BOOL)])
    script = emit_smtlib(p, Ident("x"))
    assert "(set-logic ALL)" in script
    assert "(declare-const x Bool)" in script
    assert "(assert x)" in script
    assert script.index("(check-sat)") < script.index("(get-model)")


def test_datatype_block_has_prefixed_selectors():
    p = program(
        datatypes=[
            DatatypeDef(
                "StorArr$int",
                (("arr", ir.ArrayType(ir.INT, ir.INT)), ("length", ir.INT)),
            )
        ]
    )
    block = datatype_block(p)
    assert "(StorArr$int.arr (Array Int Int))" in block
    assert "(StorArr$int.length Int)" in block


def test_const_array_and_negative_literals():
    assert (
        expr_to_sexpr(ConstArray(ir.INT, ir.INT, IntLit(0)))
        == "((as const (Array Int Int)) 0)"
    )
    assert expr_to_sexpr(IntLit(-3)) == "(- 3)"
    assert expr_to_sexpr(BinOp("!=", Ident("a"), Ident("b"))) == "(distinct a b)"


# ---------------------------------------------------------------------------
# solver driver


def test_assert_false_is_unsat(solver_available):
    assert check("(set-logic ALL)(assert false)(check-sat)\n", 30).kind == "unsat"


def test_sat_with_model(solver_available):
    script = "(set-logic ALL)(declare-const x Int)(assert (> x 0))(check-sat)(get-model)\n"
    verdict = check(script, 30)
    assert verdict.kind == "sat"
    assert int(verdict.model["x"]) >= 1


def test_vc_roundtrip_through_solver(solver_available):
    p = program(
        Assign(Ident("x"), IntLit(1)),
        Assert(BinOp("==", Ident("x"), IntLit(1))),
        decls=[("x", ir.INT)],
    )
    assert check(vc_script(p, 0), 30).kind == "unsat"

    p2 = program(
        Assume(BinOp("<", IntLit(0), Ident("x"))),
        Assert(BinOp("<=", IntLit(1), Ident("x"))),
        decls=[("x", ir.INT)],
    )
    assert check(vc_script(p2, 0), 30).kind == "unsat"

    p3 = program(
        Assign(Ident("x"), Ident("y")),
        Assert(BinOp("==", Ident("x"), IntLit(0))),
        decls=[("x", ir.INT), ("y", ir.INT)],
    )
    verdict = check(vc_script(p3, 0), 30)
    assert verdict.kind == "sat"
    assert int(verdict.model["y"]) != 0


def test_datatype_script_roundtrips(solver_available):
    p = program(
        Assign(
            Ident("a"),
            ir.Construct("StorArr$int", (ConstArray(ir.INT, ir.INT, IntLit(0)), IntLit(3))),
        ),
        Assert(BinOp("==", ir.Select(Ident("a"), "length", "StorArr$int"), IntLit(3))),
        decls=[("a", DatatypeType("StorArr$int"))],
        datatypes=[
            DatatypeDef(
                "StorArr$int",
                (("arr", ir.ArrayType(ir.INT, ir.INT)), ("length", ir.INT)),
            )
        ],
    )
    assert check(vc_script(p, 0), 30).kind == "unsat"


def test_timeout_kills_solver(solver_available):
    # a pigeonhole-flavored blowup: 12 integers forced pairwise distinct
    # inside [0, 10], plus nonlinear noise to stall preprocessing
    lines = ["(set-logic ALL)"]
    n = 12
    for i in range(n):
        lines.append(f"(declare-const x{i} Int)")
        lines.append(f"(assert (and (<= 0 x{i}) (<= x{i} {n - 2})))")
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f"(assert (distinct (* x{i} x{i} x{j}) (* x{j} x{j} x{i})))")
    lines.append("(check-sat)")
    script = "\n".join(lines) + "\n"
    start = time.monotonic()
    verdict = check(script, timeout_seconds=0.001)
    elapsed = time.monotonic() - start
    assert verdict.kind == "timeout"
    assert elapsed < 10


def test_deterministic_verdicts(solver_available):
    script = "(set-logic ALL)(declare-const x Int)(assert (> x 41))(check-sat)(get-model)\n"
    kinds = {check(script, 30).kind for _ in range(2)}
    assert kinds == {"sat"}


def test_missing_solver_binary_reports_error(monkeypatch):
    monkeypatch.setenv("SOLMEM_SOLVER", "definitely-not-a-solver-binary")
    verdict = check("(check-sat)\n", 5)
    assert verdict.kind == "error"
    assert "definitely-not-a-solver-binary" in verdict.detail


# ---------------------------------------------------------------------------
# model parsing


def test_parse_model_define_funs():
    text = """sat
(
  (define-fun x () Int 3)
  (define-fun b () Bool true)
  (define-fun n () Int (- 4))
)
"""
    model = parse_model(text)
    assert model["x"] == "3"
    assert model["b"] == "true"
    assert model["n"] == "-4"


def test_parse_model_preserves_composite_values():
    text = "(\n(define-fun a () StorArr$int (StorArr$int ((as const (Array Int Int)) 0) 2))\n)"
    model = parse_model(text)
    assert model["a"].startswith("(StorArr$int")


def test_parse_model_skips_an_entry_whose_name_is_not_an_atom():
    assert parse_model("((define-fun (x) () Int 3) (define-fun y () Int 4))") == {"y": "4"}


def test_parse_model_of_a_3000_deep_value():
    """A value nested past the recursion limit parses to its own text."""
    value = "(store " * 3000 + "((as const (Array Int Int)) 0)" + " 1 2)" * 3000
    assert parse_model(f"sat\n(\n  (define-fun a () (Array Int Int) {value})\n)\n") == {"a": value}
