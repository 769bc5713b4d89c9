"""Evaluator behavior the rest of the suite leans on."""

import pytest

from irgen import program
from solmem import ir
from solmem.errors import IrError
from solmem.ir import (
    ArrayRead,
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolLit,
    ConstArray,
        Ident,
    IfStmt,
    IntLit,
    Ite,
    Select,
    UnOp,
)
from solmem.ireval import VArray, VData, eval_ir, values_equal
from solmem.smtlib import program_text


def test_arithmetic_assignment():
    p = program(
        Assign(Ident("x"), BinOp("+", IntLit(1), IntLit(2))),
        decls=[("x", ir.INT)],
    )
    result = eval_ir(p)
    assert result.status == "ok"
    assert result.env["x"] == 3


def test_assume_false_stops_before_assert():
    p = program(Assume(BoolLit(False)), Assert(BoolLit(False)))
    result = eval_ir(p)
    assert result.status == "assume-violated"
    assert result.failed_index == 0


def test_const_array_reads_default_everywhere():
    p = program(
        Assign(Ident("a"), ConstArray(ir.INT, ir.INT, IntLit(7))),
        Assign(Ident("x"), ArrayRead(Ident("a"), IntLit(12345))),
        decls=[("a", ir.ArrayType(ir.INT, ir.INT)), ("x", ir.INT)],
    )
    result = eval_ir(p)
    assert result.env["x"] == 7


def test_assert_failure_reports_ordinal():
    p = program(
        Assert(BoolLit(True)),
        Assert(BinOp("==", IntLit(1), IntLit(2))),
        Assert(BoolLit(True)),
    )
    result = eval_ir(p)
    assert result.status == "assert-failed"
    assert result.failed_index == 1


def test_composite_lvalues():
    dt = ir.DatatypeDef("D", (("m1", ir.INT), ("m2", ir.INT)))
    p = program(
        Assign(ArrayRead(Ident("a"), IntLit(2)), IntLit(9)),
        Assign(Select(Ident("d"), "m2", "D"), IntLit(5)),
        Assign(Ite(Ident("c"), Ident("x"), Ident("y")), IntLit(4)),
        decls=[
            ("a", ir.ArrayType(ir.INT, ir.INT)),
            ("d", ir.DatatypeType("D")),
            ("c", ir.BOOL),
            ("x", ir.INT),
            ("y", ir.INT),
        ],
        datatypes=[dt],
    )
    result = eval_ir(p, {"c": False})
    assert result.env["a"].read(2) == 9
    assert result.env["d"].members == (0, 5)
    assert result.env.get("x", 0) == 0 and result.env["y"] == 4


def test_if_statement_branching():
    p = program(
        IfStmt(
            BinOp("<", Ident("x"), IntLit(0)),
            (Assign(Ident("y"), IntLit(1)),),
            (Assign(Ident("y"), IntLit(2)),),
        ),
        decls=[("x", ir.INT), ("y", ir.INT)],
    )
    assert eval_ir(p, {"x": -3}).env["y"] == 1
    assert eval_ir(p, {"x": 3}).env["y"] == 2


ONE = IntLit(1)
INT_CONDITIONS = {
    "ite": Assign(Ident("x"), Ite(ONE, IntLit(2), IntLit(3))),
    "ite_lvalue": Assign(Ite(ONE, Ident("x"), Ident("y")), IntLit(4)),
    "if": IfStmt(ONE, (Assign(Ident("x"), IntLit(5)),), ()),
    "assume": Assume(ONE),
    "assert": Assert(ONE),
    "and": Assert(BinOp("and", BoolLit(True), ONE)),
    "or": Assert(BinOp("or", ONE, BoolLit(False))),
    "not": Assert(UnOp("not", ONE)),
}


@pytest.mark.parametrize("site", INT_CONDITIONS)
def test_int_condition_is_an_error(site):
    p = program(INT_CONDITIONS[site], decls=[("x", ir.INT), ("y", ir.INT)])
    with pytest.raises(IrError, match="not a bool"):
        eval_ir(p)


def test_values_equal_collapses_default_entries():
    assert values_equal(VArray(0, {1: 0}), VArray(0))
    assert not values_equal(VArray(0, {1: 2}), VArray(0))
    assert values_equal(VData("D", (1, True)), VData("D", (1, True)))
    assert not values_equal(0, False) and not values_equal(1, True)


def test_declared_unassigned_reads_default():
    dt = ir.DatatypeDef("D", (("m1", ir.INT), ("m2", ir.BOOL)))
    p = program(
        Assign(Ident("x"), Select(Ident("d"), "m1", "D")),
        decls=[("x", ir.INT), ("d", ir.DatatypeType("D"))],
        datatypes=[dt],
    )
    assert eval_ir(p).env["x"] == 0


def test_program_text_is_stable():
    p = program(
        Assign(Ident("x"), Ite(BoolLit(True), IntLit(1), IntLit(2))),
        Assume(Ident("b")),
        IfStmt(Ident("b"), (Assert(BinOp("==", Ident("x"), IntLit(-1))),), ()),
        decls=[("x", ir.INT), ("b", ir.BOOL)],
    )
    assert program_text(p) == (
        "(set-logic ALL)\n"
        "(declare-const x Int)\n"
        "(declare-const b Bool)\n"
        "(assign x (ite true 1 2))\n"
        "(assume b)\n"
        "(if b (then (check (= x (- 1)))) (else))\n"
    )
