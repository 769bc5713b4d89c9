"""The IR walkers take one Python frame per expression level.

`ssa.rename_idents` and `smtlib.expr_to_sexpr` run at
the default recursion limit on a 700-deep left-nested sum and a 700-deep
`ite` else-chain, the shapes that long source expressions and storage
pointer unpacking produce. A node class or operator that a walker's
table lacks is an `IrError`, never a `KeyError` or a guessed text.
"""

import sys

import pytest

from solmem import ir
from solmem.errors import IrError
from solmem.ir import BinOp, BoolLit, Ident, IntLit, Ite, SmtProgram, UnOp
from solmem.ireval import eval_ir
from solmem.smtlib import expr_to_sexpr, program_text
from solmem.ssa import rename_idents

DEPTH = 700


def _sum_chain(depth: int):
    e = IntLit(1)
    for _ in range(depth):
        e = BinOp("+", e, Ident("x"))
    return e


def _ite_chain(depth: int):
    e = IntLit(0)
    for k in range(depth):
        e = Ite(BinOp("==", Ident("i"), IntLit(k)), Ident(f"a{k}"), e)
    return e


WALKERS = {
    "rename_idents": lambda e: rename_idents(e, {"x": "x!1"}),
    "expr_to_sexpr": expr_to_sexpr,
}


@pytest.mark.parametrize("walker", WALKERS)
@pytest.mark.parametrize("chain", [_sum_chain, _ite_chain], ids=["sum", "ite"])
def test_700_deep_chain_at_the_default_recursion_limit(walker, chain):
    assert sys.getrecursionlimit() == 1000
    assert WALKERS[walker](chain(DEPTH)) is not None


def test_700_deep_chains_come_out_whole():
    renamed = rename_idents(_sum_chain(DEPTH), {"x": "x!1"})
    assert expr_to_sexpr(renamed) == "(+ " * DEPTH + "1" + " x!1)" * DEPTH
    assert expr_to_sexpr(_sum_chain(DEPTH)) == "(+ " * DEPTH + "1" + " x)" * DEPTH
    assert expr_to_sexpr(_ite_chain(DEPTH)).count("(ite (= i ") == DEPTH


def _evaluate(e):
    program = SmtProgram(decls={"x": ir.INT, "y": ir.INT})
    program.stmts.append(ir.Assign(Ident("y"), e))
    return eval_ir(program)


@pytest.mark.parametrize("walker", [*WALKERS, "eval_ir"])
def test_a_non_ir_object_in_a_tree_is_an_ir_error(walker):
    tree = BinOp("+", Ident("x"), Ite(BoolLit(True), object(), IntLit(0)))
    with pytest.raises(IrError, match="unknown expression node object"):
        WALKERS.get(walker, _evaluate)(tree)


@pytest.mark.parametrize("printer", [expr_to_sexpr], ids=["expr_to_sexpr"])
def test_an_unknown_unary_operator_is_an_ir_error(printer):
    assert [printer(UnOp(op, Ident("x"))) for op in ("not", "neg")] == ["(not x)", "(- x)"]
    with pytest.raises(IrError, match="unknown operator abs"):
        printer(UnOp("abs", Ident("x")))


def test_a_select_of_an_unknown_member_is_an_ir_error():
    program = SmtProgram(decls={"d": ir.DatatypeType("D"), "y": ir.INT})
    program.add_datatype(ir.DatatypeDef("D", (("a", ir.INT),)))
    program.stmts.append(ir.Assign(Ident("y"), ir.Select(Ident("d"), "b", "D")))
    with pytest.raises(IrError, match="datatype D has no member b"):
        eval_ir(program)


def test_an_unknown_statement_is_an_ir_error():
    with pytest.raises(IrError, match="unknown statement node"):
        program_text(SmtProgram(stmts=[object()]))
