"""Sort inference for IR programs, without a solver.

`check_program` reads the sorts of identifiers from the program's
`decls` and of datatype members from its `datatypes`, infers the sort of
every term and raises `SortError` where a solver would reject the
SMT-LIB script: a non-Bool condition, arguments of different sorts to
`=`, a `select`/`store` whose index or value does not match the array,
arithmetic or comparison on non-Int terms, a connective on non-Bool
terms, and a constructor or selector applied to the wrong datatype.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from solmem.ir import (
    BOOL,
    INT,
    ArrayRead,
    ArrayType,
    ArrayWrite,
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolLit,
    ConstArray,
    Construct,
    DatatypeType,
    Ident,
    IfStmt,
    IntLit,
    IrExpr,
    IrType,
    Ite,
    Select,
    SmtProgram,
    UnOp,
)
from solmem.smtlib import expr_to_sexpr, sort_of as sort_name

_INT_OPS = {"+": INT, "-": INT, "<": BOOL, "<=": BOOL, ">": BOOL, ">=": BOOL}


class SortError(Exception):
    pass


def _expect(e: IrExpr, got: IrType, want: IrType, role: str) -> None:
    if got != want:
        raise SortError(f"{role} of {expr_to_sexpr(e)} is {sort_name(got)}, expected {sort_name(want)}")


def _ident(program: SmtProgram, e: Ident) -> IrType:
    ty = program.decls.get(e.name)
    if ty is None:
        raise SortError(f"undeclared identifier {e.name}")
    return ty


def _array(e: ArrayRead | ArrayWrite, arr: IrType, index: IrType) -> ArrayType:
    """`arr`, the sort of the array of a read or write; `index`, the sort
    of its index, must match it."""
    if not isinstance(arr, ArrayType):
        raise SortError(f"array of {expr_to_sexpr(e)} has sort {sort_name(arr)}")
    _expect(e, index, arr.index, "index")
    return arr


def _read(program: SmtProgram, e: ArrayRead) -> IrType:
    return _array(e, _SORT[type(e.array)](program, e.array), _SORT[type(e.index)](program, e.index)).elem


def _write(program: SmtProgram, e: ArrayWrite) -> IrType:
    arr = _array(e, _SORT[type(e.array)](program, e.array), _SORT[type(e.index)](program, e.index))
    _expect(e, _SORT[type(e.value)](program, e.value), arr.elem, "stored value")
    return arr


def _const_array(program: SmtProgram, e: ConstArray) -> IrType:
    _expect(e, _SORT[type(e.value)](program, e.value), e.elem, "value")
    return ArrayType(e.index, e.elem)


def _construct(program: SmtProgram, e: Construct) -> IrType:
    dt = program.datatypes.get(e.datatype)
    if dt is None or len(dt.members) != len(e.args):
        raise SortError(f"no constructor {e.datatype} of arity {len(e.args)}")
    for (name, ty), arg in zip(dt.members, e.args):
        _expect(e, _SORT[type(arg)](program, arg), ty, f"member {name}")
    return DatatypeType(e.datatype)


def _select(program: SmtProgram, e: Select) -> IrType:
    _expect(e, _SORT[type(e.base)](program, e.base), DatatypeType(e.datatype), "base")
    dt = program.datatypes.get(e.datatype)
    members = dict(dt.members) if dt is not None else {}
    if e.member not in members:
        raise SortError(f"datatype {e.datatype} has no member {e.member}")
    return members[e.member]


def _ite(program: SmtProgram, e: Ite) -> IrType:
    _expect(e, _SORT[type(e.cond)](program, e.cond), BOOL, "condition")
    then = _SORT[type(e.then)](program, e.then)
    _expect(e, _SORT[type(e.other)](program, e.other), then, "else branch")
    return then


def _binop(program: SmtProgram, e: BinOp) -> IrType:
    left, right = _SORT[type(e.left)](program, e.left), _SORT[type(e.right)](program, e.right)
    if e.op in ("==", "!="):
        _expect(e, right, left, "right operand")
        return BOOL
    if e.op in ("and", "or"):
        operand, result = BOOL, BOOL
    elif e.op in _INT_OPS:
        operand, result = INT, _INT_OPS[e.op]
    else:
        raise SortError(f"unknown operator {e.op}")
    _expect(e, left, operand, "left operand")
    _expect(e, right, operand, "right operand")
    return result


def _unop(program: SmtProgram, e: UnOp) -> IrType:
    operand = {"not": BOOL, "neg": INT}.get(e.op)
    if operand is None:
        raise SortError(f"unknown operator {e.op}")
    _expect(e, _SORT[type(e.operand)](program, e.operand), operand, "operand")
    return operand


# One handler per exact node class, as in the pipeline's walkers.
_SORT: dict[type, Callable[[SmtProgram, Any], IrType]] = {
    Ident: _ident,
    IntLit: lambda program, e: INT,
    BoolLit: lambda program, e: BOOL,
    ArrayRead: _read,
    ArrayWrite: _write,
    ConstArray: _const_array,
    Construct: _construct,
    Select: _select,
    Ite: _ite,
    BinOp: _binop,
    UnOp: _unop,
}


def sort_of(program: SmtProgram, e: IrExpr) -> IrType:
    """Sort of `e` in `program`; SortError if `e` is ill-sorted."""
    try:
        return _SORT[type(e)](program, e)
    except KeyError as err:
        raise SortError(f"unknown expression node {err.args[0].__name__}") from None


def _check_stmts(program: SmtProgram, stmts) -> None:
    for s in stmts:
        if isinstance(s, Assign):
            _expect(s.rhs, sort_of(program, s.rhs), sort_of(program, s.lhs), "assigned value")
        elif isinstance(s, (Assume, Assert)):
            _expect(s.cond, sort_of(program, s.cond), BOOL, "condition")
        elif isinstance(s, IfStmt):
            _expect(s.cond, sort_of(program, s.cond), BOOL, "condition")
            _check_stmts(program, s.then)
            _check_stmts(program, s.other)
        else:
            raise SortError(f"unknown statement {s!r}")


def check_program(program: SmtProgram) -> None:
    """SortError unless every statement of `program` is well-sorted."""
    _check_stmts(program, program.stmts)
