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
    format_expr,
)

_INT_OPS = {"+": INT, "-": INT, "<": BOOL, "<=": BOOL, ">": BOOL, ">=": BOOL}


class SortError(Exception):
    pass


def _expect(e: IrExpr, got: IrType, want: IrType, role: str) -> None:
    if got != want:
        raise SortError(f"{role} of {format_expr(e)} is {got}, expected {want}")


def sort_of(program: SmtProgram, e: IrExpr) -> IrType:
    """Sort of `e` in `program`; SortError if `e` is ill-sorted."""
    if isinstance(e, Ident):
        ty = program.decl_type(e.name)
        if ty is None:
            raise SortError(f"undeclared identifier {e.name}")
        return ty
    if isinstance(e, IntLit):
        return INT
    if isinstance(e, BoolLit):
        return BOOL
    if isinstance(e, (ArrayRead, ArrayWrite)):
        arr = sort_of(program, e.array)
        if not isinstance(arr, ArrayType):
            raise SortError(f"array of {format_expr(e)} has sort {arr}")
        _expect(e, sort_of(program, e.index), arr.index, "index")
        if isinstance(e, ArrayRead):
            return arr.elem
        _expect(e, sort_of(program, e.value), arr.elem, "stored value")
        return arr
    if isinstance(e, ConstArray):
        _expect(e, sort_of(program, e.value), e.elem, "value")
        return ArrayType(e.index, e.elem)
    if isinstance(e, Construct):
        dt = program.datatype(e.datatype)
        if dt is None or len(dt.members) != len(e.args):
            raise SortError(f"no constructor {e.datatype} of arity {len(e.args)}")
        for (name, ty), arg in zip(dt.members, e.args):
            _expect(e, sort_of(program, arg), ty, f"member {name}")
        return DatatypeType(e.datatype)
    if isinstance(e, Select):
        _expect(e, sort_of(program, e.base), DatatypeType(e.datatype), "base")
        dt = program.datatype(e.datatype)
        members = dict(dt.members) if dt is not None else {}
        if e.member not in members:
            raise SortError(f"datatype {e.datatype} has no member {e.member}")
        return members[e.member]
    if isinstance(e, Ite):
        _expect(e, sort_of(program, e.cond), BOOL, "condition")
        then = sort_of(program, e.then)
        _expect(e, sort_of(program, e.other), then, "else branch")
        return then
    if isinstance(e, BinOp):
        left, right = sort_of(program, e.left), sort_of(program, e.right)
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
    if isinstance(e, UnOp):
        operand = {"not": BOOL, "neg": INT}.get(e.op)
        if operand is None:
            raise SortError(f"unknown operator {e.op}")
        _expect(e, sort_of(program, e.operand), operand, "operand")
        return operand
    raise SortError(f"unknown expression {e!r}")


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
