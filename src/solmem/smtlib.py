"""SMT-LIB v2 script emission.

Produces solver-agnostic scripts: one `declare-datatypes` command for all
single-constructor datatypes (selectors are prefixed with the datatype
name to keep them globally unique), `declare-const` per variable, one
`assert`, `check-sat`, and `get-model`. Constant arrays use the standard
`as const` form. No quantifiers are ever emitted.

The VCs of one program share their conjuncts (see `vcgen`). The text of
each conjunct, and the header of datatypes and declarations, is printed
once per program and kept on it; every script is assembled from those
strings and joined once.

`program_text` prints a whole IR program in the same syntax for `--emit-ir`.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from typing import Any

from .errors import IrError
from .ir import (
    ArrayRead,
    ArrayType,
    ArrayWrite,
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolLit,
    BoolType,
    ConstArray,
    Construct,
    DatatypeType,
    Ident,
    IfStmt,
    IntLit,
    IntType,
    IrExpr,
    IrStmt,
    IrType,
    SmtProgram,
    Ite,
    Select,
    UnOp,
    unknown_key,
)


@cache
def sort_of(ty: IrType) -> str:
    """The SMT-LIB sort of an IR type; types are interned, so each is
    printed once."""
    if isinstance(ty, IntType):
        return "Int"
    if isinstance(ty, BoolType):
        return "Bool"
    if isinstance(ty, ArrayType):
        return f"(Array {sort_of(ty.index)} {sort_of(ty.elem)})"
    if isinstance(ty, DatatypeType):
        return ty.name
    raise IrError(f"unknown type {type(ty).__name__}")


def selector_name(datatype: str, member: str) -> str:
    return f"{datatype}.{member}"


# IR operator -> SMT-LIB function; the others are spelled alike
_OPS = {"==": "=", "!=": "distinct"} | {op: op for op in ("+", "-", "<", "<=", ">", ">=", "and", "or")}
_UNOPS = {"not": "not", "neg": "-"}
# `--emit-ir` statement heads; `check`, since a solver reads `assert` as an assumption
_HEADS = {Assume: "assume", Assert: "check"}

_SEXPR: dict[type, Callable[[Any], str]] = {
    Ident: lambda e: e.name,
    IntLit: lambda e: str(e.value) if e.value >= 0 else f"(- {-e.value})",
    BoolLit: lambda e: "true" if e.value else "false",
    ArrayRead: lambda e: f"(select {_SEXPR[type(e.array)](e.array)} {_SEXPR[type(e.index)](e.index)})",
    ArrayWrite: lambda e: (
        f"(store {_SEXPR[type(e.array)](e.array)} "
        f"{_SEXPR[type(e.index)](e.index)} {_SEXPR[type(e.value)](e.value)})"
    ),
    ConstArray: lambda e: (
        f"((as const (Array {sort_of(e.index)} {sort_of(e.elem)})) {_SEXPR[type(e.value)](e.value)})"
    ),
    Construct: lambda e: (
        f"({e.datatype} {' '.join([_SEXPR[type(a)](a) for a in e.args])})" if e.args else e.datatype
    ),
    Select: lambda e: f"({selector_name(e.datatype, e.member)} {_SEXPR[type(e.base)](e.base)})",
    Ite: lambda e: (
        f"(ite {_SEXPR[type(e.cond)](e.cond)} "
        f"{_SEXPR[type(e.then)](e.then)} {_SEXPR[type(e.other)](e.other)})"
    ),
    BinOp: lambda e: f"({_OPS[e.op]} {_SEXPR[type(e.left)](e.left)} {_SEXPR[type(e.right)](e.right)})",
    UnOp: lambda e: f"({_UNOPS[e.op]} {_SEXPR[type(e.operand)](e.operand)})",
}


def expr_to_sexpr(e: IrExpr) -> str:
    try:
        return _SEXPR[type(e)](e)
    except KeyError as err:
        raise unknown_key(err) from None


def datatype_block(program: SmtProgram) -> str:
    if not program.datatypes:
        return ""
    heads = " ".join(f"({name} 0)" for name in program.datatypes)
    bodies = []
    for dt in program.datatypes.values():
        sels = " ".join(
            f"({selector_name(dt.name, m)} {sort_of(t)})" for m, t in dt.members
        )
        bodies.append(f"(({dt.name} {sels}))")
    return f"(declare-datatypes ({heads}) ({' '.join(bodies)}))"


def _print_conjunction(e: IrExpr, printed: dict[int, tuple[IrExpr, str]], out: list[str]) -> None:
    """Append the text of `e` to `out`: one frame per `and` down the left
    spine, and each conjunct's text from `printed`."""
    if isinstance(e, BinOp) and e.op == "and":
        out.append("(and ")
        _print_conjunction(e.left, printed, out)
        out.append(" ")
        out.append(_conjunct_text(e.right, printed))
        out.append(")")
    else:
        out.append(_conjunct_text(e, printed))


def _conjunct_text(e: IrExpr, printed: dict[int, tuple[IrExpr, str]]) -> str:
    entry = printed.get(id(e))
    if entry is None:
        entry = printed[id(e)] = (e, expr_to_sexpr(e))
    return entry[1]


def _header(program: SmtProgram) -> str:
    """`set-logic`, the datatypes and the declarations, kept on the program
    and printed again only when `datatypes` or `decls` has changed."""
    memo = program.header
    if memo is None or memo[0] != program.datatypes or memo[1] != program.decls:
        out = ["(set-logic ALL)\n"]
        block = datatype_block(program)
        if block:
            out.append(block + "\n")
        for name, ty in program.decls.items():
            out.append(f"(declare-const {name} {sort_of(ty)})\n")
        memo = program.header = (dict(program.datatypes), dict(program.decls), "".join(out))
    return memo[2]


def emit_smtlib(program: SmtProgram, formula: IrExpr) -> str:
    """Complete SMT-LIB session checking satisfiability of `formula` over
    the program's datatypes and declarations."""
    out = [_header(program), "(assert "]
    _print_conjunction(formula, program.printed, out)
    out.append(")\n(check-sat)\n(get-model)\n")
    return "".join(out)


def _stmt_text(s: IrStmt) -> str:
    if isinstance(s, Assign):
        return f"(assign {expr_to_sexpr(s.lhs)} {expr_to_sexpr(s.rhs)})"
    head = _HEADS.get(type(s))
    if head is not None:
        return f"({head} {expr_to_sexpr(s.cond)})"
    if isinstance(s, IfStmt):
        then, other = ("".join(" " + _stmt_text(t) for t in branch) for branch in (s.then, s.other))
        return f"(if {expr_to_sexpr(s.cond)} (then{then}) (else{other}))"
    raise IrError(f"unknown statement node {type(s).__name__}")


def program_text(program: SmtProgram) -> str:
    """The header of a script, then one line per statement: `(assign L R)`,
    `(assume C)`, `(check C)` or `(if C (then ...) (else ...))`."""
    return _header(program) + "".join(_stmt_text(s) + "\n" for s in program.stmts)
