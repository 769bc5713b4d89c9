"""Rewrite composite assignment targets into identifier assignments.

Three rules, applied iteratively until every assignment target is a plain
identifier:

  a[i] := e          becomes  a := a[i <- e]
  d.m := e           becomes  d := D(d.m1, ..., e, ..., d.mn)
  ite(c, t, f) := e  becomes  if c { t := e } else { f := e }
"""

from __future__ import annotations

from .errors import IrError
from .gcpause import gc_paused
from .ir import (
    ArrayRead,
    ArrayWrite,
    Assign,
    Construct,
    Ident,
    IfStmt,
    IrStmt,
    Ite,
    Select,
    SmtProgram,
)


def _normalize_assign(stmt: Assign, program: SmtProgram) -> list[IrStmt]:
    lhs, rhs = stmt.lhs, stmt.rhs
    while True:
        if isinstance(lhs, Ident):
            return [Assign(lhs, rhs)]
        if isinstance(lhs, ArrayRead):
            rhs = ArrayWrite(lhs.array, lhs.index, rhs)
            lhs = lhs.array
            continue
        if isinstance(lhs, Select):
            dt = program.datatype(lhs.datatype)
            if dt is None:
                raise IrError(f"unknown datatype {lhs.datatype}")
            args = [
                rhs if name == lhs.member else Select(lhs.base, name, dt.name)
                for name, _ in dt.members
            ]
            rhs = Construct(dt.name, tuple(args))
            lhs = lhs.base
            continue
        if isinstance(lhs, Ite):
            then = _normalize_assign(Assign(lhs.then, rhs), program)
            other = _normalize_assign(Assign(lhs.other, rhs), program)
            return [IfStmt(lhs.cond, tuple(then), tuple(other))]
        raise IrError(f"assignment target is not an lvalue: {lhs!r}")


def _normalize_stmts(stmts, program: SmtProgram) -> list[IrStmt]:
    out: list[IrStmt] = []
    for s in stmts:
        if isinstance(s, Assign):
            out.extend(_normalize_assign(s, program))
        elif isinstance(s, IfStmt):
            out.append(
                IfStmt(
                    s.cond,
                    tuple(_normalize_stmts(s.then, program)),
                    tuple(_normalize_stmts(s.other, program)),
                )
            )
        else:
            out.append(s)
    return out


@gc_paused
def normalize_lhs(program: SmtProgram) -> SmtProgram:
    """Program with every assignment target reduced to an identifier."""
    result = program.copy_shell()
    result.stmts = _normalize_stmts(program.stmts, program)
    return result
