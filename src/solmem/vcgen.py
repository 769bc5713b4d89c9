"""Verification condition generation over flat SSA programs.

One formula per assert: the conjunction of all definitional equalities,
all assumptions, every assert condition strictly before the target (prior
checks are taken as established), and the negation of the target. The
formula is satisfiable exactly when the target assert can fail.
"""

from __future__ import annotations

from .errors import IrError
from .ir import (
    Assert,
    Assign,
    Assume,
    IfStmt,
    Ident,
    IrExpr,
    SmtProgram,
    conjoin,
    eq,
    not_,
)


def assert_count(program: SmtProgram) -> int:
    return sum(1 for s in program.stmts if isinstance(s, Assert))


def vc_gen(program: SmtProgram, assert_index: int) -> IrExpr:
    """Formula whose satisfiability witnesses a failure of assert number
    `assert_index` (0-based, in program order)."""
    if assert_index < 0 or assert_index >= assert_count(program):
        raise IrError(f"assert index {assert_index} out of range")
    parts: list[IrExpr] = []
    seen = 0
    for s in program.stmts:
        if isinstance(s, IfStmt):
            raise IrError("vc_gen requires a flat SSA program")
        if isinstance(s, Assign):
            if not isinstance(s.lhs, Ident):
                raise IrError("vc_gen requires identifier assignment targets")
            parts.append(eq(s.lhs, s.rhs))
        elif isinstance(s, Assume):
            parts.append(s.cond)
        elif isinstance(s, Assert):
            if seen == assert_index:
                parts.append(not_(s.cond))
                return conjoin(parts)
            parts.append(s.cond)
            seen += 1
    raise IrError("unreachable")


def frame_formula(program: SmtProgram, pre_name: str, post_name: str) -> IrExpr:
    """Formula satisfiable iff `post_name` can differ from `pre_name`.

    Used for non-aliasing and deep-copy validity checks: conjunction of
    all definitions and assumptions with the negation of pre == post.
    """
    parts: list[IrExpr] = []
    for s in program.stmts:
        if isinstance(s, IfStmt):
            raise IrError("frame_formula requires a flat SSA program")
        if isinstance(s, Assign):
            parts.append(eq(s.lhs, s.rhs))
        elif isinstance(s, Assume):
            parts.append(s.cond)
    parts.append(not_(eq(Ident(pre_name), Ident(post_name))))
    return conjoin(parts)
