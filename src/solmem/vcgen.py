"""Verification condition generation over flat SSA programs.

One formula per assert: the conjunction of all definitional equalities,
all assumptions, every assert condition strictly before the target (prior
checks are taken as established), and the negation of the target. The
formula is satisfiable exactly when the target assert can fail.

One walk over the program builds its conjuncts; the walk is kept on the
program and redone only when `stmts` changes. Every VC is a prefix of
that list plus one negation, so the VCs of a program share their conjunct
objects and `smtlib.emit_smtlib` prints each definition once per program.
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


def _conjuncts(program: SmtProgram) -> tuple[list[IrExpr], list[int]]:
    """Every definition, assumption and assert condition in program order,
    and the index of each assert's condition in that list."""
    memo = program.conjuncts
    if memo is not None and memo[0] == program.stmts:
        return memo[1], memo[2]
    parts: list[IrExpr] = []
    positions: list[int] = []
    for s in program.stmts:
        if isinstance(s, IfStmt):
            raise IrError("VC generation requires a flat SSA program")
        if isinstance(s, Assign):
            if not isinstance(s.lhs, Ident):
                raise IrError("VC generation requires identifier assignment targets")
            parts.append(eq(s.lhs, s.rhs))
        elif isinstance(s, Assume):
            parts.append(s.cond)
        elif isinstance(s, Assert):
            positions.append(len(parts))
            parts.append(s.cond)
    program.conjuncts = (list(program.stmts), parts, positions)
    return parts, positions


def vc_gen(program: SmtProgram, assert_index: int) -> IrExpr:
    """Formula whose satisfiability witnesses a failure of assert number
    `assert_index` (0-based, in program order)."""
    parts, positions = _conjuncts(program)
    if not 0 <= assert_index < len(positions):
        raise IrError(f"assert index {assert_index} out of range")
    pos = positions[assert_index]
    return conjoin(parts[:pos] + [not_(parts[pos])])


def frame_formula(program: SmtProgram, pre_name: str, post_name: str) -> IrExpr:
    """Formula satisfiable iff `post_name` can differ from `pre_name`.

    Used for non-aliasing and deep-copy validity checks: conjunction of
    all definitions and assumptions with the negation of pre == post.
    """
    parts, positions = _conjuncts(program)
    asserted = set(positions)
    kept = [p for i, p in enumerate(parts) if i not in asserted]
    return conjoin(kept + [not_(eq(Ident(pre_name), Ident(post_name)))])
