"""Verification condition generation over flat SSA programs.

One formula per assert: the conjunction of all definitional equalities,
all assumptions, every assert condition strictly before the target (prior
checks are taken as established), and the negation of the target. The
formula is satisfiable exactly when the target assert can fail.

One walk over the program builds its conjuncts and their left-nested
prefix chain (`chain[k]` is the conjunction of `parts[:k + 1]`); the walk
is kept on the program and redone only when `stmts` changes. Every VC is
a prefix of that chain and one negation, so the VCs of a program share
their conjunct and chain objects, each VC builds two new nodes, and
`smtlib.emit_smtlib` prints each definition once per program.
"""

from __future__ import annotations

from .errors import IrError
from .ir import (
    Assert,
    Assign,
    Assume,
    BinOp,
    Ident,
    IrExpr,
    SmtProgram,
    UnOp,
)


def _conjuncts(program: SmtProgram) -> tuple[list[IrExpr], list[int], list[IrExpr]]:
    """Every definition, assumption and assert condition in program order,
    the index of each assert's condition in that list, and the prefix
    chain of the list."""
    memo = program.conjuncts
    if memo is not None and memo[0] == program.stmts:
        return memo[1], memo[2], memo[3]
    parts: list[IrExpr] = []
    positions: list[int] = []
    for s in program.stmts:
        if isinstance(s, Assign):
            if not isinstance(s.lhs, Ident):
                raise IrError("VC generation requires identifier assignment targets")
            parts.append(BinOp("==", s.lhs, s.rhs))
        elif isinstance(s, (Assume, Assert)):
            if isinstance(s, Assert):
                positions.append(len(parts))
            parts.append(s.cond)
        else:
            raise IrError("VC generation requires a flat SSA program")
    chain = parts[:1]
    for part in parts[1:]:
        chain.append(BinOp("and", chain[-1], part))
    program.conjuncts = (list(program.stmts), parts, positions, chain)
    return parts, positions, chain


def vc_gen(program: SmtProgram, assert_index: int) -> IrExpr:
    """Formula whose satisfiability witnesses a failure of assert number
    `assert_index` (0-based, in program order)."""
    parts, positions, chain = _conjuncts(program)
    if not 0 <= assert_index < len(positions):
        raise IrError(f"assert index {assert_index} out of range")
    pos = positions[assert_index]
    return BinOp("and", chain[pos - 1], UnOp("not", parts[pos])) if pos else UnOp("not", parts[0])

