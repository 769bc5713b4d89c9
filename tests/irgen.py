"""Seeded random IR programs for transformation equivalence testing.

Programs draw from a small typed vocabulary (ints, bools, an int array,
a two-member datatype), assign through composite lvalues (array slots,
members, ite targets), branch, and sprinkle mostly-true assumes/asserts,
so normalize/SSA equivalence is exercised over every rewrite rule.

`conjoin`, `premises` and `frame_formula` build the IR formulas the invariant,
purity and VC-printing tests check by hand. `program` builds a small IR
program from its statements, declarations and datatypes, and `evaluate`
runs a term a `Translator` built after the statements it emitted.
"""

from __future__ import annotations

import random
from functools import reduce

from solmem import ir
from solmem.ir import (
    ArrayRead,
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolLit,
    Construct,
    DatatypeDef,
    DatatypeType,
    Ident,
    IfStmt,
    IntLit,
    IrExpr,
    Ite,
    Select,
    SmtProgram,
)
from solmem.ireval import VArray, VData, eval_ir
from solmem.translate import Translator

DT = DatatypeDef("Pair", (("fst", ir.INT), ("snd", ir.BOOL)))

INT_VARS = ["a", "b", "c"]
BOOL_VARS = ["p", "q"]
ARR_VARS = ["arr"]
PAIR_VARS = ["d", "e"]


def _int_expr(rng: random.Random, depth: int = 0) -> ir.IrExpr:
    roll = rng.random()
    if depth > 2 or roll < 0.35:
        return IntLit(rng.randint(-3, 5))
    if roll < 0.55:
        return Ident(rng.choice(INT_VARS))
    if roll < 0.7:
        return ArrayRead(Ident(rng.choice(ARR_VARS)), _int_expr(rng, depth + 1))
    if roll < 0.8:
        return Select(Ident(rng.choice(PAIR_VARS)), "fst", DT.name)
    if roll < 0.9:
        op = rng.choice(["+", "-"])
        return BinOp(op, _int_expr(rng, depth + 1), _int_expr(rng, depth + 1))
    return Ite(_bool_expr(rng, depth + 1), _int_expr(rng, depth + 1), _int_expr(rng, depth + 1))


def _bool_expr(rng: random.Random, depth: int = 0) -> ir.IrExpr:
    roll = rng.random()
    if depth > 2 or roll < 0.3:
        return BoolLit(rng.random() < 0.7)
    if roll < 0.5:
        return Ident(rng.choice(BOOL_VARS))
    if roll < 0.75:
        op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        return BinOp(op, _int_expr(rng, depth + 1), _int_expr(rng, depth + 1))
    if roll < 0.85:
        return Select(Ident(rng.choice(PAIR_VARS)), "snd", DT.name)
    op = rng.choice(["and", "or"])
    return BinOp(op, _bool_expr(rng, depth + 1), _bool_expr(rng, depth + 1))


def _lvalue(rng: random.Random, want_bool: bool) -> ir.IrExpr:
    roll = rng.random()
    if want_bool:
        if roll < 0.5:
            return Ident(rng.choice(BOOL_VARS))
        if roll < 0.8:
            return Select(Ident(rng.choice(PAIR_VARS)), "snd", DT.name)
        return Ite(_bool_expr(rng, 2), Ident(BOOL_VARS[0]), Ident(BOOL_VARS[1]))
    if roll < 0.4:
        return Ident(rng.choice(INT_VARS))
    if roll < 0.6:
        return ArrayRead(Ident(rng.choice(ARR_VARS)), _int_expr(rng, 2))
    if roll < 0.8:
        return Select(Ident(rng.choice(PAIR_VARS)), "fst", DT.name)
    return Ite(_bool_expr(rng, 2), Ident(rng.choice(INT_VARS)), Ident(rng.choice(INT_VARS)))


def _stmt(rng: random.Random, depth: int) -> ir.IrStmt:
    roll = rng.random()
    if roll < 0.55:
        want_bool = rng.random() < 0.3
        lhs = _lvalue(rng, want_bool)
        rhs = _bool_expr(rng) if want_bool else _int_expr(rng)
        return Assign(lhs, rhs)
    if roll < 0.65 and rng.random() < 0.5:
        return Assign(
            Ident(rng.choice(PAIR_VARS)), Construct(DT.name, (_int_expr(rng), _bool_expr(rng)))
        )
    if roll < 0.8 and depth < 2:
        then = tuple(_stmt(rng, depth + 1) for _ in range(rng.randint(1, 3)))
        other = tuple(_stmt(rng, depth + 1) for _ in range(rng.randint(0, 2)))
        return IfStmt(_bool_expr(rng), then, other)
    if roll < 0.9:
        return Assume(_bool_expr(rng))
    return Assert(_bool_expr(rng))


def program(*stmts: ir.IrStmt, decls=(), datatypes=()) -> SmtProgram:
    """An IR program of `stmts` that declares each `(name, type)` of
    `decls` and defines `datatypes`."""
    p = SmtProgram()
    for dt in datatypes:
        p.add_datatype(dt)
    for name, ty in decls:
        p.declare(name, ty)
    p.stmts = list(stmts)
    return p


def random_ir_program(seed: int, size: int = 8) -> SmtProgram:
    rng = random.Random(seed)
    decls = [(v, ir.INT) for v in INT_VARS] + [(v, ir.BOOL) for v in BOOL_VARS]
    decls += [(v, ir.ArrayType(ir.INT, ir.INT)) for v in ARR_VARS] + [(v, DatatypeType(DT.name)) for v in PAIR_VARS]
    return program(*(_stmt(rng, 0) for _ in range(size)), decls=decls, datatypes=[DT])


def evaluate(tr: Translator, term: IrExpr, env: dict | None = None):
    """`term`, built by the translator `tr` after its statements, evaluated
    after them from `env`: its value and the environment it ran in."""
    p = tr.program.copy_shell()
    p.stmts = [*tr.stmts, Assign(Ident("out$"), term)]
    result = eval_ir(p, env)
    assert result.status == "ok"
    return result.env["out$"], result.env


def random_env(seed: int) -> dict:
    rng = random.Random(seed ^ 0xA5A5)
    env = {v: rng.randint(-5, 5) for v in INT_VARS}
    env.update({v: rng.random() < 0.5 for v in BOOL_VARS})
    env["arr"] = VArray(rng.randint(-2, 2), {i: rng.randint(-5, 5) for i in range(-1, 3)})
    for v in PAIR_VARS:
        env[v] = VData(DT.name, (rng.randint(-5, 5), rng.random() < 0.5))
    return env


def conjoin(exprs: list[IrExpr]) -> IrExpr:
    """Left-nested conjunction of a non-empty list."""
    return reduce(lambda a, b: BinOp("and", a, b), exprs)


def premises(program: SmtProgram) -> list[IrExpr]:
    """Every definition and assumption of the flat SSA `program`, in
    program order. Asserts are left out."""
    return [BinOp("==", s.lhs, s.rhs) if isinstance(s, Assign) else s.cond
            for s in program.stmts if isinstance(s, (Assign, Assume))]


def frame_formula(program: SmtProgram, pre_name: str, post_name: str) -> IrExpr:
    """Formula satisfiable iff `post_name` can differ from `pre_name` after
    the flat SSA `program`: its premises and the negation of pre == post."""
    return conjoin(premises(program) + [ir.UnOp("not", BinOp("==", Ident(pre_name), Ident(post_name)))])
