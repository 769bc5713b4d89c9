"""Single static assignment conversion.

Input must be normalized (identifier assignment targets only). The output
is a flat, straight-line program: every version is assigned at most once,
if-then-else statements are dissolved by versioning both branches and
merging differing versions through `ite` expressions at the join, and
assumes/asserts nested under branches are guarded by their path
condition. Version k of `x` is named `x!k`; version 0 keeps the original
name, so never-assigned inputs are stable across the conversion.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .errors import IrError
from .gcpause import gc_paused
from .ir import (
    ArrayRead,
    ArrayWrite,
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolLit,
    ConstArray,
    Construct,
    Ident,
    IfStmt,
    IntLit,
    IrExpr,
    Ite,
    Select,
    SmtProgram,
    UnOp,
    or_,
    not_,
    unknown_key,
)
from .records import Record


_RENAME: dict[type, Callable[[Any, dict[str, str]], IrExpr]] = {
    Ident: lambda e, v: Ident(v.get(e.name, e.name)),
    IntLit: lambda e, v: e,
    BoolLit: lambda e, v: e,
    ArrayRead: lambda e, v: ArrayRead(_RENAME[type(e.array)](e.array, v), _RENAME[type(e.index)](e.index, v)),
    ArrayWrite: lambda e, v: ArrayWrite(
        _RENAME[type(e.array)](e.array, v), _RENAME[type(e.index)](e.index, v), _RENAME[type(e.value)](e.value, v)
    ),
    ConstArray: lambda e, v: ConstArray(e.index, e.elem, _RENAME[type(e.value)](e.value, v)),
    Construct: lambda e, v: Construct(e.datatype, tuple(_RENAME[type(a)](a, v) for a in e.args)),
    Select: lambda e, v: Select(_RENAME[type(e.base)](e.base, v), e.member, e.datatype),
    Ite: lambda e, v: Ite(
        _RENAME[type(e.cond)](e.cond, v), _RENAME[type(e.then)](e.then, v), _RENAME[type(e.other)](e.other, v)
    ),
    BinOp: lambda e, v: BinOp(e.op, _RENAME[type(e.left)](e.left, v), _RENAME[type(e.right)](e.right, v)),
    UnOp: lambda e, v: UnOp(e.op, _RENAME[type(e.operand)](e.operand, v)),
}


def rename_idents(e: IrExpr, versions: dict[str, str]) -> IrExpr:
    try:
        return _RENAME[type(e)](e, versions)
    except KeyError as err:
        raise unknown_key(err) from None


class SsaResult(Record):
    __slots__ = ("program", "final_versions")

    def __init__(self, program: SmtProgram, final_versions: dict[str, str]):
        self.program = program
        self.final_versions = final_versions  # original name -> name of last version


class _Converter:
    def __init__(self, program: SmtProgram):
        self.source = program
        self.out = program.copy_shell()
        self.counters: dict[str, int] = {}
        self.taken = set(program.decls)

    def fresh_version(self, base: str) -> str:
        k = self.counters.get(base, 0) + 1
        name = f"{base}!{k}"
        while name in self.taken:
            k += 1
            name = f"{base}!{k}"
        self.counters[base] = k
        self.taken.add(name)
        ty = self.source.decls.get(base)
        if ty is None:
            raise IrError(f"assignment to undeclared identifier {base}")
        self.out.declare(name, ty)
        return name

    def convert(self, stmts, versions: dict[str, str], path: IrExpr | None) -> None:
        for s in stmts:
            if isinstance(s, Assign):
                if not isinstance(s.lhs, Ident):
                    raise IrError("to_ssa requires a normalized program")
                rhs = rename_idents(s.rhs, versions)
                name = self.fresh_version(s.lhs.name)
                versions[s.lhs.name] = name
                self.out.stmts.append(Assign(Ident(name), rhs))
            elif isinstance(s, Assume):
                cond = rename_idents(s.cond, versions)
                if path is not None:
                    cond = or_(not_(path), cond)
                self.out.stmts.append(Assume(cond))
            elif isinstance(s, Assert):
                cond = rename_idents(s.cond, versions)
                if path is not None:
                    cond = or_(not_(path), cond)
                self.out.stmts.append(Assert(cond))
            elif isinstance(s, IfStmt):
                cond = rename_idents(s.cond, versions)
                then_path = cond if path is None else BinOp("and", path, cond)
                else_path = not_(cond) if path is None else BinOp("and", path, not_(cond))
                then_versions = dict(versions)
                else_versions = dict(versions)
                self.convert(s.then, then_versions, then_path)
                self.convert(s.other, else_versions, else_path)
                merged = set(then_versions) | set(else_versions)
                for var in sorted(merged):
                    tv = then_versions.get(var, var)
                    ev = else_versions.get(var, var)
                    if tv == ev:
                        versions[var] = tv
                        continue
                    name = self.fresh_version(var)
                    self.out.stmts.append(
                        Assign(Ident(name), Ite(cond, Ident(tv), Ident(ev)))
                    )
                    versions[var] = name
            else:
                raise IrError(f"unknown statement {s!r}")


@gc_paused
def to_ssa(program: SmtProgram) -> SsaResult:
    """Flatten `program` into straight-line single-assignment form."""
    conv = _Converter(program)
    versions: dict[str, str] = {}
    conv.convert(program.stmts, versions, None)
    final = {name: versions.get(name, name) for name in program.decls}
    return SsaResult(conv.out, final)
