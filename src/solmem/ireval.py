"""Concrete big-step evaluator for IR programs.

Used as the testing oracle for the LHS normalization and SSA passes and
for cross-checking translated programs on concrete inputs. Arrays are
total maps (a default plus finitely many exceptions); datatype values are
constructor tuples. Variables that are declared but never assigned read
as type defaults, so evaluation is deterministic; tests may seed the
environment to model free inputs.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
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
    Ite,
    Select,
    SmtProgram,
    UnOp,
    unknown_key,
)
from .records import Record


class VArray(Record):
    """Total map: `entries` overrides `default` at finitely many keys."""

    __slots__ = ("default", "entries")

    def __init__(self, default: Any, entries: dict | None = None):
        self.default = default
        self.entries = {} if entries is None else entries

    def read(self, key):
        return self.entries.get(key, self.default)

    def write(self, key, value) -> "VArray":
        new = dict(self.entries)
        new[key] = value
        return VArray(self.default, new)


class VData(Record):
    __slots__ = ("datatype", "members")

    def __init__(self, datatype: str, members: tuple):
        self.datatype = datatype
        self.members = members

    def replace(self, index: int, value) -> "VData":
        ms = list(self.members)
        ms[index] = value
        return VData(self.datatype, tuple(ms))


def values_equal(a, b) -> bool:
    """Semantic equality; array exceptions equal to the default collapse."""
    if isinstance(a, VArray) and isinstance(b, VArray):
        if not values_equal(a.default, b.default):
            # Different defaults with finite exceptions can only be equal
            # over a finite index type; our index types are infinite (Int).
            return False
        keys = set(a.entries) | set(b.entries)
        return all(values_equal(a.read(k), b.read(k)) for k in keys)
    if isinstance(a, VData) and isinstance(b, VData):
        return (
            a.datatype == b.datatype
            and len(a.members) == len(b.members)
            and all(values_equal(x, y) for x, y in zip(a.members, b.members))
        )
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def default_value(ty: IrType, program: SmtProgram):
    if isinstance(ty, IntType):
        return 0
    if isinstance(ty, BoolType):
        return False
    if isinstance(ty, ArrayType):
        return VArray(default_value(ty.elem, program))
    if isinstance(ty, DatatypeType):
        dt = program.datatypes.get(ty.name)
        if dt is None:
            raise IrError(f"unknown datatype {ty.name}")
        return VData(dt.name, tuple(default_value(t, program) for _, t in dt.members))
    raise IrError(f"no default for type {type(ty).__name__}")


_BINOPS = {
    "+": operator.add, "-": operator.sub, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": values_equal, "!=": lambda a, b: not values_equal(a, b), "and": operator.and_, "or": operator.or_,
}


def _truth(v, e: IrExpr) -> bool:
    """`v`, the value of a condition or boolean operand `e`, which must be a bool."""
    if not isinstance(v, bool):
        raise IrError(f"condition is not a bool: {e}")
    return v


class EvalResult(Record):
    # status: "ok" | "assume-violated" | "assert-failed"; failed_index: the
    # ordinal of the violated assume or assert
    __slots__ = ("status", "env", "failed_index")

    def __init__(self, status: str, env: dict, failed_index: int | None = None):
        self.status = status
        self.env = env
        self.failed_index = failed_index


class _Machine:
    def __init__(self, program: SmtProgram, env: dict | None):
        self.program = program
        self.env: dict = dict(env) if env else {}
        self.assert_ordinal = 0
        self.assume_ordinal = 0

    # -- expressions --------------------------------------------------

    def eval(self, e: IrExpr):
        try:
            return _EVAL[type(e)](self, e)
        except KeyError as err:
            raise unknown_key(err) from None

    def _cond(self, e: IrExpr) -> bool:
        return _truth(self.eval(e), e)

    @staticmethod
    def _key(v):
        if isinstance(v, (int, bool)):
            return v
        raise IrError("array index must be an integer or boolean")

    def _ident(self, e: Ident):
        if e.name not in self.env:
            ty = self.program.decls.get(e.name)
            if ty is None:
                raise IrError(f"undeclared identifier {e.name}")
            self.env[e.name] = default_value(ty, self.program)
        return self.env[e.name]

    def _read(self, e: ArrayRead):
        arr = _EVAL[type(e.array)](self, e.array)
        idx = self._key(_EVAL[type(e.index)](self, e.index))
        if not isinstance(arr, VArray):
            raise IrError("array read on non-array value")
        return arr.read(idx)

    def _write(self, e: ArrayWrite):
        arr = _EVAL[type(e.array)](self, e.array)
        if not isinstance(arr, VArray):
            raise IrError("array write on non-array value")
        return arr.write(self._key(_EVAL[type(e.index)](self, e.index)), _EVAL[type(e.value)](self, e.value))

    def _select(self, e: Select):
        base = _EVAL[type(e.base)](self, e.base)
        if not isinstance(base, VData):
            raise IrError(f"member select on non-datatype value: {e}")
        dt = self.program.datatypes.get(e.datatype)
        if dt is None:
            raise IrError(f"unknown datatype {e.datatype}")
        return base.members[dt.member_index(e.member)]

    def _ite(self, e: Ite):
        taken = e.then if _truth(_EVAL[type(e.cond)](self, e.cond), e.cond) else e.other
        return _EVAL[type(taken)](self, taken)

    def _binop(self, e: BinOp):
        left, right = e.left, e.right
        if e.op in ("and", "or"):
            a = _truth(_EVAL[type(left)](self, left), left)
            b = _truth(_EVAL[type(right)](self, right), right)
        else:
            a = _EVAL[type(left)](self, left)
            b = _EVAL[type(right)](self, right)
        return _BINOPS[e.op](a, b)

    def _unop(self, e: UnOp):
        v = _EVAL[type(e.operand)](self, e.operand)
        if e.op == "not":
            return not _truth(v, e.operand)
        if e.op == "neg":
            return -v
        raise IrError(f"unknown unary operator {e.op}")

    # -- statements ---------------------------------------------------

    def assign(self, lhs: IrExpr, value) -> None:
        if isinstance(lhs, Ident):
            self.env[lhs.name] = value
            return
        if isinstance(lhs, ArrayRead):
            arr = self.eval(lhs.array)
            if not isinstance(arr, VArray):
                raise IrError("array write on non-array value")
            self.assign(lhs.array, arr.write(self._key(self.eval(lhs.index)), value))
            return
        if isinstance(lhs, Select):
            base = self.eval(lhs.base)
            if not isinstance(base, VData):
                raise IrError("member write on non-datatype value")
            dt = self.program.datatypes.get(lhs.datatype)
            if dt is None:
                raise IrError(f"unknown datatype {lhs.datatype}")
            self.assign(lhs.base, base.replace(dt.member_index(lhs.member), value))
            return
        if isinstance(lhs, Ite):
            target = lhs.then if self._cond(lhs.cond) else lhs.other
            self.assign(target, value)
            return
        raise IrError(f"invalid assignment target {lhs!r}")

    def run(self, stmts) -> EvalResult | None:
        for s in stmts:
            r = self.step(s)
            if r is not None:
                return r
        return None

    def _skip_counts(self, stmts) -> None:
        """Ordinals are static (program-text positions), so a skipped
        branch still advances the counters."""
        for s in stmts:
            if isinstance(s, Assume):
                self.assume_ordinal += 1
            elif isinstance(s, Assert):
                self.assert_ordinal += 1
            elif isinstance(s, IfStmt):
                self._skip_counts(s.then)
                self._skip_counts(s.other)

    def step(self, s: IrStmt) -> EvalResult | None:
        if isinstance(s, Assign):
            self.assign(s.lhs, self.eval(s.rhs))
            return None
        if isinstance(s, IfStmt):
            if self._cond(s.cond):
                result = self.run(s.then)
                self._skip_counts(s.other)
            else:
                self._skip_counts(s.then)
                result = self.run(s.other)
            return result
        if isinstance(s, Assume):
            idx = self.assume_ordinal
            self.assume_ordinal += 1
            if not self._cond(s.cond):
                return EvalResult("assume-violated", self.env, idx)
            return None
        if isinstance(s, Assert):
            idx = self.assert_ordinal
            self.assert_ordinal += 1
            if not self._cond(s.cond):
                return EvalResult("assert-failed", self.env, idx)
            return None
        raise IrError(f"unknown statement {s!r}")


_EVAL: dict[type, Callable[[_Machine, Any], Any]] = {
    Ident: _Machine._ident,
    IntLit: lambda m, e: e.value,
    BoolLit: lambda m, e: e.value,
    ArrayRead: _Machine._read,
    ArrayWrite: _Machine._write,
    ConstArray: lambda m, e: VArray(_EVAL[type(e.value)](m, e.value)),
    Construct: lambda m, e: VData(e.datatype, tuple(_EVAL[type(a)](m, a) for a in e.args)),
    Select: _Machine._select,
    Ite: _Machine._ite,
    BinOp: _Machine._binop,
    UnOp: _Machine._unop,
}


def eval_ir(program: SmtProgram, env: dict | None = None) -> EvalResult:
    """Run `program` to completion or to the first violated assume/assert.

    `env` seeds identifiers (free inputs); identifiers that are declared
    but absent read as type defaults.
    """
    m = _Machine(program, env)
    result = m.run(program.stmts)
    return result if result is not None else EvalResult("ok", m.env)
