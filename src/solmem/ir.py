"""SMT-based intermediate program representation.

A program is a list of single-constructor datatype definitions, variable
declarations, and statements (assignments, if-then-else, assumptions and
assertions). Expressions are standard SMT terms: identifiers, array
reads/writes, constant arrays, datatype constructors and member selectors,
conditionals, linear integer arithmetic, comparisons, and boolean
connectives. Assignment left-hand sides may temporarily be composite
(array read / member select / ite); `normalize` rewrites them away.

Invariant: no expression or statement node is changed after it is built.
Transformations build new nodes and new programs, and share the nodes
they keep, so one node may sit in many programs and VCs. The nodes are
plain slotted records rather than frozen dataclasses because the
pipeline is mostly node construction (over 400,000 nodes per pass of
the benchmark's stress workload), and a frozen node costs 2.5-5 times as
much to build, since its `__init__` sets every field through
`object.__setattr__` (a `BinOp` took 1.2 µs frozen and 0.45 µs slotted
on Python 3.11). `tests/test_stage_purity.py` checks the invariant
for every stage after translation. Nodes compare by value but are
unhashable, so a memo keys a node by `id()` and holds the node, which
keeps the id from being reused while the entry lives.

Types (`IrType` and `DatatypeDef`) are interned values instead
(`interning`): one object per type, built only by calling the class, so
`==` and `hash` are identity and a type costs nothing as a dict key.

Walkers: each operation over expressions (SSA renaming, SMT-LIB
printing, evaluation) is a module-level table from a node's exact
class to a handler, looked up as `TABLE[type(e)]`. A handler recurses by
indexing its table directly, so a walk takes one Python frame per
expression level, and long chains stay within the default recursion
limit. Only the walker's entry point catches a missing key and turns it
into an `IrError` (`unknown_key`). Nodes are never subclassed: a
subclass would miss every table, and `tests/test_hygiene.py` checks that
each table's keys are exactly the node classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IrError
from .interning import Interned

# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True, eq=False)
class IrType(metaclass=Interned):
    pass


@dataclass(frozen=True, eq=False)
class IntType(IrType):
    pass


@dataclass(frozen=True, eq=False)
class BoolType(IrType):
    pass


@dataclass(frozen=True, eq=False)
class ArrayType(IrType):
    index: IrType
    elem: IrType


@dataclass(frozen=True, eq=False)
class DatatypeType(IrType):
    name: str


INT = IntType()
BOOL = BoolType()
PTR = ArrayType(INT, INT)  # storage pointer: path of edge ordinals / indices


@dataclass(frozen=True, eq=False)
class DatatypeDef(metaclass=Interned):
    """Single-constructor datatype; the constructor is named like the type."""

    name: str
    members: tuple[tuple[str, IrType], ...]

    def member_index(self, member: str) -> int:
        for i, (name, _) in enumerate(self.members):
            if name == member:
                return i
        raise IrError(f"datatype {self.name} has no member {member}")


# ---------------------------------------------------------------------------
# Expressions


@dataclass(slots=True)
class IrExpr:
    pass


@dataclass(slots=True)
class Ident(IrExpr):
    name: str


@dataclass(slots=True)
class IntLit(IrExpr):
    value: int


@dataclass(slots=True)
class BoolLit(IrExpr):
    value: bool


@dataclass(slots=True)
class ArrayRead(IrExpr):
    array: IrExpr
    index: IrExpr


@dataclass(slots=True)
class ArrayWrite(IrExpr):
    array: IrExpr
    index: IrExpr
    value: IrExpr


@dataclass(slots=True)
class ConstArray(IrExpr):
    """Total array equal to `value` at every index."""

    index: IrType
    elem: IrType
    value: IrExpr


@dataclass(slots=True)
class Construct(IrExpr):
    """Datatype constructor application."""

    datatype: str
    args: tuple[IrExpr, ...]


@dataclass(slots=True)
class Select(IrExpr):
    """Datatype member selector. `datatype` names the base's type."""

    base: IrExpr
    member: str
    datatype: str


@dataclass(slots=True)
class Ite(IrExpr):
    cond: IrExpr
    then: IrExpr
    other: IrExpr


@dataclass(slots=True)
class BinOp(IrExpr):
    """op is one of + - == != < <= > >= and or"""

    op: str
    left: IrExpr
    right: IrExpr


@dataclass(slots=True)
class UnOp(IrExpr):
    """op is one of not neg"""

    op: str
    operand: IrExpr


def add(a: IrExpr, b: IrExpr) -> IrExpr:
    return BinOp("+", a, b)


def sub(a: IrExpr, b: IrExpr) -> IrExpr:
    return BinOp("-", a, b)


def eq(a: IrExpr, b: IrExpr) -> IrExpr:
    return BinOp("==", a, b)


def lt(a: IrExpr, b: IrExpr) -> IrExpr:
    return BinOp("<", a, b)


def le(a: IrExpr, b: IrExpr) -> IrExpr:
    return BinOp("<=", a, b)


def and_(a: IrExpr, b: IrExpr) -> IrExpr:
    return BinOp("and", a, b)


def or_(a: IrExpr, b: IrExpr) -> IrExpr:
    return BinOp("or", a, b)


def not_(a: IrExpr) -> IrExpr:
    return UnOp("not", a)


# ---------------------------------------------------------------------------
# Statements


@dataclass(slots=True)
class IrStmt:
    pass


@dataclass(slots=True)
class Assign(IrStmt):
    lhs: IrExpr
    rhs: IrExpr


@dataclass(slots=True)
class IfStmt(IrStmt):
    cond: IrExpr
    then: tuple[IrStmt, ...]
    other: tuple[IrStmt, ...]


@dataclass(slots=True)
class Assume(IrStmt):
    cond: IrExpr


@dataclass(slots=True)
class Assert(IrStmt):
    cond: IrExpr


@dataclass
class SmtProgram:
    """Datatype definitions, then declarations, then statements.

    Datatypes and declarations are keyed by name and kept in insertion
    order; re-adding a name with a conflicting definition is an error.
    """

    datatypes: dict[str, DatatypeDef] = field(default_factory=dict)
    decls: dict[str, IrType] = field(default_factory=dict)
    stmts: list[IrStmt] = field(default_factory=list)
    # Memos for the program's lifetime; never compared, printed or copied.
    # `conjuncts` is vcgen's walk of `stmts` (conjuncts, assert positions and
    # prefix chain) with the statements it was made from; `printed` maps a
    # conjunct's id to (conjunct, SMT-LIB text), and holding the node keeps
    # its id from being reused; `header` is the SMT-LIB header with the
    # datatypes and declarations it was printed from.
    conjuncts: tuple[list[IrStmt], list[IrExpr], list[int], list[IrExpr]] | None = field(
        default=None, compare=False, repr=False
    )
    printed: dict[int, tuple[IrExpr, str]] = field(default_factory=dict, compare=False, repr=False)
    header: tuple[dict[str, DatatypeDef], dict[str, IrType], str] | None = field(
        default=None, compare=False, repr=False
    )

    def add_datatype(self, dt: DatatypeDef) -> None:
        if self.datatypes.setdefault(dt.name, dt) != dt:
            raise ValueError(f"conflicting datatype definition {dt.name}")

    def declare(self, name: str, ty: IrType) -> None:
        if self.decls.setdefault(name, ty) != ty:
            raise ValueError(f"conflicting declaration {name}")

    def copy_shell(self) -> "SmtProgram":
        """New program with copies of the datatype and declaration
        registries, and no statements."""
        return SmtProgram(dict(self.datatypes), dict(self.decls), [])


def unknown_key(err: KeyError) -> IrError:
    """What a walker's entry point raises for a key missing from its
    table (a node class) or from a handler's operator table (an op)."""
    key = err.args[0]
    if isinstance(key, type):
        return IrError(f"unknown expression node {key.__name__}")
    return IrError(f"unknown operator {key}")
