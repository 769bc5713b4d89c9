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
mutable records (`records`): each class writes out its `__slots__` and
an `__init__` that sets one slot per field, and nothing enforces the
invariant at run time, because the pipeline is mostly node construction
(over 400,000 nodes per pass of the benchmark's stress workload) and an
immutable node costs 2.5-5 times as much to build: its `__init__` must
set every field through `object.__setattr__` (a `BinOp` took 1.2 µs
frozen and 0.45 µs slotted on Python 3.11). `tests/test_stage_purity.py`
checks the invariant for every stage after translation. Nodes compare by
value but are unhashable, so a memo keys a node by `id()` and holds the
node, which keeps the id from being reused while the entry lives.

Types (`IrType` and `DatatypeDef`) are interned values instead
(`interning`): one immutable object per type, built only by calling the
class, so `==` and `hash` are identity and a type costs nothing as a
dict key.

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

from .errors import IrError
from .interning import Interned
from .records import Record

# ---------------------------------------------------------------------------
# Types


class IrType(metaclass=Interned):
    __slots__ = ()


class IntType(IrType):
    __slots__ = ()


class BoolType(IrType):
    __slots__ = ()


class ArrayType(IrType):
    __slots__ = ("index", "elem")
    index: IrType
    elem: IrType


class DatatypeType(IrType):
    __slots__ = ("name",)
    name: str


INT = IntType()
BOOL = BoolType()
PTR = ArrayType(INT, INT)  # storage pointer: path of edge ordinals / indices


class DatatypeDef(metaclass=Interned):
    """Single-constructor datatype; the constructor is named like the type."""

    __slots__ = ("name", "members")
    name: str
    members: tuple[tuple[str, IrType], ...]

    def member_index(self, member: str) -> int:
        for i, (name, _) in enumerate(self.members):
            if name == member:
                return i
        raise IrError(f"datatype {self.name} has no member {member}")


# ---------------------------------------------------------------------------
# Expressions


class IrExpr(Record):
    __slots__ = ()


class Ident(IrExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class IntLit(IrExpr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class BoolLit(IrExpr):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value


class ArrayRead(IrExpr):
    __slots__ = ("array", "index")

    def __init__(self, array: IrExpr, index: IrExpr):
        self.array = array
        self.index = index


class ArrayWrite(IrExpr):
    __slots__ = ("array", "index", "value")

    def __init__(self, array: IrExpr, index: IrExpr, value: IrExpr):
        self.array = array
        self.index = index
        self.value = value


class ConstArray(IrExpr):
    """Total array equal to `value` at every index."""

    __slots__ = ("index", "elem", "value")

    def __init__(self, index: IrType, elem: IrType, value: IrExpr):
        self.index = index
        self.elem = elem
        self.value = value


class Construct(IrExpr):
    """Datatype constructor application."""

    __slots__ = ("datatype", "args")

    def __init__(self, datatype: str, args: tuple[IrExpr, ...]):
        self.datatype = datatype
        self.args = args


class Select(IrExpr):
    """Datatype member selector. `datatype` names the base's type."""

    __slots__ = ("base", "member", "datatype")

    def __init__(self, base: IrExpr, member: str, datatype: str):
        self.base = base
        self.member = member
        self.datatype = datatype


class Ite(IrExpr):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: IrExpr, then: IrExpr, other: IrExpr):
        self.cond = cond
        self.then = then
        self.other = other


class BinOp(IrExpr):
    """op is one of + - == != < <= > >= and or"""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: IrExpr, right: IrExpr):
        self.op = op
        self.left = left
        self.right = right


class UnOp(IrExpr):
    """op is one of not neg"""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: IrExpr):
        self.op = op
        self.operand = operand


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


class IrStmt(Record):
    __slots__ = ()


class Assign(IrStmt):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: IrExpr, rhs: IrExpr):
        self.lhs = lhs
        self.rhs = rhs


class IfStmt(IrStmt):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: IrExpr, then: tuple[IrStmt, ...], other: tuple[IrStmt, ...]):
        self.cond = cond
        self.then = then
        self.other = other


class Assume(IrStmt):
    __slots__ = ("cond",)

    def __init__(self, cond: IrExpr):
        self.cond = cond


class Assert(IrStmt):
    __slots__ = ("cond",)

    def __init__(self, cond: IrExpr):
        self.cond = cond


_MEMOS = ("conjuncts", "printed", "header")


class SmtProgram(Record, uncompared=_MEMOS, unprinted=_MEMOS):
    """Datatype definitions, then declarations, then statements.

    Datatypes and declarations are keyed by name and kept in insertion
    order; re-adding a name with a conflicting definition is an error.
    """

    __slots__ = ("datatypes", "decls", "stmts") + _MEMOS

    def __init__(
        self,
        datatypes: dict[str, DatatypeDef] | None = None,
        decls: dict[str, IrType] | None = None,
        stmts: list[IrStmt] | None = None,
    ):
        self.datatypes = {} if datatypes is None else datatypes
        self.decls = {} if decls is None else decls
        self.stmts = [] if stmts is None else stmts
        # Memos for the program's lifetime; never compared, printed or copied.
        # `conjuncts` is vcgen's walk of `stmts` (conjuncts, assert positions and
        # prefix chain) with the statements it was made from; `printed` maps a
        # conjunct's id to (conjunct, SMT-LIB text), and holding the node keeps
        # its id from being reused; `header` is the SMT-LIB header with the
        # datatypes and declarations it was printed from.
        self.conjuncts: tuple[list[IrStmt], list[IrExpr], list[int], list[IrExpr]] | None = None
        self.printed: dict[int, tuple[IrExpr, str]] = {}
        self.header: tuple[dict[str, DatatypeDef], dict[str, IrType], str] | None = None

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
