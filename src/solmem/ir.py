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
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class IrType:
    pass


@dataclass(frozen=True)
class IntType(IrType):
    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True)
class BoolType(IrType):
    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class ArrayType(IrType):
    index: IrType
    elem: IrType

    def __str__(self) -> str:
        return f"[{self.index}]{self.elem}"


@dataclass(frozen=True)
class DatatypeType(IrType):
    name: str

    def __str__(self) -> str:
        return self.name


INT = IntType()
BOOL = BoolType()
PTR = ArrayType(INT, INT)  # storage pointer: path of edge ordinals / indices


@dataclass(frozen=True)
class DatatypeDef:
    """Single-constructor datatype; the constructor is named like the type."""

    name: str
    members: tuple[tuple[str, IrType], ...]

    def member_type(self, member: str) -> IrType:
        for name, ty in self.members:
            if name == member:
                return ty
        raise KeyError(f"datatype {self.name} has no member {member}")

    def member_index(self, member: str) -> int:
        for i, (name, _) in enumerate(self.members):
            if name == member:
                return i
        raise KeyError(f"datatype {self.name} has no member {member}")


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


def neq(a: IrExpr, b: IrExpr) -> IrExpr:
    return BinOp("!=", a, b)


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


def conjoin(exprs: list[IrExpr]) -> IrExpr:
    if not exprs:
        return BoolLit(True)
    out = exprs[0]
    for e in exprs[1:]:
        out = and_(out, e)
    return out


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
    # carries the source position for reporting; not part of semantics
    line: int = 0
    comment: str = ""


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

    def datatype(self, name: str) -> DatatypeDef | None:
        return self.datatypes.get(name)

    def declare(self, name: str, ty: IrType) -> None:
        if self.decls.setdefault(name, ty) != ty:
            raise ValueError(f"conflicting declaration {name}")

    def decl_type(self, name: str) -> IrType | None:
        return self.decls.get(name)

    def copy_shell(self) -> "SmtProgram":
        """New program with copies of the datatype and declaration
        registries, and no statements."""
        return SmtProgram(dict(self.datatypes), dict(self.decls), [])


# ---------------------------------------------------------------------------
# Pretty printer (stable textual form used by --emit-ir and golden tests)


_INFIX = {"+", "-", "==", "!=", "<", "<=", ">", ">=", "and", "or"}


def format_expr(e: IrExpr) -> str:
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, ArrayRead):
        return f"{format_expr(e.array)}[{format_expr(e.index)}]"
    if isinstance(e, ArrayWrite):
        return f"{format_expr(e.array)}[{format_expr(e.index)} <- {format_expr(e.value)}]"
    if isinstance(e, ConstArray):
        return f"const([{e.index}]{e.elem}, {format_expr(e.value)})"
    if isinstance(e, Construct):
        args = ", ".join(format_expr(a) for a in e.args)
        return f"{e.datatype}({args})"
    if isinstance(e, Select):
        return f"{format_expr(e.base)}.{e.member}"
    if isinstance(e, Ite):
        return f"ite({format_expr(e.cond)}, {format_expr(e.then)}, {format_expr(e.other)})"
    if isinstance(e, BinOp):
        return f"({format_expr(e.left)} {e.op} {format_expr(e.right)})"
    if isinstance(e, UnOp):
        if e.op == "neg":
            return f"(-{format_expr(e.operand)})"
        return f"(!{format_expr(e.operand)})"
    raise TypeError(f"unknown expression node {e!r}")


def format_stmt(s: IrStmt, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(s, Assign):
        return [f"{pad}{format_expr(s.lhs)} := {format_expr(s.rhs)}"]
    if isinstance(s, Assume):
        return [f"{pad}assume {format_expr(s.cond)}"]
    if isinstance(s, Assert):
        return [f"{pad}assert {format_expr(s.cond)}"]
    if isinstance(s, IfStmt):
        lines = [f"{pad}if {format_expr(s.cond)} {{"]
        for t in s.then:
            lines.extend(format_stmt(t, indent + 1))
        lines.append(f"{pad}}} else {{")
        for t in s.other:
            lines.extend(format_stmt(t, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"unknown statement node {s!r}")


def format_program(p: SmtProgram) -> str:
    lines: list[str] = []
    for dt in p.datatypes.values():
        members = ", ".join(f"{n}: {t}" for n, t in dt.members)
        lines.append(f"datatype {dt.name}({members})")
    for name, ty in p.decls.items():
        lines.append(f"var {name}: {ty}")
    for s in p.stmts:
        lines.extend(format_stmt(s))
    return "\n".join(lines) + "\n"
