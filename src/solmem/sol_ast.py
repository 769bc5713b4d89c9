"""Typed syntax tree for the Solidity fragment.

Types are immutable interned values (`interning`): one object per type,
so `==` is `is` (structs are equal when their names are); build them
only by calling the class. Expression and statement nodes are mutable:
the resolver fills in the `ty` and `loc` annotations and rewrites
identifiers to their globally unique names. No node or type class is
subclassed, so the walkers dispatch on a node's exact class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .interning import Interned


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True, eq=False)
class SolType(metaclass=Interned):
    pass


@dataclass(frozen=True, eq=False)
class ValueType(SolType):
    kind: str  # "address" | "int" | "uint" | "bool"

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True, eq=False)
class MappingType(SolType):
    key: SolType
    value: SolType

    def __str__(self) -> str:
        return f"mapping({self.key} => {self.value})"


@dataclass(frozen=True, eq=False)
class DynArrayType(SolType):
    base: SolType

    def __str__(self) -> str:
        return f"{self.base}[]"


@dataclass(frozen=True, eq=False)
class FixArrayType(SolType):
    base: SolType
    size: int

    def __str__(self) -> str:
        return f"{self.base}[{self.size}]"


@dataclass(frozen=True, eq=False)
class StructType(SolType):
    name: str

    def __str__(self) -> str:
        return self.name


ADDRESS = ValueType("address")
INT = ValueType("int")
UINT = ValueType("uint")
BOOL = ValueType("bool")


def is_value_type(t: SolType) -> bool:
    return type(t) is ValueType


def is_reference_type(t: SolType) -> bool:
    return type(t) is not ValueType


def is_integerish(t: SolType) -> bool:
    return t is INT or t is UINT or t is ADDRESS


def value_compatible(a: SolType, b: SolType) -> bool:
    """Assignment/comparison compatibility: int, uint and address are
    interchangeable integers; everything else requires exact equality."""
    if is_integerish(a) and is_integerish(b):
        return True
    return a == b


def mangle(t: SolType) -> str:
    """Name component of `t` in SMT names: `T*` for arrays of T, `<K=V>`
    for mappings. Injective, since struct names are `\\w+`, except that
    fixed and dynamic arrays of one base share it (and an encoding)."""
    if isinstance(t, ValueType):
        return t.kind
    if isinstance(t, MappingType):
        return f"<{mangle(t.key)}={mangle(t.value)}>"
    if isinstance(t, (DynArrayType, FixArrayType)):
        return f"{mangle(t.base)}*"
    if isinstance(t, StructType):
        return t.name
    raise TypeError(f"unknown type {t}")


class Loc(enum.Enum):
    """Data-location category of an expression."""

    VALUE = "value"
    STORAGE = "storage"
    STORPTR = "storptr"
    MEMORY = "memory"

    # the members are singletons, and `Enum.__hash__` is Python code
    __hash__ = object.__hash__


def part_loc(ty: SolType, holder: Loc) -> Loc:
    """Location of a `ty` part of an entity held at `holder`: a value
    type is a plain value, a reference type takes its holder's location."""
    return Loc.VALUE if type(ty) is ValueType else holder


def declared_loc(ty: SolType, data_loc: str | None) -> Loc:
    """Location of a variable or parameter declared with `data_loc`: a
    storage reference is a pointer into storage."""
    if is_value_type(ty):
        return Loc.VALUE
    return Loc.STORPTR if data_loc == "storage" else Loc.MEMORY


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class Expr:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)
    ty: SolType | None = field(default=None, kw_only=True, compare=False)
    loc: Loc | None = field(default=None, kw_only=True, compare=False)


@dataclass
class IdentExpr(Expr):
    name: str
    # filled by the resolver: "state" | "local" | "param" | "return"
    decl_kind: str | None = field(default=None, compare=False)


@dataclass
class IntLitExpr(Expr):
    value: int


@dataclass
class BoolLitExpr(Expr):
    value: bool


@dataclass
class MemberExpr(Expr):
    base: Expr
    member: str


@dataclass
class IndexExpr(Expr):
    base: Expr
    index: Expr


@dataclass
class CondExpr(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass
class NewArrayExpr(Expr):
    elem_type: SolType
    length: Expr


@dataclass
class StructCtorExpr(Expr):
    name: str
    args: list[Expr]


@dataclass
class BinExpr(Expr):
    op: str  # + - == != < <= > >= && ||
    left: Expr
    right: Expr


@dataclass
class UnExpr(Expr):
    op: str  # ! -
    operand: Expr


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Stmt:
    line: int = field(default=0, kw_only=True)


@dataclass
class DeclStmt(Stmt):
    var_type: SolType
    data_loc: str | None  # "storage" | "memory" | None
    name: str
    init: Expr | None

    @property
    def loc(self) -> Loc:
        return declared_loc(self.var_type, self.data_loc)


@dataclass
class AssignStmt(Stmt):
    lhs: list[Expr]
    rhs: list[Expr]
    tuple_form: bool = False


@dataclass
class PushStmt(Stmt):
    target: Expr
    value: Expr


@dataclass
class PopStmt(Stmt):
    target: Expr


@dataclass
class DeleteStmt(Stmt):
    target: Expr


@dataclass
class AssertStmt(Stmt):
    cond: Expr
    # the condition in source names (`expr_to_source`), kept by the
    # resolver before it renames
    text: str = field(default="", repr=False, compare=False)


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class StructMember:
    name: str
    ty: SolType
    line: int = 0


@dataclass
class StructDef:
    name: str
    members: list[StructMember]
    line: int = 0

    def member(self, name: str) -> StructMember | None:
        for m in self.members:
            if m.name == name:
                return m
        return None


@dataclass
class StateVar:
    name: str
    ty: SolType
    line: int = 0


@dataclass
class Param:
    ty: SolType
    data_loc: str | None
    name: str
    line: int = 0
    name_source: str = ""  # pre-rename name, for reports and JSON keys

    @property
    def loc(self) -> Loc:
        return declared_loc(self.ty, self.data_loc)


@dataclass
class Function:
    name: str
    params: list[Param]
    returns: list[Param]
    body: list[Stmt]
    is_constructor: bool = False
    line: int = 0


@dataclass
class Contract:
    name: str
    structs: list[StructDef]
    state_vars: list[StateVar]
    constructor: Function | None
    functions: list[Function]
    warnings: list[str] = field(default_factory=list)
    resolved: bool = False

    def struct(self, name: str) -> StructDef | None:
        for s in self.structs:
            if s.name == name:
                return s
        return None

    def all_functions(self) -> list[Function]:
        fns = list(self.functions)
        if self.constructor is not None:
            fns.insert(0, self.constructor)
        return fns

    def function(self, name: str) -> Function | None:
        if name == "constructor":
            return self.constructor
        for f in self.functions:
            if f.name == name:
                return f
        return None


def expr_to_source(e: Expr) -> str:
    """Source text of an expression, every operator application in
    parentheses; for error messages and assert texts."""
    if isinstance(e, IdentExpr):
        return e.name
    if isinstance(e, IntLitExpr):
        return str(e.value)
    if isinstance(e, BoolLitExpr):
        return "true" if e.value else "false"
    if isinstance(e, MemberExpr):
        return f"{expr_to_source(e.base)}.{e.member}"
    if isinstance(e, IndexExpr):
        return f"{expr_to_source(e.base)}[{expr_to_source(e.index)}]"
    if isinstance(e, CondExpr):
        return f"({expr_to_source(e.cond)} ? {expr_to_source(e.then)} : {expr_to_source(e.other)})"
    if isinstance(e, NewArrayExpr):
        return f"new {e.elem_type}[]({expr_to_source(e.length)})"
    if isinstance(e, StructCtorExpr):
        return f"{e.name}({', '.join(expr_to_source(a) for a in e.args)})"
    if isinstance(e, BinExpr):
        return f"({expr_to_source(e.left)} {e.op} {expr_to_source(e.right)})"
    if isinstance(e, UnExpr):
        return f"({e.op}{expr_to_source(e.operand)})"
    raise TypeError(f"unknown expression {e!r}")
