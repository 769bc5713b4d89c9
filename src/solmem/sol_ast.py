"""Typed syntax tree for the Solidity fragment.

Types are immutable interned values (`interning`): one object per type,
so `==` is `is` (structs are equal when their names are); build them
only by calling the class. Expression and statement nodes are mutable
records (`records`): the resolver fills in the `ty` and `loc`
annotations and rewrites identifiers to their globally unique names.
No node or type class is subclassed, so the walkers dispatch on a
node's exact class.
"""

from __future__ import annotations

from .interning import Interned
from .records import Record


# ---------------------------------------------------------------------------
# Types


class SolType(metaclass=Interned):
    __slots__ = ()


class ValueType(SolType):
    __slots__ = ("kind",)
    kind: str  # "address" | "int" | "uint" | "bool"

    def __str__(self) -> str:
        return self.kind


class MappingType(SolType):
    __slots__ = ("key", "value")
    key: SolType
    value: SolType

    def __str__(self) -> str:
        return f"mapping({self.key} => {self.value})"


class DynArrayType(SolType):
    __slots__ = ("base",)
    base: SolType

    def __str__(self) -> str:
        return f"{self.base}[]"


class FixArrayType(SolType):
    __slots__ = ("base", "size")
    base: SolType
    size: int

    def __str__(self) -> str:
        return f"{self.base}[{self.size}]"


class StructType(SolType):
    __slots__ = ("name",)
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


def default_context_name(target: SolType) -> str:
    return f"defaultctx${mangle(target)}"


class Loc:
    """Data-location category of an expression: `Loc.VALUE`,
    `Loc.STORAGE`, `Loc.STORPTR` or `Loc.MEMORY`, the class's only
    instances, compared and hashed by identity. Copies and pickles give
    back the member itself, and its repr and str read as an enum's.

    Not an `enum.Enum`: the resolver and translator read a member on
    nearly every node, and on Python 3.11 the enum metaclass's
    `__getattr__` makes each `Loc.STORAGE` cost about 98 ns, against
    19 ns for an attribute of a plain class."""

    __slots__ = ("value",)
    VALUE: Loc
    STORAGE: Loc
    STORPTR: Loc
    MEMORY: Loc

    def __init__(self, value: str):
        self.value = value

    def __repr__(self) -> str:
        return f"<Loc.{self.value.upper()}: {self.value!r}>"

    def __str__(self) -> str:
        return f"Loc.{self.value.upper()}"

    # copies and pickles look the member up by that name
    __reduce__ = __str__


Loc.VALUE = Loc("value")
Loc.STORAGE = Loc("storage")
Loc.STORPTR = Loc("storptr")
Loc.MEMORY = Loc("memory")


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


class Expr(Record, uncompared=("ty", "loc")):
    """An expression; the resolver fills in `ty` and `loc`."""

    __slots__ = ("line", "col", "ty", "loc")

    def __init__(self, line: int = 0, col: int = 0, ty: SolType | None = None, loc: Loc | None = None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc


class IdentExpr(Expr, uncompared=("decl_kind",)):
    # decl_kind, filled by the resolver: "state" | "local" | "param" | "return"
    __slots__ = ("name", "decl_kind")

    def __init__(self, name: str, decl_kind: str | None = None, line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.name = name
        self.decl_kind = decl_kind


class IntLitExpr(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.value = value


class BoolLitExpr(Expr):
    __slots__ = ("value",)

    def __init__(self, value: bool, line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.value = value


class MemberExpr(Expr):
    __slots__ = ("base", "member")

    def __init__(self, base: Expr, member: str, line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.base = base
        self.member = member


class IndexExpr(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr, line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.base = base
        self.index = index


class CondExpr(Expr):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr, line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.cond = cond
        self.then = then
        self.other = other


class NewArrayExpr(Expr):
    __slots__ = ("elem_type", "length")

    def __init__(self, elem_type: SolType, length: Expr, line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.elem_type = elem_type
        self.length = length


class StructCtorExpr(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list[Expr], line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.name = name
        self.args = args


class BinExpr(Expr):
    # op: + - == != < <= > >= && ||
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.op = op
        self.left = left
        self.right = right


class UnExpr(Expr):
    # op: ! -
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, line=0, col=0, ty=None, loc=None):
        self.line = line
        self.col = col
        self.ty = ty
        self.loc = loc
        self.op = op
        self.operand = operand


# ---------------------------------------------------------------------------
# Statements


class Stmt(Record):
    __slots__ = ("line",)

    def __init__(self, line: int = 0):
        self.line = line


class DeclStmt(Stmt):
    # data_loc: "storage" | "memory" | None
    __slots__ = ("var_type", "data_loc", "name", "init")

    def __init__(self, var_type: SolType, data_loc: str | None, name: str, init: Expr | None, line: int = 0):
        self.line = line
        self.var_type = var_type
        self.data_loc = data_loc
        self.name = name
        self.init = init

    @property
    def loc(self) -> Loc:
        return declared_loc(self.var_type, self.data_loc)


class AssignStmt(Stmt):
    __slots__ = ("lhs", "rhs", "tuple_form")

    def __init__(self, lhs: list[Expr], rhs: list[Expr], tuple_form: bool = False, line: int = 0):
        self.line = line
        self.lhs = lhs
        self.rhs = rhs
        self.tuple_form = tuple_form


class PushStmt(Stmt):
    __slots__ = ("target", "value")

    def __init__(self, target: Expr, value: Expr, line: int = 0):
        self.line = line
        self.target = target
        self.value = value


class PopStmt(Stmt):
    __slots__ = ("target",)

    def __init__(self, target: Expr, line: int = 0):
        self.line = line
        self.target = target


class DeleteStmt(Stmt):
    __slots__ = ("target",)

    def __init__(self, target: Expr, line: int = 0):
        self.line = line
        self.target = target


class AssertStmt(Stmt, uncompared=("text",), unprinted=("text",)):
    # text: the condition in source names (`expr_to_source`), kept by the
    # resolver before it renames
    __slots__ = ("cond", "text")

    def __init__(self, cond: Expr, text: str = "", line: int = 0):
        self.line = line
        self.cond = cond
        self.text = text


# ---------------------------------------------------------------------------
# Declarations


class StructMember(Record):
    __slots__ = ("name", "ty", "line")

    def __init__(self, name: str, ty: SolType, line: int = 0):
        self.name = name
        self.ty = ty
        self.line = line


class StructDef(Record):
    __slots__ = ("name", "members", "line")

    def __init__(self, name: str, members: list[StructMember], line: int = 0):
        self.name = name
        self.members = members
        self.line = line

    def member(self, name: str) -> StructMember | None:
        for m in self.members:
            if m.name == name:
                return m
        return None


class StateVar(Record):
    __slots__ = ("name", "ty", "line")

    def __init__(self, name: str, ty: SolType, line: int = 0):
        self.name = name
        self.ty = ty
        self.line = line


class Param(Record):
    # name_source: the pre-rename name, for reports and JSON keys
    __slots__ = ("ty", "data_loc", "name", "line", "name_source")

    def __init__(self, ty: SolType, data_loc: str | None, name: str, line: int = 0, name_source: str = ""):
        self.ty = ty
        self.data_loc = data_loc
        self.name = name
        self.line = line
        self.name_source = name_source

    @property
    def loc(self) -> Loc:
        return declared_loc(self.ty, self.data_loc)


class Function(Record):
    __slots__ = ("name", "params", "returns", "body", "is_constructor", "line")

    def __init__(
        self,
        name: str,
        params: list[Param],
        returns: list[Param],
        body: list[Stmt],
        is_constructor: bool = False,
        line: int = 0,
    ):
        self.name = name
        self.params = params
        self.returns = returns
        self.body = body
        self.is_constructor = is_constructor
        self.line = line


class Contract(Record):
    __slots__ = ("name", "structs", "state_vars", "constructor", "functions", "warnings", "resolved")

    def __init__(
        self,
        name: str,
        structs: list[StructDef],
        state_vars: list[StateVar],
        constructor: Function | None,
        functions: list[Function],
        warnings: list[str] | None = None,
        resolved: bool = False,
    ):
        self.name = name
        self.structs = structs
        self.state_vars = state_vars
        self.constructor = constructor
        self.functions = functions
        self.warnings = [] if warnings is None else warnings
        self.resolved = resolved

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
