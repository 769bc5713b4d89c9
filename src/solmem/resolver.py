"""Name resolution, type checking, and data-location analysis.

Every expression in a resolved tree carries a (type, location-category)
annotation. Identifiers are alpha-renamed to be globally unique within
their contract (`~k` suffixes, outside the source identifier alphabet).
No name is reserved: every name the translator invents contains `$`,
which the lexer rejects in identifiers.
Location categories follow the storage model:

  * value-typed expressions are always `value`;
  * state variables are `storage`; reference-typed locals, parameters and
    returns are `storptr` (declared `storage`) or `memory`;
  * member/index access rooted at storage or at a storage pointer denotes
    a storage entity and is annotated `storage` (the translator inserts
    the pointer dereference exactly at `storptr` bases);
  * member/index access on memory stays `memory`;
  * a reference-typed conditional is `memory` if either branch is memory,
    and `storptr` otherwise.
"""

from __future__ import annotations

from .errors import ResolveError, UnsupportedError
from .gcpause import gc_paused
from .sol_ast import (
    BOOL,
    INT,
    UINT,
    AssertStmt,
    AssignStmt,
    BinExpr,
    BoolLitExpr,
    CondExpr,
    Contract,
    DeclStmt,
    DeleteStmt,
    DynArrayType,
    Expr,
    FixArrayType,
    Function,
    IdentExpr,
    IndexExpr,
    IntLitExpr,
    Loc,
    MappingType,
    MemberExpr,
    NewArrayExpr,
    PopStmt,
    PushStmt,
    SolType,
    StructCtorExpr,
    StructType,
    UnExpr,
    ValueType,
    expr_to_source,
    is_integerish,
    is_value_type,
    part_loc,
    value_compatible,
)

RESERVED_MEMBERS = {"push", "pop", "length"}


# function-local symbol table: source name -> (unique name, type, location, kind)
Scope = dict[str, tuple[str, SolType, Loc, str]]


class Resolver:
    def __init__(self, contract: Contract, used_names: set[str] | None = None):
        self.contract = contract
        # unique names taken so far, shared by all functions of the contract
        self.used_names: set[str] = set() if used_names is None else used_names

    # -- naming ---------------------------------------------------------

    def _unique(self, name: str) -> str:
        fresh, k = name, 1
        while fresh in self.used_names:
            k += 1
            fresh = f"{name}~{k}"
        self.used_names.add(fresh)
        return fresh

    # -- entry point ------------------------------------------------------

    def run(self) -> Contract:
        c = self.contract
        self._check_structs()
        self._check_state_vars()
        names = set()
        for fn in c.functions:
            _add_new(names, fn.name, f"function {fn.name} (overloading unsupported)", fn.line)
        for fn in c.all_functions():
            self._resolve_function(fn)
        c.resolved = True
        return c

    # -- declarations -----------------------------------------------------

    def _check_structs(self) -> None:
        seen: set[str] = set()
        for s in self.contract.structs:
            _add_new(seen, s.name, f"struct {s.name}", s.line)
        for s in self.contract.structs:
            members: set[str] = set()
            for m in s.members:
                _add_new(members, m.name, f"member {s.name}.{m.name}", m.line)
                if m.name in RESERVED_MEMBERS:
                    raise ResolveError(f"member name {m.name} is reserved", m.line)
                self._check_type(m.ty, m.line)
        # storage must stay a finite-depth tree of values
        visiting: set[str] = set()
        done: set[str] = set()
        for s in self.contract.structs:
            self._check_finite(s.name, s.line, visiting, done)

    def _check_finite(self, name: str, line: int, visiting: set[str], done: set[str]) -> None:
        """Depth-first search for a struct that contains itself; `visiting`
        holds the structs on the current path, `done` those cleared."""
        if name in done:
            return
        if name in visiting:
            raise ResolveError(f"recursive struct type {name}", line)
        visiting.add(name)
        sd = self.contract.struct(name)
        assert sd is not None
        for m in sd.members:
            for sub in struct_refs(m.ty):
                self._check_finite(sub, m.line, visiting, done)
        visiting.discard(name)
        done.add(name)

    def _check_state_vars(self) -> None:
        seen: set[str] = set()
        for v in self.contract.state_vars:
            _add_new(seen, v.name, f"state variable {v.name}", v.line)
            self.used_names.add(v.name)
            self._check_type(v.ty, v.line)

    def _check_type(self, ty: SolType, line: int) -> None:
        if isinstance(ty, ValueType):
            return
        if isinstance(ty, MappingType):
            if not (is_value_type(ty.key)):
                raise ResolveError("mapping keys must be value types", line)
            self._check_type(ty.value, line)
            return
        if isinstance(ty, (DynArrayType, FixArrayType)):
            if isinstance(ty, FixArrayType) and ty.size < 0:
                raise ResolveError("negative array size", line)
            self._check_type(ty.base, line)
            return
        if isinstance(ty, StructType) and self.contract.struct(ty.name) is not None:
            return
        raise ResolveError(f"unknown type {ty}", line)

    def contains_mapping(self, ty: SolType) -> bool:
        if isinstance(ty, MappingType):
            return True
        if isinstance(ty, (DynArrayType, FixArrayType)):
            return self.contains_mapping(ty.base)
        if isinstance(ty, StructType):
            sd = self.contract.struct(ty.name)
            assert sd is not None
            return any(self.contains_mapping(m.ty) for m in sd.members)
        return False

    def _check_memory(self, ty: SolType, line: int) -> None:
        """A `ty` entity may live in memory: it holds no mapping."""
        if self.contains_mapping(ty):
            raise ResolveError("types containing mappings cannot be in memory", line)

    # -- functions ----------------------------------------------------------

    def _resolve_function(self, fn: Function) -> None:
        if fn.is_constructor and fn.returns:
            raise ResolveError("constructors cannot have return values", fn.line)
        seen: set[str] = set()
        for kind, group in (("param", fn.params), ("return", fn.returns)):
            for p in group:
                self._check_declared(p.ty, p.data_loc, p.line)
                if kind == "return" and p.data_loc == "storage":
                    raise ResolveError("storage-pointer return values are unsupported (no default value)", p.line)
                _add_new(seen, p.name, f"parameter {p.name}", p.line)
                p.name_source = p.name
                p.name = self._unique(p.name)
        scope = function_scope(self.contract, fn)
        for stmt in fn.body:
            self._resolve_stmt(stmt, scope, fn)

    def _check_declared(self, ty: SolType, data_loc: str | None, line: int) -> None:
        """A declared type exists and has a data location exactly when it
        is a reference type, never memory for one containing a mapping."""
        self._check_type(ty, line)
        if is_value_type(ty):
            if data_loc is not None:
                raise ResolveError(f"data location not allowed for value type {ty}", line)
        elif data_loc is None:
            raise ResolveError(f"data location required for reference type {ty}", line)
        elif data_loc == "memory":
            self._check_memory(ty, line)

    # -- statements ---------------------------------------------------------

    def _resolve_stmt(self, stmt, scope: Scope, fn: Function) -> None:
        cls = type(stmt)
        if cls is AssignStmt:
            self._resolve_assign(stmt, scope)
        elif cls is DeclStmt:
            self._resolve_decl(stmt, scope)
        elif cls is AssertStmt:
            stmt.text = expr_to_source(stmt.cond)
            self._resolve_expr(stmt.cond, scope)
            if stmt.cond.ty != BOOL:
                raise ResolveError("assert condition must be boolean", stmt.line)
        elif cls is PushStmt:
            self._resolve_push(stmt, scope)
        elif cls is PopStmt:
            self._expect_array_lvalue(stmt.target, scope, "pop", stmt.line)
        elif cls is DeleteStmt:
            self._resolve_delete(stmt, scope)
        else:
            raise ResolveError(f"unknown statement {stmt!r}", getattr(stmt, "line", 0))

    def _resolve_decl(self, stmt: DeclStmt, scope: Scope) -> None:
        ty = stmt.var_type
        self._check_declared(ty, stmt.data_loc, stmt.line)
        loc = stmt.loc
        if loc == Loc.STORPTR and stmt.init is None:
            raise ResolveError(
                f"storage pointer {stmt.name} must be explicitly initialized", stmt.line
            )
        if stmt.init is not None:
            self._resolve_expr(stmt.init, scope)
            self._check_assignable(ty, loc, stmt.init, stmt.line)
        source = stmt.name
        stmt.name = self._unique(source)
        scope[source] = (stmt.name, ty, loc, "local")

    def _resolve_assign(self, stmt: AssignStmt, scope: Scope) -> None:
        if len(stmt.lhs) != len(stmt.rhs):
            raise ResolveError(
                f"tuple assignment arity mismatch: {len(stmt.lhs)} vs {len(stmt.rhs)}",
                stmt.line,
            )
        for e in stmt.rhs:
            self._resolve_expr(e, scope)
        for e in stmt.lhs:
            self._resolve_expr(e, scope)
            self._check_lvalue(e, stmt.line)
        for target, value in zip(stmt.lhs, stmt.rhs):
            self._check_assignable(target.ty, target.loc, value, stmt.line)

    def _resolve_push(self, stmt: PushStmt, scope: Scope) -> None:
        ty = self._expect_array_lvalue(stmt.target, scope, "push", stmt.line)
        self._resolve_expr(stmt.value, scope)
        elem = ty.base
        if isinstance(elem, MappingType):
            raise ResolveError("mappings cannot be pushed", stmt.line)
        self._check_assignable(elem, part_loc(elem, Loc.STORAGE), stmt.value, stmt.line)

    def _expect_array_lvalue(self, target: Expr, scope: Scope, op: str, line: int):
        self._resolve_expr(target, scope)
        self._check_lvalue(target, line)
        ty = target.ty
        if isinstance(ty, FixArrayType):
            raise ResolveError(f"{op} is not allowed on fixed-size arrays", line)
        if not isinstance(ty, DynArrayType):
            raise ResolveError(f"{op} requires a dynamic array", line)
        if target.loc == Loc.MEMORY:
            raise ResolveError(f"{op} is not allowed on memory arrays", line)
        return ty

    def _resolve_delete(self, stmt: DeleteStmt, scope: Scope) -> None:
        self._resolve_expr(stmt.target, scope)
        self._check_lvalue(stmt.target, stmt.line)
        if isinstance(stmt.target.ty, MappingType):
            raise ResolveError("delete cannot be applied to mappings", stmt.line)
        if stmt.target.loc == Loc.STORPTR:
            raise ResolveError("delete cannot be applied to a storage pointer variable", stmt.line)

    def _check_lvalue(self, e: Expr, line: int) -> None:
        cls = type(e)
        if cls is IdentExpr:
            return
        if cls is IndexExpr:
            self._check_lvalue(e.base, line)
            return
        if cls is MemberExpr:
            if e.member == "length":
                raise ResolveError("array length is read-only", line)
            self._check_lvalue(e.base, line)
            return
        if cls is CondExpr:
            raise UnsupportedError("unsupported: writing through a conditional expression", line)
        raise ResolveError("expression is not assignable", line)

    def _check_assignable(self, lhs_ty: SolType, lhs_loc: Loc, rhs: Expr, line: int) -> None:
        rhs_ty, rhs_loc = rhs.ty, rhs.loc
        if not value_compatible(lhs_ty, rhs_ty):
            raise ResolveError(f"cannot assign {rhs_ty} to {lhs_ty}", line)
        if is_value_type(lhs_ty):
            return
        if lhs_loc == Loc.STORPTR and rhs_loc == Loc.MEMORY:
            raise ResolveError("cannot assign a memory entity to a storage pointer", line)
        if isinstance(lhs_ty, MappingType) and lhs_loc != Loc.STORPTR:
            # direct assignment of mappings has no effect; keep the source
            # honest instead of silently dropping it
            raise ResolveError("mappings cannot be assigned directly", line)

    # -- expressions ----------------------------------------------------------

    def _resolve_expr(self, e: Expr, scope: Scope) -> None:
        cls = type(e)
        if cls is IdentExpr:
            entry = scope.get(e.name)
            if entry is None:
                raise ResolveError(f"unknown identifier {e.name}", e.line, e.col)
            unique, ty, loc, kind = entry
            e.name = unique
            e.decl_kind = kind
            e.ty, e.loc = ty, loc
        elif cls is IntLitExpr:
            e.ty, e.loc = INT, Loc.VALUE
        elif cls is IndexExpr:
            self._resolve_index(e, scope)
        elif cls is BinExpr:
            self._resolve_binop(e, scope)
        elif cls is MemberExpr:
            self._resolve_member(e, scope)
        elif cls is BoolLitExpr:
            e.ty, e.loc = BOOL, Loc.VALUE
        elif cls is UnExpr:
            self._resolve_expr(e.operand, scope)
            if e.op == "!":
                if e.operand.ty != BOOL:
                    raise ResolveError("! requires a boolean operand", e.line)
                e.ty = BOOL
            else:
                if not is_integerish(e.operand.ty):
                    raise ResolveError("unary - requires an integer operand", e.line)
                e.ty = INT
            e.loc = Loc.VALUE
        elif cls is CondExpr:
            self._resolve_cond(e, scope)
        elif cls is NewArrayExpr:
            self._check_type(e.elem_type, e.line)
            self._check_memory(e.elem_type, e.line)
            self._resolve_expr(e.length, scope)
            if not is_integerish(e.length.ty):
                raise ResolveError("array length must be an integer", e.line)
            e.ty, e.loc = DynArrayType(e.elem_type), Loc.MEMORY
        elif cls is StructCtorExpr:
            sd = self.contract.struct(e.name)
            if sd is None:
                raise ResolveError(f"unknown struct {e.name}", e.line, e.col)
            self._check_memory(StructType(e.name), e.line)
            if len(e.args) != len(sd.members):
                raise ResolveError(
                    f"{e.name} constructor takes {len(sd.members)} arguments, got {len(e.args)}",
                    e.line,
                )
            for arg, member in zip(e.args, sd.members):
                self._resolve_expr(arg, scope)
                self._check_assignable(member.ty, part_loc(member.ty, Loc.MEMORY), arg, e.line)
            e.ty, e.loc = StructType(e.name), Loc.MEMORY
        else:
            raise ResolveError(f"unknown expression {e!r}", getattr(e, "line", 0))

    def _resolve_member(self, e: MemberExpr, scope: Scope) -> None:
        self._resolve_expr(e.base, scope)
        base_ty, base_loc = e.base.ty, e.base.loc
        cls = type(base_ty)
        if cls is DynArrayType or cls is FixArrayType:
            if e.member != "length":
                raise ResolveError(f"arrays have no member {e.member}", e.line)
            e.ty, e.loc = UINT, Loc.VALUE
            return
        if cls is not StructType:
            raise ResolveError(f"member access on non-struct type {base_ty}", e.line)
        sd = self.contract.struct(base_ty.name)
        assert sd is not None
        member = sd.member(e.member)
        if member is None:
            raise ResolveError(f"struct {base_ty.name} has no member {e.member}", e.line)
        e.ty = member.ty
        e.loc = _access_loc(member.ty, base_loc)

    def _resolve_index(self, e: IndexExpr, scope: Scope) -> None:
        self._resolve_expr(e.base, scope)
        self._resolve_expr(e.index, scope)
        base_ty, base_loc = e.base.ty, e.base.loc
        cls = type(base_ty)
        if cls is MappingType:
            if not is_value_type(e.index.ty) or not value_compatible(base_ty.key, e.index.ty):
                raise ResolveError(f"mapping key must be {base_ty.key}", e.line)
            e.ty = base_ty.value
            e.loc = _access_loc(base_ty.value, base_loc)
            return
        if cls is DynArrayType or cls is FixArrayType:
            if not is_integerish(e.index.ty):
                raise ResolveError("array index must be an integer", e.line)
            e.ty = base_ty.base
            e.loc = _access_loc(base_ty.base, base_loc)
            return
        raise ResolveError(f"indexing into non-array type {base_ty}", e.line)

    def _resolve_cond(self, e: CondExpr, scope: Scope) -> None:
        self._resolve_expr(e.cond, scope)
        if e.cond.ty != BOOL:
            raise ResolveError("conditional guard must be boolean", e.line)
        self._resolve_expr(e.then, scope)
        self._resolve_expr(e.other, scope)
        t, f = e.then, e.other
        if not value_compatible(t.ty, f.ty):
            raise ResolveError(f"incompatible branches {t.ty} / {f.ty}", e.line)
        if is_value_type(t.ty):
            e.ty = t.ty if t.ty == f.ty else INT
            e.loc = Loc.VALUE
            return
        e.ty = t.ty
        e.loc = Loc.MEMORY if Loc.MEMORY in (t.loc, f.loc) else Loc.STORPTR

    def _resolve_binop(self, e: BinExpr, scope: Scope) -> None:
        # The parser builds `a + b + c` left-nested, so walk the left spine
        # with a loop and check it bottom-up: a long chain takes no frame
        # per operator.
        spine = [e]
        while type(spine[-1].left) is BinExpr:
            spine.append(spine[-1].left)
        self._resolve_expr(spine[-1].left, scope)
        for b in reversed(spine):
            self._resolve_expr(b.right, scope)
            lt, rt = b.left.ty, b.right.ty
            op = b.op
            if op in ("&&", "||"):
                if lt != BOOL or rt != BOOL:
                    raise ResolveError(f"{op} requires boolean operands", b.line)
                b.ty = BOOL
            elif op in ("+", "-", "<", "<=", ">", ">="):
                if not (is_integerish(lt) and is_integerish(rt)):
                    raise ResolveError(f"{op} requires integer operands", b.line)
                b.ty = (lt if lt == rt else INT) if op in ("+", "-") else BOOL
            elif op in ("==", "!="):
                if not (is_value_type(lt) and is_value_type(rt) and value_compatible(lt, rt)):
                    raise ResolveError("comparison requires compatible value types", b.line)
                b.ty = BOOL
            else:
                raise ResolveError(f"unknown operator {op}", b.line)
            b.loc = Loc.VALUE


def _add_new(seen: set[str], name: str, what: str, line: int) -> None:
    """Add `name` to `seen`, the names of its kind declared so far; a
    second declaration is an error, `what` naming it in the message."""
    if name in seen:
        raise ResolveError(f"duplicate {what}", line)
    seen.add(name)


def _access_loc(part_ty: SolType, base_loc: Loc) -> Loc:
    """Location of a member or element: what a storage pointer points at
    lives in storage."""
    return part_loc(part_ty, Loc.STORAGE if base_loc == Loc.STORPTR else base_loc)


def struct_refs(ty: SolType):
    """Names of the structs `ty` mentions, mapping keys included."""
    if isinstance(ty, StructType):
        yield ty.name
    elif isinstance(ty, (DynArrayType, FixArrayType)):
        yield from struct_refs(ty.base)
    elif isinstance(ty, MappingType):
        yield from struct_refs(ty.key)
        yield from struct_refs(ty.value)


@gc_paused
def resolve_and_check(contract: Contract) -> Contract:
    """Annotate and alpha-rename a parsed contract; raises on errors."""
    return Resolver(contract).run()


def function_scope(contract: Contract, fn: Function) -> Scope:
    """The names visible at the start of `fn`'s body once its parameters
    are resolved: state variables, shadowed by parameters and returns."""
    scope: Scope = {v.name: (v.name, v.ty, part_loc(v.ty, Loc.STORAGE), "state") for v in contract.state_vars}
    for kind, group in (("param", fn.params), ("return", fn.returns)):
        for p in group:
            scope[p.name_source] = (p.name, p.ty, p.loc, kind)
    return scope


def resolve_statement(contract: Contract, fn: Function, stmt, scope: Scope, used_names: set[str]) -> None:
    """Resolve `stmt` in place as the next statement of `fn`'s body of a
    resolved contract. `scope` holds the names visible before it and
    `used_names` every unique name the contract has taken; a declaration
    adds to both, and only once it resolves, so a statement that raises
    leaves both unchanged."""
    Resolver(contract, used_names)._resolve_stmt(stmt, scope, fn)
