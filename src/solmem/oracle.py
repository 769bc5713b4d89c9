"""Concrete reference interpreter for the Solidity fragment.

The state model. Each shape has one class, wherever its value lives: a
`Struct` holds its members, an `Array` an explicit length next to a
total map from raw index to slot, and a `Mapping` (storage only) a
total map with a default, as in the SMT encoding. Storage is one table
of roots (`Machine.storage`): the state variables, each a pure tree of
these values, and the default contexts a pointer argument may start
from, whose names contain `$` and so never collide with a state
variable. Memory is a heap of the same objects, reached through
`MemRef`s. Memory stores every member and every in-range slot, so only
a storage slot can be unwritten; it reads as the element default.

Reads (`Machine.part`) never change state; a storage write goes through
the access path of its lvalue (`Machine.pack_path`), storing the
defaults on its way (`Machine.slot`). A local storage pointer is a
`StorPath`: the root it starts from followed by the member names and
index values taken from it, dereferenced against the current storage.
A pointer argument is such an access path too; when it is bound, a walk
over the declared types checks that it leads from a root to an entity of
the parameter's type. Deep copies build fresh trees or heap objects exactly
where the translation does.

Semantics deliberately mirror the SMT encoding rather than the EVM:
indexed array reads outside [0, length) yield defaults instead of
reverting, while a write or a pointer uses the raw slot at any index,
negative ones included; pop shrinks the length but keeps the slot
(dangling pointers still read it), and delete rebuilds whole default
values, mappings included.
"""

from __future__ import annotations

import operator
from typing import Any

from .errors import SolmemError
from .gcpause import gc_paused
from .records import Record, Value
from .sol_ast import (
    BOOL,
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
    StructMember,
    StructType,
    UnExpr,
    is_value_type,
    part_loc,
)
from .storage_tree import build_storage_tree, default_context_tree


class OracleError(SolmemError):
    """Internal interpreter error: indicates a bug, not a user mistake."""


class ArgumentError(SolmemError):
    """A function argument does not match its parameter's type."""


# the binary operators other than `&&` and `||`, which short-circuit
_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Struct(Record):
    __slots__ = ("struct", "members")

    def __init__(self, struct: str, members: dict[str, Any]):
        self.struct = struct
        self.members = members


class Array(Record):
    __slots__ = ("elem", "slots", "length")

    def __init__(self, elem: SolType, slots: dict | None = None, length: int = 0):
        self.elem = elem
        self.slots = {} if slots is None else slots  # raw index -> element
        self.length = length


class Mapping(Record):
    __slots__ = ("key", "value", "slots")

    def __init__(self, key: SolType, value: SolType, slots: dict | None = None):
        self.key = key
        self.value = value
        self.slots = {} if slots is None else slots


class MemRef(Value):
    __slots__ = ("addr",)

    def __init__(self, addr: int):
        object.__setattr__(self, "addr", addr)


class StorPath(Value):
    """A storage pointer: its root's name, then the member names and
    index values taken from it."""

    __slots__ = ("keys",)

    def __init__(self, keys: tuple):
        object.__setattr__(self, "keys", keys)


class AssertOutcome(Record):
    __slots__ = ("ordinal", "line", "passed")

    def __init__(self, ordinal: int, line: int, passed: bool):
        self.ordinal = ordinal
        self.line = line
        self.passed = passed


class ExecResult(Record):
    __slots__ = ("returns", "asserts", "state")

    def __init__(self, returns: dict[str, Any], asserts: list[AssertOutcome], state: "Machine"):
        self.returns = returns
        self.asserts = asserts
        self.state = state

    @property
    def failed(self) -> AssertOutcome | None:
        for a in self.asserts:
            if not a.passed:
                return a
        return None


class Machine:
    def __init__(self, contract: Contract):
        if not contract.resolved:
            raise OracleError("contract must be resolved")
        self.contract = contract
        self.storage: dict[str, Any] = {}
        self.heap: dict[int, Any] = {}
        self.next_addr = 0
        self.locals: dict[str, Any] = {}
        self.assert_results: list[AssertOutcome] = []

    def members(self, ty: StructType) -> list[StructMember]:
        sd = self.contract.struct(ty.name)
        assert sd is not None
        return sd.members

    # ------------------------------------------------------------------
    # defaults and copies

    def default(self, ty: SolType, loc: Loc) -> Any:
        if is_value_type(ty):
            return False if ty == BOOL else 0
        if loc == Loc.STORPTR:
            raise OracleError("storage pointers have no default")
        if isinstance(ty, MappingType):
            return Mapping(ty.key, ty.value)
        if isinstance(ty, (DynArrayType, FixArrayType)):
            length = ty.size if isinstance(ty, FixArrayType) else 0
            if loc == Loc.STORAGE:
                return Array(ty.base, length=length)
            return self._memory_array(ty.base, length)
        if isinstance(ty, StructType):
            # a memory struct's members are defaulted first, then it is allocated
            value = Struct(ty.name, {m.name: self.default(m.ty, part_loc(m.ty, loc)) for m in self.members(ty)})
            return value if loc == Loc.STORAGE else self.allocate(value)
        raise OracleError(f"no default for {ty}")

    def _memory_array(self, elem: SolType, length: int) -> MemRef:
        """A fresh memory array with every in-range slot stored as the
        element default, allocated after its elements."""
        slots = {i: self.default(elem, part_loc(elem, Loc.MEMORY)) for i in range(length)}
        return self.allocate(Array(elem, slots, length))

    def allocate(self, obj) -> MemRef:
        self.next_addr += 1
        self.heap[self.next_addr] = obj
        return MemRef(self.next_addr)

    def deep_copy(self, v: Any) -> Any:
        """A fresh copy of a storage value tree."""
        cls = type(v)
        if cls is Struct:
            return Struct(v.struct, {k: self.deep_copy(m) for k, m in v.members.items()})
        if cls is Array:
            return Array(v.elem, {i: self.deep_copy(e) for i, e in v.slots.items()}, v.length)
        if cls is Mapping:
            return Mapping(v.key, v.value, {k: self.deep_copy(e) for k, e in v.slots.items()})
        return v

    def _copy_across(self, ty: SolType, v: Any, dst: Loc) -> Any:
        """Deep copy of a storage value into fresh memory (`dst` is
        MEMORY), or of a memory entity into a fresh storage value tree
        (`dst` is STORAGE). A memory holder is allocated after its parts."""
        if is_value_type(ty):
            return v
        to_memory = dst == Loc.MEMORY
        src = v if to_memory else self.deref(v)
        if isinstance(ty, StructType):
            if type(src) is not Struct:
                raise OracleError("expected a struct")
            members = {m.name: self._copy_across(m.ty, src.members[m.name], dst) for m in self.members(ty)}
            holder = Struct(ty.name, members)
        elif isinstance(ty, (DynArrayType, FixArrayType)):
            if type(src) is not Array:
                raise OracleError("expected an array")
            slots = {i: self._copy_across(ty.base, self.part(src, i), dst) for i in range(src.length)}
            holder = Array(ty.base, slots, src.length)
        else:
            raise OracleError(f"cannot copy {ty} across locations")
        return self.allocate(holder) if to_memory else holder

    def _stored(self, ty: SolType, loc: Loc, rloc: Loc, rval: Any) -> Any:
        """The value an assignment of `rval`, found at `rloc`, writes into
        a `ty` slot at `loc`. A storage right side is a live entity or a
        pointer path to one. One matrix, keyed on (loc, rloc):

            loc \\ rloc   VALUE   MEMORY           STORAGE / STORPTR
            VALUE        as is
            MEMORY               shared           copied into memory
            STORAGE              copied to storage deep copy
            STORPTR                               the path, as is
        """
        if loc in (Loc.VALUE, Loc.STORPTR) or loc == rloc == Loc.MEMORY:
            return rval
        if isinstance(rval, StorPath):
            rval = self.deref_path(rval)
        if Loc.MEMORY in (loc, rloc):
            return self._copy_across(ty, rval, loc)
        return self.deep_copy(rval)

    def deref(self, ref: Any):
        if not isinstance(ref, MemRef):
            raise OracleError(f"expected a memory reference, got {type(ref).__name__}")
        return self.heap[ref.addr]

    # ------------------------------------------------------------------
    # parts and slots

    def part(self, entity: Any, key) -> Any:
        """A struct member, array slot or mapping entry, read without
        changing state. Memory stores every member and every in-range
        slot, so a slot never written is a storage slot: it reads as the
        element default in storage."""
        slots, key = self._slots(entity, key)
        if key in slots:
            return slots[key]
        ty = entity.value if type(entity) is Mapping else entity.elem
        return self.default(ty, part_loc(ty, Loc.STORAGE))

    def slot(self, entity: Any, key) -> tuple[dict, Any]:
        """The slot `(container, key)` of a storage part: `container[key]`
        is its live value. A slot never written gets its default stored
        first, so a write through it lands."""
        slots, key = self._slots(entity, key)
        if key not in slots:
            slots[key] = self.part(entity, key)
        return slots, key

    @staticmethod
    def _slots(entity: Any, key) -> tuple[dict, Any]:
        """The dict holding an entity's parts, and the key into it
        (boolean mapping keys folded, so `1` and `True` name one entry)."""
        cls = type(entity)
        if cls is Struct:
            return entity.members, key
        if cls is Mapping:
            return entity.slots, bool(key) if entity.key == BOOL else key
        if cls is Array:
            return entity.slots, key
        raise OracleError(f"no part {key!r} in {type(entity).__name__}")

    # ------------------------------------------------------------------
    # storage pointers

    def deref_path(self, pointer: StorPath) -> Any:
        """The live storage entity a pointer denotes, or the default an
        unwritten slot on its way reads as."""
        root, *steps = pointer.keys
        entity = self.storage[root]
        for key in steps:
            entity = self.part(entity, key)
        return entity

    def _path_slot(self, pointer: StorPath) -> tuple[dict, Any]:
        """The slot of the entity a pointer denotes, storing the defaults
        on its way, so a write through the pointer lands."""
        root, *steps = pointer.keys
        container, key = self.storage, root
        for step in steps:
            container, key = self.slot(container[key], step)
        return container, key

    def pack_path(self, expr: Expr) -> StorPath:
        """The access path of a storage lvalue: a state variable's name,
        or the keys of the storage pointer it starts from (a variable or
        a conditional), then the member names and index values taken."""
        chain: list[Expr] = []
        node = expr
        while type(node) is IndexExpr or type(node) is MemberExpr:
            chain.append(node)
            node = node.base
        if type(node) is IdentExpr and node.decl_kind == "state":
            keys = [node.name]
        elif node.loc == Loc.STORPTR:
            keys = list(self.eval(node).keys)
        else:
            raise OracleError("cannot pack a memory expression")
        for part in reversed(chain):
            keys.append(part.member if type(part) is MemberExpr else self.eval(part.index))
        return StorPath(tuple(keys))

    # ------------------------------------------------------------------
    # expression evaluation

    def eval(self, e: Expr) -> Any:
        cls = type(e)
        if cls is IntLitExpr:
            return e.value
        if cls is IdentExpr:
            if e.decl_kind == "state":
                return self.storage[e.name]
            return self.locals[e.name]
        if cls is IndexExpr:
            return self._eval_index(e)
        if cls is BinExpr:
            return self._eval_binop(e)
        if cls is MemberExpr:
            return self._eval_member(e)
        if cls is BoolLitExpr:
            return e.value
        if cls is UnExpr:
            v = self.eval(e.operand)
            return (not v) if e.op == "!" else -v
        if cls is CondExpr:
            return self._eval_cond(e)
        if cls is NewArrayExpr:
            return self._memory_array(e.elem_type, self.eval(e.length))
        if cls is StructCtorExpr:
            members = {}
            for m, arg in zip(self.members(e.ty), e.args):
                members[m.name] = self._stored(m.ty, part_loc(m.ty, Loc.MEMORY), arg.loc, self.eval(arg))
            return self.allocate(Struct(e.name, members))
        raise OracleError(f"unknown expression {e!r}")

    def entity(self, e: Expr) -> Any:
        """Live object an expression denotes, no copy: memory references
        and storage pointers are followed."""
        value = self.eval(e)
        if e.loc == Loc.MEMORY:
            return self.deref(value)
        if e.loc == Loc.STORPTR:
            return self.deref_path(value)
        return value

    def _eval_member(self, e: MemberExpr) -> Any:
        entity = self.entity(e.base)
        if isinstance(e.base.ty, (DynArrayType, FixArrayType)):
            if type(entity) is not Array:
                raise OracleError("expected an array")
            return entity.length
        if type(entity) is Struct:
            return entity.members[e.member]
        raise OracleError(f"member access on {type(entity).__name__}")

    def _eval_index(self, e: IndexExpr) -> Any:
        base_ty = e.base.ty
        entity = self.entity(e.base)
        if isinstance(base_ty, MappingType):
            return self.part(entity, self.eval(e.index))
        if type(entity) is not Array:
            raise OracleError("expected an array")
        idx = self.eval(e.index)
        # length-guarded read; out of range yields the element default
        # where the array lives
        if 0 <= idx < entity.length:
            return self.part(entity, idx)
        return self.default(e.ty, e.loc)

    def _eval_cond(self, e: CondExpr) -> Any:
        taken = e.then if self.eval(e.cond) else e.other
        if e.loc != Loc.STORPTR:
            return self._stored(e.ty, e.loc, taken.loc, self.eval(taken))
        # common location: storage pointer
        return self.eval(taken) if taken.loc == Loc.STORPTR else self.pack_path(taken)

    def _eval_binop(self, e: BinExpr) -> Any:
        # The parser builds `a + b + c` left-nested, so walk the left spine
        # with a loop, bottom-up: a long chain takes no frame per operator.
        # Each left operand is still evaluated before its right one, and
        # `&&`/`||` skip the right operand as before.
        spine = [e]
        while type(spine[-1].left) is BinExpr:
            spine.append(spine[-1].left)
        value = self.eval(spine[-1].left)
        for b in reversed(spine):
            if b.op == "&&":
                value = bool(value) and bool(self.eval(b.right))
            elif b.op == "||":
                value = bool(value) or bool(self.eval(b.right))
            else:
                right = self.eval(b.right)
                if b.op not in _OPERATORS:
                    raise OracleError(f"unknown operator {b.op}")
                value = _OPERATORS[b.op](value, right)
        return value

    # ------------------------------------------------------------------
    # lvalues

    def lvalue_place(self, e: Expr) -> tuple[Any, Any]:
        """The slot `(container, key)` of an lvalue: `container[key]` is
        its live value. A storage lvalue is reached through its access
        path, which stores the defaults on its way; every caller
        overwrites the slot, so a memory one needs no default first."""
        cls = type(e)
        if cls is IdentExpr and e.decl_kind != "state":
            return self.locals, e.name
        if cls is not IdentExpr and cls is not IndexExpr and cls is not MemberExpr:
            raise OracleError(f"not an lvalue: {e!r}")
        if cls is IdentExpr or e.base.loc != Loc.MEMORY:
            return self._path_slot(self.pack_path(e))
        return self._slots(self.entity(e.base), e.member if cls is MemberExpr else self.eval(e.index))

    # ------------------------------------------------------------------
    # statements

    def _rhs_operand(self, e: Expr) -> tuple[Loc, Any]:
        """Evaluate an assignment right side: a storage entity becomes a
        pointer path, anything else evaluates."""
        if e.loc == Loc.STORAGE:
            return Loc.STORPTR, self.pack_path(e)
        return e.loc, self.eval(e)

    def exec_stmt(self, s) -> bool:
        """Returns False when execution must stop (failed assert)."""
        cls = type(s)
        if cls is AssignStmt:
            operands = [self._rhs_operand(r) for r in s.rhs]
            for lhs, (rloc, rval) in reversed(list(zip(s.lhs, operands))):
                container, key = self.lvalue_place(lhs)
                container[key] = self._stored(lhs.ty, lhs.loc, rloc, rval)
        elif cls is DeclStmt:
            if s.init is None:
                self.locals[s.name] = self.default(s.var_type, s.loc)
            else:
                self.locals[s.name] = self._stored(s.var_type, s.loc, *self._rhs_operand(s.init))
        elif cls is AssertStmt:
            ok = bool(self.eval(s.cond))
            self.assert_results.append(AssertOutcome(len(self.assert_results), s.line, ok))
            return ok
        elif cls is PushStmt or cls is PopStmt:
            container, key = self._path_slot(self.pack_path(s.target))
            arr = container[key]
            if cls is PushStmt:
                rloc, rval = self._rhs_operand(s.value)
                arr.slots[arr.length] = self._stored(arr.elem, part_loc(arr.elem, Loc.STORAGE), rloc, rval)
            arr.length += 1 if cls is PushStmt else -1
        elif cls is DeleteStmt:
            container, key = self.lvalue_place(s.target)
            container[key] = self.default(s.target.ty, s.target.loc)
        else:
            raise OracleError(f"unknown statement {s!r}")
        return True


def init_storage(machine: Machine) -> None:
    for v in machine.contract.state_vars:
        machine.storage[v.name] = machine.default(v.ty, part_loc(v.ty, Loc.STORAGE))


def _bind_arg(machine: Machine, roots: dict[str, SolType], name: str, ty: SolType, loc: Loc, value) -> Any:
    """JSON argument into a runtime value, checked against its type: an
    integer or a boolean for a value type, an access path from one of
    `roots` (name -> type) for a storage pointer, a list for a memory
    array and an object with exactly the members for a memory struct."""

    def fail():
        return ArgumentError(f"argument {name}: expected {ty}, got {value!r}")

    if is_value_type(ty):
        if not isinstance(value, int) or isinstance(value, bool) != (ty == BOOL):
            raise fail()
        return value
    if loc == Loc.STORPTR:
        # an access path is a root, then a member name at each struct and
        # an integer at each array or mapping, ending at an entity of `ty`
        root, *steps = value if isinstance(value, list) and value else [None]
        at = roots.get(root) if type(root) is str else None
        for step in steps:
            if type(at) is StructType:
                at = next((m.ty for m in machine.members(at) if m.name == step), None)
            elif isinstance(at, (DynArrayType, FixArrayType, MappingType)) and type(step) is int:
                at = at.value if type(at) is MappingType else at.base
            else:
                at = None
        if at != ty:
            raise ArgumentError(f"argument {name}: expected an access path to {ty}, got {value!r}")
        if root not in machine.storage:
            machine.storage[root] = machine.default(roots[root], Loc.STORAGE)
        return StorPath(tuple(value))
    if isinstance(ty, (DynArrayType, FixArrayType)):
        if not isinstance(value, list) or (isinstance(ty, FixArrayType) and len(value) != ty.size):
            raise fail()
        slots = {i: _bind_arg(machine, roots, name, ty.base, Loc.MEMORY, v) for i, v in enumerate(value)}
        return machine.allocate(Array(ty.base, slots, len(slots)))
    members = machine.members(ty)
    if not isinstance(value, dict) or set(value) != {m.name for m in members}:
        raise fail()
    bound = {m.name: _bind_arg(machine, roots, name, m.ty, Loc.MEMORY, value[m.name]) for m in members}
    return machine.allocate(Struct(ty.name, bound))


def exec_function(
    contract: Contract,
    fn_name: str,
    args: list | None = None,
    initial: Machine | None = None,
) -> ExecResult:
    """Run one function. The constructor initializes every state variable
    to its default first; other functions run against `initial` state (a
    previous result's machine) or a default-initialized state."""
    fn = contract.function(fn_name)
    if fn is None:
        raise OracleError(f"no function named {fn_name}")
    machine = initial if initial is not None else Machine(contract)
    if not machine.storage:
        init_storage(machine)
    machine.locals = {}
    machine.assert_results = []
    args = [] if args is None else args
    if not isinstance(args, list) or len(args) != len(fn.params):
        raise ArgumentError(f"{fn_name} takes a list of {len(fn.params)} arguments, got {args!r}")
    # the roots an access path may start from: the state variables, and
    # the default context of each pointer-parameter type the contract
    # does not store, which is created when a path starts in it
    roots = {v.name: v.ty for v in contract.state_vars}
    for p in fn.params:
        if p.loc == Loc.STORPTR and not build_storage_tree(contract, p.ty).edges:
            context = default_context_tree(p.ty).edges[0]
            roots[context.label] = context.target.ty
    for p, a in zip(fn.params, args):
        machine.locals[p.name] = _bind_arg(machine, roots, p.name_source or p.name, p.ty, p.loc, a)
    for r in fn.returns:
        machine.locals[r.name] = machine.default(r.ty, r.loc)
    for s in fn.body:
        if not machine.exec_stmt(s):
            break
    returns = {r.name_source or r.name: machine.locals[r.name] for r in fn.returns}
    return ExecResult(returns, machine.assert_results, machine)


@gc_paused
def run_constructor(contract: Contract, args: list | None = None) -> ExecResult:
    if contract.constructor is not None:
        return exec_function(contract, "constructor", args)
    if args not in (None, []):
        raise ArgumentError(f"constructor takes a list of 0 arguments, got {args!r}")
    machine = Machine(contract)
    init_storage(machine)
    return ExecResult({}, [], machine)


# ---------------------------------------------------------------------------
# canonical serialization


def serialize(machine: Machine, ty: SolType, value) -> Any:
    """Type-directed canonical form: structs as objects, arrays with an
    explicit length and exactly the in-range elements, mappings as a
    default plus non-default entries, memory references structurally."""
    if is_value_type(ty):
        return bool(value) if ty == BOOL else int(value)
    if isinstance(ty, (DynArrayType, FixArrayType)):
        obj = machine.deref(value) if isinstance(value, MemRef) else value
        assert type(obj) is Array
        elems = [serialize(machine, ty.base, machine.part(obj, i)) for i in range(obj.length)]
        return {"length": obj.length, "elems": elems}
    if isinstance(ty, StructType):
        obj = machine.deref(value) if isinstance(value, MemRef) else value
        assert type(obj) is Struct
        return {m.name: serialize(machine, m.ty, obj.members[m.name]) for m in machine.members(ty)}
    if isinstance(ty, MappingType):
        assert type(value) is Mapping
        default = serialize(machine, ty.value, machine.default(ty.value, part_loc(ty.value, Loc.STORAGE)))
        entries = {}
        for key in sorted(value.slots, key=str):
            entry = serialize(machine, ty.value, value.slots[key])
            if entry != default:
                entries[str(int(key))] = entry
        return {"default": default, "entries": entries}
    raise OracleError(f"cannot serialize {ty}")


def serialize_storage(result: ExecResult) -> dict:
    machine = result.state
    out = {}
    for v in machine.contract.state_vars:
        out[v.name] = serialize(machine, v.ty, machine.storage[v.name])
    return out
