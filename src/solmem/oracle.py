"""Concrete reference interpreter for the Solidity fragment.

Storage is a pure tree of values (structs, arrays with an explicit
length over a growable backing store, total mappings with defaults);
memory is a heap of objects reached through references; local storage
pointers are concrete root-to-leaf paths through the per-type storage
tree, dereferenced against the current storage. Deep copies materialize
fresh trees or heap objects exactly where the translation does.

Semantics deliberately mirror the SMT encoding rather than the EVM:
indexed array reads outside [0, length) yield defaults instead of
reverting, pop shrinks the length but keeps the backing slot (dangling
pointers still read it), and delete rebuilds whole default values,
mappings included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import SolmemError
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
    StructType,
    UnExpr,
    is_reference_type,
    is_value_type,
)
from .storage_tree import StorageTree, build_storage_tree, default_context_tree


class OracleError(SolmemError):
    """Internal interpreter error: indicates a bug, not a user mistake."""


@dataclass
class StorStruct:
    struct: str
    members: dict[str, Any]


@dataclass
class StorArray:
    elem: SolType
    backing: list = field(default_factory=list)
    length: int = 0


@dataclass
class StorMapping:
    key: SolType
    value: SolType
    entries: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MemRef:
    addr: int


@dataclass
class StorPath:
    target: SolType
    path: list[int]


@dataclass
class MemStruct:
    struct: str
    members: dict[str, Any]


@dataclass
class MemArray:
    elem: SolType
    elems: list
    length: int


@dataclass
class AssertOutcome:
    ordinal: int
    line: int
    passed: bool


@dataclass
class ExecResult:
    storage: dict[str, Any]
    returns: dict[str, Any]
    asserts: list[AssertOutcome]
    state: "Machine"

    @property
    def failed(self) -> AssertOutcome | None:
        for a in self.asserts:
            if not a.passed:
                return a
        return None


class Place:
    """Mutable location: a read/write pair over live state."""

    def __init__(self, read: Callable[[], Any], write: Callable[[Any], None]):
        self.read = read
        self.write = write


class Machine:
    def __init__(self, contract: Contract):
        if not contract.resolved:
            raise OracleError("contract must be resolved")
        self.contract = contract
        self.storage: dict[str, Any] = {}
        self.heap: dict[int, Any] = {}
        self.next_addr = 0
        self.locals: dict[str, Any] = {}
        self.trees: dict[SolType, StorageTree] = {}
        self.default_contexts: dict[SolType, StorArray] = {}
        self.assert_results: list[AssertOutcome] = []

    # ------------------------------------------------------------------
    # defaults and copies

    def default(self, ty: SolType, loc: Loc) -> Any:
        if is_value_type(ty):
            return False if ty == BOOL else 0
        if loc == Loc.STORPTR:
            raise OracleError("storage pointers have no default")
        if isinstance(ty, MappingType):
            return StorMapping(ty.key, ty.value)
        if isinstance(ty, (DynArrayType, FixArrayType)):
            length = ty.size if isinstance(ty, FixArrayType) else 0
            if loc == Loc.STORAGE:
                return StorArray(ty.base, [], length)
            elem_loc = Loc.MEMORY if is_reference_type(ty.base) else Loc.VALUE
            elems = [self.default(ty.base, elem_loc) for _ in range(length)]
            return self.allocate(MemArray(ty.base, elems, length))
        if isinstance(ty, StructType):
            sd = self.contract.struct(ty.name)
            assert sd is not None
            if loc == Loc.STORAGE:
                return StorStruct(
                    ty.name,
                    {
                        m.name: self.default(
                            m.ty, Loc.STORAGE if is_reference_type(m.ty) else Loc.VALUE
                        )
                        for m in sd.members
                    },
                )
            return self.allocate(
                MemStruct(
                    ty.name,
                    {
                        m.name: self.default(
                            m.ty, Loc.MEMORY if is_reference_type(m.ty) else Loc.VALUE
                        )
                        for m in sd.members
                    },
                )
            )
        raise OracleError(f"no default for {ty}")

    def allocate(self, obj) -> MemRef:
        self.next_addr += 1
        self.heap[self.next_addr] = obj
        return MemRef(self.next_addr)

    def deep_copy(self, v: Any) -> Any:
        if isinstance(v, StorStruct):
            return StorStruct(v.struct, {k: self.deep_copy(m) for k, m in v.members.items()})
        if isinstance(v, StorArray):
            return StorArray(v.elem, [self.deep_copy(e) for e in v.backing], v.length)
        if isinstance(v, StorMapping):
            return StorMapping(v.key, v.value, {k: self.deep_copy(e) for k, e in v.entries.items()})
        return v

    def storage_from_memory(self, ty: SolType, v: Any) -> Any:
        """Deep copy of a memory entity into a fresh storage value tree."""
        if is_value_type(ty):
            return v
        if isinstance(ty, (DynArrayType, FixArrayType)):
            obj = self.deref(v)
            if not isinstance(obj, MemArray):
                raise OracleError("expected a memory array")
            backing = [self.storage_from_memory(ty.base, e) for e in obj.elems[: max(obj.length, 0)]]
            return StorArray(ty.base, backing, obj.length)
        if isinstance(ty, StructType):
            obj = self.deref(v)
            if not isinstance(obj, MemStruct):
                raise OracleError("expected a memory struct")
            sd = self.contract.struct(ty.name)
            assert sd is not None
            return StorStruct(
                ty.name,
                {m.name: self.storage_from_memory(m.ty, obj.members[m.name]) for m in sd.members},
            )
        raise OracleError(f"cannot copy {ty} from memory")

    def memory_from_storage(self, ty: SolType, v: Any) -> Any:
        """Deep copy of a storage value into freshly allocated memory."""
        if is_value_type(ty):
            return v
        if isinstance(ty, (DynArrayType, FixArrayType)):
            if not isinstance(v, StorArray):
                raise OracleError("expected a storage array")
            length = max(v.length, 0)
            elems = [
                self.memory_from_storage(ty.base, self.backing_read(v, i)) for i in range(length)
            ]
            return self.allocate(MemArray(ty.base, elems, v.length))
        if isinstance(ty, StructType):
            if not isinstance(v, StorStruct):
                raise OracleError("expected a storage struct")
            sd = self.contract.struct(ty.name)
            assert sd is not None
            return self.allocate(
                MemStruct(
                    ty.name,
                    {m.name: self.memory_from_storage(m.ty, v.members[m.name]) for m in sd.members},
                )
            )
        raise OracleError(f"cannot copy {ty} into memory")

    def deref(self, ref: Any):
        if not isinstance(ref, MemRef):
            raise OracleError(f"expected a memory reference, got {type(ref).__name__}")
        return self.heap[ref.addr]

    # ------------------------------------------------------------------
    # storage trees and pointer paths

    def tree_for(self, target: SolType) -> StorageTree:
        tree = self.trees.get(target)
        if tree is None:
            tree = build_storage_tree(self.contract, target)
            if tree.is_empty:
                tree = default_context_tree(target)
                self.default_contexts[target] = StorArray(target, [], 0)
            self.trees[target] = tree
        return tree

    def backing_read(self, arr: StorArray, index: int) -> Any:
        """Raw backing read: extends with defaults, ignores length."""
        if index < 0:
            raise OracleError("negative raw index")
        while len(arr.backing) <= index:
            elem_loc = Loc.STORAGE if is_reference_type(arr.elem) else Loc.VALUE
            arr.backing.append(self.default(arr.elem, elem_loc))
        return arr.backing[index]

    def path_place(self, pointer: StorPath) -> Place:
        """Dereference a pointer path into a live storage place. Ordinals
        matching no edge fall through to the last edge, mirroring the
        unpack conditional."""
        tree = self.tree_for(pointer.target)
        node = tree.root
        path = pointer.path
        first = path[0] if path else 0
        edge = next((e for e in node.edges if e.ordinal == first), node.edges[-1])
        label = edge.label

        if tree.default_context:
            ctx = self.default_contexts[pointer.target]
            idx = path[1] if len(path) > 1 else 0

            def read_ctx():
                return self.backing_read(ctx, idx)

            def write_ctx(v):
                self.backing_read(ctx, idx)
                ctx.backing[idx] = v

            return Place(read_ctx, write_ctx)

        place = Place(
            lambda label=label: self.storage[label],
            lambda v, label=label: self.storage.__setitem__(label, v),
        )
        node = edge.target
        depth = 1
        while not node.is_leaf:
            if node.kind == "struct":
                ordinal = path[depth] if depth < len(path) else 0
                edge = next((e for e in node.edges if e.ordinal == ordinal), node.edges[-1])
                holder = place.read()
                if not isinstance(holder, StorStruct):
                    raise OracleError("path expects a struct")
                member = edge.label
                place = Place(
                    lambda h=holder, m=member: h.members[m],
                    lambda v, h=holder, m=member: h.members.__setitem__(m, v),
                )
                node = edge.target
            elif node.kind == "array":
                idx = path[depth] if depth < len(path) else 0
                holder = place.read()
                if not isinstance(holder, StorArray):
                    raise OracleError("path expects an array")
                self.backing_read(holder, idx)
                place = Place(
                    lambda h=holder, i=idx: self.backing_read(h, i),
                    lambda v, h=holder, i=idx: h.backing.__setitem__(i, v),
                )
                node = node.edges[0].target
            elif node.kind == "mapping":
                raw = path[depth] if depth < len(path) else 0
                holder = place.read()
                if not isinstance(holder, StorMapping):
                    raise OracleError("path expects a mapping")
                key = (raw != 0) if holder.key == BOOL else raw
                place = Place(
                    lambda h=holder, k=key: self.mapping_read(h, k, materialize=True),
                    lambda v, h=holder, k=key: h.entries.__setitem__(k, v),
                )
                node = node.edges[0].target
            else:
                raise OracleError(f"unexpected node {node.kind}")
            depth += 1
        return place

    def mapping_read(self, m: StorMapping, key, materialize: bool = False):
        if key in m.entries:
            return m.entries[key]
        value = self.default(m.value, Loc.STORAGE if is_reference_type(m.value) else Loc.VALUE)
        if materialize:
            m.entries[key] = value
        return value

    # ------------------------------------------------------------------
    # packing (concrete)

    def pack_path(self, expr: Expr) -> StorPath:
        chain: list[Expr] = []
        node = expr
        while isinstance(node, (MemberExpr, IndexExpr)):
            chain.append(node)
            node = node.base
        if not isinstance(node, IdentExpr):
            raise OracleError("cannot pack a non-lvalue")
        chain.reverse()

        steps: list[tuple[str, Any]] = []
        if node.decl_kind == "state":
            steps.append(("label", node.name))
        elif node.loc == Loc.STORPTR:
            pointer = self.locals[node.name]
            if not isinstance(pointer, StorPath):
                raise OracleError("storage pointer variable holds no path")
            steps.extend(self._steps_of_path(pointer))
        else:
            raise OracleError("cannot pack a memory expression")
        for part in chain:
            if isinstance(part, MemberExpr):
                steps.append(("label", part.member))
            else:
                steps.append(("index", self.eval(part.index)))

        tree = self.tree_for(expr.ty)
        if tree.default_context:
            raise OracleError("cannot pack into a default context")
        tnode = tree.root
        path: list[int] = []
        for kind, payload in steps:
            if kind == "label":
                edge = next((e for e in tnode.edges if e.label == payload), None)
                if edge is None:
                    raise OracleError(f"tree for {expr.ty} has no edge {payload}")
                path.append(edge.ordinal)
            else:
                edge = tnode.edges[0]
                if tnode.kind == "mapping":
                    assert isinstance(tnode.ty, MappingType)
                    payload = int(payload) if tnode.ty.key == BOOL else payload
                path.append(int(payload))
            tnode = edge.target
        if not tnode.is_leaf:
            raise OracleError("packed path does not reach a leaf")
        return StorPath(expr.ty, path)

    def _steps_of_path(self, pointer: StorPath) -> list[tuple[str, Any]]:
        """Recover the label/index steps a concrete path denotes, so it
        can be re-encoded in another type's tree."""
        tree = self.tree_for(pointer.target)
        if tree.default_context:
            raise OracleError("cannot re-pack a default-context pointer")
        node = tree.root
        steps: list[tuple[str, Any]] = []
        depth = 0
        while not node.is_leaf:
            ordinal = pointer.path[depth] if depth < len(pointer.path) else 0
            if node.kind in ("contract", "struct"):
                edge = next((e for e in node.edges if e.ordinal == ordinal), node.edges[-1])
                steps.append(("label", edge.label))
            else:
                edge = node.edges[0]
                steps.append(("index", ordinal))
            node = edge.target
            depth += 1
        return steps

    # ------------------------------------------------------------------
    # expression evaluation

    def eval(self, e: Expr) -> Any:
        if isinstance(e, IntLitExpr):
            return e.value
        if isinstance(e, BoolLitExpr):
            return e.value
        if isinstance(e, IdentExpr):
            if e.decl_kind == "state":
                return self.storage[e.name]
            return self.locals[e.name]
        if isinstance(e, MemberExpr):
            return self._eval_member(e)
        if isinstance(e, IndexExpr):
            return self._eval_index(e)
        if isinstance(e, CondExpr):
            return self._eval_cond(e)
        if isinstance(e, NewArrayExpr):
            length = self.eval(e.length)
            elem_loc = Loc.MEMORY if is_reference_type(e.elem_type) else Loc.VALUE
            elems = [self.default(e.elem_type, elem_loc) for _ in range(max(length, 0))]
            return self.allocate(MemArray(e.elem_type, elems, length))
        if isinstance(e, StructCtorExpr):
            sd = self.contract.struct(e.name)
            assert sd is not None
            members = {}
            for m, arg in zip(sd.members, e.args):
                members[m.name] = self._operand_to_member(m.ty, arg)
            return self.allocate(MemStruct(e.name, members))
        if isinstance(e, BinExpr):
            return self._eval_binop(e)
        if isinstance(e, UnExpr):
            v = self.eval(e.operand)
            return (not v) if e.op == "!" else -v
        raise OracleError(f"unknown expression {e!r}")

    def _operand_to_member(self, ty: SolType, arg: Expr) -> Any:
        """Struct-constructor argument into a memory member slot."""
        if is_value_type(ty):
            return self.eval(arg)
        if arg.loc == Loc.MEMORY:
            return self.eval(arg)
        return self.memory_from_storage(ty, self.storage_entity(arg))

    def storage_entity(self, e: Expr) -> Any:
        """Live storage value an expression denotes (no copy)."""
        if e.loc == Loc.STORPTR:
            pointer = self.eval(e)
            if not isinstance(pointer, StorPath):
                raise OracleError("expected a storage pointer")
            return self.path_place(pointer).read()
        return self.eval(e)

    def _eval_member(self, e: MemberExpr) -> Any:
        base_ty = e.base.ty
        if isinstance(base_ty, (DynArrayType, FixArrayType)):
            entity = self._array_entity_value(e.base)
            return entity.length
        entity = self.storage_entity(e.base) if e.base.loc != Loc.MEMORY else self.deref(self.eval(e.base))
        if isinstance(entity, (StorStruct, MemStruct)):
            return entity.members[e.member]
        raise OracleError(f"member access on {type(entity).__name__}")

    def _array_entity_value(self, e: Expr):
        if e.loc == Loc.MEMORY:
            obj = self.deref(self.eval(e))
            if not isinstance(obj, MemArray):
                raise OracleError("expected a memory array")
            return obj
        entity = self.storage_entity(e)
        if not isinstance(entity, StorArray):
            raise OracleError("expected a storage array")
        return entity

    def _live_array(self, e: Expr) -> StorArray:
        """Storage array entity resolved through materializing accesses,
        so push/pop mutate the stored value (not a detached default)."""
        if isinstance(e, IdentExpr) and e.loc == Loc.STORPTR:
            entity = self.path_place(self.eval(e)).read()
        else:
            entity = self.lvalue_place(e).read()
        if not isinstance(entity, StorArray):
            raise OracleError("push/pop on non-storage array")
        return entity

    def _eval_index(self, e: IndexExpr) -> Any:
        base_ty = e.base.ty
        if isinstance(base_ty, MappingType):
            entity = self.storage_entity(e.base)
            if not isinstance(entity, StorMapping):
                raise OracleError("expected a mapping")
            return self.mapping_read(entity, self._key(entity, self.eval(e.index)))
        entity = self._array_entity_value(e.base)
        idx = self.eval(e.index)
        # length-guarded read; out of range yields the element default
        if 0 <= idx < entity.length:
            if isinstance(entity, StorArray):
                return self.backing_read(entity, idx)
            if idx < len(entity.elems):
                return entity.elems[idx]
        elem_ty = base_ty.base
        if isinstance(entity, MemArray):
            loc = Loc.MEMORY if is_reference_type(elem_ty) else Loc.VALUE
        else:
            loc = Loc.STORAGE if is_reference_type(elem_ty) else Loc.VALUE
        return self.default(elem_ty, loc)

    @staticmethod
    def _key(mapping: StorMapping, key):
        if mapping.key == BOOL:
            return bool(key)
        return key

    def _eval_cond(self, e: CondExpr) -> Any:
        taken = e.then if self.eval(e.cond) else e.other
        if e.loc == Loc.VALUE:
            return self.eval(taken)
        if e.loc == Loc.MEMORY:
            if taken.loc == Loc.MEMORY:
                return self.eval(taken)
            return self.memory_from_storage(e.ty, self.storage_entity(taken))
        # common location: storage pointer
        if taken.loc == Loc.STORPTR and isinstance(taken, IdentExpr):
            return self.eval(taken)
        return self.pack_path(taken)

    def _eval_binop(self, e: BinExpr) -> Any:
        op = e.op
        if op == "&&":
            return bool(self.eval(e.left)) and bool(self.eval(e.right))
        if op == "||":
            return bool(self.eval(e.left)) or bool(self.eval(e.right))
        a = self.eval(e.left)
        b = self.eval(e.right)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        raise OracleError(f"unknown operator {op}")

    # ------------------------------------------------------------------
    # lvalues

    def lvalue_place(self, e: Expr) -> Place:
        if isinstance(e, IdentExpr):
            if e.decl_kind == "state":
                return Place(
                    lambda: self.storage[e.name],
                    lambda v: self.storage.__setitem__(e.name, v),
                )
            return Place(
                lambda: self.locals[e.name], lambda v: self.locals.__setitem__(e.name, v)
            )
        if isinstance(e, MemberExpr):
            holder = self._entity_for_access(e.base)
            if not isinstance(holder, (StorStruct, MemStruct)):
                raise OracleError("member write on non-struct")
            return Place(
                lambda: holder.members[e.member],
                lambda v: holder.members.__setitem__(e.member, v),
            )
        if isinstance(e, IndexExpr):
            holder = self._entity_for_access(e.base)
            idx = self.eval(e.index)
            if isinstance(holder, StorMapping):
                key = self._key(holder, idx)
                return Place(
                    lambda: self.mapping_read(holder, key, materialize=True),
                    lambda v: holder.entries.__setitem__(key, v),
                )
            if isinstance(holder, StorArray):
                self.backing_read(holder, idx)
                return Place(
                    lambda: self.backing_read(holder, idx),
                    lambda v: holder.backing.__setitem__(idx, v),
                )
            if isinstance(holder, MemArray):
                while len(holder.elems) <= idx:
                    loc = Loc.MEMORY if is_reference_type(holder.elem) else Loc.VALUE
                    holder.elems.append(self.default(holder.elem, loc))
                return Place(
                    lambda: holder.elems[idx], lambda v: holder.elems.__setitem__(idx, v)
                )
            raise OracleError("index write on non-array")
        raise OracleError(f"not an lvalue: {e!r}")

    def _entity_for_access(self, base: Expr) -> Any:
        """Live container object for a member/index step of an lvalue."""
        if base.loc == Loc.MEMORY:
            return self.deref(self.eval(base))
        if base.loc == Loc.STORPTR:
            pointer = self.eval(base)
            return self.path_place(pointer).read()
        if isinstance(base, IdentExpr):
            return self.lvalue_place(base).read()
        place = self.lvalue_place(base)
        return place.read()

    # ------------------------------------------------------------------
    # assignment

    def assign(self, lhs: Expr, rhs_ty: SolType, rhs_loc: Loc, rhs_value: Any) -> None:
        """Store `rhs_value` (already evaluated: prim, live storage
        value, StorPath, or MemRef) into a non-pointer lvalue per the
        location matrix."""
        ty, loc = lhs.ty, lhs.loc
        if is_value_type(ty):
            self.lvalue_place(lhs).write(rhs_value)
            return
        if loc == Loc.STORAGE:
            if rhs_loc in (Loc.STORAGE, Loc.STORPTR):
                entity = (
                    self.path_place(rhs_value).read()
                    if isinstance(rhs_value, StorPath)
                    else rhs_value
                )
                self.lvalue_place(lhs).write(self.deep_copy(entity))
            else:
                self.lvalue_place(lhs).write(self.storage_from_memory(ty, rhs_value))
            return
        if loc == Loc.MEMORY:
            if rhs_loc == Loc.MEMORY:
                self.lvalue_place(lhs).write(rhs_value)
            else:
                entity = (
                    self.path_place(rhs_value).read()
                    if isinstance(rhs_value, StorPath)
                    else rhs_value
                )
                self.lvalue_place(lhs).write(self.memory_from_storage(ty, entity))
            return
        raise OracleError(f"cannot assign into {loc}")

    def _rhs_operand(self, e: Expr) -> tuple[SolType, Loc, Any]:
        """Evaluate an assignment right side: storage entities become
        pointers (paths), memory stays a reference, values evaluate."""
        if is_value_type(e.ty):
            return e.ty, Loc.VALUE, self.eval(e)
        if e.loc == Loc.STORAGE:
            return e.ty, Loc.STORPTR, self.pack_path(e)
        if e.loc == Loc.STORPTR:
            return e.ty, Loc.STORPTR, self.eval(e)
        return e.ty, Loc.MEMORY, self.eval(e)

    def _assign_pair(self, lhs: Expr, rhs_ty: SolType, rhs_loc: Loc, rhs_value: Any) -> None:
        if lhs.loc == Loc.STORPTR:
            # repoint the pointer variable
            if rhs_loc == Loc.STORPTR and isinstance(rhs_value, StorPath):
                self.locals[lhs.name] = StorPath(rhs_value.target, list(rhs_value.path))
                return
            raise OracleError("cannot repoint from a non-storage value")
        self.assign(lhs, rhs_ty, rhs_loc, rhs_value)

    # ------------------------------------------------------------------
    # statements

    def exec_stmt(self, s) -> bool:
        """Returns False when execution must stop (failed assert)."""
        if isinstance(s, DeclStmt):
            self._exec_decl(s)
        elif isinstance(s, AssignStmt):
            operands = [self._rhs_operand(r) for r in s.rhs]
            for lhs, (rty, rloc, rval) in reversed(list(zip(s.lhs, operands))):
                self._assign_pair(lhs, rty, rloc, rval)
        elif isinstance(s, PushStmt):
            arr = self._live_array(s.target)
            rty, rloc, rval = self._rhs_operand(s.value)
            slot = max(arr.length, 0)
            self.backing_read(arr, slot)
            if is_value_type(arr.elem):
                arr.backing[slot] = rval
            elif rloc == Loc.MEMORY:
                arr.backing[slot] = self.storage_from_memory(arr.elem, rval)
            else:
                entity = self.path_place(rval).read() if isinstance(rval, StorPath) else rval
                arr.backing[slot] = self.deep_copy(entity)
            arr.length = arr.length + 1
        elif isinstance(s, PopStmt):
            arr = self._live_array(s.target)
            arr.length -= 1
        elif isinstance(s, DeleteStmt):
            t = s.target
            if t.loc == Loc.MEMORY:
                self.lvalue_place(t).write(self.default(t.ty, Loc.MEMORY))
            elif is_value_type(t.ty):
                self.lvalue_place(t).write(self.default(t.ty, Loc.VALUE))
            else:
                self.lvalue_place(t).write(self.default(t.ty, Loc.STORAGE))
        elif isinstance(s, AssertStmt):
            ok = bool(self.eval(s.cond))
            self.assert_results.append(AssertOutcome(len(self.assert_results), s.line, ok))
            return ok
        else:
            raise OracleError(f"unknown statement {s!r}")
        return True

    def _exec_decl(self, s: DeclStmt) -> None:
        if is_value_type(s.var_type):
            if s.init is not None:
                self.locals[s.name] = self.eval(s.init)
            else:
                self.locals[s.name] = self.default(s.var_type, Loc.VALUE)
            return
        loc = Loc.STORPTR if s.data_loc == "storage" else Loc.MEMORY
        if loc == Loc.STORPTR:
            assert s.init is not None
            rty, rloc, rval = self._rhs_operand(s.init)
            if not isinstance(rval, StorPath):
                raise OracleError("storage pointer initializer must be a storage entity")
            self.locals[s.name] = StorPath(rval.target, list(rval.path))
            return
        if s.init is None:
            self.locals[s.name] = self.default(s.var_type, Loc.MEMORY)
            return
        rty, rloc, rval = self._rhs_operand(s.init)
        if rloc == Loc.MEMORY:
            self.locals[s.name] = rval
        else:
            entity = self.path_place(rval).read() if isinstance(rval, StorPath) else rval
            self.locals[s.name] = self.memory_from_storage(s.var_type, entity)


def init_storage(machine: Machine) -> None:
    for v in machine.contract.state_vars:
        loc = Loc.STORAGE if is_reference_type(v.ty) else Loc.VALUE
        machine.storage[v.name] = machine.default(v.ty, loc)


def _bind_arg(machine: Machine, p, value):
    """JSON-ish argument into a runtime value: prims directly, lists for
    memory arrays / pointer paths, dicts for memory structs."""
    if is_value_type(p.ty):
        return value
    if p.loc == Loc.STORPTR:
        if not isinstance(value, list):
            raise OracleError(f"storage pointer argument {p.name_source or p.name} must be a path list")
        machine.tree_for(p.ty)
        return StorPath(p.ty, [int(x) for x in value])
    return _materialize_memory(machine, p.ty, value)


def _materialize_memory(machine: Machine, ty: SolType, value):
    if is_value_type(ty):
        return value
    if isinstance(ty, (DynArrayType, FixArrayType)):
        if not isinstance(value, list):
            raise OracleError("memory array argument must be a list")
        elems = [_materialize_memory(machine, ty.base, v) for v in value]
        return machine.allocate(MemArray(ty.base, elems, len(elems)))
    if isinstance(ty, StructType):
        sd = machine.contract.struct(ty.name)
        assert sd is not None
        if not isinstance(value, dict):
            raise OracleError("memory struct argument must be an object")
        members = {m.name: _materialize_memory(machine, m.ty, value[m.name]) for m in sd.members}
        return machine.allocate(MemStruct(ty.name, members))
    raise OracleError(f"cannot materialize {ty}")


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
    args = args or []
    if len(args) != len(fn.params):
        raise OracleError(f"{fn_name} takes {len(fn.params)} arguments, got {len(args)}")
    for p, a in zip(fn.params, args):
        machine.locals[p.name] = _bind_arg(machine, p, a)
    for r in fn.returns:
        machine.locals[r.name] = machine.default(r.ty, r.loc)
    for s in fn.body:
        if not machine.exec_stmt(s):
            break
    returns = {r.name_source or r.name: machine.locals[r.name] for r in fn.returns}
    return ExecResult(machine.storage, returns, machine.assert_results, machine)


def run_constructor(contract: Contract) -> ExecResult:
    if contract.constructor is not None:
        return exec_function(contract, "constructor")
    machine = Machine(contract)
    init_storage(machine)
    return ExecResult(machine.storage, {}, [], machine)


# ---------------------------------------------------------------------------
# canonical serialization


def serialize(machine: Machine, ty: SolType, value) -> Any:
    """Type-directed canonical form: structs as objects, arrays with an
    explicit length and exactly the in-range elements, mappings as a
    default plus non-default entries, memory references structurally."""
    if is_value_type(ty):
        return bool(value) if ty == BOOL else int(value)
    if isinstance(ty, (DynArrayType, FixArrayType)):
        if isinstance(value, MemRef):
            obj = machine.deref(value)
            elems = [
                serialize(machine, ty.base, obj.elems[i])
                for i in range(max(obj.length, 0))
                if i < len(obj.elems)
            ]
            return {"length": obj.length, "elems": elems}
        assert isinstance(value, StorArray)
        elems = [
            serialize(machine, ty.base, machine.backing_read(value, i))
            for i in range(max(value.length, 0))
        ]
        return {"length": value.length, "elems": elems}
    if isinstance(ty, StructType):
        sd = machine.contract.struct(ty.name)
        assert sd is not None
        if isinstance(value, MemRef):
            obj = machine.deref(value)
            return {m.name: serialize(machine, m.ty, obj.members[m.name]) for m in sd.members}
        assert isinstance(value, StorStruct)
        return {m.name: serialize(machine, m.ty, value.members[m.name]) for m in sd.members}
    if isinstance(ty, MappingType):
        assert isinstance(value, StorMapping)
        default = serialize(
            machine,
            ty.value,
            machine.default(ty.value, Loc.STORAGE if is_reference_type(ty.value) else Loc.VALUE),
        )
        entries = {}
        for key in sorted(value.entries, key=str):
            entry = serialize(machine, ty.value, value.entries[key])
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
