"""Translation from resolved contracts to SMT-based programs.

Storage entities become SMT values: storage arrays and structs are
single-constructor datatypes (value semantics, deep copy on assignment,
non-aliasing by construction), mappings are SMT arrays. Memory entities
live behind integer pointers into per-type heaps (`arrHeap$T`,
`structHeap$S`), with a monotone allocation counter `$alloc` generating
fresh addresses. Local storage pointers are integer arrays spelling a
path through the per-type storage tree; they are created by packing a
storage lvalue and dereferenced by unpacking into a conditional over the
tree's leaves.

Indexed array reads are length-guarded: an index outside [0, length)
yields the element type's default value. Pointer dereferences read the
backing store raw, so an element removed by pop keeps its value for
dangling storage pointers while indexing sees a defaulted slot.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cache, partial

from .errors import IrError, UnsupportedError
from .gcpause import gc_paused
from . import ir
from .ir import (
    PTR,
    ArrayRead,
    ArrayType,
    ArrayWrite,
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolLit,
    ConstArray,
    Construct,
    DatatypeDef,
    DatatypeType,
    Ident,
    IntLit,
    IrExpr,
    IrType,
    Ite,
    Select,
    SmtProgram,
    UnOp,
)
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
    expr_to_source,
    is_reference_type,
    is_value_type,
    mangle,
    part_loc,
)
from .storage_tree import (
    StorageTree,
    TreeEdge,
    TreeNode,
    build_storage_tree,
    default_context_name,
    default_context_tree,
)
from .records import Record

ALLOC = "$alloc"

# the (node, edge) pairs taken from a storage tree's root
Edges = tuple[tuple[TreeNode, TreeEdge], ...]
# one step of an access path: ("label", member name) or ("index", translated index)
Step = tuple[str, object]


@cache
def _names(ty: SolType) -> tuple[str, str, str]:
    """Storage datatype, memory datatype and memory heap of an array or
    struct type. Fixed and dynamic arrays of one base share them."""
    if isinstance(ty, StructType):
        return f"StorStruct${ty.name}", f"MemStruct${ty.name}", f"structHeap${ty.name}"
    if isinstance(ty, (DynArrayType, FixArrayType)):
        base = mangle(ty.base)
        return f"StorArr${base}", f"MemArr${base}", f"arrHeap${base}"
    raise IrError(f"no datatype for {ty}")


def _unpack_below(ptr: IrExpr, leaf: Callable[[Edges], IrExpr], node: TreeNode, edges: Edges) -> IrExpr:
    """`Translator.unpack` below `node`, reached through `edges`."""
    if node.is_leaf:
        return leaf(edges)
    last = node.edges[-1]
    result = _unpack_below(ptr, leaf, last.target, edges + ((node, last),))
    for edge in reversed(node.edges[:-1]):
        cond = ir.eq(ArrayRead(ptr, IntLit(len(edges))), IntLit(edge.ordinal))
        result = Ite(cond, _unpack_below(ptr, leaf, edge.target, edges + ((node, edge),)), result)
    return result


_COPY_NEEDS_UNROLL = (
    "unsupported: deep copy into {} of a dynamic array with reference base "
    "type requires element-wise iteration (use --unroll)"
)

_BINOPS = {"+": "+", "-": "-", "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=", "&&": "and", "||": "or"}


class AssertInfo(Record):
    __slots__ = ("ordinal", "line", "text")

    def __init__(self, ordinal: int, line: int, text: str):
        self.ordinal = ordinal
        self.line = line
        self.text = text


class TranslatedFunction(Record):
    __slots__ = ("name", "program", "asserts", "entry", "is_constructor")

    def __init__(
        self, name: str, program: SmtProgram, asserts: list[AssertInfo], entry: dict[str, str],
        is_constructor: bool = False,
    ):
        self.name = name
        self.program = program
        self.asserts = asserts
        # the entry state a counterexample shows, declared name -> source name:
        # the parameters, and outside a constructor the state variables
        self.entry = entry
        self.is_constructor = is_constructor


class Translator:
    """Per-function translation context: one SMT program, one allocation
    counter, deduplicated datatype/heap declarations, a fresh-name supply,
    and cached storage trees."""

    def __init__(self, contract: Contract, unroll: int | None = None):
        if not contract.resolved:
            raise IrError("contract must be resolved before translation")
        if unroll is not None and unroll < 0:
            # a negative bound contradicts every length's `0 <= n`, so every assert would verify
            raise ValueError(f"unroll bound must be a non-negative integer, got {unroll}")
        self.contract = contract
        self.unroll = unroll
        self.program = SmtProgram()
        # map_type's results by (type, location); `program` holds what it registered
        self.types: dict[tuple[SolType, Loc], IrType] = {}
        self.stmts: list[ir.IrStmt] = self.program.stmts
        self.fresh_counter = 0
        self.trees: dict[SolType, StorageTree] = {}
        self.asserts: list[AssertInfo] = []
        self.program.declare(ALLOC, ir.INT)

    # ------------------------------------------------------------------
    # helpers

    def fresh(self, prefix: str, ty: IrType) -> Ident:
        # every name the translator invents contains `$`, which is outside
        # the alphabets of source identifiers (`\w`), the resolver's
        # renaming (`~`) and SSA versions (`!`), so none names a variable
        self.fresh_counter += 1
        name = f"{prefix}${self.fresh_counter}"
        self.program.declare(name, ty)
        return Ident(name)

    def emit(self, stmt: ir.IrStmt) -> None:
        self.stmts.append(stmt)

    def allocate(self) -> Ident:
        """$alloc := $alloc + 1; p := $alloc — fresh, never-aliasing address."""
        self.emit(Assign(Ident(ALLOC), ir.add(Ident(ALLOC), IntLit(1))))
        ptr = self.fresh("newptr", ir.INT)
        self.emit(Assign(ptr, Ident(ALLOC)))
        return ptr

    # ------------------------------------------------------------------
    # type mapping

    def map_type(self, ty: SolType, loc: Loc) -> IrType:
        """SMT type of a `ty` entity held in `loc`. Storage arrays and
        structs are datatypes; memory ones are pointers into the heap of
        their datatype. Datatypes and heaps are registered on first use,
        inner ones first, and the result is kept for later calls."""
        mapped = self.types.get((ty, loc))
        if mapped is None:
            mapped = self.types[ty, loc] = self._map_type(ty, loc)
        return mapped

    def _map_type(self, ty: SolType, loc: Loc) -> IrType:
        if is_value_type(ty):
            return ir.BOOL if ty == BOOL else ir.INT
        if loc == Loc.STORPTR:
            return PTR
        if isinstance(ty, MappingType):
            if loc != Loc.STORAGE:
                raise IrError("mappings exist only in storage")
            return ArrayType(self.map_type(ty.key, Loc.VALUE), self.map_type(ty.value, Loc.STORAGE))
        if loc not in (Loc.STORAGE, Loc.MEMORY):
            raise IrError(f"no type mapping for {ty} in {loc}")
        stor, mem, heap = _names(ty)
        name = stor if loc == Loc.STORAGE else mem
        if name not in self.program.datatypes:
            if isinstance(ty, StructType):
                members = tuple(
                    (m.name, self.map_type(m.ty, part_loc(m.ty, loc)))
                    for m in self.contract.struct(ty.name).members
                )
            else:
                elem = self.map_type(ty.base, part_loc(ty.base, loc))
                members = (("arr", ArrayType(ir.INT, elem)), ("length", ir.INT))
            self.program.add_datatype(DatatypeDef(name, members))
        if loc == Loc.STORAGE:
            return DatatypeType(name)
        self.program.declare(heap, ArrayType(ir.INT, DatatypeType(name)))
        return ir.INT

    def _datatype_at(self, ty: SolType, loc: Loc) -> str:
        """Datatype of a storage (or storage pointer) or memory entity."""
        in_memory = loc == Loc.MEMORY
        self.map_type(ty, Loc.MEMORY if in_memory else Loc.STORAGE)
        return _names(ty)[in_memory]

    def heap_read(self, ty: SolType, pointer: IrExpr) -> IrExpr:
        self.map_type(ty, Loc.MEMORY)
        return ArrayRead(Ident(_names(ty)[2]), pointer)

    # ------------------------------------------------------------------
    # storage trees, pack, unpack

    def tree_for(self, target: SolType) -> StorageTree:
        tree = self.trees.get(target)
        if tree is None:
            tree = build_storage_tree(self.contract, target)
            if tree.is_empty:
                tree = default_context_tree(target)
                self.program.declare(
                    default_context_name(target),
                    ArrayType(ir.INT, self.map_type(target, Loc.STORAGE)),
                )
            self.trees[target] = tree
        return tree

    def pack(self, expr: Expr, target: SolType | None = None, suffix: Sequence[Step] = ()) -> IrExpr:
        """Path array uniquely identifying the storage entity `expr`
        denotes: edge ordinals at identifier/member steps, translated
        index expressions at index steps. The access steps taken from a
        conditional base are translated once and packed below each
        branch, as the branch's `suffix` to an entity of type `target`."""
        target = target or expr.ty
        chain: list[Expr] = []
        root = expr
        while isinstance(root, (MemberExpr, IndexExpr)):
            chain.append(root)
            root = root.base
        chain.reverse()
        steps = self._steps(chain) + list(suffix)
        if isinstance(root, CondExpr):
            return Ite(self.expr(root.cond), self.pack(root.then, target, steps), self.pack(root.other, target, steps))
        if not isinstance(root, IdentExpr):
            raise IrError(f"cannot pack non-lvalue {expr_to_source(expr)}")
        if root.decl_kind == "state":
            tree = self.tree_for(target)
            if tree.default_context:
                raise IrError("state-variable path cannot live in a default context")
            return self._path(tree.root, [("label", root.name)] + steps, None)
        if root.loc == Loc.STORPTR:
            return self._repack(root, steps, target, expr.line)
        raise IrError(f"cannot pack {expr_to_source(expr)}")

    def _steps(self, chain: list[Expr]) -> list[Step]:
        """One ("label", name) or ("index", translated index) per member or
        index access; the indexes are translated once, in source order."""
        return [
            ("label", step.member) if isinstance(step, MemberExpr) else ("index", self.expr(step.index))
            for step in chain
        ]

    def _path(self, node: TreeNode, steps: list[Step], ptr: IrExpr | None) -> IrExpr:
        """Path array of `steps` taken from `node`: the edge ordinal at a
        label, the index at an index step (translated bool mapping keys as
        0/1). An index step without an index copies `ptr`'s element at its
        depth, which is already encoded."""
        result: IrExpr = ConstArray(ir.INT, ir.INT, IntLit(0))
        for depth, (kind, payload) in enumerate(steps):
            if kind == "label":
                edge = next((e for e in node.edges if e.label == payload), None)
                if edge is None:
                    raise IrError(f"storage tree has no edge labeled {payload}")
                value: IrExpr = IntLit(edge.ordinal)
            else:
                edge = node.edges[0]
                if payload is None:
                    value = ArrayRead(ptr, IntLit(depth))
                elif isinstance(node.ty, MappingType) and node.ty.key == BOOL:
                    value = Ite(payload, IntLit(1), IntLit(0))
                else:
                    value = payload
            result = ArrayWrite(result, IntLit(depth), value)
            node = edge.target
        if not node.is_leaf:
            raise IrError("packed path does not reach a leaf")
        return result

    def _repack(self, root: IdentExpr, suffix: list[Step], target: SolType, line: int) -> IrExpr:
        """Rebase a pointer-rooted lvalue (e.g. p.member[i]) into a path
        for the composite's own type through unpack's conditional: at each
        leaf the pointer may reach, re-encode the edges taken in the
        target tree and append the suffix steps at the leaf's depth. As
        in unpack, an element that matches no edge takes the last edge."""
        if self.tree_for(root.ty).default_context:
            raise UnsupportedError(
                "unsupported: storage pointer access through a default context "
                "cannot be re-packed",
                line,
            )
        target_tree = self.tree_for(target)
        if target_tree.default_context:
            raise IrError("target tree empty while source tree is not")
        ptr = self.expr(root)

        def leaf(edges: Edges) -> IrExpr:
            steps = [("label", e.label) if e.label is not None else ("index", None) for _, e in edges]
            return self._path(target_tree.root, steps + suffix, ptr)

        return self.unpack(ptr, root.ty, leaf)

    def unpack(self, ptr: IrExpr, target: SolType, leaf: Callable[[Edges], IrExpr] | None = None) -> IrExpr:
        """Conditional over the storage tree's leaves decoding a pointer.
        At a contract or struct node the path element selects the edge
        with that ordinal, and an element that matches no edge takes the
        last edge, the unguarded fall-through; arrays and mappings index
        by it. A leaf yields the storage entity it reaches, or
        `leaf(edges)` for the (node, edge) pairs taken to it."""
        return _unpack_below(ptr, leaf or partial(self._entity, ptr), self.tree_for(target).root, ())

    def _entity(self, ptr: IrExpr, edges: Edges) -> IrExpr:
        """Storage entity at the end of `edges`: arrays read their backing
        store raw at the path element, bool mapping keys are decoded from
        0/1."""
        (_, first), *rest = edges
        entity: IrExpr = Ident(first.label)
        for depth, (node, edge) in enumerate(rest, 1):
            if node.kind == "struct":
                entity = Select(entity, edge.label, self._datatype_at(node.ty, Loc.STORAGE))
                continue
            idx: IrExpr = ArrayRead(ptr, IntLit(depth))
            if not isinstance(node.ty, MappingType):
                entity = Select(entity, "arr", self._datatype_at(node.ty, Loc.STORAGE))
            elif node.ty.key == BOOL:
                idx = BinOp("!=", idx, IntLit(0))
            entity = ArrayRead(entity, idx)
        return entity

    # ------------------------------------------------------------------
    # default values

    def default_value(self, ty: SolType, loc: Loc) -> IrExpr:
        if is_value_type(ty):
            return BoolLit(False) if ty == BOOL else IntLit(0)
        if loc == Loc.STORPTR:
            raise IrError("storage pointers have no default value")
        if isinstance(ty, MappingType):
            key_ty = self.map_type(ty.key, Loc.VALUE)
            val_ty = self.map_type(ty.value, Loc.STORAGE)
            return ConstArray(key_ty, val_ty, self.default_value(ty.value, Loc.STORAGE))
        if isinstance(ty, (DynArrayType, FixArrayType)):
            length = ty.size if isinstance(ty, FixArrayType) else 0
            if loc == Loc.STORAGE:
                elem_loc = part_loc(ty.base, Loc.STORAGE)
                elem_ty = self.map_type(ty.base, elem_loc)
                return Construct(
                    self._datatype_at(ty, Loc.STORAGE),
                    (
                        ConstArray(ir.INT, elem_ty, self.default_value(ty.base, elem_loc)),
                        IntLit(length),
                    ),
                )
            return self._alloc_memory_array(ty, IntLit(length))
        if isinstance(ty, StructType):
            # a memory struct is allocated first, then its members defaulted
            ptr = self.allocate() if loc == Loc.MEMORY else None
            args = tuple(
                self.default_value(m.ty, part_loc(m.ty, loc)) for m in self.contract.struct(ty.name).members
            )
            value = Construct(self._datatype_at(ty, loc), args)
            if ptr is None:
                return value
            self.emit(Assign(self.heap_read(ty, ptr), value))
            return ptr
        raise IrError(f"no default for {ty} in {loc}")

    def _alloc_memory_array(self, ty: SolType, length_expr: IrExpr) -> IrExpr:
        """Allocate a memory array with defaulted elements. Value bases
        default wholesale through a constant array; reference bases need
        one allocation per element, so the length must be a compile-time
        constant or bounded by --unroll."""
        assert isinstance(ty, (DynArrayType, FixArrayType))
        base = ty.base
        ptr = self.allocate()
        dt = self._datatype_at(ty, Loc.MEMORY)
        heap_slot = self.heap_read(ty, ptr)
        if is_value_type(base):
            elem_default = self.default_value(base, Loc.VALUE)
            backing: IrExpr = ConstArray(ir.INT, self.map_type(base, Loc.VALUE), elem_default)
            self.emit(Assign(heap_slot, Construct(dt, (backing, length_expr))))
            return ptr
        backing = ConstArray(ir.INT, ir.INT, IntLit(0))
        self.emit(Assign(heap_slot, Construct(dt, (backing, length_expr))))
        bound = self._array_bound(
            ty,
            length_expr,
            "unsupported: memory array of reference base type with "
            "non-constant length (use --unroll)",
        )
        for i in range(bound):
            elem = self.default_value(base, Loc.MEMORY)
            self.emit(
                Assign(ArrayRead(Select(self.heap_read(ty, ptr), "arr", dt), IntLit(i)), elem)
            )
        return ptr

    # ------------------------------------------------------------------
    # expressions

    def expr(self, e: Expr | IrExpr) -> IrExpr:
        """Rvalue translation; side effects are emitted in order. An IR
        term is already translated and is returned as is."""
        cls = type(e)
        if cls is IdentExpr:
            return Ident(e.name)
        if cls is IntLitExpr:
            return IntLit(e.value)
        if cls is IndexExpr:
            return self._index(e, lvalue=False)
        if cls is BinExpr:
            op = _BINOPS.get(e.op)
            if op is None:
                raise IrError(f"unknown operator {e.op}")
            return BinOp(op, self.expr(e.left), self.expr(e.right))
        if cls is MemberExpr:
            return self._member(e, lvalue=False)
        if cls is BoolLitExpr:
            return BoolLit(e.value)
        if cls is UnExpr:
            return UnOp("not" if e.op == "!" else "neg", self.expr(e.operand))
        if cls is CondExpr:
            return self._conditional(e)
        if cls is NewArrayExpr:
            return self._new_array(e)
        if cls is StructCtorExpr:
            return self._struct_ctor(e)
        if isinstance(e, IrExpr):
            return e
        raise IrError(f"unknown expression {e!r}")

    def lvalue(self, e: Expr | IrExpr) -> IrExpr:
        """Assignment-target translation: raw selects and reads, with the
        pointer dereference inserted at storage-pointer bases. An IR term
        is already translated and is returned as is."""
        cls = type(e)
        if cls is IdentExpr:
            return Ident(e.name)
        if cls is IndexExpr:
            return self._index(e, lvalue=True)
        if cls is MemberExpr:
            return self._member(e, lvalue=True)
        if isinstance(e, IrExpr):
            return e
        raise IrError(f"not an lvalue: {expr_to_source(e)}")

    def _storage_base(self, base: Expr, lvalue: bool) -> IrExpr:
        """Base of a member/index access as a storage or memory entity."""
        if base.loc == Loc.STORPTR:
            return self.unpack(self.expr(base), base.ty)
        if base.loc == Loc.MEMORY:
            return self.heap_read(base.ty, self.expr(base))
        return self.lvalue(base) if lvalue else self.expr(base)

    def _member(self, e: MemberExpr, lvalue: bool) -> IrExpr:
        # a struct member, or an array's `length` (the resolver rejects
        # any other array member)
        entity = self._storage_base(e.base, lvalue)
        return Select(entity, e.member, self._datatype_at(e.base.ty, e.base.loc))

    def _index(self, e: IndexExpr, lvalue: bool) -> IrExpr:
        base_ty = e.base.ty
        if type(base_ty) is MappingType:
            entity = self._storage_base(e.base, lvalue)
            return ArrayRead(entity, self.expr(e.index))
        assert isinstance(base_ty, (DynArrayType, FixArrayType))
        in_memory = e.base.loc == Loc.MEMORY
        dt = self._datatype_at(base_ty, e.base.loc)
        entity = self._storage_base(e.base, lvalue)
        idx = self.expr(e.index)
        if lvalue:
            return ArrayRead(Select(entity, "arr", dt), idx)
        # length-guarded read: out-of-range indexes yield the element
        # default (in particular, elements removed by pop). The guard reads
        # the index and the entity again, so each is bound once unless it
        # is a name or literal; otherwise `a[a[a[0]]]` grows exponentially.
        if type(idx) is not Ident and type(idx) is not IntLit:
            tmp = self.fresh("idx", ir.INT)
            self.emit(Assign(tmp, idx))
            idx = tmp
        if type(entity) is not Ident and type(entity) is not Select:
            tmp = self.fresh("arrval", DatatypeType(dt))
            self.emit(Assign(tmp, entity))
            entity = tmp
        backing = ArrayRead(Select(entity, "arr", dt), idx)
        in_range = ir.and_(
            ir.le(IntLit(0), idx), ir.lt(idx, Select(entity, "length", dt))
        )
        elem = base_ty.base
        fallback = self.default_value(elem, part_loc(elem, Loc.MEMORY if in_memory else Loc.STORAGE))
        return Ite(in_range, backing, fallback)

    def _conditional(self, e: CondExpr) -> IrExpr:
        cond = self.expr(e.cond)
        if e.loc == Loc.VALUE:
            return Ite(cond, self.expr(e.then), self.expr(e.other))
        var_ty = self.map_type(e.ty, e.loc)
        var_t = self.fresh("cond_t", var_ty)
        var_f = self.fresh("cond_f", var_ty)
        self.assign(e.ty, e.loc, var_t, e.then.loc, e.then)
        self.assign(e.ty, e.loc, var_f, e.other.loc, e.other)
        return Ite(cond, var_t, var_f)

    def _new_array(self, e: NewArrayExpr) -> IrExpr:
        ty = DynArrayType(e.elem_type)
        self.map_type(ty, Loc.MEMORY)
        return self._alloc_memory_array(ty, self.expr(e.length))

    def _struct_ctor(self, e: StructCtorExpr) -> IrExpr:
        ty = StructType(e.name)
        self.map_type(ty, Loc.MEMORY)
        sd = self.contract.struct(e.name)
        ptr = self.allocate()
        dt = self._datatype_at(ty, Loc.MEMORY)
        for member, arg in zip(sd.members, e.args):
            slot = Select(self.heap_read(ty, ptr), member.name, dt)
            self.assign(member.ty, part_loc(member.ty, Loc.MEMORY), slot, arg.loc, arg)
        return ptr

    # ------------------------------------------------------------------
    # assignment

    def assign(self, ty: SolType, loc: Loc, target: Expr | IrExpr, rloc: Loc, source: Expr | IrExpr) -> None:
        """Location-directed assignment of `source`, found at `rloc`, to
        the `ty` slot `target` at `loc`. Each operand is a resolved
        expression, which `lvalue` or `expr` translates where the
        assignment first needs it, or an IR term already translated. One
        matrix keyed on (loc, rloc) of reference types:

            loc \\ rloc  storage      memory      storage pointer
            storage     copy         deep copy   unpack
            memory      deep copy    copy        unpack, deep copy
            pointer     pack         (error)     copy

        Value types always copy. The resolver rejects copying a mapping,
        so only a storage pointer to one is ever set. Between storage and
        memory, the type matters only in the deep copy.
        """
        if loc == Loc.STORPTR and rloc != Loc.STORPTR:
            if rloc == Loc.MEMORY:
                raise IrError("memory cannot be assigned to a storage pointer")
            if not isinstance(source, Expr):
                raise IrError("cannot pack a synthesized storage value")
            self.emit(Assign(self.lvalue(target), self.pack(source)))
        elif is_value_type(ty) or loc == rloc:
            self.emit(Assign(self.lvalue(target), self.expr(source)))
        elif rloc == Loc.STORPTR:
            value = self.unpack(self.expr(source), ty)
            if loc == Loc.STORAGE:
                self.emit(Assign(self.lvalue(target), value))
            else:
                self._deep_copy(ty, loc, target, value, Loc.STORAGE)
        else:
            self._deep_copy(ty, loc, target, self.expr(source), rloc)

    def _array_bound(self, ty: SolType, length: IrExpr, unsupported: str) -> int:
        """Unroll bound for element-wise array work: the compile-time
        length (a fixed size or a literal), else --unroll with an assumed
        length bound. Without either, UnsupportedError(unsupported)."""
        if isinstance(ty, FixArrayType):
            return ty.size
        if isinstance(length, IntLit):
            return length.value
        if self.unroll is not None:
            self.emit(Assume(ir.le(length, IntLit(self.unroll))))
            self.emit(Assume(ir.le(IntLit(0), length)))
            return self.unroll
        raise UnsupportedError(unsupported)

    def _deep_copy(self, ty: SolType, dst_loc: Loc, target: Expr | IrExpr, src: IrExpr, src_loc: Loc) -> None:
        """Deep copy between storage and memory. `src` is a storage value
        or a pointer to a memory entity; a copy into memory fills a fresh
        allocation, which `target` then points to."""
        src_dt = self._datatype_at(ty, src_loc)
        dst_dt = self._datatype_at(ty, dst_loc)
        ptr = None
        if src_loc == Loc.MEMORY:
            src = self.heap_read(ty, src)
        else:
            ptr = self.allocate()
        whole, bound = None, 0
        if not isinstance(ty, StructType):
            base, length = ty.base, Select(src, "length", src_dt)
            if is_value_type(base):
                whole = Construct(dst_dt, (Select(src, "arr", src_dt), length))
            else:
                # elements are copied one by one over blank ones (null
                # pointers in memory)
                bound = self._array_bound(ty, length, _COPY_NEEDS_UNROLL.format(dst_loc.value))
                elem_ty = self.map_type(base, part_loc(base, dst_loc))
                blank = self.default_value(base, Loc.STORAGE) if dst_loc == Loc.STORAGE else IntLit(0)
                whole = Construct(dst_dt, (ConstArray(ir.INT, elem_ty, blank), length))
        dst = self.lvalue(target) if ptr is None else self.heap_read(ty, ptr)
        if whole is not None:
            self.emit(Assign(dst, whole))
        dst_parts, src_parts = self._parts(ty, dst, dst_loc, bound), self._parts(ty, src, src_loc, bound)
        for (part_ty, dst_part), (_, src_part) in zip(dst_parts, src_parts):
            self.assign(part_ty, part_loc(part_ty, dst_loc), dst_part, part_loc(part_ty, src_loc), src_part)
        if ptr is not None:
            self.emit(Assign(self.lvalue(target), ptr))

    def _parts(self, ty: SolType, entity: IrExpr, loc: Loc, bound: int) -> list[tuple[SolType, IrExpr]]:
        """(type, term) of each member of the struct `entity`, or of each
        of the first `bound` elements of the array `entity`, held at `loc`."""
        dt = self._datatype_at(ty, loc)
        if isinstance(ty, StructType):
            return [(m.ty, Select(entity, m.name, dt)) for m in self.contract.struct(ty.name).members]
        arr = Select(entity, "arr", dt)
        return [(ty.base, ArrayRead(arr, IntLit(i))) for i in range(bound)]

    # ------------------------------------------------------------------
    # statements

    def stmt(self, s) -> None:
        cls = type(s)
        if cls is AssignStmt:
            self._assign_stmt(s)
        elif cls is DeclStmt:
            self._decl_stmt(s)
        elif cls is AssertStmt:
            cond = self.expr(s.cond)
            self.asserts.append(AssertInfo(len(self.asserts), s.line, s.text))
            self.emit(Assert(cond))
        elif cls is PushStmt:
            self._push_stmt(s)
        elif cls is PopStmt:
            self._pop_stmt(s)
        elif cls is DeleteStmt:
            self._delete_stmt(s)
        else:
            raise IrError(f"unknown statement {s!r}")

    def _decl_stmt(self, s: DeclStmt) -> None:
        loc = s.loc
        var_ty = self.map_type(s.var_type, loc)
        self.program.declare(s.name, var_ty)
        if s.init is not None:
            self.assign(s.var_type, loc, Ident(s.name), s.init.loc, s.init)
        else:
            self.assign(s.var_type, loc, Ident(s.name), loc, self.default_value(s.var_type, loc))

    def _assign_stmt(self, s: AssignStmt) -> None:
        if len(s.lhs) == 1:
            lhs, rhs = s.lhs[0], s.rhs[0]
            self.assign(lhs.ty, lhs.loc, lhs, rhs.loc, rhs)
            return
        # tuple: evaluate the right side left to right (storage entities
        # evaluate to pointers), assign right to left
        temps: list[tuple[Loc, Ident]] = []
        for r in s.rhs:
            if is_value_type(r.ty):
                loc, ty = Loc.VALUE, self.map_type(r.ty, Loc.VALUE)
            elif r.loc == Loc.MEMORY:
                loc, ty = Loc.MEMORY, ir.INT
            else:
                loc, ty = Loc.STORPTR, PTR
            tmp = self.fresh("tmp", ty)
            self.emit(Assign(tmp, self.pack(r) if r.loc == Loc.STORAGE else self.expr(r)))
            temps.append((loc, tmp))
        for target, (loc, tmp) in reversed(list(zip(s.lhs, temps))):
            self.assign(target.ty, target.loc, target, loc, tmp)

    def _push_stmt(self, s: PushStmt) -> None:
        dt = self._datatype_at(s.target.ty, s.target.loc)
        entity = self._storage_base(s.target, lvalue=True)
        elem = s.target.ty.base
        length = Select(entity, "length", dt)
        slot = ArrayRead(Select(entity, "arr", dt), length)
        self.assign(elem, part_loc(elem, Loc.STORAGE), slot, s.value.loc, s.value)
        self.emit(Assign(length, ir.add(length, IntLit(1))))

    def _pop_stmt(self, s: PopStmt) -> None:
        # length shrinks; the backing slot is retained so dangling
        # storage pointers still read the removed element, while indexed
        # access (length-guarded) sees the default value
        dt = self._datatype_at(s.target.ty, s.target.loc)
        length = Select(self._storage_base(s.target, lvalue=True), "length", dt)
        self.emit(Assign(length, ir.sub(length, IntLit(1))))

    def _delete_stmt(self, s: DeleteStmt) -> None:
        # the resolver rejects deleting a storage pointer variable
        target = s.target
        default = self.default_value(target.ty, target.loc)
        self.assign(target.ty, target.loc, target, target.loc, default)

    # ------------------------------------------------------------------
    # functions

    def _assume_memory_pointer(self, ty: SolType, pointer: IrExpr) -> None:
        """Non-aliasing assumptions for memory pointers passed in: the
        pointer, and recursively every reference it contains, precedes
        all fresh allocations."""
        self.emit(Assume(ir.le(pointer, Ident(ALLOC))))
        bound = 0
        if isinstance(ty, (DynArrayType, FixArrayType)):
            if not is_reference_type(ty.base):
                return
            if isinstance(ty, FixArrayType):
                bound = ty.size
            elif self.unroll is not None:
                bound = self.unroll
                length = Select(self.heap_read(ty, pointer), "length", self._datatype_at(ty, Loc.MEMORY))
                self.emit(Assume(ir.le(length, IntLit(bound))))
            else:
                raise UnsupportedError(
                    "unsupported: memory parameter containing a dynamic array "
                    "of reference base type requires quantified non-aliasing "
                    "assumptions (use --unroll)"
                )
        for part_ty, part in self._parts(ty, self.heap_read(ty, pointer), Loc.MEMORY, bound):
            if is_reference_type(part_ty):
                self._assume_memory_pointer(part_ty, part)

    def translate_function(self, fn: Function) -> TranslatedFunction:
        for v in self.contract.state_vars:
            self.program.declare(v.name, self.map_type(v.ty, part_loc(v.ty, Loc.STORAGE)))
        for p in fn.params + fn.returns:
            self.program.declare(p.name, self.map_type(p.ty, p.loc))
        if fn.is_constructor:
            # every state variable starts at its default, assigned as is
            for v in self.contract.state_vars:
                self.emit(Assign(Ident(v.name), self.default_value(v.ty, part_loc(v.ty, Loc.STORAGE))))
        for p in fn.params:
            if p.loc == Loc.MEMORY:
                self._assume_memory_pointer(p.ty, Ident(p.name))
        for p in fn.returns:
            self.assign(p.ty, p.loc, Ident(p.name), p.loc, self.default_value(p.ty, p.loc))
        for s in fn.body:
            self.stmt(s)
        # a state variable that a parameter or return value shadows is shown
        # as `this.x`, which no identifier can spell
        shadowed = {p.name_source for p in fn.params + fn.returns}
        state = () if fn.is_constructor else self.contract.state_vars
        entry = {v.name: f"this.{v.name}" if v.name in shadowed else v.name for v in state}
        entry.update((p.name, p.name_source) for p in fn.params)
        return TranslatedFunction(fn.name, self.program, self.asserts, entry, fn.is_constructor)


@gc_paused
def translate_function(
    contract: Contract, fn: Function, unroll: int | None = None
) -> TranslatedFunction:
    return Translator(contract, unroll).translate_function(fn)

