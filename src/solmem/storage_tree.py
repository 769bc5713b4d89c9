"""Per-type storage trees.

The persistent data of a contract forms a finite-depth tree of values.
For a target reference type T, the storage tree keeps exactly the paths
from the contract root to entities of type T: contract and struct nodes
have one labeled, consecutively numbered edge per state variable or
member that leads to T (in declaration order, numbered after filtering);
array and mapping nodes have a single index edge. Storage pointers are
arrays of integers spelling a root-to-leaf path; packing turns a storage
lvalue into such a path, unpacking turns a path back into a conditional
over the tree's leaves.

A tree with no leaves means the contract declares no storage of type T;
pointers to T are then resolved through a synthetic "default context"
root, an unconstrained array indexed by the path's second element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sol_ast import (
    Contract,
    DynArrayType,
    FixArrayType,
    MappingType,
    SolType,
    StructType,
    is_reference_type,
    mangle,
)


@dataclass
class TreeNode:
    """One storage entity shape along paths to the target type.

    kind: "contract" | "struct" | "array" | "mapping" | "leaf".
    Non-leaf nodes of kind contract/struct carry labeled, ordinal-numbered
    edges; array/mapping nodes carry exactly one unlabeled index edge.
    """

    kind: str
    ty: SolType | None = None
    edges: list["TreeEdge"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.kind == "leaf"


@dataclass
class TreeEdge:
    label: str | None  # state var / member name; None for index edges
    ordinal: int  # position among this node's kept edges
    target: TreeNode


@dataclass
class StorageTree:
    target: SolType
    root: TreeNode
    default_context: bool = False  # root edge is a synthetic array variable

    @property
    def is_empty(self) -> bool:
        return not self.root.edges


def default_context_name(target: SolType) -> str:
    return f"defaultctx${mangle(target)}"


def build_storage_tree(contract: Contract, target: SolType) -> StorageTree:
    """Tree of all paths from the contract root to entities of `target`.

    Edges of contract/struct nodes are numbered consecutively over the
    kept (filtering-surviving) children, in declaration order. An empty
    tree is legal and signals default-context mode.
    """
    if not is_reference_type(target):
        raise ValueError(f"storage trees exist only for reference types, got {target}")

    def build(ty: SolType) -> TreeNode | None:
        if ty == target:
            return TreeNode("leaf", ty)
        if isinstance(ty, StructType):
            sd = contract.struct(ty.name)
            if sd is None:
                raise ValueError(f"unknown struct {ty.name}")
            node = TreeNode("struct", ty)
            for m in sd.members:
                sub = build(m.ty)
                if sub is not None:
                    node.edges.append(TreeEdge(m.name, len(node.edges), sub))
            return node if node.edges else None
        if isinstance(ty, (DynArrayType, FixArrayType)):
            sub = build(ty.base)
            if sub is None:
                return None
            node = TreeNode("array", ty)
            node.edges.append(TreeEdge(None, 0, sub))
            return node
        if isinstance(ty, MappingType):
            sub = build(ty.value)
            if sub is None:
                return None
            node = TreeNode("mapping", ty)
            node.edges.append(TreeEdge(None, 0, sub))
            return node
        return None

    root = TreeNode("contract")
    for v in contract.state_vars:
        sub = build(v.ty)
        if sub is not None:
            root.edges.append(TreeEdge(v.name, len(root.edges), sub))
    return StorageTree(target, root)


def default_context_tree(target: SolType) -> StorageTree:
    """Synthetic tree treating the default context as the only state
    variable: a plain int-indexed array of `target` entities, so the
    index step reads the context directly (no length datatype)."""
    from .sol_ast import INT

    leaf = TreeNode("leaf", target)
    ctx = TreeNode("mapping", MappingType(INT, target))
    ctx.edges.append(TreeEdge(None, 0, leaf))
    root = TreeNode("contract")
    root.edges.append(TreeEdge(default_context_name(target), 0, ctx))
    return StorageTree(target, root, default_context=True)
