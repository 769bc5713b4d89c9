"""Per-type storage trees.

The persistent data of a contract forms a finite-depth tree of values.
For a target reference type T, the storage tree keeps exactly the paths
from the contract root to entities of type T: the root and struct nodes
have one labeled, consecutively numbered edge per state variable or
member that leads to T (in declaration order, numbered after filtering);
array and mapping nodes have a single index edge. Storage pointers are
arrays of integers spelling a root-to-leaf path; packing turns a storage
lvalue into such a path, unpacking turns a path back into a conditional
over the tree's leaves.

A root without edges means the contract declares no storage of type T;
pointers to T are then resolved through a synthetic "default context"
root edge, an unconstrained array indexed by the path's second element.
"""

from __future__ import annotations

from .records import Record
from .sol_ast import (
    INT,
    Contract,
    DynArrayType,
    FixArrayType,
    MappingType,
    SolType,
    StructType,
    default_context_name,
    is_reference_type,
)


class TreeNode(Record):
    """One node of a storage tree: the root (`ty` None), an entity of type
    `ty` on the paths to the target, or a leaf, an entity of the target
    type, which has no edges. The root and struct nodes carry labeled,
    ordinal-numbered edges; array and mapping nodes carry exactly one
    unlabeled index edge."""

    __slots__ = ("ty", "edges")

    def __init__(self, ty: SolType | None, edges: list[TreeEdge] | None = None):
        self.ty = ty
        self.edges = [] if edges is None else edges


class TreeEdge(Record):
    __slots__ = ("label", "ordinal", "target")

    def __init__(self, label: str | None, ordinal: int, target: TreeNode):
        self.label = label  # state var / member name; None for index edges
        self.ordinal = ordinal  # position among this node's kept edges
        self.target = target


def build_storage_tree(contract: Contract, target: SolType) -> TreeNode:
    """Root of the tree of all paths from the contract root to entities
    of `target`.

    Edges of the root and of struct nodes are numbered consecutively over
    the kept (filtering-surviving) children, in declaration order. A root
    without edges is legal and signals default-context mode.
    """
    if not is_reference_type(target):
        raise ValueError(f"storage trees exist only for reference types, got {target}")

    root = TreeNode(None)
    for v in contract.state_vars:
        sub = subtree(contract, target, v.ty)
        if sub is not None:
            root.edges.append(TreeEdge(v.name, len(root.edges), sub))
    return root


def subtree(contract: Contract, target: SolType, ty: SolType) -> TreeNode | None:
    """The subtree of paths from an entity of type `ty` to entities of
    `target`, or None when there are none."""
    if ty == target:
        return TreeNode(ty)
    if isinstance(ty, StructType):
        sd = contract.struct(ty.name)
        if sd is None:
            raise ValueError(f"unknown struct {ty.name}")
        node = TreeNode(ty)
        for m in sd.members:
            sub = subtree(contract, target, m.ty)
            if sub is not None:
                node.edges.append(TreeEdge(m.name, len(node.edges), sub))
        return node if node.edges else None
    if isinstance(ty, (DynArrayType, FixArrayType)):
        base = ty.base
    elif isinstance(ty, MappingType):
        base = ty.value
    else:
        return None
    sub = subtree(contract, target, base)
    return None if sub is None else TreeNode(ty, [TreeEdge(None, 0, sub)])


def add_default_context(root: TreeNode, context: SolType, sub: TreeNode) -> None:
    """Give `root` an edge into the default context of `context`
    entities: a plain int-indexed array of them, so the index step reads
    the context directly (no length datatype), each the subtree `sub`."""
    ctx = TreeNode(MappingType(INT, context), [TreeEdge(None, 0, sub)])
    root.edges.append(TreeEdge(default_context_name(context), len(root.edges), ctx))


def default_context_tree(target: SolType) -> TreeNode:
    """Synthetic tree treating the default context of `target` as the
    only state variable."""
    root = TreeNode(None)
    add_default_context(root, target, TreeNode(target))
    return root
