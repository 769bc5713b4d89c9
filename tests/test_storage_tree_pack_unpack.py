"""Storage trees and pointer packing/unpacking against the worked example:

    contract C { struct T { int z; }  struct S { int x; T t; T[] ts; }
                 T t1;  S s1;  S[] ss; }

The tree for T has five leaves (t1, s1.t, s1.ts[i], ss[i].t,
ss[i].ts[i]); t1 packs to [0], s1.t to [1,0], ss[8].ts[5] to [2,8,1,5];
unpacking decodes a pointer back into the matching conditional. Over
every pinned program, every tree has the shape the encoding relies on.
"""

import time

from irgen import evaluate
from sources import POINTER_CONTRACT, POINTER_PARAMETERS, compile_source, pinned
from solmem.errors import SolmemError
from solmem.ir import Ident
from solmem.ireval import VArray, VData
from solmem.smtlib import expr_to_sexpr
from solmem.sol_ast import INT, DynArrayType, FixArrayType, MappingType, StructType, is_reference_type
from solmem.storage_tree import TreeNode, build_storage_tree, default_context_tree
from solmem.translate import Translator


def leaf_paths(root: TreeNode) -> list[list[str]]:
    """Readable root-to-leaf paths; index edges read `[i]`."""
    out: list[list[str]] = []

    def walk(node: TreeNode, prefix: list[str]) -> None:
        if not node.edges:
            out.append(prefix)
            return
        for e in node.edges:
            walk(e.target, prefix + [e.label if e.label is not None else "[i]"])

    if root.edges:
        walk(root, [])
    return out


def pointer_contract(extra: str = ""):
    src = POINTER_CONTRACT
    if extra:
        src = src.replace("S[] ss;", f"S[] ss;\n    {extra}")
    return compile_source(src)


def eval_pack(tr: Translator, expr) -> list[int]:
    arr, _ = evaluate(tr, tr.pack(expr))
    assert isinstance(arr, VArray)
    depth = max(arr.entries, default=-1) + 1
    return [arr.read(i) for i in range(depth)]


def test_tree_for_t_has_five_leaves():
    c = pointer_contract()
    tree = build_storage_tree(c, StructType("T"))
    assert len(leaf_paths(tree)) == 5
    assert leaf_paths(tree) == [
        ["t1"],
        ["s1", "t"],
        ["s1", "ts", "[i]"],
        ["ss", "[i]", "t"],
        ["ss", "[i]", "ts", "[i]"],
    ]
    # edges are numbered consecutively after filtering
    assert [(e.label, e.ordinal) for e in tree.edges] == [
        ("t1", 0),
        ("s1", 1),
        ("ss", 2),
    ]


def test_tree_for_s_filters_and_renumbers():
    c = pointer_contract()
    tree = build_storage_tree(c, StructType("S"))
    assert leaf_paths(tree) == [["s1"], ["ss", "[i]"]]
    assert [(e.label, e.ordinal) for e in tree.edges] == [("s1", 0), ("ss", 1)]


def test_empty_tree_is_legal():
    c = compile_source("contract C { struct T { int z; } int x; }")
    tree = build_storage_tree(c, StructType("T"))
    assert tree.ty is None and not tree.edges
    assert len(leaf_paths(tree)) == 0


def test_default_context_tree_shape():
    tree = default_context_tree(StructType("T"))
    assert len(leaf_paths(tree)) == 1
    (edge,) = tree.edges
    assert (edge.label, edge.ordinal, edge.target.ty) == ("defaultctx$T", 0, MappingType(INT, StructType("T")))
    assert edge.target.edges[0].target == TreeNode(StructType("T"))


def test_pack_goldens():
    """The worked example's three pointers and the conditional that
    unpacks a pointer to T, built within 1 s (acceptance criterion 1)."""
    start = time.monotonic()
    c = pointer_contract(
        "function probe() { T storage a = t1; T storage b = s1.t; T storage d = ss[8].ts[5]; }"
    )
    tr = Translator(c)
    decls = c.function("probe").body
    assert eval_pack(tr, decls[0].init) == [0]
    assert eval_pack(tr, decls[1].init) == [1, 0]
    assert eval_pack(tr, decls[2].init) == [2, 8, 1, 5]

    text = expr_to_sexpr(tr.unpack(Ident("ptr"), StructType("T")))
    s1_ts = "(select (StorArr$T.arr (StorStruct$S.ts s1)) (select ptr 2))"
    ss_i = "(select (StorArr$S.arr ss) (select ptr 1))"
    ss_i_ts = f"(select (StorArr$T.arr (StorStruct$S.ts {ss_i})) (select ptr 3))"
    assert text == (
        "(ite (= (select ptr 0) 0) t1 "
        "(ite (= (select ptr 0) 1) "
        f"(ite (= (select ptr 1) 0) (StorStruct$S.t s1) {s1_ts}) "
        f"(ite (= (select ptr 2) 0) (StorStruct$S.t {ss_i}) {ss_i_ts})))"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_pack_symbolic_index():
    c = pointer_contract("function probe(int i) { T storage a = ss[i].t; }")
    tr = Translator(c)
    packed = tr.pack(c.function("probe").body[0].init)
    out, _ = evaluate(tr, packed, {c.function("probe").params[0].name: 8})
    assert [out.read(k) for k in range(3)] == [2, 8, 0]


def test_unpack_single_leaf_has_no_conditional():
    c = compile_source("contract C { struct T { int z; } T t; }")
    tr = Translator(c)
    assert expr_to_sexpr(tr.unpack(Ident("ptr"), StructType("T"))) == "t"


def test_unpack_of_packed_path_evaluates_to_entity():
    # pointer [2, 8, 1, 5] decodes exactly to ss[8].ts[5]
    c = pointer_contract()
    tr = Translator(c)
    unpacked = tr.unpack(Ident("ptr"), StructType("T"))

    t_zero = VData("StorStruct$T", (0,))
    marked = VData("StorStruct$T", (55,))
    empty_ts = VData("StorArr$T", (VArray(t_zero), 0))
    s_zero = VData("StorStruct$S", (0, t_zero, empty_ts))
    # build ss with ss[8].ts[5].z == 55
    ts = VData("StorArr$T", (VArray(t_zero, {5: marked}), 6))
    s_at_8 = VData("StorStruct$S", (0, t_zero, ts))
    env = {
        "ptr": VArray(0, {0: 2, 1: 8, 2: 1, 3: 5}),
        "ss": VData("StorArr$S", (VArray(s_zero, {8: s_at_8}), 9)),
        "t1": t_zero,
        "s1": s_zero,
    }
    assert evaluate(tr, unpacked, env)[0] == marked


def test_mapping_tree_and_bool_keys():
    src = """
contract C {
    struct R { int v; }
    mapping(bool => R) flags;
    function probe() { R storage p = flags[true]; }
}
"""
    c = compile_source(src)
    tr = Translator(c)
    expr = c.function("probe").body[0].init
    assert eval_pack(tr, expr) == [0, 1]  # true encodes as 1
    text = expr_to_sexpr(tr.unpack(Ident("ptr"), StructType("R")))
    assert text == "(select flags (distinct (select ptr 1) 0))"


def test_repack_through_pointer():
    c = pointer_contract("function probe() { S storage p = ss[3]; T storage q = p.t; }")
    tr = Translator(c)
    packed = tr.pack(c.function("probe").body[1].init)
    # the pointer p targets tree(S); re-encoding p.t in tree(T) must
    # branch on whether p denotes s1 ([0]) or ss[i] ([1, i])
    p_name = c.function("probe").body[0].name
    # p = [1, 3] in tree(S) coordinates (ss is edge 1 there)
    out, _ = evaluate(tr, packed, {p_name: VArray(0, {0: 1, 1: 3})})
    assert [out.read(k) for k in range(3)] == [2, 3, 0]  # ss[3].t in tree(T)
    out, _ = evaluate(tr, packed, {p_name: VArray(0, {0: 0})})  # p = s1
    assert [out.read(k) for k in range(2)] == [1, 0]  # s1.t in tree(T)


def held_types(contract):
    """Every reference type the state variables and the structs hold."""
    seen = {}

    def walk(ty):
        if not is_reference_type(ty) or ty in seen:
            return
        seen[ty] = None
        if isinstance(ty, StructType):
            for m in contract.struct(ty.name).members:
                walk(m.ty)
        else:
            walk(ty.value if isinstance(ty, MappingType) else ty.base)

    for ty in [v.ty for v in contract.state_vars] + [StructType(sd.name) for sd in contract.structs]:
        walk(ty)
    return list(seen)


def shape_faults(node: TreeNode, target) -> list[str]:
    """How the tree below `node` breaks the encoding's rules: edges of the
    root and struct nodes are labelled and numbered 0, 1, ... in order;
    array and mapping nodes have exactly one unlabelled edge; a leaf is an
    entity of the target type."""
    if not node.edges:
        return [] if node.ty == target else [f"leaf of type {node.ty}"]
    if isinstance(node.ty, (DynArrayType, FixArrayType, MappingType)):
        faults = [] if [e.label for e in node.edges] == [None] else [f"{node.ty} edges {node.edges}"]
    elif node.ty is None or isinstance(node.ty, StructType):
        labelled = [e.label is not None for e in node.edges]
        ordinals = [e.ordinal for e in node.edges]
        faults = [] if all(labelled) and ordinals == list(range(len(ordinals))) else [f"{node.ty} edges {node.edges}"]
    else:
        faults = [f"inner node of type {node.ty}"]
    return faults + [f for e in node.edges for f in shape_faults(e.target, target)]


def test_every_tree_of_the_pinned_programs_has_the_encodings_shape():
    """The state-variable and default-context trees of every type a
    contract holds, and every tree the translator builds for a function,
    default contexts included, over the corpus, the shared test sources,
    fuzz seeds 0-49 and the pointer-parameter cases."""
    checked = 0
    for name, source in [*pinned(), *((name, source) for name, (source, _) in POINTER_PARAMETERS.items())]:
        try:
            contract = compile_source(source)
        except SolmemError:
            continue
        trees = [(ty, build_storage_tree(contract, ty)) for ty in held_types(contract)]
        trees += [(ty, default_context_tree(ty)) for ty in held_types(contract)]
        for fn in contract.all_functions():
            tr = Translator(contract)
            try:
                tr.translate_function(fn)
            except SolmemError:
                pass
            trees += tr.trees.items()
        for ty, root in trees:
            # a root without edges is the tree of a type the contract does not store
            assert root.ty is None, (name, ty)
            assert not root.edges or shape_faults(root, ty) == [], (name, ty)
            checked += bool(root.edges)
    assert checked > 800
