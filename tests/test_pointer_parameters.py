"""Storage-pointer parameters, run without a solver: the translated and
SSA-converted function, evaluated by `eval_ir` with the pointer seeded to
a concrete path, must fail the same assert and leave the same storage
as the reference interpreter given the access path that path encodes
(`irserialize.differential`).
Every access path over the contract's storage is tried, with the index
values {-1, 0, 1, 2}. Only the IR side sees the encoding: each path is
encoded with the storage tree the translator built for the function.

An encoded path can also hold an element that matches no edge, which no
access path spells. At a contract or struct node such an element takes
the node's last edge, both when the pointer is dereferenced and when
`p.ys` is re-pointed; that is checked on the IR alone."""

import pytest

from irgen import evaluate
from irserialize import differential
from sources import ARRAY_THEN_STRUCT, POINTER_PARAMETERS, compile_source
from solmem.ir import Ident
from solmem.ireval import VArray, eval_ir, values_equal
from solmem.sol_ast import StructType
from solmem.translate import Translator, translate_function
from solmem.verify import ssa_form

INDEXES = (-1, 0, 1, 2)


def pointer_tree(contract, fn, ty):
    """The storage tree the translator uses in `fn` for pointers to `ty`."""
    tr = Translator(contract)
    tr.translate_function(fn)
    return tr.tree_for(ty)


def access_paths(node):
    """Every root-to-leaf access path below `node`: an edge label at the
    root or a struct node, each of INDEXES at an array or mapping node."""
    if not node.edges:
        yield []
        return
    for edge in node.edges:
        for key in INDEXES if edge.label is None else (edge.label,):
            for rest in access_paths(edge.target):
                yield [key] + rest


def encode(node, path) -> VArray:
    """An access path as the translator spells it: the edge ordinal at a
    label, the index value itself at an index."""
    encoded = {}
    for depth, key in enumerate(path):
        edge = node.edges[0] if node.edges[0].label is None else next(e for e in node.edges if e.label == key)
        encoded[depth] = key if edge.label is None else edge.ordinal
        node = edge.target
    assert not node.edges
    return VArray(0, encoded)


def test_access_paths_cover_every_leaf():
    contract = compile_source(ARRAY_THEN_STRUCT)
    tree = pointer_tree(contract, contract.function("f"), StructType("T"))
    paths = list(access_paths(tree))
    assert paths[:3] == [["t0"], ["ss", -1, "a"], ["ss", -1, "b"]]
    assert len(paths) == 1 + 2 * len(INDEXES)
    assert encode(tree, ["ss", 2, "b"]) == VArray(0, {0: 1, 1: 2, 2: 1})


@pytest.mark.parametrize("name", POINTER_PARAMETERS)
def test_ireval_agrees_with_oracle_on_every_path(name):
    source, args_of = POINTER_PARAMETERS[name]
    contract = compile_source(source)
    fn = contract.function("f")
    trees = [pointer_tree(contract, fn, p.ty) for p in fn.params]
    for path in access_paths(trees[0]):
        args = args_of(path)
        differential(contract, fn, args, env={p.name: encode(tree, a) for p, tree, a in zip(fn.params, trees, args)})


# three state variables of three members each, so that the last edge
# differs from the first at both kinds of node; every `x` is distinct
LAST_EDGE = """
contract C {
    struct T { int x; int[] ys; }
    struct S { T a; T b; T c; }
    S s1;
    S s2;
    S s3;
    constructor() {
%s    }
    function f(T storage p) {
        int[] storage q = p.ys;
    }
}
""" % "".join(f"        s{i}.{m}.x = {10 * i + j};\n" for i in (1, 2, 3) for j, m in enumerate("abc"))

# (pointer with an element that matches no edge, the same pointer at the
# node's last edge)
UNMATCHED = {
    "contract": ((3, 0), (2, 0)),
    "contract-negative": ((-1, 1), (2, 1)),
    "struct": ((0, 3), (0, 2)),
    "struct-negative": ((1, -1), (1, 2)),
    "both": ((7, 7), (2, 2)),
}


@pytest.mark.parametrize("unmatched, last", UNMATCHED.values(), ids=UNMATCHED)
def test_an_element_matching_no_edge_takes_the_last_edge(unmatched, last):
    contract = compile_source(LAST_EDGE)
    ctor = ssa_form(translate_function(contract, contract.constructor).program)
    built = eval_ir(ctor.program)
    assert built.status == "ok"
    state = {v.name: built.env[ctor.final_versions[v.name]] for v in contract.state_vars}
    fn = contract.function("f")
    p = Ident(fn.params[0].name)
    tr = Translator(contract)
    read = tr.unpack(p, StructType("T"))  # a dereference of `p`
    repacked = tr.pack(fn.body[0].init)  # `p.ys`, re-pointed into the `int[]` tree
    # the first edge where `unmatched` matches none: a different leaf
    first = tuple(0 if u != l else l for u, l in zip(unmatched, last))
    for term in (read, repacked):
        got = [evaluate(tr, term, {**state, p.name: VArray(0, dict(enumerate(path)))})[0] for path in (unmatched, last, first)]
        assert values_equal(got[0], got[1])
        assert not values_equal(got[1], got[2])
