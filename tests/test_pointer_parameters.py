"""Storage-pointer parameters, run without a solver: the translated and
SSA-converted function, evaluated by `eval_ir` with the pointer seeded to
a concrete path, must fail the same assert and leave the same storage
as the reference interpreter given that path. Every path over the
ordinals {0, 1, 2, 7} is tried, so elements that match no edge of the
storage tree are covered: at each node they take the last edge, both
when the pointer is dereferenced and when `p.ys` is re-pointed."""

from itertools import product

import pytest

from irserialize import serialize_ir
from solmem.ireval import VArray, default_value, eval_ir
from solmem.normalize import normalize_lhs
from solmem.oracle import exec_function, serialize
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.sol_ast import Loc
from solmem.ssa import to_ssa
from solmem.translate import translate_function

ORDINALS = (0, 1, 2, 7)

# `q` re-points into the entity `p` reaches; `r` is a packed path to one
# of the leaves, which must see the push exactly when `p` reaches it
REPACK_BODY = """
    function f(T storage p) {
        int[] storage q = p.ys;
        q.push(5);
        assert(p.ys.length == q.length);
        T storage r = %s;
        assert(r.ys.length == 0);
    }
}
"""

NESTED_STRUCTS = """
contract C {
    struct T { int x; int[] ys; }
    struct S { T a; T b; }
    S s1;
    S s2;
""" + REPACK_BODY % "s2.a"

ARRAY_THEN_STRUCT = """
contract C {
    struct T { int x; int[] ys; }
    struct S { T a; T b; }
    T t0;
    S[] ss;
""" + REPACK_BODY % "ss[1].b"

BOOL_MAPPING = """
contract C {
    struct T { int x; int[] ys; }
    T t0;
    mapping(bool => T) m;
""" + REPACK_BODY % "m[true]"

# no storage of type T: both pointers index the default context by the
# path's second element, and alias when it is 1
DEFAULT_CONTEXT = """
contract C {
    struct T { int x; int[] ys; }
    int n;
    function f(T storage p, T storage r) {
        r.x = 7;
        p.ys.push(5);
        p.x = p.x + 1;
        n = p.x + p.ys.length;
        assert(p.ys.length == 1);
        assert(n == 2);
    }
}
"""

CASES = {
    "nested_structs": (NESTED_STRUCTS, 2, lambda path: [path]),
    "array_then_struct": (ARRAY_THEN_STRUCT, 3, lambda path: [path]),
    "bool_mapping": (BOOL_MAPPING, 2, lambda path: [path]),
    "default_context": (DEFAULT_CONTEXT, 2, lambda path: [path, [0, 1]]),
}


@pytest.mark.parametrize("name", CASES)
def test_ireval_agrees_with_oracle_on_every_path(name):
    source, depth, args_of = CASES[name]
    contract = resolve_and_check(parse_source(source))
    fn = contract.function("f")
    ssa = to_ssa(normalize_lhs(translate_function(contract, fn).program))
    for path in product(ORDINALS, repeat=depth):
        args = args_of(list(path))
        oracle = exec_function(contract, "f", args)
        env = {p.name: VArray(0, dict(enumerate(a))) for p, a in zip(fn.params, args)}
        ran = eval_ir(ssa.program, env)
        assert ran.status != "assume-violated", path
        ir_failed = ran.failed_index if ran.status == "assert-failed" else None
        assert ir_failed == (oracle.failed.ordinal if oracle.failed else None), path
        if ir_failed is not None:
            continue
        for v in contract.state_vars:
            final = ssa.final_versions[v.name]
            if final in ran.env:
                value = ran.env[final]
            else:
                value = default_value(ssa.program.decl_type(final), ssa.program)
            ir_json = serialize_ir(contract, v.ty, Loc.STORAGE, value, ran.env)
            assert ir_json == serialize(oracle.state, v.ty, oracle.storage[v.name]), (path, v.name)
