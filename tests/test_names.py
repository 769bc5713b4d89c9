"""The names the translator invents, and what they keep apart.

Every datatype, heap, default context and the allocation counter has a
`$` in its name, which no source identifier has, so no source name is
reserved. `mangle` spells each type apart, except fixed and dynamic
arrays of one base, which share an encoding: two types never share a
datatype, a heap or a default context. The three programs below made
distinct types share one at an earlier revision.
"""

import json
from itertools import combinations

import pytest

import sources
from irserialize import differential
from irsorts import check_program
from solmem.cli import main
from solmem.sol_ast import (
    ADDRESS,
    BOOL,
    INT,
    UINT,
    DeclStmt,
    DynArrayType,
    FixArrayType,
    MappingType,
    SolType,
    StructType,
    default_context_name,
)
from solmem.solver import SolverVerdict
from solmem.translate import _names, translate_function
from solmem.verify import ssa_form, verify_translated

# `int[][]` and `int_arr[]` both stored their datatype as `StorArr_int_arr`
STRUCT_NAMED_LIKE_AN_ARRAY = """
contract C {
    struct int_arr { int x; }
    int[][] a;
    int_arr[] b;
    constructor() {
        int[] memory m = new int[](2);
        m[1] = 4;
        a.push(m);
        b.push(int_arr(3));
        assert(a[0][1] == 4);
        assert(b[0].x == 3);
        assert(a.length == 1 && b.length == 1);
    }
}
"""

# both arrays stored their datatype as `StorArr_map_int_int_arr`
MAPPING_ARRAYS = """
contract C {
    mapping(int => int[])[] a;
    mapping(int => int)[][] b;
    constructor() {
        assert(a.length == 0);
        assert(b.length == 0);
    }
    function f(mapping(int => int[]) storage p) {
        p[1].push(3);
        assert(p[1][0] == 3);
    }
}
"""

# neither type is stored, and both default contexts were `defaultctx_int_arr`
DEFAULT_CONTEXTS = """
contract C {
    struct int_arr { int x; }
    function f(int_arr storage p, int[] storage q) {
        assert(p.x == q.length);
    }
}
"""

COLLISIONS = {
    "struct_named_like_an_array": STRUCT_NAMED_LIKE_AN_ARRAY,
    "mapping_arrays": MAPPING_ARRAYS,
    "default_contexts": DEFAULT_CONTEXTS,
}

# structs named like the old spellings of compound types, nested arrays,
# mappings as array bases, and pointers to types no state variable holds
ZOO = """
contract Zoo {
    struct arr { int x; }
    struct map { int y; }
    struct int_arr { int z; }
    struct map_int_int { bool w; }
    int[][] a;
    int[2][] a2;
    int_arr[] b;
    arr[] c;
    map[2] d;
    map_int_int[] e;
    mapping(int => int[])[] f;
    mapping(int => int)[][] g;
    mapping(int => map_int_int) h;
    constructor() {
        b.push(int_arr(1));
        c.push(arr(2));
        d[1].y = 3;
        e.push(map_int_int(true));
        h[4].w = true;
        int[] memory m = new int[](1);
        a.push(m);
        assert(b[0].z == 1 && c[0].x == 2 && d[1].y == 3 && e[0].w && h[4].w);
    }
    function stored(mapping(int => int[]) storage p, int[][] storage q, arr storage r) {
        p[1].push(3);
        q.push(p[1]);
        r.x = 5;
        assert(p[1][0] == 3 && r.x == 5);
    }
    function unstored(mapping(int => bool) storage p, bool[][] storage q, bool[] storage r) {
        p[1] = true;
        r.push(true);
        assert(p[1] && r[r.length - 1] && q.length == q.length);
    }
}
"""


@pytest.mark.parametrize("source", [*COLLISIONS.values(), ZOO], ids=[*COLLISIONS, "zoo"])
def test_every_function_is_well_sorted(source):
    contract = sources.compile_source(source)
    for fn in contract.all_functions():
        check_program(ssa_form(translate_function(contract, fn).program).program)


@pytest.mark.parametrize("name", ["struct_named_like_an_array", "mapping_arrays"])
def test_constructor_agrees_with_the_oracle(name):
    contract = sources.compile_source(COLLISIONS[name])
    oracle, _, _ = differential(contract)
    assert oracle.failed is None


def test_distinct_default_contexts_run_and_verify(tmp_path, capsys):
    f = tmp_path / "t.sol"
    f.write_text(DEFAULT_CONTEXTS)
    assert main(["run", str(f), "--entry", "f", "--args", '[["defaultctx$int_arr", 0], ["defaultctx$int*", 0]]']) == 0
    assert json.loads(capsys.readouterr().out)["asserts"] == [{"index": 0, "line": 5, "passed": True}]
    proc = sources.run_cli("verify", str(f), PATH="")  # no solver
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "assert((p.x == q.length)): error no SMT solver found" in proc.stdout


# a parameter shadows state `x`, and a return value state `z`
SHADOWING = """
contract C {
    int x;
    int z;
    constructor(int x) { z = x; assert(z == 1); }
    function f(int x) returns (int z) { int y = x; assert(y == 1); }
}
"""


def test_counterexample_models_list_source_names_only(monkeypatch):
    """A solver model names every declaration; the report keeps the entry
    state by source name: the parameters, and outside a constructor the
    state variables, as `this.x` where a parameter or return value
    shadows one. Locals, return values, the allocation counter, heaps,
    default contexts and SSA versions are left out."""
    state = {name: name for name in ("a", "a2", "b", "c", "d", "e", "f", "g", "h")}
    expected = {
        ZOO: {
            "constructor": {},
            "stored": {**state, "p": "p", "q": "q", "r": "r"},
            "unstored": {**state, "p": "p~2", "q": "q~2", "r": "r~2"},
        },
        SHADOWING: {"constructor": {"x": "x~2"}, "f": {"this.x": "x", "this.z": "z", "x": "x~3"}},
    }
    for source, entries in expected.items():
        contract = sources.compile_source(source)
        for fn in contract.all_functions():
            tf = translate_function(contract, fn)
            ssa = ssa_form(tf.program).program
            # the solver gives each declaration its own name as its value
            model = {name: name for name in ssa.decls}
            monkeypatch.setattr("solmem.verify.query", lambda *_: SolverVerdict("sat", model))
            assert [a.model for a in verify_translated(tf).asserts] == [entries[fn.name]], fn.name


def source_names(contract) -> set[str]:
    """The resolved names of a contract's state variables, parameters,
    returns and locals."""
    names = {v.name for v in contract.state_vars}
    for fn in contract.all_functions():
        names |= {p.name for p in fn.params + fn.returns}
        names |= {s.name for s in fn.body if isinstance(s, DeclStmt)}
    return names


def test_every_declared_name_is_a_source_name_or_invented():
    """Over the translate-golden programs (corpus, shared sources, the
    assignment matrix, fuzz seeds 0-49 and the stress constructors): a
    name the SSA program declares that is no resolved source name has a
    `$` (invented by the translator) or a `!` (an SSA version)."""
    checked = 0
    for name, source in sources.pinned():
        for unroll in (None, 2):
            for contract, fn, program in sources.translated(source, unroll):
                taken = source_names(contract)
                stray = [d for d in program.decls if d not in taken and "$" not in d and "!" not in d]
                assert stray == [], (name, fn.name, unroll)
                assert all("$" in d for d in program.datatypes), (name, fn.name, unroll)
                checked += 1
    assert checked == 200


def _arrays_of(ty: SolType) -> list[SolType]:
    return [DynArrayType(ty), FixArrayType(ty, 2)]


def zoo_types() -> list[SolType]:
    structs = [StructType(n) for n in ("arr", "map", "int_arr", "map_int_int")]
    values = [INT, UINT, BOOL, ADDRESS]
    arrays = [a for t in values + structs for a in _arrays_of(t)]
    nested = [a for t in arrays for a in _arrays_of(t)]
    mappings = [MappingType(k, v) for k in (INT, BOOL) for v in (INT, StructType("map"), *arrays[:2])]
    mappings += [MappingType(INT, m) for m in mappings[:2]]
    return structs + arrays + nested + mappings + [a for m in mappings for a in _arrays_of(m)]


def _collapse(ty: SolType) -> SolType:
    """`ty` with every fixed-size array made dynamic: the types that
    share an encoding share a collapse."""
    if isinstance(ty, (DynArrayType, FixArrayType)):
        return DynArrayType(_collapse(ty.base))
    if isinstance(ty, MappingType):
        return MappingType(ty.key, _collapse(ty.value))
    return ty


def test_names_of_distinct_types_are_distinct():
    """Two datatypes, heaps or default contexts share a name exactly when
    they are of one kind and their types differ at most in array sizes."""
    named = []  # (kind, collapsed type, name)
    for ty in zoo_types():
        if not isinstance(ty, MappingType):
            named += [(kind, _collapse(ty), n) for kind, n in zip(("stor", "mem", "heap"), _names(ty))]
        named.append(("context", _collapse(ty), default_context_name(ty)))
    assert len(named) == 298
    for (k1, t1, n1), (k2, t2, n2) in combinations(named, 2):
        assert (n1 == n2) == (k1 == k2 and t1 == t2), (n1, n2)
    for _, _, n in named:
        assert "$" in n and not n.startswith(("@", ".")), n
        assert not any(c in n for c in "!~."), n
