"""Reference interpreter: worked examples, determinism, storage purity."""

import json

import pytest

from sources import DANGLING_POINTER, DATA_STORAGE, TUPLE_SWAP, compile_source, corpus, fuzz
from solmem import oracle
from solmem.oracle import (
    Array,
    Mapping,
    MemRef,
    Struct,
    exec_function,
    run_constructor,
    serialize,
    serialize_storage,
)


def test_primitive_tuple_swap():
    c = compile_source(TUPLE_SWAP)
    result = exec_function(c, "primitiveAssign")
    assert serialize_storage(result) == {
        "s1": {"x": 3},
        "s2": {"x": 1},
        "s3": {"x": 2},
    }


def test_storage_tuple_swap_reads_through_pointers():
    c = compile_source(TUPLE_SWAP)
    result = exec_function(c, "storageAssign")
    assert serialize_storage(result) == {
        "s1": {"x": 1},
        "s2": {"x": 1},
        "s3": {"x": 1},
    }


def test_dangling_pointer_semantics():
    c = compile_source(DANGLING_POINTER)
    result = run_constructor(c)
    assert [a.passed for a in result.asserts] == [True, False]
    assert serialize_storage(result) == {"a": {"length": 0, "elems": []}}


def test_data_storage_append_isset_get():
    c = compile_source(DATA_STORAGE)
    state = run_constructor(c).state
    state = exec_function(c, "append", [7, 41], initial=state).state
    result = exec_function(c, "append", [7, 42], initial=state)
    assert exec_function(c, "isset", [["records", 7]], initial=result.state).returns["s"] is True
    assert exec_function(c, "isset", [["records", 99]], initial=result.state).returns["s"] is False
    got = exec_function(c, "get", [7], initial=result.state)
    ret_ty = c.function("get").returns[0].ty
    assert serialize(got.state, ret_ty, got.returns["ret"]) == {
        "length": 2,
        "elems": [41, 42],
    }


def test_constructor_defaults():
    c = compile_source(
        "contract C { struct S { int x; bool b; } int x; S s; int[2] a; mapping(int => int) m; }"
    )
    result = run_constructor(c)
    assert serialize_storage(result) == {
        "x": 0,
        "s": {"x": 0, "b": False},
        "a": {"length": 2, "elems": [0, 0]},
        "m": {"default": 0, "entries": {}},
    }


def test_determinism():
    c = compile_source(TUPLE_SWAP)
    a = json.dumps(serialize_storage(exec_function(c, "storageAssign")), sort_keys=True)
    b = json.dumps(serialize_storage(exec_function(c, "storageAssign")), sort_keys=True)
    assert a == b


def test_storage_purity_no_heap_references():
    src = """
contract C {
    struct S { int x; int[] data; }
    S s;
    constructor() {
        S memory m = S(4, new int[](2));
        s = m;
    }
}
"""
    result = run_constructor(compile_source(src))

    def scan(v):
        assert not isinstance(v, MemRef)
        if type(v) is Struct:
            for m in v.members.values():
                scan(m)
        elif type(v) in (Array, Mapping):
            for e in v.slots.values():
                scan(e)

    for value in result.state.storage.values():
        scan(value)
    assert json.dumps(serialize_storage(result), sort_keys=True)


def test_memory_aliasing_inside_heap():
    src = """
contract C {
    struct T { int z; }
    struct S { int x; T t; }
    int probe;
    constructor() {
        T memory shared = T(1);
        S memory a = S(10, shared);
        S memory b = S(20, shared);
        a.t.z = 5;
        probe = b.t.z;
    }
}
"""
    result = run_constructor(compile_source(src))
    assert result.state.storage["probe"] == 5


def test_delete_resets_memory_pointer_to_fresh_default():
    src = """
contract C {
    int probe;
    constructor() {
        int[] memory m = new int[](2);
        m[0] = 9;
        delete m;
        probe = m.length;
    }
}
"""
    result = run_constructor(compile_source(src))
    assert result.state.storage["probe"] == 0


def test_out_of_bounds_reads_default_and_negative_pop():
    src = """
contract C {
    int[] a;
    int probe;
    constructor() {
        a.push(3);
        a.pop();
        a.pop();
        probe = a[0];
    }
}
"""
    result = run_constructor(compile_source(src))
    machine = result.state
    assert machine.storage["a"].length == -1
    assert result.state.storage["probe"] == 0


def test_memory_arrays_store_every_in_range_slot():
    """Only a storage slot can be unwritten: a new memory array and a
    default one hold their own element in every in-range slot."""
    src = """
contract C {
    struct T { int z; }
    int probe;
    constructor() {
        T[] memory m = new T[](2);
        T[2] memory f;
        m[1].z = 5;
        f[0].z = 6;
        probe = m[1].z + f[0].z;
    }
}
"""
    machine = run_constructor(compile_source(src)).state
    assert machine.storage["probe"] == 11
    arrays = [obj for obj in machine.heap.values() if type(obj) is Array]
    assert [sorted(a.slots) for a in arrays] == [[0, 1], [0, 1]]
    assert all(type(v) is MemRef for a in arrays for v in a.slots.values())


def test_mapping_values_not_tracked_for_existence():
    c = compile_source(DATA_STORAGE)
    result = exec_function(c, "get", [123])
    ret_ty = c.function("get").returns[0].ty
    assert serialize(result.state, ret_ty, result.returns["ret"]) == {
        "length": 0,
        "elems": [],
    }


def test_nested_storage_pointer_conditional():
    src = """
contract C {
    struct S { int x; }
    S a; S b; S c;
    constructor() {
        bool t = true;
        S storage p = t ? (t ? a : b) : c;
        p.x = 5;
        assert(a.x == 5);
    }
}
"""
    result = run_constructor(compile_source(src))
    assert [a.passed for a in result.asserts] == [True]
    assert serialize_storage(result) == {"a": {"x": 5}, "b": {"x": 0}, "c": {"x": 0}}


def test_pointers_are_paths_without_storage_trees(monkeypatch):
    """Only binding a pointer argument builds a storage tree, to check
    its access path: constructor-only corpus files and fuzz programs, whose pointers all
    come from packing, run with the tree builders removed."""
    texts = [*corpus().values(), *(fuzz(seed) for seed in range(20))]
    contracts = [c for c in map(compile_source, texts) if not c.functions]
    data_storage = compile_source(DATA_STORAGE)

    def no_tree(*args):
        raise AssertionError("the oracle built a storage tree")

    monkeypatch.setattr(oracle, "build_storage_tree", no_tree)
    monkeypatch.setattr(oracle, "default_context_tree", no_tree)
    for contract in contracts:
        run_constructor(contract)
    assert len(contracts) > 40
    with pytest.raises(AssertionError, match="storage tree"):
        exec_function(data_storage, "isset", [["records", 3]])


def _state(machine):
    """Everything of a machine but its contract, as text."""
    return repr({k: v for k, v in vars(machine).items() if k != "contract"})


def test_serializing_leaves_the_state_alone():
    """Serializing reads slots, never stores them: the fixed array's
    never-written elements and the mapping entry's fixed-array member
    read as defaults without appearing in the state."""
    contract = compile_source(
        """
contract C {
    struct S { int x; int[2] f; }
    int[3] g;
    mapping(int => S) m;
    constructor() { m[1].x = 2; }
}
"""
    )
    result = run_constructor(contract)
    before = _state(result.state)
    assert serialize_storage(result) == {
        "g": {"length": 3, "elems": [0, 0, 0]},
        "m": {
            "default": {"x": 0, "f": {"length": 2, "elems": [0, 0]}},
            "entries": {"1": {"x": 2, "f": {"length": 2, "elems": [0, 0]}}},
        },
    }
    assert _state(result.state) == before
