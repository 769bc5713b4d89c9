"""Types are interned values: building a type shape twice gives the same
object, different shapes give different objects, copies and pickles give
the object back, and threads that build the same new types at once all
end up holding the same objects."""

import copy
import pickle
import sys
import threading
import uuid

import pytest

from solmem import ir
from solmem.sol_ast import (
    ADDRESS,
    BOOL,
    INT,
    UINT,
    DynArrayType,
    FixArrayType,
    Loc,
    MappingType,
    StructType,
    ValueType,
)


def shapes() -> list:
    """One of every type shape, built afresh on each call: each class,
    nested types, fixed arrays that differ only in size, mappings that
    differ only in key or value, and the IR's types and datatypes."""
    return [
        ValueType("int"), ValueType("uint"), ValueType("bool"), ValueType("address"),
        StructType("S"), StructType("T"),
        DynArrayType(ValueType("int")), DynArrayType(StructType("S")), DynArrayType(DynArrayType(ValueType("int"))),
        FixArrayType(ValueType("int"), 2), FixArrayType(ValueType("int"), 3), FixArrayType(ValueType("bool"), 2),
        FixArrayType(FixArrayType(ValueType("int"), 2), 3), FixArrayType(FixArrayType(ValueType("int"), 3), 2),
        MappingType(ValueType("int"), ValueType("int")), MappingType(ValueType("int"), ValueType("bool")),
        MappingType(ValueType("address"), ValueType("int")),
        MappingType(ValueType("int"), MappingType(ValueType("int"), StructType("S"))),
        MappingType(ValueType("int"), MappingType(ValueType("int"), StructType("T"))),
        ir.IntType(), ir.BoolType(),
        ir.ArrayType(ir.IntType(), ir.IntType()), ir.ArrayType(ir.IntType(), ir.BoolType()),
        ir.ArrayType(ir.BoolType(), ir.IntType()), ir.ArrayType(ir.IntType(), ir.ArrayType(ir.IntType(), ir.IntType())),
        ir.DatatypeType("D"), ir.DatatypeType("E"),
        ir.DatatypeDef("D", (("m", ir.IntType()),)), ir.DatatypeDef("D", (("m", ir.BoolType()),)),
        ir.DatatypeDef("D", (("n", ir.IntType()),)), ir.DatatypeDef("E", (("m", ir.IntType()),)),
        ir.DatatypeDef("D", (("m", ir.IntType()), ("n", ir.DatatypeType("E")))),
    ]


def test_a_shape_built_twice_is_one_object_and_different_shapes_are_not():
    first, second = shapes(), shapes()
    assert all(a is b for a, b in zip(first, second))
    assert len({id(t) for t in first}) == len(first)
    assert FixArrayType(INT, 2) != FixArrayType(INT, 3)
    assert [ValueType("int"), ValueType("uint"), ValueType("bool"), ValueType("address")] == [INT, UINT, BOOL, ADDRESS]
    assert ir.ArrayType(ir.INT, ir.INT) is ir.PTR


def test_copies_and_pickles_give_the_canonical_object():
    for t in shapes():
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert copy.deepcopy([t, (t,)])[1][0] is t
        assert pickle.loads(pickle.dumps(t)) is t


def test_equality_and_hash_are_identity():
    for t in shapes():
        assert type(t).__eq__ is object.__eq__ and type(t).__hash__ is object.__hash__
        assert hash(t) == object.__hash__(t)
    assert type(Loc.VALUE).__hash__ is object.__hash__


def test_keyword_construction_is_rejected():
    with pytest.raises(TypeError, match="FixArrayType takes positional arguments only"):
        FixArrayType(INT, size=2)
    with pytest.raises(TypeError, match="DatatypeDef takes positional arguments only"):
        ir.DatatypeDef(name="D", members=())


def fresh_types(prefix: str) -> list:
    """200 types no other test builds: their names start with `prefix`."""
    types = []
    for i in range(40):
        s = StructType(f"{prefix}{i}")
        d = ir.DatatypeType(f"{prefix}{i}")
        types += [
            DynArrayType(s),
            FixArrayType(s, i),
            MappingType(INT, s),
            ir.ArrayType(ir.INT, d),
            ir.DatatypeDef(f"{prefix}{i}", (("m", d),)),
        ]
    return types


def test_threads_building_the_same_new_types_get_the_same_objects():
    prefix = f"Race{uuid.uuid4().hex}_"
    workers = 8  # more than the cores, so that threads really interleave
    start = threading.Barrier(workers, timeout=30)
    held: list[list | None] = [None] * workers

    def build(slot: int) -> None:
        start.wait()
        held[slot] = fresh_types(prefix)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(n,)) for n in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(h is not None and len(h) == 200 for h in held)
    again = fresh_types(prefix)
    for h in held:
        assert all(a is b for a, b in zip(h, again))
