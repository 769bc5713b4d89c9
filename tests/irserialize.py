"""Canonical serialization of evaluated IR values, type-directed.

Produces the same shapes as the reference interpreter's serializer so
default values and final states can be compared structurally across the
two implementations.
"""

from __future__ import annotations

from solmem.ireval import VArray, VData, default_value
from solmem.sol_ast import (
    BOOL,
    Contract,
    DynArrayType,
    FixArrayType,
    Loc,
    MappingType,
    SolType,
    StructType,
    is_reference_type,
    is_value_type,
)
from solmem.ssa import SsaResult
from solmem.translate import _names


def serialize_ir(contract: Contract, ty: SolType, loc: Loc, value, env: dict):
    """Serialize `value` of Solidity type `ty` at data location `loc`
    out of an evaluation environment (needed to chase heap pointers)."""
    if is_value_type(ty):
        return bool(value) if ty == BOOL else int(value)
    if isinstance(ty, MappingType):
        assert isinstance(value, VArray)
        default = serialize_ir(contract, ty.value, Loc.STORAGE, value.default, env)
        entries = {}
        for key in sorted(value.entries, key=str):
            entry = serialize_ir(contract, ty.value, Loc.STORAGE, value.entries[key], env)
            if entry != default:
                entries[str(int(key))] = entry
        return {"default": default, "entries": entries}
    if isinstance(ty, (DynArrayType, FixArrayType)):
        elem_loc = loc if is_reference_type(ty.base) else Loc.VALUE
        if loc == Loc.MEMORY:
            heap = env[_names(ty)[2]]
            obj = heap.read(value)
        else:
            obj = value
        assert isinstance(obj, VData)
        backing, length = obj.members
        return {
            "length": length,
            "elems": [
                serialize_ir(contract, ty.base, elem_loc, backing.read(i), env)
                for i in range(max(length, 0))
            ],
        }
    if isinstance(ty, StructType):
        member_loc = loc
        if loc == Loc.MEMORY:
            heap = env[_names(ty)[2]]
            obj = heap.read(value)
        else:
            obj = value
        assert isinstance(obj, VData)
        sd = contract.struct(ty.name)
        assert sd is not None
        out = {}
        for (m, v) in zip(sd.members, obj.members):
            m_loc = member_loc if is_reference_type(m.ty) else Loc.VALUE
            out[m.name] = serialize_ir(contract, m.ty, m_loc, v, env)
        return out
    raise TypeError(f"cannot serialize {ty}")


def serialize_final_storage(contract: Contract, ssa: SsaResult, env: dict) -> dict:
    """Each state variable at its final SSA version in an evaluation
    environment, serialized as `oracle.serialize_storage` serializes the
    interpreter's storage. A version the run never assigned reads as its
    type's default."""
    out = {}
    for v in contract.state_vars:
        final = ssa.final_versions[v.name]
        value = env[final] if final in env else default_value(ssa.program.decls.get(final), ssa.program)
        out[v.name] = serialize_ir(contract, v.ty, Loc.STORAGE, value, env)
    return out
