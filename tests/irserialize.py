"""Canonical serialization of evaluated IR values, type-directed, and
the one differential between the reference interpreter and the IR
evaluator.

`serialize_ir` produces the same shapes as the reference interpreter's
serializer so default values and final states can be compared
structurally across the two implementations. `differential` runs a
function in the interpreter and its SSA program, the program the
verifier decides, under `eval_ir`. It checks that no assumption fails,
that both sides stop at the same first failing assert or run to the
end, and that every state variable's storage is the same where they
stop. Every test that compares the two sides calls it.
"""

from __future__ import annotations

from solmem.ir import Assert, Assign
from solmem.ireval import EvalResult, VArray, VData, default_value, eval_ir
from solmem.oracle import ExecResult, exec_function, serialize_storage
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
from solmem.translate import _names, translate_function
from solmem.verify import ssa_form


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


def versions_before(ssa: SsaResult, ordinal: int) -> dict[str, str]:
    """Each name of `ssa.final_versions` at its last SSA version assigned
    before assert `ordinal` of the flat SSA program."""
    versions = {name: name for name in ssa.final_versions}
    asserts = 0
    for s in ssa.program.stmts:
        if isinstance(s, Assert):
            if asserts == ordinal:
                return versions
            asserts += 1
        elif isinstance(s, Assign):
            base = s.lhs.name.rpartition("!")[0]  # `to_ssa` names version k of x `x!k`
            if base in versions:
                versions[base] = s.lhs.name
    raise ValueError(f"the program has no assert {ordinal}")


def serialize_final_storage(contract: Contract, ssa: SsaResult, env: dict, failed: int | None = None) -> dict:
    """Each state variable in an evaluation environment, serialized as
    `oracle.serialize_storage` serializes the interpreter's storage: at
    its final SSA version, or, for a run stopped by assert `failed`, at
    the last version assigned before that assert. A version the run
    never assigned reads as its type's default."""
    versions = ssa.final_versions if failed is None else versions_before(ssa, failed)
    out = {}
    for v in contract.state_vars:
        final = versions[v.name]
        value = env[final] if final in env else default_value(ssa.program.decls.get(final), ssa.program)
        out[v.name] = serialize_ir(contract, v.ty, Loc.STORAGE, value, env)
    return out


def differential(contract: Contract, fn=None, args=None, env=None,
                 unroll: int | None = None) -> tuple[ExecResult, EvalResult, SsaResult]:
    """Run `fn` (the constructor by default) in the interpreter on `args`
    from default storage, and its SSA program at `unroll` under `eval_ir`
    from `env` (by default `args` bound to the parameters). Fail unless
    no assumption is violated, both sides fail the same first assert or
    none, and each state variable's storage is the same where they stop.
    Returns the interpreter's result, the evaluator's and the SSA form."""
    fn = fn or contract.constructor
    oracle = exec_function(contract, fn.name, args)
    ssa = ssa_form(translate_function(contract, fn, unroll).program)
    if env is None:
        env = {p.name: a for p, a in zip(fn.params, args or [])}
    ran = eval_ir(ssa.program, env)
    failed = oracle.failed.ordinal if oracle.failed else None
    assert ran.status != "assume-violated", (fn.name, args)
    assert ran.failed_index == failed, (fn.name, args)
    assert serialize_final_storage(contract, ssa, ran.env, failed) == serialize_storage(oracle), (fn.name, args)
    return oracle, ran, ssa
