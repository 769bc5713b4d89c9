"""Reference-interpreter results pinned by one digest.

Over the programs of `sources.pinned()`, every function runs
on a fresh constructor state with zero arguments built from its parameter
types. A storage-pointer parameter gets the access path that takes the
first edge of the storage tree at each contract or struct node and the
index 0 at each array or mapping node. The digest covers the canonical
storage, the serialized returns and the assert outcomes, or the type
and text of the error raised. It also covers the raw storage (the
default contexts among its roots), heap, locals and allocation counter,
so a change of aliasing, allocation order or of which slots get stored
shows too. A storage-pointer local is rendered as its access path: the
root (a state variable or a default context), then the member names and
index values taken from it, with boolean keys as integers. A
refactoring of the interpreter must leave the digest unchanged.
"""

import hashlib

import sources
from solmem.errors import SolmemError
from solmem.oracle import StorPath, exec_function, run_constructor, serialize, serialize_storage
from solmem.sol_ast import BOOL, FixArrayType, Loc, StructType, is_value_type
from solmem.storage_tree import build_storage_tree, default_context_tree

DIGEST = "9631fa423a836277b2151ba4503a4edd0033cf31e0b02a7728d57082c0cdb42a"


def zero_arg(contract, ty, loc):
    """JSON-ish zero value of a parameter type, as `exec_function` takes."""
    if loc == Loc.STORPTR:
        node, path = build_storage_tree(contract, ty), []
        if not node.edges:
            node = default_context_tree(ty)
        while node.edges:
            edge = node.edges[0]
            path.append(0 if edge.label is None else edge.label)
            node = edge.target
        return path
    if is_value_type(ty):
        return False if ty == BOOL else 0
    if isinstance(ty, StructType):
        members = contract.struct(ty.name).members
        return {m.name: zero_arg(contract, m.ty, Loc.MEMORY) for m in members}
    if isinstance(ty, FixArrayType):
        return [zero_arg(contract, ty.base, Loc.MEMORY) for _ in range(ty.size)]
    return []


def rendered_locals(machine) -> dict:
    return {
        name: tuple(int(k) if isinstance(k, bool) else k for k in v.keys) if isinstance(v, StorPath) else v
        for name, v in machine.locals.items()
    }


def run_record(contract, fn) -> str:
    base = run_constructor(contract)
    if fn.is_constructor:
        result = base
    else:
        args = [zero_arg(contract, p.ty, p.loc) for p in fn.params]
        result = exec_function(contract, fn.name, args, initial=base.state)
    machine = result.state
    returns = {
        r.name_source: serialize(machine, r.ty, result.returns[r.name_source]) for r in fn.returns
    }
    asserts = [(a.ordinal, a.line, a.passed) for a in result.asserts]
    raw = (machine.storage, sorted(machine.heap.items()), rendered_locals(machine), machine.next_addr)
    return repr((serialize_storage(result), returns, asserts, raw))


def records(source: str):
    try:
        contract = sources.compile_source(source)
    except SolmemError as e:
        yield f"error {type(e).__name__}: {e}"
        return
    for fn in contract.all_functions():
        yield f"function {fn.name}"
        try:
            yield run_record(contract, fn)
        except SolmemError as e:
            yield f"error {type(e).__name__}: {e}"


def golden_digest() -> str:
    digest = hashlib.sha256()
    for name, source in sources.pinned():
        digest.update(f"{name}\0".encode())
        for record in records(source):
            digest.update(record.encode() + b"\0")
    return digest.hexdigest()


def test_oracle_digest():
    assert golden_digest() == DIGEST
