"""Function verification conditions checked without a solver.

A function's VC quantifies over every entry state. The default state is
one of them, so the IR evaluator run on a function's SSA program from
its default environment must fail exactly where the reference
interpreter fails the function from default storage, and must never
find an assumption violated there.

The default environment is a valid entry state only when the contract
stores no fixed-size array: its `length` is free in the entry state and
reads 0 by default, where the interpreter gives it its declared size.
Those contracts are skipped until a fixed-size array's length is part of
its type.
"""

from pathlib import Path

import pytest

from solmem.ireval import eval_ir
from solmem.normalize import normalize_lhs
from solmem.oracle import exec_function
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.sol_ast import DynArrayType, FixArrayType, MappingType, StructType
from solmem.ssa import to_ssa
from solmem.translate import translate_function

ROOT = Path(__file__).resolve().parent.parent


def stores_fixed_array(contract) -> bool:
    def reaches(ty, seen) -> bool:
        if isinstance(ty, FixArrayType):
            return True
        if isinstance(ty, DynArrayType):
            return reaches(ty.base, seen)
        if isinstance(ty, MappingType):
            return reaches(ty.value, seen)
        if isinstance(ty, StructType) and ty.name not in seen:
            return any(reaches(m.ty, seen | {ty.name}) for m in contract.struct(ty.name).members)
        return False

    return any(reaches(v.ty, frozenset()) for v in contract.state_vars)


def parameterless_functions():
    """(id, contract, function, skip reason or None) for every corpus
    function without parameters."""
    for path in sorted((ROOT / "corpus").glob("*/*.sol")):
        contract = resolve_and_check(parse_source(path.read_text()))
        skip = "fixed-size array length is free at entry" if stores_fixed_array(contract) else None
        for fn in contract.functions:
            if not fn.params:
                yield f"{path.name}:{fn.name}", contract, fn, skip


CASES = list(parameterless_functions())


@pytest.mark.parametrize("contract, fn, skip", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_function_vc_agrees_with_oracle_from_default_state(contract, fn, skip):
    if skip:
        pytest.skip(skip)
    oracle = exec_function(contract, fn.name)
    oracle_failed = oracle.failed.ordinal if oracle.failed else None
    ran = eval_ir(to_ssa(normalize_lhs(translate_function(contract, fn).program)).program)
    assert ran.status != "assume-violated"
    assert (ran.failed_index if ran.status == "assert-failed" else None) == oracle_failed


def test_cases_cover_the_parameterless_corpus_functions():
    checked = sorted(c[0] for c in CASES if c[3] is None)
    assert checked == [
        "nonaliasing_mapping_keys.sol:concrete",
        "nonaliasing_state_vars.sol:f",
        "pointer_conditional.sol:pickConcrete",
        "tuple_order.sol:primitiveAssign",
        "tuple_order.sol:storageAssign",
    ]
    assert [c[0] for c in CASES if c[3] is not None] == ["fixarray_elements.sol:frame"]
