"""Function verification conditions checked without a solver.

A function's VC quantifies over every entry state. The default state is
one of them, so the IR evaluator run on a function's SSA program from
its default environment must fail exactly where the reference
interpreter fails the function from default storage, must never find
an assumption violated there, and must leave the same storage where it
stops (`irserialize.differential`). A function whose parameters are all
value types is run so for every argument tuple over a small domain, the
arguments bound in both.

The default environment is a valid entry state only when the contract
stores no fixed-size array: its `length` is free in the entry state and
reads 0 by default, where the interpreter gives it its declared size.
Those contracts are skipped until a fixed-size array's length is part of
its type.
"""

from itertools import product

import pytest

from irserialize import differential
from sources import compile_source, corpus
from solmem.sol_ast import BOOL, DynArrayType, FixArrayType, MappingType, StructType, is_value_type


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


def corpus_functions():
    """(id, contract, function, skip reason or None) for every corpus
    function."""
    for name, text in corpus().items():
        contract = compile_source(text)
        skip = "fixed-size array length is free at entry" if stores_fixed_array(contract) else None
        for fn in contract.functions:
            yield f"{name.split('/')[1]}:{fn.name}", contract, fn, skip


FUNCTIONS = list(corpus_functions())
CASES = [case for case in FUNCTIONS if not case[2].params]

# the argument domain of a value parameter
INTS, BOOLS = (-1, 0, 1, 2), (False, True)


def _literal(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def value_argument_cases():
    """(id, contract, function, arguments, skip reason or None) for every
    corpus function with parameters, all of value type, and every
    argument tuple over the domain."""
    for name, contract, fn, skip in FUNCTIONS:
        if fn.params and all(is_value_type(p.ty) for p in fn.params):
            for args in product(*(BOOLS if p.ty == BOOL else INTS for p in fn.params)):
                shown = ", ".join(f"{p.name}={_literal(a)}" for p, a in zip(fn.params, args))
                yield f"{name}({shown})", contract, fn, list(args), skip


ARG_CASES = list(value_argument_cases())


@pytest.mark.parametrize("contract, fn, skip", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_function_vc_agrees_with_oracle_from_default_state(contract, fn, skip):
    if skip:
        pytest.skip(skip)
    differential(contract, fn)


@pytest.mark.parametrize("contract, fn, args, skip", [c[1:] for c in ARG_CASES], ids=[c[0] for c in ARG_CASES])
def test_function_vc_agrees_with_oracle_on_value_arguments(contract, fn, args, skip):
    if skip:
        pytest.skip(skip)
    differential(contract, fn, args)


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


def test_cases_cover_the_value_argument_corpus_functions():
    assert [c[0] for c in ARG_CASES if c[4] is None] == [
        "nonaliasing_mapping_keys.sol:symbolic(k=-1)",
        "nonaliasing_mapping_keys.sol:symbolic(k=0)",
        "nonaliasing_mapping_keys.sol:symbolic(k=1)",
        "nonaliasing_mapping_keys.sol:symbolic(k=2)",
        "pointer_conditional.sol:pick(c=false)",
        "pointer_conditional.sol:pick(c=true)",
    ]
    assert not [c for c in ARG_CASES if c[4] is not None]
    # the domain reaches a failing assert: the key that aliases `m[2]`
    failing = [c[0] for c in ARG_CASES if differential(*c[1:4])[0].failed]
    assert failing == ["nonaliasing_mapping_keys.sol:symbolic(k=2)"]
