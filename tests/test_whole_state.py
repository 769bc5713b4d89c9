"""Whole final states, not only asserts: on every constructor that the
reference interpreter and the IR evaluator both run to the end, or both
stop at the same failing assert, each state variable's storage is the
same on both sides where the run stops.

The assert differential compares the first failing assert and nothing
else, so a translator fault that corrupts state no assert reads goes
unseen there. Where a constructor stops, storage is all the state its
run leaves, so comparing it whole sees such a fault. The programs are
fuzz seeds 0-299 (the first seed where an element-wise copy that skips
the last element changes a final state is 299) and the self-contained
corpus files.
"""

import sources
from irserialize import serialize_final_storage
from solmem.errors import SolmemError
from solmem.ireval import eval_ir
from solmem.oracle import run_constructor, serialize_storage
from solmem.translate import translate_function
from solmem.verify import ssa_form

SEEDS = range(300)


def programs():
    """(name, source) of every fuzz seed and corpus file."""
    for seed in SEEDS:
        yield f"fuzz/{seed}", sources.fuzz(seed)
    for name, text in sources.corpus().items():
        yield f"corpus/{name}", text


def final_states(source: str):
    """The storage where the constructor stops, as the interpreter and as
    the IR evaluator serialize it, or None where the two do not stop at
    the same place: the source is rejected or not self-contained, the
    translator does not support it, an assumption fails, or the sides
    stop at different asserts (the assert differential's case)."""
    try:
        contract = sources.compile_source(source)
    except SolmemError:
        return None
    ctor = contract.constructor
    if ctor is None or ctor.params or contract.functions:
        return None
    oracle = run_constructor(contract)
    try:
        ssa = ssa_form(translate_function(contract, ctor).program)
    except SolmemError:
        return None
    ran = eval_ir(ssa.program)
    failed = oracle.failed.ordinal if oracle.failed else None
    if ran.status == "assume-violated" or ran.failed_index != failed:
        return None
    return serialize_storage(oracle), serialize_final_storage(contract, ssa, ran.env, failed)


def test_final_storage_agrees_with_the_interpreter():
    compared, disagreements = 0, []
    for name, source in programs():
        states = final_states(source)
        if states is None:
            continue
        compared += 1
        oracle_state, ir_state = states
        disagreements += [(name, v) for v in oracle_state if oracle_state[v] != ir_state[v]]
    assert disagreements == []
    assert compared >= 300  # every fuzz seed stops at the same place on both sides


def test_a_run_stopped_by_an_assert_is_read_where_it_stopped():
    """A state variable assigned after the failing assert reads its
    version from before the assert, not its final version, which the
    stopped run never assigned."""
    states = final_states("contract C { int x; constructor() { x = 1; assert(x == 2); x = 3; } }")
    assert states == ({"x": 1}, {"x": 1})
