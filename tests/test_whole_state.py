"""Whole final states, not only asserts: on every constructor that the
reference interpreter and the IR evaluator both run to the end, each
state variable's final storage is the same on both sides.

The assert differential compares the first failing assert and nothing
else, so a translator fault that corrupts state no assert reads goes
unseen there. At the end of a constructor, storage is all the state a
run leaves, so comparing it whole sees such a fault. The programs are
fuzz seeds 0-299 (the first seed where an element-wise copy that skips
the last element changes a final state is 299) and the self-contained
corpus files.
"""

from pathlib import Path

from irserialize import serialize_final_storage
from solmem.errors import SolmemError
from solmem.generator import random_program
from solmem.ireval import eval_ir
from solmem.oracle import run_constructor, serialize_storage
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.translate import translate_function
from solmem.verify import ssa_form

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(300)


def sources():
    """(name, source) of every fuzz seed and corpus file."""
    for seed in SEEDS:
        yield f"fuzz/{seed}", random_program(seed)
    for path in sorted((ROOT / "corpus").glob("*/*.sol")):
        yield f"corpus/{path.parent.name}/{path.name}", path.read_text()


def final_states(source: str):
    """The final storage of the constructor as the interpreter and as the
    IR evaluator serialize it, or None where either side does not run it
    to the end: the source is rejected or not self-contained, an assert
    fails, or the translator does not support it."""
    try:
        contract = resolve_and_check(parse_source(source))
    except SolmemError:
        return None
    ctor = contract.constructor
    if ctor is None or ctor.params or contract.functions:
        return None
    oracle = run_constructor(contract)
    if oracle.failed is not None:
        return None
    try:
        ssa = ssa_form(translate_function(contract, ctor).program)
    except SolmemError:
        return None
    ran = eval_ir(ssa.program)
    if ran.status != "ok":
        return None
    return serialize_storage(oracle), serialize_final_storage(contract, ssa, ran.env)


def test_final_storage_agrees_with_the_interpreter():
    compared, disagreements = 0, []
    for name, source in sources():
        states = final_states(source)
        if states is None:
            continue
        compared += 1
        oracle_state, ir_state = states
        disagreements += [(name, v) for v in oracle_state if oracle_state[v] != ir_state[v]]
    assert disagreements == []
    assert compared >= 200  # most programs run to the end on both sides
