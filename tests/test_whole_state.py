"""Whole final states, not only asserts: on every self-contained
constructor, the reference interpreter and the IR evaluator both run to
the end or both stop at the same failing assert, and each state
variable's storage is the same on both sides where the run stops.
`irserialize.differential` makes that comparison, here and in every
other test that runs the two sides.

The assert differential compares the first failing assert and nothing
else, so a translator fault that corrupts state no assert reads goes
unseen there. Where a constructor stops, storage is all the state its
run leaves, so comparing it whole sees such a fault. The programs are
fuzz seeds 0-299 (the first seed where an element-wise copy that skips
the last element changes a final state is 299) and the self-contained
corpus files.
"""

import sources
from irserialize import differential
from solmem.oracle import serialize_storage

SEEDS = range(300)


def programs():
    """(name, source) of every fuzz seed and corpus file."""
    for seed in SEEDS:
        yield f"fuzz/{seed}", sources.fuzz(seed)
    for name, text in sources.corpus().items():
        yield f"corpus/{name}", text


def test_final_storage_agrees_with_the_interpreter():
    compared = 0
    for name, source in programs():
        contract = sources.compile_source(source)
        if contract.constructor and not contract.constructor.params and not contract.functions:
            try:
                differential(contract)
            except AssertionError as e:
                raise AssertionError(name) from e  # the program, beside the storage that differs
            compared += 1
    # every fuzz seed is self-contained, and so are 26 corpus files
    assert compared == len(SEEDS) + 26


def test_a_run_stopped_by_an_assert_is_read_where_it_stopped():
    """A state variable assigned after the failing assert reads its
    version from before the assert, not its final version, which the
    stopped run never assigned."""
    oracle, ran, _ = differential(
        sources.compile_source("contract C { int x; constructor() { x = 1; assert(x == 2); x = 3; } }"))
    assert ran.failed_index == 0 and serialize_storage(oracle) == {"x": 1}
