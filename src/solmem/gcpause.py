"""Pipeline stages run with Python's cyclic garbage collector paused,
and hand what they built to the oldest generation.

Each stage builds an acyclic tree the size of the program (syntax tree,
IR, normalized IR, SSA) and makes no reference cycles, so reference
counting frees everything a stage drops (`tests/test_gc.py` checks
this). The cyclic collector would find nothing to free, yet it runs
every few hundred allocations and re-scans the growing tree: on the
benchmark's long constructors (250 to 1000 statements) that was about
a sixth of the pipeline's time. A paused stage skips those scans.

Pausing alone moves the first scan to the caller: the tree is still
young when the call returns, so the caller's next allocation starts a
young collection that walks all of it. So a paused call also promotes,
at its exit, every object allocated during the call to the oldest
generation without scanning it (`gc.freeze()` then `gc.unfreeze()`,
which merge the generations' lists and reset the young count). That is
safe because those objects are acyclic: the ones the caller drops are
freed by reference counting, and a full collection, which still runs
on its own schedule, scans the rest. The caller's own young objects
must not be promoted with them, or its young cyclic garbage would wait
for a full collection; so the call first runs one young collection
(`gc.collect(1)`), which frees that garbage and leaves no young object
behind.

Limits:
- the caller's young objects are collected at the call's entry
  instead of at the caller's next automatic collection;
- objects that other threads allocate during the call are promoted
  along with the stage's (solmem's own corpus and fuzz workers make no
  cycles);
- nothing is promoted while the host holds frozen objects
  (`gc.get_freeze_count()`), since unfreezing would release them.

A call made while collection is already off (one stage calling another,
or a host that disabled the collector) runs the stage and nothing else.
"""

import gc
from functools import wraps


def gc_paused(stage):
    """`stage` with automatic collection off for the length of each call.
    The previous state comes back when the call returns or raises; a call
    made while collection is already off leaves it off and touches no
    generation."""

    @wraps(stage)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return stage(*args, **kwargs)
        gc.collect(1)
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()

    return paused
