"""Pipeline stages run with Python's cyclic garbage collector paused.

Each stage builds an acyclic tree the size of the program (syntax tree,
IR, normalized IR, SSA) and makes no reference cycles, so reference
counting frees everything a stage drops (`tests/test_gc.py` checks
this). The cyclic collector would find nothing to free, yet it runs
every few hundred allocations and re-scans the growing tree: on the
benchmark's long constructors (250 to 1000 statements) that was about
a sixth of the pipeline's time. A paused stage skips those scans; the
collector takes up its policy again once the call returns, and nothing
else about collection changes for the process that imports solmem.
"""

import gc
from functools import wraps


def gc_paused(stage):
    """`stage` with automatic collection off for the length of each call.
    The previous state comes back when the call returns or raises; a call
    made while collection is already off (one stage calling another, or a
    caller that disabled it) leaves it off."""

    @wraps(stage)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return stage(*args, **kwargs)
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            gc.enable()

    return paused
