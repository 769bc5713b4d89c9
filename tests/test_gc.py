"""The pipeline makes no reference cycles, and its stages pause the
cyclic collector only for their own call.

Each stage builds an acyclic tree, so reference counting alone must
free what the pipeline drops: with automatic collection off, a full
collection after a run over the corpus, generated programs and one long
constructor finds nothing. A stage marked `gc_paused` runs with
collection off and hands the caller's collection state back unchanged,
also when it raises.
"""

import gc
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import solmem
from solmem import generator, normalize, oracle, parser, resolver, ssa, translate
from solmem.errors import ParseError, UnsupportedError
from solmem.gcpause import gc_paused
from solmem.generator import random_program
from solmem.ireval import eval_ir
from solmem.normalize import normalize_lhs
from solmem.oracle import run_constructor
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.smtlib import emit_smtlib
from solmem.ssa import to_ssa
from solmem.translate import translate_function
from solmem.vcgen import vc_gen

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import stress_source  # noqa: E402

# the stage entry points that build program-sized trees; `parse_statement`
# runs only inside `random_program`, where collection is already paused
PAUSED = {
    "parse_source", "resolve_and_check", "translate_function", "normalize_lhs",
    "to_ssa", "random_program", "run_constructor",
}
SMALL = "contract C { int[] a; constructor() { a.push(1); assert(a[0] == 1); } }"
# a storage array copied into memory needs --unroll
UNSUPPORTED = "contract C { struct S { int x; } S[] a; constructor() { S[] memory m = a; } }"


@contextmanager
def collection(enabled: bool):
    """Automatic collection switched on or off for the block, then put back."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def sources():
    for path in sorted((ROOT / "corpus").glob("*/*.sol")):
        yield path.read_text()
    for seed in range(20):
        yield random_program(seed, 10)
    yield stress_source(300, 25, random.Random(0))


def run_everything() -> int:
    """Every stage over every source, the results dropped; the number of
    functions run."""
    count = 0
    for source in sources():
        contract = resolve_and_check(parse_source(source))
        run_constructor(contract)
        for fn in contract.all_functions():
            tf = translate_function(contract, fn)
            program = to_ssa(normalize_lhs(tf.program)).program
            eval_ir(program)
            for info in tf.asserts:
                emit_smtlib(program, vc_gen(program, info.ordinal))
            count += 1
    return count


def test_the_pipeline_leaves_no_cyclic_garbage():
    gc.collect()
    with collection(False):
        assert run_everything() == 58  # constructors and functions
        assert gc.collect() == 0


def paused_stages() -> set[str]:
    """Names of the package's functions that `gc_paused` wraps."""
    modules = (parser, resolver, translate, normalize, ssa, generator, oracle, solmem)
    return {
        name for module in modules for name, value in vars(module).items()
        if getattr(value, "__code__", None) is gc_paused(len).__code__
    }


def stage_calls():
    """(name, call) for one ordinary call of every paused stage."""
    contract = resolve_and_check(parse_source(SMALL))
    tf = translate_function(contract, contract.constructor)
    normalized = normalize_lhs(tf.program)
    return [
        ("parse_source", lambda: parse_source(SMALL)),
        ("resolve_and_check", lambda: resolve_and_check(parse_source(SMALL))),
        ("translate_function", lambda: translate_function(contract, contract.constructor)),
        ("normalize_lhs", lambda: normalize_lhs(tf.program)),
        ("to_ssa", lambda: to_ssa(normalized)),
        ("random_program", lambda: random_program(0, 3)),
        ("run_constructor", lambda: run_constructor(contract)),
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_a_paused_stage_hands_back_the_collection_state(enabled):
    calls = stage_calls()
    assert {name for name, _ in calls} == paused_stages() == PAUSED
    for name, call in calls:
        with collection(enabled):
            call()
            assert gc.isenabled() is enabled, name


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_a_paused_stage_that_raises_hands_back_the_collection_state(enabled):
    contract = resolve_and_check(parse_source(UNSUPPORTED))
    with collection(enabled):
        with pytest.raises(ParseError):
            parse_source("contract C {")
        assert gc.isenabled() is enabled
        with pytest.raises(UnsupportedError):
            translate_function(contract, contract.constructor)
        assert gc.isenabled() is enabled


@contextmanager
def collections_inside(codes):
    """The names of the functions in `codes` that were on the stack when
    an automatic collection started inside the block."""
    inside = []

    def probe(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code in codes:
                inside.append(frame.f_code.co_name)
            frame = frame.f_back

    gc.callbacks.append(probe)
    try:
        with collection(True):
            yield inside
    finally:
        gc.callbacks.remove(probe)


def test_no_collection_starts_inside_a_paused_stage():
    stages = [translate_function, normalize_lhs, to_ssa, parse_source, resolve_and_check]
    codes = {stage.__wrapped__.__code__ for stage in stages}
    source = stress_source(300, 25, random.Random(0))
    with collections_inside(codes) as inside:
        contract = resolve_and_check(parse_source(source))
        tf = translate_function(contract, contract.constructor)
        to_ssa(normalize_lhs(tf.program))
    assert inside == []
    # the same SSA conversion unpaused collects while it runs
    with collections_inside(codes) as inside:
        to_ssa.__wrapped__(normalize_lhs(tf.program))
    assert "to_ssa" in inside
