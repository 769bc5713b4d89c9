"""The pipeline makes no reference cycles, and its stages pause the
cyclic collector only for their own call and hand their output to the
oldest generation.

Each stage builds an acyclic tree, so reference counting alone must
free what the pipeline drops: with automatic collection off, a full
collection after a run over the corpus, generated programs and one long
constructor finds nothing. A stage marked `gc_paused` runs with
collection off and hands the caller's collection state back unchanged,
also when it raises. No collection starts inside a paused stage, and
none starts at the caller's next allocations either, since the stage's
output leaves the young generation unscanned. The caller's young cyclic
garbage is not promoted with it: a young collection after the call
still frees a cycle made just before it. A host's frozen objects stay
frozen across every paused stage.
"""

import gc
import sys
import weakref
from contextlib import contextmanager

import pytest

import solmem
import sources
from solmem import generator, normalize, oracle, parser, resolver, ssa, translate
from solmem.errors import ParseError, UnsupportedError
from solmem.gcpause import gc_paused
from solmem.generator import ProgramBuilder, random_program
from solmem.ireval import eval_ir
from solmem.normalize import normalize_lhs
from solmem.oracle import run_constructor
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.ssa import to_ssa
from solmem.translate import translate_function
from solmem.verify import ssa_form, vc_script

# the stage entry points that build program-sized trees; `parse_statement`
# runs only inside `ProgramBuilder.build`, where collection is already paused
PAUSED = {
    "parse_source", "resolve_and_check", "translate_function", "normalize_lhs",
    "to_ssa", "random_program", "ProgramBuilder.build", "run_constructor",
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


def programs():
    yield from sources.corpus().values()
    yield from (sources.fuzz(seed) for seed in range(20))
    yield sources.workload_stress()


def run_everything() -> int:
    """Every stage over every source, the results dropped; the number of
    functions run."""
    count = 0
    for source in programs():
        contract = resolve_and_check(parse_source(source))
        run_constructor(contract)
        for fn in contract.all_functions():
            tf = translate_function(contract, fn)
            program = ssa_form(tf.program).program
            eval_ir(program)
            for info in tf.asserts:
                vc_script(program, info.ordinal)
            count += 1
    return count


def test_the_pipeline_leaves_no_cyclic_garbage():
    gc.collect()
    with collection(False):
        assert run_everything() == 58  # constructors and functions
        assert gc.collect() == 0


def paused_stages() -> set[str]:
    """Names of the package's functions and methods that `gc_paused` wraps."""
    paused = gc_paused(len).__code__
    modules = (parser, resolver, translate, normalize, ssa, generator, oracle, solmem)
    found = set()
    for module in modules:
        for name, value in vars(module).items():
            if getattr(value, "__code__", None) is paused:
                found.add(name)
            elif isinstance(value, type):
                found |= {
                    f"{name}.{method}" for method, function in vars(value).items()
                    if getattr(function, "__code__", None) is paused
                }
    return found


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
        ("ProgramBuilder.build", lambda: ProgramBuilder(0, 3).build()),
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
    source = sources.workload_stress()
    with collections_inside(codes) as inside:
        contract = resolve_and_check(parse_source(source))
        tf = translate_function(contract, contract.constructor)
        to_ssa(normalize_lhs(tf.program))
    assert inside == []
    # the same SSA conversion unpaused collects while it runs
    with collections_inside(codes) as inside:
        to_ssa.__wrapped__(normalize_lhs(tf.program))
    assert "to_ssa" in inside


def test_no_collection_starts_inside_a_fuzz_program_s_generation():
    # `solmem fuzz` calls `build` itself, outside `random_program`'s pause;
    # unpaused, programs of this budget collect a few times each
    build = ProgramBuilder.build
    with collections_inside({getattr(build, "__wrapped__", build).__code__}) as inside:
        for seed in range(3):
            ProgramBuilder(seed, 200).build()
    assert inside == []


def test_the_caller_does_not_rescan_a_stage_s_output():
    contract = resolve_and_check(parse_source(sources.workload_stress()))
    started = []

    def probe(phase, info):
        if phase == "start":
            started.append(info["generation"])

    # the stage's output and the new lists stay alive while the probe watches
    with collection(True):
        tf = translate_function(contract, contract.constructor)  # noqa: F841
        gc.callbacks.append(probe)
        try:
            lists = [[] for _ in range(100)]  # noqa: F841
        finally:
            gc.callbacks.remove(probe)
    assert started == []


class Node:
    """A weakly referable object to build a reference cycle from."""


def test_a_paused_stage_does_not_promote_the_caller_s_young_cycles():
    gc.collect()
    with collection(True):
        node = Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        assert ref() is not None
        parse_source(SMALL)
        gc.collect(1)
        assert ref() is None


def test_the_host_s_frozen_objects_stay_frozen():
    calls = stage_calls()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        with collection(True):
            for name, call in calls:
                call()
                assert gc.get_freeze_count() == frozen, name
    finally:
        gc.unfreeze()
