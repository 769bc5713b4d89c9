"""Tests of the benchmark itself: span arithmetic, failure accounting and
deterministic counts. Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
from pipeline import check_outputs, load_stages, preflight, run_program  # noqa: E402
from spans import Span, Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    STRESS_CRASH_SIZE,
    Program,
    corpus_programs,
    count_asserts,
    count_statements,
    stress_source,
)

BASELINE = json.loads((HERE / "baseline.json").read_text())


@pytest.fixture(scope="module")
def stages():
    return load_stages()


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("generator", "g", None, 0.0, 10.0),
        Span("parser", "p", 0, 1.0, 5.0),
        Span("lexer", "l", 1, 2.0, 4.0),
        Span("oracle", "o", 0, 6.0, 9.0),
        Span("storage_tree", "s", 3, 7.0, 7.5),
        Span("storage_tree", "s", 4, 7.1, 7.2),  # recursion into its own layer
    ]
    totals = layer_totals(spans)
    assert totals["generator"] == pytest.approx({"calls": 1, "total_s": 10.0, "self_s": 3.0})
    assert totals["parser"] == pytest.approx({"calls": 1, "total_s": 4.0, "self_s": 2.0})
    assert totals["lexer"] == pytest.approx({"calls": 1, "total_s": 2.0, "self_s": 2.0})
    assert totals["oracle"] == pytest.approx({"calls": 1, "total_s": 3.0, "self_s": 2.5})
    # the inner span is counted as a call but its time only once
    assert totals["storage_tree"] == pytest.approx({"calls": 2, "total_s": 0.5, "self_s": 0.5})


def test_tracer_links_nested_calls_to_their_parent():
    tracer = Tracer()
    inner = tracer.wrap("lexer", "inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("parser", "outer", lambda: inner())
    outer()
    assert [(s.layer, s.parent) for s in tracer.spans] == [("parser", None), ("lexer", 0)]
    totals = layer_totals(tracer.spans)
    assert totals["parser"]["total_s"] >= totals["lexer"]["total_s"] >= 0.02
    assert totals["parser"]["self_s"] == pytest.approx(
        totals["parser"]["total_s"] - totals["lexer"]["total_s"]
    )


def test_only_inside_span_opens_under_that_layer_only():
    tracer = Tracer()
    leaf = tracer.wrap("translate", "expr", lambda: None, only_inside="storage_tree")
    pack = tracer.wrap("storage_tree", "pack", lambda: leaf())
    outer = tracer.wrap("translate", "translate_function", lambda: (leaf(), pack()))
    outer()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("translate_function", None), ("pack", 0), ("expr", 1)]


def test_failed_program_counts_as_failed_with_infinite_latency(stages):
    crash = Program("crash", stress_source(STRESS_CRASH_SIZE, 0, random.Random(0)))
    small = Program("small", stress_source(250, 0, random.Random(0)))
    assert run_program(stages, crash).error.startswith("RecursionError")
    loop = run.Loop(stages, [crash, small])
    loop.run(seconds=0, min_passes=2, check_passes=1, decide=False)
    assert (loop.attempts, loop.failed) == (4, 2)
    assert loop.latencies[0] == math.inf and loop.latencies[1] < math.inf
    assert run.quantile(sorted(loop.latencies), 0.9) == math.inf
    # the failed program's time still counts towards the pass
    crash_s = statistics.median(loop.times[0])
    assert crash_s > 0
    assert loop.programs_per_s == pytest.approx(1 / (crash_s + loop.latencies[1]))
    assert loop.checks and all(ok for _, ok in loop.checks)


def test_checks_catch_a_wrong_expectation(stages):
    programs = corpus_programs(run.ROOT / "corpus", 0, stages.parse_expectations)
    program = next(p for p in programs if p.label == "storageptr/dangling_pop.sol")
    out = run_program(stages, program)
    assert all(ok for _, ok in check_outputs(stages, out, decide=False))
    flipped = {line: "holds" for line in program.expect}
    out.program = Program(program.label, program.source, expect=flipped)
    assert not all(ok for _, ok in check_outputs(stages, out, decide=False))


def test_decide_checks_every_verdict_once_the_smoke_query_passes(stages):
    launched = []

    def always_unsat(script, timeout_seconds=60.0, solver_cmd=None):
        launched.append(script)
        return SimpleNamespace(kind="unsat", detail="")

    fake = SimpleNamespace(**{**vars(stages), "check": always_unsat, "default_solver_command": list})
    assert preflight(fake).available
    programs = corpus_programs(run.ROOT / "corpus", 0, stages.parse_expectations)
    program = next(p for p in programs if p.label == "storageptr/dangling_pop.sol")
    out = run_program(fake, program)
    decided = [ok for name, ok in check_outputs(fake, out, decide=True) if name == "decide"]
    assert len(launched) == 1 + out.vcs == 1 + len(decided)
    assert decided.count(False) == list(program.expect.values()).count("fails") > 0


def test_statements_are_counted_in_bodies_only():
    source = """contract C {
        struct S { int x; }
        int[3] a;
        constructor() {
            a[0] = 1; // assert(false);
            if (a[0] == 1) { a[1] = 2; }
            assert(a[1] == 2);
        }
        function f() public { a[2] = 3; }
    }
    """
    assert count_statements(source) == 4
    assert count_asserts(source) == 1


def _counts(stages, programs):
    outs = [run_program(stages, p) for p in programs]
    return [(o.source, o.vcs, o.smt_bytes) for o in outs]


def test_deterministic_counts_repeat_across_runs(stages):
    corpus = corpus_programs(run.ROOT / "corpus", 0, stages.parse_expectations)
    fuzz = [Program(f"fuzz:{s}", fuzz_seed=s) for s in run.FUZZ_WARMUP_SEEDS]
    stress = [Program("stress", stress_source(300, 25, random.Random(5)))]
    first = _counts(stages, corpus + fuzz + stress)
    again = _counts(load_stages(), corpus + fuzz + stress)
    assert first == again
    corpus_counts = first[: len(corpus)]
    assert sum(vcs for _, vcs, _ in corpus_counts) == BASELINE["corpus"]["vcs_per_pass"]
    assert sum(b for _, _, b in corpus_counts) == BASELINE["corpus"]["smt_bytes_per_pass"]
