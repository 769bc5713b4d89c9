"""Acceptance suite: the criteria that need a solver or the whole
corpus, each at its stated tolerance.

The other criteria are checked once each, in the module that owns the
property: 1 (pack/unpack goldens, within 1 s) by
`test_storage_tree_pack_unpack.py::test_pack_goldens`, 6a
(normalize/SSA equivalence over seeds 0-999) by
`test_normalize_ssa.py::test_transformations_preserve_evaluation`, 6b
(non-aliasing and deep copy) by `test_invariants.py`'s
`test_storage_non_aliasing_frames` and
`test_deep_copy_storage_to_memory_preserves_source`, and 7 (default-value
conformance) by its `test_storage_default_conformance` and
`test_memory_default_conformance`.

Each test prints one `ACCEPTANCE <n>: ... PASS` line on success; a
failure raises with the offending details. Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.
"""

import time

from sources import CORPUS_DIR, DANGLING_POINTER, compile_source, corpus, tuple_swap_with
from solmem.harness import run_corpus, run_fuzz, scan_expectations
from solmem.translate import translate_function
from solmem.verify import ssa_form, vc_script, verify_source


def _report(n: int, label: str):
    print(f"ACCEPTANCE {n}: {label} PASS")


# ---------------------------------------------------------------------------
# 2. tuple-order semantics


def test_criterion_2_tuple_order(solver_available):
    positive = tuple_swap_with(
        "s1.x == 3 && s2.x == 1 && s3.x == 2", "s1.x == 1 && s2.x == 1 && s3.x == 1"
    )
    report = verify_source(positive, timeout=10.0)
    verdicts = [(f.name, a.verdict, a.time_seconds) for f in report.functions for a in f.asserts]
    assert all(v == "verified" for _, v, _ in verdicts), verdicts
    assert all(t < 10.0 for _, _, t in verdicts), verdicts

    negative = tuple_swap_with(
        "!(s1.x == 3 && s2.x == 1 && s3.x == 2)", "!(s1.x == 1 && s2.x == 1 && s3.x == 1)"
    )
    report = verify_source(negative, timeout=10.0)
    for f in report.functions:
        for a in f.asserts:
            assert a.verdict == "counterexample", (f.name, a.verdict)
            assert a.model, "counterexample must carry a model"
            assert a.time_seconds < 10.0
    _report(2, "tuple swaps verified, negations refuted with models")


# ---------------------------------------------------------------------------
# 3. dangling-pointer semantics


def test_criterion_3_dangling_pointer(solver_available):
    report = verify_source(DANGLING_POINTER, timeout=10.0)
    (ctor,) = report.functions
    assert ctor.unsupported is None
    first, second = ctor.asserts
    assert first.verdict == "verified", first
    assert second.verdict == "counterexample", second
    assert first.time_seconds < 10.0 and second.time_seconds < 10.0
    _report(3, "pop keeps the slot for pointers, indexing sees the default")


# ---------------------------------------------------------------------------
# 4. five-class corpus


def test_criterion_4_corpus(solver_available):
    classes = run_corpus(CORPUS_DIR, timeout=60.0)
    assert set(classes) == {"assignment", "delete", "init", "storage", "storageptr"}
    total = sum(s.total for s in classes.values())
    unsupported = sum(s.counts["unsupported"] for s in classes.values())
    for name, s in classes.items():
        assert s.total >= 5, f"{name} has only {s.total} tests"
        assert s.counts["incorrect"] == 0, [t.detail for t in s.tests if t.observed == "incorrect"]
        assert s.counts["timeout"] == 0
        assert s.counts["invalid"] == 0, [t.detail for t in s.tests if t.observed == "invalid"]
    assert unsupported <= total * 0.10, f"{unsupported}/{total} unsupported"
    counts = ", ".join(f"{n}={classes[n].counts['correct']}/{classes[n].total}" for n in sorted(classes))
    _report(4, f"corpus all correct ({counts}, unsupported {unsupported}/{total})")


# ---------------------------------------------------------------------------
# 5. differential fuzzing, 500 seeds


def test_criterion_5_differential_fuzzing(solver_available):
    start = time.monotonic()
    outcomes = run_fuzz(range(500), size_budget=8, timeout=60.0)
    elapsed = time.monotonic() - start
    disagreements = [o for o in outcomes if not o.agreed]
    compared = sum(o.compared for o in outcomes)
    assert not disagreements, [(o.seed, o.detail) for o in disagreements[:5]]
    assert compared > 500, "expected more than one assert per seed on average"
    assert elapsed < 1800, f"fuzzing took {elapsed:.0f}s"
    _report(5, f"500 seeds, {compared} asserts, 100% agreement in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. invariant suites


def test_criterion_6c_quantifier_free_corpus():
    """Every corpus function translates, so every assert of the corpus
    gets its script."""
    scripts: list[str] = []
    asserts = 0
    for text in corpus().values():
        asserts += len(scan_expectations(text))
        contract = compile_source(text)
        for fn in contract.all_functions():
            tf = translate_function(contract, fn)
            ssa = ssa_form(tf.program).program
            scripts.extend(vc_script(ssa, i) for i in range(len(tf.asserts)))
    assert len(scripts) == asserts > 0
    for script in scripts:
        assert "forall" not in script and "exists" not in script
    _report(6, f"(c) {len(scripts)} emitted scripts contain no quantifiers")

