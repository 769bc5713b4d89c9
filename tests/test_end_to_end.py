"""Verifier end-to-end behaviors not covered by the corpus."""

import pytest

from sources import compile_source, corpus
from solmem import verify
from solmem.oracle import exec_function, run_constructor
from solmem.solver import SolverVerdict
from solmem.translate import translate_function
from solmem.verify import ssa_form, vc_script, verify_source


def verdicts(report):
    return [(f.name, a.verdict) for f in report.functions for a in f.asserts]


def test_verify_queries_the_script_of_each_assert(monkeypatch):
    """For every assert of every corpus function, `verify_source` keeps
    and sends the script that `vc_script` prints for that assert's
    ordinal in `ssa_form`'s program. Every query answers unsat; no solver
    is looked up."""
    sent = []
    monkeypatch.setattr(verify, "query", lambda script, _: sent.append(script) or SolverVerdict("unsat"))
    kept = []
    for name, text in corpus().items():
        report = verify_source(text)
        for f, fn in zip(report.functions, report.contract.all_functions(), strict=True):
            tf = translate_function(report.contract, fn)
            ssa = ssa_form(tf.program).program
            assert f.smt_scripts == [vc_script(ssa, a.ordinal) for a in tf.asserts], f"{name}: {f.name}"
            kept += f.smt_scripts
    assert sent == kept and len(kept) == 87


def test_default_context_pointer_param(solver_available):
    # no storage of type S exists: pointers resolve through the default
    # context, and write-then-read through the same pointer still holds
    src = """
contract Lib {
    struct S { int x; }
    int unrelated;
    function bump(S storage p) {
        p.x = 5;
        assert(p.x == 5);
    }
}
"""
    report = verify_source(src, timeout=30)
    assert verdicts(report) == [("bump", "verified")]


def test_default_context_oracle_roundtrip():
    src = """
contract Lib {
    struct S { int x; }
    int unrelated;
    function bump(S storage p) returns (int out) {
        p.x = 41;
        p.x = p.x + 1;
        out = p.x;
    }
}
"""
    c = compile_source(src)
    result = exec_function(c, "bump", [["defaultctx$S", 3]])
    assert result.returns["out"] == 42


# every assert verifies and passes in the interpreter
ALL_HOLD = {
    "conditional_mixing_memory_and_storage": """
contract C {
    struct S { int x; }
    S s;
    constructor() {
        s.x = 3;
        S memory m = S(9);
        S memory pick = true ? m : s;
        S memory pick2 = false ? m : s;
        assert(pick.x == 9);
        assert(pick2.x == 3);
        pick2.x = 7;
        assert(s.x == 3);
    }
}
""",
    "storage_pointer_swap_via_tuple": """
contract C {
    struct S { int x; }
    S s1;
    S s2;
    constructor() {
        s1.x = 1;
        s2.x = 2;
        S storage p = s1;
        S storage q = s2;
        (p, q) = (q, p);
        p.x = 10;
        assert(s2.x == 10);
        assert(s1.x == 1);
    }
}
""",
    "chained_pointer_reads_after_mutation": """
contract C {
    struct T { int z; }
    struct S { int x; T t; }
    S s;
    constructor() {
        S storage p = s;
        T storage q = p.t;
        s.t.z = 6;
        assert(q.z == 6);
        q.z = 7;
        assert(p.t.z == 7);
    }
}
""",
}


@pytest.mark.parametrize("name", ALL_HOLD)
def test_every_assert_verifies_and_passes_in_the_interpreter(name, solver_available):
    report = verify_source(ALL_HOLD[name], timeout=30)
    assert all(v == "verified" for _, v in verdicts(report)), verdicts(report)
    assert all(a.passed for a in run_constructor(compile_source(ALL_HOLD[name])).asserts)


def test_new_array_symbolic_length_value_base(solver_available):
    src = """
contract C {
    int n;
    constructor() {
        n = 4;
        int[] memory m = new int[](n + 1);
        assert(m.length == 5);
        assert(m[3] == 0);
    }
}
"""
    report = verify_source(src, timeout=30)
    assert all(v == "verified" for _, v in verdicts(report)), verdicts(report)


def test_mixed_function_reports(solver_available):
    src = """
contract C {
    struct S { int x; }
    S[] a;
    int probe;
    function ok() {
        probe = 1;
        assert(probe == 1);
    }
    function needsUnroll() {
        S[] memory m = a;
    }
}
"""
    report = verify_source(src, timeout=30)
    by_name = {f.name: f for f in report.functions}
    assert by_name["ok"].asserts[0].verdict == "verified"
    assert by_name["needsUnroll"].unsupported is not None
    assert report.exit_code() == 2


def test_unroll_flag_translates_bounded(solver_available):
    src = """
contract C {
    struct S { int x; }
    S[] a;
    constructor() {
        a.push(S(8));
        S[] memory m = a;
        assert(m[0].x == 8);
    }
}
"""
    report = verify_source(src, timeout=30, unroll=3)
    # the copy into memory assumes `a.length <= 3`, so unsat covers only that
    assert verdicts(report) == [("constructor", "bounded")], verdicts(report)
    # and the oracle agrees with the bounded encoding on this program
    result = run_constructor(compile_source(src))
    assert [a.passed for a in result.asserts] == [True]


def test_push_evaluates_target_once():
    # the pushed element expression may itself read the array
    src = """
contract C {
    int[] a;
    constructor() {
        a.push(1);
        a.push(a[0] + a.length);
        assert(a[1] == 2);
        assert(a.length == 2);
    }
}
"""
    result = run_constructor(compile_source(src))
    assert all(a.passed for a in result.asserts)
