"""Corpus harness classification, JSON schema, and CLI entry points."""

import argparse
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import sources
from sources import DANGLING_POINTER, write_test
from solmem import harness, solver, verify
from solmem.cli import build_parser, main
from solmem.errors import TOO_DEEP
from solmem.generator import DEFAULT_BUDGET, random_program
from solmem.harness import (
    judge,
    judge_by_oracle,
    parse_expectations,
    render_table,
    report_json,
    run_corpus,
    run_fuzz,
    run_test,
    scan_expectations,
)
from solmem.parser import parse_source
from solmem.sol_ast import AssertStmt
from solmem.verify import AssertResult, FunctionReport, VerifyReport, verify_source


def test_parse_expectations_attach_to_next_assert():
    text = """contract C {
    constructor() {
        assert(true);
        //expect: fails
        assert(false);
        assert(1 == 1); //expect: holds
    }
}
"""
    expectations = parse_expectations(text)
    assert expectations == {3: "holds", 5: "fails", 6: "holds"}


def test_parse_expectations_skip_asserts_in_comments():
    text = """//expect: fails
// assert(false);
x = 1; /* assert(x == 2); */
assert(x == 2);
"""
    assert parse_expectations(text) == {4: "fails"}


# Five asserts on four lines: an expectation applies to the next assert
# after it, and one in a block comment is no assert.
SHARED_LINES = """contract C { int x; constructor() {
    x = 1;
    //expect: fails
    assert(x == 2); assert(x == 1);
    assert(x == 1); //expect: fails
    assert(x == 3);
    /* assert(x == 9); */ assert(x == 1);
} }
"""


def test_scan_expectations_give_each_assert_its_own():
    assert scan_expectations(SHARED_LINES) == [(4, "fails"), (4, "holds"), (5, "holds"), (6, "fails"), (7, "holds")]
    # the line-keyed view keeps the first assert of each line
    assert parse_expectations(SHARED_LINES) == {4: "fails", 5: "holds", 6: "fails", 7: "holds"}


# An assert whose `(` follows a comment is an assert all the same, so the
# expectation below it belongs to the second assert only.
COMMENT_BEFORE_PAREN = """contract C { int x; constructor() {
    assert /* c */ (x == 1);
    //expect: fails
    assert(x == 2);
} }
"""


def test_scan_expectations_count_an_assert_whose_paren_follows_a_comment():
    assert scan_expectations(COMMENT_BEFORE_PAREN) == [(2, "holds"), (4, "fails")]


def _scanned_sources() -> list[str]:
    """Every corpus file, every source of `tests/sources.py`, fuzz seeds
    0-199, one stress program and `COMMENT_BEFORE_PAREN`."""
    texts = [*sources.corpus().values()]
    texts += [sources.DATA_STORAGE, sources.POINTER_CONTRACT, sources.TUPLE_SWAP, sources.DANGLING_POINTER]
    texts += [sources.fuzz(seed) for seed in range(200)]
    return texts + [sources.checked_stress_source(300, 25), COMMENT_BEFORE_PAREN]


def test_scan_expectations_find_the_asserts_the_parser_finds():
    """The scanner reads the lexer's lexemes, so on each of these sources,
    all of which parse, it yields one entry per parsed assert, on the
    parser's line, in source order."""
    texts = _scanned_sources()
    assert len(texts) == 238
    for text in texts:
        functions = sorted(parse_source(text).all_functions(), key=lambda f: f.line)
        lines = [s.line for f in functions for s in f.body if isinstance(s, AssertStmt)]
        assert [line for line, _ in scan_expectations(text)] == lines, text


def _report(*asserts: tuple[int, str]) -> VerifyReport:
    return VerifyReport(functions=[FunctionReport("constructor", [AssertResult(line, "x", v) for line, v in asserts])])


def test_judge_grades_asserts_that_share_a_line_by_ordinal():
    expected = [want for _, want in scan_expectations(SHARED_LINES)]
    verdicts = [(4, "counterexample"), (4, "verified"), (5, "verified"), (6, "counterexample"), (7, "verified")]
    assert judge(_report(*verdicts), expected) == ("correct", "", 5)
    # the second assert of line 4 holds, so a counterexample to it is wrong
    verdicts[1] = (4, "counterexample")
    assert judge(_report(*verdicts), expected) == (
        "incorrect", "constructor:4: expected holds, verifier says fails", 1)


def test_judge_compares_only_the_expected_asserts():
    report = _report((1, "verified"), (2, "counterexample"))
    assert judge(report, ["holds"]) == ("correct", "", 1)
    assert judge(report, []) == ("correct", "", 0)
    assert judge(report, ["holds", "fails", "holds"]) == (
        "incorrect", "verifier reported 2 asserts, expected 3", 2)


def test_judge_takes_asserts_in_source_order_across_functions():
    """The report lists the constructor first; expectations are in
    source order, where a function may come before the constructor."""
    report = VerifyReport(functions=[
        FunctionReport("constructor", [AssertResult(5, "x", "counterexample")]),
        FunctionReport("f", [AssertResult(2, "x", "verified")]),
    ])
    assert judge(report, ["holds", "fails"]) == ("correct", "", 2)


def test_run_test_grades_asserts_that_share_a_line(tmp_path, monkeypatch):
    """End to end with a stub solver that answers the smoke query and
    then each assert's query in order: refuted, verified, verified,
    refuted, verified."""
    f = write_test(tmp_path, "assignment", "shared.sol", SHARED_LINES)
    stub = shlex.join([sys.executable, str(TESTS / "stub_solver.py"), "unsat,sat,unsat,unsat,sat,unsat",
                       str(tmp_path / "log")])
    monkeypatch.setenv("SOLMEM_SOLVER", stub)
    outcome = run_test(f)
    assert (outcome.observed, outcome.detail) == ("correct", "")
    assert outcome.expected == ["fails", "holds", "holds", "fails", "holds"]


def test_parse_expectations_on_the_corpus_are_unchanged():
    """The benchmark grades the corpus with `parse_expectations`; its
    view of all 32 files is as it was when it read expectations by line."""
    recorded = json.loads((TESTS / "data" / "corpus_expectations.json").read_text())
    found = {
        name: {str(line): want for line, want in parse_expectations(text).items()}
        for name, text in sources.corpus().items()
    }
    assert len(found) == 32
    assert found == recorded


def test_run_test_correct_and_incorrect(tmp_path, solver_available):
    good = write_test(
        tmp_path,
        "assignment",
        "good.sol",
        "contract C { int x; constructor() { x = 1; assert(x == 1); } }",
    )
    assert run_test(good).observed == "correct"

    # a failing assert marked as expected-to-fail still counts correct
    expected_fail = write_test(
        tmp_path,
        "assignment",
        "efail.sol",
        "contract C { int x; constructor() { //expect: fails\n assert(x == 1); } }",
    )
    assert run_test(expected_fail).observed == "correct"

    wrong = write_test(
        tmp_path,
        "assignment",
        "wrong.sol",
        "contract C { int x; constructor() { assert(x == 1); } }",
    )
    outcome = run_test(wrong)
    assert outcome.observed == "incorrect"
    assert "expected holds" in outcome.detail


def test_run_test_unsupported_and_invalid(tmp_path):
    loops = write_test(
        tmp_path, "init", "loops.sol", "contract C { function f() { while (true) {} } }"
    )
    assert run_test(loops).observed == "unsupported"

    bad = write_test(tmp_path, "init", "bad.sol", "contract C { int x = }")
    assert run_test(bad).observed == "invalid"

    needs_unroll = write_test(
        tmp_path,
        "init",
        "unroll.sol",
        "contract C { struct S { int x; } S[] a; constructor() { S[] memory m = a; } }",
    )
    assert run_test(needs_unroll).observed == "unsupported"


def test_corpus_aggregation_and_json(tmp_path, solver_available):
    write_test(tmp_path, "storage", "a.sol",
           "contract C { int x; constructor() { assert(x == 0); } }")
    write_test(tmp_path, "storage", "b.sol",
           "contract C { int x; constructor() { //expect: fails\n assert(x == 1); } }")
    write_test(tmp_path, "delete", "c.sol",
           "contract C { int x; constructor() { delete x; assert(x == 0); } }")
    classes = run_corpus(tmp_path)
    assert classes["storage"].counts["correct"] == 2
    assert classes["delete"].counts["correct"] == 1
    assert classes["storage"].total == 2

    table = render_table(classes)
    assert "storage (2)" in table and "delete (1)" in table

    payload = report_json(classes)
    assert payload["schema"] == 1
    assert payload["classes"]["storage"]["correct"] == 2
    json.dumps(payload)  # serializable


def test_empty_corpus_renders_all_zero(tmp_path):
    (tmp_path / "assignment").mkdir()
    classes = run_corpus(tmp_path)
    assert classes["assignment"].total == 0
    assert "assignment (0)" in render_table(classes)


def test_cli_corpus_table_says_why_a_test_is_unsupported(tmp_path, capsys, monkeypatch):
    """Each test that is not correct gets a line with its reason under
    its class row, said once and after the function it is in: for a test
    that needs a length bound, the reason names `--unroll`. `judge`
    decides unsupported before any solver runs. `verify` keeps its own
    wording; there every query answers unsat, and no solver runs."""
    u = write_test(tmp_path, "k", "u.sol",
           "contract C { int[] a; constructor() { int[] memory m = a; assert(m.length == 0); } "
           "function g(int[][] memory q) public { assert(q.length >= 0); } }")
    write_test(tmp_path, "k", "loops.sol", "contract C { function f() { while (true) {} } }")
    assert main(["corpus", str(tmp_path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[2].startswith("k (2) ") and out[2].split()[2:5] == ["0", "0", "2"]
    assert out[3] == "    loops.sol: unsupported: 1:29: loops"
    assert out[4] == (
        "    u.sol: unsupported: g: memory parameter containing a dynamic array of reference base type "
        "requires quantified non-aliasing assumptions (use --unroll)"
    )
    assert len(out) == 5
    monkeypatch.setattr(verify, "query", lambda *_: solver.SolverVerdict("unsat"))
    assert main(["verify", str(u)]) == 2
    assert capsys.readouterr().out.splitlines()[1] == "g: unsupported: " + out[4].split(": g: ", 1)[1]


def test_cli_corpus_that_grades_no_test_is_an_error(tmp_path, capsys, monkeypatch):
    """A corpus whose every test is unsupported would pass having graded
    nothing, as an empty one would. One supported test is enough to pass.
    Every query answers unsat; no solver runs."""
    monkeypatch.setattr(verify, "query", lambda *_: solver.SolverVerdict("unsat"))
    write_test(tmp_path, "k", "w.sol", "contract C { function f() { while (true) {} } }")
    write_test(tmp_path, "k", "u.sol", "contract C { struct S { int x; } function g(S[] memory q) public { } }")
    assert main(["corpus", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[2].split()[2:5] == ["0", "0", "2"]
    assert err == f"error: every test in {tmp_path} is unsupported\n"
    write_test(tmp_path, "k", "c.sol", "contract C { int x; constructor() { assert(x == 0); } }")
    assert main(["corpus", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[2].split()[2:5] == ["1", "0", "2"] and err == ""


def test_cli_corpus_without_tests_is_a_usage_error(tmp_path, capsys):
    """A corpus that holds no test would pass having checked nothing: an
    empty directory, and one with contracts but no class directories
    (a class directory given in place of the corpus)."""
    (tmp_path / "empty").mkdir()
    write_test(tmp_path, "flat", "a.sol", "contract C { int x; constructor() { assert(x == 0); } }")
    for corpus in ("empty", "flat"):
        assert main(["corpus", str(tmp_path / corpus)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path / corpus} holds no <class>/<name>.sol file\n"


def test_cli_corpus_grades_a_source_too_deep_to_parse_as_an_error(tmp_path, capsys):
    """The recursion limit is the environment's failure, as in `verify`:
    an `error` row and exit 2, not an `invalid` source and exit 1. No
    solver runs, since the source never parses."""
    write_test(tmp_path, "k", "deep.sol", sources.deep_source(sources.parenthesized(400)))
    assert main(["corpus", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[2].split()[2:8] == ["0", "0", "0", "0", "0", "1"]
    assert out.splitlines()[3] == f"    deep.sol: error: {TOO_DEEP}"
    assert err == ""


def test_cli_fuzz_grades_a_recursion_limit_as_an_error(capsys, monkeypatch):
    """A seed that stops at the recursion limit is an error seed: the
    summary still prints, and fuzz exits 2 without a traceback."""
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(harness, "verify_source", too_deep)
    assert main(["fuzz", "--count", "1"]) == 2
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "1 seeds, 0 asserts compared, 0 disagreements, 1 errors or timeouts"
    assert lines[2:] == [f"  seed 0: error: {TOO_DEEP}"]
    assert err == ""


@pytest.mark.parametrize("command", ["verify", "corpus", "fuzz"])
def test_cli_unwritable_output_is_one_error_line_and_exit_2(tmp_path, command):
    """Each run would exit 0 against a solver that says unsat to every
    query; only writing its output fails."""
    source = "contract C { int x; constructor() { x = 1; assert(x == 1); } }"
    (tmp_path / "plain").write_text("")
    if command == "verify":
        f = write_test(tmp_path, "x", "t.sol", source)
        argv = [str(f), "--emit-smt", str(tmp_path / "plain" / "smt")]
    elif command == "corpus":
        write_test(tmp_path / "corpus", "storage", "t.sol", source)
        argv = [str(tmp_path / "corpus"), "--json", str(tmp_path / "missing" / "r.json")]
    else:
        argv = ["--count", "1", "--budget", "0", "--json", str(tmp_path / "missing" / "r.json")]
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat", str(tmp_path / "log")]
    proc = subprocess.run([sys.executable, "-m", "solmem.cli", command, *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src"),
                                            "SOLMEM_SOLVER": shlex.join(stub)})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_differential_agrees_on_dangling(solver_available):
    observed, detail, compared = judge_by_oracle(verify_source(DANGLING_POINTER))
    assert observed == "correct", detail
    assert compared == 2


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_exit_codes(tmp_path, capsys, solver_available):
    ok = tmp_path / "ok.sol"
    ok.write_text("contract C { int x; constructor() { assert(x == 0); } }")
    assert main(["verify", str(ok)]) == 0
    out = capsys.readouterr().out
    assert "verified" in out

    bad = tmp_path / "bad.sol"
    bad.write_text("contract C { int x; constructor() { assert(x == 1); } }")
    assert main(["verify", str(bad)]) == 1
    assert "counterexample" in capsys.readouterr().out

    loops = tmp_path / "loops.sol"
    loops.write_text("contract C { function f() { for (;;) {} } }")
    assert main(["verify", str(loops)]) == 2
    assert "unsupported: loops" in capsys.readouterr().out


def test_cli_verify_prints_asserts_with_source_names(tmp_path, capsys, monkeypatch):
    """The resolver renames a parameter that shadows a state variable
    (`x~2`), and a local declared again in a later function; an assert
    is still printed as written."""
    f = tmp_path / "t.sol"
    f.write_text(
        "contract C { int x; function f(int x) { x = 1; assert(x == 1); }\n"
        "function g() { int y = 2; } function h() { int y = 3; assert(y == 3 && x == 0); } }"
    )
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat", str(tmp_path / "log")]
    monkeypatch.setenv("SOLMEM_SOLVER", shlex.join(stub))
    assert main(["verify", str(f)]) == 0
    out = capsys.readouterr().out
    assert "f:1: assert((x == 1)): verified" in out
    assert "h:2: assert(((y == 3) && (x == 0))): verified" in out
    assert "~" not in out


BOUNDED = (
    "contract C { struct S { int x; } function f(int n) public {\n"
    "assert(n == n); S[] memory a = new S[](LENGTH);\nassert(a.length <= 2); } }"
)


def test_cli_verify_says_bounded_where_a_verdict_rests_on_unroll(tmp_path, capsys, monkeypatch):
    """With the length `n` unrolled at 2, the second assert's VC assumes
    `a.length <= 2`, so an unsat answer covers only those lengths (at
    n = 3 the assert fails): `bounded`, exit 2. The first assert precedes
    the bound and stays verified; a counterexample keeps its verdict."""
    f = tmp_path / "b.sol"
    f.write_text(BOUNDED.replace("LENGTH", "n"))
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat", str(tmp_path / "log")]
    monkeypatch.setenv("SOLMEM_SOLVER", shlex.join(stub))
    assert main(["verify", str(f), "--unroll", "2"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("f:2: assert((n == n)): verified")
    assert out[1] == "f:3: assert((a.length <= 2)): bounded holds for array lengths up to 2 only (--unroll 2)"
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat,model", str(tmp_path / "log2")]
    monkeypatch.setenv("SOLMEM_SOLVER", shlex.join(stub))
    assert main(["verify", str(f), "--unroll", "2"]) == 1
    assert "f:3: assert((a.length <= 2)): counterexample [n = 0]" in capsys.readouterr().out


@pytest.mark.parametrize("unroll", [[], ["--unroll", "2"]], ids=["plain", "unroll"])
def test_cli_verify_without_a_bound_assumption_says_verified(tmp_path, capsys, monkeypatch, unroll):
    """A constant length needs no bound, so `--unroll` changes nothing."""
    f = tmp_path / "v.sol"
    f.write_text(BOUNDED.replace("LENGTH", "2"))
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat", str(tmp_path / "log")]
    monkeypatch.setenv("SOLMEM_SOLVER", shlex.join(stub))
    assert main(["verify", str(f), *unroll]) == 0
    out = capsys.readouterr().out
    assert out.count(": verified [") == 2 and "bounded" not in out


def test_cli_verify_prints_a_counterexample_entry_state(tmp_path, capsys, monkeypatch):
    """Against a stub model that sets every Int to 0, the counterexample
    lists the parameter `x` and the state variable it shadows as `this.x`,
    and leaves out the local `y`; `--emit-ir` prints the program in
    SMT-LIB, with the parameter under its resolved name."""
    f = tmp_path / "c.sol"
    f.write_text("contract C { int x; function f(int x) public { int y = x; assert(y == 1); } }")
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat,model", str(tmp_path / "log")]
    monkeypatch.setenv("SOLMEM_SOLVER", shlex.join(stub))
    assert main(["verify", str(f), "--emit-ir"]) == 1
    out = capsys.readouterr().out
    assert "(declare-const x~2 Int)\n(declare-const y Int)\n(assign y x~2)\n(check (= y 1))\n" in out
    assert "f:1: assert((y == 1)): counterexample [this.x = 0, x = 0]\n" in out


def test_cli_verify_emits_artifacts(tmp_path, capsys, solver_available):
    f = tmp_path / "t.sol"
    f.write_text("contract C { int x; constructor() { x = 2; assert(x == 2); } }")
    smt_dir = tmp_path / "smt"
    assert main(["verify", str(f), "--emit-smt", str(smt_dir), "--emit-ir"]) == 0
    out = capsys.readouterr().out
    assert "(assign x 2)" in out  # intermediate program
    scripts = list(smt_dir.glob("*.smt2"))
    assert len(scripts) == 1
    assert "(check-sat)" in scripts[0].read_text()


def test_cli_run_constructor_json(tmp_path, capsys):
    f = tmp_path / "t.sol"
    f.write_text("contract C { int x; }")
    assert main(["run", str(f)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["storage"] == {"x": 0}
    assert payload["asserts"] == []


def test_cli_run_function_with_args(tmp_path, capsys):
    f = tmp_path / "t.sol"
    f.write_text(
        """
contract C {
    mapping(address => int) m;
    function put(address k, int v) { m[k] = v; }
    function get(address k) returns (int out) { out = m[k]; }
}
"""
    )
    assert main(["run", str(f), "--entry", "get", "--args", "[7]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["returns"] == {"out": 0}


def test_cli_run_binds_args_to_the_constructor(tmp_path, capsys):
    f = tmp_path / "t.sol"
    f.write_text(
        "contract C { struct S { int x; } int y; "
        "constructor(int a, S memory m) { y = a + m.x; assert(y == 12); } }"
    )
    assert main(["run", str(f), "--args", '[5, {"x": 7}]']) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["storage"] == {"y": 12}
    assert payload["asserts"] == [{"index": 0, "line": 1, "passed": True}]
    assert main(["run", str(f)]) == 2
    assert "constructor takes a list of 2 arguments, got []" in capsys.readouterr().err
    (tmp_path / "none.sol").write_text("contract C { int y; }")
    assert main(["run", str(tmp_path / "none.sol"), "--args", "[5]"]) == 2
    assert "constructor takes a list of 0 arguments, got [5]" in capsys.readouterr().err


def test_cli_run_reports_assert_failure(tmp_path, capsys):
    f = tmp_path / "t.sol"
    f.write_text("contract C { int x; constructor() { assert(x == 1); } }")
    assert main(["run", str(f)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["asserts"][0]["passed"] is False


_ONE_ARG = "contract C { int x; function f(int a) { x = a; } }"
_CTOR_ARG = "contract C { int y; constructor(int a) { y = a; } function f(int b) { y = b; } }"
_POINTER_ARG = "contract C { struct S { int[] ys; } S[] ss; function f(int[] storage p) { } }"
_MEMORY_ARGS = "contract C { struct S { int x; } function f(int[2] memory m, S memory s) { } }"


@pytest.mark.parametrize(
    "source, argv, message",
    [
        (None, [], "No such file or directory"),
        (_ONE_ARG, ["--entry", "f", "--args", "[1,"], "--args is not valid JSON"),
        (_ONE_ARG, ["--entry", "f", "--args", '["a"]'], "argument a: expected int, got 'a'"),
        (_ONE_ARG, ["--entry", "f", "--args", '{"a":1}'], "f takes a list of 1 arguments"),
        (_CTOR_ARG, ["--entry", "f", "--args", "[3]"],
         "f runs after the constructor, which takes 1 argument; --args holds only f's arguments"),
        (_POINTER_ARG, ["--entry", "f", "--args", '[["ss", true, "ys"]]'], "argument p: expected an access path to int[]"),
        (_POINTER_ARG, ["--entry", "f", "--args", "[5]"], "argument p: expected an access path to int[], got 5"),
        (_POINTER_ARG, ["--entry", "f", "--args", '[["ss", "0", "ys"]]'], "expected an access path"),
        (_POINTER_ARG, ["--entry", "f", "--args", '[["ss", 0]]'], "expected an access path"),
        (_POINTER_ARG, ["--entry", "f", "--args", '[["ss", 0, "zs"]]'], "expected an access path"),
        (_POINTER_ARG, ["--entry", "f", "--args", '[["ss", 0, "ys", 0]]'], "expected an access path"),
        (_POINTER_ARG, ["--entry", "f", "--args", "[[]]"], "expected an access path"),
        (_POINTER_ARG, ["--entry", "f", "--args", "[[0, 0, 0]]"], "expected an access path"),
        (_MEMORY_ARGS, ["--entry", "f", "--args", '[[1, 2, 3], {"x": 1}]'], "argument m: expected int[2]"),
        (_MEMORY_ARGS, ["--entry", "f", "--args", '[[1, 2], {"y": 1}]'], "argument s: expected S"),
        (_MEMORY_ARGS, ["--entry", "f", "--args", '[[1, 2], {"x": 1, "y": 2}]'], "argument s: expected S"),
        ("contract C { int x; constructor() { x = " + "(" * 400 + "1" + ")" * 400 + "; } }", [],
         TOO_DEEP),
        # The oracle evaluates a long sum with a loop, but takes frames per
        # index of a read from a 400-dimensional array, which the parser
        # and the resolver still accept.
        ("contract C { int x; int" + "[]" * 400 + " a; constructor() { x = a" + "[0]" * 400 + "; } }", [],
         TOO_DEEP),
        # runs, but its final state is too deep to serialize
        ("contract C { int" + "[1]" * 600 + " a; constructor() { } }", [],
         TOO_DEEP),
    ],
    ids=[
        "missing-file", "malformed-json", "wrong-type", "not-a-list", "constructor-takes-arguments",
        "pointer-not-integers", "pointer-not-a-list", "pointer-string-index", "pointer-short-of-a-leaf",
        "pointer-missing-member", "pointer-past-the-leaf", "pointer-empty", "pointer-ordinals", "memory-array-size", "memory-struct-member",
        "memory-struct-extra-member", "too-deep-to-parse", "too-deep-to-run", "too-deep-to-serialize",
    ],
)
def test_cli_run_bad_input_is_one_error_line_and_exit_2(tmp_path, capsys, source, argv, message):
    f = tmp_path / "t.sol"
    if source is not None:
        f.write_text(source)
    assert main(["run", str(f), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["verify", "run", "corpus"])
def test_cli_source_that_is_not_utf8_is_one_error_line_and_exit_2(tmp_path, capsys, command):
    """Sources are UTF-8 whatever the locale; one that does not decode is
    reported as an unreadable file is, by name."""
    f = tmp_path / "corpus" / "storage" / "t.sol"
    f.parent.mkdir(parents=True)
    f.write_bytes(b"contract C { int x; constructor() { x = 1; assert(x == 1); } } // \xff\n")
    assert main([command, str(tmp_path / "corpus" if command == "corpus" else f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {f} is not UTF-8 text (") and err.count("\n") == 1, err


def test_cli_reads_sources_as_utf8_under_an_ascii_locale(tmp_path):
    f = tmp_path / "t.sol"
    f.write_bytes("contract C { int x; constructor() { x = 1; } } // x ≠ 2\n".encode("utf-8"))
    # the C locale without its coercion to UTF-8 (PEP 538, PEP 540) decodes as ASCII
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(TESTS.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "solmem.cli", "run", str(f)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["storage"] == {"x": 1}


@pytest.mark.parametrize("command", ["verify", "run"])
def test_a_non_ascii_identifier_is_an_error_under_an_ascii_locale(tmp_path, command):
    """Identifiers are ASCII, so no name the pipeline prints or sends to
    the solver needs more than the locale's encoding."""
    f = tmp_path / "t.sol"
    f.write_bytes("contract C { int café; constructor() { café = 1; assert(café == 1); } }\n".encode("utf-8"))
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat", str(tmp_path / "log")]
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(TESTS.parent / "src"), "SOLMEM_SOLVER": shlex.join(stub)}
    proc = subprocess.run([sys.executable, "-m", "solmem.cli", command, str(f)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in (proc.stdout + proc.stderr).splitlines() if "error: " in line]
    assert len(errors) == 1 and errors[0].endswith("error: 1:21: unexpected character '\\xe9'"), errors


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_every_subcommand_reads_each_option_it_declares():
    """An option its command never reads is dead: it parses, then changes
    nothing."""
    unread = []
    for name, sub in subcommands().items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction) and not re.search(rf"\bargs\.{action.dest}\b", source):
                unread.append(f"{name}: {action.dest}")
    assert unread == []


def test_cli_run_accepts_a_negative_path_element(tmp_path, capsys):
    """An index of an access path is a raw Int index, as in the
    translation, so a negative array index names a slot of its own."""
    f = tmp_path / "t.sol"
    f.write_text("contract C { struct T { int z; } T[] ts; function f(T storage p) { p.z = 3; assert(p.z == 3); } }")
    assert main(["run", str(f), "--entry", "f", "--args", '[["ts", -1]]']) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["asserts"] == [{"index": 0, "line": 1, "passed": True}]
    assert payload["storage"] == {"ts": {"length": 0, "elems": []}}


TESTS = Path(__file__).parent


@pytest.mark.parametrize("command", ["verify", "run"])
def test_cli_closed_stdout_is_one_error_line_and_exit_2(tmp_path, command):
    """A reader that goes away is an environment failure, not a
    counterexample or a failed assert."""
    f = tmp_path / "t.sol"
    f.write_text("contract C { int x; constructor() { x = 1; assert(x == 1); } }")
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat", str(tmp_path / "log")]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "solmem.cli", command, str(f)], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src"),
                                   "SOLMEM_SOLVER": shlex.join(stub)})
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_cli_corpus(tmp_path, capsys, solver_available):
    d = tmp_path / "corpus" / "storage"
    d.mkdir(parents=True)
    (d / "t.sol").write_text("contract C { int x; constructor() { assert(x == 0); } }")
    report = tmp_path / "report.json"
    assert main(["corpus", str(tmp_path / "corpus"), "--json", str(report)]) == 0
    assert "storage (1)" in capsys.readouterr().out
    assert json.loads(report.read_text())["schema"] == 1


def test_cli_fuzz_small(tmp_path, capsys, solver_available):
    report = tmp_path / "fuzz.json"
    assert main(["fuzz", "--count", "2", "--budget", "4", "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "0 disagreements" in out
    payload = json.loads(report.read_text())
    assert payload["schema"] == 2
    assert all("rejections" in seed for seed in payload["seeds"])


def test_cli_fuzz_json_reports_rejections_without_solver(tmp_path, monkeypatch):
    report = tmp_path / "fuzz.json"
    monkeypatch.setenv("SOLMEM_SOLVER", "definitely-not-a-solver-binary")
    main(["fuzz", "--start", "69", "--count", "1", "--json", str(report)])
    payload = json.loads(report.read_text())
    assert payload["schema"] == 2
    assert payload["seeds"][0]["rejections"] == {"ParseError": 1, "ResolveError": 1}


def test_corpus_rerun_is_deterministic(tmp_path, solver_available):
    write_test(tmp_path, "storage", "a.sol",
           "contract C { int x; constructor() { assert(x == 0); } }")
    write_test(tmp_path, "storage", "b.sol",
           "contract C { int x; constructor() { //expect: fails\n assert(x == 1); } }")

    def observed():
        classes = run_corpus(tmp_path)
        return sorted((t.test_id, t.observed) for s in classes.values() for t in s.tests)

    assert observed() == observed()


def test_class_totals_count_every_file(tmp_path, solver_available):
    for i in range(3):
        write_test(tmp_path, "init", f"t{i}.sol",
               "contract C { int x; constructor() { assert(x == 0); } }")
    classes = run_corpus(tmp_path)
    assert classes["init"].total == 3 == len(classes["init"].tests)


def test_negative_unroll_is_a_usage_error(tmp_path, capsys):
    """A negative bound N assumes `n <= N` next to `0 <= n` for a length
    `n`: no length satisfies both, so every later assert would verify
    vacuously."""
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", str(tmp_path), "--unroll", "-1"])
    assert exit_info.value.code == 2
    assert "--unroll: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert build_parser().parse_args(["verify", str(tmp_path), "--unroll", "0"]).unroll == 0


def test_the_unroll_bound_is_no_corpus_option(tmp_path, capsys):
    """`--unroll` is a setting of `verify` alone: the corpus runs at the
    encoding's defaults."""
    with pytest.raises(SystemExit) as exit_info:
        main(["corpus", str(tmp_path), "--unroll", "2"])
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: --unroll 2" in capsys.readouterr().err


def test_the_corpus_needs_no_length_bound(monkeypatch):
    """Every function of every shipped corpus file translates without
    `--unroll`, so `corpus` grades none of them unsupported. A corpus
    file that needs a bound fails here. Every query answers unsat; no
    solver runs."""
    monkeypatch.setattr(verify, "query", lambda *_: solver.SolverVerdict("unsat"))
    tests = [t for s in run_corpus(sources.CORPUS_DIR).values() for t in s.tests]
    assert len(tests) == 32
    assert [(t.test_id, t.detail) for t in tests if t.observed == "unsupported"] == []


BAD_NUMBERS = [
    # a fuzz run over no seeds would pass having checked nothing
    ("fuzz", "--count", "-5", "a positive integer"),
    ("fuzz", "--count", "0", "a positive integer"),
    ("fuzz", "--budget", "-1", "a non-negative integer"),
    # a solver given no time would report every VC as a timeout
    ("verify", "--timeout", "-1", "a positive number"),
    ("corpus", "--timeout", "0", "a positive number"),
    ("fuzz", "--timeout", "nan", "a positive number"),
    ("fuzz", "--timeout", "inf", "a positive number"),
]


@pytest.mark.parametrize("command, option, value, expected", BAD_NUMBERS,
                         ids=[f"{c}{o}={v}" for c, o, v, _ in BAD_NUMBERS])
def test_meaningless_numeric_option_is_a_usage_error(tmp_path, capsys, command, option, value, expected):
    argv = [command] + ([str(tmp_path)] if command != "fuzz" else []) + [option, value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"{option}: expected {expected}, got '{value}'" in capsys.readouterr().err


def test_corpus_and_fuzz_each_run_one_pool_of_four_workers(tmp_path, monkeypatch):
    """The pool keeps the size the removed `--jobs` option defaulted to.
    No solver runs: the test does not parse, and the solver command names
    no program."""
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
    write_test(tmp_path, "init", "bad.sol", "contract C { int x = }")
    assert run_corpus(tmp_path)["init"].counts["invalid"] == 1
    monkeypatch.setenv("SOLMEM_SOLVER", "definitely-not-a-solver-binary")
    assert [o.observed for o in run_fuzz(range(2))] == ["error"] * 2
    assert pools == [4, 4]


@pytest.mark.parametrize("command", ["corpus", "fuzz"])
def test_the_pool_size_is_no_option(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command] + ([str(tmp_path)] if command == "corpus" else []) + ["--jobs", "2"])
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "corpus", "fuzz"])
def test_the_solver_command_is_no_option(tmp_path, capsys, command):
    """`SOLMEM_SOLVER` is the one way to name the solver."""
    with pytest.raises(SystemExit) as exit_info:
        main([command] + ([str(tmp_path)] if command != "fuzz" else []) + ["--solver-cmd", "z3"])
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: --solver-cmd z3" in capsys.readouterr().err


def test_each_subcommand_takes_exactly_its_options():
    """The arguments of each subcommand, so that a new option is seen here."""
    declared = {name: {s for a in sub._actions if not isinstance(a, argparse._HelpAction)
                       for s in a.option_strings or [a.dest]}
                for name, sub in subcommands().items()}
    assert declared == {
        "verify": {"file", "--timeout", "--unroll", "--emit-smt", "--emit-ir"},
        "run": {"file", "--entry", "--args"},
        "corpus": {"dir", "--timeout", "--json"},
        "fuzz": {"--timeout", "--start", "--count", "--budget", "--json"},
    }


def test_each_run_default_has_one_owner():
    """The command line and every function that takes a timeout or a
    budget default to the value its owner states."""
    for command in (["verify", "f.sol"], ["corpus", "d"], ["fuzz"]):
        assert build_parser().parse_args(command).timeout == solver.DEFAULT_TIMEOUT_SECONDS
    assert build_parser().parse_args(["fuzz"]).budget == DEFAULT_BUDGET
    timed = [solver.check, solver.query, verify.verify_translated, verify.verify_source,
             run_test, run_corpus, run_fuzz]
    for fn in timed:
        [param] = [p for name, p in inspect.signature(fn).parameters.items() if name.startswith("timeout")]
        assert param.default == solver.DEFAULT_TIMEOUT_SECONDS, fn.__name__
    for fn in (random_program, run_fuzz):
        assert inspect.signature(fn).parameters["size_budget"].default == DEFAULT_BUDGET, fn.__name__
    for fn in (run_test, run_corpus):  # the corpus runs without a length bound
        assert "unroll" not in inspect.signature(fn).parameters, fn.__name__


def test_smallest_meaningful_numeric_options_parse():
    args = build_parser().parse_args(["fuzz", "--count", "1", "--budget", "0", "--timeout", "0.5"])
    assert (args.count, args.budget, args.timeout) == (1, 0, 0.5)
