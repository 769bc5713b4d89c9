"""Corpus harness classification, JSON schema, and CLI entry points."""

import argparse
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sources import DANGLING_POINTER
from solmem.cli import build_parser, main
from solmem.harness import (
    differential,
    judge,
    parse_expectations,
    render_table,
    report_json,
    run_corpus,
    run_test,
    scan_expectations,
)
from solmem.verify import AssertResult, FunctionReport, VerifyReport


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


def test_run_test_grades_asserts_that_share_a_line(tmp_path):
    """End to end with a stub solver that answers the smoke query and
    then each assert's query in order: refuted, verified, verified,
    refuted, verified."""
    f = _write(tmp_path, "assignment", "shared.sol", SHARED_LINES)
    stub = shlex.join([sys.executable, str(TESTS / "stub_solver.py"), "unsat,sat,unsat,unsat,sat,unsat",
                       str(tmp_path / "log")])
    outcome = run_test(f, solver_cmd=stub)
    assert (outcome.observed, outcome.detail) == ("correct", "")
    assert outcome.expected == ["fails", "holds", "holds", "fails", "holds"]


def test_parse_expectations_on_the_corpus_are_unchanged():
    """The benchmark grades the corpus with `parse_expectations`; its
    view of all 32 files is as it was when it read expectations by line."""
    corpus = TESTS.parent / "corpus"
    recorded = json.loads((TESTS / "data" / "corpus_expectations.json").read_text())
    found = {
        str(p.relative_to(corpus)): {str(line): want for line, want in parse_expectations(p.read_text()).items()}
        for p in sorted(corpus.glob("*/*.sol"))
    }
    assert len(found) == 32
    assert found == recorded


def _write(tmp_path: Path, cls: str, name: str, text: str) -> Path:
    d = tmp_path / cls
    d.mkdir(parents=True, exist_ok=True)
    f = d / name
    f.write_text(text)
    return f


def test_run_test_correct_and_incorrect(tmp_path, solver_available):
    good = _write(
        tmp_path,
        "assignment",
        "good.sol",
        "contract C { int x; constructor() { x = 1; assert(x == 1); } }",
    )
    assert run_test(good).observed == "correct"

    # a failing assert marked as expected-to-fail still counts correct
    expected_fail = _write(
        tmp_path,
        "assignment",
        "efail.sol",
        "contract C { int x; constructor() { //expect: fails\n assert(x == 1); } }",
    )
    assert run_test(expected_fail).observed == "correct"

    wrong = _write(
        tmp_path,
        "assignment",
        "wrong.sol",
        "contract C { int x; constructor() { assert(x == 1); } }",
    )
    outcome = run_test(wrong)
    assert outcome.observed == "incorrect"
    assert "expected holds" in outcome.detail


def test_run_test_unsupported_and_invalid(tmp_path):
    loops = _write(
        tmp_path, "init", "loops.sol", "contract C { function f() { while (true) {} } }"
    )
    assert run_test(loops).observed == "unsupported"

    bad = _write(tmp_path, "init", "bad.sol", "contract C { int x = }")
    assert run_test(bad).observed == "invalid"

    needs_unroll = _write(
        tmp_path,
        "init",
        "unroll.sol",
        "contract C { struct S { int x; } S[] a; constructor() { S[] memory m = a; } }",
    )
    assert run_test(needs_unroll).observed == "unsupported"


def test_corpus_aggregation_and_json(tmp_path, solver_available):
    _write(tmp_path, "storage", "a.sol",
           "contract C { int x; constructor() { assert(x == 0); } }")
    _write(tmp_path, "storage", "b.sol",
           "contract C { int x; constructor() { //expect: fails\n assert(x == 1); } }")
    _write(tmp_path, "delete", "c.sol",
           "contract C { int x; constructor() { delete x; assert(x == 0); } }")
    classes = run_corpus(tmp_path, jobs=2)
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
    classes = run_corpus(tmp_path, jobs=1)
    assert classes["assignment"].total == 0
    assert "assignment (0)" in render_table(classes)


def test_cli_corpus_without_tests_is_a_usage_error(tmp_path, capsys):
    """A corpus that holds no test would pass having checked nothing: an
    empty directory, and one with contracts but no class directories
    (a class directory given in place of the corpus)."""
    (tmp_path / "empty").mkdir()
    _write(tmp_path, "flat", "a.sol", "contract C { int x; constructor() { assert(x == 0); } }")
    for corpus in ("empty", "flat"):
        assert main(["corpus", str(tmp_path / corpus)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path / corpus} holds no <class>/<name>.sol file\n"


@pytest.mark.parametrize("command", ["verify", "corpus", "fuzz"])
def test_cli_unwritable_output_is_one_error_line_and_exit_2(tmp_path, command):
    """Each run would exit 0 against a solver that says unsat to every
    query; only writing its output fails."""
    source = "contract C { int x; constructor() { x = 1; assert(x == 1); } }"
    (tmp_path / "plain").write_text("")
    if command == "verify":
        f = _write(tmp_path, "x", "t.sol", source)
        argv = [str(f), "--emit-smt", str(tmp_path / "plain" / "smt")]
    elif command == "corpus":
        _write(tmp_path / "corpus", "storage", "t.sol", source)
        argv = [str(tmp_path / "corpus"), "--json", str(tmp_path / "missing" / "r.json")]
    else:
        argv = ["--count", "1", "--budget", "0", "--jobs", "1", "--json", str(tmp_path / "missing" / "r.json")]
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat", str(tmp_path / "log")]
    proc = subprocess.run([sys.executable, "-m", "solmem.cli", command, *argv, "--solver-cmd", shlex.join(stub)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_differential_agrees_on_dangling(solver_available):
    observed, compared, detail = differential(DANGLING_POINTER)
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


def test_cli_verify_prints_asserts_with_source_names(tmp_path, capsys):
    """The resolver renames a parameter that shadows a state variable
    (`x~2`), and a local declared again in a later function; an assert
    is still printed as written."""
    f = tmp_path / "t.sol"
    f.write_text(
        "contract C { int x; function f(int x) { x = 1; assert(x == 1); }\n"
        "function g() { int y = 2; } function h() { int y = 3; assert(y == 3 && x == 0); } }"
    )
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat", str(tmp_path / "log")]
    assert main(["verify", str(f), "--solver-cmd", shlex.join(stub)]) == 0
    out = capsys.readouterr().out
    assert "f:1: assert((x == 1)): verified" in out
    assert "h:2: assert(((y == 3) && (x == 0))): verified" in out
    assert "~" not in out


def test_cli_verify_prints_a_counterexample_entry_state(tmp_path, capsys):
    """Against a stub model that sets every Int to 0, the counterexample
    lists the parameter `x` and the state variable it shadows as `this.x`,
    and leaves out the local `y`; `--emit-ir` prints the program in
    SMT-LIB, with the parameter under its resolved name."""
    f = tmp_path / "c.sol"
    f.write_text("contract C { int x; function f(int x) public { int y = x; assert(y == 1); } }")
    stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat,model", str(tmp_path / "log")]
    assert main(["verify", str(f), "--emit-ir", "--solver-cmd", shlex.join(stub)]) == 1
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
         "source nested too deeply to parse and resolve (RecursionError)"),
        # The oracle evaluates a long sum with a loop, but takes frames per
        # index of a read from a 400-dimensional array, which the parser
        # and the resolver still accept.
        ("contract C { int x; int" + "[]" * 400 + " a; constructor() { x = a" + "[0]" * 400 + "; } }", [],
         "expression nested too deeply to run (RecursionError)"),
        # runs, but its final state is too deep to serialize
        ("contract C { int" + "[1]" * 600 + " a; constructor() { } }", [],
         "value or expression nested too deeply to run (RecursionError)"),
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


def test_every_subcommand_reads_each_option_it_declares():
    """An option its command never reads is dead: it parses, then changes
    nothing."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, sub in commands.choices.items():
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
    argv = [str(f)]
    if command == "verify":
        stub = [sys.executable, str(TESTS / "stub_solver.py"), "unsat", str(tmp_path / "log")]
        argv += ["--solver-cmd", shlex.join(stub)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "solmem.cli", command, *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")})
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_cli_corpus(tmp_path, capsys, solver_available):
    d = tmp_path / "corpus" / "storage"
    d.mkdir(parents=True)
    (d / "t.sol").write_text("contract C { int x; constructor() { assert(x == 0); } }")
    report = tmp_path / "report.json"
    assert main(["corpus", str(tmp_path / "corpus"), "--json", str(report), "--jobs", "1"]) == 0
    assert "storage (1)" in capsys.readouterr().out
    assert json.loads(report.read_text())["schema"] == 1


def test_cli_fuzz_small(tmp_path, capsys, solver_available):
    report = tmp_path / "fuzz.json"
    assert main(["fuzz", "--count", "2", "--budget", "4", "--jobs", "2",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "0 disagreements" in out
    payload = json.loads(report.read_text())
    assert payload["schema"] == 2
    assert all("rejections" in seed for seed in payload["seeds"])


def test_cli_fuzz_json_reports_rejections_without_solver(tmp_path):
    report = tmp_path / "fuzz.json"
    main(["fuzz", "--start", "69", "--count", "1", "--jobs", "1",
          "--solver-cmd", "definitely-not-a-solver-binary", "--json", str(report)])
    payload = json.loads(report.read_text())
    assert payload["schema"] == 2
    assert payload["seeds"][0]["rejections"] == {"ParseError": 1, "ResolveError": 1}


def test_corpus_rerun_is_deterministic(tmp_path, solver_available):
    _write(tmp_path, "storage", "a.sol",
           "contract C { int x; constructor() { assert(x == 0); } }")
    _write(tmp_path, "storage", "b.sol",
           "contract C { int x; constructor() { //expect: fails\n assert(x == 1); } }")

    def observed():
        classes = run_corpus(tmp_path, jobs=2)
        return sorted((t.test_id, t.observed) for s in classes.values() for t in s.tests)

    assert observed() == observed()


def test_class_totals_count_every_file(tmp_path, solver_available):
    for i in range(3):
        _write(tmp_path, "init", f"t{i}.sol",
               "contract C { int x; constructor() { assert(x == 0); } }")
    classes = run_corpus(tmp_path, jobs=2)
    assert classes["init"].total == 3 == len(classes["init"].tests)


@pytest.mark.parametrize("command", ["verify", "corpus"])
def test_negative_unroll_is_a_usage_error(tmp_path, capsys, command):
    """A negative bound N assumes `n <= N` next to `0 <= n` for a length
    `n`: no length satisfies both, so every later assert would verify
    vacuously."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(tmp_path), "--unroll", "-1"])
    assert exit_info.value.code == 2
    assert "--unroll: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert build_parser().parse_args([command, str(tmp_path), "--unroll", "0"]).unroll == 0


BAD_NUMBERS = [
    # a fuzz run over no seeds would pass having checked nothing
    ("fuzz", "--count", "-5", "a positive integer"),
    ("fuzz", "--count", "0", "a positive integer"),
    ("fuzz", "--jobs", "0", "a positive integer"),
    ("fuzz", "--jobs", "-3", "a positive integer"),
    ("corpus", "--jobs", "0", "a positive integer"),
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


def test_smallest_meaningful_numeric_options_parse():
    args = build_parser().parse_args(["fuzz", "--count", "1", "--jobs", "1", "--budget", "0", "--timeout", "0.5"])
    assert (args.count, args.jobs, args.budget, args.timeout) == (1, 1, 0, 0.5)
