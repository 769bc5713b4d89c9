"""Driver behaviour around the solver boundary, without a real solver.

A stub solver (`stub_solver.py`) answers fixed verdicts or garbage and
logs one line per launch. A solver that cannot be found, launched or
smoke-tested must give the outcome `error` and exit code 2, and must be
launched only once per run.
"""

import json
import re
import shlex
import shutil
import sys
import time
from pathlib import Path

import pytest

from sources import BOUNDARY_FILE, BOUNDARY_FUZZ, CORPUS_DIR, SOLVER_BOUNDARY, run_cli, write_test
from solmem import solver
from solmem.cli import main
from solmem.errors import SolverFailure
from solmem.harness import OUTCOMES, judge, judge_by_oracle, render_table, run_corpus, run_test
from solmem.verify import AssertResult, FunctionReport, VerifyReport, verify_source


def test_broken_solver_makes_every_corpus_test_an_error_after_one_launch(tmp_path, capsys, stub):
    corpus, report = tmp_path / "corpus", tmp_path / "report.json"
    write_test(corpus, "storage", "a.sol", SOLVER_BOUNDARY["holds"])
    write_test(corpus, "storage", "b.sol", SOLVER_BOUNDARY["fails"])
    write_test(corpus, "delete", "c.sol", SOLVER_BOUNDARY["holds"])
    launches = stub("garbage")
    code = main(["corpus", str(corpus), "--json", str(report)])
    assert code == 2
    payload = json.loads(report.read_text())
    assert payload["schema"] == 1
    observed = [t["observed"] for c in payload["classes"].values() for t in c["tests"]]
    assert observed == ["error"] * 3
    assert sum(c["error"] for c in payload["classes"].values()) == 3
    assert "smoke test failed" in capsys.readouterr().out
    assert launches() == 1


def test_fuzz_with_broken_solver_reports_errors_not_disagreements(tmp_path, capsys, stub):
    report = tmp_path / "fuzz.json"
    launches = stub("garbage")
    code = main(["fuzz", *BOUNDARY_FUZZ, "--json", str(report)])
    assert code == 2
    assert "0 disagreements" in capsys.readouterr().out
    seeds = json.loads(report.read_text())["seeds"]
    assert [s["observed"] for s in seeds] == ["error", "error"]
    assert not any(s["agreed"] for s in seeds)
    assert launches() == 1


def test_solver_timeout_exits_2_from_verify_corpus_and_fuzz(tmp_path, capsys, stub):
    """A timeout says nothing of the program, like a solver error: every
    command exits 2, and fuzz counts it among its errors or timeouts. The stub
    refutes the smoke query and sleeps through every other."""
    corpus, report = tmp_path / "corpus", tmp_path / "fuzz.json"
    test = write_test(corpus, "storage", "a.sol", SOLVER_BOUNDARY["holds"])
    stub("unsat,sleep")
    sleeper = ["--timeout", "0.5"]
    assert main(["verify", str(test), *sleeper]) == 2
    assert main(["corpus", str(corpus), *sleeper]) == 2
    assert main(["fuzz", *BOUNDARY_FUZZ, *sleeper, "--json", str(report)]) == 2
    out = capsys.readouterr().out
    assert "0 disagreements, 2 errors or timeouts" in out
    assert re.search(r"^    a\.sol: timeout: constructor:1: no answer within 0\.5 s \(", out, re.M)
    assert [s["observed"] for s in json.loads(report.read_text())["seeds"]] == ["timeout", "timeout"]


def test_a_timeout_names_its_limit_and_the_query_size(capsys, stub):
    script = "(check-sat)\n" * 100
    stub("unsat,sleep")
    verdict = solver.query(script, timeout_seconds=0.5)
    assert (verdict.kind, verdict.detail) == ("timeout", "no answer within 0.5 s (1,200 B query)")
    stub("unsat,sleep")
    assert main(["fuzz", "--count", "1", "--budget", "4", "--timeout", "0.5"]) == 2
    out = capsys.readouterr().out
    assert re.search(r"seed 0: timeout: constructor:\d+: no answer within 0\.5 s \([\d,]+ B query\)", out)


def test_always_unsat_solver_grades_against_expectations(tmp_path, stub):
    holds = write_test(tmp_path, "init", "holds.sol", SOLVER_BOUNDARY["holds"])
    fails = write_test(tmp_path, "init", "fails.sol", SOLVER_BOUNDARY["fails"])
    launches = stub("unsat")
    assert run_test(holds).observed == "correct"
    outcome = run_test(fails)
    assert outcome.observed == "incorrect"
    assert "expected fails, verifier says holds" in outcome.detail
    assert launches() == 3  # one smoke query, then one query per assert


def test_constructor_with_parameters_is_not_cross_checked_by_the_oracle(tmp_path, stub):
    """The constructor oracle has no arguments to bind, so only a contract
    without functions and without constructor parameters is run by it."""
    corpus = tmp_path / "corpus"
    stub("unsat")
    with_param = write_test(corpus, "init", "param.sol", SOLVER_BOUNDARY["holds"])
    outcome = run_test(with_param)
    assert (outcome.observed, outcome.detail) == ("correct", "")
    # without parameters the oracle still runs, and disagrees with a solver that always says unsat
    without = write_test(corpus, "init", "none.sol", SOLVER_BOUNDARY["self_contained_pair"])
    outcome = run_test(without)
    assert outcome.observed == "incorrect"
    assert outcome.detail.startswith("oracle disagrees")


def test_solver_error_wins_over_a_counterexample(tmp_path, capsys, stub):
    f = tmp_path / "t.sol"
    f.write_text(SOLVER_BOUNDARY["two_asserts"])
    # smoke query, then a counterexample, then a verdict the client cannot read
    stub("unsat,sat,garbage")
    assert main(["verify", str(f)]) == 2
    out = capsys.readouterr().out
    assert ": counterexample" in out and ": error" in out


def test_exit_code_ranks_error_over_counterexample_over_verified():
    def report(*verdicts):
        asserts = [AssertResult(i, "x", v) for i, v in enumerate(verdicts)]
        return VerifyReport(functions=[FunctionReport("f", asserts)])

    assert report("verified").exit_code() == 0
    assert report("verified", "counterexample").exit_code() == 1
    assert report("counterexample", "error").exit_code() == 2
    assert report("verified", "timeout").exit_code() == 2


VERIFY = ["verify", str(BOUNDARY_FILE)]
NOT_FOUND = "no SMT solver found"
UNBALANCED = "malformed solver command 'z3 \"': No closing quotation"


@pytest.mark.parametrize(
    "args, env, message",
    [(VERIFY, {}, NOT_FOUND),
     (["corpus", str(CORPUS_DIR)], {}, NOT_FOUND),
     (["fuzz", "--count", "1", "--budget", "4"], {}, NOT_FOUND),
     # an empty SOLMEM_SOLVER is unset: the search goes on to PATH
     (VERIFY, {"SOLMEM_SOLVER": ""}, NOT_FOUND),
     (VERIFY, {"SOLMEM_SOLVER": " "}, "malformed solver command ' ': no program"),
     (VERIFY, {"SOLMEM_SOLVER": 'z3 "'}, UNBALANCED),
     (["corpus", str(CORPUS_DIR)], {"SOLMEM_SOLVER": 'z3 "'}, UNBALANCED)],
    ids=["verify", "corpus", "fuzz", "empty-environment", "blank-environment", "malformed-environment",
         "malformed-corpus"],
)
def test_no_solver_on_path_exits_2_without_traceback(args, env, message):
    proc = run_cli(*args, PATH="", **env)  # SOLMEM_SOLVER only where given
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert message in proc.stdout


def test_table_columns_sum_to_each_class_total(tmp_path):
    write_test(tmp_path, "init", "bad.sol", "contract C { int x = }")
    write_test(tmp_path, "init", "loops.sol", "contract C { function f() { while (true) {} } }")
    write_test(tmp_path, "delete", "loops.sol", "contract C { function f() { for (;;) {} } }")
    (tmp_path / "storage").mkdir()
    table = render_table(run_corpus(tmp_path))
    header = table.splitlines()[0].split()
    assert all(o in header for o in OUTCOMES)
    rows = [re.match(r"(\S+) \((\d+)\)\s+([\d\s.]+)$", line) for line in table.splitlines()]
    rows = [r for r in rows if r]
    assert [r.group(1) for r in rows] == ["delete", "init", "storage"]
    for r in rows:
        *counts, _seconds = r.group(3).split()
        assert len(counts) == len(OUTCOMES)
        assert sum(map(int, counts)) == int(r.group(2))
    assert "init (2)" in table


def test_solver_past_its_timeout_is_killed_and_reaped(monkeypatch):
    monkeypatch.setenv("SOLMEM_SOLVER", shlex.join([sys.executable, "-c", "import time; time.sleep(60)"]))
    start = time.monotonic()
    verdict = solver.check("(check-sat)\n", timeout_seconds=0.5)
    assert verdict.kind == "timeout"
    assert time.monotonic() - start < 10


def test_timed_out_solver_is_killed_with_its_children(tmp_path, monkeypatch):
    # a shell, not an interpreter, starts the child, so that writing its
    # pid takes a few milliseconds of the timed window on a loaded host
    pid_file = tmp_path / "child.pid"
    spawner = f"sleep 60 & echo $! > {shlex.quote(str(pid_file))}; wait"
    monkeypatch.setenv("SOLMEM_SOLVER", shlex.join(["sh", "-c", spawner]))
    timeout = 2.0
    start = time.monotonic()
    verdict = solver.check("(check-sat)\n", timeout)
    assert verdict.kind == "timeout"
    assert time.monotonic() - start < timeout + 1
    stat = Path(f"/proc/{pid_file.read_text()}/stat")
    # gone, or a zombie that its new parent has yet to reap
    assert not stat.exists() or stat.read_text().rpartition(")")[2].split()[0] == "Z"


def test_model_answer_sets_every_int_and_bool_constant(stub):
    script = (
        "(set-logic ALL)\n(declare-const a Int)\n(declare-const b Bool)\n"
        "(declare-const c (Array Int Int))\n(assert b)\n(check-sat)\n(get-model)\n"
    )
    stub("model")
    verdict = solver.check(script)
    assert (verdict.kind, verdict.model) == ("sat", {"a": "0", "b": "false"})


def test_unknown_verdict_is_graded_incorrect(stub):
    stub("unknown")
    assert solver.check("(check-sat)\n").kind == "unknown"
    # the smoke query must be refuted; the assert's query then gets unknown
    stub("unsat,unknown")
    report = verify_source("contract C { function f(int a) { assert(a == 1); } }")
    [[result]] = [f.asserts for f in report.functions]
    assert result.verdict == "unknown"
    outcome, detail, compared = judge(report, [])
    assert (outcome, compared) == ("incorrect", 0)
    assert detail.startswith("f:1: solver said unknown")


def test_oracle_outcomes_match_verdicts_by_ordinal(stub):
    """Two asserts share a line, the first holds and the second fails;
    the stub refutes the smoke query, verifies the first and refutes the
    second. Each verdict is compared with the oracle's outcome of the
    same ordinal, not with the last outcome on its line."""
    stub("unsat,unsat,sat")
    report = verify_source(SOLVER_BOUNDARY["self_contained_pair"])
    assert judge_by_oracle(report) == ("correct", "", 2)


@pytest.mark.parametrize(
    "env, on_path, command",
    [
        ("my-solver --flag", {"z3", "cvc5", "node"}, ["my-solver", "--flag"]),
        (None, {"z3", "cvc5", "node"}, ["z3", "-in"]),
        (None, {"cvc5", "node"}, ["cvc5", "--lang", "smt2"]),
        (None, {"node"}, None),
        (None, set(), None),
    ],
    ids=["environment", "z3", "cvc5", "node-only", "none"],
)
def test_default_solver_command_resolution_order(monkeypatch, env, on_path, command):
    if env is None:
        monkeypatch.delenv("SOLMEM_SOLVER", raising=False)
    else:
        monkeypatch.setenv("SOLMEM_SOLVER", env)
    monkeypatch.setattr(shutil, "which", lambda name: f"/bin/{name}" if name in on_path else None)
    if command is None:
        with pytest.raises(SolverFailure, match="no SMT solver found"):
            solver.default_solver_command()
    else:
        assert solver.default_solver_command() == command
