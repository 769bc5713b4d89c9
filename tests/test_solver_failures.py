"""Driver behaviour around the solver boundary, without a real solver.

A stub solver (`stub_solver.py`) answers fixed verdicts or garbage and
logs one line per launch. A solver that cannot be found, launched or
smoke-tested must give the outcome `error` and exit code 2, and must be
launched only once per run.
"""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from solmem import solver
from solmem.cli import main
from solmem.errors import SolverFailure
from solmem.harness import OUTCOMES, judge, judge_by_oracle, render_table, run_corpus, run_test
from solmem.verify import AssertResult, FunctionReport, VerifyReport, verify_source

STUB = Path(__file__).parent / "stub_solver.py"
SRC = Path(__file__).parent.parent / "src"

HOLDS = "contract C { int x; constructor() { x = 1; assert(x == 1); } }"
FAILS = "contract C { int x; constructor() { //expect: fails\n assert(x == 1); } }"


def _stub(answers: str, log: Path) -> str:
    return shlex.join([sys.executable, str(STUB), answers, str(log)])


def _launches(log: Path) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


def _write(root: Path, cls: str, name: str, text: str) -> Path:
    (root / cls).mkdir(parents=True, exist_ok=True)
    path = root / cls / name
    path.write_text(text)
    return path


def test_broken_solver_makes_every_corpus_test_an_error_after_one_launch(tmp_path, capsys):
    corpus, log, report = tmp_path / "corpus", tmp_path / "launches.log", tmp_path / "report.json"
    _write(corpus, "storage", "a.sol", HOLDS)
    _write(corpus, "storage", "b.sol", FAILS)
    _write(corpus, "delete", "c.sol", HOLDS)
    code = main(["corpus", str(corpus), "--solver-cmd", _stub("garbage", log),
                 "--jobs", "3", "--json", str(report)])
    assert code == 2
    payload = json.loads(report.read_text())
    assert payload["schema"] == 1
    observed = [t["observed"] for c in payload["classes"].values() for t in c["tests"]]
    assert observed == ["error"] * 3
    assert sum(c["error"] for c in payload["classes"].values()) == 3
    assert "smoke test failed" in capsys.readouterr().out
    assert _launches(log) == 1


def test_fuzz_with_broken_solver_reports_errors_not_disagreements(tmp_path, capsys):
    log, report = tmp_path / "launches.log", tmp_path / "fuzz.json"
    code = main(["fuzz", "--count", "2", "--budget", "4", "--jobs", "2",
                 "--solver-cmd", _stub("garbage", log), "--json", str(report)])
    assert code == 2
    assert "0 disagreements" in capsys.readouterr().out
    seeds = json.loads(report.read_text())["seeds"]
    assert [s["observed"] for s in seeds] == ["error", "error"]
    assert not any(s["agreed"] for s in seeds)
    assert _launches(log) == 1


def test_solver_timeout_exits_2_from_verify_corpus_and_fuzz(tmp_path, capsys):
    """A timeout says nothing of the program, like a solver error: every
    command exits 2, and fuzz counts it with the solver errors. The stub
    refutes the smoke query and sleeps through every other."""
    corpus, report = tmp_path / "corpus", tmp_path / "fuzz.json"
    test = _write(corpus, "storage", "a.sol", HOLDS)
    sleeper = ["--solver-cmd", _stub("unsat,sleep", tmp_path / "log"), "--timeout", "0.5"]
    assert main(["verify", str(test), *sleeper]) == 2
    assert main(["corpus", str(corpus), *sleeper]) == 2
    assert main(["fuzz", "--count", "2", "--budget", "4", "--jobs", "2", *sleeper, "--json", str(report)]) == 2
    out = capsys.readouterr().out
    assert "0 disagreements, 2 solver errors or timeouts" in out
    assert re.search(r"^    a\.sol: timeout: constructor:1: no answer within 0\.5 s \(", out, re.M)
    assert [s["observed"] for s in json.loads(report.read_text())["seeds"]] == ["timeout", "timeout"]


def test_a_timeout_names_its_limit_and_the_query_size(tmp_path, capsys):
    script = "(check-sat)\n" * 100
    verdict = solver.query(script, timeout_seconds=0.5, solver_cmd=_stub("unsat,sleep", tmp_path / "log"))
    assert (verdict.kind, verdict.detail) == ("timeout", "no answer within 0.5 s (1,200 B query)")
    sleeper = ["--solver-cmd", _stub("unsat,sleep", tmp_path / "log2"), "--timeout", "0.5"]
    assert main(["fuzz", "--count", "1", "--budget", "4", *sleeper]) == 2
    out = capsys.readouterr().out
    assert re.search(r"seed 0: timeout: constructor:\d+: no answer within 0\.5 s \([\d,]+ B query\)", out)


def test_always_unsat_solver_grades_against_expectations(tmp_path):
    log = tmp_path / "launches.log"
    holds = _write(tmp_path, "init", "holds.sol", HOLDS)
    fails = _write(tmp_path, "init", "fails.sol", FAILS)
    solver = _stub("unsat", log)
    assert run_test(holds, solver_cmd=solver).observed == "correct"
    outcome = run_test(fails, solver_cmd=solver)
    assert outcome.observed == "incorrect"
    assert "expected fails, verifier says holds" in outcome.detail
    assert _launches(log) == 3  # one smoke query, then one query per assert


def test_constructor_with_parameters_is_not_cross_checked_by_the_oracle(tmp_path):
    """The constructor oracle has no arguments to bind, so only a contract
    without functions and without constructor parameters is run by it."""
    corpus = tmp_path / "corpus"
    solver = _stub("unsat", tmp_path / "launches.log")
    with_param = _write(corpus, "init", "param.sol", "contract C { int y; constructor(int a) { y = a; assert(y == a); } }")
    outcome = run_test(with_param, solver_cmd=solver)
    assert (outcome.observed, outcome.detail) == ("correct", "")
    # without parameters the oracle still runs, and disagrees with a solver that always says unsat
    without = _write(corpus, "init", "none.sol", "contract C { int y; constructor() { assert(y == 1); } }")
    outcome = run_test(without, solver_cmd=solver)
    assert outcome.observed == "incorrect"
    assert outcome.detail.startswith("oracle disagrees")


def test_solver_error_wins_over_a_counterexample(tmp_path, capsys):
    log = tmp_path / "launches.log"
    f = tmp_path / "t.sol"
    f.write_text("contract C { int x; constructor() { assert(x == 1); assert(x == 2); } }")
    # smoke query, then a counterexample, then a verdict the client cannot read
    assert main(["verify", str(f), "--solver-cmd", _stub("unsat,sat,garbage", log)]) == 2
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


VERIFY = ["verify", "corpus/storage/deep_copy_independence.sol"]
NOT_FOUND = "no SMT solver found"
UNBALANCED = "malformed solver command 'z3 \"': No closing quotation"


@pytest.mark.parametrize(
    "args, env, message",
    [(VERIFY, {}, NOT_FOUND),
     (["corpus", "corpus"], {}, NOT_FOUND),
     (["fuzz", "--count", "1", "--budget", "4", "--jobs", "1"], {}, NOT_FOUND),
     ([*VERIFY, "--solver-cmd", 'z3 "'], {}, UNBALANCED),
     ([*VERIFY, "--solver-cmd", " "], {}, "malformed solver command ' ': no program"),
     # an empty flag is malformed too; it does not fall back to a working SOLMEM_SOLVER
     ([*VERIFY, "--solver-cmd", ""], {"SOLMEM_SOLVER": _stub("unsat", Path(os.devnull))},
      "malformed solver command '': no program"),
     (VERIFY, {"SOLMEM_SOLVER": 'z3 "'}, UNBALANCED),
     (["corpus", "corpus", "--solver-cmd", 'z3 "'], {}, UNBALANCED)],
    ids=["verify", "corpus", "fuzz", "malformed-flag", "blank-flag", "empty-flag", "malformed-environment",
         "malformed-corpus"],
)
def test_no_solver_on_path_exits_2_without_traceback(args, env, message):
    env = {"PATH": "", "PYTHONPATH": str(SRC), **env}  # SOLMEM_SOLVER only where given
    proc = subprocess.run([sys.executable, "-m", "solmem.cli", *args], cwd=SRC.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stdout


def test_table_columns_sum_to_each_class_total(tmp_path):
    _write(tmp_path, "init", "bad.sol", "contract C { int x = }")
    _write(tmp_path, "init", "loops.sol", "contract C { function f() { while (true) {} } }")
    _write(tmp_path, "delete", "loops.sol", "contract C { function f() { for (;;) {} } }")
    (tmp_path / "storage").mkdir()
    table = render_table(run_corpus(tmp_path, jobs=1))
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


def test_solver_past_its_timeout_is_killed_and_reaped():
    sleeper = shlex.join([sys.executable, "-c", "import time; time.sleep(60)"])
    start = time.monotonic()
    verdict = solver.check("(check-sat)\n", timeout_seconds=0.5, solver_cmd=sleeper)
    assert verdict.kind == "timeout"
    assert time.monotonic() - start < 10


def test_timed_out_solver_is_killed_with_its_children(tmp_path):
    pid_file = tmp_path / "child.pid"
    spawner = (
        "import subprocess, sys, time; "
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
        f"open({str(pid_file)!r}, 'w').write(str(child.pid)); time.sleep(60)"
    )
    timeout = 2.0
    start = time.monotonic()
    verdict = solver.check("(check-sat)\n", timeout, solver_cmd=shlex.join([sys.executable, "-c", spawner]))
    assert verdict.kind == "timeout"
    assert time.monotonic() - start < timeout + 1
    stat = Path(f"/proc/{pid_file.read_text()}/stat")
    # gone, or a zombie that its new parent has yet to reap
    assert not stat.exists() or stat.read_text().rpartition(")")[2].split()[0] == "Z"


def test_model_answer_sets_every_int_and_bool_constant(tmp_path):
    script = (
        "(set-logic ALL)\n(declare-const a Int)\n(declare-const b Bool)\n"
        "(declare-const c (Array Int Int))\n(assert b)\n(check-sat)\n(get-model)\n"
    )
    verdict = solver.check(script, solver_cmd=_stub("model", tmp_path / "launches.log"))
    assert (verdict.kind, verdict.model) == ("sat", {"a": "0", "b": "false"})


def test_unknown_verdict_is_graded_incorrect(tmp_path):
    log = tmp_path / "launches.log"
    assert solver.check("(check-sat)\n", solver_cmd=_stub("unknown", log)).kind == "unknown"
    # the smoke query must be refuted; the assert's query then gets unknown
    report = verify_source("contract C { function f(int a) { assert(a == 1); } }",
                           solver_cmd=_stub("unsat,unknown", tmp_path / "verify.log"))
    [[result]] = [f.asserts for f in report.functions]
    assert result.verdict == "unknown"
    outcome, detail, compared = judge(report, [])
    assert (outcome, compared) == ("incorrect", 0)
    assert detail.startswith("f:1: solver said unknown")


def test_oracle_outcomes_match_verdicts_by_ordinal(tmp_path):
    """Two asserts share a line, the first holds and the second fails;
    the stub refutes the smoke query, verifies the first and refutes the
    second. Each verdict is compared with the oracle's outcome of the
    same ordinal, not with the last outcome on its line."""
    source = "contract C { int x; constructor() { x = 1; assert(x == 1); assert(x == 2); } }"
    report = verify_source(source, solver_cmd=_stub("unsat,unsat,sat", tmp_path / "log"))
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
