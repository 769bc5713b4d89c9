"""Corpus runner and differential fuzzing harness.

Every verifier report is graded the same way (`judge`): against a list
of expected outcomes, `holds` or `fails`, one per assert in source
order. Only where that list comes from differs.

Corpus tests live in `<dir>/<class>/<name>.sol`. A line comment
`//expect: holds` or `//expect: fails` applies to the next assert that
starts after it, so asserts that share a line each get their own;
an assert without one holds (`scan_expectations`). A self-contained
contract is also judged against the constructor oracle. Each test counts
as exactly one of `OUTCOMES`, and results aggregate per class into a
table plus a versioned JSON report.

Differential fuzzing generates constructor-only programs, runs them
through the reference interpreter, and demands that the verifier agrees
on every assert the interpreter reached: passed asserts must verify,
the failed assert must yield a counterexample.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .errors import TOO_DEEP, SolmemError
from .generator import DEFAULT_BUDGET, ProgramBuilder
from .lexer import lexemes
from .oracle import run_constructor
from .records import Record
from .sol_ast import Contract
from .solver import DEFAULT_TIMEOUT_SECONDS
from .verify import VerifyReport, verify_source

CORPUS_REPORT_SCHEMA = 1
FUZZ_REPORT_SCHEMA = 2

# Every outcome a corpus test or fuzz seed can have. `invalid` means the
# source does not parse or resolve. `error` means the solver could not
# be found, launched or smoke-tested, or Python's recursion limit stopped
# the pipeline or the oracle (`TOO_DEEP`), or a VC was too deep to print.
OUTCOMES = ("correct", "incorrect", "unsupported", "timeout", "invalid", "error")
# The outcomes that give no verdict to grade.
ERRORS_OR_TIMEOUTS = frozenset({"timeout", "error"})

# Tests or seeds run at once. Sizing it from the machine waits on
# measured solver throughput.
_WORKERS = 4

# The expectation a line comment's text starts with, if any.
_EXPECT_RE = re.compile(r"[ \t]*expect:[ \t]*(holds|fails)\b")


class TestOutcome(Record):
    __slots__ = ("test_id", "expected", "observed", "wall_time_seconds", "detail")

    def __init__(self, test_id: str, expected: list[str], observed: str, wall_time_seconds: float, detail: str = ""):
        self.test_id = test_id
        self.expected = expected  # per assert, in source order: "holds" | "fails"
        self.observed = observed  # one of OUTCOMES
        self.wall_time_seconds = wall_time_seconds
        self.detail = detail


def read_source(path: Path) -> str:
    """The text of a source file, decoded as UTF-8 whatever the locale."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:  # exits 2 as an unreadable file does
        raise OSError(f"{path} is not UTF-8 text ({e})") from e


def scan_expectations(text: str) -> list[tuple[int, str]]:
    """(line, holds|fails) of each `assert` keyword, in source order, on
    lines numbered as the lexer numbers them."""
    found: list[tuple[int, str]] = []
    pending: str | None = None
    for line, lexeme, comment in lexemes(text):
        if lexeme == "assert":
            found.append((line, pending or "holds"))
            pending = None
        elif comment is not None and (m := _EXPECT_RE.match(comment)):
            pending = m[1]
    return found


def parse_expectations(text: str) -> dict[int, str]:
    """`scan_expectations` keyed by line: the first assert on a line wins."""
    by_line: dict[int, str] = {}
    for line, want in scan_expectations(text):
        by_line.setdefault(line, want)
    return by_line


def judge(report: VerifyReport, expected: list[str]) -> tuple[str, str, int]:
    """(outcome, detail, asserts compared) of a report against the
    expected holds/fails of each assert, by ordinal in source order.
    Asserts past the end of `expected` are not compared; a report with
    fewer asserts than `expected`, or with a verdict other than verified
    or counterexample, is incorrect. An unsupported report's detail is
    its first reason, after the function's name where it has one, without
    the `unsupported: ` that the outcome already says."""
    if report.error is not None:
        return "invalid", report.error, 0
    unsupported = [("", report.unsupported)] + [(f"{f.name}: ", f.unsupported) for f in report.functions]
    for where, message in unsupported:
        if message is not None:
            return "unsupported", where + message.replace("unsupported: ", "", 1), 0
    # source order: by line, and within a line in report order, which
    # puts the constructor first
    results = sorted(((f.name, a) for f in report.functions for a in f.asserts), key=lambda r: r[1].line)
    for kind in ("error", "timeout"):  # a solver failure or timeout outranks every verdict
        for name, a in results:
            if a.verdict == kind:
                return kind, f"{name}:{a.line}: {a.detail}".strip(), 0
    for name, a in results:  # any other verdict is the solver's answer
        if a.verdict not in ("verified", "counterexample"):
            return "incorrect", f"{name}:{a.line}: solver said {a.verdict} ({a.detail})", 0
    for compared, ((name, a), want) in enumerate(zip(results, expected)):
        got = "holds" if a.verdict == "verified" else "fails"
        if got != want:
            return "incorrect", f"{name}:{a.line}: expected {want}, verifier says {got}", compared
    if len(results) < len(expected):
        return "incorrect", f"verifier reported {len(results)} asserts, expected {len(expected)}", len(results)
    return "correct", "", len(expected)


def exit_code(observed: set[str], wrong: set[str]) -> int:
    """The exit code of `corpus` and `fuzz` from the outcomes seen: 2 on
    an error or a timeout, else 1 when an outcome in `wrong` was seen,
    else 0."""
    return 2 if observed & ERRORS_OR_TIMEOUTS else 1 if observed & wrong else 0


def judge_by_oracle(report: VerifyReport) -> tuple[str, str, int]:
    """`judge` against the constructor oracle: each assert it reached
    must verify if it passed and be refuted if it failed."""
    reached = run_constructor(report.contract).asserts if report.contract is not None else []
    return judge(report, ["holds" if a.passed else "fails" for a in reached])


def _self_contained(contract: Contract) -> bool:
    """No functions, and a constructor, if any, without parameters: the
    constructor oracle can run the contract on its own."""
    return not contract.functions and not (contract.constructor and contract.constructor.params)


def run_test(path: Path, timeout: float = DEFAULT_TIMEOUT_SECONDS) -> TestOutcome:
    """Verify one corpus file and judge it against its `//expect` lines.
    A self-contained contract must also match the constructor oracle.
    The file is verified without a length bound, so a construct that
    needs `verify --unroll` makes the test unsupported."""
    text = read_source(path)
    expected = [want for _, want in scan_expectations(text)]
    start = time.monotonic()
    try:
        report = verify_source(text, timeout)
        observed, detail, _ = judge(report, expected)
        if observed == "correct" and _self_contained(report.contract):
            try:
                observed, detail, _ = judge_by_oracle(report)
                detail = detail and f"oracle disagrees: {detail}"
            except SolmemError as e:
                observed, detail = "incorrect", f"oracle failed: {e}"
    except RecursionError:
        observed, detail = "error", TOO_DEEP
    return TestOutcome(str(path), expected, observed, time.monotonic() - start, detail)


class ClassSummary(Record):
    __slots__ = ("name", "tests")

    def __init__(self, name: str, tests: list[TestOutcome] | None = None):
        self.name = name
        self.tests = [] if tests is None else tests

    @property
    def counts(self) -> Counter[str]:
        """Tests per name in OUTCOMES."""
        return Counter(t.observed for t in self.tests)

    @property
    def total(self) -> int:
        return len(self.tests)

    @property
    def time_seconds(self) -> float:
        return sum(t.wall_time_seconds for t in self.tests)


def run_corpus(corpus_dir: Path, timeout: float = DEFAULT_TIMEOUT_SECONDS) -> dict[str, ClassSummary]:
    classes = {d.name: ClassSummary(d.name) for d in sorted(p for p in corpus_dir.iterdir() if p.is_dir())}
    work = [(s, test) for s in classes.values() for test in sorted((corpus_dir / s.name).glob("*.sol"))]
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        outcomes = pool.map(lambda item: run_test(item[1], timeout), work)
        for (summary, _), outcome in zip(work, outcomes):
            summary.tests.append(outcome)
    return classes


def render_table(classes: dict[str, ClassSummary]) -> str:
    header = f"{'class':<14}" + "".join(f" {o:>11}" for o in OUTCOMES) + f" {'time (s)':>9}"
    lines = [header, "-" * len(header)]
    for name in sorted(classes):
        s = classes[name]
        counts = s.counts
        label = f"{name} ({s.total})"
        lines.append(f"{label:<14}" + "".join(f" {counts[o]:>11}" for o in OUTCOMES) + f" {s.time_seconds:>9.2f}")
        for t in s.tests:
            if t.observed != "correct" and t.detail:
                lines.append(f"    {Path(t.test_id).name}: {t.observed}: {t.detail}")
    return "\n".join(lines)


def report_json(classes: dict[str, ClassSummary]) -> dict:
    return {
        "schema": CORPUS_REPORT_SCHEMA,
        "classes": {
            name: {
                **{o: s.counts[o] for o in OUTCOMES},
                "time_seconds": round(s.time_seconds, 3),
                "tests": [
                    {
                        "id": t.test_id,
                        "expected": t.expected,
                        "observed": t.observed,
                        "time_seconds": round(t.wall_time_seconds, 3),
                        "detail": t.detail,
                    }
                    for t in s.tests
                ],
            }
            for name, s in classes.items()
        },
    }


# ---------------------------------------------------------------------------
# differential fuzzing


class FuzzOutcome(Record):
    __slots__ = ("seed", "observed", "compared", "detail", "wall_time_seconds", "rejections")

    def __init__(
        self, seed: int, observed: str, compared: int, detail: str = "", wall_time_seconds: float = 0.0,
        rejections: dict[str, int] | None = None,
    ):
        self.seed = seed
        self.observed = observed  # one of OUTCOMES
        self.compared = compared
        self.detail = detail
        self.wall_time_seconds = wall_time_seconds
        self.rejections = {} if rejections is None else rejections  # generator candidates, by reason

    @property
    def agreed(self) -> bool:
        return self.observed == "correct"


def run_fuzz(
    seeds: range, size_budget: int = DEFAULT_BUDGET, timeout: float = DEFAULT_TIMEOUT_SECONDS
) -> list[FuzzOutcome]:
    def run_one(seed: int) -> FuzzOutcome:
        start = time.monotonic()
        builder = ProgramBuilder(seed, size_budget)
        try:
            report = verify_source(builder.build(), timeout)
            observed, detail, compared = judge_by_oracle(report)
        except SolmemError as e:
            observed, detail, compared = "invalid", f"pipeline error: {e}", 0
        except RecursionError:
            observed, detail, compared = "error", TOO_DEEP, 0
        return FuzzOutcome(
            seed, observed, compared, detail, time.monotonic() - start, dict(builder.rejections)
        )

    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        return list(pool.map(run_one, seeds))


def fuzz_report_json(outcomes: list[FuzzOutcome]) -> dict:
    return {
        "schema": FUZZ_REPORT_SCHEMA,
        "seeds": [
            {"seed": o.seed, "agreed": o.agreed, "observed": o.observed, "compared": o.compared,
             "detail": o.detail, "rejections": o.rejections}
            for o in outcomes
        ],
    }
