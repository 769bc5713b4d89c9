"""Corpus runner and differential fuzzing harness.

Corpus tests live in `<dir>/<class>/<name>.sol`; a comment line
`//expect: holds` or `//expect: fails` annotates the next assert
(asserts default to `holds`). Each test counts as exactly one of
`OUTCOMES`, and results aggregate per class into a table plus a
versioned JSON report.

Differential fuzzing generates constructor-only programs, runs them
through the reference interpreter, and demands that the verifier agrees
on every assert the interpreter reached: passed asserts must verify,
the failed assert must yield a counterexample.

Both judge a verifier report the same way (`judge`); only where the
expected outcomes come from differs.
"""

from __future__ import annotations

import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SolmemError
from .generator import ProgramBuilder
from .oracle import run_constructor
from .sol_ast import Contract
from .verify import VerifyReport, verify_source

REPORT_SCHEMA = 1

# Every outcome a corpus test or fuzz seed can have. `error` means the
# solver could not be found, launched or smoke-tested, or a VC was too
# deep to print.
OUTCOMES = ("correct", "incorrect", "unsupported", "timeout", "invalid", "error")

_EXPECT_RE = re.compile(r"//\s*expect:\s*(holds|fails)\b")
_ASSERT_RE = re.compile(r"\bassert\s*\(")
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)  # as the lexer reads comments
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


@dataclass
class TestOutcome:
    test_id: str
    expected: list[str]  # per assert, in source order: "holds" | "fails"
    observed: str  # one of OUTCOMES
    wall_time_seconds: float
    detail: str = ""


def parse_expectations(text: str) -> dict[int, str]:
    """Map an assert's line number to holds/fails. An `//expect:` comment
    applies to the next assert at or below it; asserts without one hold.
    Only asserts outside comments count, on lines numbered as the lexer
    numbers them."""
    code = _COMMENT_RE.sub(lambda m: _NOT_NEWLINE_RE.sub(" ", m.group()), text)
    expectations: dict[int, str] = {}
    pending: str | None = None
    for lineno, (line, code_line) in enumerate(zip(text.split("\n"), code.split("\n")), start=1):
        m = _EXPECT_RE.search(line)
        if m:
            pending = m.group(1)
        # an expectation and its assert may share a line
        if _ASSERT_RE.search(code_line):
            expectations[lineno] = pending or "holds"
            pending = None
    return expectations


def oracle_expectations(contract: Contract) -> list[str]:
    """holds/fails of each assert the constructor oracle reached, in
    order: by ordinal, since asserts may share a line."""
    return ["holds" if a.passed else "fails" for a in run_constructor(contract).asserts]


def judge(
    report: VerifyReport, expected: dict[int, str] | list[str], default: str | None = "holds"
) -> tuple[str, str, int]:
    """(outcome, detail, asserts compared) of a report against the
    expected holds/fails per assert line or, given a list, per assert
    ordinal in the report. Asserts it does not cover expect `default`,
    or are not compared when it is None."""
    if report.error is not None:
        return "invalid", report.error, 0
    unsupported = report.unsupported or next((f.unsupported for f in report.functions if f.unsupported), None)
    if unsupported is not None:
        return "unsupported", unsupported, 0
    results = [(f.name, a) for f in report.functions for a in f.asserts]
    for kind in ("error", "timeout"):  # a solver failure or timeout outranks every verdict
        for name, a in results:
            if a.verdict == kind:
                return kind, f"{name}:{a.line}: {a.detail}".strip(), 0
    compared = 0
    for ordinal, (name, a) in enumerate(results):
        if isinstance(expected, list):
            want = expected[ordinal] if ordinal < len(expected) else default
        else:
            want = expected.get(a.line, default)
        if want is None:
            continue
        if a.verdict not in ("verified", "counterexample"):
            return "incorrect", f"{name}:{a.line}: solver said {a.verdict} ({a.detail})", compared
        compared += 1
        got = "holds" if a.verdict == "verified" else "fails"
        if got != want:
            return "incorrect", f"{name}:{a.line}: expected {want}, verifier says {got}", compared
    return "correct", "", compared


def _self_contained(contract: Contract) -> bool:
    """No functions, and a constructor, if any, without parameters: the
    constructor oracle can run the contract on its own."""
    return not contract.functions and not (contract.constructor and contract.constructor.params)


def run_test(
    path: Path,
    solver_cmd: str | None = None,
    timeout: float = 60.0,
    unroll: int | None = None,
) -> TestOutcome:
    """Verify one corpus file and judge it against its `//expect` lines.
    A self-contained contract (no functions, and a constructor without
    parameters) must also match the constructor oracle on its verdicts."""
    text = path.read_text()
    expectations = parse_expectations(text)
    start = time.monotonic()
    report = verify_source(text, solver_cmd=solver_cmd, timeout=timeout, unroll=unroll)
    observed, detail, _ = judge(report, expectations)
    if observed == "correct" and _self_contained(report.contract):
        try:
            observed, detail, _ = judge(report, oracle_expectations(report.contract), None)
            detail = detail and f"oracle disagrees: {detail}"
        except SolmemError as e:
            observed, detail = "incorrect", f"oracle failed: {e}"
    return TestOutcome(
        test_id=str(path),
        expected=[expectations[k] for k in sorted(expectations)],
        observed=observed,
        wall_time_seconds=time.monotonic() - start,
        detail=detail,
    )


@dataclass
class ClassSummary:
    """Per-class counts, one field per name in OUTCOMES."""

    name: str
    correct: int = 0
    incorrect: int = 0
    unsupported: int = 0
    timeout: int = 0
    invalid: int = 0
    error: int = 0
    time_seconds: float = 0.0
    tests: list[TestOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(getattr(self, o) for o in OUTCOMES)


def run_corpus(
    corpus_dir: Path,
    solver_cmd: str | None = None,
    timeout: float = 60.0,
    unroll: int | None = None,
    jobs: int = 4,
) -> dict[str, ClassSummary]:
    classes: dict[str, ClassSummary] = {}
    work: list[tuple[str, Path]] = []
    for class_dir in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        classes[class_dir.name] = ClassSummary(class_dir.name)
        for test in sorted(class_dir.glob("*.sol")):
            work.append((class_dir.name, test))

    def run_one(item):
        cls, path = item
        return cls, run_test(path, solver_cmd, timeout, unroll)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for cls, outcome in pool.map(run_one, work):
            summary = classes[cls]
            summary.tests.append(outcome)
            summary.time_seconds += outcome.wall_time_seconds
            setattr(summary, outcome.observed, getattr(summary, outcome.observed) + 1)
    return classes


def render_table(classes: dict[str, ClassSummary]) -> str:
    header = f"{'class':<14}" + "".join(f" {o:>11}" for o in OUTCOMES) + f" {'time (s)':>9}"
    lines = [header, "-" * len(header)]
    for name in sorted(classes):
        s = classes[name]
        label = f"{name} ({s.total})"
        lines.append(
            f"{label:<14}" + "".join(f" {getattr(s, o):>11}" for o in OUTCOMES) + f" {s.time_seconds:>9.2f}"
        )
        for t in s.tests:
            if t.observed in ("incorrect", "invalid", "error") and t.detail:
                lines.append(f"    {Path(t.test_id).name}: {t.observed}: {t.detail}")
    return "\n".join(lines)


def report_json(classes: dict[str, ClassSummary]) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "classes": {
            name: {
                **{o: getattr(s, o) for o in OUTCOMES},
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


@dataclass
class FuzzOutcome:
    seed: int
    observed: str  # one of OUTCOMES
    compared: int
    detail: str = ""
    wall_time_seconds: float = 0.0
    rejections: dict[str, int] = field(default_factory=dict)  # generator candidates, by reason

    @property
    def agreed(self) -> bool:
        return self.observed == "correct"


def differential(
    source: str, solver_cmd: str | None = None, timeout: float = 60.0
) -> tuple[str, int, str]:
    """(outcome, asserts compared, detail) of oracle vs verifier on a
    constructor-only program: for every assert the oracle reached,
    passed must verify and failed must refute."""
    report = verify_source(source, solver_cmd=solver_cmd, timeout=timeout)
    expected = oracle_expectations(report.contract) if report.contract is not None else {}
    observed, detail, compared = judge(report, expected, None)
    if observed == "correct" and compared < len(expected):
        observed, detail = "incorrect", "verifier reported fewer asserts than the oracle ran"
    return observed, compared, detail


def run_fuzz(
    seeds: range,
    size_budget: int = 10,
    solver_cmd: str | None = None,
    timeout: float = 60.0,
    jobs: int = 4,
) -> list[FuzzOutcome]:
    def run_one(seed: int) -> FuzzOutcome:
        start = time.monotonic()
        builder = ProgramBuilder(seed, size_budget)
        try:
            observed, compared, detail = differential(builder.build(), solver_cmd, timeout)
        except SolmemError as e:
            observed, compared, detail = "invalid", 0, f"pipeline error: {e}"
        return FuzzOutcome(
            seed, observed, compared, detail, time.monotonic() - start, dict(builder.rejections)
        )

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_one, seeds))
