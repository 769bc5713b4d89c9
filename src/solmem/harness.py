"""Corpus runner and differential fuzzing harness.

Corpus tests live in `<dir>/<class>/<name>.sol`; a comment line
`//expect: holds` or `//expect: fails` annotates the next assert
(asserts default to `holds`). Each test counts as exactly one of
correct / incorrect / unsupported / timeout, and results aggregate per
class into a table plus a versioned JSON report.

Differential fuzzing generates constructor-only programs, runs them
through the reference interpreter, and demands that the verifier agrees
on every assert the interpreter reached: passed asserts must verify,
the failed assert must yield a counterexample.
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
from .parser import parse_source
from .resolver import resolve_and_check
from .verify import VerifyReport, verify_source

REPORT_SCHEMA = 1

_EXPECT_RE = re.compile(r"//\s*expect:\s*(holds|fails)\b")
_ASSERT_RE = re.compile(r"\bassert\s*\(")


@dataclass
class TestOutcome:
    test_id: str
    expected: list[str]  # per assert, in source order: "holds" | "fails"
    observed: str  # "correct" | "incorrect" | "unsupported" | "timeout" | "invalid"
    wall_time_seconds: float
    detail: str = ""


def parse_expectations(text: str) -> dict[int, str]:
    """Map an assert's line number to holds/fails. An `//expect:` comment
    applies to the next assert at or below it; asserts without one hold."""
    expectations: dict[int, str] = {}
    pending: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _EXPECT_RE.search(line)
        if m:
            pending = m.group(1)
            # an expectation and its assert may share a line
            if _ASSERT_RE.search(line.split("//")[0]):
                expectations[lineno] = pending
                pending = None
            continue
        if _ASSERT_RE.search(line):
            expectations[lineno] = pending or "holds"
            pending = None
    return expectations


def _classify(report: VerifyReport, expectations: dict[int, str]) -> tuple[str, str]:
    if report.error is not None:
        return "invalid", report.error
    if report.unsupported is not None:
        return "unsupported", report.unsupported
    for f in report.functions:
        if f.unsupported is not None:
            return "unsupported", f.unsupported
    if report.any_timeout:
        return "timeout", ""
    for f in report.functions:
        for a in f.asserts:
            expected = expectations.get(a.line, "holds")
            if a.verdict not in ("verified", "counterexample"):
                return "incorrect", f"{f.name}:{a.line}: solver said {a.verdict} ({a.detail})"
            observed = "holds" if a.verdict == "verified" else "fails"
            if observed != expected:
                return (
                    "incorrect",
                    f"{f.name}:{a.line}: expected {expected}, verifier says {observed}",
                )
    return "correct", ""


def run_test(
    path: Path,
    solver_cmd: str | None = None,
    timeout: float = 60.0,
    unroll: int | None = None,
    cross_check_oracle: bool = False,
) -> TestOutcome:
    text = path.read_text()
    expectations = parse_expectations(text)
    start = time.monotonic()
    report = verify_source(text, solver_cmd=solver_cmd, timeout=timeout, unroll=unroll)
    elapsed = time.monotonic() - start
    observed, detail = _classify(report, expectations)
    outcome = TestOutcome(
        test_id=str(path),
        expected=[expectations[k] for k in sorted(expectations)],
        observed=observed,
        wall_time_seconds=elapsed,
        detail=detail,
    )
    if cross_check_oracle and observed in ("correct", "incorrect"):
        mismatch = _oracle_mismatch(text, expectations)
        if mismatch:
            outcome.observed = "incorrect"
            outcome.detail = (outcome.detail + "; " if outcome.detail else "") + mismatch
    return outcome


def _oracle_mismatch(text: str, expectations: dict[int, str]) -> str:
    """Run the constructor oracle when the contract is self-contained and
    compare assert outcomes with the expectations."""
    try:
        contract = resolve_and_check(parse_source(text))
    except SolmemError:
        return ""
    if contract.functions:
        return ""  # functions take arbitrary inputs; only the verifier applies
    try:
        result = run_constructor(contract)
    except SolmemError as e:
        return f"oracle failed: {e}"
    for a in result.asserts:
        expected = expectations.get(a.line, "holds")
        observed = "holds" if a.passed else "fails"
        if observed != expected:
            return f"oracle disagrees at line {a.line}: expected {expected}, ran {observed}"
    return ""


@dataclass
class ClassSummary:
    name: str
    correct: int = 0
    incorrect: int = 0
    unsupported: int = 0
    timeout: int = 0
    invalid: int = 0
    time_seconds: float = 0.0
    tests: list[TestOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.correct + self.incorrect + self.unsupported + self.timeout + self.invalid


def run_corpus(
    corpus_dir: Path,
    solver_cmd: str | None = None,
    timeout: float = 60.0,
    unroll: int | None = None,
    jobs: int = 4,
    cross_check_oracle: bool = False,
) -> dict[str, ClassSummary]:
    classes: dict[str, ClassSummary] = {}
    work: list[tuple[str, Path]] = []
    for class_dir in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        classes[class_dir.name] = ClassSummary(class_dir.name)
        for test in sorted(class_dir.glob("*.sol")):
            work.append((class_dir.name, test))

    def run_one(item):
        cls, path = item
        return cls, run_test(
            path,
            solver_cmd=solver_cmd,
            timeout=timeout,
            unroll=unroll,
            cross_check_oracle=cross_check_oracle,
        )

    with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
        for cls, outcome in pool.map(run_one, work):
            summary = classes[cls]
            summary.tests.append(outcome)
            summary.time_seconds += outcome.wall_time_seconds
            setattr(summary, outcome.observed, getattr(summary, outcome.observed) + 1)
    return classes


def render_table(classes: dict[str, ClassSummary]) -> str:
    lines = []
    header = f"{'class':<14} {'correct':>8} {'incorrect':>10} {'unsupported':>12} {'timeout':>8} {'time (s)':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(classes):
        s = classes[name]
        label = f"{name} ({s.total})"
        lines.append(
            f"{label:<14} {s.correct:>8} {s.incorrect:>10} {s.unsupported:>12} "
            f"{s.timeout:>8} {s.time_seconds:>9.2f}"
        )
        for t in s.tests:
            if t.observed in ("incorrect", "invalid") and t.detail:
                lines.append(f"    {Path(t.test_id).name}: {t.observed}: {t.detail}")
    return "\n".join(lines)


def report_json(classes: dict[str, ClassSummary]) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "classes": {
            name: {
                "correct": s.correct,
                "incorrect": s.incorrect,
                "unsupported": s.unsupported,
                "timeout": s.timeout,
                "invalid": s.invalid,
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
    agreed: bool
    compared: int
    detail: str = ""
    wall_time_seconds: float = 0.0
    rejections: dict[str, int] = field(default_factory=dict)  # generator candidates, by reason


def differential_check(
    source: str,
    solver_cmd: str | None = None,
    timeout: float = 60.0,
    unroll: int | None = None,
) -> tuple[bool, int, str]:
    """Oracle vs verifier on a constructor-only program: for every assert
    the oracle reached, passed must verify and failed must refute."""
    contract = resolve_and_check(parse_source(source))
    oracle_result = run_constructor(contract)
    report = verify_source(source, solver_cmd=solver_cmd, timeout=timeout, unroll=unroll)
    if report.error is not None or report.unsupported is not None:
        return False, 0, f"verifier rejected program: {report.error or report.unsupported}"
    ctor = next((f for f in report.functions if f.name == "constructor"), None)
    if ctor is None:
        return False, 0, "no constructor report"
    if ctor.unsupported is not None:
        return False, 0, f"translation unsupported: {ctor.unsupported}"
    compared = 0
    for outcome in oracle_result.asserts:
        if outcome.ordinal >= len(ctor.asserts):
            return False, compared, "verifier reported fewer asserts than the oracle ran"
        verdict = ctor.asserts[outcome.ordinal].verdict
        if verdict not in ("verified", "counterexample"):
            return False, compared, f"assert {outcome.ordinal}: solver said {verdict}"
        agreed = (verdict == "verified") == outcome.passed
        compared += 1
        if not agreed:
            return (
                False,
                compared,
                f"assert {outcome.ordinal} (line {outcome.line}): oracle "
                f"{'passed' if outcome.passed else 'failed'}, verifier said {verdict}",
            )
    return True, compared, ""


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
            source = builder.build()
            agreed, compared, detail = differential_check(
                source, solver_cmd=solver_cmd, timeout=timeout
            )
        except SolmemError as e:
            return FuzzOutcome(seed, False, 0, f"pipeline error: {e}", rejections=dict(builder.rejections))
        return FuzzOutcome(
            seed, agreed, compared, detail, time.monotonic() - start, dict(builder.rejections)
        )

    with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
        return list(pool.map(run_one, seeds))
