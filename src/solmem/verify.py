"""End-to-end verification pipeline.

parse -> resolve -> translate each function -> normalize -> SSA -> one
verification condition per assert -> external solver. Produces a
structured report that the CLI renders and the corpus harness consumes.

`ssa_form` (normalize, then SSA) and `vc_script` (one assert's VC,
printed as SMT-LIB) are the one place the stage chain is written: the
pipeline and the tests call them, and a test of a single stage calls
that stage.
"""

from __future__ import annotations

import time

from .errors import ParseError, ResolveError, SolmemError, UnsupportedError
from .ir import SmtProgram
from .normalize import normalize_lhs
from .parser import parse_source
from .records import Record
from .resolver import resolve_and_check
from .sol_ast import Contract
from .smtlib import emit_smtlib
from .solver import DEFAULT_TIMEOUT_SECONDS, query
from .ssa import SsaResult, to_ssa
from .translate import TranslatedFunction, translate_function
from .vcgen import vc_gen

# Solver answer -> assert verdict; every other kind ("timeout",
# "unknown", "error") keeps its name.
VERDICT_OF = {"unsat": "verified", "sat": "counterexample"}


class AssertResult(Record):
    __slots__ = ("line", "text", "verdict", "model", "detail", "time_seconds")

    def __init__(
        self, line: int, text: str, verdict: str, model: dict[str, str] | None = None, detail: str = "",
        time_seconds: float = 0.0,
    ):
        self.line = line
        self.text = text
        self.verdict = verdict  # "verified" | "bounded" | "counterexample" | "timeout" | "unknown" | "error"
        self.model = {} if model is None else model
        self.detail = detail
        self.time_seconds = time_seconds


class FunctionReport(Record):
    __slots__ = ("name", "asserts", "unsupported", "smt_scripts", "program")

    def __init__(
        self, name: str, asserts: list[AssertResult] | None = None, unsupported: str | None = None,
        smt_scripts: list[str] | None = None, program: SmtProgram | None = None,
    ):
        self.name = name
        self.asserts = [] if asserts is None else asserts
        self.unsupported = unsupported
        self.smt_scripts = [] if smt_scripts is None else smt_scripts
        self.program = program  # the translated program


class VerifyReport(Record):
    __slots__ = ("functions", "error", "unsupported", "warnings", "contract")

    def __init__(
        self, functions: list[FunctionReport] | None = None, error: str | None = None,
        unsupported: str | None = None, warnings: list[str] | None = None, contract: Contract | None = None,
    ):
        self.functions = [] if functions is None else functions
        self.error = error
        self.unsupported = unsupported
        self.warnings = [] if warnings is None else warnings
        self.contract = contract  # the resolved contract, when it resolved

    def exit_code(self) -> int:
        """0 all verified, 1 a counterexample, 2 anything else (`bounded`
        included); an `error` verdict wins over a counterexample."""
        verdicts = {a.verdict for f in self.functions for a in f.asserts}
        if "error" in verdicts or self.error is not None:
            return 2
        if "counterexample" in verdicts:
            return 1
        complete = self.unsupported is None and not any(f.unsupported for f in self.functions)
        return 0 if complete and verdicts <= {"verified"} else 2


def ssa_form(program: SmtProgram) -> SsaResult:
    """The flat single-assignment form of a translated program."""
    return to_ssa(normalize_lhs(program))


def vc_script(program: SmtProgram, ordinal: int) -> str:
    """The SMT-LIB script that checks assert `ordinal` of an SSA program."""
    return emit_smtlib(program, vc_gen(program, ordinal))


def verify_translated(tf: TranslatedFunction, timeout: float = DEFAULT_TIMEOUT_SECONDS) -> FunctionReport:
    report = FunctionReport(tf.name, program=tf.program)
    ssa = ssa_form(tf.program).program
    for info in tf.asserts:
        try:
            script = vc_script(ssa, info.ordinal)
        except RecursionError:
            detail = "verification condition nested too deeply to print (RecursionError)"
            report.asserts.append(AssertResult(info.line, info.text, "error", detail=detail))
            continue
        report.smt_scripts.append(script)
        start = time.monotonic()
        verdict = query(script, timeout)
        model = {shown: verdict.model[name] for name, shown in tf.entry.items() if name in verdict.model}
        kind, detail = VERDICT_OF.get(verdict.kind, verdict.kind), verdict.detail
        if kind == "verified" and info.bound is not None:
            # the VC assumed every unrolled length <= N, so longer ones were never checked
            kind, detail = "bounded", f"holds for array lengths up to {info.bound} only (--unroll {info.bound})"
        report.asserts.append(
            AssertResult(
                info.line, info.text, kind, model=model, detail=detail, time_seconds=time.monotonic() - start
            )
        )
    return report


def verify_source(text: str, timeout: float = DEFAULT_TIMEOUT_SECONDS, unroll: int | None = None) -> VerifyReport:
    """Verify every assert of a contract. A source nested too deeply to
    parse, resolve or translate raises `RecursionError`."""
    report = VerifyReport()
    try:
        contract = resolve_and_check(parse_source(text))
    except UnsupportedError as e:
        report.unsupported = str(e)
        return report
    except (ParseError, ResolveError) as e:
        report.error = str(e)
        return report
    report.contract = contract
    report.warnings = list(contract.warnings)
    for fn in contract.all_functions():
        try:
            tf = translate_function(contract, fn, unroll)
        except UnsupportedError as e:
            report.functions.append(FunctionReport(fn.name, unsupported=str(e)))
            continue
        except SolmemError as e:
            report.error = f"{fn.name}: {e}"
            return report
        report.functions.append(verify_translated(tf, timeout))
    return report
