"""End-to-end verification pipeline.

parse -> resolve -> translate each function -> normalize -> SSA -> one
verification condition per assert -> external solver. Produces a
structured report that the CLI renders and the corpus harness consumes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import ParseError, ResolveError, SolmemError, UnsupportedError
from .ir import SmtProgram
from .normalize import normalize_lhs
from .parser import parse_source
from .resolver import resolve_and_check
from .sol_ast import Contract
from .smtlib import emit_smtlib
from .solver import query
from .ssa import to_ssa
from .translate import TranslatedFunction, translate_function
from .vcgen import vc_gen

# Solver answer -> assert verdict; every other kind ("timeout",
# "unknown", "error") keeps its name.
VERDICT_OF = {"unsat": "verified", "sat": "counterexample"}


@dataclass
class AssertResult:
    line: int
    text: str
    verdict: str  # "verified" | "counterexample" | "timeout" | "unknown" | "error"
    model: dict[str, str] = field(default_factory=dict)
    detail: str = ""
    time_seconds: float = 0.0


@dataclass
class FunctionReport:
    name: str
    asserts: list[AssertResult] = field(default_factory=list)
    unsupported: str | None = None
    smt_scripts: list[str] = field(default_factory=list)
    program: SmtProgram | None = None  # the translated program


@dataclass
class VerifyReport:
    functions: list[FunctionReport] = field(default_factory=list)
    error: str | None = None
    unsupported: str | None = None
    warnings: list[str] = field(default_factory=list)
    contract: Contract | None = None  # the resolved contract, when it resolved

    def exit_code(self) -> int:
        """0 all verified, 1 a counterexample, 2 anything else; an `error`
        verdict wins over a counterexample."""
        verdicts = {a.verdict for f in self.functions for a in f.asserts}
        if "error" in verdicts or self.error is not None:
            return 2
        if "counterexample" in verdicts:
            return 1
        complete = self.unsupported is None and not any(f.unsupported for f in self.functions)
        return 0 if complete and verdicts <= {"verified"} else 2


def verify_translated(
    tf: TranslatedFunction,
    solver_cmd: str | None = None,
    timeout: float = 60.0,
) -> FunctionReport:
    report = FunctionReport(tf.name, program=tf.program)
    ssa = to_ssa(normalize_lhs(tf.program))
    for info in tf.asserts:
        formula = vc_gen(ssa.program, info.ordinal)
        try:
            script = emit_smtlib(ssa.program, formula)
        except RecursionError:
            detail = "verification condition nested too deeply to print (RecursionError)"
            report.asserts.append(AssertResult(info.line, info.text, "error", detail=detail))
            continue
        report.smt_scripts.append(script)
        start = time.monotonic()
        verdict = query(script, timeout, solver_cmd)
        model = {shown: verdict.model[name] for name, shown in tf.entry.items() if name in verdict.model}
        report.asserts.append(
            AssertResult(
                info.line,
                info.text,
                VERDICT_OF.get(verdict.kind, verdict.kind),
                model=model,
                detail=verdict.detail,
                time_seconds=time.monotonic() - start,
            )
        )
    return report


def verify_source(
    text: str,
    solver_cmd: str | None = None,
    timeout: float = 60.0,
    unroll: int | None = None,
) -> VerifyReport:
    report = VerifyReport()
    try:
        contract = resolve_and_check(parse_source(text))
    except UnsupportedError as e:
        report.unsupported = str(e)
        return report
    except (ParseError, ResolveError) as e:
        report.error = str(e)
        return report
    except RecursionError:
        report.error = "source nested too deeply to parse and resolve (RecursionError)"
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
        except RecursionError:
            report.error = f"{fn.name}: expression nested too deeply to translate (RecursionError)"
            return report
        report.functions.append(verify_translated(tf, solver_cmd, timeout))
    return report
