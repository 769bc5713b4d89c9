"""solmem's stages, chained the way `verify.verify_source` chains them,
and the checks on their outputs that need no solver.

`load_stages` imports solmem afresh, so that set-up can be repeated and
timed. The pipeline stops at the finished SMT-LIB query ("time to
query"); deciding the query is a separate stage that runs only when the
solver answered the smoke query.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from workloads import FUZZ_BUDGET, Program, count_asserts

# (function, defining module, layer) for every stage the benchmark calls.
STAGES = (
    ("parse_source", "solmem.parser", "parser"),
    ("resolve_and_check", "solmem.resolver", "resolver"),
    ("translate_function", "solmem.translate", "translate"),
    ("normalize_lhs", "solmem.normalize", "normalize"),
    ("to_ssa", "solmem.ssa", "ssa"),
    ("vc_gen", "solmem.vcgen", "vcgen"),
    ("emit_smtlib", "solmem.smtlib", "smtlib"),
    ("run_constructor", "solmem.oracle", "oracle"),
    ("eval_ir", "solmem.ireval", "ireval"),
    ("random_program", "solmem.generator", "generator"),
    ("check", "solmem.solver", "solver"),
)
MODULES = sorted({module for _, module, _ in STAGES} | {"solmem.errors", "solmem.harness"})

# The query the test suite's `solver_available` fixture sends.
SMOKE_QUERY = "(set-logic ALL)(assert false)(check-sat)\n"
SMOKE_TIMEOUT_S = 30.0
DECIDE_TIMEOUT_S = 60.0


def load_stages() -> SimpleNamespace:
    """Import solmem from scratch and return its stage functions."""
    for name in [m for m in sys.modules if m == "solmem" or m.startswith("solmem.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in MODULES}
    stages = SimpleNamespace(**{fn: getattr(modules[mod], fn) for fn, mod, _ in STAGES})
    stages.modules = modules
    stages.default_solver_command = modules["solmem.solver"].default_solver_command
    stages.parse_expectations = modules["solmem.harness"].parse_expectations
    stages.SolmemError = modules["solmem.errors"].SolmemError
    stages.SolverFailure = modules["solmem.errors"].SolverFailure
    return stages


def traced_stages(stages: SimpleNamespace, tracer) -> SimpleNamespace:
    """The same stages with a span around every call, including the calls
    solmem makes across its own layers."""
    tracer.patch_import_sites(stages.modules)
    wrapped = {fn: tracer.wrap(layer, f"bench.{fn}", getattr(stages, fn)) for fn, _, layer in STAGES}
    return SimpleNamespace(**{**vars(stages), **wrapped})


@dataclass
class Query:
    """One function's SSA program and its per-assert SMT-LIB scripts."""

    is_constructor: bool
    asserts: list  # translate.AssertInfo, in ordinal order
    ssa: object
    scripts: list[str]


@dataclass
class Outcome:
    program: Program
    source: str | None
    seconds: float  # wall time of the attempt, failed or not
    contract: object = None
    queries: list[Query] = field(default_factory=list)
    oracle: object = None  # oracle.ExecResult when the run itself used the oracle
    error: str | None = None

    @property
    def vcs(self) -> int:
        return sum(len(q.scripts) for q in self.queries)

    @property
    def smt_bytes(self) -> int:
        return sum(len(s.encode()) for q in self.queries for s in q.scripts)


def to_query(stages, source: str):
    contract = stages.resolve_and_check(stages.parse_source(source))
    queries = []
    for fn in contract.all_functions():
        tf = stages.translate_function(contract, fn)
        ssa = stages.to_ssa(stages.normalize_lhs(tf.program)).program
        scripts = [stages.emit_smtlib(ssa, stages.vc_gen(ssa, a.ordinal)) for a in tf.asserts]
        queries.append(Query(tf.is_constructor, tf.asserts, ssa, scripts))
    return contract, queries


def run_program(stages, program: Program) -> Outcome:
    """One closed-loop request. A fuzz program is generated and run by
    the oracle first, as `solmem fuzz` does, then all go through the
    pipeline."""
    start = time.perf_counter()
    source, oracle = program.source, None
    try:
        if program.fuzz_seed is not None:
            source = stages.random_program(program.fuzz_seed, FUZZ_BUDGET)
            oracle = stages.run_constructor(stages.resolve_and_check(stages.parse_source(source)))
        contract, queries = to_query(stages, source)
    except (stages.SolmemError, RecursionError) as e:
        return Outcome(program, source, time.perf_counter() - start, error=f"{type(e).__name__}: {e}")
    return Outcome(program, source, time.perf_counter() - start, contract, queries, oracle)


def check_outputs(stages, out: Outcome, decide: bool) -> list[tuple[str, bool]]:
    """(check, passed) pairs for one completed program.

    - the VC count equals the source's assert count;
    - on constructor-only programs, the IR evaluator run on the SSA
      program fails at the same assert as the source-level oracle, and
      the oracle's outcomes match the program's expectations;
    - when `decide`, each solver verdict matches the expectation or,
      without one, the oracle.
    """
    results = [("vc_count", out.vcs == count_asserts(out.source))]
    ctor = next((q for q in out.queries if q.is_constructor), None)
    oracle = None
    if ctor is not None and not out.contract.functions:
        oracle = out.oracle or stages.run_constructor(out.contract)
        ran = stages.eval_ir(ctor.ssa)
        ir_failed = ran.failed_index if ran.status == "assert-failed" else None
        oracle_failed = oracle.failed.ordinal if oracle.failed else None
        results.append(("ireval_vs_oracle", ran.status != "assume-violated" and ir_failed == oracle_failed))
        if out.program.expect is not None:
            for a in oracle.asserts:
                expected = out.program.expect.get(a.line, "holds")
                results.append(("oracle_vs_expect", expected == ("holds" if a.passed else "fails")))
    if decide:
        results += _decide(stages, out, oracle)
    return results


def _decide(stages, out: Outcome, oracle) -> list[tuple[str, bool]]:
    reached = {a.ordinal: a.passed for a in oracle.asserts} if oracle else {}
    results = []
    for q in out.queries:
        for info, script in zip(q.asserts, q.scripts):
            if out.program.expect is not None:
                holds = out.program.expect.get(info.line, "holds") == "holds"
            elif q.is_constructor and info.ordinal in reached:
                holds = reached[info.ordinal]
            else:
                continue  # no ground truth: the oracle stopped before it
            verdict = stages.check(script, DECIDE_TIMEOUT_S)
            results.append(("decide", verdict.kind == ("unsat" if holds else "sat")))
    return results


@dataclass
class Preflight:
    available: bool
    reason: str
    seconds: float
    launches: int


def preflight(stages) -> Preflight:
    """One smoke query per run. Without an answer the solver layer is
    unavailable and no per-VC launch is made."""
    start = time.perf_counter()
    try:
        stages.default_solver_command()
    except stages.SolverFailure as e:
        return Preflight(False, str(e), time.perf_counter() - start, 0)
    verdict = stages.check(SMOKE_QUERY, SMOKE_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if verdict.kind != "unsat":
        reason = f"smoke query answered {verdict.kind}: {verdict.detail}".strip()
        return Preflight(False, " ".join(reason.split())[:300], seconds, 1)
    return Preflight(True, "", seconds, 1)
