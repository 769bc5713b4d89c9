"""Command-line entry points.

  solmem verify <file.sol>       check every assert with the SMT solver
  solmem run <file.sol>          execute through the reference interpreter
  solmem corpus <dir>            run a test corpus, print a summary table
  solmem fuzz                    differential fuzzing over generated programs

The solver command resolves from $SOLMEM_SOLVER, then z3 or cvc5 on
PATH.

verify, corpus and fuzz exit 2 when the solver cannot be found, launched
or smoke-tested, even if some assert also has a counterexample. corpus
and fuzz also exit 2 when a query runs past --timeout; verify then exits
2 unless some assert has a counterexample. Every command exits 2 when a
file cannot be read or written, a source is not UTF-8, a source or value
is nested too deeply for Python's recursion limit, or its standard
output is closed before it is done.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

from .errors import TOO_DEEP, SolmemError
from .generator import DEFAULT_BUDGET
from .harness import (
    ERRORS_OR_TIMEOUTS, OUTCOMES, exit_code, fuzz_report_json, read_source, render_table, report_json, run_corpus,
    run_fuzz,
)
from .oracle import exec_function, run_constructor, serialize, serialize_storage
from .parser import parse_source
from .resolver import resolve_and_check
from .smtlib import program_text
from .solver import DEFAULT_TIMEOUT_SECONDS
from .verify import verify_source


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_seconds(text: str) -> float:
    """A solver timeout: zero or less would kill every solver at once and
    report each VC as a timeout."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return seconds


def _add_timeout_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=_positive_seconds, default=DEFAULT_TIMEOUT_SECONDS,
                   help="per-query timeout in seconds (> 0)")


def cmd_verify(args) -> int:
    path = Path(args.file)
    report = verify_source(read_source(path), timeout=args.timeout, unroll=args.unroll)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.error is not None:
        print(f"{path}: error: {report.error}")
    if report.unsupported is not None:
        print(f"{path}: {report.unsupported}")
    for f in report.functions:
        if f.unsupported is not None:
            print(f"{f.name}: {f.unsupported}")
            continue
        if args.emit_ir:
            print(f"; intermediate program for {f.name}")
            print(program_text(f.program))
        for a in f.asserts:
            if a.verdict == "verified":
                tail = f" [{a.time_seconds:.2f}s]"
            elif a.verdict == "counterexample":
                model = ", ".join(f"{k} = {v}" for k, v in sorted(a.model.items()))
                tail = f" [{model}]" if model else ""
            else:
                tail = f" {a.detail}"
            print(f"{f.name}:{a.line}: assert({a.text}): {a.verdict}{tail}")
        if args.emit_smt is not None:
            out_dir = Path(args.emit_smt)
            out_dir.mkdir(parents=True, exist_ok=True)
            for i, script in enumerate(f.smt_scripts):
                (out_dir / f"{path.stem}.{f.name}.{i}.smt2").write_text(script, encoding="utf-8")
    return report.exit_code()


def cmd_run(args) -> int:
    path = Path(args.file)
    contract = resolve_and_check(parse_source(read_source(path)))
    fn = contract.function(args.entry)
    if fn is None and args.entry != "constructor":
        raise SolmemError(f"no function named {args.entry}")
    ctor = contract.constructor
    if fn is not None and not fn.is_constructor and ctor is not None and ctor.params:
        n = len(ctor.params)
        raise SolmemError(
            f"{fn.name} runs after the constructor, which takes {n} argument{'s' * (n != 1)}; "
            f"--args holds only {fn.name}'s arguments"
        )
    try:
        fn_args = json.loads(args.args) if args.args else []
    except json.JSONDecodeError as e:
        raise SolmemError(f"--args is not valid JSON: {e}") from e
    if fn is not None and not fn.is_constructor:
        result = exec_function(contract, fn.name, fn_args, initial=run_constructor(contract).state)
    else:
        result = run_constructor(contract, fn_args)
    returns = {
        name: serialize(result.state, r.ty, value)
        for r, (name, value) in zip(fn.returns if fn else [], result.returns.items())
    }
    payload = {
        "storage": serialize_storage(result),
        "returns": returns,
        "asserts": [{"index": a.ordinal, "line": a.line, "passed": a.passed} for a in result.asserts],
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    failed = result.failed
    if failed is not None:
        print(f"assert failed at line {failed.line} (index {failed.ordinal})", file=sys.stderr)
        return 1
    return 0


def cmd_corpus(args) -> int:
    corpus_dir = Path(args.dir)
    classes = run_corpus(corpus_dir, timeout=args.timeout)
    if not any(s.tests for s in classes.values()):  # it would pass having checked nothing
        raise SolmemError(f"{corpus_dir} holds no <class>/<name>.sol file")
    print(render_table(classes))
    if args.json:
        Path(args.json).write_text(json.dumps(report_json(classes), indent=2, sort_keys=True), encoding="utf-8")
    observed = {t.observed for s in classes.values() for t in s.tests}
    if observed == {"unsupported"}:  # it would pass having graded nothing
        raise SolmemError(f"every test in {corpus_dir} is unsupported")
    return exit_code(observed, {"incorrect", "invalid"})


def cmd_fuzz(args) -> int:
    seeds = range(args.start, args.start + args.count)
    outcomes = run_fuzz(seeds, size_budget=args.budget, timeout=args.timeout)
    errors = [o for o in outcomes if o.observed in ERRORS_OR_TIMEOUTS]
    disagreements = [o for o in outcomes if not o.agreed and o.observed not in ERRORS_OR_TIMEOUTS]
    compared = sum(o.compared for o in outcomes)
    rejections = Counter()
    for o in outcomes:
        rejections.update(o.rejections)
    print(f"{len(outcomes)} seeds, {compared} asserts compared, "
          f"{len(disagreements)} disagreements, {len(errors)} errors or timeouts")
    print("rejected candidates: "
          + (", ".join(f"{reason} {n}" for reason, n in sorted(rejections.items())) or "none"))
    for o in disagreements + errors[:1]:
        print(f"  seed {o.seed}: {o.observed}: {o.detail}")
    if args.json:
        Path(args.json).write_text(json.dumps(fuzz_report_json(outcomes), indent=2, sort_keys=True), encoding="utf-8")
    return exit_code({o.observed for o in outcomes}, set(OUTCOMES) - {"correct"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="solmem", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify the asserts in a contract")
    p.add_argument("file")
    _add_timeout_flag(p)
    p.add_argument("--unroll", type=_non_negative_int, default=None, metavar="N",
                   help="assume dynamic array lengths <= N (N >= 0) and unroll their copies: "
                        "an unsat that rests on the bound reads bounded")
    p.add_argument("--emit-smt", metavar="DIR", help="write one .smt2 script per assert")
    p.add_argument("--emit-ir", action="store_true", help="print the intermediate program")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="execute a function through the reference interpreter")
    p.add_argument("file")
    p.add_argument("--entry", default="constructor", help="function to run (default: constructor)")
    p.add_argument("--args", help="JSON array of arguments")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("corpus", help="run a corpus directory")
    p.add_argument("dir")
    _add_timeout_flag(p)
    p.add_argument("--json", metavar="PATH", help="write a JSON report")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("fuzz", help="differential fuzzing against the reference interpreter")
    _add_timeout_flag(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--budget", type=_non_negative_int, default=DEFAULT_BUDGET,
                   help="statements per generated program")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # nothing more reaches the reader; point stdout at /dev/null so the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed (broken pipe)", file=sys.stderr)
        return 2
    except (OSError, SolmemError) as e:  # an unreadable file, a rejected source or bad input
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: {TOO_DEEP}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
