"""Layered benchmark for solmem: time to query on three workloads.

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload fuzz --seed 3 --seconds 10 --trace 0

One process, one client, closed loop: the next program starts when the
previous one has its SMT-LIB queries. A run makes whole passes over the
workload's program set until `--seconds` of timed work (by default
`run_seconds` in BENCHMARK.json) and at least MIN_PASSES passes are
done. Each attempt's time to query, failed or not, is divided by the
host's slowdown at that moment (probe.py), and a program's time is the
median over its passes. Output checks run outside the timed region.
`--trace 1` times one half of the run untraced and one half with spans
on every layer boundary, and reports per-layer numbers per pass. The
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from pipeline import check_outputs, load_stages, preflight, run_program, traced_stages  # noqa: E402
from probe import host_slowdown  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    STRESS_SIZES,
    Program,
    corpus_programs,
    count_statements,
    fuzz_programs,
    stress_programs,
)

WORKLOADS = ("corpus", "fuzz", "stress")
LAYERS = (
    "lexer", "parser", "resolver", "translate", "storage_tree", "normalize", "ssa",
    "vcgen", "smtlib", "oracle", "ireval", "generator", "solver",
)
SETUP_REPEATS = 5
MIN_PASSES = 5  # so that each program's median has five samples
PROBE_EVERY_S = 0.25  # timed work between two measurements of the host's speed
FUZZ_WARMUP_SEEDS = range(8)
UNITS = {
    "setup_s": "s",
    "programs_per_s": "1/s",
    "stmts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "smt_bytes_per_vc": "B",
    "peak_rss_mb": "MB",
}


def sha256_of(sources) -> str:
    h = hashlib.sha256()
    for s in sources:
        h.update(s.encode())
    return h.hexdigest()


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; +inf entries (failed programs) sort last."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def setup(workload: str, seed: int):
    """Import solmem, make the inputs and warm up. Returns the stages and
    the program set."""
    stages = load_stages()
    if workload == "corpus":
        programs = corpus_programs(ROOT / "corpus", seed, stages.parse_expectations)
        warm = programs
    elif workload == "fuzz":
        programs = fuzz_programs(seed)
        warm = [Program(f"fuzz:{s}", fuzz_seed=s) for s in FUZZ_WARMUP_SEEDS]
    else:
        programs = stress_programs(seed)
        warm = [p for p in programs if p.label.startswith(f"stress:{STRESS_SIZES[0]}/")]
    for program in warm:
        run_program(stages, program)
    return stages, programs


class Loop:
    """Closed-loop passes over a program set, timed per program."""

    def __init__(self, stages, programs, tracer=None):
        self.stages, self.programs, self.tracer = stages, programs, tracer
        self.times: list[list[float]] = [[] for _ in programs]  # scaled, per attempt
        self.done = [True] * len(programs)  # False once an attempt has failed
        self.stmts = [0] * len(programs)
        self.wall = 0.0
        self.attempts = self.failed = self.passes = self.vcs = self.smt_bytes = 0
        self.checks: list[tuple[str, bool]] = []
        self.first_pass: list[tuple[Program, str | None]] = []
        self.errors: dict[str, str] = {}
        self.slowdowns: list[float] = []

    def run(self, seconds: float, min_passes: int, check_passes: int, decide: bool) -> None:
        gc.collect()
        since_probe = math.inf
        while self.passes < min_passes or self.wall < seconds:
            for index, program in enumerate(self.programs):
                if since_probe >= PROBE_EVERY_S:
                    self.slowdowns.append(host_slowdown())
                    since_probe = 0.0
                out = run_program(self.stages, program)
                self.attempts += 1
                self.wall += out.seconds
                since_probe += out.seconds
                self.times[index].append(out.seconds / self.slowdowns[-1])
                if self.passes == 0:
                    self.first_pass.append((program, out.source))
                if out.error:
                    self.failed += 1
                    self.done[index] = False
                    self.errors.setdefault(program.label, out.error[:120])
                    continue
                if self.passes == 0:
                    self.stmts[index] = count_statements(out.source)
                    self.vcs += out.vcs
                    self.smt_bytes += out.smt_bytes
                if self.tracer is not None and program.fuzz_seed is not None:
                    self.tracer.counts["generator.kept_stmts"] += self.stmts[index]
                if self.passes < check_passes:
                    self.checks += check_outputs(self.stages, out, decide)
            self.passes += 1

    @property
    def pass_seconds(self) -> float:
        """One pass's time: the sum over programs, failed ones too, of
        the median of their scaled times."""
        return sum(statistics.median(t) for t in self.times)

    @property
    def latencies(self) -> list[float]:
        """Per program, the median of its scaled times; +inf if it failed."""
        return [statistics.median(t) if ok else math.inf for t, ok in zip(self.times, self.done)]

    @property
    def programs_per_s(self) -> float:
        """Completed programs per second of a pass, failed attempts' time included."""
        return sum(self.done) / self.pass_seconds


def end_to_end(loop: Loop, setup_times: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "programs_per_s": loop.programs_per_s,
        "stmts_per_s": sum(n for n, ok in zip(loop.stmts, loop.done) if ok) / loop.pass_seconds,
        "latency_p50_ms": quantile(sorted(loop.latencies), 0.5) * 1000,
        "smt_bytes_per_vc": loop.smt_bytes / loop.vcs if loop.vcs else math.inf,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, passes: int, solver, untraced_pps: float, traced_pps: float):
    """Per-layer numbers per pass, and the table rows that print them."""
    totals = layer_totals(tracer.spans)
    metrics, rows = {}, []
    for layer in LAYERS:
        row = totals.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if layer == "solver" and not solver.available:
            rows.append(f"{layer:<13} unavailable: {solver.reason}")
            continue
        if layer != "solver":  # solver time depends on the machine's solver, not on solmem
            for key, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
                metrics[f"{layer}.{key}"] = (row[key] / passes, unit)
        rows.append(
            f"{layer:<13} {row['calls'] / passes:>10.1f} {row['total_s'] / passes:>11.6f} "
            f"{row['self_s'] / passes:>11.6f}"
        )
    generated = totals.get("generator", {}).get("calls", 0)
    candidate_runs = tracer.name_count("solmem.generator.run_constructor")
    parse_calls = tracer.name_count("solmem.generator.parse_source")
    metrics.update({
        "lexer.tokens": (tracer.counts["lexer.tokens"] / passes, "count"),
        "smtlib.bytes": (tracer.counts["smtlib.bytes"] / passes, "B"),
        "ssa.stmts": (tracer.counts["ssa.stmts"] / passes, "count"),
        "generator.parse_calls_per_program": (parse_calls / generated if generated else 0.0, "count"),
        "generator.useful_ratio": (
            tracer.counts["generator.kept_stmts"] / candidate_runs if candidate_runs else 0.0, "ratio"),
        "solver.launches": (solver.launches + totals.get("solver", {}).get("calls", 0), "count"),
        "solver.preflight_s": (solver.seconds, "s"),
        "trace.overhead_programs_per_s": (untraced_pps - traced_pps, "1/s"),
    })
    return metrics, rows


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        slowdown = host_slowdown()
        start = time.perf_counter()
        stages, programs = setup(workload, seed)
        setup_times.append((time.perf_counter() - start) / slowdown)
    solver = preflight(stages)

    print(f"workload {workload}  seed {seed}  programs/pass {len(programs)}  "
          f"closed loop, 1 client  trace {int(trace)}")
    print(f"solver: {'available' if solver.available else 'unavailable: ' + solver.reason}")
    if trace:
        plain = Loop(stages, programs)
        plain.run(seconds / 2, 1, 0, False)
        tracer = Tracer()
        loop = Loop(traced_stages(stages, tracer), programs, tracer)
        loop.run(seconds / 2, 1, sys.maxsize, solver.available)
    else:
        loop = Loop(stages, programs)
        loop.run(seconds, MIN_PASSES, 1, solver.available)

    checks = loop.checks
    if workload == "fuzz":
        # a generator change must not silently change the workload
        generated = sorted(loop.first_pass, key=lambda item: item[0].fuzz_seed)
        recorded = json.loads((HERE / "baseline.json").read_text())["fuzz_sha256"]
        checks.append(("fuzz_digest", sha256_of(src or "" for _, src in generated) == recorded))
    wrong = [name for name, ok in checks if not ok]
    attempted = loop.attempts
    print(f"passes {loop.passes}  attempts {attempted}  timed {loop.wall:.3f} s  "
          f"VCs/pass {loop.vcs}  SMT bytes/pass {loop.smt_bytes}")
    print(f"host slowdown against the probe's reference: min {min(loop.slowdowns):.3f}  "
          f"median {statistics.median(loop.slowdowns):.3f}  max {max(loop.slowdowns):.3f}")
    print(f"failed_share {loop.failed / attempted:.4f} ({loop.failed}/{attempted})  "
          f"wrong_share {len(wrong) / len(checks):.4f} ({len(wrong)}/{len(checks)} checks)")
    for label, error in sorted(loop.errors.items()):
        print(f"  failed {label}: {error}")
    for name in sorted(set(wrong)):
        print(f"  WRONG {name}: {wrong.count(name)}")

    if trace:
        metrics, rows = per_layer(tracer, loop.passes, solver, plain.programs_per_s, loop.programs_per_s)
        print(f"tracing overhead: {plain.programs_per_s:.2f} untraced - {loop.programs_per_s:.2f} "
              f"traced = {plain.programs_per_s - loop.programs_per_s:.2f} programs/s")
        print(f"{'layer':<13} {'calls/pass':>10} {'total_s/pass':>11} {'self_s/pass':>11}")
        for row in rows:
            print(row)
    else:
        metrics = {name: (value, UNITS[name]) for name, value in end_to_end(loop, setup_times).items()}
        n, beyond = len(loop.programs), len(loop.programs) - math.ceil(0.9 * len(loop.programs))
        print(f"latency over {n} programs, each the median of {loop.passes} passes; "
              f"failed programs count as +inf")
        if beyond >= 10:
            p90 = quantile(sorted(loop.latencies), 0.9) * 1000
            print(f"latency_p90_ms {p90:.6f} ms ({beyond} samples beyond it)")
        else:
            print(f"latency_p90_ms not reported: {beyond} samples beyond it, fewer than 10")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process so
    that peak RSS and imports are per run."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
            print()
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per workload run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "solmem", ROOT / "corpus") if not p.is_dir()]
    if missing:
        print(f"perfbench: run from a solmem checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
