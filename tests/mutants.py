"""A fixed list of mutants of the translator, SSA and normalization
rules, of the fuzz sampler's reads, of type interning and of the
harness's grading, and a runner that measures which of them the test
suite kills.

No solver runs in the test suite, so its trust in the translator rests on
the IR evaluator agreeing with the reference interpreter and on golden
digests. A digest fails on any change, right or wrong, so it says
nothing about semantics. Each mutant here breaks one rule of the
encoding, of the sampler whose values the fuzz asserts compare with,
of type interning or of grading, by replacing one exact text in one module; a mutant is killed
only when a test other than a pin (the golden digests, the encoding
goldens, the recorded corpus expectations and the benchmark's byte
counts) fails under it.

The test suite checks only that every listed text occurs exactly once in
its module, so that the list cannot rot. The runner is started by hand:
it copies the repository into a new or empty directory, runs the suite
there once unmutated and once per mutant (about half a minute each),
and prints one line per mutant:

    python3 tests/mutants.py SCRATCH_DIR            # every mutant
    python3 tests/mutants.py SCRATCH_DIR M3 M4b     # some of them
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "corpus", "pyproject.toml", "BENCHMARK.json")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    text: str  # occurs exactly once in the file
    replacement: str
    rule: str  # the rule of the encoding that the mutant breaks


MUTANTS = (
    Mutant(
        "M1", "src/solmem/translate.py",
        'ir.lt(idx, Select(entity, "length", dt))',
        'ir.le(idx, Select(entity, "length", dt))',
        "an index read is in range only below the length; out of range it reads the element default",
    ),
    Mutant(
        "M2", "src/solmem/translate.py",
        "self.emit(Assume(ir.le(pointer, Ident(ALLOC))))",
        "None",
        "a memory pointer passed in precedes every fresh allocation, so the two never alias",
    ),
    Mutant(
        "M3", "src/solmem/translate.py",
        "for target, (loc, tmp) in reversed(list(zip(s.lhs, temps))):",
        "for target, (loc, tmp) in zip(s.lhs, temps):",
        "a tuple assignment evaluates its right side left to right and assigns right to left",
    ),
    Mutant(
        "M4", "src/solmem/translate.py",
        "return [(ty.base, ArrayRead(arr, IntLit(i))) for i in range(bound)]",
        "return [(ty.base, ArrayRead(arr, IntLit(i))) for i in range(bound - 1)]",
        "element-wise work (deep copies, non-aliasing assumptions) covers every element",
    ),
    Mutant(
        "M4b", "src/solmem/translate.py",
        "self._parts(ty, dst, dst_loc, bound), self._parts(ty, src, src_loc, bound)",
        "self._parts(ty, dst, dst_loc, bound - 1), self._parts(ty, src, src_loc, bound - 1)",
        "a deep copy between storage and memory copies every element of a reference array",
    ),
    Mutant(
        "M5", "src/solmem/translate.py",
        "return self._alloc_memory_array(ty, IntLit(length))",
        "return self._alloc_memory_array(ty, IntLit(0))",
        "a fixed-size memory array is allocated with its declared length",
    ),
    Mutant(
        "M6", "src/solmem/translate.py",
        'whole = Construct(dst_dt, (Select(src, "arr", src_dt), length))',
        'whole = Construct(dst_dt, (Select(src, "arr", src_dt), IntLit(1)))',
        "a copied value-type array keeps the source's length",
    ),
    Mutant(
        "M7", "src/solmem/ssa.py",
        "Ite(cond, Ident(tv), Ident(ev))",
        "Ite(cond, Ident(ev), Ident(tv))",
        "after a branch each variable takes the version of the branch that ran",
    ),
    Mutant(
        "M8", "src/solmem/ssa.py",
        "cond = or_(not_(path), cond)\n                self.out.stmts.append(Assert(",
        "pass\n                self.out.stmts.append(Assert(",
        "an assert inside a branch is checked only on that branch's path",
    ),
    Mutant(
        "M9", "src/solmem/ssa.py",
        "cond = or_(not_(path), cond)\n                self.out.stmts.append(Assume(",
        "pass\n                self.out.stmts.append(Assume(",
        "an assumption inside a branch constrains only that branch's path",
    ),
    Mutant(
        "M10", "src/solmem/normalize.py",
        "return [IfStmt(lhs.cond, tuple(then), tuple(other))]",
        "return [IfStmt(lhs.cond, tuple(other), tuple(then))]",
        "an assignment to a conditional target writes the branch its condition picks",
    ),
    Mutant(
        "M11", "src/solmem/storage_tree.py",
        "node.edges.append(TreeEdge(m.name, len(node.edges), sub))",
        "node.edges.append(TreeEdge(m.name, len(node.edges) ^ 1, sub))",
        "struct edges of a storage tree are numbered in declaration order (ordinals XOR 1 swaps them in pairs)",
    ),
    Mutant(
        "M12", "src/solmem/generator.py",
        "return False if ty == BOOL else 0",
        "return 0",
        "the fuzz sampler reads a storage bool slot never written as false, as the interpreter does",
    ),
    Mutant(
        "M13", "src/solmem/translate.py",
        "last = node.edges[-1]\n    result = _unpack_below(ptr, leaf, last.target, edges + ((node, last),))\n"
        "    for edge in reversed(node.edges[:-1]):",
        "last = node.edges[0]\n    result = _unpack_below(ptr, leaf, last.target, edges + ((node, last),))\n"
        "    for edge in reversed(node.edges[1:]):",
        "a pointer element that matches no edge of a contract or struct node takes the node's last edge",
    ),
    Mutant(
        "M14", "src/solmem/interning.py",
        "instance = cls._instances.get(args)\n        if instance is None:\n"
        "            instance = cls._instances.setdefault(args, ",
        "instance = cls._instances.get(args[:-1])\n        if instance is None:\n"
        "            instance = cls._instances.setdefault(args[:-1], ",
        "a type is interned under all of its constructor arguments, so int[2] and int[3] are two types",
    ),
    Mutant(
        "M15", "src/solmem/harness.py",
        "if len(results) < len(expected):",
        "if False:",
        "a verifier report with fewer asserts than expected is graded incorrect",
    ),
)

# Tests that fail on any change to what they pin, right or wrong: golden
# digests, the pointer encoding's exact numbers, the recorded corpus
# expectations, the benchmark's byte counts (which the suite also runs as
# one aggregate test), and the check that each mutant's text is still there. Parametrized ids match by name.
PINS = {
    "tests/test_hygiene.py::test_each_mutant_text_occurs_once",
    "tests/test_lexer_golden.py::test_tokens_match_recorded",
    "tests/test_parser_golden.py::test_parse_digest",
    "tests/test_translate_golden.py::test_translation_and_emission_digest",
    "tests/test_oracle_golden.py::test_oracle_digest",
    "tests/test_generator.py::test_golden_snapshot_seed0",
    "tests/test_generator.py::test_golden_digest_and_rejections_seeds_0_199",
    "tests/test_harness_cli.py::test_parse_expectations_on_the_corpus_are_unchanged",
    "tests/test_acceptance.py::test_criterion_1_pack_unpack_goldens",
    "tests/test_storage_tree_pack_unpack.py::test_pack_goldens",
    "tests/test_bench_names.py::test_benchmark_tests_pass",
    "perfbench/test_perfbench.py::test_deterministic_counts_repeat_across_runs",
}


def failing(copy: Path) -> set[str]:
    """Ids of the tests that fail or error in `copy`. The benchmark's own
    tests run in a process of their own, as the suite runs them, since
    they re-import solmem."""
    # no bytecode: a mutant of the same size written within the second
    # would otherwise leave a cache that passes for the restored source
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    found = set()
    for suite in ("tests", "perfbench"):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", suite],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        found |= set(re.findall(r"^(?:FAILED|ERROR) (\S+?)(?: - |$)", proc.stdout, re.M))
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    copy, chosen = Path(argv[0]).resolve(), set(argv[1:])
    if copy.exists() and any(copy.iterdir()):
        print(f"{copy} is not empty; give a new or empty directory")
        return 2
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, copy / name)
    baseline = failing(copy)
    print(f"unmutated: {len(baseline)} failing or erroring (a missing solver errors)", flush=True)
    survivors = []
    for m in MUTANTS:
        if chosen and m.name not in chosen:
            continue
        path = copy / m.path
        pristine = path.read_text()
        assert pristine.count(m.text) == 1, m.name
        path.write_text(pristine.replace(m.text, m.replacement))
        try:
            new = failing(copy) - baseline
        finally:
            path.write_text(pristine)
        pinned = {t for t in new if t.split("[")[0] in PINS}
        killers = sorted(new - pinned)
        verdict = f"killed by {len(killers)}: {', '.join(killers[:3])}" if killers else "SURVIVES"
        pins = f"; pins failing: {len(pinned)}"
        print(f"{m.name} ({m.rule}): {verdict}{pins}", flush=True)
        if not killers:
            survivors.append(m.name)
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
