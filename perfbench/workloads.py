"""The benchmark's three program sets, each made from a seed.

A workload is a list of `Program`s that one pass runs in order. The
sets are fixed in shape and vary with the seed only in order and in
constants, so every seed costs about the same and the spread between
runs reflects the program under test, not the draw.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

FUZZ_WINDOW = 200  # programs per fuzz pass
FUZZ_BUDGET = 10  # statement budget handed to the generator

# 10 sizes x 2 shapes run to the end; the 1000-statement pair crashes the
# emitter (RecursionError in smtlib.expr_to_sexpr, threshold near 985
# conjuncts) and stays in as the known defect. 700 is far enough below
# the threshold that the tracer's few extra frames cannot tip it over.
STRESS_SIZES = tuple(range(250, 701, 50))
STRESS_CRASH_SIZE = 1000
STRESS_ASSERT_EVERY = 25
STRESS_CELLS = 7

_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
_ASSERT_RE = re.compile(r"\bassert\s*\(")
_BODY_RE = re.compile(r"\b(?:constructor|function)\b[^{;]*\{")
_BRACE_OR_SEMI_RE = re.compile(r"[{};]")


@dataclass
class Program:
    label: str
    source: str | None = None  # None: generated from fuzz_seed inside the timed region
    fuzz_seed: int | None = None
    expect: dict[int, str] | None = None  # assert line -> "holds" | "fails"


def strip_comments(text: str) -> str:
    return _COMMENT_RE.sub("", text)


def count_asserts(source: str) -> int:
    return len(_ASSERT_RE.findall(strip_comments(source)))


def count_statements(source: str) -> int:
    """Semicolon-terminated statements inside constructor and function
    bodies; struct members and state variables are not statements."""
    text = strip_comments(source)
    total = 0
    for body in _BODY_RE.finditer(text):
        depth = 1
        for m in _BRACE_OR_SEMI_RE.finditer(text, body.end()):
            c = m.group()
            if c == ";":
                total += 1
                continue
            depth += 1 if c == "{" else -1
            if depth == 0:
                break
    return total


def corpus_programs(corpus_dir: Path, seed: int, parse_expectations) -> list[Program]:
    """All corpus files, in an order drawn from the seed."""
    files = sorted(corpus_dir.glob("*/*.sol"))
    random.Random(seed).shuffle(files)
    programs = []
    for path in files:
        text = path.read_text()
        label = f"{path.parent.name}/{path.name}"
        programs.append(Program(label, text, expect=parse_expectations(text)))
    return programs


def fuzz_programs(seed: int) -> list[Program]:
    """Generator seeds 0..FUZZ_WINDOW-1, in an order drawn from the seed.
    The set is pinned so that its SHA-256 digest can be recorded and
    checked on every run."""
    programs = [Program(f"fuzz:{s}", fuzz_seed=s) for s in range(FUZZ_WINDOW)]
    random.Random(seed).shuffle(programs)
    return programs


def stress_source(size: int, assert_every: int, rng: random.Random) -> str:
    """Straight-line constructor `a[(i+o)%7] = a[(i+o+d)%7] + (i+c);`
    with its asserts computed here, so every assert holds."""
    o = rng.randrange(STRESS_CELLS)
    d = rng.randrange(1, STRESS_CELLS)
    c = rng.randrange(100)
    cells = [0] * STRESS_CELLS
    body = []
    for i in range(size):
        dst, src = (i + o) % STRESS_CELLS, (i + o + d) % STRESS_CELLS
        cells[dst] = cells[src] + i + c
        body.append(f"a[{dst}] = a[{src}] + {i + c};")
        if assert_every and (i + 1) % assert_every == 0:
            body.append(f"assert(a[{dst}] == {cells[dst]});")
    last = (size - 1 + o) % STRESS_CELLS
    body.append(f"assert(a[{last}] == {cells[last]});")
    lines = ["contract Stress {", f"    int[{STRESS_CELLS}] a;", "    constructor() {"]
    lines += [f"        {stmt}" for stmt in body]
    lines += ["    }", "}"]
    return "\n".join(lines) + "\n"


def stress_programs(seed: int) -> list[Program]:
    rng = random.Random(seed)
    programs = []
    for size in STRESS_SIZES + (STRESS_CRASH_SIZE,):
        for every in (0, STRESS_ASSERT_EVERY):
            source = stress_source(size, every, rng)
            # every assert holds; the oracle and IR evaluator must agree
            expect = {n: "holds" for n, line in enumerate(source.splitlines(), 1) if "assert(" in line}
            programs.append(Program(f"stress:{size}/{every or 'end'}", source, expect=expect))
    rng.shuffle(programs)
    return programs
