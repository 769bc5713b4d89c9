"""Parse trees and parse errors pinned by one digest.

For the programs `sources.pinned()` lists but the assignment matrix (the
corpus, the shared test contracts, generated programs of seeds 0-49 and
two long straight-line constructors), the digest covers
`repr(parse_source(text))`, or the type, text, line and column of the
error raised. It also covers a few thousand `parse_statement` inputs made
by inserting and deleting operators, brackets, identifiers and numbers
in corpus statements with a fixed seed, so operator precedence,
associativity and the position of every syntax error are pinned. A
rewrite of the parser must leave it unchanged.
"""

import hashlib
import random
import re

import sources
from solmem.errors import SolmemError
from solmem.parser import parse_source, parse_statement

DIGEST = "74070c7f0418b9c217ee5f5e27d9806694b9de3ab8f07f4ff109348efdbf754d"

MUTATIONS = 6000

_PIECE_RE = re.compile(r"\w+|=>|==|!=|<=|>=|&&|\|\||\S")
_OPERANDS = ["x", "a", "s1", "length", "push", "0", "7", "42"]
_SYMBOLS = "+ - * == < && || ? : ( ) [ ] ! . = ;".split()
# single pieces, and an operator with its operand so that many mutants
# still parse and pin the shape of the tree
_INSERTS = _SYMBOLS + _OPERANDS + [
    f"{op} {operand}" for op in ("+", "-", "==", "!=", "<", ">=", "&&", "||") for operand in ("x", "7")
] + ["? x : 7", "( x )", "[ 0 ]", "! x", "- x"]


def corpus_statements() -> list[str]:
    stmts = []
    for text in sources.corpus().values():
        for line in text.splitlines():
            line = line.strip()
            if line.endswith(";") and not line.startswith("//"):
                stmts.append(line)
    return stmts


def mutated_statements():
    """(line, col, text): corpus statements with one or two pieces
    inserted or deleted."""
    rng = random.Random(7)
    stmts = corpus_statements()
    for i in range(MUTATIONS):
        pieces = _PIECE_RE.findall(rng.choice(stmts))
        for _ in range(rng.randint(1, 2)):
            if pieces and rng.random() < 0.3:
                del pieces[rng.randrange(len(pieces))]
            else:
                pieces.insert(rng.randint(0, len(pieces)), rng.choice(_INSERTS))
        yield 1 + i % 50, 1 + i % 9, " ".join(pieces)


def outcome(parse, *args) -> str:
    try:
        return repr(parse(*args))
    except SolmemError as e:
        return f"error {type(e).__name__} {getattr(e, 'line', 0)}:{getattr(e, 'col', 0)} {e}"


def golden_digest() -> str:
    digest = hashlib.sha256()
    for name, source in sources.pinned():
        if name == "matrix":
            continue
        digest.update(f"{name}\0{outcome(parse_source, source)}\0".encode())
    for line, col, text in mutated_statements():
        digest.update(f"{line}:{col} {text}\0{outcome(parse_statement, text, line, col)}\0".encode())
    return digest.hexdigest()


def test_parse_digest():
    assert golden_digest() == DIGEST
