"""The regex lexer against token streams recorded from the earlier
per-character lexer: same tokens (kind, value, line, col), same error
messages and positions, on every corpus file, 50 generated programs,
long straight-line sources and hand-picked edge cases. A differential
compares it with the previous regex lexer (`tests/reflexer.py`) the
same way, on the corpus, the generated programs and random texts."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

import reflexer
import sources
from solmem.errors import ParseError
from solmem.lexer import KEYWORDS, SYMBOLS, tokenize

GOLDEN = Path(__file__).parent / "data" / "lexer_golden.json"

EDGE_CASES = {
    "empty": "",
    "only_space": " \t\r\n\n  ",
    "unterminated_block": "int x; /* never\nclosed",
    "unterminated_after_lines": "a\n\n   /*",
    "malformed_number": "x = 12ab;",
    "number_underscore": "1_",
    "number_at_end": "x = 12",
    "at_sign": "int @ x;",
    "backtick": "int x = `3`;",
    "tabs": "\tint\tx;\n\t\tx = 1;\t// tab\n",
    "crlf": "int x;\r\nx = 1;\r\n/* a\r\nb */ y\r\n",
    "comments": "a // line\n/* b */ c /* d\n e */ f//g\n//",
    "empty_block_comment": "/**/x/***/y",
    "slash_is_symbol": "a / b % c * d",
    "two_char_symbols": "a=>b==c!=d<=e>=f&&g||h=i<j>k!l",
    "keywords": "contract struct constructor function returns mapping storage memory "
                "delete new assert true false int uint bool address pragma if bytes public",
    "underscore_ident": "_a a_1 __ _9",
    "hex_literal": "0x1f",
    "non_ascii_ident": "int \u00e9t\u00e9 = 1;",
    "nbsp": "x\u00a0y",
    "line_separator": "x\u2028y\nz",
    "lone_cr": "x\ry",
    "trailing_space": "x  ",
    "trailing_space_after_newline": "x \n  ",
    "space_before_backtick": "a  `",
    "space_before_malformed_number": "  12ab",
    "form_feed_vertical_tab": "a\fb\v c \f\vd",
    "nbsp_before_newline": "x\u00a0\ny",
    "line_separator_spaced": "x \u2028 y",
    "indent_after_block_comment": "a /* b\n  c */\n    d",
    "crlf_indent": "a\r\n    b\r\n\tc",
}


def stress_source(size: int, assert_every: int) -> str:
    """`sources.stress_source` with each assert comparing its cell with itself."""
    return re.sub(r"assert\(a\[(\d)\] == \d+\);", r"assert(a[\1] == a[\1]);", sources.stress_source(size, assert_every))


def real_sources():
    """(name, text) of every corpus file and generated program recorded:
    those of `sources.pinned()`."""
    return [(name, text) for name, text in sources.pinned() if name.startswith(("corpus/", "fuzz/"))]


def inputs():
    """(name, text) for every recorded input."""
    yield from real_sources()
    for size, every in ((250, 0), (250, 25), (1000, 0)):
        yield f"stress/{size}/{every}", stress_source(size, every)
    yield from EDGE_CASES.items()


def lex(text: str, tokenizer=tokenize, line: int = 1, col: int = 1):
    """Tokens as [kind, value, line, col] lists, or the error raised."""
    try:
        return [list(t) for t in tokenizer(text, line, col)]
    except ParseError as e:
        return {"error": e.message, "line": e.line, "col": e.col}


def recorded_form(name: str, text: str):
    """Edge cases are recorded in full, long inputs as a SHA-256 of
    their JSON-encoded tokens."""
    out = lex(text)
    if name in EDGE_CASES:
        return out
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_tokens_match_recorded(golden):
    assert {name: recorded_form(name, text) for name, text in inputs()} == golden


def test_start_position():
    toks = tokenize("x = 1;\n  y", line=7, col=9)
    assert [t[1:] for t in toks] == [
        ("x", 7, 9), ("=", 7, 11), ("1", 7, 13), (";", 7, 14), ("y", 8, 3), ("", 8, 4)]
    toks = tokenize("  x\n y", 3, 7)
    assert [t[1:] for t in toks] == [("x", 3, 9), ("y", 4, 2), ("", 4, 3)]
    with pytest.raises(ParseError) as e:
        tokenize("  @", line=4, col=5)
    assert (e.value.line, e.value.col) == (4, 7)


# What the random texts are made of: every symbol and keyword, words with
# `_` and non-ASCII letters, ASCII and non-ASCII digits (Arabic-Indic),
# numeric characters that are `\w` but not `\d` (a superscript, a
# fraction), malformed numbers, comments of both kinds, an unterminated
# block comment, line ends, the spaces `\s` takes besides `\n`, and
# characters no token class accepts.
FRAGMENTS = [
    *SYMBOLS, *sorted(KEYWORDS),
    "x", "_a1", "__", "\u00e9t\u00e9", "\u03bb_2", "0", "42", "\u0663\u0664", "\u00b2", "\u00bd", "1\u00b2", "12ab", "1_",
    "// note", "//", "/* a\nb */", "/**/", "/* x\r\n\n y */", "/*",
    "\n", "\r\n", "\r", "\t", "\f", "\v", "\u00a0", "\u2028", " ", "  ",
    "@", "`", "$",
]


def test_tokens_match_the_reference_lexer_on_random_texts():
    for name, text in real_sources():
        assert lex(text) == lex(text, reflexer.tokenize), name
    rng = random.Random(29)
    for _ in range(20_000):
        text = "".join(rng.choice(FRAGMENTS) + rng.choice(("", "", " ")) for _ in range(rng.randrange(1, 12)))
        line, col = rng.randrange(1, 100), rng.randrange(1, 100)
        assert lex(text, tokenize, line, col) == lex(text, reflexer.tokenize, line, col), repr(text)
