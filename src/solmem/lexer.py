"""Tokenizer for the supported Solidity fragment."""

from __future__ import annotations

import re
import string
from collections.abc import Iterator

from .errors import ParseError

KEYWORDS = {
    "contract",
    "struct",
    "constructor",
    "function",
    "returns",
    "mapping",
    "storage",
    "memory",
    "delete",
    "new",
    "assert",
    "true",
    "false",
    "int",
    "uint",
    "bool",
    "address",
    "pragma",
}

# Solidity keywords outside the fragment; reported as unsupported rather
# than parsed as identifiers, so nothing is silently misread.
UNSUPPORTED_KEYWORDS = {
    "if": "if statement",
    "else": "if statement",
    "for": "loops",
    "while": "loops",
    "do": "loops",
    "return": "return statement",
    "require": "require",
    "revert": "revert",
    "emit": "events",
    "event": "events",
    "enum": "enums",
    "modifier": "modifiers",
    "library": "libraries",
    "interface": "interfaces",
    "import": "imports",
    "using": "using-for",
    "is": "inheritance",
    "calldata": "calldata location",
    "assembly": "inline assembly",
    "bytes": "bytes type",
    "string": "string type",
    "this": "contract self-reference",
}

# Function header modifiers tolerated (skipped with a warning).
IGNORED_MODIFIERS = {"public", "private", "internal", "external", "pure", "view", "payable"}

SYMBOLS = [
    "=>",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ";",
    ",",
    ".",
    "?",
    ":",
    "=",
    "<",
    ">",
    "!",
    "+",
    "-",
    "*",
    "/",
    "%",
    "^",
    "~",
]


# One match per lexeme, as a (space, lexeme) pair: the horizontal space
# before it (`[^\S\n]*`; every `\s` but `\n`) is taken by the same match,
# so space costs no turn of the loop. A `\n` and a comment are lexemes of
# their own, so that only they move the line. The alternatives are tried
# in order (the "Writing a Tokenizer" recipe of the `re` docs), so the
# most frequent come first: words and numbers, about 60% of all lexemes,
# are matched without trying any symbol. An alternative whose lexeme can
# begin a longer one comes after the longer: the two-character symbols
# before the one-character ones, which share one character class, and
# a comment before the `/` symbol. Words and numbers are ASCII, as in
# Solidity, and a word never starts with a digit.
_TOKEN_RE = re.compile(
    r"([^\S\n]*)("
    + "|".join([
        r"[A-Za-z_][A-Za-z0-9_]*",
        r"[0-9]+[A-Za-z_]?",  # malformed when a letter or `_` follows the digits
        *(re.escape(s) for s in SYMBOLS if len(s) > 1),
        "[" + "".join(re.escape(s) for s in SYMBOLS if len(s) == 1 and s != "/") + "]",
        r"//[^\n]*",
        r"/\*.*?\*/",
        r"/\*",  # unterminated
        "/",
        r"\n",
        r"\Z",  # the empty lexeme: the space at the end of the text
        ".",  # a character no token class accepts
    ])
    + ")",
    re.S,
)

# the kind of every lexeme that is a symbol or a keyword; any other
# lexeme's kind follows from its first character
_KINDS = {**dict.fromkeys(SYMBOLS, "symbol"), **dict.fromkeys(KEYWORDS, "keyword")}
_DIGITS, _WORD_STARTS = frozenset(string.digits), frozenset(string.ascii_letters + "_")


def tokenize(text: str, line: int = 1, col: int = 1) -> list[tuple[str, str, int, int]]:
    """Tokens of `text`, whose first character sits at `line`:`col`, as
    `(kind, value, line, col)` tuples; `kind` is "ident", "number",
    "keyword", "symbol" or, for the last token, "eof". Columns count
    characters; only `\\n` starts a new line."""
    tokens: list[tuple[str, str, int, int]] = []
    append = tokens.append
    kinds = _KINDS.get
    for space, lexeme in _TOKEN_RE.findall(text):
        col += len(space)  # the column of `lexeme`
        kind = kinds(lexeme)
        if kind is not None:
            append((kind, lexeme, line, col))
        elif lexeme == "\n":
            line += 1
            col = 1
            continue
        elif lexeme[:1] in _DIGITS:
            if lexeme[-1] not in _DIGITS:
                raise ParseError("malformed number", line, col)
            append(("number", lexeme, line, col))
        elif lexeme[:1] in _WORD_STARTS:
            append(("ident", lexeme, line, col))
        elif lexeme == "/*":
            raise ParseError("unterminated block comment", line, col)
        elif lexeme[:1] == "/":  # a comment; `/` alone is a symbol
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                col = len(lexeme) - lexeme.rindex("\n")
                continue
        elif lexeme:
            raise ParseError(f"unexpected character {lexeme!a}", line, col)
        col += len(lexeme)
    append(("eof", "", line, col))
    return tokens


def lexemes(text: str) -> Iterator[tuple[int, str, str | None]]:
    """`(line, lexeme, comment)` of each lexeme of `text` but space and
    `\\n`, malformed ones included, on the lines `tokenize` gives them;
    `comment` is the text after `//` of a line comment, else None."""
    line = 1
    for _, lexeme in _TOKEN_RE.findall(text):
        if lexeme.strip():  # neither `\n` nor the empty lexeme that ends the text
            yield line, lexeme, lexeme[2:] if lexeme[:2] == "//" else None
        line += lexeme.count("\n")
