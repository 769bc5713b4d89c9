"""Tokenizer for the supported Solidity fragment."""

from __future__ import annotations

import re
from dataclasses import dataclass

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
]


@dataclass(slots=True)
class Token:
    kind: str  # "ident" | "number" | "keyword" | "symbol" | "eof"
    value: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


# One alternative per lexeme class, tried in this order at each position
# (the "Writing a Tokenizer" recipe of the `re` docs). A number directly
# followed by a letter or `_` is malformed; `/*` without its `*/` is
# unterminated; `other` catches every character no class accepts.
_TOKEN_RE = re.compile(
    "|".join([
        r"(?P<space>\s+)",
        r"(?P<comment>//[^\n]*|/\*.*?\*/)",
        r"(?P<unterminated>/\*)",
        r"(?P<number>\d+)(?P<malformed>[^\W\d])?",
        r"(?P<word>\w+)",
        "(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + ")",
        r"(?P<other>.)",
    ]),
    re.S,
)


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """Tokens of `text`, whose first character sits at `line`:`col`.
    Columns count characters; only `\\n` starts a new line."""
    tokens: list[Token] = []
    line_start = 1 - col  # offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        if kind == "space" or kind == "comment":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + value.rindex("\n") + 1
            continue
        at = m.start() - line_start + 1
        if kind == "word":
            tokens.append(Token("keyword" if value in KEYWORDS else "ident", value, line, at))
        elif kind == "number" or kind == "symbol":
            tokens.append(Token(kind, value, line, at))
        elif kind == "malformed":
            raise ParseError("malformed number", line, at)
        elif kind == "unterminated":
            raise ParseError("unterminated block comment", line, at)
        else:
            raise ParseError(f"unexpected character {value!r}", line, at)
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens
