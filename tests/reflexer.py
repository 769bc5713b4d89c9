"""The lexer's previous `tokenize`, one regex match per lexeme with a
named group per token class, kept as the reference that the randomized
differential in `tests/test_lexer_golden.py` compares `solmem.lexer`
against."""

from __future__ import annotations

import re

from solmem.errors import ParseError
from solmem.lexer import KEYWORDS, SYMBOLS

# One match per lexeme, each taking the horizontal space before it
# (`[^\S\n]*`; every `\s` but `\n`), so that space costs no turn of the
# loop. A `\n` and a comment are matches of their own, so that only they
# move the line. The alternatives are tried in order (the "Writing a
# Tokenizer" recipe of the `re` docs): a comment before the `/` symbol, a
# number before a word. Numbers and words are ASCII. A number directly
# followed by a letter or `_` is malformed; `/*` without its `*/` is
# unterminated; `end` only takes the space at the end of the text; `other`
# catches every character no class accepts. Positions come from the
# lexeme's group, not the match.
_TOKEN_RE = re.compile(
    r"[^\S\n]*(?:"
    + "|".join([
        r"(?P<comment>//[^\n]*|/\*.*?\*/)",
        r"(?P<unterminated>/\*)",
        "(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + ")",
        r"(?P<number>[0-9]+)(?P<malformed>[A-Za-z_])?",
        r"(?P<word>[A-Za-z0-9_]+)",
        r"(?P<newline>\n)",
        r"(?P<end>\Z)",
        r"(?P<other>.)",
    ])
    + ")",
    re.S,
)


def tokenize(text: str, line: int = 1, col: int = 1) -> list[tuple[str, str, int, int]]:
    """Tokens of `text`, whose first character sits at `line`:`col`, as
    `(kind, value, line, col)` tuples; `kind` is "ident", "number",
    "keyword", "symbol" or, for the last token, "eof". Columns count
    characters; only `\\n` starts a new line."""
    tokens: list[tuple[str, str, int, int]] = []
    append = tokens.append
    base = -col  # a character's column is its offset minus `base`
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "symbol" or kind == "number":
            append((kind, m[kind], line, m.start(kind) - base))
        elif kind == "word":
            value = m[kind]
            append(("keyword" if value in KEYWORDS else "ident", value, line, m.start(kind) - base))
        elif kind == "newline":
            line += 1
            base = m.end() - 1
        elif kind == "comment":
            value = m[kind]
            newlines = value.count("\n")
            if newlines:
                line += newlines
                base = m.start(kind) + value.rindex("\n")
        elif kind == "malformed":
            raise ParseError("malformed number", line, m.start("number") - base)
        elif kind == "unterminated":
            raise ParseError("unterminated block comment", line, m.start(kind) - base)
        elif kind == "other":
            raise ParseError(f"unexpected character {m[kind]!a}", line, m.start(kind) - base)
    append(("eof", "", line, len(text) - base))
    return tokens
