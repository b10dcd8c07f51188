"""Tokenizer for the mini-C language."""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

KEYWORDS = {
    "int",
    "void",
    "if",
    "else",
    "while",
    "return",
    "assert",
    "assume",
    "true",
    "false",
}

# Multi-character operators must be matched before their prefixes.
SYMBOLS = [
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "<",
    ">",
    "=",
    "!",
    "+",
    "-",
    "*",
    "/",
    "%",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    "?",
    ":",
]


class Token(NamedTuple):
    """A lexical token with its source line.

    A named tuple rather than a frozen dataclass: the lexer builds one per
    token, and a frozen dataclass sets each field through
    ``object.__setattr__``."""

    kind: str  # "int", "ident", "keyword", "symbol", "eof"
    text: str
    line: int


class LexError(ValueError):
    """Raised on malformed input."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def tokenize(source: str) -> list[Token]:
    """Turn source text into a token list terminated by an ``eof`` token."""
    return list(_tokens(source))


#: Blanks, then one alternative per token class, tried in this order;
#: ``other`` takes whatever the others leave (a word starting with a
#: non-ASCII character, an int running into one, a stray character), so
#: the matches tile the source.  :func:`_other_tokens` lexes those pieces
#: with the ``str`` predicates.  (``\w`` is exactly ``str.isalnum()`` plus
#: ``_``, so an identifier's tail never needs the fallback.)
_TOKEN = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<newline>\n)
    | (?P<comment>//[^\n]*)
    | (?P<block>/\*.*?\*/)
    | (?P<unterminated>/\*)
    | (?P<int>[0-9]+)(?![0-9\x80-\U0010ffff])
    | (?P<name>[A-Za-z_]\w*)
    | (?P<symbol>"""
    + "|".join(re.escape(symbol) for symbol in SYMBOLS)
    + r""")
    | (?P<other>\w+|[^ \t\r])
    )
    """,
    re.DOTALL | re.VERBOSE,
)


def _tokens(source: str) -> Iterator[Token]:
    line = 1
    for found in _TOKEN.finditer(source):
        kind = found.lastgroup
        if kind == "name":
            text = found["name"]
            yield Token("keyword" if text in KEYWORDS else "ident", text, line)
        elif kind == "symbol" or kind == "int":
            yield Token(kind, found[kind], line)
        elif kind == "newline":
            line += 1
        elif kind == "block":
            line += found["block"].count("\n")
        elif kind == "other":
            yield from _other_tokens(found["other"], line)
        elif kind == "unterminated":
            raise LexError("unterminated block comment", line)
    yield Token("eof", "", line)


def _other_tokens(text: str, line: int) -> Iterator[Token]:
    """Int and identifier tokens of a piece holding no newline, under the
    ``str`` predicates; any other character is a :class:`LexError`."""
    position = 0
    while position < len(text):
        char = text[position]
        start = position
        position += 1
        if char.isdigit():
            while position < len(text) and text[position].isdigit():
                position += 1
            yield Token("int", text[start:position], line)
        elif char.isalpha() or char == "_":
            position = len(text)  # the piece is one word
            word = text[start:]
            yield Token("keyword" if word in KEYWORDS else "ident", word, line)
        else:
            raise LexError(f"unexpected character {char!r}", line)
