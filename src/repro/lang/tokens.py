"""Tokenizer for the mini Fortran D dialect.

Line-oriented like Fortran: the lexer produces one token list per logical
line, skipping blank lines and full-line comments (``C ...``, ``! ...``)
while recognizing ``C$``/``!$`` *directive* lines (DECOMPOSITION,
DISTRIBUTE, ALIGN live there in the paper's figures, but we also accept
them as plain statements).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from repro.lang.errors import LexError


class TokKind(Enum):
    IDENT = auto()
    NUMBER = auto()
    OP = auto()
    EOL = auto()


KEYWORDS = {
    "REAL", "INTEGER", "DECOMPOSITION", "DISTRIBUTE", "ALIGN", "WITH",
    "FORALL", "REDUCE", "END", "DO", "ENDDO", "ENDFORALL",
    "BLOCK", "CYCLIC", "SUM", "APPEND", "MAX", "MIN", "PROD",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(\.\d*)?([eEdD][+-]?\d+)?)   |
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)       |
    (?P<op>\*\*|[-+*/=(),:])                |
    (?P<ws>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    line: int
    col: int

    def is_op(self, *ops: str) -> bool:
        return self.kind is TokKind.OP and self.text in ops


@dataclass(frozen=True)
class Line:
    """One logical source line: its tokens and directive flag."""

    tokens: tuple[Token, ...]
    number: int
    is_directive: bool


def _strip_label(text: str) -> str:
    """Remove Fortran statement labels like ``L1:`` or ``S1`` prefixes."""
    m = re.match(r"^\s*[A-Za-z]\d*\s*:\s*", text)
    if m:
        return " " * m.end() + text[m.end():]
    return text


def tokenize(source: str) -> list[Line]:
    """Tokenize a program into logical lines."""
    lines: list[Line] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.rstrip()
        if not text.strip():
            continue
        stripped = text.lstrip()
        is_directive = False
        if stripped.upper().startswith(("C$", "!$")):
            is_directive = True
            text = stripped[2:]
        elif stripped.startswith("!") or re.match(r"^[Cc](\s|$)", stripped):
            continue  # comment line
        text = _strip_label(text)
        # inline ! comment
        bang = text.find("!")
        if bang >= 0:
            text = text[:bang]
        if not text.strip():
            continue
        toks: list[Token] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise LexError(f"unexpected character {text[pos]!r}", lineno)
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            kind = {
                "num": TokKind.NUMBER,
                "ident": TokKind.IDENT,
                "op": TokKind.OP,
            }[m.lastgroup]
            toks.append(Token(kind, m.group(), lineno, m.start()))
        if toks:
            toks.append(Token(TokKind.EOL, "", lineno, len(text)))
            lines.append(Line(tuple(toks), lineno, is_directive))
    return lines
