"""Tokenizer for the kernel language (a small C subset)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .. import ReproError
from .typesys import TYPE_KEYWORDS

_CONTROL_KEYWORDS = {"for", "while", "if", "else", "return"}


def KEYWORDS() -> set:
    """Current keyword set (type keywords grow with the format registry)."""
    return set(TYPE_KEYWORDS) | _CONTROL_KEYWORDS

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "+=", "-=", "*=", "/=", "==", "!=", "<=", ">=", "&&", "||",
    "+", "-", "*", "/", "%", "=", "<", ">", "!",
    "(", ")", "{", "}", "[", "]", ";", ",", "&",
]


class LexError(ReproError):
    """A character sequence that is not part of the language."""


@dataclass(frozen=True)
class Token:
    kind: str  # 'int', 'float', 'ident', 'keyword', 'op', 'eof'
    value: object
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(source: str) -> List[Token]:
    """Turn source text into a token list terminated by an EOF token."""
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError(f"line {line}: unterminated block comment")
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            is_float = False
            if source.startswith("0x", i) or source.startswith("0X", i):
                i += 2
                while i < n and source[i] in "0123456789abcdefABCDEF":
                    i += 1
                text = source[start:i]
                tokens.append(Token("int", int(text, 16), line, col))
                col += i - start
                continue
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                is_float = True
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                is_float = True
                i += 1
                if i < n and source[i] in "+-":
                    i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "fF":
                is_float = True
                text = source[start:i]
                i += 1
            else:
                text = source[start:i]
            if is_float:
                tokens.append(Token("float", float(text), line, col))
            else:
                tokens.append(Token("int", int(text), line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            kind = ("keyword" if word in TYPE_KEYWORDS
                    or word in _CONTROL_KEYWORDS else "ident")
            tokens.append(Token(kind, word, line, col))
            col += i - start
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise LexError(f"line {line}, col {col}: unexpected {ch!r}")
    tokens.append(Token("eof", None, line, col))
    return tokens
