"""A small, exact C++ lexer for mnsim-analyze.

This is not a parser: it produces a flat token stream with source
positions, with comments and preprocessor directives stripped but
remembered, and with string/char literals kept as single tokens. That is
already enough to be categorically better than line-regex linting: rules
that consume this stream cannot be fooled by operators inside strings,
code inside comments, or constructs split across lines.

Handled: // and /* */ comments, ordinary and raw string literals
(R"delim(...)delim"), char literals, digit separators, hex/binary/float
literals, line continuations, CRLF line endings, multi-char operators.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

# Longest-match-first operator table (C++20, the subset that matters for
# tokenization correctness; everything else falls through as single chars).
_OPERATORS = [
    "<<=", ">>=", "...", "->*", "<=>",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*", "##",
]

_ID_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_ID_CONT = _ID_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


@dataclasses.dataclass(frozen=True)
class Token:
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'punct'
    text: str
    line: int  # 1-based
    col: int  # 1-based

    def __repr__(self) -> str:  # compact for test failure output
        return f"{self.kind}:{self.text}@{self.line}:{self.col}"


class LexError(ValueError):
    """Unterminated literal or comment — the file is not valid C++."""


def tokenize(text: str) -> list[Token]:
    return list(_scan(text))


def _scan(text: str) -> Iterator[Token]:
    # Normalize CRLF and lone CR so column math stays simple; splicing
    # line continuations would desync reported line numbers, so those are
    # instead handled inline where they can occur (pp-directives).
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    i = 0
    n = len(text)
    line = 1
    col = 1
    at_line_start = True  # only whitespace seen since the last newline

    def advance_over(s: str) -> None:
        nonlocal line, col
        newlines = s.count("\n")
        if newlines:
            line += newlines
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)

    while i < n:
        c = text[i]

        # -- whitespace ------------------------------------------------
        if c in " \t\n\v\f":
            if c == "\n":
                line += 1
                col = 1
                at_line_start = True
            else:
                col += 1
            i += 1
            continue

        # -- preprocessor directive: skip to (unescaped) end of line ---
        if c == "#" and at_line_start:
            j = i
            while j < n:
                if text[j] == "\\" and j + 1 < n and text[j + 1] == "\n":
                    j += 2
                    continue
                if text[j] == "\n":
                    break
                j += 1
            advance_over(text[i:j])
            i = j
            continue

        at_line_start = False

        # -- comments --------------------------------------------------
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            advance_over(text[i:j])
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise LexError(f"unterminated block comment at line {line}")
            j += 2
            advance_over(text[i:j])
            i = j
            continue

        # -- raw strings: R"delim( ... )delim" (with encoding prefixes) -
        if c in "RLuU" or c == "u":
            m = _match_raw_string(text, i)
            if m is not None:
                yield Token("str", text[i:m], line, col)
                advance_over(text[i:m])
                i = m
                continue

        # -- ordinary string / char literals (with encoding prefixes) --
        if c == '"' or c == "'" or (
            c in "LuU" and _peek_quote_after_prefix(text, i) is not None
        ):
            start = i
            j = _peek_quote_after_prefix(text, i)
            j = i if j is None else j
            quote = text[j]
            k = j + 1
            while k < n:
                if text[k] == "\\":
                    k += 2
                    continue
                if text[k] == quote:
                    k += 1
                    break
                if text[k] == "\n":
                    raise LexError(
                        f"unterminated {quote}-literal at line {line}"
                    )
                k += 1
            else:
                raise LexError(f"unterminated {quote}-literal at line {line}")
            kind = "str" if quote == '"' else "chr"
            yield Token(kind, text[start:k], line, col)
            advance_over(text[start:k])
            i = k
            continue

        # -- identifiers / keywords ------------------------------------
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            yield Token("id", text[i:j], line, col)
            advance_over(text[i:j])
            i = j
            continue

        # -- numbers (incl. .5, hex, exponents, separators, suffixes) --
        if c in _DIGITS or (
            c == "." and i + 1 < n and text[i + 1] in _DIGITS
        ):
            j = i
            while j < n:
                ch = text[j]
                if ch in _ID_CONT or ch in ".'":
                    j += 1
                elif ch in "+-" and text[j - 1] in "eEpP" and j > i:
                    j += 1
                else:
                    break
            yield Token("num", text[i:j], line, col)
            advance_over(text[i:j])
            i = j
            continue

        # -- operators / punctuation -----------------------------------
        for op in _OPERATORS:
            if text.startswith(op, i):
                yield Token("punct", op, line, col)
                advance_over(op)
                i += len(op)
                break
        else:
            yield Token("punct", c, line, col)
            col += 1
            i += 1


def _peek_quote_after_prefix(text: str, i: int) -> int | None:
    """Index of the quote if text[i:] starts an (optionally prefixed)
    ordinary string/char literal, else None."""
    for prefix in ("u8", "u", "U", "L", ""):
        if text.startswith(prefix, i):
            j = i + len(prefix)
            if j < len(text) and text[j] in "\"'":
                # A bare identifier like `u` followed by a quote only
                # counts when the prefix is directly attached (it is).
                return j
    return None


def _match_raw_string(text: str, i: int) -> int | None:
    """End index (exclusive) of a raw string literal starting at i, or
    None if text[i:] does not start one."""
    j = i
    for prefix in ("u8", "u", "U", "L", ""):
        if text.startswith(prefix, j):
            j2 = j + len(prefix)
            if text.startswith('R"', j2):
                j = j2 + 2
                break
    else:
        return None
    if not text.startswith('R"', j - 2):
        return None
    # delimiter: up to 16 chars, no parens/backslash/space
    k = text.find("(", j)
    if k < 0 or k - j > 16:
        return None
    delim = text[j:k]
    if any(ch in delim for ch in ' ()\\\t\n'):
        return None
    close = ")" + delim + '"'
    end = text.find(close, k + 1)
    if end < 0:
        raise LexError("unterminated raw string literal")
    return end + len(close)


# ---- small structural helpers shared by rules -------------------------------


def match_forward(tokens: list[Token], i: int, open_: str, close: str) -> int:
    """Index of the token closing the bracket opened at tokens[i].

    Raises IndexError on unbalanced input (caller treats the file as
    unanalyzable rather than guessing).
    """
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j]
        if t.kind == "punct":
            if t.text == open_:
                depth += 1
            elif t.text == close:
                depth -= 1
                if depth == 0:
                    return j
    raise IndexError(f"unbalanced {open_}{close} from token {i}")


def match_backward(tokens: list[Token], i: int, open_: str, close: str) -> int:
    """Index of the token opening the bracket closed at tokens[i]."""
    depth = 0
    for j in range(i, -1, -1):
        t = tokens[j]
        if t.kind == "punct":
            if t.text == close:
                depth += 1
            elif t.text == open_:
                depth -= 1
                if depth == 0:
                    return j
    raise IndexError(f"unbalanced {open_}{close} back from token {i}")
