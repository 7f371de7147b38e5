"""Comment- and string-literal-aware C++ tokenizer.

simcheck rules run on this token stream, not on source lines:
comments are dropped, string/char literals survive as single STR/CHR
tokens (a `//` inside a literal is not a comment), and every token
carries its 1-based source line for reporting.

This is a lexer, not a preprocessor: macros are not expanded and
`#include`s are not followed. Directive lines are emitted as a single
DIRECTIVE token so rules can still see e.g. `#include <iostream>`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Token kinds.
ID = "id"
NUM = "num"
STR = "str"
CHR = "chr"
PUNCT = "punct"
DIRECTIVE = "directive"

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\.?[0-9](?:[0-9a-fA-F'.xXbBuUlLfF]|[eEpP][+-]?)*")
# Longest-first multi-char operators; single chars fall through.
_PUNCT_RE = re.compile(
    r"<<=|>>=|\.\.\.|->\*|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|"
    r"\*=|/=|%=|&=|\|=|\^=|=|[{}()\[\];,<>:?~!%^&*+/.|-]"
)


@dataclass
class Token:
    kind: str
    text: str
    line: int

    def __repr__(self) -> str:  # compact for test failure output
        return f"{self.kind}:{self.text}@{self.line}"


class LexError(Exception):
    pass


def tokenize(text: str) -> list[Token]:
    """Lex C++ source into tokens; comments removed, literals opaque."""
    toks: list[Token] = []
    i = 0
    n = len(text)
    line = 1

    def bump_lines(s: str) -> None:
        nonlocal line
        line += s.count("\n")

    while i < n:
        c = text[i]
        # Whitespace.
        if c in " \t\r\v\f":
            i += 1
            continue
        if c == "\n":
            line += 1
            i += 1
            continue
        # Preprocessor directive: consume to end of (continued) line.
        if c == "#" and (not toks or toks[-1].line != line):
            j = i
            while j < n:
                if text[j] == "\n" and text[j - 1] != "\\":
                    break
                j += 1
            chunk = text[i:j]
            toks.append(Token(DIRECTIVE, re.sub(r"\s+", " ", chunk).strip(), line))
            bump_lines(chunk)
            i = j
            continue
        # Line comment.
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        # Block comment.
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                bump_lines(text[i:])
                i = n
            else:
                bump_lines(text[i : j + 2])
                i = j + 2
            continue
        # Raw string literal: R"delim( ... )delim".
        m = re.match(r'(?:u8|[uUL])?R"([^()\\ \t\n]{0,16})\(', text[i:])
        if m:
            closer = ")" + m.group(1) + '"'
            j = text.find(closer, i + m.end())
            if j < 0:
                raise LexError(f"unterminated raw string at line {line}")
            chunk = text[i : j + len(closer)]
            toks.append(Token(STR, chunk, line))
            bump_lines(chunk)
            i = j + len(closer)
            continue
        # String / char literal with escapes (possibly prefixed).
        m = re.match(r'(?:u8|[uUL])?(["\'])', text[i:])
        if m:
            quote = m.group(1)
            j = i + m.end()
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                if text[j] == "\n":
                    break  # unterminated on this line; be forgiving
                j += 1
            chunk = text[i : j + 1] if j < n else text[i:]
            toks.append(Token(STR if quote == '"' else CHR, chunk, line))
            i = j + 1 if j < n else n
            continue
        # Number.
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            assert m is not None
            toks.append(Token(NUM, m.group(0), line))
            i = m.end()
            continue
        # Identifier / keyword.
        m = _ID_RE.match(text, i)
        if m:
            toks.append(Token(ID, m.group(0), line))
            i = m.end()
            continue
        # Punctuation / operators.
        m = _PUNCT_RE.match(text, i)
        if m:
            toks.append(Token(PUNCT, m.group(0), line))
            i = m.end()
            continue
        # Unknown byte (e.g. stray backslash): skip it.
        i += 1
    return toks


def match_seq(toks: list[Token], start: int, pattern: list[str]) -> bool:
    """True when token texts at @p start equal @p pattern ('*' = any)."""
    if start + len(pattern) > len(toks):
        return False
    return all(p == "*" or toks[start + k].text == p for k, p in enumerate(pattern))


def find_matching(toks: list[Token], start: int, open_t: str, close_t: str) -> int:
    """Index of the token closing the bracket at @p start, or -1."""
    assert toks[start].text == open_t
    depth = 0
    for j in range(start, len(toks)):
        t = toks[j].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return j
    return -1
