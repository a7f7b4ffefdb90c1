"""Freely reduced words over named generators.

A word is a sequence of letters (generator id, sign) with sign +1 or -1.
All public constructors reduce, so a ``FreeWord`` value is always freely
reduced; reduction by adjacent cancellation is confluent, hence canonical.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError

Letter = tuple[str, int]

# Generator, cell, arc and band ids share one lexical rule.  The characters
# used by the text formats (whitespace, = , ; ( ) [ ] # ^) are excluded.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.'-]*\Z")

# Token standing for the empty word in every text format.
EMPTY_WORD_TOKEN = "1"

# Largest |n| a word token ``X^n`` may carry in text.  The token expands to
# |n| letters before any work cap applies, at about 0.5 s per 10**6 letters.
MAX_EXPONENT = 1000


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, content) for each line that has content.

    ``#`` starts a comment that runs to the end of the line, whitespace is
    stripped, and lines left empty are skipped.  Every text format reads its
    input through this.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def _expanded(letters: Iterable[tuple[str, int]]) -> Iterator[Letter]:
    # Exponents outside {-1, +1} are expanded into repeated unit letters.
    for gen, exp in letters:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            yield (gen, step)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word.  Build via ``reduce_free_word`` or ``parse_word``."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        prev = None
        for gen, sign in self.letters:
            if sign not in (1, -1):
                raise ValueError(f"bad letter sign {sign!r}")
            if prev is not None and prev[0] == gen and prev[1] == -sign:
                raise ValueError("word is not freely reduced")
            prev = (gen, sign)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: FreeWord) -> FreeWord:
        out = list(self.letters)
        for gen, sign in other.letters:
            if out and out[-1] == (gen, -sign):
                out.pop()
            else:
                out.append((gen, sign))
        return FreeWord(tuple(out))

    def inverse(self) -> FreeWord:
        return FreeWord(tuple((gen, -sign) for gen, sign in reversed(self.letters)))

    def generators(self) -> set[str]:
        return {gen for gen, _ in self.letters}

    def __str__(self) -> str:
        return format_word(self)


EMPTY_WORD = FreeWord()


def reduce_free_word(letters: Iterable[tuple[str, int]]) -> FreeWord:
    """Freely reduce a raw letter sequence; exponents of any size are expanded."""
    out: list[Letter] = []
    for gen, sign in _expanded(letters):
        if out and out[-1] == (gen, -sign):
            out.pop()
        else:
            out.append((gen, sign))
    return FreeWord(tuple(out))


def parse_word(text: str, line: int | None = None, field: str | None = None) -> FreeWord:
    """Parse a word from space-separated tokens ``X``, ``X^-1``, ``X^3``, ``1``.

    An exponent above ``MAX_EXPONENT`` in absolute value is a ``FormatError``.
    """
    raw: list[tuple[str, int]] = []
    for token in text.split():
        if token == EMPTY_WORD_TOKEN:
            continue
        base, caret, exp_text = token.partition("^")
        if not valid_name(base):
            raise FormatError(f"bad word token {token!r}", line=line, field=field)
        if caret:
            try:
                exp = int(exp_text)
            except ValueError:
                raise FormatError(
                    f"bad exponent in token {token!r}", line=line, field=field
                ) from None
            if abs(exp) > MAX_EXPONENT:
                raise FormatError(
                    f"exponent in token {token!r} exceeds {MAX_EXPONENT} in absolute value",
                    line=line, field=field,
                )
        else:
            exp = 1
        raw.append((base, exp))
    return reduce_free_word(raw)


def format_word(word: FreeWord) -> str:
    """Canonical text of a word: unit letters only, ``1`` for the empty word."""
    if word.is_empty:
        return EMPTY_WORD_TOKEN
    return " ".join(gen if sign > 0 else f"{gen}^-1" for gen, sign in word.letters)
