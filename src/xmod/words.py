"""Freely reduced words over named generators.

A word is a sequence of letters (generator id, sign) with sign +1 or -1.
A ``FreeWord`` value is always freely reduced; reduction by adjacent
cancellation is confluent, hence canonical.  Only the public constructor
checks this.  Products and ``reduce_free_word`` results are reduced by
construction, so they skip the check.

Product, inverse and free reduction are computed on plain letter tuples by
``_product``, ``_inverse`` and ``_free_reduction``; ``FreeWord.__mul__``
wraps the first, and movie replay calls them directly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError

Letter = tuple[str, int]
Letters = tuple[Letter, ...]

# Generator, cell, arc and band ids share one lexical rule.  The characters
# used by the text formats (whitespace, = , ; ( ) [ ] # ^) are excluded.
# ``NAME`` is the rule's body, for patterns that read ids inside a line.
NAME = r"[A-Za-z_][A-Za-z0-9_.'-]*"
NAME_RE = re.compile(NAME + r"\Z")

# An integer token is an optional sign and ASCII digits.  ``int`` alone would
# also take "1_0", Unicode digits and surrounding whitespace.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")

# Sign tokens of relation terms, spanner terms and crossings.
_SIGNS = {"+": 1, "+1": 1, "-": -1, "-1": -1}

# Token standing for the empty word in every text format.
EMPTY_WORD_TOKEN = "1"

# Pattern pieces of the canonical spelling the writers use, for the readers
# that take a canonical line in one match: a sign ``+`` or ``-`` (one group),
# and a word ``1`` or letters ``X`` and ``X^-1`` one space apart (no group).
# ``_canonical_letters`` reads a word that ``_WORD`` matched.
_SIGN = "(" + "|".join(re.escape(sign) for sign in _SIGNS if len(sign) == 1) + ")"
_LETTER = rf"{NAME}(?:\^-1)?"
_WORD = rf"{re.escape(EMPTY_WORD_TOKEN)}|{_LETTER}(?: {_LETTER})*"

# Largest |n| a word token ``X^n`` may carry in text.  The token expands to
# |n| letters before any work cap applies, at about 0.5 s per 10**6 letters.
MAX_EXPONENT = 1000


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


class LineReader:
    """The content lines of one text, read in order by a parser.

    ``#`` starts a comment that runs to the end of the line, whitespace is
    stripped, and lines left empty are skipped.  Iterating yields (1-based
    line number, content) for the lines not read yet.  Running out is
    reported at the last line of the text, or at line 1 if it has none.
    Every text format reads its input through this.
    """

    def __init__(self, text: str):
        self._lines = text.splitlines()
        self._items = self._content()

    def _content(self) -> Iterator[tuple[int, str]]:
        for lineno, raw in enumerate(self._lines, start=1):
            content = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
            if content:
                yield lineno, content

    def __iter__(self) -> Iterator[tuple[int, str]]:
        return self._items

    def next(self, field: str) -> tuple[int, str]:
        """The next content line; ``FormatError`` at the end of the text."""
        item = next(self._items, None)
        if item is None:
            raise self.end_error("unexpected end of input", field)
        return item

    def end_error(self, message: str, field: str | None = None) -> FormatError:
        return FormatError(message, line=len(self._lines) or 1, field=field)


# A run of characters between the line breaks of ``str.splitlines``.
_LINE_RE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def first_content(text: str) -> str:
    """The first content line ``LineReader(text)`` yields, or "" if it yields
    none; the text after that line is not read."""
    for match in _LINE_RE.finditer(text):
        content = match[0].split("#", 1)[0].strip()
        if content:
            return content
    return ""


def _integer_or_none(token: str) -> int | None:
    if _INTEGER_RE.match(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    return None


def parse_integer(token: str, what: str, line: int | None = None,
                  field: str | None = None) -> int:
    """The value of an integer token; else ``FormatError`` "bad <what> <token>"."""
    value = _integer_or_none(token)
    if value is None:
        raise FormatError(f"bad {what} {token!r}", line=line, field=field)
    return value


def parse_integers(text: str, line: int | None = None,
                   field: str | None = None) -> tuple[int, ...]:
    """The values of a row of integer tokens; else ``FormatError``."""
    tokens = text.split()
    values = tuple(map(_integer_or_none, tokens))
    if None in values:
        bad = tokens[values.index(None)]
        raise FormatError(f"expected an integer, got {bad!r}", line=line, field=field)
    return values


def parse_sign(token: str, line: int | None = None, field: str | None = None) -> int:
    """+1 or -1 from ``+``, ``+1``, ``-`` or ``-1``; else ``FormatError``."""
    try:
        return _SIGNS[token]
    except KeyError:
        raise FormatError(f"bad sign {token!r}", line=line, field=field) from None


def parse_id(token: str, what: str, line: int | None = None,
             field: str | None = None) -> str:
    """``token`` if it is a valid id; else ``FormatError`` "bad <what> id <token>"."""
    if not NAME_RE.match(token):
        raise FormatError(f"bad {what} id {token!r}", line=line, field=field)
    return token


# The unit exponents, each mapped to the int sign its letter stores.  Any
# other exponent is expanded into repeated unit letters.
_UNIT_SIGNS = {1: 1, -1: -1}


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
        return _reduced(_product(self.letters, other.letters))

    def generators(self) -> set[str]:
        return {gen for gen, _ in self.letters}

    def __str__(self) -> str:
        return format_word(self)


EMPTY_WORD = FreeWord()


def _reduced(letters: Letters) -> FreeWord:
    """The ``FreeWord`` of letters that are reduced by construction, unchecked.
    Every empty word is the one ``EMPTY_WORD``."""
    if not letters:
        return EMPTY_WORD
    word = object.__new__(FreeWord)
    object.__setattr__(word, "letters", letters)
    return word


def _product(left: Letters, right: Letters) -> Letters:
    """The letters of the product of two reduced letter tuples."""
    if not right:
        return left
    # Both are reduced, so only a suffix of left cancels a prefix of right.
    cut, most = 0, min(len(left), len(right))
    while cut < most and left[-1 - cut] == (right[cut][0], -right[cut][1]):
        cut += 1
    return left[: len(left) - cut] + right[cut:]


def _inverse(letters: Letters) -> Letters:
    """The letters of the inverse of a reduced letter tuple."""
    return tuple([(gen, -sign) for gen, sign in reversed(letters)])


def _free_reduction(letters: Iterable[Letter]) -> Letters:
    """The free reduction of a sequence of unit letters."""
    out: list[Letter] = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def reduce_free_word(letters: Iterable[tuple[str, int]]) -> FreeWord:
    """Freely reduce a raw letter sequence; exponents of any size are expanded."""
    units: list[Letter] = []
    for gen, exp in letters:
        sign = _UNIT_SIGNS.get(exp)
        if sign:
            units.append((gen, sign))
        else:
            units += [(gen, 1 if exp > 0 else -1)] * abs(exp)
    return _reduced(_free_reduction(units))


def parse_word(text: str, line: int | None = None, field: str | None = None) -> FreeWord:
    """Parse a word from space-separated tokens ``X``, ``X^-1``, ``X^3``, ``1``.

    An exponent is an integer token; one above ``MAX_EXPONENT`` in absolute
    value is a ``FormatError``.
    """
    raw: list[tuple[str, int]] = []
    for token in text.split():
        if token == EMPTY_WORD_TOKEN:
            continue
        base, caret, exp_text = token.partition("^")
        if not NAME_RE.match(base):
            raise FormatError(f"bad word token {token!r}", line=line, field=field)
        if caret:
            exp = _integer_or_none(exp_text)
            if exp is None:
                raise FormatError(
                    f"bad exponent in token {token!r}", line=line, field=field
                )
            if abs(exp) > MAX_EXPONENT:
                raise FormatError(
                    f"exponent in token {token!r} exceeds {MAX_EXPONENT} in absolute value",
                    line=line, field=field,
                )
        else:
            exp = 1
        raw.append((base, exp))
    return reduce_free_word(raw)


def _canonical_letters(text: str) -> Letters:
    """The freely reduced letters of a word ``_WORD`` matched.  One token needs
    no reduction, and a canonical token holds a ^ only in its suffix ^-1."""
    if " " in text:
        return _free_reduction([(token[:-3], -1) if "^" in token else (token, 1)
                                for token in text.split(" ")])
    if text == EMPTY_WORD_TOKEN:
        return ()
    return ((text[:-3], -1),) if "^" in text else ((text, 1),)


def format_word(word: FreeWord) -> str:
    """Canonical text of a word: unit letters only, ``1`` for the empty word."""
    if word.is_empty:
        return EMPTY_WORD_TOKEN
    return " ".join(gen if sign > 0 else f"{gen}^-1" for gen, sign in word.letters)
