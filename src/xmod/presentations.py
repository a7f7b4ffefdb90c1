"""Crossed-module presentations of complements.

A presentation has base generators (one per 1-handle), cell generators (one
per 2-handle) with boundary words in the free group on the base generators,
and relations (one per 3-handle).  A relation is a crossed word: a product of
conjugated cells (conjugator word, cell, sign), never normalised beyond free
reduction of the conjugators.  No Peiffer-style normal form is computed here
or anywhere else; relations are evaluated pointwise against finite targets.

This module holds the values, their check and their text format, and no
algebra on crossed words: replay builds relations on letter tuples, and the
moves on presentations (``free_product``, ``stabilize``,
``add_cancelling_pair``) live in ``xmod.fuzz``.
"""
from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .crossed import ValidationReport
from .errors import FormatError, UnknownIdError
from .words import (
    _SIGN,
    _SIGNS,
    _WORD,
    NAME,
    FreeWord,
    Letter,
    Letters,
    LineReader,
    _canonical_letters,
    _free_reduction,
    _inverse,
    _reduced,
    format_word,
    parse_id,
    parse_sign,
    parse_word,
    valid_name,
)

Term = tuple[FreeWord, str, int]


@dataclass(frozen=True)
class CrossedWord:
    """A formal product of conjugated cell generators."""

    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        for conjugator, cell, sign in self.terms:
            if sign not in (1, -1):
                raise ValueError(f"bad term sign {sign!r}")
            if not isinstance(conjugator, FreeWord):
                raise TypeError("conjugator must be a FreeWord")
            if not isinstance(cell, str):
                raise TypeError("cell id must be a string")

    def __str__(self) -> str:
        return format_crossed_word(self)


def _crossed(terms: tuple[Term, ...]) -> CrossedWord:
    """A ``CrossedWord`` of terms whose conjugators are ``FreeWord`` values
    and whose signs are +1 or -1, unchecked."""
    crossed = object.__new__(CrossedWord)
    object.__setattr__(crossed, "terms", terms)
    return crossed


def _inverse_terms(terms: tuple) -> tuple:
    """The terms of the inverse of a crossed word, whatever its conjugators
    are: the terms in reverse order, each with its sign flipped."""
    return tuple([(w, cell, -sign) for w, cell, sign in reversed(terms)])


def _boundary_letters(terms: Iterable[tuple[Letters, str, int]],
                      cell_letters: Callable[[str], Letters]) -> Letters:
    """The boundary of terms (conjugator letters, cell, sign), as letters.

    ``cell_letters`` gives the boundary letters of a cell and raises
    ``KeyError`` for one it does not know, which becomes ``UnknownIdError``.
    The letters of every term are joined and freely reduced once.  A term
    whose cell has the empty boundary is skipped, as w 1 w^-1 cancels.
    """
    letters: list[Letter] = []
    for conjugator, cell, sign in terms:
        try:
            boundary = cell_letters(cell)
        except KeyError:
            raise UnknownIdError(f"unknown cell {cell!r}") from None
        if not boundary:
            continue
        letters += conjugator
        letters += boundary if sign > 0 else _inverse(boundary)
        letters += _inverse(conjugator)
    return _free_reduction(letters)


@dataclass(frozen=True)
class CrossedPresentation:
    """Base generators, cells with boundary words, and crossed-word relations.

    The constructor checks types and shapes only; use ``validate_presentation``
    for id hygiene and relation boundary triviality.  Values are immutable by
    convention; ``cell_boundary`` is defensively copied.
    """

    generators: tuple[str, ...]
    cells: tuple[str, ...]
    cell_boundary: dict[str, FreeWord]
    relations: tuple[CrossedWord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cell_boundary", dict(self.cell_boundary))

    @property
    def one_handles(self) -> int:
        """The number of 1-handles: one per base generator."""
        return len(self.generators)


EMPTY_PRESENTATION = CrossedPresentation((), (), {})


def boundary_of_crossed_word(
    pres: CrossedPresentation, crossed: CrossedWord
) -> FreeWord:
    """Boundary in the free base group: product of conjugated cell boundaries.

    Reads only ``pres.cell_boundary``; raises ``UnknownIdError`` for a cell
    not in it.
    """
    cells = pres.cell_boundary
    return _reduced(_boundary_letters(
        [(w.letters, cell, sign) for w, cell, sign in crossed.terms],
        lambda cell: cells[cell].letters))


def validate_presentation(pres: CrossedPresentation) -> ValidationReport:
    """Id hygiene plus boundary triviality of every relation.  Never raises.

    Ids are looked up letter by letter, and a word's unknown generators are
    listed only once one is found.  A boundary is computed only for a
    relation with a term on a cell of nonempty boundary: the other terms
    contribute w 1 w^-1, which cancels.
    """
    out: list[tuple[str, tuple]] = []
    gens = set(pres.generators)
    cells = set(pres.cells)

    seen: set[str] = set()
    for name in pres.generators + pres.cells:
        if not valid_name(name):
            out.append(("ids.bad_name", (name,)))
        if name in seen:
            out.append(("ids.duplicate", (name,)))
        seen.add(name)

    for cell in pres.cells:
        if cell not in pres.cell_boundary:
            out.append(("boundary.missing", (cell,)))
    for name in pres.cell_boundary:
        if name not in cells:
            out.append(("boundary.extra", (name,)))
    for cell, word in pres.cell_boundary.items():
        for gen, _ in word.letters:
            if gen not in gens:
                out += [("boundary.unknown_generator", (cell, unknown))
                        for unknown in sorted(word.generators() - gens)]
                break

    for index, relation in enumerate(pres.relations):
        for term_index, (conjugator, cell, _) in enumerate(relation.terms):
            if cell not in cells:
                out.append(("relation.unknown_cell", (index, term_index, cell)))
            for gen, _ in conjugator.letters:
                if gen not in gens:
                    out += [("relation.unknown_generator", (index, term_index, unknown))
                            for unknown in sorted(conjugator.generators() - gens)]
                    break
    # Boundary triviality only makes sense once every id resolves.
    bounded = {cell for cell, word in pres.cell_boundary.items() if word.letters}
    if not out and bounded:
        for index, relation in enumerate(pres.relations):
            if bounded.isdisjoint([cell for _, cell, _ in relation.terms]):
                continue
            boundary = boundary_of_crossed_word(pres, relation)
            if not boundary.is_empty:
                out.append(
                    ("relation.nontrivial_boundary", (index, format_word(boundary)))
                )
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# Text format
#
#   pres v1
#   gens X Y
#   cells e f
#   bnd e = X A^-1
#   bnd f = 1
#   rel = (1 ; e ; +) (X ; f ; -)
#
# One 'bnd' line per cell, in cell order; zero or more 'rel' lines.
# '#' starts a comment.  parse and print round-trip on canonical form.
# ---------------------------------------------------------------------------

# The canonical spelling of 'bnd' and 'rel' lines, the one
# ``format_presentation_text`` writes: one space between tokens, signs ``+``
# and ``-``, and words in letters ``X`` and ``X^-1`` or ``1``.  A line in it
# is read by one match of its pattern and the terms of a relation by one
# ``findall``; any other line goes to the token reader, which reads the other
# spellings alike and refuses every malformed line with its ``FormatError``.
_BND_RE = re.compile(rf"bnd ({NAME}) = ({_WORD})")
_TERM = rf"\(({_WORD}) ; ({NAME}) ; {_SIGN}\)"
_TERM_RE = re.compile(_TERM)
_REL_RE = re.compile(rf"rel =((?: {_TERM})*)")


def format_crossed_word(crossed: CrossedWord) -> str:
    return " ".join(
        f"({format_word(w)} ; {cell} ; {'+' if sign > 0 else '-'})"
        for w, cell, sign in crossed.terms
    )


def _parse_crossed_word(text: str, lineno: int, field: str) -> CrossedWord:
    body = text.strip()
    terms: list[Term] = []
    pos = 0
    while pos < len(body):
        if body[pos].isspace():
            pos += 1
            continue
        if body[pos] != "(":
            raise FormatError(f"expected '(' in crossed word, found {body[pos:]!r}",
                              line=lineno, field=field)
        close = body.find(")", pos)
        if close < 0:
            raise FormatError("unclosed '(' in crossed word", line=lineno, field=field)
        chunk = body[pos + 1 : close]
        parts = chunk.split(";")
        if len(parts) != 3:
            raise FormatError(
                f"expected '(word ; cell ; sign)', got {chunk.strip()!r}",
                line=lineno, field=field,
            )
        terms.append((
            parse_word(parts[0], line=lineno, field=field),
            parse_id(parts[1].strip(), "cell", lineno, field),
            parse_sign(parts[2].strip(), lineno, field),
        ))
        pos = close + 1
    return CrossedWord(tuple(terms))


class _Words(dict):
    """Canonical word text -> ``FreeWord``, each distinct text read once.

    One parse keeps one; its equal words are then one shared value, which is
    safe as words are immutable.
    """

    def __missing__(self, text: str) -> FreeWord:
        word = self[text] = _reduced(_canonical_letters(text))
        return word


def parse_presentation_text(text: str) -> CrossedPresentation:
    words = _Words()
    lines = LineReader(text)
    first = next(iter(lines), None)
    if first is None:
        raise lines.end_error("empty input", "header")
    lineno, header = first
    if header != "pres v1":
        raise FormatError(f"expected 'pres v1' header, got {header!r}",
                          line=lineno, field="header")

    lineno, gens_line = lines.next("gens")
    tokens = gens_line.split()
    if not tokens or tokens[0] != "gens":
        raise FormatError("expected 'gens' line", line=lineno, field="gens")
    generators = tuple(
        parse_id(name, "generator", lineno, "gens") for name in tokens[1:]
    )

    lineno, cells_line = lines.next("cells")
    tokens = cells_line.split()
    if not tokens or tokens[0] != "cells":
        raise FormatError("expected 'cells' line", line=lineno, field="cells")
    cells = tuple(parse_id(name, "cell", lineno, "cells") for name in tokens[1:])

    cell_boundary: dict[str, FreeWord] = {}
    for cell in cells:
        lineno, line = lines.next("bnd")
        match = _BND_RE.fullmatch(line)
        if match and match[1] == cell:
            cell_boundary[cell] = words[match[2]]
            continue
        head, eq, rest = line.partition("=")
        tokens = head.split()
        if len(tokens) != 2 or tokens[0] != "bnd" or not eq:
            raise FormatError(f"expected 'bnd {cell} = <word>'",
                              line=lineno, field="bnd")
        if tokens[1] != cell:
            raise FormatError(
                f"expected boundary for cell {cell!r} (cell order), got {tokens[1]!r}",
                line=lineno, field="bnd",
            )
        cell_boundary[cell] = parse_word(rest, line=lineno, field="bnd")

    relations: list[CrossedWord] = []
    for lineno, line in lines:
        match = _REL_RE.fullmatch(line)
        if match:
            relations.append(_crossed(tuple([
                (words[word], cell, _SIGNS[sign])
                for word, cell, sign in _TERM_RE.findall(match[1])])))
            continue
        head, eq, rest = line.partition("=")
        if head.split() != ["rel"] or not eq:
            raise FormatError(f"expected 'rel = ...' line, got {line!r}",
                              line=lineno, field="rel")
        relations.append(_parse_crossed_word(rest, lineno, "rel"))

    return CrossedPresentation(generators, cells, cell_boundary, tuple(relations))


def format_presentation_text(pres: CrossedPresentation) -> str:
    out = ["pres v1"]
    out.append(("gens " + " ".join(pres.generators)).rstrip())
    out.append(("cells " + " ".join(pres.cells)).rstrip())
    for cell in pres.cells:
        out.append(f"bnd {cell} = {format_word(pres.cell_boundary[cell])}")
    for relation in pres.relations:
        body = format_crossed_word(relation)
        out.append(f"rel ={' ' + body if body else ''}")
    return "\n".join(out) + "\n"
