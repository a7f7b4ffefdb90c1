"""Crossed-module presentations of complements.

A presentation has base generators (one per 1-handle), cell generators (one
per 2-handle) with boundary words in the free group on the base generators,
and relations (one per 3-handle).  A relation is a crossed word: a product of
conjugated cells (conjugator word, cell, sign), never normalised beyond free
reduction of the conjugators.  No Peiffer-style normal form is computed here
or anywhere else; relations are evaluated pointwise against finite targets.
"""
from __future__ import annotations

from dataclasses import dataclass

from .crossed import ValidationReport
from .errors import FormatError, UnknownIdError
from .words import (
    FreeWord,
    LineReader,
    format_word,
    parse_id,
    parse_sign,
    parse_word,
    reduce_free_word,
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

    def __mul__(self, other: CrossedWord) -> CrossedWord:
        return CrossedWord(self.terms + other.terms)

    def inverse(self) -> CrossedWord:
        return CrossedWord(
            tuple((w, cell, -sign) for w, cell, sign in reversed(self.terms))
        )

    def act(self, word: FreeWord) -> CrossedWord:
        """Left action of a base word: prepend it to every conjugator."""
        return CrossedWord(
            tuple((word * w, cell, sign) for w, cell, sign in self.terms)
        )

    def cells(self) -> set[str]:
        return {cell for _, cell, _ in self.terms}

    def __str__(self) -> str:
        return format_crossed_word(self)


EMPTY_CROSSED_WORD = CrossedWord()


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

    Reads only ``pres.cell_boundary``; the letters of every term are joined
    and freely reduced once.  Raises ``UnknownIdError`` for a cell not in it.
    """
    letters: list[tuple[str, int]] = []
    for conjugator, cell, sign in crossed.terms:
        try:
            boundary = pres.cell_boundary[cell].letters
        except KeyError:
            raise UnknownIdError(f"unknown cell {cell!r}") from None
        if sign < 0:
            boundary = [(gen, -s) for gen, s in reversed(boundary)]
        letters += conjugator.letters
        letters += boundary
        letters += [(gen, -s) for gen, s in reversed(conjugator.letters)]
    return reduce_free_word(letters)


def validate_presentation(pres: CrossedPresentation) -> ValidationReport:
    """Id hygiene plus boundary triviality of every relation.  Never raises."""
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
        for gen in sorted(word.generators() - gens):
            out.append(("boundary.unknown_generator", (cell, gen)))

    for index, relation in enumerate(pres.relations):
        for term_index, (conjugator, cell, _) in enumerate(relation.terms):
            if cell not in cells:
                out.append(("relation.unknown_cell", (index, term_index, cell)))
            for gen in sorted(conjugator.generators() - gens):
                out.append(("relation.unknown_generator", (index, term_index, gen)))
    # Boundary triviality only makes sense once every id resolves.
    if not out:
        for index, relation in enumerate(pres.relations):
            boundary = boundary_of_crossed_word(pres, relation)
            if not boundary.is_empty:
                out.append(
                    ("relation.nontrivial_boundary", (index, format_word(boundary)))
                )
    return ValidationReport(tuple(out))


def _suffix_renaming(p1: CrossedPresentation, p2: CrossedPresentation) -> dict[str, str]:
    """Deterministic renaming of every p2 id: append _2, bumping on collision."""
    k = 2
    while True:
        gen_map = {name: f"{name}_{k}" for name in p2.generators}
        cell_map = {name: f"{name}_{k}" for name in p2.cells}
        if set(gen_map.values()).isdisjoint(p1.generators) and set(
            cell_map.values()
        ).isdisjoint(p1.cells):
            return {**gen_map, **cell_map}
        k += 1


def _rename_word(word: FreeWord, mapping: dict[str, str]) -> FreeWord:
    return FreeWord(tuple((mapping.get(g, g), s) for g, s in word.letters))


def _rename_crossed(crossed: CrossedWord, mapping: dict[str, str]) -> CrossedWord:
    return CrossedWord(
        tuple(
            (_rename_word(w, mapping), mapping.get(cell, cell), sign)
            for w, cell, sign in crossed.terms
        )
    )


def free_product(
    p1: CrossedPresentation, p2: CrossedPresentation
) -> CrossedPresentation:
    """Disjoint union of two presentations; p2 ids get a numeric suffix."""
    mapping = _suffix_renaming(p1, p2)
    generators = p1.generators + tuple(mapping[g] for g in p2.generators)
    cells = p1.cells + tuple(mapping[c] for c in p2.cells)
    cell_boundary = dict(p1.cell_boundary)
    for cell in p2.cells:
        cell_boundary[mapping[cell]] = _rename_word(p2.cell_boundary[cell], mapping)
    relations = p1.relations + tuple(
        _rename_crossed(r, mapping) for r in p2.relations
    )
    return CrossedPresentation(generators, cells, cell_boundary, relations)


def stabilize(pres: CrossedPresentation) -> CrossedPresentation:
    """Add one fresh base generator and one fresh cell whose boundary is it."""
    primes = 1
    while "X" + "'" * primes in pres.generators or "e" + "'" * primes in pres.cells:
        primes += 1
    gen = "X" + "'" * primes
    cell = "e" + "'" * primes
    cell_boundary = dict(pres.cell_boundary)
    cell_boundary[cell] = FreeWord(((gen, 1),))
    return CrossedPresentation(
        pres.generators + (gen,),
        pres.cells + (cell,),
        cell_boundary,
        pres.relations,
    )


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


def parse_presentation_text(text: str) -> CrossedPresentation:
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
