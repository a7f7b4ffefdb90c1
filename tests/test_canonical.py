"""The canonical spelling of ``xmod v1`` table rows and ``pres v1`` ``bnd``
and ``rel`` lines, the one the writers use, is read in one pass per line:
a table row by one ``map`` over a memo of its tokens, a ``bnd`` or ``rel``
line by one pattern.  Any other line goes to the token reader.  Both must
give the same objects or the same error."""
from __future__ import annotations

import random
import re

import pytest

from xmod import crossed, presentations
from xmod.crossed import (
    build_group_algebra_crossed_module,
    format_crossed_module_text,
    parse_crossed_module_text,
)
from xmod.errors import FormatError
from xmod.fixtures import FIXTURE_NAMES
from xmod.fuzz import module_pool
from xmod.groups import build_cyclic_group, build_symmetric_group
from xmod.presentations import (
    CrossedPresentation,
    format_presentation_text,
    parse_presentation_text,
)
from xmod.words import LineReader

PARSERS = {"xmod": parse_crossed_module_text, "pres": parse_presentation_text}


def outcome(fmt: str, text: str):
    """The object ``text`` reads to, or its ``FormatError`` message and line."""
    try:
        return PARSERS[fmt](text)
    except FormatError as exc:
        return (str(exc), exc.line)


class NoIndices(crossed._Indices):
    """A memo that takes no token, so every table row goes to the token reader."""

    def __missing__(self, token: str) -> int:
        raise KeyError(token)


def token_reader_outcome(fmt: str, text: str, monkeypatch):
    """``outcome`` with every table row, ``bnd`` and ``rel`` line read by the
    token reader."""
    with monkeypatch.context() as patch:
        if fmt == "xmod":
            patch.setattr(crossed, "_Indices", NoIndices)
        else:
            never = re.compile(r"(?!)")
            patch.setattr(presentations, "_BND_RE", never)
            patch.setattr(presentations, "_REL_RE", never)
        return outcome(fmt, text)


def token_reader_lines(fmt: str, text: str, monkeypatch) -> list[int]:
    """The lines of ``text`` that reach the token reader of its format."""
    seen: list[int] = []

    def spy(reader):
        def read(text, *args, **kwargs):
            seen.append(kwargs["line"] if "line" in kwargs else args[0])
            return reader(text, *args, **kwargs)
        return read

    with monkeypatch.context() as patch:
        if fmt == "xmod":
            patch.setattr(crossed, "parse_integers", spy(crossed.parse_integers))
        else:
            patch.setattr(presentations, "parse_word", spy(presentations.parse_word))
        PARSERS[fmt](text)
    return seen


def modules():
    """``module_pool()`` and the group-algebra targets up to |E| = 81."""
    out = list(module_pool())
    out += [("ga_z5_p2", build_group_algebra_crossed_module(build_cyclic_group(5), 2)),
            ("ga_s3_p2", build_group_algebra_crossed_module(build_symmetric_group(3), 2)),
            ("ga_z4_p3", build_group_algebra_crossed_module(build_cyclic_group(4), 3))]
    return out


MODULES = modules()


@pytest.fixture(scope="module")
def presentations_by_name(compiled_fixtures, padded_chain):
    return {**compiled_fixtures, "padded_chain": padded_chain}


PRESENTATION_NAMES = [*FIXTURE_NAMES, "padded_chain"]


# ---------------------------------------------------------------------------
# What the writers write is read entirely on the fast path.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cm", [cm for _, cm in MODULES], ids=[name for name, _ in MODULES])
def test_a_written_module_is_read_on_the_fast_path(cm, monkeypatch):
    text = format_crossed_module_text(cm)
    assert token_reader_lines("xmod", text, monkeypatch) == []
    assert outcome("xmod", text) == cm == token_reader_outcome("xmod", text, monkeypatch)


@pytest.mark.parametrize("name", PRESENTATION_NAMES)
def test_a_written_presentation_is_read_on_the_fast_path(name, presentations_by_name,
                                                         monkeypatch):
    pres = presentations_by_name[name]
    text = format_presentation_text(pres)
    assert token_reader_lines("pres", text, monkeypatch) == []
    assert outcome("pres", text) == pres == token_reader_outcome("pres", text, monkeypatch)


# ---------------------------------------------------------------------------
# Seeded token mutants read alike on both paths.
# ---------------------------------------------------------------------------

# Tokens of each format: runs of characters that are not whitespace or one
# of its separators.
TOKEN_RE = {"xmod": re.compile(r"[^\s#]+"), "pres": re.compile(r"[^\s=;()#]+")}

# Spellings the writers never use, drawn beside the tokens of the texts: other
# integer and sign spellings, tokens the integer rule refuses, words with
# exponents and separators in a token's place.  "" deletes a token.
EXTRA_TOKENS = {
    "xmod": ["", "+1", "-1", "-0", "01", "00", "+0", "9", "64", "81",
             "1_0", "٣", "x", "1.0", "base", "action"],
    "pres": ["", "+1", "-1", "01", "X^1", "X^-1", "X^01", "X^-2", "X^", "^-1",
             "1", "1x", "bnd", "rel", "(", ")", ";", "=", "( 1", "e ; +"],
}


def mutants(fmt: str, texts: list[str], count: int, seed: int = 0):
    """``count`` seeded mutants of ``texts``, each with one or two edits.

    An edit replaces one token, or every occurrence of it, with a token of
    the texts or of ``EXTRA_TOKENS``.
    """
    token_re = TOKEN_RE[fmt]
    pool = sorted({token for text in texts for token in token_re.findall(text)}
                  | set(EXTRA_TOKENS[fmt]))
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.choice((1, 1, 2))):
            start, end = rng.choice([match.span() for match in token_re.finditer(text)])
            new = rng.choice(pool)
            if rng.random() < 0.5:
                text = text[:start] + new + text[end:]
            else:
                old = text[start:end]
                text = token_re.sub(
                    lambda match: new if match.group() == old else match.group(), text)
        yield text


def test_module_mutants_read_alike_on_both_paths(monkeypatch):
    texts = [format_crossed_module_text(cm) for _, cm in module_pool()]
    read = 0
    for text in mutants("xmod", texts, 2000):
        result = outcome("xmod", text)
        assert result == token_reader_outcome("xmod", text, monkeypatch), text
        read += not isinstance(result, tuple)
    # Both paths are met: most mutants are refused, some read.
    assert 100 < read < 1900


def test_presentation_mutants_read_alike_on_both_paths(compiled_fixtures, monkeypatch):
    texts = [format_presentation_text(pres) for pres in compiled_fixtures.values()]
    read = 0
    for text in mutants("pres", texts, 2000):
        result = outcome("pres", text)
        assert result == token_reader_outcome("pres", text, monkeypatch), text
        read += not isinstance(result, tuple)
    assert 100 < read < 1900


# In one row, a malformed token is reported before a wrong length, and a
# wrong length before an entry out of range, on either path.
@pytest.mark.parametrize("row, message", [
    ("0 1 3 3", "expected 3 entries, got 4"),
    ("0 +1 3 3", "expected 3 entries, got 4"),
    ("0 1 3", "index 3 out of range 0..2"),
    ("-1 1 2", "index -1 out of range 0..2"),
    ("3 3 x", "expected an integer, got 'x'"),
    ("x 1", "expected an integer, got 'x'"),
])
def test_the_errors_of_one_row_come_in_order(row, message, monkeypatch):
    text = f"xmod v1\nbase 1\n0\nfiber 3\n{row}\n"
    expected = (f"line 5: [fiber] {message}", 5)
    assert outcome("xmod", text) == expected
    assert token_reader_outcome("xmod", text, monkeypatch) == expected


# ---------------------------------------------------------------------------
# Respelled texts read to equal objects.
# ---------------------------------------------------------------------------


def respelled_module_text(text: str, leading=("0", "+")) -> str:
    """``text`` with the entries of every other table row apart by tabs, and
    the first entry of each row led by the next of ``leading`` in turn
    (``01``, ``+1``, ``00``, ``+0``, ...)."""
    out = []
    for index, line in enumerate(text.splitlines()):
        tokens = line.split(" ")
        if tokens[0].isdigit():
            first = leading[index % len(leading)] + tokens[0]
            line = ("\t", " ")[index % 2].join([first, *tokens[1:]])
        out.append(line)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("cm", [cm for _, cm in MODULES], ids=[name for name, _ in MODULES])
def test_a_respelled_module_reads_to_an_equal_module(cm, monkeypatch):
    text = respelled_module_text(format_crossed_module_text(cm))
    rows = cm.base.order + cm.fiber.order + 1 + cm.base.order
    assert len(token_reader_lines("xmod", text, monkeypatch)) == rows
    assert parse_crossed_module_text(text) == cm
    # Tabs alone keep a row canonical.
    tabbed = respelled_module_text(format_crossed_module_text(cm), leading=("",))
    assert token_reader_lines("xmod", tabbed, monkeypatch) == []
    assert parse_crossed_module_text(tabbed) == cm


def respelled_word(letters, gens, index: int) -> str:
    """A word of ``letters`` spelled with ``X^1``, ``X^-01`` and a
    cancelling pair ``X X^-1`` of the first generator, on ``1`` if empty."""
    tokens = [f"{gen}^1" if sign > 0 else f"{gen}^-01" for gen, sign in letters]
    if gens:
        tokens.insert(index % (len(tokens) + 1), f"{gens[0]} {gens[0]}^-1")
    return " ".join(tokens) or "1"


def respelled_presentation_text(pres: CrossedPresentation) -> str:
    """Text of ``pres`` with no ``bnd`` or ``rel`` line canonical: signs
    ``+1`` and ``-1``, words as ``respelled_word`` writes them, and tabs."""
    out = ["pres v1", "gens\t" + " ".join(pres.generators),
           "cells\t" + " ".join(pres.cells)]
    for index, cell in enumerate(pres.cells):
        word = respelled_word(pres.cell_boundary[cell].letters, pres.generators, index)
        out.append(f"bnd\t{cell} =  {word}")
    for index, relation in enumerate(pres.relations):
        terms = [f"({respelled_word(w.letters, pres.generators, index + k)} ;\t{cell} ; "
                 f"{'+1' if sign > 0 else '-1'})"
                 for k, (w, cell, sign) in enumerate(relation.terms)]
        out.append("rel\t= " + "  ".join(terms))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", PRESENTATION_NAMES)
def test_a_respelled_presentation_reads_to_an_equal_presentation(name, presentations_by_name,
                                                                 monkeypatch):
    pres = presentations_by_name[name]
    text = respelled_presentation_text(pres)
    lines = {lineno for lineno, content in LineReader(text)
             if content.startswith(("bnd", "rel"))}
    assert set(token_reader_lines("pres", text, monkeypatch)) == lines
    assert parse_presentation_text(text) == pres


def test_a_cancelling_pair_in_canonical_spelling_is_reduced_on_the_fast_path(monkeypatch):
    text = ("pres v1\ngens X Y\ncells e f\nbnd e = X Y Y^-1\nbnd f = Y^-1 Y\n"
            "rel = (X X^-1 ; f ; +) (Y ; f ; -)\n")
    assert token_reader_lines("pres", text, monkeypatch) == []
    pres = parse_presentation_text(text)
    assert pres == token_reader_outcome("pres", text, monkeypatch)
    assert format_presentation_text(pres) == (
        "pres v1\ngens X Y\ncells e f\nbnd e = X\nbnd f = 1\n"
        "rel = (1 ; f ; +) (Y ; f ; -)\n")
