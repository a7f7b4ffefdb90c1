from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from xmod import presentations
from xmod.crossed import ValidationReport
from xmod.errors import FormatError, UnknownIdError
from xmod.fuzz import free_product, random_instances, stabilize
from xmod.presentations import (
    EMPTY_PRESENTATION,
    CrossedPresentation,
    CrossedWord,
    boundary_of_crossed_word,
    format_crossed_word,
    format_presentation_text,
    parse_presentation_text,
    validate_presentation,
)
from xmod.words import (
    EMPTY_WORD,
    FreeWord,
    format_word,
    parse_word,
    reduce_free_word,
    valid_name,
)


def word(text: str) -> FreeWord:
    return parse_word(text)


def inverse(w: FreeWord) -> FreeWord:
    return reduce_free_word([(gen, -sign) for gen, sign in reversed(w.letters)])


def sphere_presentation() -> CrossedPresentation:
    return CrossedPresentation(("X",), ("e",), {"e": word("X")})


def annular_presentation() -> CrossedPresentation:
    # One cell whose boundary is X^-1 Y, as produced by a tube between
    # two separate births.
    return CrossedPresentation(("X", "Y"), ("e",), {"e": word("X^-1 Y")})


# ---------------------------------------------------------------------------
# Crossed words and boundaries
# ---------------------------------------------------------------------------


def test_boundary_of_single_term():
    pres = annular_presentation()
    crossed = CrossedWord(((EMPTY_WORD, "e", 1),))
    assert boundary_of_crossed_word(pres, crossed) == word("X^-1 Y")


def test_boundary_of_conjugated_inverse():
    pres = sphere_presentation()
    crossed = CrossedWord(((word("X X"), "e", -1),))
    # (X^2) X^-1 (X^2)^-1 inverted is X^2 X^-1 X^-2 inverted = X^-1... compute:
    # conjugate of X by X^2 is X, inverse is X^-1.
    assert boundary_of_crossed_word(pres, crossed) == word("X^-1")


def test_boundary_of_product_multiplies():
    pres = annular_presentation()
    a = CrossedWord(((word("X"), "e", 1),))
    b = CrossedWord(((EMPTY_WORD, "e", -1),))
    lhs = boundary_of_crossed_word(pres, CrossedWord(a.terms + b.terms))
    rhs = boundary_of_crossed_word(pres, a) * boundary_of_crossed_word(pres, b)
    assert lhs == rhs


free_words = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.sampled_from([1, -1])), max_size=4
).map(reduce_free_word)
crossed_words = st.lists(
    st.tuples(free_words, st.sampled_from(["e", "f"]), st.sampled_from([1, -1])),
    max_size=4,
).map(lambda terms: CrossedWord(tuple(terms)))


@given(crossed_words, crossed_words)
def test_built_crossed_words_pass_the_checked_constructor(c, d):
    # The reader of canonical 'rel' lines skips the constructor's check.
    text = (f"pres v1\ngens x y\ncells e f\nbnd e = 1\nbnd f = 1\n"
            f"rel = {format_crossed_word(c)}\nrel = {format_crossed_word(d)}\n")
    relations = parse_presentation_text(text).relations
    assert relations == (c, d)
    for crossed in relations:
        assert CrossedWord(crossed.terms) == crossed
        for conjugator, _, _ in crossed.terms:
            assert FreeWord(conjugator.letters) == conjugator


def test_crossed_word_str_is_the_canonical_text():
    crossed = CrossedWord(((parse_word("X"), "e", 1), (EMPTY_WORD, "f", -1)))
    assert str(crossed) == "(X ; e ; +) (1 ; f ; -)"
    assert str(CrossedWord()) == ""


def test_crossed_word_rejects_bad_sign():
    with pytest.raises(ValueError):
        CrossedWord(((EMPTY_WORD, "e", 2),))


def test_boundary_word_unknown_cell():
    with pytest.raises(UnknownIdError):
        boundary_of_crossed_word(sphere_presentation(),
                                 CrossedWord(((EMPTY_WORD, "nope", 1),)))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_ok_cases():
    assert validate_presentation(EMPTY_PRESENTATION).ok
    assert validate_presentation(sphere_presentation()).ok
    pres = CrossedPresentation(
        ("X",),
        ("e",),
        {"e": word("X")},
        (CrossedWord(((word("X"), "e", 1), (EMPTY_WORD, "e", -1))),),
    )
    assert validate_presentation(pres).ok


def test_validate_bad_and_duplicate_ids():
    pres = CrossedPresentation(("X", "X"), ("3bad",), {"3bad": EMPTY_WORD})
    found = {axiom for axiom, _ in validate_presentation(pres).violations}
    assert found == {"ids.duplicate", "ids.bad_name"}


def test_validate_boundary_bookkeeping():
    pres = CrossedPresentation(("X",), ("e",), {"f": word("X")})
    found = {axiom for axiom, _ in validate_presentation(pres).violations}
    assert found == {"boundary.missing", "boundary.extra"}

    pres = CrossedPresentation(("X",), ("e",), {"e": word("Z")})
    report = validate_presentation(pres)
    assert report.violations == (("boundary.unknown_generator", ("e", "Z")),)


def test_validate_relation_ids():
    pres = CrossedPresentation(
        ("X",),
        ("e",),
        {"e": word("X")},
        (CrossedWord(((word("X"), "ghost", 1),)),),
    )
    axioms = {axiom for axiom, _ in validate_presentation(pres).violations}
    assert axioms == {"relation.unknown_cell"}

    pres = CrossedPresentation(
        ("X",),
        ("e",),
        {"e": word("X")},
        (CrossedWord(((word("Q"), "e", 1),)),),
    )
    axioms = {axiom for axiom, _ in validate_presentation(pres).violations}
    assert axioms == {"relation.unknown_generator"}


def test_validate_nontrivial_boundary_reports_witness():
    pres = CrossedPresentation(
        ("X",),
        ("e",),
        {"e": word("X")},
        (CrossedWord(((EMPTY_WORD, "e", 1),)),),
    )
    report = validate_presentation(pres)
    assert report.violations == (("relation.nontrivial_boundary", (0, "X")),)


def test_validate_skips_triviality_until_ids_resolve():
    # A relation naming a ghost cell must not crash the boundary check.
    pres = CrossedPresentation(
        ("X",),
        ("e",),
        {"e": word("X")},
        (CrossedWord(((EMPTY_WORD, "ghost", 1),)),),
    )
    axioms = {axiom for axiom, _ in validate_presentation(pres).violations}
    assert "relation.nontrivial_boundary" not in axioms


def test_validate_reports_ids_in_declaration_order():
    pres = CrossedPresentation(("X", "3bad", "X"), ("3bad", "e"),
                               {"3bad": EMPTY_WORD, "e": EMPTY_WORD})
    assert validate_presentation(pres).violations == (
        ("ids.bad_name", ("3bad",)),
        ("ids.duplicate", ("X",)),
        ("ids.bad_name", ("3bad",)),
        ("ids.duplicate", ("3bad",)),
    )


def test_validate_reports_missing_then_extra_boundaries():
    # An extra boundary's generators are checked too, in the dict's order.
    pres = CrossedPresentation(("X",), ("e", "f"),
                               {"g": word("X"), "f": EMPTY_WORD, "h": word("Z")})
    assert validate_presentation(pres).violations == (
        ("boundary.missing", ("e",)),
        ("boundary.extra", ("g",)),
        ("boundary.extra", ("h",)),
        ("boundary.unknown_generator", ("h", "Z")),
    )


def test_validate_lists_each_unknown_generator_once_sorted():
    pres = CrossedPresentation(
        ("X",),
        ("e",),
        {"e": word("Z X Y Z")},
        (CrossedWord(((word("X"), "e", 1), (word("Q X P Q"), "e", -1))),),
    )
    assert validate_presentation(pres).violations == (
        ("boundary.unknown_generator", ("e", "Y")),
        ("boundary.unknown_generator", ("e", "Z")),
        ("relation.unknown_generator", (0, 1, "P")),
        ("relation.unknown_generator", (0, 1, "Q")),
    )


def test_validate_reports_a_term_cell_before_its_conjugator():
    pres = CrossedPresentation(
        ("X",),
        ("e",),
        {"e": word("X")},
        (CrossedWord(((word("X"), "e", 1), (word("X"), "e", -1))),
         CrossedWord(((EMPTY_WORD, "ghost", 1), (word("Z"), "ghost2", -1)))),
    )
    assert validate_presentation(pres).violations == (
        ("relation.unknown_cell", (1, 0, "ghost")),
        ("relation.unknown_cell", (1, 1, "ghost2")),
        ("relation.unknown_generator", (1, 1, "Z")),
    )


def test_validate_reports_nontrivial_boundaries_of_mixed_relations():
    # f has the empty boundary, so its terms drop out of every boundary.
    pres = CrossedPresentation(
        ("X", "Y"),
        ("e", "f"),
        {"e": word("X"), "f": EMPTY_WORD},
        (CrossedWord(((EMPTY_WORD, "f", 1), (word("X"), "f", -1))),
         CrossedWord(((EMPTY_WORD, "e", 1), (word("Y"), "f", 1), (word("Y"), "e", -1))),
         CrossedWord(((word("X"), "e", 1), (EMPTY_WORD, "e", -1))),
         CrossedWord(((EMPTY_WORD, "e", 1), (EMPTY_WORD, "f", -1)))),
    )
    assert validate_presentation(pres).violations == (
        ("relation.nontrivial_boundary", (1, "X Y X^-1 Y^-1")),
        ("relation.nontrivial_boundary", (3, "X")),
    )


def reference_validate(pres: CrossedPresentation) -> ValidationReport:
    """The validator written plainly: set differences per word, and every
    relation's boundary multiplied out term by term with ``FreeWord``."""
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
    for cell, w in pres.cell_boundary.items():
        for gen in sorted(w.generators() - gens):
            out.append(("boundary.unknown_generator", (cell, gen)))
    for index, relation in enumerate(pres.relations):
        for term_index, (conjugator, cell, _) in enumerate(relation.terms):
            if cell not in cells:
                out.append(("relation.unknown_cell", (index, term_index, cell)))
            for gen in sorted(conjugator.generators() - gens):
                out.append(("relation.unknown_generator", (index, term_index, gen)))
    if not out:
        for index, relation in enumerate(pres.relations):
            boundary = EMPTY_WORD
            for conjugator, cell, sign in relation.terms:
                cell_word = pres.cell_boundary[cell]
                boundary = (boundary * conjugator
                            * (cell_word if sign > 0 else inverse(cell_word))
                            * inverse(conjugator))
            if not boundary.is_empty:
                out.append(("relation.nontrivial_boundary", (index, format_word(boundary))))
    return ValidationReport(tuple(out))


def mutants(pres: CrossedPresentation, rng: random.Random):
    """(kind, presentation) pairs, each ``pres`` with one seeded change:
    a conjugator letter renamed to an unknown generator, a term's cell
    renamed to an unknown cell, and an empty cell boundary made one letter.
    A kind ``pres`` has nothing to change for is left out."""
    relations = [list(r.terms) for r in pres.relations]
    letters = [(r, t, k) for r, terms in enumerate(relations)
               for t, (w, _, _) in enumerate(terms) for k in range(len(w))]
    if letters:
        r, t, k = rng.choice(letters)
        w, cell, sign = relations[r][t]
        renamed = list(w.letters)
        renamed[k] = ("ghost_gen", renamed[k][1])
        yield "conjugator", _with_term(pres, r, t, (FreeWord(tuple(renamed)), cell, sign))
    terms = [(r, t) for r, terms in enumerate(relations) for t in range(len(terms))]
    if terms:
        r, t = rng.choice(terms)
        w, _, sign = relations[r][t]
        yield "cell", _with_term(pres, r, t, (w, "ghost_cell", sign))
    empty = [c for c in pres.cells if pres.cell_boundary.get(c) == EMPTY_WORD]
    if empty and pres.generators:
        cell_boundary = dict(pres.cell_boundary)
        cell_boundary[rng.choice(empty)] = FreeWord(((pres.generators[0], 1),))
        yield "boundary", CrossedPresentation(pres.generators, pres.cells,
                                              cell_boundary, pres.relations)


def _with_term(pres: CrossedPresentation, r: int, t: int, term) -> CrossedPresentation:
    terms = list(pres.relations[r].terms)
    terms[t] = term
    relations = list(pres.relations)
    relations[r] = CrossedWord(tuple(terms))
    return CrossedPresentation(pres.generators, pres.cells, pres.cell_boundary,
                               tuple(relations))


@pytest.fixture(scope="module")
def valid_presentations(compiled_fixtures, deep_chain, padded_chain):
    cases = {**compiled_fixtures, "deep_chain": deep_chain, "padded_chain": padded_chain}
    for index, (pres, _, _) in enumerate(random_instances(3, 200)):
        cases[f"random{index}"] = pres
    return cases


def test_validate_agrees_with_the_reference_on_presentations_and_mutants(
        valid_presentations):
    kinds = set()
    for name, pres in valid_presentations.items():
        assert validate_presentation(pres) == reference_validate(pres), name
        for kind, mutant in mutants(pres, random.Random(name)):
            kinds.add(kind)
            report = validate_presentation(mutant)
            assert report == reference_validate(mutant), (name, kind)
    assert kinds == {"conjugator", "cell", "boundary"}


def test_validate_computes_a_boundary_only_for_relations_on_bounded_cells(
        monkeypatch, valid_presentations):
    # A work gate: a term whose cell has the empty boundary adds nothing to
    # the relation's boundary, so a relation without a bounded cell needs none.
    calls = []
    original = presentations._boundary_letters

    def counted(terms, cell_letters):
        calls.append(1)
        return original(terms, cell_letters)

    monkeypatch.setattr(presentations, "_boundary_letters", counted)
    total = 0
    for name, pres in valid_presentations.items():
        bounded = {cell for cell, w in pres.cell_boundary.items() if not w.is_empty}
        calls.clear()
        assert validate_presentation(pres).ok, name
        assert len(calls) == sum(any(cell in bounded for _, cell, _ in r.terms)
                                 for r in pres.relations), name
        if name.endswith("chain"):
            assert not calls, name
        total += len(calls)
    assert total  # the random presentations have bounded relations


# ---------------------------------------------------------------------------
# Free product and stabilization
# ---------------------------------------------------------------------------


def test_free_product_with_empty_is_identity():
    pres = annular_presentation()
    left = free_product(EMPTY_PRESENTATION, pres)
    # Ids get suffixed but the shape is preserved.
    assert len(left.generators) == 2 and len(left.cells) == 1
    right = free_product(pres, EMPTY_PRESENTATION)
    assert right == pres


def test_free_product_renames_second_factor():
    pres = sphere_presentation()
    product = free_product(pres, pres)
    assert product.generators == ("X", "X_2")
    assert product.cells == ("e", "e_2")
    assert product.cell_boundary["e_2"] == word("X_2")
    assert validate_presentation(product).ok


def test_free_product_bumps_suffix_on_collision():
    pres = CrossedPresentation(("X", "X_2"), (), {})
    product = free_product(pres, sphere_presentation())
    assert product.generators == ("X", "X_2", "X_3")
    assert product.cells == ("e_3",)


def test_free_product_carries_relations():
    pres = CrossedPresentation(
        ("X",),
        ("e",),
        {"e": word("X")},
        (CrossedWord(((word("X"), "e", 1), (EMPTY_WORD, "e", -1))),),
    )
    product = free_product(sphere_presentation(), pres)
    assert len(product.relations) == 1
    (conj, cell, sign), _ = product.relations[0].terms
    assert conj == word("X_2") and cell == "e_2" and sign == 1
    assert validate_presentation(product).ok


def test_stabilize_adds_fresh_pair():
    pres = sphere_presentation()
    stabilized = stabilize(pres)
    assert stabilized.generators == ("X", "X'")
    assert stabilized.cells == ("e", "e'")
    assert stabilized.cell_boundary["e'"] == word("X'")
    assert stabilized.relations == pres.relations
    twice = stabilize(stabilized)
    assert twice.generators[-1] == "X''"
    assert validate_presentation(twice).ok


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_format_crossed_word_examples():
    assert format_crossed_word(CrossedWord()) == ""
    crossed = CrossedWord(((word("X Y^-1"), "e", 1), (EMPTY_WORD, "f", -1)))
    assert format_crossed_word(crossed) == "(X Y^-1 ; e ; +) (1 ; f ; -)"


def test_presentation_round_trip():
    pres = CrossedPresentation(
        ("X", "Y"),
        ("e", "f"),
        {"e": word("X Y X^-1 Y^-1"), "f": EMPTY_WORD},
        (
            CrossedWord(((EMPTY_WORD, "e", 1), (word("X"), "f", -1))),
            CrossedWord(),
        ),
    )
    text = format_presentation_text(pres)
    assert parse_presentation_text(text) == pres
    # Canonical text is a fixed point of the round trip.
    assert format_presentation_text(parse_presentation_text(text)) == text


def test_parse_presentation_basic():
    text = """\
# a sphere with one extra trivial handle pair
pres v1
gens X Y
cells e f
bnd e = X
bnd f = Y
rel = (1 ; e ; +) (Y ; e ; -)
"""
    pres = parse_presentation_text(text)
    assert pres.generators == ("X", "Y")
    assert pres.cell_boundary["f"] == word("Y")
    assert pres.relations[0].terms[1] == (word("Y"), "e", -1)


def test_parse_presentation_errors():
    with pytest.raises(FormatError) as info:
        parse_presentation_text("pres v2\n")
    assert info.value.field == "header"

    with pytest.raises(FormatError) as info:
        parse_presentation_text("pres v1\ngens X\ncells e\nbnd f = X\n")
    assert info.value.field == "bnd" and info.value.line == 4

    with pytest.raises(FormatError) as info:
        parse_presentation_text("pres v1\ngens X\ncells e\nbnd e = X\nrel (1;e;+)\n")
    assert info.value.field == "rel"

    with pytest.raises(FormatError) as info:
        parse_presentation_text(
            "pres v1\ngens X\ncells e\nbnd e = X\nrel = (1 ; e ; *)\n"
        )
    assert "sign" in str(info.value)

    with pytest.raises(FormatError) as info:
        parse_presentation_text("pres v1\ngens X\ncells e\n")
    assert "end of input" in str(info.value)


def test_parse_crossed_word_sign_spellings():
    text = "pres v1\ngens X\ncells e\nbnd e = X\nrel = (1 ; e ; +1) (1 ; e ; -1)\n"
    pres = parse_presentation_text(text)
    assert [sign for _, _, sign in pres.relations[0].terms] == [1, -1]
