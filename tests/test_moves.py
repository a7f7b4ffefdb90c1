"""Moves that cannot change a count leave every engine's count unchanged.

Renaming ids and reordering generators or cells change nothing but labels.
The Nielsen moves X -> X Y and X -> X^-1 are automorphisms a of the free
base group, so phi -> phi . a is a bijection between the homomorphisms of
a presentation and those of its image.  The change of cell basis e -> e f
makes psi -> (psi(e) psi(f), psi(f)) such a bijection on cell values, and
the Peiffer swap (u;a)(v;b) = (u bnd(a) u^-1 v; b)(u;a) (Brown-Higgins-
Sivera, *Nonabelian Algebraic Topology*) holds in every crossed module, so
it changes no relation's value.  A cancelling pair, a fresh copy c of a
cell e and the relation c e^-1, fixes psi(c) = psi(e).  These checks come
from outside the engines' shared conventions: each engine must give the
moved presentation the count it gave the original.
"""
from __future__ import annotations

import random

import pytest

from xmod.counting import (
    count_homomorphisms_naive,
    count_linear_fastpath,
    count_report,
)
from xmod.errors import NaiveCapExceeded
from xmod.fixtures import FIXTURE_NAMES
from xmod.fuzz import add_cancelling_pair, module_pool, random_presentation
from xmod.presentations import CrossedPresentation, CrossedWord, validate_presentation
from xmod.words import FreeWord, _inverse, reduce_free_word

SEED = 11
COUNT = 64
NAIVE_CAP = 10**4


def substitute(pres, images, generators=None, cells=None, cell_names=None):
    """``pres`` with each generator letter replaced by its image word.

    Every boundary and every conjugator is rewritten and freely reduced.
    ``cell_names`` renames cells; ``generators`` and ``cells`` give the new
    declaration orders (default: the old ones, with cells renamed).
    """
    cell_names = cell_names or {c: c for c in pres.cells}

    def image(word: FreeWord) -> FreeWord:
        letters = []
        for gen, sign in word.letters:
            target = images.get(gen, FreeWord(((gen, 1),)))
            letters.extend(target.letters if sign > 0 else _inverse(target.letters))
        return reduce_free_word(letters)

    moved = CrossedPresentation(
        generators if generators is not None else pres.generators,
        cells if cells is not None else tuple(cell_names[c] for c in pres.cells),
        {cell_names[c]: image(w) for c, w in pres.cell_boundary.items()},
        tuple(
            CrossedWord(tuple((image(w), cell_names[c], s) for w, c, s in rel.terms))
            for rel in pres.relations
        ),
    )
    assert validate_presentation(moved).ok
    return moved


def letter(gen: str, sign: int = 1) -> FreeWord:
    return FreeWord(((gen, sign),))


def rename_ids(pres, rng):
    return substitute(
        pres,
        {g: letter(f"G{g}") for g in pres.generators},
        generators=tuple(f"G{g}" for g in pres.generators),
        cell_names={c: f"C{c}" for c in pres.cells},
    )


def permute(pres, rng):
    gens, cells = list(pres.generators), list(pres.cells)
    rng.shuffle(gens)
    rng.shuffle(cells)
    return substitute(pres, {}, generators=tuple(gens), cells=tuple(cells))


def nielsen_product(pres, rng):
    x, y = rng.sample(pres.generators, 2)
    return substitute(pres, {x: reduce_free_word([(x, 1), (y, 1)])})


def nielsen_inverse(pres, rng):
    x = rng.choice(pres.generators)
    return substitute(pres, {x: letter(x, -1)})


def cell_basis_change(pres, rng):
    """Cell e becomes e f: bnd(e) -> bnd(e) bnd(f), and e = (e f) f^-1 in relations."""
    if len(pres.cells) < 2:
        return None
    e, f = rng.sample(pres.cells, 2)

    def rewrite(w, cell, sign):
        if cell != e:
            return [(w, cell, sign)]
        return [(w, e, 1), (w, f, -1)] if sign > 0 else [(w, f, 1), (w, e, -1)]

    boundary = dict(pres.cell_boundary)
    boundary[e] = boundary[e] * boundary[f]
    moved = CrossedPresentation(
        pres.generators, pres.cells, boundary,
        tuple(CrossedWord(tuple(t for term in rel.terms for t in rewrite(*term)))
              for rel in pres.relations),
    )
    assert validate_presentation(moved).ok
    return moved


def peiffer_swap(pres, rng):
    """(u; a; s)(v; b; t) -> (u bnd(a)^s u^-1 v; b; t)(u; a; s) at one place."""
    places = [(r, i) for r, rel in enumerate(pres.relations)
              for i in range(len(rel.terms) - 1)]
    if not places:
        return None
    r, i = rng.choice(places)
    terms = list(pres.relations[r].terms)
    (u, a, s), (v, b, t) = terms[i], terms[i + 1]
    bnd = pres.cell_boundary[a].letters
    moved_v = reduce_free_word(u.letters + (bnd if s > 0 else _inverse(bnd))
                               + _inverse(u.letters) + v.letters)
    terms[i:i + 2] = [(moved_v, b, t), (u, a, s)]
    relations = list(pres.relations)
    relations[r] = CrossedWord(tuple(terms))
    moved = CrossedPresentation(pres.generators, pres.cells, pres.cell_boundary,
                                tuple(relations))
    assert validate_presentation(moved).ok
    return moved


def cancelling_pair(pres, rng):
    if not pres.cells:
        return None
    moved = add_cancelling_pair(pres, rng.choice(pres.cells))
    assert validate_presentation(moved).ok
    return moved


def counts(pres, cm):
    return {
        "report": count_report(pres, cm).count,
        "linear": count_linear_fastpath(pres, cm),
        "naive": count_homomorphisms_naive(pres, cm),
    }


@pytest.mark.parametrize("move, min_gens", [
    (rename_ids, 0), (permute, 0), (nielsen_product, 2), (nielsen_inverse, 1),
    (cell_basis_change, 0), (peiffer_swap, 0), (cancelling_pair, 0),
])
def test_moves_keep_every_count(move, min_gens):
    # COUNT presentations with at least min_gens generators on which the
    # move applies, dealt to the modules of the pool in turn.
    rng = random.Random(SEED)
    pool = module_pool()
    done = 0
    while done < COUNT:
        pres = random_presentation(rng)
        if len(pres.generators) < min_gens:
            continue
        moved = move(pres, rng)
        if moved is None:
            continue
        module_name, cm = pool[done % len(pool)]
        done += 1
        before = counts(pres, cm)
        assert len(set(before.values())) == 1, (done, module_name, before)
        assert counts(moved, cm) == before, (done, module_name)


def test_cancelling_pair_keeps_fixture_counts(compiled_fixtures):
    # A cancelling pair on each cell of each fixture, for every module of
    # the pool: the engine the module picks, the linear engine, and the
    # naive oracle where the moved presentation fits its cap, count what
    # they counted before.
    for fixture in FIXTURE_NAMES:
        pres = compiled_fixtures[fixture]
        for name, cm in module_pool():
            before = count_linear_fastpath(pres, cm)
            for cell in pres.cells:
                moved = add_cancelling_pair(pres, cell)
                where = (fixture, cell, name)
                assert count_report(moved, cm).count == before, where
                assert count_linear_fastpath(moved, cm) == before, where
                try:
                    naive = count_homomorphisms_naive(moved, cm, work_cap=NAIVE_CAP)
                except NaiveCapExceeded:
                    continue
                assert naive == before, where
