"""Seeded random instances and presentation moves, for property tests and
the selftest command.

The moves are ``free_product``, ``stabilize`` (a free product with
Pi2(D^2, S^1), the presentation ``DISK``) and ``add_cancelling_pair``.  By
the paper's main theorem the first multiplies the count by the other
factor's, the second by |E|, and the third keeps it.

Random presentations keep every relation boundary-trivial by construction:
each relation is a product of blocks of the form

    (w ; m ; s) (w' ; m ; -s)

where either the cell m has trivial boundary word (any w, w'), or
w' = w * bnd(m)**k, which conjugates bnd(m) to the same base element.  Cells
with trivial boundary may also contribute single terms.  This produces
constraints that genuinely cut the count without ever violating the
boundary-triviality invariant.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from .counting import count_homomorphisms_naive, count_linear_fastpath, count_report
from .crossed import (
    FiniteCrossedModule,
    build_central_quotient_crossed_module,
    build_conjugation_crossed_module,
    build_group_algebra_crossed_module,
)
from .groups import (
    FiniteGroup,
    build_cyclic_group,
    build_quaternion_group,
    build_symmetric_group,
)
from .presentations import (
    EMPTY_PRESENTATION,
    CrossedPresentation,
    CrossedWord,
    validate_presentation,
)
from .words import EMPTY_WORD, FreeWord, reduce_free_word

_GEN_NAMES = ("a", "b")
_CELL_NAMES = ("m", "n")
_MAX_GENS = 2
_MAX_CELLS = 2
_MAX_RELATIONS = 2


def inversion_module(n: int) -> FiniteCrossedModule:
    """Z2 acting on Z_n by inversion, with trivial boundary."""
    fiber = build_cyclic_group(n)
    return FiniteCrossedModule(build_cyclic_group(2), fiber, (0,) * n,
                               (tuple(range(n)), fiber.inverse))


def sign_module() -> FiniteCrossedModule:
    """S3 acting on Z3 through the sign character, with trivial boundary.

    The odd permutations of S3 are its three involutions; they invert Z3.
    """
    base, fiber = build_symmetric_group(3), build_cyclic_group(3)
    odd = {g for g in base.elements if g != base.identity and base.mul(g, g) == base.identity}
    return FiniteCrossedModule(base, fiber, (base.identity,) * 3, tuple(
        fiber.inverse if g in odd else tuple(fiber.elements) for g in base.elements))


def alternating_inclusion_module() -> FiniteCrossedModule:
    """A3 included in S3, acted on by conjugation.

    A3 is the set of squares of S3; fiber element i is its i-th element in
    index order.
    """
    base = build_symmetric_group(3)
    members = sorted({base.mul(g, g) for g in base.elements})
    index = {g: i for i, g in enumerate(members)}
    fiber = FiniteGroup(len(members), tuple(
        tuple(index[base.mul(a, b)] for b in members) for a in members))
    return FiniteCrossedModule(base, fiber, tuple(members), tuple(
        tuple(index[base.mul(base.mul(g, a), base.inv(g))] for a in members)
        for g in base.elements))


def module_pool() -> tuple[tuple[str, FiniteCrossedModule], ...]:
    """Small crossed modules (base order <= 6, fiber order <= 8) for fuzzing.

    Conjugation modules have an injective boundary, group algebras an
    elementary abelian kernel K = ker(boundary); Z4 with trivial action,
    Z4 under inversion and Q8 -> V4 (nonabelian fiber) have a kernel that
    is not elementary abelian or not the whole fiber.  The S3 modules cover
    both ways of counting over a nonabelian base: ``sign_s3_z3`` has K
    nontrivial, so phi is taken up to conjugation, and ``incl_a3_s3`` has K
    trivial and a proper image, so phi is taken modulo it.
    """
    return (
        ("conj_z1", build_conjugation_crossed_module(build_cyclic_group(1))),
        ("conj_z2", build_conjugation_crossed_module(build_cyclic_group(2))),
        ("conj_z3", build_conjugation_crossed_module(build_cyclic_group(3))),
        ("conj_z4", build_conjugation_crossed_module(build_cyclic_group(4))),
        ("conj_s3", build_conjugation_crossed_module(build_symmetric_group(3))),
        ("ga_z1_p2", build_group_algebra_crossed_module(build_cyclic_group(1), 2)),
        ("ga_z2_p2", build_group_algebra_crossed_module(build_cyclic_group(2), 2)),
        ("ga_z3_p2", build_group_algebra_crossed_module(build_cyclic_group(3), 2)),
        ("triv_z1_z4", FiniteCrossedModule(build_cyclic_group(1), build_cyclic_group(4),
                                           (0,) * 4, (tuple(range(4)),))),
        ("inv_z2_z4", inversion_module(4)),
        ("cq_q8_v4", build_central_quotient_crossed_module(build_quaternion_group())),
        ("sign_s3_z3", sign_module()),
        ("incl_a3_s3", alternating_inclusion_module()),
    )


def random_word(rng: random.Random, gens: tuple[str, ...], max_len: int = 3) -> FreeWord:
    if not gens:
        return EMPTY_WORD
    length = rng.randrange(max_len + 1)
    letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)]
    return reduce_free_word(letters)


def random_presentation(rng: random.Random) -> CrossedPresentation:
    gens = _GEN_NAMES[: rng.randrange(_MAX_GENS + 1)]
    cells = _CELL_NAMES[: rng.randrange(_MAX_CELLS + 1)]
    boundary = {cell: random_word(rng, gens) for cell in cells}

    relations = []
    if cells:
        for _ in range(rng.randrange(_MAX_RELATIONS + 1)):
            terms = []
            for _ in range(rng.randrange(1, 3)):
                cell = rng.choice(cells)
                w = random_word(rng, gens, 2)
                sign = rng.choice((1, -1))
                if boundary[cell].is_empty and rng.random() < 0.4:
                    terms.append((w, cell, sign))
                    continue
                if boundary[cell].is_empty:
                    partner = random_word(rng, gens, 2)
                else:
                    k = rng.randrange(3)
                    partner = w
                    for _ in range(k):
                        partner = partner * boundary[cell]
                terms.append((w, cell, sign))
                terms.append((partner, cell, -sign))
            relations.append(CrossedWord(tuple(terms)))
    pres = CrossedPresentation(gens, cells, boundary, tuple(relations))
    report = validate_presentation(pres)
    assert report.ok, report.violations
    return pres


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


def add_cancelling_pair(pres: CrossedPresentation, cell: str) -> CrossedPresentation:
    """Add a fresh cell c with the boundary of ``cell`` and the relation
    (1 ; c ; +) (1 ; cell ; -): a 2-handle and a 3-handle that cancel.

    c is in one term, so the relation fixes psi(c) = psi(cell), and every
    count stays the same.
    """
    fresh = cell + "'"
    while fresh in pres.cells or fresh in pres.generators:
        fresh += "'"
    cell_boundary = dict(pres.cell_boundary)
    cell_boundary[fresh] = pres.cell_boundary[cell]
    relation = CrossedWord(((EMPTY_WORD, fresh, 1), (EMPTY_WORD, cell, -1)))
    return CrossedPresentation(pres.generators, pres.cells + (fresh,), cell_boundary,
                               pres.relations + (relation,))


# Pi2(D^2, S^1): one generator and one cell bounding it.  A free product with
# it scales every count by |E| and keeps the invariant.
DISK = stabilize(EMPTY_PRESENTATION)


def engine_mismatch(
    index: int, pres: CrossedPresentation, cm: FiniteCrossedModule
) -> dict[str, int | Fraction] | None:
    """The seeded engine check on one instance: the counts by engine if they
    disagree, else None.

    The engine ``count_report`` picks and the linear engine are checked
    against the naive oracle.  The linear engine also counts two moves that
    must change no count: ``add_cancelling_pair`` on cell ``index`` (mod the
    number of cells), for an instance with a cell, and ``free_product`` with
    ``DISK``, whose count is divided by |E| exactly.  Last, its count of the
    free product of the instance with itself, ``square``, must be the
    square of the naive count: the two copies are counted as separate parts.
    """
    counts = {
        "report": count_report(pres, cm).count,
        "linear": count_linear_fastpath(pres, cm),
        "naive": count_homomorphisms_naive(pres, cm),
        "disk linear": Fraction(count_linear_fastpath(free_product(pres, DISK), cm),
                                cm.fiber.order),
    }
    if pres.cells:
        moved = add_cancelling_pair(pres, pres.cells[index % len(pres.cells)])
        counts["moved linear"] = count_linear_fastpath(moved, cm)
    agree = len(set(counts.values())) == 1
    counts["square"] = count_linear_fastpath(free_product(pres, pres), cm)
    return None if agree and counts["square"] == counts["naive"] ** 2 else counts


def random_instances(
    seed: int, count: int
) -> Iterator[tuple[CrossedPresentation, str, FiniteCrossedModule]]:
    """Yield ``count`` seeded (presentation, module name, module) triples."""
    rng = random.Random(seed)
    pool = module_pool()
    for _ in range(count):
        name, cm = pool[rng.randrange(len(pool))]
        yield random_presentation(rng), name, cm
