"""Seeded random instances for property tests and the selftest command.

Random presentations keep every relation boundary-trivial by construction:
each relation is a product of blocks of the form

    (w ; m ; s) (w' ; m ; -s)

where either the cell m has trivial boundary word (any w, w'), or
w' = w * bnd(m)**k, which conjugates bnd(m) to the same base element.  Cells
with trivial boundary may also contribute single terms.  This produces
constraints that genuinely prune the search without ever violating the
boundary-triviality invariant.
"""
from __future__ import annotations

import random
from typing import Iterator

from .crossed import (
    FiniteCrossedModule,
    build_central_quotient_crossed_module,
    build_conjugation_crossed_module,
    build_group_algebra_crossed_module,
)
from .groups import build_cyclic_group, build_quaternion_group, build_symmetric_group
from .presentations import (
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


def module_pool() -> tuple[tuple[str, FiniteCrossedModule], ...]:
    """Small crossed modules (base order <= 6, fiber order <= 8) for fuzzing.

    Conjugation modules have an injective boundary, group algebras an
    elementary abelian kernel K = ker(boundary); Z4 with trivial action,
    Z4 under inversion and Q8 -> V4 (nonabelian fiber) have a kernel that
    is not elementary abelian or not the whole fiber.
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


def random_instances(
    seed: int, count: int
) -> Iterator[tuple[CrossedPresentation, str, FiniteCrossedModule]]:
    """Yield ``count`` seeded (presentation, module name, module) triples."""
    rng = random.Random(seed)
    pool = module_pool()
    for _ in range(count):
        name, cm = pool[rng.randrange(len(pool))]
        yield random_presentation(rng), name, cm
