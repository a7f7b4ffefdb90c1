"""The generator-reduced axiom checks against the exhaustive listing.

``validate_crossed_module`` and ``group_violations`` run each axiom over
greedy generating sets first, and over whole groups only when that run finds
a witness.  ``exhaustive_violations`` below is the listing as it was before
the reduction, kept here as the oracle: on every corruption the validator
must return exactly its witnesses, in its order, on byte rows and on tuple
rows alike.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest

from xmod import crossed, groups
from xmod.crossed import (
    FiniteCrossedModule,
    build_conjugation_crossed_module,
    build_group_algebra_crossed_module,
    validate_crossed_module,
)
from xmod.errors import WorkCapExceeded
from xmod.fuzz import module_pool
from xmod.groups import FiniteGroup, build_cyclic_group, build_symmetric_group

from test_crossed_modules import LOOP5


def table_violations(group: FiniteGroup, prefix: str) -> list:
    n, table = group.order, group.product
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    out.append((prefix + "associativity", (a, b, c)))
    e = next((e for e in range(n)
              if all(table[e][x] == x == table[x][e] for x in range(n))), None)
    if e is None:
        return out + [(prefix + "identity", ())]
    for a in range(n):
        if not any(table[a][b] == e == table[b][a] for b in range(n)):
            out.append((prefix + "inverse", (a,)))
    return out


def exhaustive_violations(cm: FiniteCrossedModule) -> list:
    out = table_violations(cm.base, "base.") + table_violations(cm.fiber, "fiber.")
    if out:
        return out
    base, fiber = cm.base, cm.fiber
    nG, nE = base.order, fiber.order
    bdy, act, eG = cm.boundary, cm.action, base.identity
    for e in range(nE):
        for f in range(nE):
            if bdy[fiber.mul(e, f)] != base.mul(bdy[e], bdy[f]):
                out.append(("boundary.morphism", (e, f)))
    for e in range(nE):
        if act[eG][e] != e:
            out.append(("action.identity", (e,)))
    for g in range(nG):
        for h in range(nG):
            for e in range(nE):
                if act[base.mul(g, h)][e] != act[g][act[h][e]]:
                    out.append(("action.composition", (g, h, e)))
    for g in range(nG):
        for e in range(nE):
            for f in range(nE):
                if act[g][fiber.mul(e, f)] != fiber.mul(act[g][e], act[g][f]):
                    out.append(("action.morphism", (g, e, f)))
    for g in range(nG):
        for e in range(nE):
            if bdy[act[g][e]] != base.mul(g, base.mul(bdy[e], base.inv(g))):
                out.append(("equivariance", (g, e)))
    for e in range(nE):
        for f in range(nE):
            if act[bdy[e]][f] != fiber.mul(e, fiber.mul(f, fiber.inv(e))):
                out.append(("conjugation", (e, f)))
    return out


def module(base, fiber, boundary, action) -> FiniteCrossedModule:
    return FiniteCrossedModule(FiniteGroup(len(base), tuple(map(tuple, base))),
                               FiniteGroup(len(fiber), tuple(map(tuple, fiber))),
                               tuple(boundary), tuple(map(tuple, action)))


Z2 = build_cyclic_group(2).product
Z3 = build_cyclic_group(3).product
S3 = build_symmetric_group(3).product
V4 = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
A3_ROTATION = 3  # (1, 2, 0) in the lexicographic order of S3

# Each module breaks exactly the named axiom; an action that moves the
# identity breaks conjugation at e = 1 as well, since bdy(1) |> f = f.
ONE_AXIOM_BROKEN = {
    "boundary.morphism": module(Z2, Z2, (1, 1), ((0, 1), (0, 1))),
    "action.composition": module(Z3, Z3, (0, 0, 0),
                                 ((0, 1, 2), (0, 2, 1), (0, 1, 2))),
    "action.morphism": module(Z2, Z3, (0, 0, 0), ((0, 1, 2), (1, 0, 2))),
    # Z3 onto A3 inside S3, acted on trivially: not equivariant.
    "equivariance": module(S3, Z3, (0, A3_ROTATION, S3[A3_ROTATION][A3_ROTATION]),
                           [(0, 1, 2)] * 6),
    # V4 onto Z2 by the first coordinate, Z2 acting by (x, y) -> (x, x + y):
    # a pre-crossed module that is not crossed.
    "conjugation": module(Z2, V4, (0, 1, 0, 1), ((0, 1, 2, 3), (0, 3, 2, 1))),
}
IDENTITY_MOVED = module(((0,),), Z2, (0, 0), ((0, 0),))


def corpus() -> list[tuple[str, FiniteCrossedModule]]:
    """Small modules, the one-axiom violators and modules over a non-group loop.

    The one-element module is left out: it has no entry to corrupt.
    """
    loop = [list(row) for row in LOOP5]
    out = [(name, cm) for name, cm in module_pool() if cm.fiber.order > 1]
    out += [("conj_v4", build_conjugation_crossed_module(FiniteGroup(4, V4))),
            ("ga_z1_p3", build_group_algebra_crossed_module(build_cyclic_group(1), 3)),
            ("identity_moved", IDENTITY_MOVED)]
    out += [(f"only_{axiom}", cm) for axiom, cm in ONE_AXIOM_BROKEN.items()]
    out += [("loop_fiber", module(Z2, loop, (0,) * 5, [range(5)] * 2)),
            ("loop_base", module(loop, Z2, (0, 0), [range(2)] * 5))]
    return out


def corrupt(cm: FiniteCrossedModule, rng: random.Random, entries: int):
    """A copy of ``cm`` with ``entries`` random table entries changed."""
    tables = {"base": [list(r) for r in cm.base.product],
              "fiber": [list(r) for r in cm.fiber.product],
              "boundary": [list(cm.boundary)],
              "action": [list(r) for r in cm.action]}
    bounds = {"base": cm.base.order, "fiber": cm.fiber.order,
              "boundary": cm.base.order, "action": cm.fiber.order}
    for _ in range(entries):
        kind = rng.choice([k for k, bound in bounds.items() if bound > 1])
        row = rng.choice(tables[kind])
        i = rng.randrange(len(row))
        row[i] = rng.choice([v for v in range(bounds[kind]) if v != row[i]])
    return module(tables["base"], tables["fiber"], tables["boundary"][0], tables["action"])


def each_row_type(monkeypatch):
    """Set ``BYTE_ROWS_FROM`` to 1, 5 and 257 in turn: byte rows for every
    order up to 256; byte-row module checks after tuple-row group checks of
    orders below 5; tuple rows for every order."""
    for threshold in (1, 5, 257):
        monkeypatch.setattr(groups, "BYTE_ROWS_FROM", threshold)
        yield


def first_axiom(violations: list) -> str | None:
    return violations[0][0] if violations else None


def assert_first_witness(first: list, expected: list) -> None:
    """A first-only report holds one witness of the listing ``expected``,
    of the listing's first axiom, or none if the listing is empty."""
    assert len(first) == min(len(expected), 1)
    if first:
        assert first[0][0] == expected[0][0] and first[0] in expected


def reduced_first_axiom(cm: FiniteCrossedModule) -> str | None:
    """The first axiom the module check names over greedy generating sets."""
    return first_axiom(crossed._module_violations(
        cm, cm.base.generators, cm.fiber.generators, None))


@pytest.mark.parametrize("axiom", sorted(ONE_AXIOM_BROKEN))
def test_each_reduced_check_catches_its_axiom_alone(axiom, monkeypatch):
    cm = ONE_AXIOM_BROKEN[axiom]
    expected = exhaustive_violations(cm)
    assert {name for name, _ in expected} == {axiom}
    for _ in each_row_type(monkeypatch):
        assert list(validate_crossed_module(cm).violations) == expected
        assert reduced_first_axiom(cm) == axiom


def test_first_failing_reduced_check_names_the_first_witness():
    # An action that moves the identity also breaks conjugation; the reduced
    # checks run in listing order, so action.identity is named first.
    assert first_axiom(exhaustive_violations(IDENTITY_MOVED)) == "action.identity"
    assert reduced_first_axiom(IDENTITY_MOVED) == "action.identity"


def test_fast_path_equals_exhaustive_listing_on_corruptions(monkeypatch):
    for _ in each_row_type(monkeypatch):
        rng = random.Random(2024)
        pool = corpus()
        outcomes = {"valid": 0, "groups": 0, "crossed": 0}
        corrupted = 0
        for _ in range(1200):
            name, cm = rng.choice(pool)
            broken = cm
            if rng.random() < 0.9:
                broken = corrupt(cm, rng, rng.randint(1, 3))
                corrupted += 1
            expected = exhaustive_violations(broken)
            assert list(validate_crossed_module(broken).violations) == expected, name
            first = validate_crossed_module(broken, first_only=True).violations
            assert_first_witness(list(first), expected)
            if any(axiom.startswith(("base.", "fiber.")) for axiom, _ in expected):
                outcomes["groups"] += 1
                continue
            # Both tables are groups: the first reduced check to fail names the
            # axiom of the first witness.
            assert reduced_first_axiom(broken) == first_axiom(expected), name
            outcomes["crossed" if expected else "valid"] += 1
        assert corrupted >= 1000
        assert all(count >= 50 for count in outcomes.values()), outcomes


def test_group_fast_path_equals_exhaustive_listing(monkeypatch):
    tables = [FiniteGroup(5, LOOP5), FiniteGroup(4, V4), build_symmetric_group(3),
              build_symmetric_group(4), build_cyclic_group(8)]
    for _ in each_row_type(monkeypatch):
        rng = random.Random(7)
        for _ in range(300):
            group = rng.choice(tables)
            rows = [list(row) for row in group.product]
            for _ in range(rng.randint(0, 3)):
                row = rng.choice(rows)
                i = rng.randrange(len(row))
                row[i] = rng.choice([v for v in range(group.order) if v != row[i]])
            table = FiniteGroup(group.order, tuple(map(tuple, rows)))
            expected = table_violations(table, "t.")
            assert groups.group_violations(table, "t.") == expected
            assert_first_witness(groups.group_violations(table, "t.", first_only=True),
                                 expected)


def test_builders_refuse_at_the_listings_first_witness(monkeypatch):
    # The builders name the first witness of group_violations(first_only=True),
    # as a module file read for counting is refused: a witness the listing
    # holds, of the axiom it names first.  Seeded corruptions of groups on
    # both sides of the row-type threshold, and two associative tables
    # without a generating set (constant, and x y = x), which are listed in
    # full and fail at the identity.  A table without a generating set is
    # refused at exactly the listing's first witness.
    tables = [FiniteGroup(5, LOOP5), FiniteGroup(4, V4), build_symmetric_group(3),
              build_symmetric_group(4), build_cyclic_group(8), build_cyclic_group(24)]
    unfixed = [FiniteGroup(3, ((0,) * 3,) * 3),
               FiniteGroup(3, tuple((a,) * 3 for a in range(3)))]
    for _ in each_row_type(monkeypatch):
        rng = random.Random(11)
        named = Counter()
        for trial in range(300):
            group = rng.choice(tables)
            rows = [list(row) for row in group.product]
            for _ in range(rng.randint(0, 3)):
                row = rng.choice(rows)
                i = rng.randrange(len(row))
                row[i] = rng.choice([v for v in range(group.order) if v != row[i]])
            table = unfixed[trial % 2] if trial < 2 else FiniteGroup(
                group.order, tuple(map(tuple, rows)))
            first = groups.group_violations(table, first_only=True)
            listing = groups.group_violations(table)
            assert_first_witness(first, listing)
            if table.generators is None:
                assert first == listing[:1]
            if not first:
                assert build_conjugation_crossed_module(table).base == table
                continue
            (axiom, witness), = first
            named[axiom] += 1
            with pytest.raises(ValueError) as info:
                build_conjugation_crossed_module(table)
            assert str(info.value) == f"input table violates {axiom} at witness {witness}"
        assert named["associativity"] > 150 and named["identity"] >= 2


@pytest.mark.parametrize("order", [groups.BYTE_ROWS_FROM - 1, groups.BYTE_ROWS_FROM,
                                   256, 257])
def test_row_types_meet_at_their_bounds(order):
    # Tuple rows below BYTE_ROWS_FROM and above 256, byte rows from it to 256.
    cm = build_conjugation_crossed_module(build_cyclic_group(order))
    assert validate_crossed_module(cm).ok
    if order < 256:
        return
    # One fiber-table entry changed breaks associativity, and the first
    # witness over generating sets is refused without the listing.
    fiber = [list(row) for row in cm.fiber.product]
    fiber[2][3] = 4
    broken = module(cm.base.product, fiber, cm.boundary, cm.action)
    (first,) = validate_crossed_module(broken, work_cap=1, first_only=True).violations
    (a, b, c), t = first[1], fiber
    assert first[0] == "fiber.associativity" and t[t[a][b]][c] != t[a][t[b][c]]


@pytest.mark.parametrize("group", [build_cyclic_group(n) for n in (1, 2, 7, 64)]
                         + [build_symmetric_group(n) for n in (3, 4, 5)]
                         + [FiniteGroup(4, V4)], ids=lambda g: str(g.order))
def test_greedy_generators_generate_within_the_log_bound(group):
    gens = group.generators
    assert 1 <= len(gens) <= group.order.bit_length()
    reached, frontier = set(gens), list(gens)
    while frontier:
        frontier = [group.mul(x, s) for x in frontier for s in gens
                    if group.mul(x, s) not in reached]
        reached.update(frontier)
    assert reached == set(group.elements)


def test_greedy_generators_refuse_a_table_that_needs_too_many():
    # x y = x: right multiplication reaches nothing new, so every element
    # would be a generator, more than any group of order 3 needs.
    left_zero = FiniteGroup(3, tuple((a,) * 3 for a in range(3)))
    assert left_zero.generators is None
    assert ("identity", ()) in groups.group_violations(left_zero)


def count_full_runs(monkeypatch, module, name, domain):
    """The calls of ``module.name`` whose quantifier domain is a whole group."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        if domain(*args):
            calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_only_a_failed_check_enters_the_exhaustive_loops(monkeypatch):
    group_listings = count_full_runs(
        monkeypatch, groups, "_table_violations",
        lambda group, prefix, middle, budget: middle == group.elements)
    module_listings = count_full_runs(
        monkeypatch, crossed, "_module_violations",
        lambda cm, gens_G, gens_E, budget: gens_E == cm.fiber.elements)
    valid = [cm for _, cm in module_pool()]
    valid.append(build_group_algebra_crossed_module(build_cyclic_group(4), 3))
    for cm in valid:
        assert validate_crossed_module(cm).ok
    assert group_listings == [] and module_listings == []

    conj = build_conjugation_crossed_module(build_symmetric_group(3))
    action = [list(row) for row in conj.action]
    action[1][2] = action[1][3]
    assert not validate_crossed_module(module(S3, S3, conj.boundary, action)).ok
    assert group_listings == [] and len(module_listings) == 1

    fiber = [list(row) for row in S3]
    fiber[4][4] = 0
    assert not validate_crossed_module(module(S3, fiber, conj.boundary, conj.action)).ok
    assert len(group_listings) == 1 and len(module_listings) == 1


def test_listing_spends_one_step_per_tuple():
    conj = build_conjugation_crossed_module(build_symmetric_group(3))
    action = [list(row) for row in conj.action]
    action[1][2] = action[1][3]
    # That module and one breaking each axiom; all their tables are groups.
    broken_modules = [module(S3, S3, conj.boundary, action), IDENTITY_MOVED,
                      *ONE_AXIOM_BROKEN.values()]
    for broken in broken_modules:
        nG, nE = broken.base.order, broken.fiber.order
        # boundary, identity, composition, morphism, equivariance, conjugation
        steps = nE * nE + nE + nG * nG * nE + nG * nE * nE + nG * nE + nE * nE
        assert validate_crossed_module(broken, work_cap=steps) == \
            validate_crossed_module(broken)
        with pytest.raises(WorkCapExceeded):
            validate_crossed_module(broken, work_cap=steps - 1)

    n = 6
    fiber = [list(row) for row in S3]
    fiber[4][4] = 0
    broken = module(S3, fiber, conj.boundary, conj.action)
    # Associativity, then inverses.
    assert not validate_crossed_module(broken, work_cap=n ** 3 + n * n).ok
    with pytest.raises(WorkCapExceeded):
        validate_crossed_module(broken, work_cap=n ** 3 + n * n - 1)


def test_a_valid_module_spends_nothing():
    cm = build_group_algebra_crossed_module(build_cyclic_group(4), 3)
    assert validate_crossed_module(cm, work_cap=1).ok
