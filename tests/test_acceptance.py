"""Acceptance battery.

One test per criterion; each prints a single PASS line with its elapsed
time and asserts both the exact expected values and the runtime budget.
Cross-checks that need independence from the counting engines are done
with direct enumeration loops written here, against the module tables
only.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from xmod.battery import standard_battery
from xmod.counting import (
    count_homomorphisms,
    count_homomorphisms_naive,
    count_linear_fastpath,
    invariant,
)
from xmod.crossed import FiniteCrossedModule, validate_crossed_module
from xmod.fuzz import random_instances, random_presentation
from xmod.groups import FiniteGroup
from xmod.presentations import free_product, stabilize
from xmod.words import parse_word

SEED = 20240811


class Budget:
    """Context manager asserting a wall-clock budget and printing one line."""

    def __init__(self, criterion: int, label: str, seconds: float):
        self.criterion = criterion
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"criterion {self.criterion} FAIL: {self.label}")
            return False
        print(
            f"criterion {self.criterion} PASS: {self.label} "
            f"({elapsed:.2f}s < {self.seconds:g}s)"
        )
        assert elapsed < self.seconds, (
            f"criterion {self.criterion} exceeded its {self.seconds:g}s budget "
            f"({elapsed:.2f}s)"
        )
        return False


def kernel_order(cm: FiniteCrossedModule) -> int:
    identity = cm.base.identity
    return sum(1 for e in range(cm.fiber.order) if cm.boundary[e] == identity)


def is_abelian_identity_boundary(cm: FiniteCrossedModule) -> bool:
    if kernel_order(cm) != cm.fiber.order:
        return False
    fiber = cm.fiber
    return all(
        fiber.mul(e, f) == fiber.mul(f, e)
        for e in range(fiber.order)
        for f in range(fiber.order)
    )


def fixture_invariant(pres, cm) -> Fraction:
    return invariant(pres, cm, pres.one_handles)


# ---------------------------------------------------------------------------
# 1. Unknotted sphere: all four movies of the sphere give #G/#E.
# ---------------------------------------------------------------------------


def test_criterion_01_unknotted_sphere(compiled_fixtures, battery):
    for name in ("trivial1", "trivial2", "trivial3", "trivial4"):
        with Budget(1, f"unknotted sphere {name} = #G/#E", 1.0):
            pres = compiled_fixtures[name]
            for module_name, cm in battery:
                expected = Fraction(cm.base.order, cm.fiber.order)
                got = fixture_invariant(pres, cm)
                assert got == expected, (name, module_name, got, expected)


# ---------------------------------------------------------------------------
# 2. Two unknotted spheres: (#G/#E) squared.
# ---------------------------------------------------------------------------


def test_criterion_02_two_spheres(compiled_fixtures, battery):
    with Budget(2, "two spheres = (#G/#E)^2", 1.0):
        pres = compiled_fixtures["two_spheres"]
        for module_name, cm in battery:
            expected = Fraction(cm.base.order, cm.fiber.order) ** 2
            got = fixture_invariant(pres, cm)
            assert got == expected, (module_name, got, expected)


# ---------------------------------------------------------------------------
# 3. Two unknotted tori: closed forms per module family.
# ---------------------------------------------------------------------------


def test_criterion_03_two_tori(compiled_fixtures, battery):
    with Budget(3, "two tori closed forms", 5.0):
        pres = compiled_fixtures["two_tori"]
        for module_name, cm in battery:
            nG, nE = cm.base.order, cm.fiber.order
            if is_abelian_identity_boundary(cm):
                expected = Fraction(nG**2 * nE**2)
            else:
                expected = Fraction(nG * kernel_order(cm) ** 2, nE) ** 2
            got = fixture_invariant(pres, cm)
            assert got == expected, (module_name, got, expected)


# ---------------------------------------------------------------------------
# 4. Spun Hopf Link is knotted over the mod-2 group algebra of Z2.
# ---------------------------------------------------------------------------


def count_value1(cm: FiniteCrossedModule) -> int:
    """Direct enumeration of f^-1 (X |> f) h^-1 (Y |> h) = 1 over G^2 x E^2."""
    base, fiber = cm.base, cm.fiber
    total = 0
    for X in base.elements:
        for Y in base.elements:
            for f in fiber.elements:
                for h in fiber.elements:
                    acc = fiber.mul(fiber.inv(f), cm.act(X, f))
                    acc = fiber.mul(acc, fiber.inv(h))
                    acc = fiber.mul(acc, cm.act(Y, h))
                    if acc == fiber.identity:
                        total += 1
    return total


def count_value2(cm: FiniteCrossedModule) -> int:
    """Direct enumeration of h g^-1 (Y |> g) (X |> h^-1) = 1 over G^2 x E^2."""
    base, fiber = cm.base, cm.fiber
    total = 0
    for X in base.elements:
        for Y in base.elements:
            for g in fiber.elements:
                for h in fiber.elements:
                    acc = fiber.mul(h, fiber.inv(g))
                    acc = fiber.mul(acc, cm.act(Y, g))
                    acc = fiber.mul(acc, cm.act(X, fiber.inv(h)))
                    if acc == fiber.identity:
                        total += 1
    return total


def test_criterion_04_spun_hopf_knotted(compiled_fixtures, battery_by_name):
    with Budget(4, "spun Hopf link invariant 40 differs from tori 64", 10.0):
        cm = battery_by_name["ga_z2_p2"]
        pres = compiled_fixtures["spun_hopf"]
        backtracking = count_homomorphisms(pres, cm)
        naive = count_homomorphisms_naive(pres, cm)
        assert backtracking == naive == 640
        got = Fraction(naive, cm.fiber.order**pres.one_handles)
        direct = count_value1(cm)
        assert got == Fraction(direct) == 40
        tori = fixture_invariant(compiled_fixtures["two_tori"], cm)
        assert tori == 64 and got != tori


# ---------------------------------------------------------------------------
# 5. Spun Hopf cross-check: the two published relation equations agree.
# ---------------------------------------------------------------------------


def test_criterion_05_spun_hopf_equations_agree(battery):
    with Budget(5, "hopf relation forms value1 = value2", 10.0):
        checked = 0
        for module_name, cm in battery:
            if not is_abelian_identity_boundary(cm):
                continue
            assert count_value1(cm) == count_value2(cm), module_name
            checked += 1
        assert checked == 2


# ---------------------------------------------------------------------------
# 6. Spun Trefoil: presentation shape and knottedness over Z3 / F2[Z3].
# ---------------------------------------------------------------------------


def trefoil_relation_count(cm: FiniteCrossedModule) -> int:
    """#{(X, f): (X |> f)(X^2 |> f^-1)(X^3 |> f) = 1}, brute force."""
    base, fiber = cm.base, cm.fiber
    hits = 0
    for x in base.elements:
        x2 = base.mul(x, x)
        x3 = base.mul(x2, x)
        for f in fiber.elements:
            acc = cm.act(x, f)
            acc = fiber.mul(acc, cm.act(x2, fiber.inv(f)))
            acc = fiber.mul(acc, cm.act(x3, f))
            if acc == fiber.identity:
                hits += 1
    return hits


def test_criterion_06_spun_trefoil_knotted(compiled_fixtures, battery_by_name):
    with Budget(6, "spun trefoil invariant 9/8 differs from sphere 3/8", 10.0):
        pres = compiled_fixtures["spun_trefoil"]
        # Shape: two generators, boundary X A^-1 with A = XYXYX^-1Y^-1X^-1,
        # trivial boundary on the second cell, one relation on it alone.
        assert len(pres.generators) == 2
        X, Y = pres.generators
        A = parse_word(f"{X} {Y} {X} {Y} {X}^-1 {Y}^-1 {X}^-1")
        first, second = pres.cells
        assert pres.cell_boundary[first] == parse_word(X) * A.inverse()
        assert pres.cell_boundary[second].is_empty
        assert len(pres.relations) == 1
        assert pres.relations[0].cells() == {second}

        cm = battery_by_name["ga_z3_p2"]
        direct = Fraction(trefoil_relation_count(cm), cm.fiber.order)
        got = fixture_invariant(pres, cm)
        assert got == direct == Fraction(9, 8)
        sphere = Fraction(cm.base.order, cm.fiber.order)
        assert sphere == Fraction(3, 8) and got != sphere


# ---------------------------------------------------------------------------
# 7. Free products multiply hom counts.
# ---------------------------------------------------------------------------


def test_criterion_07_free_product_multiplicativity(battery):
    with Budget(7, "200 free-product pairs multiply counts", 60.0):
        rng = random.Random(SEED)
        for _ in range(200):
            p1 = random_presentation(rng)
            p2 = random_presentation(rng)
            product = free_product(p1, p2)
            for module_name, cm in battery:
                lhs = count_homomorphisms(product, cm)
                rhs = count_homomorphisms(p1, cm) * count_homomorphisms(p2, cm)
                assert lhs == rhs, (module_name, p1, p2)


# ---------------------------------------------------------------------------
# 8. Stabilization multiplies the count by #E and fixes the invariant.
# ---------------------------------------------------------------------------


def test_criterion_08_stabilization_invariance(battery):
    with Budget(8, "200 pairs: stabilization scales counts by #E", 60.0):
        rng = random.Random(SEED)
        for _ in range(200):
            for pres in (random_presentation(rng), random_presentation(rng)):
                stabilized = stabilize(pres)
                handles = len(pres.generators)
                for module_name, cm in battery:
                    count = count_homomorphisms(pres, cm)
                    scaled = count_homomorphisms(stabilized, cm)
                    assert scaled == count * cm.fiber.order, module_name
                    assert invariant(stabilized, cm, handles + 1) == invariant(
                        pres, cm, handles
                    ), module_name


# ---------------------------------------------------------------------------
# 9. Engine agreement on random instances.
# ---------------------------------------------------------------------------


def test_criterion_09_oracle_equivalence():
    with Budget(9, "500 instances: backtracking = linear = naive", 120.0):
        for pres, module_name, cm in random_instances(SEED, 500):
            slow = count_homomorphisms_naive(pres, cm)
            assert count_homomorphisms(pres, cm) == slow, module_name
            assert count_linear_fastpath(pres, cm) == slow, module_name


# ---------------------------------------------------------------------------
# 10. Axiom suite: battery accepted, corruptions rejected with witnesses.
# ---------------------------------------------------------------------------


def corrupt_single_entry(
    cm: FiniteCrossedModule, rng: random.Random
) -> FiniteCrossedModule:
    """Flip exactly one table entry to a different in-range value."""
    nG, nE = cm.base.order, cm.fiber.order
    while True:
        kind = rng.choice(("base", "fiber", "boundary", "action"))
        if kind == "base" and nG > 1:
            rows = [list(row) for row in cm.base.product]
            i, j = rng.randrange(nG), rng.randrange(nG)
            rows[i][j] = rng.choice([v for v in range(nG) if v != rows[i][j]])
            base = FiniteGroup(nG, tuple(tuple(r) for r in rows))
            return FiniteCrossedModule(base, cm.fiber, cm.boundary, cm.action)
        if kind == "fiber" and nE > 1:
            rows = [list(row) for row in cm.fiber.product]
            i, j = rng.randrange(nE), rng.randrange(nE)
            rows[i][j] = rng.choice([v for v in range(nE) if v != rows[i][j]])
            fiber = FiniteGroup(nE, tuple(tuple(r) for r in rows))
            return FiniteCrossedModule(cm.base, fiber, cm.boundary, cm.action)
        if kind == "boundary" and nG > 1:
            table = list(cm.boundary)
            i = rng.randrange(nE)
            table[i] = rng.choice([v for v in range(nG) if v != table[i]])
            return FiniteCrossedModule(cm.base, cm.fiber, tuple(table), cm.action)
        if kind == "action" and nE > 1:
            rows = [list(row) for row in cm.action]
            g, e = rng.randrange(nG), rng.randrange(nE)
            rows[g][e] = rng.choice([v for v in range(nE) if v != rows[g][e]])
            return FiniteCrossedModule(
                cm.base, cm.fiber, cm.boundary, tuple(tuple(r) for r in rows)
            )


def test_criterion_10_axiom_suite(battery):
    with Budget(10, "battery accepted, 50 corruptions rejected", 10.0):
        for module_name, cm in battery:
            assert validate_crossed_module(cm).ok, module_name
        rng = random.Random(SEED)
        modules = [cm for _, cm in standard_battery()]
        for index in range(50):
            cm = modules[index % len(modules)]
            broken = corrupt_single_entry(cm, rng)
            report = validate_crossed_module(broken)
            assert not report.ok, index
            axiom, witness = report.violations[0]
            assert axiom and isinstance(witness, tuple), index
