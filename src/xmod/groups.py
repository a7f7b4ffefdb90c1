"""Finite groups as explicit multiplication tables.

Elements are the indices 0..order-1.  The table is trusted for shape at
construction time only; the group axioms are checked by ``group_violations``,
so a structurally well-formed table that is not a group can still be
represented and reported.  That exhaustive check runs where a table comes in:
the crossed-module builders run it on their input group, and
``validate_crossed_module`` on both tables of a module read from a file.  The
builders below make groups by construction and do not run it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    product: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise ValueError("group order must be positive")
        if len(self.product) != n or any(len(row) != n for row in self.product):
            raise ValueError("product table shape does not match order")
        for row in self.product:
            for value in row:
                if not 0 <= value < n:
                    raise ValueError(f"product entry {value} out of range 0..{n - 1}")

    @cached_property
    def identity(self) -> int:
        found = find_identity(self)
        if found is None:
            raise ValueError("table has no two-sided identity")
        return found

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        e = self.identity
        out = []
        for a in range(self.order):
            b = next(
                (
                    b
                    for b in range(self.order)
                    if self.product[a][b] == e and self.product[b][a] == e
                ),
                None,
            )
            if b is None:
                raise ValueError(f"element {a} has no two-sided inverse")
            out.append(b)
        return tuple(out)

    @property
    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]


def find_identity(group: FiniteGroup) -> int | None:
    for e in range(group.order):
        row = group.product[e]
        if all(row[x] == x and group.product[x][e] == x for x in range(group.order)):
            return e
    return None


def group_violations(group: FiniteGroup, prefix: str = "") -> list[tuple[str, tuple]]:
    """Exhaustively check the group axioms; return every violating witness."""
    out: list[tuple[str, tuple]] = []
    n = group.order
    table = group.product
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    out.append((prefix + "associativity", (a, b, c)))
    e = find_identity(group)
    if e is None:
        out.append((prefix + "identity", ()))
        return out
    for a in range(n):
        if not any(table[a][b] == e and table[b][a] == e for b in range(n)):
            out.append((prefix + "inverse", (a,)))
    return out


def build_cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be at least 1")
    product = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(n, product)


def build_symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n points; elements are permutations in lexicographic order.

    Composition convention: (p * q)(i) = p[q[i]], so q is applied first.
    """
    if not 1 <= n <= 6:
        raise ValueError("symmetric group table supported for 1 <= n <= 6")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    product = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup(len(perms), product)
