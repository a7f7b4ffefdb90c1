"""Finite groups as explicit multiplication tables.

Elements are the indices 0..order-1.  The table is trusted for shape at
construction time only; the group axioms are checked by ``group_violations``,
so a structurally well-formed table that is not a group can still be
represented and reported.  That check runs where a table comes in: the
crossed-module builders run it on their input group, and
``validate_crossed_module`` on both tables of a module read from a file.  The
builders below make groups by construction and do not run it.

``group_violations`` settles a group in O(n^2 log n) with Light's
associativity test on a greedy generating set (Clifford-Preston, *The
Algebraic Theory of Semigroups* I, 1.2); only a table that fails it is
listed exhaustively, in O(n^3), under a work cap.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from operator import itemgetter

from .budget import DEFAULT_WORK_CAP, Budget


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
        """The first two-sided inverse of each element, found by C-level scans."""
        e = self.identity
        out = []
        for a, row in enumerate(self.product):
            b = -1
            while True:
                try:
                    b = row.index(e, b + 1)
                except ValueError:
                    raise ValueError(f"element {a} has no two-sided inverse") from None
                if self.product[b][a] == e:
                    break
            out.append(b)
        return tuple(out)

    @cached_property
    def generators(self) -> tuple[int, ...] | None:
        """A greedy generating set; None proves the table is not a group.

        Each element not yet reached becomes a generator, and the reached set
        is closed under right multiplication by the generators so far, so
        every element is a product of generators.  In a group each new
        generator at least doubles the subgroup reached, so at most
        floor(log2 n) + 1 are taken; a table that needs more is not a group.
        """
        n, table = self.order, self.product
        reached = [False] * n
        out: list[int] = []
        for x in range(n):
            if reached[x]:
                continue
            if len(out) == n.bit_length():
                return None
            out.append(x)
            reached[x] = True
            frontier = [y for y in range(n) if reached[y]]
            while frontier:
                new = []
                for y in frontier:
                    row = table[y]
                    for s in out:
                        if not reached[row[s]]:
                            reached[row[s]] = True
                            new.append(row[s])
                frontier = new
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


def entries_at(indices) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The function taking a row to the tuple of its entries at ``indices``.

    Applied to a table row it composes two maps in one C-level call:
    ``entries_at(table[s])(table[x])[y]`` is x (s y).
    """
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


def _is_group(group: FiniteGroup) -> bool:
    """Whether the table is a group, in O(n^2 log n).

    An identity and a right inverse of every element are checked directly;
    with associativity they make a group.  Then Light's test: the elements s
    with (x s) y = x (s y) for all x, y are closed under products, so
    associativity holds once it holds for every s in a generating set.
    """
    table = group.product
    e = find_identity(group)
    if e is None or not all(e in row for row in table):
        return False
    generators = group.generators
    if generators is None:
        return False
    for s in generators:
        times_s = entries_at(table[s])
        for row in table:
            if table[row[s]] != times_s(row):
                return False
    return True


def group_violations(
    group: FiniteGroup, prefix: str = "", budget: Budget | None = None
) -> list[tuple[str, tuple]]:
    """Every violating witness of the group axioms; [] for a group.

    A group passes ``_is_group`` and is not listed.  Any other table is
    listed exhaustively, associativity first, spending one step of
    ``budget`` per tuple visited.
    """
    if _is_group(group):
        return []
    return _listed_violations(group, prefix, budget or Budget(DEFAULT_WORK_CAP))


def _listed_violations(group: FiniteGroup, prefix: str, budget: Budget):
    out: list[tuple[str, tuple]] = []
    n = group.order
    table = group.product
    for a in range(n):
        for b in range(n):
            budget.spend(n)
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    out.append((prefix + "associativity", (a, b, c)))
    e = find_identity(group)
    if e is None:
        out.append((prefix + "identity", ()))
        return out
    for a in range(n):
        budget.spend(n)
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
