"""Finite groups as explicit multiplication tables.

Elements are the indices 0..order-1.  The table is trusted for shape at
construction time only; the group axioms are checked by ``group_violations``,
so a structurally well-formed table that is not a group can still be
represented and reported.  That check runs where a table comes in: the
crossed-module builders run it on their input group up to its first witness
(``first_only=True``), as ``xmod invariant`` does on a module file, and
``validate_crossed_module`` on both tables of a module read from a file.
The builders below make groups by construction and do not run it.

``group_violations`` runs one routine, ``_table_violations``, over two
domains for the middle variable of associativity.  Over a greedy generating
set it settles a group in O(n^2 log n) by Light's associativity test
(Clifford-Preston, *The Algebraic Theory of Semigroups* I, 1.2); only a
table with a witness there is run again over every element, in O(n^3),
under a work cap.  Both runs compose and compare whole rows, in the row type
``row_type`` picks from the order: ``bytes`` rows, composed by one
``bytes.translate`` each, for orders ``BYTE_ROWS_FROM`` to 256, and the
table's own tuples, composed by ``itemgetter``, for the others.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, permutations
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .budget import DEFAULT_WORK_CAP, Budget


def first_out_of_range(rows, bound: int) -> int | None:
    """The first entry of ``rows`` not in 0..bound-1, or None.  Each row is
    one set test in C; only a row that fails is searched for its entry."""
    indices = _indices(bound)
    for row in rows:
        if not indices.issuperset(row):
            return next(value for value in row if value not in indices)
    return None


@lru_cache(maxsize=8)
def _indices(bound: int) -> frozenset[int]:
    return frozenset(range(bound))


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
        bad = first_out_of_range(self.product, n)
        if bad is not None:
            raise ValueError(f"product entry {bad} out of range 0..{n - 1}")

    @cached_property
    def identity(self) -> int:
        found = find_identity(self)
        if found is None:
            raise ValueError("table has no two-sided identity")
        return found

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """The first two-sided inverse of each element."""
        out = _inverses(self.product, self.identity)
        if None in out:
            raise ValueError(f"element {out.index(None)} has no two-sided inverse")
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

    @cached_property
    def center(self) -> tuple[int, ...]:
        """The center: the elements commuting with every greedy generator."""
        table, gens = self.product, self.generators
        return tuple(z for z in range(self.order)
                     if all(table[z][g] == table[g][z] for g in gens))

    @cached_property
    def _byte_rows(self) -> tuple[bytes, ...]:
        """The product's rows as ``bytes``, kept for every check of the
        group; the order must be at most 256."""
        return BYTE_ROWS.convert(self.product)

    @property
    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` whose fields are already
    checked, built without the checks of its constructor."""
    made = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(made, name, value)
    return made


def find_identity(group: FiniteGroup) -> int | None:
    for e in range(group.order):
        row = group.product[e]
        if all(row[x] == x and group.product[x][e] == x for x in range(group.order)):
            return e
    return None


def _inverses(table, e: int) -> list[int | None]:
    """The first two-sided inverse of each element, or None, by C-level scans."""
    out = []
    for a, row in enumerate(table):
        b = -1
        try:
            while True:
                b = row.index(e, b + 1)
                if table[b][a] == e:
                    break
        except ValueError:
            b = None
        out.append(b)
    return out


def entries_at(indices) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The function taking a row to the tuple of its entries at ``indices``.

    Applied to a table row it composes two maps in one C-level call:
    ``entries_at(table[s])(table[x])[y]`` is x (s y).
    """
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


def differing(left, right) -> list[int]:
    """The positions at which two sequences of equal length differ."""
    return [i for i, (x, y) in enumerate(zip(left, right)) if x != y]


class RowType(NamedTuple):
    """How the axiom checks hold table rows, compose them and compare them.

    ``of(group)`` is the rows of the group's product, ``convert(table)`` the
    rows of any other table, and ``columns(rows)`` the columns of a square
    table given by its rows.  For a row ``outer`` of ``outers(rows)``,
    ``after(inner)(outer)`` is the row x -> outer[inner[x]].  Two rows of one
    type are equal iff their entries are.
    """

    of: Callable
    convert: Callable
    columns: Callable
    outers: Callable
    after: Callable


def _byte_columns(rows: tuple[bytes, ...]) -> tuple[bytes, ...]:
    flat, n = b"".join(rows), len(rows)
    return tuple([flat[c::n] for c in range(n)])


TUPLE_ROWS = RowType(of=attrgetter("product"), convert=lambda table: table,
                     columns=lambda rows: tuple(zip(*rows)), outers=lambda rows: rows,
                     after=entries_at)
# An outer row is padded to the 256 entries ``bytes.translate`` takes.
BYTE_ROWS = RowType(of=attrgetter("_byte_rows"),
                    convert=lambda table: tuple(map(bytes, table)), columns=_byte_columns,
                    outers=lambda rows: tuple([row.ljust(256, b"\0") for row in rows]),
                    after=attrgetter("translate"))

# The least order checked on byte rows.  Converting a table costs about one
# more pass over its tuple rows, so byte rows win only where the generating
# set takes several passes.  Validating the conjugation module of a group
# took, on byte rows against tuple rows (median of 12 pairs, 2-core VM),
# 1.11 to 1.30 times as long at order 8, 1.04 to 1.23 times at 12, 0.93 on
# D8 and Z2 x Z8 but 1.20 on Z16, 0.86 on D10 and Z2 x Z10 but 1.06 on Z20,
# whose one generator besides the identity leaves a single pass, and 0.74
# (D16) to 0.99 (Z32) at 32.
BYTE_ROWS_FROM = 20


def row_type(order: int) -> RowType:
    """The row type of the axiom checks on tables whose rows have ``order``
    entries in 0..order-1: byte rows from ``BYTE_ROWS_FROM`` up to 256, the
    most a byte holds, and tuple rows otherwise."""
    return BYTE_ROWS if BYTE_ROWS_FROM <= order <= 256 else TUPLE_ROWS


def group_violations(
    group: FiniteGroup, prefix: str = "", budget: Budget | None = None, *,
    first_only: bool = False,
) -> list[tuple[str, tuple]]:
    """Every violating witness of the group axioms; [] for a group.

    A table with no witness when the middle variable of associativity runs
    over its greedy generating set is a group.  Any other is listed with it
    running over every element, spending one step of ``budget`` per entry
    compared.  With ``first_only`` the result holds one witness at most: for
    a table with a greedy generating set, the first over that set, of the
    axiom the listing names first; for any other, the listing's first,
    found without listing the rest.
    """
    gens = group.generators
    if gens is not None:
        found = list(islice(_table_violations(group, prefix, gens, None), 1))
        if first_only or not found:
            return found
    listing = _table_violations(group, prefix, group.elements,
                                budget or Budget(DEFAULT_WORK_CAP))
    return list(islice(listing, 1 if first_only else None))


def _table_violations(
    group: FiniteGroup, prefix: str, middle, budget: Budget | None
) -> Iterator[tuple[str, tuple]]:
    """The group-axiom witnesses with b of (a b) c = a (b c) in ``middle``.

    Associativity witnesses come first, in ascending (a, b, c), then the
    identity or, given one, each element without a two-sided inverse.  Over
    a generating set this is Light's test: the elements b that pass are
    closed under products, so none fails there only if the table is
    associative, and with an identity and inverses it is a group.  The
    identity passes by definition and is not run.  ``middle`` must be
    ascending.  The budget is charged for the whole run before the first
    witness, so a caller that stops early spends what the listing does.
    """
    n = group.order
    # The cached identity and inverses serve every later use of the group.
    try:
        e = group.identity
    except ValueError:
        e = None
    if budget:
        budget.spend(len(middle) * n * n + (0 if e is None else n * n))
    rows = row_type(n)
    table = rows.of(group)
    composers = [(b, rows.after(table[b])) for b in middle if b != e]
    for a, (row, outer) in enumerate(zip(table, rows.outers(table))):
        for b, times_b in composers:
            # The rows over c of (a b) c and a (b c).
            left, right = table[row[b]], times_b(outer)
            if left != right:
                for c in differing(left, right):
                    yield prefix + "associativity", (a, b, c)
    if e is None:
        yield prefix + "identity", ()
        return
    try:
        group.inverse
    except ValueError:
        for a, inverse in enumerate(_inverses(group.product, e)):
            if inverse is None:
                yield prefix + "inverse", (a,)


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


def build_quaternion_group() -> FiniteGroup:
    """The quaternion group {+-1, +-i, +-j, +-k} under the Hamilton product.

    Element 2u + s is (-1)**s times unit u of (1, i, j, k), so 0 is 1 and
    1 is -1.
    """
    units = [tuple(sign if i == u else 0 for i in range(4))
             for u in range(4) for sign in (1, -1)]
    index = {q: i for i, q in enumerate(units)}

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    return FiniteGroup(8, tuple(tuple(index[hamilton(p, q)] for q in units)
                                for p in units))
