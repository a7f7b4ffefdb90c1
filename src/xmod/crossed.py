"""Finite crossed modules as table-driven values.

A crossed module here is a finite base group G, a finite fiber group E, a
boundary map E -> G, and a left action of G on E, subject to:

  * boundary is a group homomorphism,
  * the action is by automorphisms (unital, multiplicative in G, and a
    group homomorphism of E for each base element),
  * equivariance: boundary(g |> e) = g boundary(e) g^-1,
  * the conjugation identity: boundary(e) |> f = e f e^-1.

``validate_crossed_module`` checks all of this and reports every violating
witness instead of raising.  One routine, ``_module_violations``, checks the
six module axioms over the quantifier domains it is given.  It runs first
over greedy generating sets: the elements that pass each axiom are closed
under products, so a valid module is settled in O(n^2 log n) table lookups,
n the larger order.  A module file read for counting is refused at the
first witness there, or at the first witness of Light's test on a table
that is not a group; ``xmod validate`` runs a module with a witness again
over whole groups, in O(n^3), one work-cap step per table entry compared,
to list every witness.  Both runs compose and compare whole rows, of the
row type ``groups.row_type`` picks from the larger order, and share the
byte rows of the two groups with their group checks.  ``selftest`` runs the
check on the battery.
The builders here do not run it: they refuse an input table that is not a
group at the first witness of ``group_violations(group, first_only=True)``,
the rule a module file read for counting is refused by, and a group makes
both of their tables valid by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .budget import DEFAULT_WORK_CAP, Budget
from .errors import FormatError
from .groups import (FiniteGroup, _unchecked, differing, first_out_of_range,
                     group_violations, row_type)
from .words import LineReader, parse_integer, parse_integers

# Largest fiber the group-algebra builder makes.  Its tables have q**2
# entries: best of 3 on a 2-core VM, 0.01 s at 256, 0.05 s and 23 MB peak RSS
# at 512, 0.22 s and 60 MB at 1024 (16 MB of that is the import).  Reading a
# file of that module (Z_n over F_2) takes 0.01 / 0.03 / 0.10 s at
# q = 256 / 512 / 1024 and validating it 0.003 / 0.045 / 0.18 s (byte rows
# at 256, tuple rows above), and `xmod validate` on it, start-up included,
# 0.10 / 0.16 / 0.40 s (best of 7); no caller needs more than 512.
MAX_FIBER_ORDER = 512


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the axiom check; ``ok`` iff no violations."""

    violations: tuple[tuple[str, tuple], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class FiniteCrossedModule:
    base: FiniteGroup
    fiber: FiniteGroup
    boundary: tuple[int, ...]
    action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        nG, nE = self.base.order, self.fiber.order
        if len(self.boundary) != nE:
            raise ValueError("boundary table length does not match fiber order")
        bad = first_out_of_range((self.boundary,), nG)
        if bad is not None:
            raise ValueError(f"boundary entry {bad} out of range 0..{nG - 1}")
        if len(self.action) != nG or any(len(row) != nE for row in self.action):
            raise ValueError("action table shape does not match base x fiber")
        bad = first_out_of_range(self.action, nE)
        if bad is not None:
            raise ValueError(f"action entry {bad} out of range 0..{nE - 1}")

    def act(self, g: int, e: int) -> int:
        return self.action[g][e]

    @cached_property
    def kernel(self) -> KernelPresentation:
        """The kernel of the boundary, presented for counting; built once per module."""
        return _kernel_presentation(self)


@dataclass(frozen=True)
class KernelPresentation:
    """K = ker(boundary) as a quotient of (Z/exponent)^d, with the base action.

    In a crossed module K is central in the fiber and stable under the
    action, so it is abelian and each base element acts on it linearly.
    ``generators`` k_1..k_d are taken greedily in index order, k_j of order
    m_j modulo k_1..k_(j-1); so each element of K has one coordinate vector
    a with 0 <= a_j < m_j, which is ``coords[e]`` (None for e outside K).
    ``relations`` are the nonzero vectors m_j e_j - coords(k_j ** m_j) mod
    ``exponent``, which span the kernel of (Z/exponent)^d -> K, and
    ``action[g][i]`` is coords(g |> k_i) as sparse (position, value) pairs.
    """

    order: int
    exponent: int
    generators: tuple[int, ...]
    coords: tuple[tuple[int, ...] | None, ...]
    relations: tuple[tuple[int, ...], ...]
    action: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


def _kernel_presentation(cm: FiniteCrossedModule) -> KernelPresentation:
    fiber = cm.fiber
    identity = cm.base.identity
    coords: dict[int, tuple[int, ...]] = {fiber.identity: ()}
    generators: list[int] = []
    # (m_j, coords(k_j ** m_j)), the coordinates over k_1..k_(j-1) only
    rows: list[tuple[int, tuple[int, ...]]] = []
    exponent = 1
    for e in range(fiber.order):
        if e in coords or cm.boundary[e] != identity:
            continue
        m, x = 1, e
        while x not in coords:
            x = fiber.mul(x, e)
            m += 1
        rows.append((m, coords[x]))
        generators.append(e)
        # Every element of the span so far times a power of e below m.
        extended = {}
        for known, vec in coords.items():
            y = known
            for j in range(m):
                extended[y] = vec + (j,)
                y = fiber.mul(y, e)
        coords = extended
        k, y = 1, e
        while y != fiber.identity:
            y = fiber.mul(y, e)
            k += 1
        exponent = lcm(exponent, k)
    d = len(generators)
    full = [None] * fiber.order
    for e, vec in coords.items():
        full[e] = vec
    relations = []
    for j, (m, lower) in enumerate(rows):
        row = [-v % exponent for v in lower] + [m % exponent] + [0] * (d - j - 1)
        if any(row):
            relations.append(tuple(row))

    def sparse(e: int) -> tuple[tuple[int, int], ...]:
        return tuple((i, v) for i, v in enumerate(full[e]) if v)

    return KernelPresentation(
        len(coords), exponent, tuple(generators), tuple(full), tuple(relations),
        tuple(tuple(sparse(row[k]) for k in generators) for row in cm.action),
    )


def validate_crossed_module(
    cm: FiniteCrossedModule, work_cap: int = DEFAULT_WORK_CAP, *, first_only: bool = False
) -> ValidationReport:
    """Axiom check; never raises on a violation, reports it by witnesses.

    Group axioms of base and fiber are checked first; if either table fails
    to be a group the dependent checks are skipped, since they have no
    meaning without identities and inverses.  ``_module_violations`` then
    runs over the greedy generating sets; a module with no witness there is
    valid, and any other is listed with every variable over its whole group.
    With ``first_only`` it is not listed: the report holds the first witness
    over generating sets, of the axiom the listing names first.  Raises
    ``WorkCapExceeded`` if a listing compares more than ``work_cap`` entries.
    """
    budget = Budget(work_cap)
    out = group_violations(cm.base, "base.", budget, first_only=first_only)
    if not (out and first_only):
        out += group_violations(cm.fiber, "fiber.", budget, first_only=first_only)
    if out:
        return ValidationReport(tuple(out))
    base, fiber = cm.base, cm.fiber
    # The base identity's rows hold whenever it acts trivially, which
    # action.identity checks before them.  The fiber identity's rows stay:
    # dropping them would change the witness named first for a module with
    # bdy(1) != 1 or g |> 1 != 1.
    gens_G = tuple(g for g in base.generators if g != base.identity)
    found = _module_violations(cm, gens_G, fiber.generators, None)
    if not found or first_only:
        return ValidationReport(tuple(found[:1]))
    return ValidationReport(tuple(
        _module_violations(cm, base.elements, fiber.elements, budget)))


_MODULE_AXIOMS = ("boundary.morphism", "action.identity", "action.composition",
                 "action.morphism", "equivariance", "conjugation")


def _module_violations(
    cm: FiniteCrossedModule, gens_G, gens_E, budget: Budget | None
) -> list[tuple[str, tuple]]:
    """Every witness of the module axioms, in ``_MODULE_AXIOMS`` order.

    Both tables must be groups.  The variables each comment below calls
    restricted range over ``gens_G`` or ``gens_E``, the others over the
    whole group.  For each axiom the elements that pass are closed under
    products, given the axioms before it, so over generating sets a module
    with no witness is valid, and the first witness names the axiom of the
    full listing's first witness.  Rows over the unrestricted variable are
    compared whole, and the differing positions of a mismatch are its
    witnesses.  With a ``budget``, one step is spent per entry compared.
    """
    base, fiber = cm.base, cm.fiber
    nG, nE, mG, mE = base.order, fiber.order, len(gens_G), len(gens_E)
    if budget:
        budget.spend(mE * nE + nE + nG * mG * nE + mG * mE * nE + mG * mE + mE * mE)
    rows = row_type(max(nG, nE))
    gt, et = rows.of(base), rows.of(fiber)
    bdy, identity_row = rows.convert((cm.boundary, tuple(fiber.elements)))
    act = rows.convert(cm.action)
    # times_G[h][g] is g h, times_E[f][e] is e f.
    times_G, times_E = rows.columns(gt), rows.columns(et)
    (bdy_outer,), act_outer = rows.outers((bdy,)), rows.outers(act)
    times_G_outer, times_E_outer = rows.outers(times_G), rows.outers(times_E)
    after = rows.after
    bad: list[tuple[int, tuple]] = []  # (axiom index, witness)

    # bdy(e f) = bdy(e) bdy(f), f restricted: the rows over e.
    boundary_of = after(bdy)
    for f in gens_E:
        left, right = after(times_E[f])(bdy_outer), boundary_of(times_G_outer[bdy[f]])
        if left != right:
            bad += [(0, (e, f)) for e in differing(left, right)]
    # 1 |> e = e: the row of the identity.
    left, right = act[base.identity], identity_row
    if left != right:
        bad += [(1, (e,)) for e in differing(left, right)]
    # (g h) |> e = g |> (h |> e), h restricted: the rows over e.
    for h in gens_G:
        after_h = after(act[h])
        for g, outer in enumerate(act_outer):
            left, right = act[gt[g][h]], after_h(outer)
            if left != right:
                bad += [(2, (g, h, e)) for e in differing(left, right)]
    # g |> (e f) = (g |> e)(g |> f), g and f restricted: the rows over e.
    for g in gens_G:
        row, outer = act[g], act_outer[g]
        moved = after(row)
        for f in gens_E:
            left, right = after(times_E[f])(outer), moved(times_E_outer[row[f]])
            if left != right:
                bad += [(3, (g, e, f)) for e in differing(left, right)]
    # bdy(g |> e) = g bdy(e) g^-1, g and e restricted.
    inv_G, inv_E = base.inverse, fiber.inverse
    for g in gens_G:
        for e in gens_E:
            if bdy[act[g][e]] != gt[gt[g][bdy[e]]][inv_G[g]]:
                bad.append((4, (g, e)))
    # bdy(e) |> f = e f e^-1, e and f restricted.
    for e in gens_E:
        for f in gens_E:
            if act[bdy[e]][f] != et[et[e][f]][inv_E[e]]:
                bad.append((5, (e, f)))
    if not bad:
        return []
    return [(_MODULE_AXIOMS[axiom], witness) for axiom, witness in sorted(bad)]


def _require_group(group: FiniteGroup) -> None:
    violations = group_violations(group, first_only=True)
    if violations:
        name, witness = violations[0]
        raise ValueError(f"input table violates {name} at witness {witness}")


def build_conjugation_crossed_module(group: FiniteGroup) -> FiniteCrossedModule:
    """G acting on itself by conjugation, with the identity map as boundary.

    Raises ``ValueError`` unless ``group`` is a group.  Conjugation is an
    action by automorphisms and the identity boundary is equivariant and
    satisfies the conjugation identity, so the tables need no further check.
    """
    _require_group(group)
    n = group.order
    boundary = tuple(range(n))
    action = tuple(
        tuple(group.mul(g, group.mul(e, group.inv(g))) for e in range(n))
        for g in range(n)
    )
    return FiniteCrossedModule(group, group, boundary, action)


def build_central_quotient_crossed_module(group: FiniteGroup) -> FiniteCrossedModule:
    """E -> E/Z(E), with a coset acting on E by conjugation through any lift.

    Raises ``ValueError`` unless ``group`` is a group.  Central elements
    conjugate trivially, so the action is well defined; it is conjugation,
    hence by automorphisms, and the quotient map is equivariant and
    satisfies the conjugation identity, so the tables need no further check.
    The kernel of the boundary is the center.  Coset i is the coset of the
    i-th element, in index order, that lies in no earlier coset.
    """
    _require_group(group)
    n = group.order
    coset = [-1] * n
    lifts: list[int] = []
    for e in range(n):
        if coset[e] < 0:
            for z in group.center:
                coset[group.mul(e, z)] = len(lifts)
            lifts.append(e)
    quotient = FiniteGroup(len(lifts), tuple(
        tuple(coset[group.mul(a, b)] for b in lifts) for a in lifts))
    action = tuple(
        tuple(group.mul(a, group.mul(e, group.inv(a))) for e in range(n))
        for a in lifts
    )
    return FiniteCrossedModule(quotient, group, tuple(coset), action)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def ga_index(coords: tuple[int, ...], p: int) -> int:
    """Index of a fiber element of a group-algebra module from its coordinates."""
    out = 0
    for i in reversed(range(len(coords))):
        out = out * p + coords[i]
    return out


def ga_coords(index: int, n: int, p: int) -> tuple[int, ...]:
    """Coordinates (one per base element, base-element order) of a fiber element."""
    out = []
    for _ in range(n):
        out.append(index % p)
        index //= p
    return tuple(out)


def build_group_algebra_crossed_module(group: FiniteGroup, p: int) -> FiniteCrossedModule:
    """The group algebra of ``group`` over the p-element field, as a crossed module.

    The fiber is the additive group of functions group -> F_p (order p^|G|),
    the boundary is constant at the base identity, and the base acts by
    permuting coordinates through left translation.  Coordinate i of a fiber
    element is the coefficient of base element i; fiber element indices pack
    the coordinates in base p, least significant coordinate first, so the
    basis vector at base element k has index p**k.

    Raises ``ValueError`` unless p is prime, p**|G| is at most
    ``MAX_FIBER_ORDER`` and ``group`` is a group.  The fiber is then abelian,
    the constant boundary is a central homomorphism, and left translation
    permutes coordinates, so the tables need no further check.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = group.order
    q = p**n
    if q > MAX_FIBER_ORDER:
        raise ValueError(f"fiber order {p}^{n} exceeds the bound {MAX_FIBER_ORDER}")
    _require_group(group)
    # Addition is digit-wise mod p: on k + 1 digits, entry (d p**k + i,
    # e p**k + j) is entry (i, j) on k digits plus p**k ((d + e) mod p).
    table = [[0]]
    for k in range(n):
        weight = p**k
        table = [
            [entry + weight * ((d + e) % p) for e in range(p) for entry in row]
            for d in range(p) for row in table
        ]
    fiber = FiniteGroup(q, tuple(map(tuple, table)))
    coords_of = [ga_coords(i, n, p) for i in range(q)]
    boundary = (group.identity,) * q
    action = []
    for g in range(n):
        row = []
        for e in range(q):
            coords = coords_of[e]
            moved = [0] * n
            for y in range(n):
                moved[group.mul(g, y)] = coords[y]
            row.append(ga_index(tuple(moved), p))
        action.append(tuple(row))
    return FiniteCrossedModule(group, fiber, boundary, tuple(action))


# ---------------------------------------------------------------------------
# Text format
#
#   xmod v1
#   base <order>       followed by <order> rows of <order> indices
#   fiber <order>      followed by <order> rows of <order> indices
#   boundary           followed by one row of <fiber order> base indices
#   action             followed by <base order> rows of <fiber order> indices
#
# '#' starts a comment; blank lines are ignored.  Any shape mismatch is an
# error naming the line and the field.
# ---------------------------------------------------------------------------


class _Indices(dict):
    """Token -> index for the spellings ``str(i)`` with 0 <= i < bound.

    Filled from the tokens read, never sized by ``bound``: a declared order
    costs nothing until its entries are there.  Looking up any other token
    raises ``KeyError``.  One parse keeps one per order, for the tables whose
    entries index that group.
    """

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound

    def __missing__(self, token: str) -> int:
        try:
            index = int(token)
        except ValueError:  # not an integer, or more digits than int() converts
            raise KeyError(token) from None
        if not 0 <= index < self.bound or str(index) != token:
            raise KeyError(token)
        self[token] = index
        return index


def _parse_table(lines: LineReader, field: str, rows: int, width: int,
                 indices: _Indices):
    """``rows`` rows of ``width`` entries in 0..bound-1, bound ``indices.bound``.

    A row whose entries are all spelled ``str(i)`` in range is read by one
    ``map`` over ``indices``; any other row by ``parse_integers``.
    The first broken row is reported, and in it a malformed token before a
    wrong length, and a wrong length before an entry out of range.
    """
    bound = indices.bound
    out = []
    for _ in range(rows):
        lineno, content = lines.next(field)
        bad = None
        try:
            values = tuple(map(indices.__getitem__, content.split()))
        except KeyError:
            values = parse_integers(content, lineno, field)
            bad = next((value for value in values if not 0 <= value < bound), None)
        if len(values) != width:
            raise FormatError(f"expected {width} entries, got {len(values)}",
                              line=lineno, field=field)
        if bad is not None:
            raise FormatError(f"index {bad} out of range 0..{bound - 1}",
                              line=lineno, field=field)
        out.append(values)
    return tuple(out)


def parse_crossed_module_text(text: str) -> FiniteCrossedModule:
    """Parse the crossed-module text format.  Strict; does not check axioms.
    Tables are checked for shape and range as they are read, not again."""
    lines = LineReader(text)

    lineno, header = lines.next("header")
    if header != "xmod v1":
        raise FormatError(f"expected 'xmod v1' header, got {header!r}",
                          line=lineno, field="header")

    def section(keyword: str, with_order: bool) -> int:
        lineno, content = lines.next(keyword)
        tokens = content.split()
        if not tokens or tokens[0] != keyword:
            raise FormatError(f"expected '{keyword}' section, got {content!r}",
                              line=lineno, field=keyword)
        if with_order:
            if len(tokens) != 2:
                raise FormatError(f"expected '{keyword} <order>'",
                                  line=lineno, field=keyword)
            order = parse_integer(tokens[1], "order", lineno, keyword)
            if order < 1:
                raise FormatError("order must be positive", line=lineno, field=keyword)
            return order
        if len(tokens) != 1:
            raise FormatError(f"'{keyword}' takes no arguments",
                              line=lineno, field=keyword)
        return 0

    base_order = section("base", with_order=True)
    base_indices = _Indices(base_order)
    base = _unchecked(FiniteGroup, order=base_order, product=_parse_table(
        lines, "base", base_order, base_order, base_indices))
    fiber_order = section("fiber", with_order=True)
    fiber_indices = _Indices(fiber_order)
    fiber = _unchecked(FiniteGroup, order=fiber_order, product=_parse_table(
        lines, "fiber", fiber_order, fiber_order, fiber_indices))
    section("boundary", with_order=False)
    (boundary,) = _parse_table(lines, "boundary", 1, fiber_order, base_indices)
    section("action", with_order=False)
    action = _parse_table(lines, "action", base_order, fiber_order, fiber_indices)
    for lineno, content in lines:
        raise FormatError(f"unexpected trailing content {content!r}",
                          line=lineno, field="trailer")
    return _unchecked(FiniteCrossedModule, base=base, fiber=fiber, boundary=boundary,
                      action=action)


def format_crossed_module_text(cm: FiniteCrossedModule) -> str:
    out = ["xmod v1"]
    out.append(f"base {cm.base.order}")
    out.extend(" ".join(str(v) for v in row) for row in cm.base.product)
    out.append(f"fiber {cm.fiber.order}")
    out.extend(" ".join(str(v) for v in row) for row in cm.fiber.product)
    out.append("boundary")
    out.append(" ".join(str(v) for v in cm.boundary))
    out.append("action")
    out.extend(" ".join(str(v) for v in row) for row in cm.action)
    return "\n".join(out) + "\n"
