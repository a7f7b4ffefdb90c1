"""Counting crossed-module homomorphisms and the resulting invariant.

A homomorphism from a presented free crossed module into a finite crossed
module is determined by a base assignment phi (generator -> base element)
and a cell assignment psi (cell -> fiber element) such that

  * the boundary of psi(cell) equals phi evaluated on the cell's boundary
    word, and
  * every relation, evaluated as a product of (phi(conjugator) acting on
    psi(cell)) to its sign, is the fiber identity.

``count_report(pres, cm)`` and ``invariant(pres, cm)`` take a presentation
and a module.  The invariant is the exact rational count / (#fiber)**n1,
where n1 is ``pres.one_handles``, the number of base generators (1-handles).
Every count runs one loop, ``_count``, over the kernel K of the boundary.
K is central in the fiber and stable under the action, so once phi is fixed
each cell ranges over one coset e_c K of its boundary fiber, and each
relation is a constant R_r of the fiber times a signed sum of the g |> k_c
in the abelian group K.  The count for phi is 0 if a coset is empty, and
otherwise the number of solutions of an affine system over K:
|K|**cells / |image| when the right-hand side lies in the image, else 0.
The image is put in Howell echelon form over Z/exponent(K), so no cell is
searched.  With K trivial no relation is read: the count is the closed
form |im| ** gens * |Hom(pi1, base / im)|, im the image of the boundary.
phi runs over ``phi_classes``, not all of base ** gens: one phi per class
of phis that count the same, weighted by the size of its class.

The loop has two doors, ``count_linear_fastpath`` for any module and
``count_homomorphisms`` for an injective boundary; ``select_method`` names
the one ``count_report`` takes, ``linear`` or ``backtracking``.  Both stay
because the benchmark's tracer wraps each door and ``select_method`` by
name to report which one ran.

The loop reads the form ``compile_presentation`` builds, which cancels
2-handle/3-handle pairs.  Say a cell c is in one term (w ; c ; s) of all
the relations, in relation r.  Once phi and the other cells are fixed, r
fixes psi(c), since phi(w) |> - is an automorphism of the fiber; and then
the boundary of psi(c) is phi(bnd c), since r's boundary word is trivial.
So dropping c and r changes no count, for any module.

A naive full-product oracle, which evaluates the presentation as given,
checks the loop.  All arithmetic is exact; counts are arbitrary-precision
integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd

from .budget import DEFAULT_WORK_CAP, Budget
from .crossed import FiniteCrossedModule
from .errors import (
    EvaluationError,
    InvalidPresentationError,
    NaiveCapExceeded,
)
from .presentations import (
    CrossedPresentation,
    CrossedWord,
    validate_presentation,
)
from .words import FreeWord

METHOD_BACKTRACKING = "backtracking"
METHOD_LINEAR = "linear"

# Distinct per-phi systems ``_count`` keeps; past it, it starts over.
_MAX_SYSTEMS = 4096


@dataclass(frozen=True)
class Assignment:
    """A (partial) homomorphism candidate: phi on generators, psi on cells."""

    phi: dict[str, int]
    psi: dict[str, int]


@dataclass(frozen=True)
class CountReport:
    count: int
    one_handles: int
    invariant: Fraction
    method: str


def evaluate_free_word(
    word: FreeWord, assignment: Assignment, cm: FiniteCrossedModule
) -> int:
    """Evaluate a base word under phi; returns a base element index."""
    base = cm.base
    out = base.identity
    for gen, sign in word.letters:
        try:
            value = assignment.phi[gen]
        except KeyError:
            raise EvaluationError(f"generator {gen!r} is unassigned") from None
        out = base.mul(out, value if sign > 0 else base.inv(value))
    return out


def evaluate_crossed_word(
    crossed: CrossedWord, assignment: Assignment, cm: FiniteCrossedModule
) -> int:
    """Evaluate a crossed word under (phi, psi); returns a fiber element index."""
    fiber = cm.fiber
    out = fiber.identity
    for conjugator, cell, sign in crossed.terms:
        try:
            value = assignment.psi[cell]
        except KeyError:
            raise EvaluationError(f"cell {cell!r} is unassigned") from None
        moved = cm.act(evaluate_free_word(conjugator, assignment, cm), value)
        out = fiber.mul(out, moved if sign > 0 else fiber.inv(moved))
    return out


Letters = tuple[tuple[int, int], ...]
Term = tuple[Letters, int, int]


@dataclass(frozen=True)
class CompiledPresentation:
    """A validated presentation without its cancelling pairs, every id
    replaced by its position.

    ``cells`` are the cells that remain, in declaration order, and cell
    positions index them.  ``boundaries[i]`` is the boundary word of cell i
    as (generator position, sign) letters; ``relations`` are the relations
    that remain, each as (compiled conjugator, cell position, sign) terms,
    empty relations included.  The number of 1-handles is not kept: it is
    read from the presentation.  Only ``compile_presentation`` builds one,
    so holding one means the presentation passed ``validate_presentation``.
    """

    generators: tuple[str, ...]
    cells: tuple[str, ...]
    boundaries: tuple[Letters, ...]
    relations: tuple[tuple[Term, ...], ...]


def compile_presentation(pres: CrossedPresentation) -> CompiledPresentation:
    """Validate ``pres``, cancel its 2-handle/3-handle pairs and index the
    rest for ``_count``: the one place a presentation is validated, from a
    movie, a ``pres v1`` file or code.

    A cell in exactly one term of all the relations is dropped with its
    relation, which fixes its value (see the module docstring), and the
    other cells of that relation each lose their terms in it; the cells
    this leaves in one term go the same way, until none is left.  A cell
    left in no term stays, free.  Positions index the cells that remain.
    """
    report = validate_presentation(pres)
    if not report.ok:
        name, witness = report.violations[0]
        raise InvalidPresentationError(
            f"presentation violates {name} at witness {witness}"
        )
    gen_pos = {g: i for i, g in enumerate(pres.generators)}
    cell_pos = {c: i for i, c in enumerate(pres.cells)}

    def letters(word: FreeWord) -> Letters:
        if not word.letters:
            return ()
        return tuple([(gen_pos[gen], sign) for gen, sign in word.letters])

    uses = [0] * len(pres.cells)  # terms of each cell over all relations
    where = [0] * len(pres.cells)  # the sum of their relation indices
    relations = []
    for r, relation in enumerate(pres.relations):
        terms = tuple([(letters(w), cell_pos[cell], sign)
                       for w, cell, sign in relation.terms])
        for _, pos, _ in terms:
            uses[pos] += 1
            where[pos] += r
        relations.append(terms)
    # A cell in one term cancels with its relation; ``where`` then names it.
    cancelled, dropped = set(), set()
    queue = [pos for pos, n in enumerate(uses) if n == 1]
    while queue:
        pos = queue.pop()
        if uses[pos] != 1:  # its relation went with another cell
            continue
        r = where[pos]
        cancelled.add(pos)
        dropped.add(r)
        for _, other, _ in relations[r]:
            uses[other] -= 1
            where[other] -= r
            if uses[other] == 1:
                queue.append(other)
    cells = [pos for pos in range(len(pres.cells)) if pos not in cancelled]
    if cancelled:  # number the cells that remain
        new = {pos: i for i, pos in enumerate(cells)}
        relations = [tuple([(w, new[pos], sign) for w, pos, sign in terms])
                     for r, terms in enumerate(relations) if r not in dropped]
    names = tuple([pres.cells[pos] for pos in cells])
    return CompiledPresentation(
        pres.generators,
        names,
        tuple([letters(pres.cell_boundary[c]) for c in names]),
        tuple(relations),
    )


def _eval_compiled(compiled: Letters, phi_tuple, base) -> int:
    out = base.identity
    for pos, sign in compiled:
        value = phi_tuple[pos]
        out = base.mul(out, value if sign > 0 else base.inv(value))
    return out


def phi_classes(cm: FiniteCrossedModule, n_gens: int, budget: Budget):
    """(phi, weight) pairs whose weights, times the count at each phi, add up
    to the count over all of base ** n_gens; the weights sum to
    |base| ** n_gens.

    With K = ker(boundary) trivial, each phi has one psi or none, which
    exists iff phi of every cell boundary lies in im(boundary), normal in
    the base; relations hold, their values lying in K.  So one lift of each
    assignment into base / im(boundary) stands for |im| ** n_gens phis.
    Otherwise (phi, psi) -> (g phi g^-1, g |> psi) is a bijection on
    homomorphisms, so one phi per orbit of simultaneous conjugation stands
    for its orbit.  The orbits are taken generator by generator, each under
    the centraliser of the ones before; once that centraliser is central
    the rest of phi is the plain product, so an abelian base runs exactly
    that.  The coset, orbit and centraliser work is charged to ``budget``.
    """
    base = cm.base
    if cm.kernel.order == 1:
        budget.spend(cm.fiber.order + base.order)
        image = set(cm.boundary)
        covered = [False] * base.order
        lifts = []
        for g in base.elements:
            if not covered[g]:
                lifts.append(g)
                for h in image:
                    covered[base.mul(g, h)] = True
        weight = len(image) ** n_gens
        for phi_tuple in product(lifts, repeat=n_gens):
            yield phi_tuple, weight
        return
    n_central = len(base.center)  # the center lies in every centraliser
    orbits_of: dict[tuple[int, ...], list] = {}
    phi = [0] * n_gens
    # One frame per position assigned: its orbits not yet tried, and the
    # weight of the prefix before it.
    frames: list = []
    stabiliser, weight = tuple(base.elements), 1
    while True:
        depth = len(frames)
        if depth == n_gens or len(stabiliser) == n_central:
            head = tuple(phi[:depth])
            for rest in product(base.elements, repeat=n_gens - depth):
                yield head + rest, weight
        else:
            orbits = orbits_of.get(stabiliser)
            if orbits is None:
                orbits = orbits_of[stabiliser] = _orbits(base, stabiliser, budget)
            frames.append((iter(orbits), weight))
        while frames:
            untried, before = frames[-1]
            step = next(untried, None)
            if step is not None:
                phi[len(frames) - 1], size, stabiliser = step
                weight = before * size
                break
            frames.pop()
        else:
            return


def _orbits(base, stabiliser: tuple[int, ...], budget: Budget) -> list:
    """(least element, size, centraliser in ``stabiliser``) of each orbit of
    ``stabiliser`` acting on ``base`` by conjugation; |stabiliser| steps each."""
    table, inverse = base.product, base.inverse
    seen = [False] * base.order
    out = []
    for x in base.elements:
        if seen[x]:
            continue
        budget.spend(len(stabiliser))
        fixing = []
        for s in stabiliser:
            row = table[s]
            moved = table[row[x]][inverse[s]]
            seen[moved] = True
            if moved == x:
                fixing.append(s)
        out.append((x, len(stabiliser) // len(fixing), tuple(fixing)))
    return out


def count_homomorphisms_naive(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> int:
    """Reference oracle: enumerate every (phi, psi) pair with no pruning.

    The full product space must fit under the cap, otherwise a
    ``NaiveCapExceeded`` is raised up front.  Words are evaluated from the
    presentation itself, not from its compiled form, so that ``_count`` is
    checked against an independent evaluation.
    """
    compile_presentation(pres)
    base, fiber = cm.base, cm.fiber
    gens, cells = pres.generators, pres.cells
    space = base.order ** len(gens) * fiber.order ** len(cells)
    if space > work_cap:
        raise NaiveCapExceeded(
            f"naive enumeration space {space} exceeds the cap {work_cap}"
        )
    total = 0
    for phi_tuple in product(base.elements, repeat=len(gens)):
        phi = dict(zip(gens, phi_tuple))
        for psi_tuple in product(fiber.elements, repeat=len(cells)):
            assignment = Assignment(phi, dict(zip(cells, psi_tuple)))
            ok = True
            for cell, value in zip(cells, psi_tuple):
                want = evaluate_free_word(pres.cell_boundary[cell], assignment, cm)
                if cm.boundary[value] != want:
                    ok = False
                    break
            if not ok:
                continue
            for relation in pres.relations:
                if evaluate_crossed_word(relation, assignment, cm) != fiber.identity:
                    ok = False
                    break
            if ok:
                total += 1
    return total


def count_homomorphisms(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> int:
    """Count homomorphisms into a module whose boundary is injective, by the
    ``backtracking`` door of ``_count``; ``ValueError`` on any other module."""
    if cm.kernel.order != 1:
        raise ValueError("count_homomorphisms needs an injective boundary")
    return _count(compile_presentation(pres), cm, Budget(work_cap))


def count_linear_fastpath(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> int:
    """Count homomorphisms into any module, by the ``linear`` door of
    ``_count``."""
    return _count(compile_presentation(pres), cm, Budget(work_cap))


def _count(compiled: CompiledPresentation, cm: FiniteCrossedModule, budget: Budget) -> int:
    """The count over ``phi_classes`` behind both doors (module docstring).

    e_c is the least element of cell c's boundary fiber.  R_r lies in K,
    since its boundary is phi of the relation's trivial boundary word, and
    phi contributes |K|**cells / |image M| if (R_r ** -1)_r lies in the
    image of M(k) = (sum(s g |> k_c))_r, else 0.  In the coordinates of
    ``cm.kernel`` the image, lifted to (Z/N)**(d * relations) with N the
    exponent of K, is spanned by one sparse row per (cell, generator of K)
    and by K's relation vectors in each relation's block, so
    |image M| = |span| / |relation span|**relations.
    """
    base, fiber, kernel = cm.base, cm.fiber, cm.kernel
    n_gens, n_cells = len(compiled.generators), len(compiled.cells)
    chosen: list[int | None] = [None] * base.order  # e_c over g; None off im
    for e in reversed(fiber.elements):
        chosen[cm.boundary[e]] = e
    if kernel.order > 1:
        coords, modulus, d = kernel.coords, kernel.exponent, len(kernel.generators)
        width = d * len(compiled.relations)
        # |K|**cells * |relation span|**relations, the relation span having
        # N**d / |K| elements.
        scale = kernel.order**n_cells * (modulus**d // kernel.order) ** len(compiled.relations)
        # The system depends on phi only through the action on K of each
        # conjugator and the right-hand side: phis that agree on both share it.
        kinds: dict = {}
        kind = [kinds.setdefault(images, len(kinds)) for images in kernel.action]
        spans: dict[tuple, int] = {}

    total = 0
    for phi_tuple, weight in phi_classes(cm, n_gens, budget):
        budget.spend(1 + n_gens)
        cosets = [chosen[_eval_compiled(word, phi_tuple, base)]
                  for word in compiled.boundaries]
        if None in cosets:
            continue
        if kernel.order == 1:
            total += weight
            continue
        conjugators: list[list[int]] = []  # phi of each term's conjugator
        target: dict[int, int] = {}  # the coordinates of each R_r ** -1
        for r, terms in enumerate(compiled.relations):
            budget.spend(1 + len(terms))
            constant = fiber.identity
            values = []
            for w, pos, sign in terms:
                g = _eval_compiled(w, phi_tuple, base)
                values.append(g)
                moved = cm.action[g][cosets[pos]]
                constant = fiber.mul(constant, moved if sign > 0 else fiber.inv(moved))
            conjugators.append(values)
            for j, entry in enumerate(coords[fiber.inv(constant)]):
                if entry:
                    target[r * d + j] = entry
        key = (tuple(kind[g] for values in conjugators for g in values),
               tuple(target.items()))
        span = spans.get(key)
        if span is None:
            rows: list[dict[int, int]] = [{} for _ in range(n_cells * d)]
            for r, (terms, values) in enumerate(zip(compiled.relations, conjugators)):
                budget.spend(1 + len(terms) * d)
                offset = r * d
                for (_, pos, sign), g in zip(terms, values):
                    for i, image in enumerate(kernel.action[g]):
                        row = rows[pos * d + i]
                        for j, value in image:
                            row[offset + j] = row.get(offset + j, 0) + sign * value
                for relation in kernel.relations:
                    rows.append({offset + j: v for j, v in enumerate(relation) if v})
            if len(spans) == _MAX_SYSTEMS:  # bounds memory on a large phi space
                spans.clear()
            span = spans[key] = _span_order(rows, target, modulus, width, budget)
        if span:
            total += weight * (scale // span)
    return total


def _span_order(rows, target, modulus, width, budget) -> int:
    """|span of rows| in (Z/modulus)**width, or 0 if ``target`` is outside it.

    Rows and target are sparse {column: value} maps.  Columns are taken left
    to right (Howell, "Spans in the module (Z_m)^s", Linear Multilinear
    Algebra 19, 1986): the rows leading at a column are folded into one
    pivot by extended-gcd steps, which keep the span and move the other row
    past the column, and the pivot's annihilator multiple, zero at the
    column, is put back.  So the rows leading after a column span every
    vector of the span that is zero up to it, the pivot at a column with
    gcd g against the modulus multiplies the order by modulus / g, and
    ``target`` is reduced one pivot at a time.  Rows are kept in buckets by
    leading column.  A row equal to one already in its bucket adds nothing
    to the span and is dropped, so the rows left over at one column do not
    pile up in the next, and a path-shaped system is eliminated in linear
    time.
    """
    buckets: dict[int, list[dict[int, int]]] = {}

    def put(row: dict[int, int]) -> None:
        if row:
            bucket = buckets.setdefault(min(row), [])
            if row not in bucket:
                bucket.append(row)

    for row in rows:
        put({c: v % modulus for c, v in row.items() if v % modulus})
    order = 1
    for col in range(width):
        leading = buckets.pop(col, None)
        want = target.get(col, 0)
        if leading is None:
            if want:
                return 0
            continue
        pivot = leading[0]
        for row in leading[1:]:
            a, b = pivot[col], row[col]
            g, s, t = _extended_gcd(a, b)
            put(_combine(b // g, pivot, -(a // g), row, modulus, budget))
            pivot = _combine(s, pivot, t, row, modulus, budget)
        g = gcd(pivot[col], modulus)
        order *= modulus // g
        if g > 1:  # a unit pivot's annihilator multiple is zero
            put(_combine(modulus // g, pivot, 0, {}, modulus, budget))
        if want:
            if want % g:
                return 0
            unit = pow(pivot[col] // g, -1, modulus // g)
            target = _combine(1, target, -(want // g) * unit, pivot, modulus, budget)
    return order


def _combine(x: int, p: dict, y: int, q: dict, modulus: int, budget: Budget) -> dict:
    """x p + y q mod ``modulus``, zero entries dropped; one step per entry read."""
    budget.spend(len(p) + len(q))
    out = {c: x * v for c, v in p.items()}
    for c, v in q.items():
        out[c] = out.get(c, 0) + y * v
    return {c: v % modulus for c, v in out.items() if v % modulus}


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b, for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def select_method(cm: FiniteCrossedModule) -> str:
    """The door of ``_count`` that ``count_report`` takes on ``cm``.

    ``backtracking`` (``count_homomorphisms``) iff the boundary is injective
    on a nontrivial fiber, else ``linear`` (``count_linear_fastpath``).  Both
    run the same loop; the name is the report's ``method`` line, and the
    benchmark's tracer reads it to say which door ran.
    """
    if cm.kernel.order == 1 and cm.fiber.order > 1:
        return METHOD_BACKTRACKING
    return METHOD_LINEAR


def invariant(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> Fraction:
    """The exact rational count / (#fiber)**pres.one_handles."""
    return count_report(pres, cm, work_cap=work_cap).invariant


def count_report(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> CountReport:
    method = select_method(cm)
    # The doors are looked up at call time, so a wrapper patched onto this
    # module sees every call.
    if method == METHOD_LINEAR:
        count = count_linear_fastpath(pres, cm, work_cap=work_cap)
    else:
        count = count_homomorphisms(pres, cm, work_cap=work_cap)
    value = Fraction(count, cm.fiber.order**pres.one_handles)
    return CountReport(count, pres.one_handles, value, method)


def _decimal(n: int) -> str:
    # Exact at any size: str(n) refuses more than sys.get_int_max_str_digits()
    # digits (4300 by default), and that limit is one setting for the process.
    return str(Decimal(n))


def format_count_report(report: CountReport, elapsed_ms: int) -> str:
    """The report text; every value is printed exactly, whatever its size."""
    return (
        f"count {_decimal(report.count)}\n"
        f"one_handles {report.one_handles}\n"
        f"invariant {_decimal(report.invariant.numerator)}/"
        f"{_decimal(report.invariant.denominator)}\n"
        f"method {report.method}\n"
        f"elapsed_ms {elapsed_ms}\n"
    )
