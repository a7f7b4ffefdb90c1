"""Counting crossed-module homomorphisms and the resulting invariant.

A homomorphism from a presented free crossed module into a finite crossed
module is determined by a base assignment phi (generator -> base element)
and a cell assignment psi (cell -> fiber element) such that

  * the boundary of psi(cell) equals phi evaluated on the cell's boundary
    word, and
  * every relation, evaluated as a product of (phi(conjugator) acting on
    psi(cell)) to its sign, is the fiber identity.

The invariant of a complement with b1 one-handles is the exact rational
count / (#fiber)**b1.  ``count_report`` runs a linear-algebra fast path on
targets with identity boundary and elementary abelian fiber, and a pruned
backtracking search on the others; a naive full-product oracle checks both.
All arithmetic is exact; counts are arbitrary-precision integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import product

from .budget import DEFAULT_WORK_CAP, Budget
from .crossed import FiniteCrossedModule, boundary_fibers
from .errors import (
    EvaluationError,
    FastPathUnavailable,
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
    """A validated presentation with every id replaced by its position.

    ``boundaries[i]`` is the boundary word of cell i as (generator position,
    sign) letters; ``relations[r]`` is relation r as (compiled conjugator,
    cell position, sign) terms, empty relations included.  Only
    ``compile_presentation`` builds one, so holding one means the
    presentation passed ``validate_presentation``.
    """

    generators: tuple[str, ...]
    cells: tuple[str, ...]
    boundaries: tuple[Letters, ...]
    relations: tuple[tuple[Term, ...], ...]


def compile_presentation(pres: CrossedPresentation) -> CompiledPresentation:
    """Validate ``pres`` once and index it for the counting engines."""
    report = validate_presentation(pres)
    if not report.ok:
        name, witness = report.violations[0]
        raise InvalidPresentationError(
            f"presentation violates {name} at witness {witness}"
        )
    gen_pos = {g: i for i, g in enumerate(pres.generators)}
    cell_pos = {c: i for i, c in enumerate(pres.cells)}

    def letters(word: FreeWord) -> Letters:
        return tuple((gen_pos[gen], sign) for gen, sign in word.letters)

    return CompiledPresentation(
        pres.generators,
        pres.cells,
        tuple(letters(pres.cell_boundary[c]) for c in pres.cells),
        tuple(
            tuple((letters(w), cell_pos[cell], sign) for w, cell, sign in relation.terms)
            for relation in pres.relations
        ),
    )


def _eval_compiled(compiled: Letters, phi_tuple, base) -> int:
    out = base.identity
    for pos, sign in compiled:
        value = phi_tuple[pos]
        out = base.mul(out, value if sign > 0 else base.inv(value))
    return out


def count_homomorphisms(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> int:
    """Count homomorphisms by backtracking over cells within each phi.

    Base generators are assigned in declaration order, then cells in
    declaration order; each cell's candidates are the fiber elements over
    phi of its boundary word, and a relation is checked as soon as its last
    cell is assigned.
    """
    compiled = compile_presentation(pres)
    base, fiber = cm.base, cm.fiber
    n_gens, n_cells = len(compiled.generators), len(compiled.cells)
    fibers = boundary_fibers(cm)
    budget = Budget(work_cap)

    # Relations grouped by depth, the last cell position they mention, in
    # declaration order; an empty relation always holds and is dropped.
    by_depth: list[list[tuple[Term, ...]]] = [[] for _ in range(n_cells)]
    for terms in compiled.relations:
        if terms:
            by_depth[max(pos for _, pos, _ in terms)].append(terms)
    # First depth at or beyond which no relation can still fire; unconstrained
    # suffixes contribute a plain product of candidate counts.
    free_tail = 0
    for depth in range(n_cells):
        if by_depth[depth]:
            free_tail = depth + 1

    total = 0
    psi = [0] * n_cells
    for phi_tuple in product(base.elements, repeat=n_gens):
        budget.spend(1 + n_gens)
        candidates = []
        empty = False
        for word in compiled.boundaries:
            target = _eval_compiled(word, phi_tuple, base)
            block = fibers[target]
            if not block:
                empty = True
                break
            candidates.append(block)
        if empty:
            continue
        # Evaluate each relation's conjugators and action rows once per phi.
        checks: list[list[tuple]] = [[] for _ in range(n_cells)]
        for depth, terms_list in enumerate(by_depth):
            for terms in terms_list:
                prepared = tuple(
                    (cm.action[_eval_compiled(w, phi_tuple, base)], pos, sign)
                    for w, pos, sign in terms
                )
                checks[depth].append(prepared)

        def descend(depth: int) -> int:
            if depth >= free_tail:
                out = 1
                for block in candidates[depth:]:
                    out *= len(block)
                return out
            subtotal = 0
            for value in candidates[depth]:
                budget.spend()
                psi[depth] = value
                ok = True
                for prepared in checks[depth]:
                    budget.spend(len(prepared))
                    acc = fiber.identity
                    for action_row, pos, sign in prepared:
                        moved = action_row[psi[pos]]
                        acc = fiber.mul(acc, moved if sign > 0 else fiber.inv(moved))
                    if acc != fiber.identity:
                        ok = False
                        break
                if ok:
                    subtotal += descend(depth + 1)
            return subtotal

        total += descend(0)
    return total


def count_homomorphisms_naive(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> int:
    """Reference oracle: enumerate every (phi, psi) pair with no pruning.

    The full product space must fit under the cap, otherwise a
    ``NaiveCapExceeded`` is raised up front.  Words are evaluated from the
    presentation itself, not from its compiled form, so that the engines
    are checked against an independent evaluation.
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


def count_linear_fastpath(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> int:
    """Linear-algebra count for identity boundary and elementary abelian fiber.

    For each phi, cells whose boundary word evaluates away from the base
    identity contribute nothing; otherwise each relation is one block of
    F_p-linear equations in the cell coordinates (column order: cell in
    declaration order, then basis vector), and the phi contributes
    p**(unknowns - rank) by Gaussian elimination.
    """
    compiled = compile_presentation(pres)
    base = cm.base
    identity = base.identity
    shape = cm.linear_shape
    if isinstance(shape, str):
        raise FastPathUnavailable(shape)
    p, basis, coords = shape
    d = len(basis)
    budget = Budget(work_cap)

    # Action of g as a d x d matrix over F_p, columns indexed by basis vectors.
    matrices = []
    for g in base.elements:
        cols = [coords[cm.act(g, b)] for b in basis]
        matrices.append([[cols[j][i] for j in range(d)] for i in range(d)])

    n_gens = len(compiled.generators)
    unknowns = len(compiled.cells) * d
    total = 0
    for phi_tuple in product(base.elements, repeat=n_gens):
        budget.spend(1 + n_gens)
        if any(
            _eval_compiled(word, phi_tuple, base) != identity
            for word in compiled.boundaries
        ):
            continue
        rows: list[list[int]] = []
        for terms in compiled.relations:
            block = [[0] * unknowns for _ in range(d)]
            for w, pos, sign in terms:
                g = _eval_compiled(w, phi_tuple, base)
                matrix = matrices[g]
                offset = pos * d
                scale = 1 if sign > 0 else p - 1
                for i in range(d):
                    row = block[i]
                    source = matrix[i]
                    for j in range(d):
                        row[offset + j] = (row[offset + j] + scale * source[j]) % p
            rows.extend(block)
            budget.spend(d * max(1, len(terms)))
        rank = _rank_mod_p(rows, p, budget)
        total += p ** (unknowns - rank)
    return total


def _rank_mod_p(rows: list[list[int]], p: int, budget: Budget) -> int:
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    col = 0
    while col < width and rank < len(rows):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(value * inv) % p for value in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [
                    (a - factor * b) % p for a, b in zip(rows[r], rows[rank])
                ]
        budget.spend(len(rows))
        rank += 1
        col += 1
    return rank


def select_method(cm: FiniteCrossedModule) -> str:
    """The engine ``count_report`` runs: linear where it applies, else backtracking."""
    return METHOD_BACKTRACKING if isinstance(cm.linear_shape, str) else METHOD_LINEAR


def invariant(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    one_handles: int,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> Fraction:
    """The exact rational count / (#fiber)**one_handles."""
    return count_report(pres, cm, one_handles, work_cap=work_cap).invariant


def count_report(
    pres: CrossedPresentation,
    cm: FiniteCrossedModule,
    one_handles: int,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> CountReport:
    if one_handles < 0:
        raise ValueError("one_handles must be nonnegative")
    method = select_method(cm)
    # Engines are looked up at call time, so a wrapper patched onto this
    # module sees every call.
    if method == METHOD_LINEAR:
        count = count_linear_fastpath(pres, cm, work_cap=work_cap)
    else:
        count = count_homomorphisms(pres, cm, work_cap=work_cap)
    value = Fraction(count, cm.fiber.order**one_handles)
    return CountReport(count, one_handles, value, method)


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
