from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from xmod import counting, crossed
from xmod.battery import standard_battery
from xmod.budget import DEFAULT_WORK_CAP, Budget
from xmod.counting import (
    METHOD_BACKTRACKING,
    METHOD_LINEAR,
    Assignment,
    CompiledPresentation,
    CountReport,
    compile_presentation,
    count_homomorphisms,
    count_homomorphisms_naive,
    count_linear_fastpath,
    count_report,
    evaluate_crossed_word,
    evaluate_free_word,
    format_count_report,
    invariant,
    phi_classes,
    select_method,
)
from xmod.crossed import (
    FiniteCrossedModule,
    build_conjugation_crossed_module,
    build_group_algebra_crossed_module,
    ga_index,
)
from xmod.errors import (
    EvaluationError,
    InvalidPresentationError,
    NaiveCapExceeded,
    WorkCapExceeded,
)
from xmod.fixtures import FIXTURE_NAMES
from xmod.fuzz import inversion_module, module_pool, random_instances, sign_module
from xmod.groups import FiniteGroup, build_cyclic_group, build_symmetric_group
from xmod.presentations import (
    CrossedPresentation,
    CrossedWord,
    free_product,
    parse_presentation_text,
    stabilize,
)
from xmod.words import EMPTY_WORD, FreeWord, parse_word

from conftest import chain


def word(text: str) -> FreeWord:
    return parse_word(text)


def sphere() -> CrossedPresentation:
    return CrossedPresentation(("X",), ("e",), {"e": word("X")})


def inversion_module_z2_z4() -> FiniteCrossedModule:
    """Z2 acting on Z2 x Z4 by inversion, with trivial boundary; (a, b) is
    fiber element 4a + b."""
    pairs = [(a, b) for a in range(2) for b in range(4)]
    index = {pair: i for i, pair in enumerate(pairs)}
    fiber = FiniteGroup(8, tuple(
        tuple(index[((a + c) % 2, (b + d) % 4)] for c, d in pairs) for a, b in pairs))
    inverse = tuple(index[(a, -b % 4)] for a, b in pairs)
    return FiniteCrossedModule(build_cyclic_group(2), fiber, (0,) * 8,
                               (tuple(range(8)), inverse))


# Targets beyond the battery: K = ker(boundary) cyclic of order 4 and 8,
# and Z2 x Z4.
EXTRA_MODULES = {"inv_z2_z4": inversion_module(4), "inv_z2_z8": inversion_module(8),
                 "inv_z2_z2z4": inversion_module_z2_z4()}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_evaluate_free_word_in_s3():
    cm = build_conjugation_crossed_module(build_symmetric_group(3))
    # indices in lexicographic order: 2 = (1,0,2), 1 = (0,2,1)
    assignment = Assignment({"X": 2, "Y": 1}, {})
    value = evaluate_free_word(word("X Y"), assignment, cm)
    # (1,0,2) after (0,2,1): i -> X[Y[i]] = (1,2,0) which is index 3
    assert value == 3
    assert evaluate_free_word(word("X X^-1"), assignment, cm) == cm.base.identity
    assert evaluate_free_word(EMPTY_WORD, assignment, cm) == cm.base.identity


def test_evaluate_unassigned_raises():
    cm = build_conjugation_crossed_module(build_cyclic_group(2))
    with pytest.raises(EvaluationError):
        evaluate_free_word(word("Z"), Assignment({}, {}), cm)
    with pytest.raises(EvaluationError):
        evaluate_crossed_word(
            CrossedWord(((EMPTY_WORD, "e", 1),)), Assignment({}, {}), cm
        )


def test_evaluate_crossed_word_group_algebra(battery_by_name):
    # In the group-algebra target over Z2 with p=2: psi(f) = delta_0, phi(X)=1.
    # The word (1; f; +)(X; f; +) evaluates to delta_0 + delta_1 = index 3.
    cm = battery_by_name["ga_z2_p2"]
    delta0 = ga_index((1, 0), 2)
    assignment = Assignment({"X": 1}, {"f": delta0})
    crossed = CrossedWord(((EMPTY_WORD, "f", 1), (word("X"), "f", 1)))
    assert evaluate_crossed_word(crossed, assignment, cm) == ga_index((1, 1), 2)
    # Same word with a minus sign collapses (characteristic two).
    crossed = CrossedWord(((EMPTY_WORD, "f", 1), (EMPTY_WORD, "f", -1)))
    assert evaluate_crossed_word(crossed, assignment, cm) == cm.fiber.identity


def test_evaluate_spun_hopf_style_term(battery_by_name):
    # Mixed-cell relation in the Z3 group-algebra target: with phi(X)=1,
    # phi(Y)=0 the word (1; f; +)(X; f; -) shifts then cancels one delta.
    cm = battery_by_name["ga_z3_p2"]
    f = ga_index((0, 1, 0), 2)
    assignment = Assignment({"X": 1, "Y": 0}, {"f": f, "h": f})
    crossed = CrossedWord(((EMPTY_WORD, "f", 1), (word("X"), "f", -1)))
    got = evaluate_crossed_word(crossed, assignment, cm)
    assert got == ga_index((0, 1, 1), 2)


# ---------------------------------------------------------------------------
# Compiled presentations
# ---------------------------------------------------------------------------


def two_cell_presentation(*relation: tuple) -> CrossedPresentation:
    return CrossedPresentation(
        ("X", "Y"),
        ("e", "f"),
        {"e": word("X Y^-1"), "f": EMPTY_WORD},
        (CrossedWord(), CrossedWord(relation)),
    )


def test_compile_presentation_indexes_ids():
    # Each cell is in two terms, so nothing cancels.
    compiled = compile_presentation(two_cell_presentation(
        (EMPTY_WORD, "e", 1), (word("Y"), "f", 1), (EMPTY_WORD, "e", -1), (EMPTY_WORD, "f", -1)))
    assert compiled.generators == ("X", "Y")
    assert compiled.cells == ("e", "f")
    assert compiled.boundaries == (((0, 1), (1, -1)), ())
    assert compiled.relations == (
        (), (((), 0, 1), (((1, 1),), 1, 1), ((), 0, -1), ((), 1, -1)))


def test_compile_presentation_cancels_pairs():
    # f is in one term: it goes with its relation, and e, left in none,
    # stays; the empty relation stays too.
    compiled = compile_presentation(two_cell_presentation(
        (EMPTY_WORD, "e", 1), (word("Y"), "f", 1), (EMPTY_WORD, "e", -1)))
    assert compiled == CompiledPresentation(("X", "Y"), ("e",), (((0, 1), (1, -1)),), ((),))
    # Each cancellation leaves the next cell of the chain in one term.
    assert compile_presentation(chain(5)) == CompiledPresentation(("X",), ("c0",), ((),), ())
    # The cells that remain are numbered again: s moves from 2 to 1.
    pres = parse_presentation_text(
        "pres v1\ngens X\ncells p q s\nbnd p = 1\nbnd q = 1\nbnd s = 1\n"
        "rel = (1 ; p ; +) (1 ; p ; -) (X ; s ; +) (1 ; s ; -)\n"
        "rel = (1 ; q ; +) (1 ; s ; -)\n")
    assert compile_presentation(pres) == CompiledPresentation(
        ("X",), ("p", "s"), ((), ()), ((((), 0, 1), ((), 0, -1), (((0, 1),), 1, 1), ((), 1, -1)),))


@pytest.mark.parametrize("target, shape", [
    ("trivial1", (0, 0)), ("trivial2", (1, 0)), ("trivial3", (1, 0)), ("trivial4", (0, 0)),
    ("two_spheres", (0, 0)), ("two_tori", (4, 0)), ("spun_hopf", (4, 2)),
    ("spun_trefoil", (2, 1)), ("deep_chain", (1, 0)), ("padded_chain", (1200, 1199)),
])
def test_compiled_shapes(target, shape, compiled_fixtures, deep_chain, padded_chain):
    # (cells, relations) left once the cancelling pairs are gone.
    pres = {**compiled_fixtures, "deep_chain": deep_chain, "padded_chain": padded_chain}[target]
    compiled = compile_presentation(pres)
    assert (len(compiled.cells), len(compiled.relations)) == shape


def test_count_report_validates_once(monkeypatch, battery_by_name):
    calls = []
    original = counting.validate_presentation

    def counted(pres):
        calls.append(pres)
        return original(pres)

    monkeypatch.setattr(counting, "validate_presentation", counted)
    for name in ("ga_z2_p2", "conj_s3"):  # linear, then backtracking
        calls.clear()
        count_report(sphere(), battery_by_name[name])
        assert len(calls) == 1, name
    calls.clear()
    count_homomorphisms_naive(sphere(), battery_by_name["conj_s3"])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Counts against closed forms
# ---------------------------------------------------------------------------


def reported(pres: CrossedPresentation, cm: FiniteCrossedModule) -> int:
    """The count by the engine the module picks."""
    return count_report(pres, cm).count


def test_sphere_counts(battery):
    # One generator, one cell with boundary X: for phi(X) = g the cell ranges
    # over the boundary fiber of g, and these fibers partition the target
    # fiber, so the total is its order.
    pres = sphere()
    for _, cm in battery:
        assert reported(pres, cm) == cm.fiber.order


def test_free_cell_over_trivial_boundary(battery):
    # Boundary word 1 leaves psi ranging over the kernel of the boundary.
    pres = CrossedPresentation(("X",), ("e",), {"e": EMPTY_WORD})
    for _, cm in battery:
        kernel = sum(
            1 for e in range(cm.fiber.order)
            if cm.boundary[e] == cm.base.identity
        )
        assert reported(pres, cm) == cm.base.order * kernel


def test_no_generators_no_cells(battery):
    pres = CrossedPresentation((), (), {})
    for _, cm in battery:
        assert reported(pres, cm) == 1


def test_relation_can_cut_count(battery_by_name):
    # Two cells over the same boundary, relation e = f pointwise.
    pres = CrossedPresentation(
        ("X",),
        ("e", "f"),
        {"e": word("X"), "f": word("X")},
        (CrossedWord(((EMPTY_WORD, "e", 1), (EMPTY_WORD, "f", -1))),),
    )
    cm = build_conjugation_crossed_module(build_symmetric_group(3))
    # For each phi(X)=g the boundary fiber is {g} alone, so the relation
    # is automatic; count equals the base order.
    assert count_homomorphisms(pres, cm) == 6

    ga = battery_by_name["ga_z2_p2"]
    # Boundary is identity-only: phi(X) must make the boundary word land on
    # the identity... X evaluates to phi(X), so only phi(X)=0 contributes,
    # and then e = f cuts 16 pairs to 4.
    assert count_linear_fastpath(pres, ga) == 4


def test_invalid_presentation_is_rejected(battery_by_name):
    bad = CrossedPresentation(("X",), ("e",), {"e": word("Z")})
    # The closed form counts only modules with an injective boundary.
    for engine, name in ((count_homomorphisms, "conj_s3"),
                         (count_homomorphisms_naive, "ga_z2_p2"),
                         (count_linear_fastpath, "ga_z2_p2")):
        with pytest.raises(InvalidPresentationError, match="violates boundary.unknown_generator"):
            engine(bad, battery_by_name[name])


def test_relation_order_does_not_change_count(compiled_fixtures, battery_by_name):
    pres = compiled_fixtures["spun_hopf"]
    reordered = CrossedPresentation(
        pres.generators,
        pres.cells,
        pres.cell_boundary,
        tuple(reversed(pres.relations)),
    )
    cm = battery_by_name["ga_z2_p2"]
    assert count_linear_fastpath(pres, cm) == count_linear_fastpath(reordered, cm)


def test_work_cap_raises():
    # A nonabelian base with K nontrivial: phi runs over the 49 conjugation
    # orbits of S3**3, so the cap is reached inside the phi loop.
    pres = free_product(sphere(), free_product(sphere(), sphere()))
    with pytest.raises(WorkCapExceeded):
        count_linear_fastpath(pres, sign_module(), work_cap=10)


# Exact step counts are machine-independent cost gates: each case succeeds
# with ``work_cap=steps`` and stops with ``steps - 1``.
EMPTY_RELATION_PRES = (
    "pres v1\ngens X\ncells e\nbnd e = 1\n"
    "rel =\nrel = (1 ; e ; +) (X ; e ; -)\n"
)


@pytest.mark.parametrize(
    "engine, target, module, steps",
    [
        # K is trivial and im = S3: one phi stands for all 36.
        (count_homomorphisms, "spun_hopf", "conj_s3", 15),
        # K is trivial and im = A3: four lifts into S3 / A3.
        (count_homomorphisms, "spun_trefoil", "incl_a3_s3", 21),
        # Both doors run one loop, so with K trivial the linear door charges
        # the same steps and reads no relation either.
        (count_linear_fastpath, "spun_hopf", "conj_s3", 15),
        (count_linear_fastpath, "spun_trefoil", "incl_a3_s3", 21),
        (count_linear_fastpath, "spun_hopf", "ga_z2_p2", 172),
        # The empty relation is still charged by the linear engine.
        pytest.param(count_linear_fastpath, EMPTY_RELATION_PRES, "ga_z2_p2", 24,
                     id="count_linear_fastpath-empty_relation-ga_z2_p2-24"),
        # K = Z4 is not elementary abelian.
        (count_linear_fastpath, "spun_hopf", "inv_z2_z4", 130),
        # The chain cancels to one cell and no relation.
        (count_linear_fastpath, "deep_chain", "inv_z2_z8", 4),
        # Nothing cancels, and with K = Z2 x Z4 each column leaves over a
        # row equal to one already waiting two columns on.
        (count_linear_fastpath, "padded_chain", "inv_z2_z2z4", 91104),
    ],
)
def test_exact_step_counts(engine, target, module, steps, compiled_fixtures, battery_by_name,
                           deep_chain, padded_chain):
    chains = {"deep_chain": deep_chain, "padded_chain": padded_chain}
    if target in compiled_fixtures:
        pres = compiled_fixtures[target]
    elif target in chains:
        pres = chains[target]
    else:
        pres = parse_presentation_text(target)
    cm = {**battery_by_name, **EXTRA_MODULES, **dict(module_pool())}[module]
    # Counts are checked against the naive oracle, and the chains, out of
    # its reach, against their closed form |G| * |E| (trivial boundary).
    if target in chains:
        expected = cm.base.order * cm.fiber.order
    else:
        expected = count_homomorphisms_naive(pres, cm)
    assert engine(pres, cm, work_cap=steps) == expected
    with pytest.raises(WorkCapExceeded):
        engine(pres, cm, work_cap=steps - 1)


# ---------------------------------------------------------------------------
# Phi classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_gens", range(4))
def test_phi_class_weights_cover_the_phi_space(n_gens):
    for name, cm in module_pool():
        classes = list(phi_classes(cm, n_gens, Budget(DEFAULT_WORK_CAP)))
        assert sum(weight for _, weight in classes) == cm.base.order ** n_gens, name
        assert len({phi for phi, _ in classes}) == len(classes), name
        if cm.kernel.order > 1 and len(cm.base.center) == cm.base.order:
            # An abelian base with K nontrivial runs the plain product.
            assert classes == [(phi, 1) for phi in product(cm.base.elements, repeat=n_gens)]


def trefoils(compiled_fixtures, copies: int) -> CrossedPresentation:
    """The free product of ``copies`` spun trefoils: 2 generators each."""
    out = compiled_fixtures["spun_trefoil"]
    for _ in range(copies - 1):
        out = free_product(out, compiled_fixtures["spun_trefoil"])
    return out


@pytest.mark.parametrize("copies, n, count", [(2, 4, 331776), (3, 3, 46656)],
                         ids=["P2-conj_s4", "P3-conj_s3"])
def test_conjugation_targets_count_one_phi(copies, n, count, compiled_fixtures):
    # K is trivial and im = S_n, so one phi stands for all n!**(2 * copies).
    pres = trefoils(compiled_fixtures, copies)
    cm = build_conjugation_crossed_module(build_symmetric_group(n))
    for engine in (count_homomorphisms, count_linear_fastpath):
        assert engine(pres, cm, work_cap=100) == count


def test_group_algebra_over_s3_counts_conjugation_orbits(compiled_fixtures):
    cm = build_group_algebra_crossed_module(build_symmetric_group(3), 2)
    report = count_report(trefoils(compiled_fixtures, 3), cm)
    assert (report.count, report.method) == (56623104000, METHOD_LINEAR)


def boundaries_in_image(pres: CrossedPresentation, cm: FiniteCrossedModule) -> int:
    """#{phi in base ** gens : phi of every cell boundary lies in
    im(boundary)}, by plain enumeration of base ** gens."""
    image = set(cm.boundary)
    total = 0
    for values in product(cm.base.elements, repeat=len(pres.generators)):
        phi = Assignment(dict(zip(pres.generators, values)), {})
        total += all(evaluate_free_word(pres.cell_boundary[c], phi, cm) in image
                     for c in pres.cells)
    return total


def test_injective_boundary_counts_match_closed_form_1(compiled_fixtures):
    # With K trivial a phi has one psi exactly when it maps every cell
    # boundary into the image, and every relation holds: closed form 1,
    # counted without phi_classes.  A free product's condition splits over
    # its factors, so P2 and P3 are enumerated one trefoil at a time.
    modules = [(name, cm) for name, cm in module_pool() if cm.kernel.order == 1]
    modules.append(("conj_s4", build_conjugation_crossed_module(build_symmetric_group(4))))
    assert [name for name, _ in modules] == [
        "conj_z1", "conj_z2", "conj_z3", "conj_z4", "conj_s3", "incl_a3_s3", "conj_s4"]
    trefoil = compiled_fixtures["spun_trefoil"]
    inputs = [(name, pres, (pres,)) for name, pres in compiled_fixtures.items()]
    inputs += [(f"P{k}", trefoils(compiled_fixtures, k), (trefoil,) * k) for k in (2, 3)]
    for label, pres, factors in inputs:
        for name, cm in modules:
            expected = 1
            for factor in factors:
                expected *= boundaries_in_image(factor, cm)
            assert count_homomorphisms(pres, cm) == expected, (label, name)
            assert count_report(pres, cm).count == expected, (label, name)
    draws = 0
    for pres, name, cm in random_instances(5, 1000):
        if cm.kernel.order == 1:
            expected = boundaries_in_image(pres, cm)
            assert count_homomorphisms(pres, cm) == expected, (name, pres)
            assert count_report(pres, cm).count == expected, (name, pres)
            draws += 1
    assert draws > 400


def test_closed_form_refuses_a_non_injective_boundary():
    # It refuses before reading the presentation, invalid as this one is,
    # and the module never picks it there.
    bad = CrossedPresentation(("X",), ("e",), {"e": word("Z")})
    refused = 0
    for name, cm in module_pool():
        if cm.kernel.order == 1:
            continue
        assert select_method(cm) == METHOD_LINEAR, name
        with pytest.raises(ValueError, match="injective boundary"):
            count_homomorphisms(bad, cm)
        refused += 1
    assert refused == 7


def test_naive_cap_is_checked_up_front():
    pres = free_product(sphere(), sphere())
    cm = build_conjugation_crossed_module(build_symmetric_group(3))
    # Space is 6**2 * 6**2 = 1296.
    with pytest.raises(NaiveCapExceeded):
        count_homomorphisms_naive(pres, cm, work_cap=1000)
    assert count_homomorphisms_naive(pres, cm, work_cap=1296) == 36


# ---------------------------------------------------------------------------
# Naive oracle agreement
# ---------------------------------------------------------------------------


def test_engines_agree_on_fixtures(compiled_fixtures, battery):
    for name, pres in compiled_fixtures.items():
        for module_name, cm in battery:
            slow = count_homomorphisms_naive(pres, cm)
            assert reported(pres, cm) == slow, (name, module_name)
            assert count_linear_fastpath(pres, cm) == slow, (name, module_name)


# ---------------------------------------------------------------------------
# Linear engine
# ---------------------------------------------------------------------------


def test_fastpath_applicability(battery_by_name):
    assert select_method(battery_by_name["ga_z2_p2"]) == METHOD_LINEAR
    assert select_method(battery_by_name["ga_z3_p2"]) == METHOD_LINEAR
    assert select_method(battery_by_name["conj_s3"]) == METHOD_BACKTRACKING


SMALL_PRESENTATIONS = (
    "pres v1\ngens X\ncells e\nbnd e = X\n",
    "pres v1\ngens X Y\ncells e f\nbnd e = 1\nbnd f = X Y X^-1 Y^-1\n"
    "rel = (1 ; e ; +) (X ; e ; +) (Y ; e ; -)\n"
    "rel = (X ; f ; +) (X X Y X^-1 Y^-1 ; f ; -) (Y ; e ; +)\n",
)


def test_linear_counts_trivial_action_z4_fiber():
    # Z4 fiber with identity boundary and trivial action: K = Z4 is abelian
    # but not elementary abelian, and the linear engine counts it.
    cm = FiniteCrossedModule(
        build_cyclic_group(1), build_cyclic_group(4), (0, 0, 0, 0), (tuple(range(4)),)
    )
    assert select_method(cm) == METHOD_LINEAR
    for text in SMALL_PRESENTATIONS:
        pres = parse_presentation_text(text)
        assert count_linear_fastpath(pres, cm) == count_homomorphisms_naive(pres, cm)


def test_linear_counts_conjugation_target():
    # An injective boundary: K is trivial and every cell has one candidate;
    # the module keeps the closed form, reported as backtracking, and the
    # linear engine agrees.
    cm = build_conjugation_crossed_module(build_symmetric_group(3))
    assert select_method(cm) == METHOD_BACKTRACKING
    assert count_linear_fastpath(sphere(), cm) == 6
    for text in SMALL_PRESENTATIONS:
        pres = parse_presentation_text(text)
        assert count_linear_fastpath(pres, cm) == count_homomorphisms_naive(pres, cm)


def test_deep_chain_counts_without_recursion(deep_chain, padded_chain):
    # The padded chain keeps 1200 nested cells: the linear engine does not
    # recurse once per cell.  The chain, which cancels, has the same
    # counts, |G| * |E| for a trivial boundary and |G| for an injective one.
    cm = EXTRA_MODULES["inv_z2_z8"]
    conj = build_conjugation_crossed_module(build_symmetric_group(3))
    for pres in (deep_chain, padded_chain):
        assert count_linear_fastpath(pres, cm) == 16
        assert count_homomorphisms(pres, conj) == count_linear_fastpath(pres, conj) == 6


def test_linear_steps_grow_linearly_down_a_chain(monkeypatch):
    # Rows equal to one already waiting at their column are dropped, so the
    # padded chain, which nothing cancels, is eliminated in linear time.
    budgets = []

    class Recording(Budget):
        def __init__(self, cap):
            super().__init__(cap)
            budgets.append(self)
    monkeypatch.setattr(counting, "Budget", Recording)
    cm = EXTRA_MODULES["inv_z2_z2z4"]
    steps = []
    for n_cells in (100, 200, 400):
        assert count_linear_fastpath(chain(n_cells, padded=True), cm) == 16
        steps.append(budgets[-1].steps)
    assert steps[1] <= 2.2 * steps[0] and steps[2] <= 2.2 * steps[1], steps


def _search_module(m) -> FiniteCrossedModule:
    return FiniteCrossedModule(FiniteGroup(len(m.base), m.base),
                               FiniteGroup(len(m.fiber), m.fiber), m.boundary, m.action)


@pytest.fixture(scope="module")
def perfbench_inputs():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        from perfbench import inputs
    finally:
        sys.path.pop(0)
    return inputs


def test_linear_agrees_on_fixtures_and_search_targets(
    perfbench_inputs, compiled_fixtures, battery_by_name
):
    # Every fixture x (battery + the benchmark's search targets), against
    # the benchmark's own counter, which shares no code with xmod: the
    # targets have kernels Z4, Z8, Z2 x Z4 and the Z2 of Q8 -> V4, acted on
    # by Z2 or S3.
    oracle = perfbench_inputs.oracle
    targets = {name: oracle.Module(cm.base.product, cm.fiber.product, cm.boundary, cm.action)
               for name, cm in battery_by_name.items()}
    targets.update(perfbench_inputs.search_targets())
    assert len(targets) == 9
    for fixture in FIXTURE_NAMES:
        pres = compiled_fixtures[fixture]
        plain = oracle.Pres(
            list(pres.generators), list(pres.cells),
            {c: w.letters for c, w in pres.cell_boundary.items()},
            [[(w.letters, c, sign) for w, c, sign in rel.terms] for rel in pres.relations])
        for name, m in targets.items():
            assert count_linear_fastpath(pres, _search_module(m)) == oracle.count_homs(
                plain, m), (fixture, name)


def test_linear_agrees_on_search_random_presentations(perfbench_inputs):
    # The four random presentations the benchmark's search workload draws at
    # seed 1 x its four random-op targets: 16 pairs, against the
    # benchmark's own counter.
    oracle = perfbench_inputs.oracle
    targets = perfbench_inputs.search_targets()
    rng = random.Random("search:1")
    pairs = 0
    for shape in perfbench_inputs.SHAPES:
        plain = perfbench_inputs.random_presentation(rng, shape)
        pres = parse_presentation_text(oracle.format_pres(plain))
        for name in ("inv_z2_z8", "inv_z2_z2z4", "inv_s3_z4", "cq_q8_v4"):
            m = targets[name]
            assert count_linear_fastpath(pres, _search_module(m)) == oracle.count_homs(
                plain, m), (shape, name)
            pairs += 1
    assert pairs == 16


def relabeled(cm: FiniteCrossedModule, rng: random.Random) -> FiniteCrossedModule:
    """``cm`` with its fiber elements renumbered by a random permutation."""
    n = cm.fiber.order
    new = list(range(n))
    rng.shuffle(new)
    old = [0] * n
    for e, i in enumerate(new):
        old[i] = e
    table = cm.fiber.product
    fiber = FiniteGroup(n, tuple(tuple(new[table[old[a]][old[b]]] for b in range(n))
                                 for a in range(n)))
    return FiniteCrossedModule(cm.base, fiber, tuple(cm.boundary[old[i]] for i in range(n)),
                               tuple(tuple(new[row[old[i]]] for i in range(n))
                                     for row in cm.action))


def test_linear_counts_survive_a_full_system_memo(monkeypatch, compiled_fixtures):
    # The per-phi systems are memoised up to a bound, then forgotten; a
    # bound of 2 forces many restarts and must not change a count.
    pres = compiled_fixtures["spun_hopf"]
    modules = [cm for name, cm in module_pool() if name.startswith(("ga_", "inv_", "cq_"))]
    expected = [count_linear_fastpath(pres, cm) for cm in modules]
    monkeypatch.setattr(counting, "_MAX_SYSTEMS", 2)
    assert [count_linear_fastpath(pres, cm) for cm in modules] == expected


def test_relabeled_target_keeps_linear_counts(compiled_fixtures):
    # An isomorphic copy of the target counts the same.  Renumbering moves
    # the identity off index 0, so the chosen coset elements e_c are no
    # longer the identity and the affine right-hand sides are nonzero.
    rng = random.Random(3)
    for name, cm in module_pool():
        copy = relabeled(cm, rng)
        for fixture in ("two_spheres", "spun_hopf", "spun_trefoil"):
            pres = compiled_fixtures[fixture]
            assert count_linear_fastpath(pres, copy) == count_linear_fastpath(pres, cm), (
                name, fixture)


@pytest.mark.parametrize("modulus", [2, 4, 6, 8, 9, 12])
def test_span_order_matches_closure(modulus):
    # Howell elimination against the span built by closure, on random
    # systems with up to 4 rows over (Z/modulus)^width, width <= 3, and
    # random targets in and out of the span.
    rng = random.Random(modulus)
    outside = 0
    for _ in range(150):
        width = rng.randint(1, 3)
        rows = [{c: rng.randrange(modulus) for c in range(width) if rng.random() < 0.7}
                for _ in range(rng.randint(0, 4))]
        span = {(0,) * width}
        frontier = list(span)
        while frontier:
            new = []
            for vec in frontier:
                for row in rows:
                    moved = tuple((vec[c] + row.get(c, 0)) % modulus for c in range(width))
                    if moved not in span:
                        span.add(moved)
                        new.append(moved)
            frontier = new
        vec = tuple(rng.randrange(modulus) for _ in range(width))
        target = {c: v for c, v in enumerate(vec) if v}
        expected = len(span) if vec in span else 0
        outside += vec not in span
        got = counting._span_order(rows, target, modulus, width, counting.Budget(10**6))
        assert got == expected, (rows, target)
    assert outside >= 20


def test_fastpath_matches_naive_with_relations(battery_by_name):
    cm = battery_by_name["ga_z2_p2"]
    pres = CrossedPresentation(
        ("X", "Y"),
        ("e", "f"),
        {"e": EMPTY_WORD, "f": EMPTY_WORD},
        (
            CrossedWord(((EMPTY_WORD, "e", 1), (word("X"), "e", -1))),
            CrossedWord(((word("Y"), "f", 1), (EMPTY_WORD, "e", -1))),
        ),
    )
    assert count_linear_fastpath(pres, cm) == count_homomorphisms_naive(pres, cm)


def test_fastpath_trivial_fiber():
    z2 = build_cyclic_group(2)
    z1 = build_cyclic_group(1)
    cm = FiniteCrossedModule(z2, z1, (0,), ((0,), (0,)))
    assert select_method(cm) == METHOD_LINEAR
    pres = CrossedPresentation(("X",), ("e",), {"e": EMPTY_WORD})
    assert count_linear_fastpath(pres, cm) == 2


# ---------------------------------------------------------------------------
# Method selection, invariants, reports
# ---------------------------------------------------------------------------


def test_select_method(battery_by_name):
    assert select_method(battery_by_name["ga_z2_p2"]) == "linear"
    assert select_method(battery_by_name["conj_s3"]) == "backtracking"


def test_count_with_method_reports_resolution(battery_by_name):
    # The report names the engine the module picked.
    report = count_report(sphere(), battery_by_name["ga_z3_p2"])
    assert report.count == 8 and report.method == "linear"
    report = count_report(sphere(), battery_by_name["conj_s3"])
    assert report.count == 6 and report.method == "backtracking"


def test_kernel_is_worked_out_once_per_module(monkeypatch):
    calls = []
    compute = crossed._kernel_presentation

    def counted(cm):
        calls.append(cm)
        return compute(cm)

    monkeypatch.setattr(crossed, "_kernel_presentation", counted)
    cm = dict(standard_battery())["ga_z2_p2"]  # freshly built, nothing cached
    for _ in range(2):
        report = count_report(sphere(), cm)
        assert report.method == METHOD_LINEAR and report.count == 4
    assert calls == [cm]
    assert cm.kernel.order == 4 and cm.kernel.exponent == 2


def test_invariant_fraction(battery):
    pres = sphere()
    for _, cm in battery:
        assert invariant(pres, cm) == Fraction(1)


def assert_decomposition_free(p, q, cm, label):
    """Stabilizing fixes the invariant and free products multiply it, with
    the exponent read off each presentation."""
    value = invariant(p, cm)
    assert invariant(stabilize(p), cm) == value, label
    assert invariant(free_product(p, q), cm) == value * invariant(q, cm), label


def test_invariant_is_decomposition_free_on_fixtures(battery, compiled_fixtures):
    for name, pres in compiled_fixtures.items():
        for module_name, cm in battery:
            for other, q in compiled_fixtures.items():
                assert_decomposition_free(pres, q, cm, (name, module_name, other))


def test_invariant_is_decomposition_free_on_random_instances():
    instances = list(random_instances(11, 201))
    for (p, name, cm), (q, _, _) in zip(instances, instances[1:]):
        assert_decomposition_free(p, q, cm, (name, p, q))


def test_report_format_golden():
    report = CountReport(40, 2, Fraction(40, 16), "backtracking")
    text = format_count_report(report, 12)
    assert text == (
        "count 40\n"
        "one_handles 2\n"
        "invariant 5/2\n"
        "method backtracking\n"
        "elapsed_ms 12\n"
    )


def test_report_integer_invariant_prints_denominator_one(battery_by_name):
    report = count_report(sphere(), battery_by_name["conj_s3"])
    assert format_count_report(report, 0).splitlines()[2] == "invariant 1/1"
