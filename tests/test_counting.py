from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import pytest

from xmod import counting
from xmod.battery import standard_battery
from xmod.counting import (
    METHOD_BACKTRACKING,
    METHOD_LINEAR,
    Assignment,
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
    select_method,
)
from xmod.crossed import (
    FiniteCrossedModule,
    build_conjugation_crossed_module,
    ga_index,
)
from xmod.errors import (
    EvaluationError,
    FastPathUnavailable,
    InvalidPresentationError,
    NaiveCapExceeded,
    WorkCapExceeded,
)
from xmod.groups import build_cyclic_group, build_symmetric_group
from xmod.presentations import (
    CrossedPresentation,
    CrossedWord,
    free_product,
    parse_presentation_text,
)
from xmod.words import EMPTY_WORD, FreeWord, parse_word


def word(text: str) -> FreeWord:
    return parse_word(text)


def sphere() -> CrossedPresentation:
    return CrossedPresentation(("X",), ("e",), {"e": word("X")})


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


def test_compile_presentation_indexes_ids():
    pres = CrossedPresentation(
        ("X", "Y"),
        ("e", "f"),
        {"e": word("X Y^-1"), "f": EMPTY_WORD},
        (
            CrossedWord(),
            CrossedWord(
                ((EMPTY_WORD, "e", 1), (word("Y"), "f", 1), (EMPTY_WORD, "e", -1))
            ),
        ),
    )
    compiled = compile_presentation(pres)
    assert compiled.generators == ("X", "Y")
    assert compiled.cells == ("e", "f")
    assert compiled.boundaries == (((0, 1), (1, -1)), ())
    assert compiled.relations == ((), (((), 0, 1), (((1, 1),), 1, 1), ((), 0, -1)))


def test_count_report_validates_once(monkeypatch, battery_by_name):
    calls = []
    original = counting.validate_presentation

    def counted(pres):
        calls.append(pres)
        return original(pres)

    monkeypatch.setattr(counting, "validate_presentation", counted)
    for name in ("ga_z2_p2", "conj_s3"):  # linear, then backtracking
        calls.clear()
        count_report(sphere(), battery_by_name[name], 1)
        assert len(calls) == 1, name
    calls.clear()
    count_homomorphisms_naive(sphere(), battery_by_name["conj_s3"])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Backtracking counts against closed forms
# ---------------------------------------------------------------------------


def test_sphere_counts(battery):
    # One generator, one cell with boundary X: for phi(X) = g the cell ranges
    # over the boundary fiber of g, and these fibers partition the target
    # fiber, so the total is its order.
    pres = sphere()
    for _, cm in battery:
        assert count_homomorphisms(pres, cm) == cm.fiber.order


def test_free_cell_over_trivial_boundary(battery):
    # Boundary word 1 leaves psi ranging over the kernel of the boundary.
    pres = CrossedPresentation(("X",), ("e",), {"e": EMPTY_WORD})
    for _, cm in battery:
        kernel = sum(
            1 for e in range(cm.fiber.order)
            if cm.boundary[e] == cm.base.identity
        )
        assert count_homomorphisms(pres, cm) == cm.base.order * kernel


def test_no_generators_no_cells(battery):
    pres = CrossedPresentation((), (), {})
    for _, cm in battery:
        assert count_homomorphisms(pres, cm) == 1


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
    assert count_homomorphisms(pres, ga) == 4


def test_invalid_presentation_is_rejected(battery_by_name):
    bad = CrossedPresentation(("X",), ("e",), {"e": word("Z")})
    cm = battery_by_name["ga_z2_p2"]
    for engine in (count_homomorphisms, count_homomorphisms_naive, count_linear_fastpath):
        with pytest.raises(InvalidPresentationError, match="violates boundary.unknown_generator"):
            engine(bad, cm)


def test_relation_order_does_not_change_count(compiled_fixtures, battery_by_name):
    pres = compiled_fixtures["spun_hopf"].presentation
    reordered = CrossedPresentation(
        pres.generators,
        pres.cells,
        pres.cell_boundary,
        tuple(reversed(pres.relations)),
    )
    cm = battery_by_name["ga_z2_p2"]
    assert count_homomorphisms(pres, cm) == count_homomorphisms(reordered, cm)


def test_work_cap_raises():
    pres = free_product(sphere(), free_product(sphere(), sphere()))
    cm = build_conjugation_crossed_module(build_symmetric_group(3))
    with pytest.raises(WorkCapExceeded):
        count_homomorphisms(pres, cm, work_cap=10)


# Exact step counts are machine-independent cost gates: each case succeeds
# with ``work_cap=steps`` and stops with ``steps - 1``.
EMPTY_RELATION_PRES = (
    "pres v1\ngens X\ncells e\nbnd e = 1\n"
    "rel =\nrel = (1 ; e ; +) (X ; e ; -)\n"
)


@pytest.mark.parametrize(
    "engine, target, module, steps",
    [
        (count_homomorphisms, "spun_hopf", "conj_s3", 684),
        (count_homomorphisms, "spun_trefoil", "ga_z3_p2", 819),
        (count_linear_fastpath, "spun_hopf", "ga_z2_p2", 120),
        # The empty relation is still charged by the linear engine.
        (count_linear_fastpath, EMPTY_RELATION_PRES, "ga_z2_p2", 20),
    ],
)
def test_exact_step_counts(engine, target, module, steps, compiled_fixtures, battery_by_name):
    if target in compiled_fixtures:
        pres = compiled_fixtures[target].presentation
    else:
        pres = parse_presentation_text(target)
    cm = battery_by_name[module]
    expected = count_homomorphisms_naive(pres, cm)
    assert engine(pres, cm, work_cap=steps) == expected
    with pytest.raises(WorkCapExceeded):
        engine(pres, cm, work_cap=steps - 1)


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
    for name, compiled in compiled_fixtures.items():
        for module_name, cm in battery:
            fast = count_homomorphisms(compiled.presentation, cm)
            slow = count_homomorphisms_naive(compiled.presentation, cm)
            assert fast == slow, (name, module_name)
            if select_method(cm) == METHOD_LINEAR:
                linear = count_linear_fastpath(compiled.presentation, cm)
                assert linear == slow, (name, module_name)


# ---------------------------------------------------------------------------
# Linear fast path
# ---------------------------------------------------------------------------


def test_fastpath_applicability(battery_by_name):
    assert select_method(battery_by_name["ga_z2_p2"]) == METHOD_LINEAR
    assert select_method(battery_by_name["ga_z3_p2"]) == METHOD_LINEAR
    assert select_method(battery_by_name["conj_s3"]) == METHOD_BACKTRACKING


def test_fastpath_rejects_trivial_action_z4_fiber():
    # Z4 fiber with identity boundary and trivial action: abelian but not
    # elementary abelian, so the rank computation over F_p does not apply.
    z1 = build_cyclic_group(1)
    z4 = build_cyclic_group(4)
    cm = FiniteCrossedModule(
        z1, z4, (0, 0, 0, 0), (tuple(range(4)),)
    )
    assert select_method(cm) == METHOD_BACKTRACKING
    with pytest.raises(FastPathUnavailable):
        count_linear_fastpath(sphere(), cm)


def test_fastpath_rejects_conjugation_target():
    cm = build_conjugation_crossed_module(build_symmetric_group(3))
    with pytest.raises(FastPathUnavailable):
        count_linear_fastpath(sphere(), cm)


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
    report = count_report(sphere(), battery_by_name["ga_z3_p2"], 1)
    assert report.count == 8 and report.method == "linear"
    report = count_report(sphere(), battery_by_name["conj_s3"], 1)
    assert report.count == 6 and report.method == "backtracking"


def test_linear_shape_is_worked_out_once(monkeypatch):
    calls = []
    compute = FiniteCrossedModule.linear_shape.func

    def counted(cm):
        calls.append(cm)
        return compute(cm)

    shape = cached_property(counted)
    shape.__set_name__(FiniteCrossedModule, "linear_shape")
    monkeypatch.setattr(FiniteCrossedModule, "linear_shape", shape)
    cm = dict(standard_battery())["ga_z2_p2"]  # freshly built, nothing cached
    report = count_report(sphere(), cm, 1)
    assert report.method == METHOD_LINEAR and len(calls) == 1


def test_invariant_fraction(battery):
    pres = sphere()
    for _, cm in battery:
        value = invariant(pres, cm, 1)
        assert value == Fraction(1)
        assert invariant(pres, cm, 0) == Fraction(cm.fiber.order)


def test_invariant_rejects_negative_handles(battery_by_name):
    with pytest.raises(ValueError):
        invariant(sphere(), battery_by_name["ga_z2_p2"], -1)
    with pytest.raises(ValueError):
        count_report(sphere(), battery_by_name["ga_z2_p2"], -1)


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
    report = count_report(sphere(), battery_by_name["conj_s3"], 1)
    assert format_count_report(report, 0).splitlines()[2] == "invariant 1/1"
