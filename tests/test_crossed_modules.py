from __future__ import annotations

import random
from itertools import permutations
from pathlib import Path

import pytest
from knottedness_report import module_bank

from xmod import counting, groups
from xmod.battery import standard_battery
from xmod.budget import Budget
from xmod.cli import main
from xmod.crossed import (
    MAX_FIBER_ORDER,
    FiniteCrossedModule,
    build_central_quotient_crossed_module,
    build_conjugation_crossed_module,
    build_group_algebra_crossed_module,
    format_crossed_module_text,
    ga_coords,
    ga_index,
    parse_crossed_module_text,
    validate_crossed_module,
)
from xmod.errors import FormatError
from xmod.fuzz import inversion_module, module_pool
from xmod.groups import (
    FiniteGroup,
    build_cyclic_group,
    build_quaternion_group,
    build_symmetric_group,
    group_violations,
)


def test_conjugation_on_trivial_group():
    cm = build_conjugation_crossed_module(build_cyclic_group(1))
    assert cm.fiber.order == 1
    assert validate_crossed_module(cm).ok


def test_conjugation_on_s3_matches_permutation_oracle():
    # Independent oracle: compute conjugation and the two crossed-module
    # axioms directly on permutation tuples, then compare with the tables.
    cm = build_conjugation_crossed_module(build_symmetric_group(3))
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[k]] for k in range(3))

    def invert(p):
        out = [0] * 3
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    for g in perms:
        for e in perms:
            conjugate = compose(g, compose(e, invert(g)))
            assert cm.act(index[g], index[e]) == index[conjugate]
            # equivariance: boundary of g |> e is g e g^-1
            assert cm.boundary[cm.act(index[g], index[e])] == index[conjugate]
    for e in perms:
        for f in perms:
            # conjugation axiom: boundary(e) |> f = e f e^-1
            lhs = cm.act(cm.boundary[index[e]], index[f])
            assert lhs == index[compose(e, compose(f, invert(e)))]
    assert validate_crossed_module(cm).ok


def test_group_algebra_z2_tables():
    cm = build_group_algebra_crossed_module(build_cyclic_group(2), 2)
    assert cm.base.order == 2
    assert cm.fiber.order == 4
    # Boundary is constantly the base identity.
    assert set(cm.boundary) == {cm.base.identity}
    # The nontrivial base element swaps the two basis coordinates.
    delta0, delta1 = ga_index((1, 0), 2), ga_index((0, 1), 2)
    assert cm.act(1, delta0) == delta1
    assert cm.act(1, delta1) == delta0
    assert cm.act(1, ga_index((1, 1), 2)) == ga_index((1, 1), 2)
    assert validate_crossed_module(cm).ok


def test_group_algebra_z3_tables():
    cm = build_group_algebra_crossed_module(build_cyclic_group(3), 2)
    assert cm.fiber.order == 8
    # Base element 1 cycles the coordinates one step.
    assert cm.act(1, ga_index((1, 0, 0), 2)) == ga_index((0, 1, 0), 2)
    assert cm.act(1, ga_index((0, 1, 0), 2)) == ga_index((0, 0, 1), 2)
    assert cm.act(1, ga_index((0, 0, 1), 2)) == ga_index((1, 0, 0), 2)
    assert validate_crossed_module(cm).ok


def test_group_algebra_on_trivial_group():
    cm = build_group_algebra_crossed_module(build_cyclic_group(1), 3)
    assert cm.fiber.order == 3
    assert validate_crossed_module(cm).ok


def test_constructors_name_the_entry_out_of_range():
    z2, z3 = build_cyclic_group(2), build_cyclic_group(3)
    cases = [
        (lambda: FiniteGroup(0, ()), "group order must be positive"),
        (lambda: FiniteCrossedModule(z2, z3, (0, 0), (z3.product[0],) * 2),
         "boundary table length does not match fiber order"),
        (lambda: FiniteCrossedModule(z2, z3, (0, 0, 0), (z3.product[0],)),
         "action table shape does not match base x fiber"),
        (lambda: FiniteCrossedModule(z2, z3, (0, 0, 0), ((0, 1, 2), (0, 1))),
         "action table shape does not match base x fiber"),
        (lambda: FiniteGroup(2, ((0, 1), (1, 2))), "product entry 2 out of range 0..1"),
        (lambda: FiniteGroup(2, ((0, -1), (1, 0))), "product entry -1 out of range 0..1"),
        (lambda: FiniteCrossedModule(z2, z3, (0, 2, 0), (z3.product[0],) * 2),
         "boundary entry 2 out of range 0..1"),
        (lambda: FiniteCrossedModule(z2, z3, (0, 0, 0), ((0, 1, 2), (0, 3, 2))),
         "action entry 3 out of range 0..2"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_group_algebra_rejects_bad_p_and_overflow():
    with pytest.raises(ValueError):
        build_group_algebra_crossed_module(build_cyclic_group(2), 4)
    with pytest.raises(ValueError):
        build_group_algebra_crossed_module(build_cyclic_group(6), 5)
    n = MAX_FIBER_ORDER.bit_length()  # least n with 2**n above the bound
    with pytest.raises(ValueError) as info:
        build_group_algebra_crossed_module(build_cyclic_group(n), 2)
    assert str(info.value) == f"fiber order 2^{n} exceeds the bound {MAX_FIBER_ORDER}"


def builder_made_modules():
    """Every crossed module the package, its scripts and its benchmark build."""
    made = [("battery", name, cm) for name, cm in standard_battery()]
    made += [("fuzz", name, cm) for name, cm in module_pool()]
    made += [("report", name, cm) for name, cm in module_bank()
             if name not in dict(standard_battery())]
    bench = {
        "conj_s4": build_conjugation_crossed_module(build_symmetric_group(4)),
        "ga_z5_p2": build_group_algebra_crossed_module(build_cyclic_group(5), 2),
        "ga_s3_p2": build_group_algebra_crossed_module(build_symmetric_group(3), 2),
        "ga_z4_p3": build_group_algebra_crossed_module(build_cyclic_group(4), 3),
    }
    made += [("bench", name, cm) for name, cm in bench.items()]
    return [pytest.param(cm, id=f"{source}-{name}") for source, name, cm in made]


@pytest.mark.parametrize("cm", builder_made_modules())
def test_builder_made_module_validates(cm):
    # The builders do not run the axiom check; this is where it runs on them.
    assert validate_crossed_module(cm).ok


# A loop of order 5: identity 0, every element its own inverse, each row and
# column a permutation, yet not a group (a group of order 5 is cyclic).
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def test_builders_refuse_a_non_group():
    loop = FiniteGroup(5, LOOP5)
    violations = group_violations(loop)
    assert violations
    assert {axiom for axiom, _ in violations} == {"associativity"}
    message = f"input table violates associativity at witness {violations[0][1]}"
    with pytest.raises(ValueError) as info:
        build_conjugation_crossed_module(loop)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        build_group_algebra_crossed_module(loop, 2)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        build_central_quotient_crossed_module(loop)
    assert str(info.value) == message


def test_central_quotient_of_quaternions():
    # Q8 -> Q8/{+1, -1} = V4: the kernel is the center, and i acts on j by
    # conjugation, i j i^-1 = -j.
    q8 = build_quaternion_group()
    assert not group_violations(q8)
    cm = build_central_quotient_crossed_module(q8)
    assert cm.base.order == 4 and cm.boundary == (0, 0, 1, 1, 2, 2, 3, 3)
    assert all(cm.base.mul(a, b) == cm.base.mul(b, a) for a in range(4) for b in range(4))
    i, j, minus_j = 2, 4, 5
    assert cm.act(cm.boundary[i], j) == minus_j
    assert cm.kernel.order == 2 and cm.kernel.generators == (1,)
    # A group with trivial center gives its conjugation module.
    s3 = build_symmetric_group(3)
    assert build_central_quotient_crossed_module(s3) == build_conjugation_crossed_module(s3)


def test_ga_index_round_trip():
    for i in range(8):
        assert ga_index(ga_coords(i, 3, 2), 2) == i


def test_battery_validates(battery):
    for _, cm in battery:
        assert validate_crossed_module(cm).ok


def test_corrupt_action_entry_breaks_equivariance():
    cm = build_conjugation_crossed_module(build_symmetric_group(3))
    action = [list(row) for row in cm.action]
    g, e = 2, 3
    action[g][e] = (action[g][e] + 1) % cm.fiber.order
    broken = FiniteCrossedModule(
        cm.base, cm.fiber, cm.boundary, tuple(tuple(row) for row in action)
    )
    report = validate_crossed_module(broken)
    assert not report.ok
    axioms = {axiom for axiom, _ in report.violations}
    assert "equivariance" in axioms
    # Witnesses are concrete index tuples.
    for _, witness in report.violations:
        assert all(isinstance(part, int) for part in witness)


def test_corrupt_boundary_entry_is_caught():
    cm = build_group_algebra_crossed_module(build_cyclic_group(2), 2)
    boundary = list(cm.boundary)
    boundary[2] = 1
    broken = FiniteCrossedModule(cm.base, cm.fiber, tuple(boundary), cm.action)
    report = validate_crossed_module(broken)
    assert not report.ok


def test_single_entry_corruptions_are_rejected(battery):
    rng = random.Random(99)
    for _ in range(20):
        _, cm = battery[rng.randrange(len(battery))]
        broken = corrupt_one_entry(cm, rng)
        report = validate_crossed_module(broken)
        assert not report.ok
        assert report.violations[0][1] is not None


def corrupt_one_entry(cm: FiniteCrossedModule, rng: random.Random) -> FiniteCrossedModule:
    """Change exactly one table entry to a different in-range value."""
    nG, nE = cm.base.order, cm.fiber.order
    choices = ["action", "boundary"]
    if nG > 1:
        choices.append("base")
    if nE > 1:
        choices.append("fiber")
    kind = rng.choice(choices)
    if kind == "base":
        rows = [list(row) for row in cm.base.product]
        i, j = rng.randrange(nG), rng.randrange(nG)
        rows[i][j] = rng.choice([v for v in range(nG) if v != rows[i][j]])
        base = FiniteGroup(nG, tuple(tuple(r) for r in rows))
        return FiniteCrossedModule(base, cm.fiber, cm.boundary, cm.action)
    if kind == "fiber":
        rows = [list(row) for row in cm.fiber.product]
        i, j = rng.randrange(nE), rng.randrange(nE)
        rows[i][j] = rng.choice([v for v in range(nE) if v != rows[i][j]])
        fiber = FiniteGroup(nE, tuple(tuple(r) for r in rows))
        return FiniteCrossedModule(cm.base, fiber, cm.boundary, cm.action)
    if kind == "boundary":
        table = list(cm.boundary)
        i = rng.randrange(nE)
        if nG == 1:
            # No different value exists; corrupt the action instead.
            return corrupt_action(cm, rng)
        table[i] = rng.choice([v for v in range(nG) if v != table[i]])
        return FiniteCrossedModule(cm.base, cm.fiber, tuple(table), cm.action)
    return corrupt_action(cm, rng)


def corrupt_action(cm: FiniteCrossedModule, rng: random.Random) -> FiniteCrossedModule:
    nG, nE = cm.base.order, cm.fiber.order
    if nE == 1:
        raise AssertionError("cannot corrupt an action on a one-element fiber")
    rows = [list(row) for row in cm.action]
    g, e = rng.randrange(nG), rng.randrange(nE)
    rows[g][e] = rng.choice([v for v in range(nE) if v != rows[g][e]])
    return FiniteCrossedModule(cm.base, cm.fiber, cm.boundary,
                               tuple(tuple(r) for r in rows))


def test_kernel_elements_are_central(battery):
    # Elements with trivial boundary commute with the whole fiber.
    for _, cm in battery:
        identity = cm.base.identity
        kernel = [e for e in range(cm.fiber.order) if cm.boundary[e] == identity]
        for e in kernel:
            for f in range(cm.fiber.order):
                assert cm.fiber.mul(e, f) == cm.fiber.mul(f, e)


def test_action_on_kernel_depends_only_on_coset(battery):
    # For m in the kernel, x |> m is unchanged when x moves by a boundary.
    for _, cm in battery:
        identity = cm.base.identity
        kernel = [m for m in range(cm.fiber.order) if cm.boundary[m] == identity]
        for x in range(cm.base.order):
            for e in range(cm.fiber.order):
                moved = cm.base.mul(x, cm.boundary[e])
                for m in kernel:
                    assert cm.act(x, m) == cm.act(moved, m)


def kernel_modules():
    z2, z4 = build_cyclic_group(2), build_cyclic_group(4)
    # Z2 x Z4 with element 1 of order 4, and with element 1 of order 2: the
    # first greedy generator of the second does not have the exponent's order.
    z2z4 = FiniteGroup(8, tuple(tuple(4 * ((a // 4 + b // 4) % 2) + (a + b) % 4
                                      for b in range(8)) for a in range(8)))
    z4z2 = FiniteGroup(8, tuple(tuple((a + b) % 2 + 2 * ((a // 2 + b // 2) % 4)
                                      for b in range(8)) for a in range(8)))
    made = list(module_pool())
    made += [("inv_z2_z8", inversion_module(8)),
             ("inv_z2_z2z4", FiniteCrossedModule(z2, z2z4, (0,) * 8,
                                                 (tuple(range(8)), z2z4.inverse))),
             ("inv_z2_z4z2", FiniteCrossedModule(z2, z4z2, (0,) * 8,
                                                 (tuple(range(8)), z4z2.inverse))),
             ("z4_into_z2", FiniteCrossedModule(z2, z4, (0, 1, 0, 1), (tuple(range(4)),) * 2)),
             ("ga_z4_p3", build_group_algebra_crossed_module(z4, 3))]
    return [pytest.param(cm, id=name) for name, cm in made]


@pytest.mark.parametrize("cm", kernel_modules())
def test_kernel_presentation_is_a_presentation(cm):
    assert validate_crossed_module(cm).ok
    fiber, kernel = cm.fiber, cm.kernel
    members = [e for e in range(fiber.order) if cm.boundary[e] == cm.base.identity]
    assert kernel.order == len(members)
    assert [e for e, vec in enumerate(kernel.coords) if vec is not None] == members

    def element(vec) -> int:
        out = fiber.identity
        for k, a in zip(kernel.generators, vec):
            for _ in range(a % kernel.exponent):
                out = fiber.mul(out, k)
        return out

    # Coordinates name each element of K once, and N = exponent kills K.
    assert all(element(kernel.coords[e]) == e for e in members)
    assert len({kernel.coords[e] for e in members}) == kernel.order
    for e in members:
        power = fiber.identity
        for _ in range(kernel.exponent):
            power = fiber.mul(power, e)
        assert power == fiber.identity
    # The relation vectors lie in the kernel of (Z/N)^d -> K, and with
    # N (Z/N)^d they cut (Z/N)^d down to exactly |K| classes.
    assert all(element(rho) == fiber.identity for rho in kernel.relations)
    d = len(kernel.generators)
    span = counting._span_order([dict(enumerate(rho)) for rho in kernel.relations], {},
                                kernel.exponent, d, Budget(10**6))
    assert span == kernel.exponent**d // kernel.order
    for g in range(cm.base.order):
        for k, image in zip(kernel.generators, kernel.action[g]):
            vec = [0] * d
            for j, v in image:
                vec[j] = v
            assert element(vec) == cm.act(g, k)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_text_round_trip(battery):
    # The format does not carry element names, so compare the tables.
    for _, cm in battery:
        text = format_crossed_module_text(cm)
        parsed = parse_crossed_module_text(text)
        assert parsed.base.product == cm.base.product
        assert parsed.fiber.product == cm.fiber.product
        assert parsed.boundary == cm.boundary
        assert parsed.action == cm.action
        assert format_crossed_module_text(parsed) == text


def test_benchmark_target_files_parse_equal_to_the_builders(monkeypatch):
    # The reader builds its groups and module without the constructors'
    # checks; the tables it reads from the benchmark's module files must
    # still make the modules the builders make, with the same derived values.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import oracle
    from perfbench.inputs import _package_targets

    built = {
        "conj_s3": build_conjugation_crossed_module(build_symmetric_group(3)),
        "ga_z2_p2": build_group_algebra_crossed_module(build_cyclic_group(2), 2),
        "ga_z3_p2": build_group_algebra_crossed_module(build_cyclic_group(3), 2),
        "conj_s4": build_conjugation_crossed_module(build_symmetric_group(4)),
        "ga_z5_p2": build_group_algebra_crossed_module(build_cyclic_group(5), 2),
        "ga_s3_p2": build_group_algebra_crossed_module(build_symmetric_group(3), 2),
        "ga_z4_p3": build_group_algebra_crossed_module(build_cyclic_group(4), 3),
    }
    targets = _package_targets()
    assert targets.keys() == built.keys()
    for name, cm in built.items():
        parsed = parse_crossed_module_text(oracle.module_text(targets[name]))
        assert parsed == cm, name
        assert type(parsed) is FiniteCrossedModule and type(parsed.base) is FiniteGroup
        assert (parsed.base.identity, parsed.fiber.inverse) == (cm.base.identity,
                                                               cm.fiber.inverse)
        assert parsed.kernel == cm.kernel, name


def test_parse_small_module_with_comments():
    text = """\
# the 2-element group acting trivially on itself
xmod v1
base 2
0 1
1 0
fiber 2
0 1
1 0
boundary
0 0
action
0 1
0 1
"""
    cm = parse_crossed_module_text(text)
    assert cm.base.order == 2
    assert cm.boundary == (0, 0)
    assert validate_crossed_module(cm).ok


def test_parse_errors_name_line_and_field():
    with pytest.raises(FormatError) as info:
        parse_crossed_module_text("xmod v2\n")
    assert info.value.line == 1 and info.value.field == "header"

    with pytest.raises(FormatError) as info:
        parse_crossed_module_text("xmod v1\nbase 2\n0 1\n1\n")
    assert info.value.line == 4 and info.value.field == "base"

    with pytest.raises(FormatError) as info:
        parse_crossed_module_text("xmod v1\nbase 2\n0 1\n1 7\n")
    assert info.value.line == 4

    good = format_crossed_module_text(
        build_group_algebra_crossed_module(build_cyclic_group(2), 2)
    )
    with pytest.raises(FormatError) as info:
        parse_crossed_module_text(good + "junk\n")
    assert info.value.field == "trailer"


def test_parse_truncated_file_reports_end():
    with pytest.raises(FormatError) as info:
        parse_crossed_module_text("xmod v1\nbase 2\n0 1\n")
    assert "end of input" in str(info.value)


@pytest.mark.parametrize("text, message", [
    ("xmod v1\nbase 1000000000\n0\n", "line 3: [base] expected 1000000000 entries, got 1"),
    ("xmod v1\nbase 1\n0\nfiber 1000000000\n0\n",
     "line 5: [fiber] expected 1000000000 entries, got 1"),
], ids=["base", "fiber"])
def test_a_huge_declared_order_allocates_nothing(text, message, monkeypatch, tmp_path, capsys):
    # Reading the first row of a table must not build anything sized by the
    # order its section declares: with a set of 10**9 indices the error
    # would take gigabytes.
    indices = groups._indices

    def small_indices(bound):
        if bound > 10**6:
            raise AssertionError(f"set of {bound} indices")
        return indices(bound)

    monkeypatch.setattr(groups, "_indices", small_indices)
    with pytest.raises(FormatError) as info:
        parse_crossed_module_text(text)
    assert str(info.value) == message
    module = tmp_path / "huge.xmod"
    module.write_text(text, encoding="utf-8")
    assert main(["validate", str(module)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
