from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from xmod.groups import (
    FiniteGroup,
    build_cyclic_group,
    build_quaternion_group,
    build_symmetric_group,
    find_identity,
    group_violations,
)


def test_cyclic_order_one():
    g = build_cyclic_group(1)
    assert g.order == 1
    assert g.identity == 0
    assert g.inverse == (0,)


def test_cyclic_order_two_and_three():
    z2 = build_cyclic_group(2)
    assert z2.product == ((0, 1), (1, 0))
    z3 = build_cyclic_group(3)
    assert z3.mul(1, 2) == 0
    assert z3.inv(1) == 2


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        build_cyclic_group(0)


@given(st.integers(1, 12))
def test_cyclic_satisfies_group_axioms(n):
    assert group_violations(build_cyclic_group(n)) == []


def test_symmetric_group_table_matches_composition_oracle():
    # Independent oracle: compose permutation tuples directly and look the
    # result up in lexicographic order.
    g = build_symmetric_group(3)
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    assert g.order == 6
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[k]] for k in range(3))
            assert g.mul(i, j) == index[composed]
    assert group_violations(g) == []
    assert g.identity == index[(0, 1, 2)]


def test_symmetric_group_is_nonabelian():
    g = build_symmetric_group(3)
    swap01 = 2  # permutation (1, 0, 2)
    swap12 = 1  # permutation (0, 2, 1)
    assert g.mul(swap01, swap12) != g.mul(swap12, swap01)


@pytest.mark.parametrize("group", [
    build_quaternion_group(), build_symmetric_group(3), build_symmetric_group(4),
    build_cyclic_group(6),
], ids=["Q8", "S3", "S4", "Z6"])
def test_center_commutes_with_every_element(group):
    # Read off the generators; the same tuple as the all-pairs definition.
    n = group.order
    assert group.center == tuple(
        z for z in range(n) if all(group.mul(z, x) == group.mul(x, z) for x in range(n)))


def test_table_shape_is_checked():
    with pytest.raises(ValueError):
        FiniteGroup(2, ((0, 1),))
    with pytest.raises(ValueError):
        FiniteGroup(2, ((0, 5), (1, 0)))


def test_violations_found_in_corrupt_table():
    z3 = build_cyclic_group(3)
    rows = [list(row) for row in z3.product]
    rows[1][1] = 1  # 1 + 1 is no longer 2
    broken = FiniteGroup(3, tuple(tuple(row) for row in rows))
    violations = group_violations(broken)
    assert violations
    assert all(axiom in ("associativity", "identity", "inverse")
               for axiom, _ in violations)


def test_no_identity_reported():
    # Constant table: no two-sided unit.
    broken = FiniteGroup(2, ((1, 1), (1, 1)))
    assert find_identity(broken) is None
    assert ("identity", ()) in group_violations(broken)
    with pytest.raises(ValueError):
        broken.identity

