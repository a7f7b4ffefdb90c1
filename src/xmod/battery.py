"""The standard trio of finite crossed modules used by tests and the CLI.

* ``conj_s3``: the symmetric group on 3 points acting on itself by
  conjugation, boundary the identity map.
* ``ga_z2_p2``: the group algebra of the 2-element cyclic group over the
  2-element field (fiber order 4).
* ``ga_z3_p2``: the group algebra of the 3-element cyclic group over the
  2-element field (fiber order 8).
"""
from __future__ import annotations

from .crossed import (
    FiniteCrossedModule,
    build_conjugation_crossed_module,
    build_group_algebra_crossed_module,
)
from .groups import build_cyclic_group, build_symmetric_group


def standard_battery() -> tuple[tuple[str, FiniteCrossedModule], ...]:
    return (
        ("conj_s3", build_conjugation_crossed_module(build_symmetric_group(3))),
        ("ga_z2_p2", build_group_algebra_crossed_module(build_cyclic_group(2), 2)),
        ("ga_z3_p2", build_group_algebra_crossed_module(build_cyclic_group(3), 2)),
    )
