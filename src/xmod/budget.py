"""The elementary-step budget of one run.

The counting engines and the exhaustive axiom listing spend from it, so one
work cap governs every phase whose cost can grow faster than its input.
"""
from __future__ import annotations

from .errors import WorkCapExceeded

DEFAULT_WORK_CAP = 10**9


class Budget:
    """Mutable elementary-step counter shared across one run."""

    __slots__ = ("steps", "cap")

    def __init__(self, cap: int):
        self.steps = 0
        self.cap = cap

    def spend(self, amount: int = 1) -> None:
        self.steps += amount
        if self.steps > self.cap:
            raise WorkCapExceeded(
                f"work cap of {self.cap} elementary steps exceeded"
            )
