"""Stress the counting engines against the naive oracle on random instances.

Generates seeded random presentations and checks each with
``xmod.fuzz.engine_mismatch``: the engine ``count_report`` picks and the
linear engine against the naive oracle, and the linear engine again after
two moves that must change no count: ``add_cancelling_pair`` on one of the
instance's cells, and ``free_product`` with ``DISK``, the presentation of
Pi2(D^2, S^1), whose count is divided by |E|.  The ``square`` check counts
the free product of the instance with itself, two parts, which must give
the square of the naive count.  It prints each instance where they
disagree, with its presentation.  This is the seeded engine check:
``xmod selftest`` runs the first 25 instances of seed 7, and this script
runs any seed and count.
Exits 1 if any instance disagrees and 0 otherwise, so it doubles as a
long-running CI check; the summary line gives the number of mismatches.

Usage:
    python scripts/fuzz_oracles.py [--seed S] [--count N]
"""
from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from xmod.errors import FormatError
from xmod.fuzz import engine_mismatch, random_instances
from xmod.presentations import format_presentation_text
from xmod.words import parse_integer


def run(seed: int, count: int) -> int:
    """Check ``count`` instances from ``seed``; return the number of mismatches."""
    mismatches = 0
    per_module: Counter[str] = Counter()
    start = time.perf_counter()
    for index, (pres, module_name, cm) in enumerate(
        random_instances(seed, count)
    ):
        per_module[module_name] += 1
        counts = engine_mismatch(index, pres, cm)
        if counts is not None:
            mismatches += 1
            print(f"MISMATCH at instance {index} on {module_name}: {counts}")
            print(format_presentation_text(pres), end="")
    elapsed = time.perf_counter() - start
    print(
        f"{count} instances, {mismatches} mismatches, {elapsed:.2f}s "
        f"(seed {seed})"
    )
    for module_name, hits in sorted(per_module.items()):
        print(f"  {module_name}: {hits}")
    return mismatches


def integer(token: str) -> int:
    """An integer option, read by the token rule of the text formats."""
    try:
        return parse_integer(token, "integer")
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def count(token: str) -> int:
    """A non-negative integer option."""
    value = integer(token)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=integer, default=7)
    parser.add_argument("--count", type=count, default=500)
    args = parser.parse_args(argv)
    # Not the count itself: an exit status is taken modulo 256.
    return 1 if run(args.seed, args.count) else 0


if __name__ == "__main__":
    sys.exit(main())
