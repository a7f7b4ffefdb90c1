"""Stress the counting engines against each other on random instances.

Generates seeded random presentations, counts homomorphisms with the
backtracking engine, the linear engine and the naive oracle, and prints
each instance where they disagree, with its presentation.  This is the
seeded engine check: ``xmod selftest`` runs the first 25 instances of
seed 7, and this script runs any seed and count.  Exits 1 if any instance
disagrees and 0 otherwise, so it doubles as a long-running CI check; the
summary line gives the number of mismatches.

Usage:
    python scripts/fuzz_oracles.py [--seed S] [--count N]
"""
from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from xmod.counting import (
    count_homomorphisms,
    count_homomorphisms_naive,
    count_linear_fastpath,
)
from xmod.errors import FormatError
from xmod.fuzz import random_instances
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
        counts = {
            "backtracking": count_homomorphisms(pres, cm),
            "linear": count_linear_fastpath(pres, cm),
            "naive": count_homomorphisms_naive(pres, cm),
        }
        if len(set(counts.values())) != 1:
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
