"""Invariant table for the shipped surfaces across a bank of small targets.

Runs every fixture movie against the standard battery plus two modules of
the fuzz pool whose boundary is not injective, prints the invariant table,
and reports which surfaces are separated from the unknotted baseline of
the same genus by at least one target.  An empty fixture list or a
non-positive cap is a usage error (exit 2); a run the cap stops prints one
``error:`` line and exits 3, as ``xmod invariant`` does.

Usage:
    python scripts/knottedness_report.py [--work-cap N] [--fixtures a,b,...]
"""
from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from xmod.battery import standard_battery
from xmod.counting import DEFAULT_WORK_CAP, invariant
from xmod.errors import CapExceeded, FormatError
from xmod.fixtures import FIXTURE_NAMES, load_fixture
from xmod.fuzz import module_pool
from xmod.movies import compile_movie
from xmod.words import parse_integer

# Unknotted references: which fixture plays baseline for which surface.
BASELINES = {
    "spun_hopf": "two_tori",
    "spun_trefoil": "trivial1",
    "two_spheres": None,
    "two_tori": None,
}

# Fuzz-pool modules that join the battery.  A module with an injective
# boundary gives |Hom(pi1, base / im)|, which is 1 on every input for a
# conjugation module, so none joins: such a column could separate nothing.
EXTRA_TARGETS = ("inv_z2_z4", "sign_s3_z3")


def module_bank():
    pool = dict(module_pool())
    return list(standard_battery()) + [(name, pool[name]) for name in EXTRA_TARGETS]


def build_table(fixtures: list[str], work_cap: int):
    bank = module_bank()
    compiled = {name: compile_movie(load_fixture(name)) for name in fixtures}
    table: dict[str, dict[str, Fraction]] = {}
    for name in fixtures:
        row = {}
        for module_name, cm in bank:
            row[module_name] = invariant(compiled[name], cm, work_cap=work_cap)
        table[name] = row
    return bank, table


def print_table(bank, table) -> None:
    module_names = [name for name, _ in bank]
    width = max(len(name) for name in table) + 2
    cell = max(max(len(name) for name in module_names) + 2, 9)
    header = "surface".ljust(width) + "".join(n.rjust(cell) for n in module_names)
    print(header)
    print("-" * len(header))
    for name, row in table.items():
        values = "".join(str(row[m]).rjust(cell) for m in module_names)
        print(name.ljust(width) + values)


def print_separations(table) -> None:
    print()
    for name, baseline in BASELINES.items():
        if name not in table or baseline is None or baseline not in table:
            continue
        separators = [
            module
            for module, value in table[name].items()
            if value != table[baseline][module]
        ]
        if separators:
            print(f"{name}: separated from {baseline} by {', '.join(separators)}")
        else:
            print(f"{name}: NOT separated from {baseline} by this bank")


def positive(token: str) -> int:
    """A positive integer option, read by the token rule of the text formats."""
    try:
        value = parse_integer(token, "integer")
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def fixture_names(text: str) -> list[str]:
    """Comma separated names of shipped fixtures, at least one."""
    names = [name for name in text.split(",") if name]
    if not names:
        raise argparse.ArgumentTypeError("lists no fixture")
    unknown = [name for name in names if name not in FIXTURE_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown fixtures: {', '.join(unknown)}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-cap", type=positive, default=DEFAULT_WORK_CAP)
    parser.add_argument(
        "--fixtures",
        type=fixture_names,
        default=",".join(FIXTURE_NAMES),
        help="comma separated fixture names",
    )
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        bank, table = build_table(args.fixtures, args.work_cap)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print_table(bank, table)
    print_separations(table)
    print(f"\n{len(table)} surfaces x {len(bank)} targets "
          f"in {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
