"""Invariant table for the shipped surfaces across a bank of small targets.

Runs every fixture movie against the standard battery plus conjugation
modules on small cyclic groups, prints the invariant table, and reports
which surfaces are separated from the unknotted baseline of the same
genus by at least one target.

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
from xmod.crossed import build_conjugation_crossed_module
from xmod.errors import FormatError
from xmod.fixtures import FIXTURE_NAMES, load_fixture
from xmod.groups import build_cyclic_group
from xmod.movies import compile_movie
from xmod.words import parse_integer

# Unknotted references: which fixture plays baseline for which surface.
BASELINES = {
    "spun_hopf": "two_tori",
    "spun_trefoil": "trivial1",
    "two_spheres": None,
    "two_tori": None,
}

# Orders of the cyclic groups whose conjugation modules join the battery.
EXTRA_CYCLIC = (2, 3, 4)


def module_bank():
    bank = list(standard_battery())
    for n in EXTRA_CYCLIC:
        bank.append((f"conj_z{n}", build_conjugation_crossed_module(build_cyclic_group(n))))
    return bank


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


def integer(token: str) -> int:
    """An integer option, read by the token rule of the text formats."""
    try:
        return parse_integer(token, "integer")
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-cap", type=integer, default=DEFAULT_WORK_CAP)
    parser.add_argument(
        "--fixtures",
        default=",".join(FIXTURE_NAMES),
        help="comma separated fixture names",
    )
    args = parser.parse_args(argv)
    fixtures = [name for name in args.fixtures.split(",") if name]
    unknown = [name for name in fixtures if name not in FIXTURE_NAMES]
    if unknown:
        print(f"unknown fixtures: {', '.join(unknown)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    bank, table = build_table(fixtures, args.work_cap)
    print_table(bank, table)
    print_separations(table)
    print(f"\n{len(table)} surfaces x {len(bank)} targets "
          f"in {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
