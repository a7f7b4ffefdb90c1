"""Command line interface.

Subcommands: validate, invariant, compile, examples, selftest.
Reports go to stdout, one key per line; diagnostics go to stderr.
``invariant`` takes a presentation or movie and a module, and reads the
1-handle count off the presentation: its generator count.

Exit codes: 0 success, 1 axiom violation or replay failure, 2 parse or
usage error, 3 work cap exceeded.  ``validate`` and ``invariant``, the two
commands that read a user's file, take --work-cap: the step budget of
counting and of the exhaustive axiom listing, a positive integer by the
integer token rule of the text formats.  ``examples`` (given fixture names
or none, meaning all) and ``selftest`` do fixed work over shipped data and
take no options.

``main(argv)`` returns the exit code rather than exiting, and may be called
any number of times in one process: the parser and its subcommand handlers
are built on the first call and reused.  A command runs with the cyclic
garbage collector paused, and the caller's setting is restored after it.
"""
from __future__ import annotations

import argparse
import functools
import gc
import sys
import time
from fractions import Fraction

from . import fixtures
from .battery import standard_battery
from .counting import (
    DEFAULT_WORK_CAP,
    count_report,
    format_count_report,
    invariant,
)
from .crossed import (
    FiniteCrossedModule,
    parse_crossed_module_text,
    validate_crossed_module,
)
from .errors import (
    CapExceeded,
    FormatError,
    XmodError,
)
from .fuzz import engine_mismatch, random_instances
from .movies import compile_movie, parse_movie_script
from .presentations import (
    CrossedPresentation,
    format_presentation_text,
    parse_presentation_text,
    validate_presentation,
)
from .words import first_content, parse_integer

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3

# The seed of selftest's random engine cross-check; scripts/fuzz_oracles.py
# runs the same check on any seed.
SELFTEST_SEED = 7

# Largest pres.one_handles: the report prints (#fiber)**one_handles exactly, at
# a cost quadratic in the exponent (16 ms for 512**10**4, 1.5 s for 512**10**5).
MAX_ONE_HANDLES = 10**4


def _read_file(path: str) -> str:
    """The text of ``path`` without one leading byte-order mark, which would
    hide a file's header line.  Not the ``utf-8-sig`` codec: after a mark it
    reports a decoding error's byte offset 3 too low."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None


def _work_cap(flag: str | None) -> int:
    """The step budget: --work-cap if given, else the default."""
    if flag is None:
        return DEFAULT_WORK_CAP
    value = parse_integer(flag, "--work-cap")
    if value < 1:
        raise FormatError("--work-cap must be positive")
    return value


def _load_module(path: str, work_cap: int) -> FiniteCrossedModule:
    cm = parse_crossed_module_text(_read_file(path))
    report = validate_crossed_module(cm, work_cap, first_only=True)
    if not report.ok:
        name, witness = report.violations[0]
        raise XmodError(f"crossed module in {path} violates {name} at witness {witness}")
    return cm


def _witness_text(witness: tuple) -> str:
    return " ".join(str(part) for part in witness)


def cmd_validate(args) -> int:
    cm = parse_crossed_module_text(_read_file(args.module))
    report = validate_crossed_module(cm, args.work_cap)
    if report.ok:
        print("ok")
        return EXIT_OK
    sys.stdout.write("".join(f"violation {axiom} {_witness_text(witness)}".rstrip() + "\n"
                             for axiom, witness in report.violations))
    return EXIT_VIOLATION


def cmd_compile(args) -> int:
    script = parse_movie_script(_read_file(args.movie), name=args.movie)
    pres = compile_movie(script)
    sys.stdout.write(format_presentation_text(pres))
    print(f"one_handles {pres.one_handles}")
    return EXIT_OK


def _load_target(path: str) -> CrossedPresentation:
    """The presentation in a pres or movie file.

    Either kind is validated where it is counted, by ``compile_presentation``.
    """
    text = _read_file(path)
    if first_content(text) == "pres v1":
        return parse_presentation_text(text)
    return compile_movie(parse_movie_script(text, name=path))


def cmd_invariant(args) -> int:
    pres = _load_target(args.target)
    if pres.one_handles > MAX_ONE_HANDLES:
        raise FormatError(f"{args.target} has {pres.one_handles} one-handles, "
                          f"more than {MAX_ONE_HANDLES}")
    cm = _load_module(args.module, args.work_cap)
    start = time.perf_counter()
    report = count_report(pres, cm, work_cap=args.work_cap)
    elapsed_ms = round((time.perf_counter() - start) * 1000)
    sys.stdout.write(format_count_report(report, elapsed_ms))
    return EXIT_OK


def cmd_examples(args) -> int:
    names = args.names or list(fixtures.FIXTURE_NAMES)
    for name in names:
        if name not in fixtures.FIXTURE_NAMES:
            raise FormatError(
                f"unknown fixture {name!r}; known: {', '.join(fixtures.FIXTURE_NAMES)}"
            )
    battery = standard_battery()
    print("fixture module invariant")
    for name in names:
        pres = compile_movie(fixtures.load_fixture(name))
        for module_name, cm in battery:
            value = invariant(pres, cm)
            print(f"{name} {module_name} {value.numerator}/{value.denominator}")
    return EXIT_OK


def _selftest_checks():
    battery = standard_battery()
    for name, cm in battery:
        yield f"validate {name}", lambda cm=cm: validate_crossed_module(cm).ok

    compiled = {}
    for name in fixtures.FIXTURE_NAMES:
        def check(name=name):
            compiled[name] = pres = compile_movie(fixtures.load_fixture(name))
            copy = parse_presentation_text(format_presentation_text(pres))
            return copy == pres and validate_presentation(copy).ok
        yield f"compile {name}", check

    def value(name, cm):
        return invariant(compiled[name], cm)

    def sphere_values():
        for name in ("trivial1", "trivial2", "trivial3", "trivial4"):
            for _, cm in battery:
                if value(name, cm) != Fraction(cm.base.order, cm.fiber.order):
                    return False
        return True
    yield "unknotted sphere closed form", sphere_values

    def hopf_distinguishes():
        cm = dict(battery)["ga_z2_p2"]
        hopf, tori = value("spun_hopf", cm), value("two_tori", cm)
        return hopf == 40 and tori == 64 and hopf != tori
    yield "spun hopf vs two tori", hopf_distinguishes

    def trefoil_distinguishes():
        trefoil = value("spun_trefoil", dict(battery)["ga_z3_p2"])
        return trefoil == Fraction(9, 8) and trefoil != Fraction(3, 8)
    yield "spun trefoil vs sphere", trefoil_distinguishes

    def oracle_agreement():
        instances = random_instances(SELFTEST_SEED, 25)
        return all(engine_mismatch(index, pres, cm) is None
                   for index, (pres, _, cm) in enumerate(instances))
    yield "counting oracles agree", oracle_agreement


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            passed = check()
        except XmodError as exc:
            passed = False
            print(f"error in {name}: {exc}", file=sys.stderr)
        if passed:
            print(f"ok {name}")
        else:
            failures += 1
            print(f"FAIL {name}")
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print as one line and exit 2."""

    def error(self, message: str):
        raise FormatError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``xmod`` parser, built on the first call and shared after it.

    Sharing is safe: ``parse_args`` returns a fresh namespace and leaves the
    parser as it was, errors raise ``FormatError``, and ``--help`` writes to
    whatever ``sys.stdout`` is when it is called.  Callers must not change
    the returned parser.
    """
    parser = _Parser(
        prog="xmod",
        description="Exact invariants of knotted surfaces from finite crossed modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the crossed-module axioms of a file")
    p.add_argument("module", help="crossed module file (xmod v1 format)")
    p.add_argument("--work-cap")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariant", help="count homomorphisms and report the invariant")
    p.add_argument("target", help="presentation (pres v1) or movie script file")
    p.add_argument("module", help="crossed module file (xmod v1 format)")
    p.add_argument("--work-cap")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("compile", help="compile a movie script to a presentation")
    p.add_argument("movie", help="movie script file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("examples", help="invariants of the shipped fixtures")
    p.add_argument("names", nargs="*", help="fixture names (default: every fixture)")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Reference counting frees a command's data, which hold no reference
    # cycles, so the cyclic collector would find nothing; its scans of a
    # 7000-event movie took 12 to 16 % of the command.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "work_cap"):
            args.work_cap = _work_cap(args.work_cap)
        return args.func(args)
    except SystemExit as exc:
        # Only --help exits: it prints its text and exits 0.
        return int(exc.code or 0)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except XmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    finally:
        if was_enabled:
            gc.enable()


def run() -> None:
    sys.exit(main())
