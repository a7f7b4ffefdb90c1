"""Seeded inputs and the operation mix of each workload.

``build(workload, seed, workdir)`` writes every input file of the workload
into ``workdir`` and returns its operations.  Each operation is one ``xmod``
command line over those files, with the exit code and output it must give.
The expected output never comes from an xmod engine: counts come from
closed forms, from the acceptance battery, or from ``oracle.count_homs``;
compile output from ``oracle.replay``; violation lines from
``oracle.violation_lines``.  The same seed writes byte-identical files.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import oracle
from .oracle import Module, Pres

WORKLOADS = ("cli_targets", "search", "long_movies")

FIXTURES = ("trivial1", "trivial2", "trivial3", "trivial4",
            "two_spheres", "two_tori", "spun_hopf", "spun_trefoil")

# Values the acceptance battery fixes (README, criteria 3, 4 and 6).
BATTERY = {("spun_hopf", "ga_z2_p2"): Fraction(40),
           ("two_tori", "ga_z2_p2"): Fraction(64),
           ("spun_trefoil", "ga_z3_p2"): Fraction(9, 8)}


@dataclass(frozen=True)
class Op:
    """One command.  ``report`` pins the count, one_handles and invariant
    lines of an ``invariant`` report (its method and elapsed_ms lines are
    only checked for shape, since a new engine may legitimately answer);
    otherwise ``stdout`` is pinned byte for byte."""

    input_class: str
    argv: tuple
    exit_code: int = 0
    stdout: str | None = None
    report: tuple | None = None


# ------------------------------------------------------------ targets


def _package_targets() -> dict:
    """Mid-size targets from the package builders, as plain tables."""
    from xmod.crossed import (build_conjugation_crossed_module,
                              build_group_algebra_crossed_module)
    from xmod.groups import build_cyclic_group, build_symmetric_group

    built = {
        "conj_s3": build_conjugation_crossed_module(build_symmetric_group(3)),
        "ga_z2_p2": build_group_algebra_crossed_module(build_cyclic_group(2), 2),
        "ga_z3_p2": build_group_algebra_crossed_module(build_cyclic_group(3), 2),
        "conj_s4": build_conjugation_crossed_module(build_symmetric_group(4)),
        "ga_z5_p2": build_group_algebra_crossed_module(build_cyclic_group(5), 2),
        "ga_s3_p2": build_group_algebra_crossed_module(build_symmetric_group(3), 2),
        "ga_z4_p3": build_group_algebra_crossed_module(build_cyclic_group(4), 3),
    }
    return {name: Module(cm.base.product, cm.fiber.product, cm.boundary, cm.action)
            for name, cm in built.items()}


def search_targets() -> dict:
    """Small fibers (|E| <= 8) on which ``auto`` has to backtrack.

    The inversion modules have abelian but not elementary abelian fibers,
    so the elementary-abelian fast path does not apply; Q8 -> V4 has a
    nonabelian fiber and a non-injective boundary.
    """
    z2 = oracle.cyclic(2)
    s3, parity = oracle.symmetric3()
    z2z4 = oracle.direct_product(oracle.cyclic(2), oracle.cyclic(4))
    return {
        "inv_z2_z4": oracle.inversion_module(z2, [0, 1], oracle.cyclic(4)),
        "inv_z2_z8": oracle.inversion_module(z2, [0, 1], oracle.cyclic(8)),
        "inv_z2_z2z4": oracle.inversion_module(z2, [0, 1], z2z4),
        "inv_s3_z4": oracle.inversion_module(s3, parity, oracle.cyclic(4)),
        "inv_s3_z2z4": oracle.inversion_module(s3, parity, z2z4),
        "cq_q8_v4": oracle.quaternion_over_klein(),
    }


def _trivial_module() -> Module:
    return Module(((0,),), ((0,),), (0,), ((0,),))


def corrupt(rng: random.Random, m: Module, kind: str) -> Module:
    """A copy of ``m`` with one table changed so that some axiom fails."""
    while True:
        base, fiber = [list(r) for r in m.base], [list(r) for r in m.fiber]
        boundary, action = list(m.boundary), [list(r) for r in m.action]
        row, bound = {"base": (rng.choice(base), len(base)),
                      "fiber": (rng.choice(fiber), len(fiber)),
                      "action": (rng.choice(action), len(fiber)),
                      "boundary": (boundary, len(base))}[kind]
        i = rng.randrange(len(row))
        row[i] = rng.choice([v for v in range(bound) if v != row[i]])
        bad = Module(tuple(map(tuple, base)), tuple(map(tuple, fiber)),
                     tuple(boundary), tuple(map(tuple, action)))
        if oracle.violation_lines(bad):
            return bad


# ------------------------------------------------------------- presentations


def _word(rng: random.Random, gens: list, max_len: int = 2) -> tuple:
    return oracle.reduce_word((rng.choice(gens), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, max_len)))


# (generators, cells, head depths): the relation with head depth d ends on
# cell d with a single term, so it fixes that cell given the earlier ones.
# The search tree per phi is |E| ** (cells before the last head that head
# no relation), which the shapes keep between 1 and 3.
SHAPES = ((3, 4, (2, 3)), (4, 5, (1, 3, 4)), (3, 5, (2, 4)), (4, 3, (1, 2)))

# Copies of one fixture op in the search mix (see ``search``).  Of the 72
# ops a pass, p90 lies 7.1 places below the top.  The copies cover it while
# 1 to 7 ops cost more: the 390 ms inv_s3_z2z4 search, at times the deep
# chain, and one to four random presentations, depending on the seed.
PLATEAU = 8


def random_presentation(rng: random.Random, shape: tuple) -> Pres:
    """A valid presentation of the given shape with random words and signs.

    Head cells have trivial boundary.  One other cell has a commutator
    boundary and appears only in pairs (w ; c ; s)(w bnd^k ; c ; -s), whose
    boundary cancels; so every relation has trivial boundary.
    """
    n_gens, n_cells, heads = shape
    gens = [f"x{i}" for i in range(n_gens)]
    cells = [f"c{i}" for i in range(n_cells)]
    boundary = {c: () for c in cells}
    others = [i for i in range(n_cells) if i not in heads]
    if others:
        a, b = rng.sample(gens, 2)
        boundary[cells[rng.choice(others)]] = ((a, 1), (b, 1), (a, -1), (b, -1))
    relations = []
    for depth in heads:
        terms = []
        for i in sorted(rng.sample(range(depth), min(depth, rng.randint(1, 2)))):
            cell, w, s = cells[i], _word(rng, gens), rng.choice((1, -1))
            if boundary[cell]:
                partner = oracle.reduce_word(w + boundary[cell] * rng.randint(0, 2))
                terms += [(w, cell, s), (partner, cell, -s)]
            else:
                terms.append((w, cell, s))
        terms.insert(rng.randint(0, len(terms)), (_word(rng, gens), cells[depth],
                                                  rng.choice((1, -1))))
        relations.append(terms)
    return Pres(gens, cells, boundary, relations)


def deep_chain(n_cells: int = 1200) -> Pres:
    """One generator and a chain of cells, relation i tying cell i to cell i-1.

    Every relation ends one cell deeper, so a depth-first search nests once
    per cell.  Each relation makes cell i the image of cell i-1 under an
    automorphism, so the count is |G| * |E| for any target with trivial
    boundary.
    """
    cells = [f"c{i}" for i in range(n_cells)]
    relations = [[(((("X", 1),) if i % 2 else ()), cells[i], 1), ((), cells[i - 1], -1)]
                 for i in range(1, n_cells)]
    return Pres(["X"], cells, {c: () for c in cells}, relations)


# --------------------------------------------------------------------- movies


def long_movie(rng: random.Random, events: int) -> str:
    """A movie of at least ``events`` events built from repeated blocks.

    A block is two births, one to three Wirtinger crosses, two saddles with
    trivial boundary and two deaths whose spanners meet both bands under
    random conjugators.  Every arc a block creates dies in the block, while
    bands, cells and relations accumulate, so replay state grows with the
    movie as it does for a real surface.  The number of crosses cycles
    through 1, 2, 3, so a movie's block count, and with it the replay cost,
    does not depend on the seed; signs and conjugators do.
    """
    lines, count, k = [], 0, 0
    gens: list = []
    while count < events:
        a, b = f"a{k}", f"b{k}"
        gens += [a, b]
        block = [f"birth {a}", f"birth {b}"]
        over, crossed = a, []
        for j in range(1 + k % 3):
            out = f"p{k}_{j}"
            block.append(f"cross {rng.choice('+-')} over={over} in={b} out={out}")
            crossed.append(out)
            over = out
        block.append(f"saddle cell=e{k} u={a} v={a} band=s{k} merged=m{k},n{k}")
        block.append(f"saddle cell=f{k} u=m{k} v=m{k} band=t{k} merged=u{k},v{k}")
        recent = gens[-6:]

        def spanner(bands):
            return ";".join(
                f"({band},{oracle.format_word(_word(rng, recent))},{rng.choice('+-')})"
                for band in bands)
        block.append(f"death circle=n{k},u{k} spanner=[{spanner([f's{k}', f't{k}', f't{k}'])}]")
        block.append(f"death circle={','.join([f'v{k}', b, *crossed])} "
                     f"spanner=[{spanner([f't{k}', f's{k}'])}]")
        lines += block
        count += len(block)
        k += 1
    return "\n".join(lines + ["end"]) + "\n"


# ------------------------------------------------------------------ the mixes


def _fixture_text(name: str) -> str:
    from xmod.fixtures import fixture_text
    return fixture_text(name)


def _fixture_value(name: str, target: str, m: Module) -> Fraction:
    """Closed forms for spheres, battery pins, else the reference count."""
    g, e = len(m.base), len(m.fiber)
    if name.startswith("trivial"):
        return Fraction(g, e)
    if name == "two_spheres":
        return Fraction(g, e) ** 2
    if (name, target) in BATTERY:
        return BATTERY[(name, target)]
    pres, births = oracle.replay(_fixture_text(name))
    return oracle.invariant(oracle.count_homs(pres, m), m, births)


def _report(value: Fraction, m: Module, one_handles: int) -> tuple:
    count = value * len(m.fiber) ** one_handles
    return (f"count {count.numerator}", f"one_handles {one_handles}",
            f"invariant {value.numerator}/{value.denominator}")


class _Writer:
    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def __call__(self, name: str, text: str) -> str:
        (self.dir / name).write_text(text, encoding="utf-8")
        return str(self.dir / name)


def _births(text: str) -> int:
    return sum(line.split("#", 1)[0].split()[:1] == ["birth"] for line in text.splitlines())


def _fixture_ops(write: _Writer, targets: dict, input_class: str) -> list:
    ops = []
    paths = {name: write(f"{name}.xmod", oracle.module_text(m)) for name, m in targets.items()}
    for fixture in FIXTURES:
        text = _fixture_text(fixture)
        movie = write(f"{fixture}.movie", text)
        for name, m in targets.items():
            value = _fixture_value(fixture, name, m)
            ops.append(Op(input_class, ("invariant", movie, paths[name]),
                          report=_report(value, m, _births(text))))
    return ops


def cli_targets(rng: random.Random, write: _Writer) -> list:
    targets = _package_targets()
    # Fixture movies x mid-size builder targets: parsing the tables and the
    # exhaustive |E|^3 axiom check dominate; auto picks the linear engine or
    # backtracks over a bijective boundary, so counting costs almost nothing.
    ops = _fixture_ops(write, targets, "fixture_x_builder_target")
    # validate on valid modules: the same layer without a count after it.
    for name in ("ga_z5_p2", "conj_s4", "ga_s3_p2", "ga_z4_p3"):
        ops.append(Op("validate_valid", ("validate", str(write.dir / f"{name}.xmod")),
                      stdout="ok\n"))
    # validate on corrupted mid-size modules must exit 1 and list every
    # witness, so a validator that stops at the first violation shows up.
    # One validate op of each kind per target keeps the latency clusters of
    # the targets about equal in size, so p50 and p90 fall inside clusters.
    for name, kind in (("ga_z5_p2", "fiber"), ("conj_s4", "action"),
                       ("ga_s3_p2", "boundary"), ("ga_z4_p3", "action"),
                       ("ga_z4_p3", "base")):
        bad = corrupt(rng, targets[name], kind)
        path = write(f"corrupt_{name}_{kind}.xmod", oracle.module_text(bad))
        ops.append(Op("validate_corrupted", ("validate", path), exit_code=1,
                      stdout="".join(line + "\n" for line in oracle.violation_lines(bad))))
    return ops


def search(rng: random.Random, write: _Writer) -> list:
    targets = search_targets()
    # Fixtures x small backtracking targets: spun_hopf's relations sit on its
    # last cell, so backtracking enumerates most of E^cells per phi.
    ops = _fixture_ops(write, targets, "fixture_x_search_target")
    # spun_hopf x inv_z2_z2z4 runs PLATEAU times a pass.  The random
    # presentations below cost between 4 and 180 ms depending on the seed,
    # several of them near the 90th percentile.  These copies keep p90
    # inside one seed-independent cluster, a Z2 x Z4 search that a fast
    # path for abelian fibers would move.
    ops += [next(op for op in ops if op.argv[1:] == (str(write.dir / "spun_hopf.movie"),
                                                     str(write.dir / "inv_z2_z2z4.xmod")))
            ] * (PLATEAU - 1)
    # Random presentations of fixed shapes, varied words: relations at
    # several depths prune the search at different heights.  inv_s3_z2z4 is
    # left to the fixtures because |G|^4 |E|^3 is too slow for a closed loop.
    # One presentation per shape keeps the cheap fixture ops the majority,
    # so p50 sits inside their cluster.
    random_targets = ("inv_z2_z8", "inv_z2_z2z4", "inv_s3_z4", "cq_q8_v4")
    for index, shape in enumerate(SHAPES):
        pres = random_presentation(rng, shape)
        path = write(f"random{index}.pres", oracle.format_pres(pres))
        for name in random_targets:
            m = targets[name]
            value = oracle.invariant(oracle.count_homs(pres, m), m, len(pres.generators))
            ops.append(Op("random_presentation", ("invariant", path, str(write.dir / f"{name}.xmod")),
                          report=_report(value, m, len(pres.generators))))
    # The deep chain nests the search 1200 deep; it fails today with a
    # RecursionError and stays in the mix so that the fix shows.
    chain = deep_chain()
    m = targets["inv_z2_z8"]
    ops.append(Op("deep_chain", ("invariant", write("deep_chain.pres", oracle.format_pres(chain)),
                                 str(write.dir / "inv_z2_z8.xmod")),
                  report=_report(Fraction(len(m.base)), m, 1)))
    return ops


# Event counts of the long movies.  Replay is quadratic, so the 7k movies
# take most of the time.  Of the 26 ops, p50 falls among the twelve 2k ops
# and p90 among the four 7k ops, away from the jumps between sizes.
MOVIE_EVENTS = (1000,) * 5 + (2000,) * 6 + (7000,) * 2


def long_movies(rng: random.Random, write: _Writer) -> list:
    # compile prints the presentation (replay plus format); invariant against
    # the order-1 module replays again while axiom checks and counting stay
    # trivial.
    trivial = write("order1.xmod", oracle.module_text(_trivial_module()))
    ops = []
    for index, events in enumerate(MOVIE_EVENTS):
        text = long_movie(rng, events)
        path = write(f"long{index}.movie", text)
        pres, births = oracle.replay(text)
        ops.append(Op("long_movie_compile", ("compile", path),
                      stdout=oracle.format_pres(pres) + f"one_handles {births}\n"))
        ops.append(Op("long_movie_invariant", ("invariant", path, trivial),
                      report=("count 1", f"one_handles {births}", "invariant 1/1")))
    return ops


# The op a fresh interpreter runs to measure set-up: fixed per workload, so
# set-up time does not move with the seed.
SETUP_OPS = {"cli_targets": ("invariant", "spun_hopf.movie", "ga_z4_p3.xmod"),
             "search": ("invariant", "spun_hopf.movie", "inv_z2_z8.xmod"),
             "long_movies": ("compile", "long0.movie")}


def setup_op(workload: str, ops: list) -> Op:
    return next(op for op in ops
                if (op.argv[0], *(Path(a).name for a in op.argv[1:])) == SETUP_OPS[workload])


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the inputs of ``workload`` for ``seed`` and return its ops in order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {"cli_targets": cli_targets, "search": search,
           "long_movies": long_movies}[workload](rng, _Writer(workdir))
    rng.shuffle(ops)
    return ops
