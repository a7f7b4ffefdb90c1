"""Movie scripts for knotted surfaces and their compilation to presentations.

A movie is replayed as a sequence of labelled-diagram events:

  * ``birth`` introduces a circle (one arc) and a fresh base generator
    named after the arc,
  * ``cross`` relabels across a strand/strand crossing (Wirtinger rule),
  * ``sb`` and ``bb`` apply the strand/band and band/band crossing rules
    of ``_RULES``,
  * ``saddle`` attaches a 2-handle: it consumes two arc ends, emits a cell
    whose boundary word is read off the two labels, and leaves a band
    labelled by that cell,
  * ``death`` caps a circle with a disk: it removes the listed arcs and
    emits one relation, the signed product of the conjugated labels of the
    bands its spanning disk meets,
  * ``end`` closes the script.

Replay tracks labels only.  It checks that ids are well formed, fresh and
live and that every emitted relation has trivial boundary, so it returns a
valid presentation, validated again only where it is counted.  It does not
verify that a script is geometrically realizable.

The ``sb`` and ``bb`` crossing rules are the table ``_RULES``.  Replay
builds at most ``MAX_REPLAY_SIZE`` letters and terms per movie, so a movie
whose labels grow geometrically is refused instead of running out of time
or memory.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormatError, ReplayError, XmodError
from .presentations import (
    CrossedPresentation,
    CrossedWord,
    _crossed,
    boundary_of_crossed_word,
    # Not called here: perfbench.loop.WRAPPED patches this name in movies.
    validate_presentation,
)
from .words import (
    EMPTY_WORD,
    FreeWord,
    LineReader,
    parse_id,
    parse_integer,
    parse_sign,
    parse_word,
    valid_name,
)

ArcRef = tuple[str, int]  # (arc id, +1 or -1 for a reversed reading)
SpannerTerm = tuple[str, FreeWord, int]  # (band id, conjugator, sign)


@dataclass(frozen=True)
class Birth:
    arc: str
    line: int


@dataclass(frozen=True)
class WirtingerCross:
    sign: int
    over: str
    under_in: str
    under_out: str
    line: int


@dataclass(frozen=True)
class StrandBandCross:
    rule: int
    band: str
    strand: str
    out: str | None
    line: int


@dataclass(frozen=True)
class BandBandCross:
    rule: int
    mover: str
    fixed: str
    line: int


@dataclass(frozen=True)
class SaddleEvent:
    cell: str
    u: ArcRef
    v: ArcRef
    band: str
    merged: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class DeathEvent:
    circle: tuple[str, ...]
    spanner: tuple[SpannerTerm, ...]
    line: int


@dataclass(frozen=True)
class EndEvent:
    line: int


Event = Birth | WirtingerCross | StrandBandCross | BandBandCross | SaddleEvent | DeathEvent | EndEvent


@dataclass(frozen=True)
class MovieScript:
    name: str
    events: tuple[Event, ...]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SPANNER_RE = re.compile(r"spanner=\[(.*)\]\Z")


def _parse_arc_ref(token: str, line: int) -> ArcRef:
    base, caret, exp = token.partition("^")
    name = parse_id(base, "arc", line)
    if not caret:
        return (name, 1)
    if exp != "-1":
        raise FormatError(
            f"arc reference exponent must be -1, got {token!r}", line=line
        )
    return (name, -1)


def _parse_ids(value: str, line: int) -> tuple[str, ...]:
    """A comma-separated list of arc ids; an empty item is a bad id."""
    if not value:
        return ()
    return tuple([parse_id(part, "arc", line) for part in value.split(",")])


def _id_reader(what: str):
    """The reader of a keyed argument whose value is one id of kind ``what``."""
    return lambda value, line: parse_id(value, what, line)


# How the value of each keyed argument is read.
_ARGUMENTS = {
    **dict.fromkeys(("over", "in", "out", "strand"), _id_reader("arc")),
    **dict.fromkeys(("band", "mover", "fixed"), _id_reader("band")),
    "cell": _id_reader("cell"),
    "u": _parse_arc_ref,
    "v": _parse_arc_ref,
    "merged": _parse_ids,
}

# The crossing rules of ``sb`` and ``bb``: rule id -> (keyword, direction,
# needs out=).  The strand or band passing below is conjugated by the label
# above it, or by that label's inverse where the direction is -1.  x is the
# strand label, b the band's boundary word, F the fixed band's label and M
# the mover's.
_RULES = {
    1: ("sb", 1, True),    # strand under band:  x -> b x b^-1
    2: ("bb", 1, False),   # band under band:    M -> F M F^-1
    3: ("sb", -1, True),   # strand under band:  x -> b^-1 x b
    4: ("sb", -1, False),  # band under strand:  M -> x^-1 |> M
    5: ("bb", -1, False),  # band under band:    M -> F^-1 M F
    6: ("sb", 1, False),   # band under strand:  M -> x |> M
}


def _rule(keyword: str, rule: int) -> tuple[str, int, bool]:
    """The ``_RULES`` entry of ``rule``; ``XmodError`` unless it is a ``keyword`` rule."""
    kind = _RULES.get(rule, (None,))[0]
    if kind is None:
        raise XmodError(f"unknown {keyword} rule {rule}")
    if kind != keyword:
        which = "band/band" if kind == "bb" else "strand/band"
        raise XmodError(f"rule {rule} is a {which} rule; use {kind}")
    return _RULES[rule]


def _keyed(tokens: list[str], line: int, keys: tuple[str, ...]) -> list:
    """The values of the ``key=value`` tokens, read as ``_ARGUMENTS`` says,
    in the order of ``keys``; every key must be given exactly once."""
    out: dict[str, str] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or key not in keys:
            raise FormatError(f"unexpected argument {token!r}", line=line)
        if key in out:
            raise FormatError(f"duplicate argument {key!r}", line=line)
        out[key] = value
    if len(out) < len(keys):
        missing = next(key for key in keys if key not in out)
        raise FormatError(f"missing argument {missing}=", line=line)
    return [_ARGUMENTS[key](out[key], line) for key in keys]


def _parse_spanner(text: str, line: int) -> tuple[SpannerTerm, ...]:
    body = text.strip()
    if not body:
        return ()
    terms = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise FormatError(
                f"spanner term must be (band,word,sign), got {chunk!r}", line=line
            )
        parts = chunk[1:-1].split(",")
        if len(parts) != 3:
            raise FormatError(
                f"spanner term must have 3 fields, got {chunk!r}", line=line
            )
        band = parse_id(parts[0].strip(), "band", line)
        word = parse_word(parts[1], line=line, field="spanner")
        sign = parse_sign(parts[2].strip(), line)
        terms.append((band, word, sign))
    return tuple(terms)


def parse_movie_script(text: str, name: str = "movie") -> MovieScript:
    """Parse the movie DSL.  Syntax only; ids are resolved during replay."""
    events: list[Event] = []
    saw_end = False
    lines = LineReader(text)
    for line, content in lines:
        if saw_end:
            raise FormatError("content after 'end'", line=line)
        tokens = content.split()
        keyword = tokens[0]
        if keyword == "birth":
            if len(tokens) != 2:
                raise FormatError("birth takes exactly one arc id", line=line)
            events.append(Birth(parse_id(tokens[1], "arc", line), line))
        elif keyword == "cross":
            if len(tokens) != 5:
                raise FormatError("cross takes a sign and over=, in=, out=", line=line)
            events.append(WirtingerCross(
                parse_sign(tokens[1], line),
                *_keyed(tokens[2:], line, ("over", "in", "out")), line))
        elif keyword in ("sb", "bb"):
            if len(tokens) < 2:
                raise FormatError(f"{keyword} takes a rule id", line=line)
            rule = parse_integer(tokens[1], "rule id", line)
            try:
                needs_out = _rule(keyword, rule)[2]
            except XmodError as exc:
                raise FormatError(str(exc), line=line) from None
            if keyword == "bb":
                events.append(BandBandCross(
                    rule, *_keyed(tokens[2:], line, ("mover", "fixed")), line))
            else:
                keys = ("band", "strand", "out") if needs_out else ("band", "strand")
                band, strand, *out = _keyed(tokens[2:], line, keys)
                events.append(StrandBandCross(rule, band, strand, *(out or [None]), line))
        elif keyword == "saddle":
            cell, u, v, band, merged = _keyed(
                tokens[1:], line, ("cell", "u", "v", "band", "merged"))
            if not 1 <= len(merged) <= 2:
                raise FormatError("merged= must list one or two fresh arcs", line=line)
            events.append(SaddleEvent(cell, u, v, band, merged, line))
        elif keyword == "death":
            match = _SPANNER_RE.search(content)
            if match is None:
                raise FormatError("death needs spanner=[...]", line=line)
            spanner = _parse_spanner(match.group(1), line)
            head = content[: match.start()].strip()
            head_tokens = head.split()
            if len(head_tokens) != 2 or head_tokens[0] != "death":
                raise FormatError(
                    "death takes circle=<arcs> and spanner=[...]", line=line
                )
            key, eq, value = head_tokens[1].partition("=")
            if key != "circle" or not eq or not value:
                raise FormatError("death needs circle=<arc,...>", line=line)
            events.append(DeathEvent(_parse_ids(value, line), spanner, line))
        elif keyword == "end":
            if len(tokens) != 1:
                raise FormatError("end takes no arguments", line=line)
            events.append(EndEvent(line))
            saw_end = True
        else:
            raise FormatError(f"unknown event {keyword!r}", line=line)
    if not saw_end:
        raise lines.end_error("missing 'end' event")
    return MovieScript(name, tuple(events))


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


# The letters and terms one replay may build, counted over every label it
# stores and every boundary word it reads.  A fixture builds at most 62 and
# a generated 7000-event movie about 35000; a movie whose labels grow
# geometrically reaches the bound in under a second on a 2-core VM.
MAX_REPLAY_SIZE = 10**6


class _Replay:
    """Labels of the current diagram plus everything emitted so far: the
    working state one replay folds its events into, in place.

    ``known`` holds the ids of ``generators`` and ``cell_boundary`` is keyed
    by the ids of ``cells``, so every freshness check is a lookup and each
    event costs time independent of how many came before it.  ``size``
    counts the letters and terms built so far.
    """

    __slots__ = ("arcs", "bands", "generators", "known", "cells",
                 "cell_boundary", "relations", "finished", "size")

    def __init__(self):
        self.arcs: dict[str, FreeWord] = {}
        self.bands: dict[str, CrossedWord] = {}
        self.generators: list[str] = []
        self.known: set[str] = set()
        self.cells: list[str] = []
        self.cell_boundary: dict[str, FreeWord] = {}
        self.relations: list[CrossedWord] = []
        self.finished = False
        self.size = 0


def _live_arc(work: _Replay, arc: str) -> FreeWord:
    try:
        return work.arcs[arc]
    except KeyError:
        raise XmodError(f"arc {arc!r} is not live") from None


def _live_band(work: _Replay, band: str) -> CrossedWord:
    try:
        return work.bands[band]
    except KeyError:
        raise XmodError(f"band {band!r} is not live") from None


def _charge(work: _Replay, size: int) -> None:
    """Count ``size`` letters and terms about to be built; past
    ``MAX_REPLAY_SIZE`` the movie is refused before they are."""
    work.size += size
    if work.size > MAX_REPLAY_SIZE:
        raise XmodError(f"labels grow past {MAX_REPLAY_SIZE} letters and terms")


def _size(label: CrossedWord) -> int:
    """Terms plus conjugator letters."""
    return sum([1 + len(word.letters) for word, _, _ in label.terms])


def _acted(work: _Replay, label: CrossedWord, word: FreeWord) -> CrossedWord:
    """``label.act(word)``, charged before it is built."""
    _charge(work, _size(label) + len(label.terms) * len(word.letters))
    return label.act(word)


def _boundary(work: _Replay, label: CrossedWord) -> FreeWord:
    """The boundary word of ``label``, charged by the letters it joins
    before reducing them."""
    cells = work.cell_boundary
    _charge(work, sum([2 * len(word.letters) + len(cells[cell].letters)
                       for word, cell, _ in label.terms]))
    return boundary_of_crossed_word(work, label)


def _step(work: _Replay, event: Event) -> None:
    """Apply one event to ``work`` in place.

    Checks may follow mutations of the same event, so a raising step leaves
    ``work`` part-way; callers discard it.
    """
    if work.finished:
        raise XmodError("script already ended")
    if isinstance(event, Birth):
        if not valid_name(event.arc):
            raise XmodError(f"bad arc id {event.arc!r}")
        if event.arc in work.known:
            raise XmodError(f"generator {event.arc!r} already exists")
        if event.arc in work.cell_boundary:
            raise XmodError(f"generator {event.arc!r} collides with a cell")
        if event.arc in work.arcs:
            raise XmodError(f"arc {event.arc!r} is already live")
        _charge(work, 1)
        work.arcs[event.arc] = FreeWord(((event.arc, 1),))
        work.generators.append(event.arc)
        work.known.add(event.arc)
    elif isinstance(event, WirtingerCross):
        over = _live_arc(work, event.over)
        into = _live_arc(work, event.under_in)
        if event.under_out in work.arcs:
            raise XmodError(f"arc {event.under_out!r} is already live")
        if event.sign < 0:
            over = over.inverse()
        _charge(work, 2 * len(over) + len(into))
        work.arcs[event.under_out] = over.inverse() * into * over
    elif isinstance(event, StrandBandCross):
        _, direction, needs_out = _rule("sb", event.rule)
        if needs_out != (event.out is not None):
            raise XmodError(f"sb rule {event.rule} "
                            f"{'needs' if needs_out else 'takes no'} out=")
        band_label = _live_band(work, event.band)
        strand = _live_arc(work, event.strand)
        if event.out is not None:
            if event.out in work.arcs:
                raise XmodError(f"arc {event.out!r} is already live")
            b = _boundary(work, band_label)
            if direction < 0:
                b = b.inverse()
            _charge(work, 2 * len(b) + len(strand))
            work.arcs[event.out] = b * strand * b.inverse()
        else:
            mover = strand if direction > 0 else strand.inverse()
            work.bands[event.band] = _acted(work, band_label, mover)
    elif isinstance(event, BandBandCross):
        direction = _rule("bb", event.rule)[1]
        mover_label = _live_band(work, event.mover)
        fixed_label = _live_band(work, event.fixed)
        if event.mover == event.fixed:
            raise XmodError("a band cannot cross itself")
        if direction < 0:
            fixed_label = fixed_label.inverse()
        _charge(work, _size(mover_label) + 2 * _size(fixed_label))
        work.bands[event.mover] = fixed_label * mover_label * fixed_label.inverse()
    elif isinstance(event, SaddleEvent):
        u_label = _live_arc(work, event.u[0])
        v_label = _live_arc(work, event.v[0])
        if not valid_name(event.cell):
            raise XmodError(f"bad cell id {event.cell!r}")
        if event.cell in work.cell_boundary:
            raise XmodError(f"cell {event.cell!r} already exists")
        if event.cell in work.known:
            raise XmodError(f"cell id {event.cell!r} collides with a generator")
        if event.band in work.bands:
            raise XmodError(f"band {event.band!r} is already live")
        wu = u_label if event.u[1] > 0 else u_label.inverse()
        wv = v_label if event.v[1] > 0 else v_label.inverse()
        if len(set(event.merged)) != len(event.merged):
            raise XmodError("merged arc ids must be distinct")
        _charge(work, len(wu) + len(wv) + 1)
        # The consumed arcs go first, so a merged arc may reuse their ids.
        del work.arcs[event.u[0]]
        work.arcs.pop(event.v[0], None)
        inherited = (u_label, v_label)
        for index, arc in enumerate(event.merged):
            if arc in work.arcs:
                raise XmodError(f"arc {arc!r} is already live")
            work.arcs[arc] = inherited[index]
        work.bands[event.band] = CrossedWord(((EMPTY_WORD, event.cell, 1),))
        work.cells.append(event.cell)
        work.cell_boundary[event.cell] = wu * wv.inverse()
    elif isinstance(event, DeathEvent):
        if len(set(event.circle)) != len(event.circle):
            raise XmodError("death circle lists an arc twice")
        for arc in event.circle:
            if arc not in work.arcs:
                raise XmodError(f"arc {arc!r} is not live")
            del work.arcs[arc]
        # A disk meeting no bands yields the empty relation, which is omitted.
        if not event.spanner:
            return
        terms: list = []
        for band, conjugator, sign in event.spanner:
            label = _live_band(work, band)
            if not work.known.issuperset(conjugator.generators()):
                unknown = sorted(conjugator.generators() - work.known)
                raise XmodError(
                    f"spanner conjugator uses unknown generator {unknown[0]!r}"
                )
            moved = _acted(work, label, conjugator)
            terms += (moved if sign > 0 else moved.inverse()).terms
        relation = _crossed(tuple(terms))
        boundary = _boundary(work, relation)
        if not boundary.is_empty:
            raise XmodError(
                f"death relation has nontrivial boundary {boundary}"
            )
        work.relations.append(relation)
    elif isinstance(event, EndEvent):
        work.finished = True
    else:
        raise XmodError(f"unknown event type {type(event).__name__}")


def compile_movie(script: MovieScript) -> CrossedPresentation:
    """Replay a movie and return the presentation of its complement.

    Each ``birth`` event adds one base generator, so ``one_handles`` of the
    result counts those events.  The events are folded into one working
    state, so replay takes time linear in the number of events.  Replay's
    checks make the result valid; it is validated again only where counted.
    """
    work = _Replay()
    for index, event in enumerate(script.events):
        try:
            _step(work, event)
        except XmodError as exc:
            raise ReplayError(str(exc), event_index=index,
                              line=getattr(event, "line", None)) from exc
    if not work.finished:
        raise ReplayError("script has no 'end' event", event_index=len(script.events))
    return CrossedPresentation(tuple(work.generators), tuple(work.cells),
                               work.cell_boundary, tuple(work.relations))
