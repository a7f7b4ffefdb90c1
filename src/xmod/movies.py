"""Movie scripts for knotted surfaces and their compilation to presentations.

A movie is replayed as a sequence of labelled-diagram events:

  * ``birth`` introduces a circle (one arc) and a fresh base generator
    named after the arc,
  * ``cross`` relabels across a strand/strand crossing (Wirtinger rule),
  * ``sb`` and ``bb`` apply the strand/band and band/band crossing rules,
  * ``saddle`` attaches a 2-handle: it consumes two arc ends, emits a cell
    whose boundary word is read off the two labels, and leaves a band
    labelled by that cell,
  * ``death`` caps a circle with a disk: it removes the listed arcs and
    emits one relation, the signed product of the conjugated labels of the
    bands its spanning disk meets,
  * ``end`` closes the script.

Replay tracks labels only.  It checks id liveness and that every emitted
relation has trivial boundary, but it does not verify that a script is
geometrically realizable; the script is trusted as a description of a
surface.

Crossing rule ids for ``sb`` and ``bb`` (the strand or band moving below
is relabelled; x is the strand label, b the band's boundary word, F the
fixed band's label, M the mover's):

  1  strand under band, positive:   x -> b x b^-1      (sb, needs out=)
  2  band under band, positive:     M -> F M F^-1      (bb)
  3  strand under band, negative:   x -> b^-1 x b      (sb, needs out=)
  4  band under strand, negative:   M -> x^-1 |> M     (sb)
  5  band under band, negative:     M -> F^-1 M F      (bb)
  6  band under strand, positive:   M -> x |> M        (sb)
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormatError, ReplayError, XmodError
from .presentations import (
    CrossedPresentation,
    CrossedWord,
    boundary_of_crossed_word,
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
    return tuple(parse_id(part, "arc", line) for part in value.split(","))


def _keyed(tokens: list[str], line: int, required: tuple[str, ...],
           optional: tuple[str, ...] = ()) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or key not in required + optional:
            raise FormatError(f"unexpected argument {token!r}", line=line)
        if key in out:
            raise FormatError(f"duplicate argument {key!r}", line=line)
        out[key] = value
    for key in required:
        if key not in out:
            raise FormatError(f"missing argument {key}=", line=line)
    return out


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
            sign = parse_sign(tokens[1], line)
            args = _keyed(tokens[2:], line, ("over", "in", "out"))
            events.append(
                WirtingerCross(
                    sign,
                    parse_id(args["over"], "arc", line),
                    parse_id(args["in"], "arc", line),
                    parse_id(args["out"], "arc", line),
                    line,
                )
            )
        elif keyword in ("sb", "bb"):
            if len(tokens) < 2:
                raise FormatError(f"{keyword} takes a rule id", line=line)
            rule = parse_integer(tokens[1], "rule id", line)
            if not 1 <= rule <= 6:
                raise FormatError(f"unknown {keyword} rule {rule}", line=line)
            if keyword == "sb" and rule in (2, 5):
                raise FormatError(f"rule {rule} is a band/band rule; use bb", line=line)
            if keyword == "bb" and rule not in (2, 5):
                raise FormatError(f"rule {rule} is a strand/band rule; use sb", line=line)
            if keyword == "bb":
                args = _keyed(tokens[2:], line, ("mover", "fixed"))
                events.append(
                    BandBandCross(
                        rule,
                        parse_id(args["mover"], "band", line),
                        parse_id(args["fixed"], "band", line),
                        line,
                    )
                )
            else:
                keys = ("band", "strand", "out") if rule in (1, 3) else ("band", "strand")
                args = _keyed(tokens[2:], line, keys)
                out = parse_id(args["out"], "arc", line) if "out" in keys else None
                events.append(
                    StrandBandCross(
                        rule,
                        parse_id(args["band"], "band", line),
                        parse_id(args["strand"], "arc", line),
                        out,
                        line,
                    )
                )
        elif keyword == "saddle":
            args = _keyed(tokens[1:], line, ("cell", "u", "v", "band", "merged"))
            merged = _parse_ids(args["merged"], line)
            if not 1 <= len(merged) <= 2:
                raise FormatError("merged= must list one or two fresh arcs", line=line)
            events.append(
                SaddleEvent(
                    parse_id(args["cell"], "cell", line),
                    _parse_arc_ref(args["u"], line),
                    _parse_arc_ref(args["v"], line),
                    parse_id(args["band"], "band", line),
                    merged,
                    line,
                )
            )
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


class _Replay:
    """Labels of the current diagram plus everything emitted so far: the
    working state one replay folds its events into, in place.

    ``known`` and ``cell_ids`` hold the ids of ``generators`` and ``cells``,
    so every freshness check is a set lookup and each event costs time
    independent of how many came before it.
    """

    __slots__ = ("arcs", "bands", "generators", "known", "cells",
                 "cell_ids", "cell_boundary", "relations", "finished")

    def __init__(self):
        self.arcs: dict[str, FreeWord] = {}
        self.bands: dict[str, tuple[CrossedWord, str]] = {}
        self.generators: list[str] = []
        self.known: set[str] = set()
        self.cells: list[str] = []
        self.cell_ids: set[str] = set()
        self.cell_boundary: dict[str, FreeWord] = {}
        self.relations: list[CrossedWord] = []
        self.finished = False


def _live_arc(work: _Replay, arc: str) -> FreeWord:
    try:
        return work.arcs[arc]
    except KeyError:
        raise XmodError(f"arc {arc!r} is not live") from None


def _live_band(work: _Replay, band: str) -> tuple[CrossedWord, str]:
    try:
        return work.bands[band]
    except KeyError:
        raise XmodError(f"band {band!r} is not live") from None


def _step(work: _Replay, event: Event) -> None:
    """Apply one event to ``work`` in place.

    Checks may follow mutations of the same event, so a raising step leaves
    ``work`` part-way; callers discard it.
    """
    if work.finished:
        raise XmodError("script already ended")
    if isinstance(event, Birth):
        if event.arc in work.known:
            raise XmodError(f"generator {event.arc!r} already exists")
        if event.arc in work.cell_ids:
            raise XmodError(f"generator {event.arc!r} collides with a cell")
        if event.arc in work.arcs:
            raise XmodError(f"arc {event.arc!r} is already live")
        work.arcs[event.arc] = FreeWord(((event.arc, 1),))
        work.generators.append(event.arc)
        work.known.add(event.arc)
    elif isinstance(event, WirtingerCross):
        over = _live_arc(work, event.over)
        into = _live_arc(work, event.under_in)
        if event.under_out in work.arcs:
            raise XmodError(f"arc {event.under_out!r} is already live")
        if event.sign > 0:
            label = over.inverse() * into * over
        else:
            label = over * into * over.inverse()
        work.arcs[event.under_out] = label
    elif isinstance(event, StrandBandCross):
        band_label, owner = _live_band(work, event.band)
        strand = _live_arc(work, event.strand)
        if event.rule in (1, 3):
            if event.out in work.arcs:
                raise XmodError(f"arc {event.out!r} is already live")
            b = boundary_of_crossed_word(work, band_label)
            if event.rule == 1:
                label = b * strand * b.inverse()
            else:
                label = b.inverse() * strand * b
            work.arcs[event.out] = label
        else:
            mover = strand if event.rule == 6 else strand.inverse()
            work.bands[event.band] = (band_label.act(mover), owner)
    elif isinstance(event, BandBandCross):
        mover_label, owner = _live_band(work, event.mover)
        fixed_label, _ = _live_band(work, event.fixed)
        if event.mover == event.fixed:
            raise XmodError("a band cannot cross itself")
        if event.rule == 2:
            moved = fixed_label * mover_label * fixed_label.inverse()
        else:
            moved = fixed_label.inverse() * mover_label * fixed_label
        work.bands[event.mover] = (moved, owner)
    elif isinstance(event, SaddleEvent):
        u_label = _live_arc(work, event.u[0])
        v_label = _live_arc(work, event.v[0])
        if event.cell in work.cell_ids:
            raise XmodError(f"cell {event.cell!r} already exists")
        if event.cell in work.known:
            raise XmodError(f"cell id {event.cell!r} collides with a generator")
        if event.band in work.bands:
            raise XmodError(f"band {event.band!r} is already live")
        wu = u_label if event.u[1] > 0 else u_label.inverse()
        wv = v_label if event.v[1] > 0 else v_label.inverse()
        if len(set(event.merged)) != len(event.merged):
            raise XmodError("merged arc ids must be distinct")
        # The consumed arcs go first, so a merged arc may reuse their ids.
        del work.arcs[event.u[0]]
        work.arcs.pop(event.v[0], None)
        inherited = (u_label, v_label)
        for index, arc in enumerate(event.merged):
            if arc in work.arcs:
                raise XmodError(f"arc {arc!r} is already live")
            work.arcs[arc] = inherited[index]
        work.bands[event.band] = (
            CrossedWord(((EMPTY_WORD, event.cell, 1),)), event.cell
        )
        work.cells.append(event.cell)
        work.cell_ids.add(event.cell)
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
        relation = CrossedWord()
        for band, conjugator, sign in event.spanner:
            label, _ = _live_band(work, band)
            unknown = sorted(conjugator.generators() - work.known)
            if unknown:
                raise XmodError(
                    f"spanner conjugator uses unknown generator {unknown[0]!r}"
                )
            moved = label.act(conjugator)
            relation = relation * (moved if sign > 0 else moved.inverse())
        boundary = boundary_of_crossed_word(work, relation)
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
    state, so replay takes time linear in the number of events.
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
    presentation = CrossedPresentation(
        tuple(work.generators), tuple(work.cells), work.cell_boundary,
        tuple(work.relations),
    )
    report = validate_presentation(presentation)
    if not report.ok:
        raise ReplayError(
            f"compiled presentation is invalid: {report.violations[0]}",
            event_index=len(script.events) - 1,
        )
    return presentation
