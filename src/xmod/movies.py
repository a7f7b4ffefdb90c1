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

A line in the canonical spelling (one space between tokens, keys in the
order of the grammar) is read by one compiled pattern for its event kind.
Any other line goes to the token reader, which reads the other spellings to
the same events and refuses every malformed line with its ``FormatError``.

Events are slotted dataclasses, so equal fields make equal events only
within one class.

Replay tracks labels only, as plain letter tuples ``((gen, +1 or -1), ...)``
and term tuples ``(letters, cell, sign)``, through the letter-tuple routines
of ``words`` and ``presentations``; a death's spanner conjugators come from
the parser as reduced letter tuples too, which the canonical reader builds
without a word object.  The words become ``FreeWord`` and ``CrossedWord``
values only when ``compile_movie`` returns.  It checks that ids are well
formed, fresh and live and that every emitted relation has trivial
boundary, so it returns a valid presentation, validated again only where it
is counted.  It does not verify that a script is geometrically realizable.
It builds at most ``MAX_REPLAY_SIZE`` letters and terms per movie, so a
movie whose labels grow geometrically is refused instead of running out of
time or memory.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormatError, ReplayError, XmodError
from .presentations import (
    CrossedPresentation,
    _boundary_letters,
    _crossed,
    _inverse_terms,
    # Not called here: perfbench.loop.WRAPPED patches this name in movies.
    validate_presentation,
)
from .words import (
    _SIGN,
    _SIGNS,
    _WORD,
    NAME,
    NAME_RE,
    Letters,
    LineReader,
    _canonical_letters,
    _inverse,
    _product,
    _reduced,
    format_word,
    parse_id,
    parse_integer,
    parse_sign,
    parse_word,
)

ArcRef = tuple[str, int]  # (arc id, +1 or -1 for a reversed reading)
SpannerTerm = tuple[str, Letters, int]  # (band id, reduced conjugator letters, sign)
# A band label or relation during replay: (conjugator letters, cell, sign) terms.
Terms = tuple[tuple[Letters, str, int], ...]


@dataclass(slots=True)
class Birth:
    arc: str
    line: int


@dataclass(slots=True)
class WirtingerCross:
    sign: int
    over: str
    under_in: str
    under_out: str
    line: int


@dataclass(slots=True)
class StrandBandCross:
    rule: int
    band: str
    strand: str
    out: str | None
    line: int


@dataclass(slots=True)
class BandBandCross:
    rule: int
    mover: str
    fixed: str
    line: int


@dataclass(slots=True)
class SaddleEvent:
    cell: str
    u: ArcRef
    v: ArcRef
    band: str
    merged: tuple[str, ...]
    line: int


@dataclass(slots=True)
class DeathEvent:
    circle: tuple[str, ...]
    spanner: tuple[SpannerTerm, ...]
    line: int


@dataclass(slots=True)
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


# The keys of each keyed event, in the order of the grammar.  An sb rule
# that needs out= takes it after these.
_CROSS_KEYS = ("over", "in", "out")
_SB_KEYS = ("band", "strand")
_BB_KEYS = ("mover", "fixed")
_SADDLE_KEYS = ("cell", "u", "v", "band", "merged")
# The refusal of a saddle whose merged= lists no arc or more than two, by
# the parser and by replay alike.
_MERGED_COUNT = "merged= must list one or two fresh arcs"


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
        word = parse_word(parts[1], line=line, field="spanner").letters
        sign = parse_sign(parts[2].strip(), line)
        terms.append((band, word, sign))
    return tuple(terms)


def _read_event(content: str, line: int) -> Event:
    """The event of one content line, read token by token.  Every spelling
    the grammar allows is read here, and every malformed line is refused
    here with its ``FormatError``."""
    tokens = content.split()
    keyword = tokens[0]
    if keyword == "birth":
        if len(tokens) != 2:
            raise FormatError("birth takes exactly one arc id", line=line)
        return Birth(parse_id(tokens[1], "arc", line), line)
    if keyword == "cross":
        if len(tokens) != 5:
            raise FormatError("cross takes a sign and over=, in=, out=", line=line)
        return WirtingerCross(parse_sign(tokens[1], line),
                              *_keyed(tokens[2:], line, _CROSS_KEYS), line)
    if keyword in ("sb", "bb"):
        if len(tokens) < 2:
            raise FormatError(f"{keyword} takes a rule id", line=line)
        rule = parse_integer(tokens[1], "rule id", line)
        try:
            needs_out = _rule(keyword, rule)[2]
        except XmodError as exc:
            raise FormatError(str(exc), line=line) from None
        if keyword == "bb":
            return BandBandCross(rule, *_keyed(tokens[2:], line, _BB_KEYS), line)
        keys = _SB_KEYS + ("out",) if needs_out else _SB_KEYS
        band, strand, *out = _keyed(tokens[2:], line, keys)
        return StrandBandCross(rule, band, strand, *(out or [None]), line)
    if keyword == "saddle":
        cell, u, v, band, merged = _keyed(tokens[1:], line, _SADDLE_KEYS)
        if not 1 <= len(merged) <= 2:
            raise FormatError(_MERGED_COUNT, line=line)
        return SaddleEvent(cell, u, v, band, merged, line)
    if keyword == "death":
        match = _SPANNER_RE.search(content)
        if match is None:
            raise FormatError("death needs spanner=[...]", line=line)
        spanner = _parse_spanner(match.group(1), line)
        head_tokens = content[: match.start()].split()
        if len(head_tokens) != 2 or head_tokens[0] != "death":
            raise FormatError("death takes circle=<arcs> and spanner=[...]", line=line)
        key, eq, value = head_tokens[1].partition("=")
        if key != "circle" or not eq or not value:
            raise FormatError("death needs circle=<arc,...>", line=line)
        return DeathEvent(_parse_ids(value, line), spanner, line)
    if keyword == "end":
        if len(tokens) != 1:
            raise FormatError("end takes no arguments", line=line)
        return EndEvent(line)
    raise FormatError(f"unknown event {keyword!r}", line=line)


# The canonical spelling of each event: one space between tokens, the keys
# in the order of the grammar, signs ``+`` and ``-``, rule ids as ``_RULES``
# writes them, and spanner words in letters ``X`` and ``X^-1`` or ``1``.  A
# line in it is read by one ``fullmatch`` of its keyword's pattern.  The
# patterns are built from the id rule, the key tuples, ``_RULES``, and the
# sign and word pieces of ``words`` that the presentation reader shares, and
# accept no line that the token reader refuses or reads otherwise.
_ID = f"({NAME})"
_ARC_REF = rf"({NAME})(\^-1)?"
_TERM = rf"\(({NAME}),({_WORD}),{_SIGN}\)"


def _keys_pattern(keys: tuple[str, ...], **values: str) -> str:
    """`` key=value`` for each of ``keys``; a value is one id unless
    ``values`` gives its pattern."""
    return "".join(f" {key}={values.get(key, _ID)}" for key in keys)


def _rule_ids(keyword: str, needs_out: bool) -> str:
    """The ``keyword`` rule ids of ``_RULES`` that need out= or not, as
    alternatives."""
    return "|".join(str(rule) for rule, (kind, _, out) in _RULES.items()
                    if (kind, out) == (keyword, needs_out))


def _canonical_saddle(match: re.Match, line: int) -> SaddleEvent:
    cell, u, u_reversed, v, v_reversed, band, merged = match.groups()
    return SaddleEvent(cell, (u, -1 if u_reversed else 1), (v, -1 if v_reversed else 1),
                       band, tuple(merged.split(",")), line)


def _canonical_death(match: re.Match, line: int) -> DeathEvent:
    # The pattern matched each term, so the spanner splits into its terms on
    # ";" and a term into its band, word and sign on ",".
    terms = []
    for term in match[2].split(";") if match[2] else ():
        band, word, sign = term[1:-1].split(",")
        terms.append((band, _canonical_letters(word), _SIGNS[sign]))
    return DeathEvent(tuple(match[1].split(",")), tuple(terms), line)


# keyword -> (pattern of its canonical lines, event of a match and its line).
_CANONICAL = {keyword: (re.compile(pattern), build) for keyword, pattern, build in (
    ("birth", f"birth {_ID}", lambda match, line: Birth(match[1], line)),
    ("cross", f"cross {_SIGN}" + _keys_pattern(_CROSS_KEYS),
     lambda match, line: WirtingerCross(_SIGNS[match[1]], match[2], match[3], match[4], line)),
    # (?(1) ...) asks for out= exactly where the rule id is one that needs it.
    ("sb", f"sb (?:({_rule_ids('sb', True)})|({_rule_ids('sb', False)}))"
     + _keys_pattern(_SB_KEYS) + f"(?(1) out={_ID})",
     lambda match, line: StrandBandCross(int(match[1] or match[2]), *match.groups()[2:], line)),
    ("bb", f"bb ({_rule_ids('bb', False)})" + _keys_pattern(_BB_KEYS),
     lambda match, line: BandBandCross(int(match[1]), match[2], match[3], line)),
    ("saddle", "saddle" + _keys_pattern(_SADDLE_KEYS, u=_ARC_REF, v=_ARC_REF,
                                        merged=f"({NAME}(?:,{NAME})?)"), _canonical_saddle),
    ("death", rf"death circle=({NAME}(?:,{NAME})*) spanner=\[((?:{_TERM}(?:;{_TERM})*)?)\]",
     _canonical_death),
    ("end", "end", lambda match, line: EndEvent(line)),
)}


def parse_movie_script(text: str, name: str = "movie") -> MovieScript:
    """Parse the movie DSL.  Syntax only; ids are resolved during replay.

    A line in its canonical spelling is read by its keyword's pattern; any
    other line, and every malformed one, by the token reader.
    """
    events: list[Event] = []
    lines = LineReader(text)
    for line, content in lines:
        canonical = _CANONICAL.get(content.partition(" ")[0])
        match = canonical and canonical[0].fullmatch(content)
        event = canonical[1](match, line) if match else _read_event(content, line)
        events.append(event)
        if type(event) is EndEvent:
            break
    else:
        raise lines.end_error("missing 'end' event")
    for line, _ in lines:
        raise FormatError("content after 'end'", line=line)
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

    Words are freely reduced letter tuples, and band labels and relations
    term tuples.  ``known`` holds the ids of ``generators`` and
    ``cell_boundary`` is keyed by the ids of ``cells``, so every freshness
    check is a lookup and each event costs time independent of how many
    came before it.  ``size`` counts the letters and terms built so far;
    each step adds what it is about to build and refuses the movie past
    ``MAX_REPLAY_SIZE`` before building it.
    """

    __slots__ = ("arcs", "bands", "generators", "known", "cells",
                 "cell_boundary", "relations", "finished", "size")

    def __init__(self):
        self.arcs: dict[str, Letters] = {}
        self.bands: dict[str, Terms] = {}
        self.generators: list[str] = []
        self.known: set[str] = set()
        self.cells: list[str] = []
        self.cell_boundary: dict[str, Letters] = {}
        self.relations: list[Terms] = []
        self.finished = False
        self.size = 0


def _grown() -> XmodError:
    return XmodError(f"labels grow past {MAX_REPLAY_SIZE} letters and terms")


def _birth(work: _Replay, event: Birth) -> None:
    arc = event.arc
    if not NAME_RE.match(arc):
        raise XmodError(f"bad arc id {arc!r}")
    if arc in work.known:
        raise XmodError(f"generator {arc!r} already exists")
    if arc in work.cell_boundary:
        raise XmodError(f"generator {arc!r} collides with a cell")
    if arc in work.arcs:
        raise XmodError(f"arc {arc!r} is already live")
    work.size += 1
    if work.size > MAX_REPLAY_SIZE:
        raise _grown()
    work.arcs[arc] = ((arc, 1),)
    work.generators.append(arc)
    work.known.add(arc)


def _cross(work: _Replay, event: WirtingerCross) -> None:
    arcs = work.arcs
    over = arcs.get(event.over)
    if over is None:
        raise XmodError(f"arc {event.over!r} is not live")
    into = arcs.get(event.under_in)
    if into is None:
        raise XmodError(f"arc {event.under_in!r} is not live")
    if event.under_out in arcs:
        raise XmodError(f"arc {event.under_out!r} is already live")
    work.size += 2 * len(over) + len(into)
    if work.size > MAX_REPLAY_SIZE:
        raise _grown()
    # x -> over^-1 x over, or over x over^-1 under a negative crossing.
    left, right = _inverse(over), over
    if event.sign < 0:
        left, right = right, left
    arcs[event.under_out] = _product(_product(left, into), right)


def _strand_band(work: _Replay, event: StrandBandCross) -> None:
    _, direction, needs_out = _rule("sb", event.rule)
    if needs_out != (event.out is not None):
        raise XmodError(f"sb rule {event.rule} "
                        f"{'needs' if needs_out else 'takes no'} out=")
    band_label = work.bands.get(event.band)
    if band_label is None:
        raise XmodError(f"band {event.band!r} is not live")
    strand = work.arcs.get(event.strand)
    if strand is None:
        raise XmodError(f"arc {event.strand!r} is not live")
    if event.out is not None:
        if event.out in work.arcs:
            raise XmodError(f"arc {event.out!r} is already live")
        cells = work.cell_boundary
        work.size += sum([2 * len(w) + len(cells[cell]) for w, cell, _ in band_label])
        if work.size > MAX_REPLAY_SIZE:
            raise _grown()
        b = _boundary_letters(band_label, cells.__getitem__)
        if direction < 0:
            b = _inverse(b)
        work.size += 2 * len(b) + len(strand)
        if work.size > MAX_REPLAY_SIZE:
            raise _grown()
        work.arcs[event.out] = _product(_product(b, strand), _inverse(b))
    else:
        mover = strand if direction > 0 else _inverse(strand)
        work.size += len(band_label) * (1 + len(mover)) + sum([len(w) for w, _, _ in band_label])
        if work.size > MAX_REPLAY_SIZE:
            raise _grown()
        work.bands[event.band] = tuple([(_product(mover, w), cell, sign)
                                        for w, cell, sign in band_label])


def _band_band(work: _Replay, event: BandBandCross) -> None:
    direction = _rule("bb", event.rule)[1]
    mover_label = work.bands.get(event.mover)
    if mover_label is None:
        raise XmodError(f"band {event.mover!r} is not live")
    fixed_label = work.bands.get(event.fixed)
    if fixed_label is None:
        raise XmodError(f"band {event.fixed!r} is not live")
    if event.mover == event.fixed:
        raise XmodError("a band cannot cross itself")
    if direction < 0:
        fixed_label = _inverse_terms(fixed_label)
    # Terms plus conjugator letters: the mover's once and the fixed band's twice.
    work.size += sum([1 + len(w) for w, _, _ in mover_label + fixed_label + fixed_label])
    if work.size > MAX_REPLAY_SIZE:
        raise _grown()
    work.bands[event.mover] = fixed_label + mover_label + _inverse_terms(fixed_label)


def _saddle(work: _Replay, event: SaddleEvent) -> None:
    arcs = work.arcs
    (u, u_sign), (v, v_sign) = event.u, event.v
    u_label = arcs.get(u)
    if u_label is None:
        raise XmodError(f"arc {u!r} is not live")
    v_label = arcs.get(v)
    if v_label is None:
        raise XmodError(f"arc {v!r} is not live")
    cell, band, merged = event.cell, event.band, event.merged
    if not NAME_RE.match(cell):
        raise XmodError(f"bad cell id {cell!r}")
    if cell in work.cell_boundary:
        raise XmodError(f"cell {cell!r} already exists")
    if cell in work.known:
        raise XmodError(f"cell id {cell!r} collides with a generator")
    if band in work.bands:
        raise XmodError(f"band {band!r} is already live")
    if not 1 <= len(merged) <= 2:
        raise XmodError(_MERGED_COUNT)
    if len(set(merged)) != len(merged):
        raise XmodError("merged arc ids must be distinct")
    work.size += len(u_label) + len(v_label) + 1
    if work.size > MAX_REPLAY_SIZE:
        raise _grown()
    # The consumed arcs go first, so a merged arc may reuse their ids.
    del arcs[u]
    arcs.pop(v, None)
    inherited = (u_label, v_label)
    for index, arc in enumerate(merged):
        if arc in arcs:
            raise XmodError(f"arc {arc!r} is already live")
        arcs[arc] = inherited[index]
    work.bands[band] = (((), cell, 1),)
    work.cells.append(cell)
    # The boundary reads u, then v backwards; each reading may be reversed.
    work.cell_boundary[cell] = _product(u_label if u_sign > 0 else _inverse(u_label),
                                        _inverse(v_label) if v_sign > 0 else v_label)


def _death(work: _Replay, event: DeathEvent) -> None:
    circle = event.circle
    if len(set(circle)) != len(circle):
        raise XmodError("death circle lists an arc twice")
    arcs = work.arcs
    for arc in circle:
        if arc not in arcs:
            raise XmodError(f"arc {arc!r} is not live")
        del arcs[arc]
    # A disk meeting no bands yields the empty relation, which is omitted.
    if not event.spanner:
        return
    bands, known, cells = work.bands, work.known, work.cell_boundary
    size = work.size
    terms: list = []
    for band, conjugator, sign in event.spanner:
        label = bands.get(band)
        if label is None:
            raise XmodError(f"band {band!r} is not live")
        for gen, _ in conjugator:
            if gen not in known:
                unknown = min({gen for gen, _ in conjugator} - known)
                raise XmodError(f"spanner conjugator uses unknown generator {unknown!r}")
        # The conjugator acts from the left: each term gets a copy of it.
        size += len(label) * (1 + len(conjugator))
        for w, _, _ in label:
            size += len(w)
        if size > MAX_REPLAY_SIZE:
            raise _grown()
        if conjugator:
            label = [(_product(conjugator, w), cell, s) for w, cell, s in label]
        terms += label if sign > 0 else _inverse_terms(label)
    relation = tuple(terms)
    # The boundary joins each conjugator twice and each cell boundary once,
    # charged before it is reduced; it is empty if the cell boundaries are.
    joined = 0
    for w, cell, _ in relation:
        size += 2 * len(w)
        joined += len(cells[cell])
    work.size = size = size + joined
    if size > MAX_REPLAY_SIZE:
        raise _grown()
    boundary = _boundary_letters(relation, cells.__getitem__) if joined else ()
    if boundary:
        raise XmodError("death relation has nontrivial boundary "
                        + format_word(_reduced(boundary)))
    work.relations.append(relation)


def _end(work: _Replay, event: EndEvent) -> None:
    work.finished = True


_STEPS = {Birth: _birth, WirtingerCross: _cross, StrandBandCross: _strand_band,
          BandBandCross: _band_band, SaddleEvent: _saddle, DeathEvent: _death,
          EndEvent: _end}


def _replayed(events) -> _Replay:
    """The working state after ``events``, folded in order into a new one.
    A refused event raises ``ReplayError`` with its index and line; checks
    may follow mutations of the same event, so that state is dropped."""
    work = _Replay()
    steps = _STEPS
    try:
        for index, event in enumerate(events):
            if work.finished:
                raise XmodError("script already ended")
            step = steps.get(type(event))
            if step is None:
                raise XmodError(f"unknown event type {type(event).__name__}")
            step(work, event)
    except XmodError as exc:
        raise ReplayError(str(exc), event_index=index,
                          line=getattr(event, "line", None)) from exc
    return work


def compile_movie(script: MovieScript) -> CrossedPresentation:
    """Replay a movie and return the presentation of its complement.

    Each ``birth`` event adds one base generator, so ``one_handles`` of the
    result counts those events.  The events are folded into one working
    state, so replay takes time linear in the number of events.
    """
    work = _replayed(script.events)
    if not work.finished:
        raise ReplayError("script has no 'end' event", event_index=len(script.events))
    # Each stored word becomes a FreeWord here, once.
    cell_boundary = {cell: _reduced(letters) for cell, letters in work.cell_boundary.items()}
    relations = tuple([_crossed(tuple([(_reduced(w), cell, sign) for w, cell, sign in terms]))
                       for terms in work.relations])
    return CrossedPresentation(tuple(work.generators), tuple(work.cells),
                               cell_boundary, relations)
