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
of ``words`` and ``presentations``; the words become ``FreeWord`` and
``CrossedWord`` values only when ``compile_movie`` returns.  It checks that
ids are well formed, fresh and live and that every emitted relation has
trivial boundary, so it returns a valid presentation, validated again only
where it is counted.  It does not verify that a script is geometrically
realizable.

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
    FreeWord,
    Letters,
    LineReader,
    _canonical_word,
    _inverse,
    _product,
    _reduced,
    format_word,
    parse_id,
    parse_integer,
    parse_sign,
    parse_word,
    valid_name,
)

ArcRef = tuple[str, int]  # (arc id, +1 or -1 for a reversed reading)
SpannerTerm = tuple[str, FreeWord, int]  # (band id, conjugator, sign)
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
            raise FormatError("merged= must list one or two fresh arcs", line=line)
        return SaddleEvent(cell, u, v, band, merged, line)
    if keyword == "death":
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
_TERM_RE = re.compile(_TERM)


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
    spanner = tuple([(band, _canonical_word(word), _SIGNS[sign])
                     for band, word, sign in _TERM_RE.findall(match[2])])
    return DeathEvent(tuple(match[1].split(",")), spanner, line)


# keyword -> (pattern of its canonical lines, event of a match and its line).
_CANONICAL = {keyword: (re.compile(pattern), build) for keyword, pattern, build in (
    ("birth", f"birth {_ID}", lambda match, line: Birth(match[1], line)),
    ("cross", f"cross {_SIGN}" + _keys_pattern(_CROSS_KEYS),
     lambda match, line: WirtingerCross(_SIGNS[match[1]], *match.groups()[1:], line)),
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
    saw_end = False
    lines = LineReader(text)
    for line, content in lines:
        if saw_end:
            raise FormatError("content after 'end'", line=line)
        canonical = _CANONICAL.get(content.partition(" ")[0])
        match = canonical and canonical[0].fullmatch(content)
        event = canonical[1](match, line) if match else _read_event(content, line)
        events.append(event)
        saw_end = type(event) is EndEvent
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

    Every word here is a plain tuple of letters (gen, +1 or -1), freely
    reduced, and every band label and relation a tuple of terms (conjugator
    letters, cell, sign).  ``compile_movie`` turns the cell boundaries and
    relations into ``FreeWord`` and ``CrossedWord`` values once, when it
    returns; no event builds one.  ``known`` holds the ids of
    ``generators`` and ``cell_boundary`` is keyed by the ids of ``cells``,
    so every freshness check is a lookup and each event costs time
    independent of how many came before it.  ``size`` counts the letters
    and terms built so far.
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


def _live_arc(work: _Replay, arc: str) -> Letters:
    try:
        return work.arcs[arc]
    except KeyError:
        raise XmodError(f"arc {arc!r} is not live") from None


def _live_band(work: _Replay, band: str) -> Terms:
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


def _size(label: Terms) -> int:
    """Terms plus conjugator letters."""
    return sum([1 + len(word) for word, _, _ in label])


def _acted(work: _Replay, label: Terms, word: Letters) -> Terms:
    """The left action of ``word`` on ``label``: ``word`` prepended to every
    conjugator, charged before it is built."""
    _charge(work, _size(label) + len(label) * len(word))
    if not word:
        return label
    return tuple([(_product(word, w), cell, sign) for w, cell, sign in label])


def _boundary(work: _Replay, label: Terms) -> Letters:
    """The boundary letters of ``label``, charged by the letters it joins
    before reducing them."""
    cells = work.cell_boundary
    _charge(work, sum([2 * len(word) + len(cells[cell]) for word, cell, _ in label]))
    return _boundary_letters(label, cells.__getitem__)


def _birth(work: _Replay, event: Birth) -> None:
    if not valid_name(event.arc):
        raise XmodError(f"bad arc id {event.arc!r}")
    if event.arc in work.known:
        raise XmodError(f"generator {event.arc!r} already exists")
    if event.arc in work.cell_boundary:
        raise XmodError(f"generator {event.arc!r} collides with a cell")
    if event.arc in work.arcs:
        raise XmodError(f"arc {event.arc!r} is already live")
    _charge(work, 1)
    work.arcs[event.arc] = ((event.arc, 1),)
    work.generators.append(event.arc)
    work.known.add(event.arc)


def _cross(work: _Replay, event: WirtingerCross) -> None:
    over = _live_arc(work, event.over)
    into = _live_arc(work, event.under_in)
    if event.under_out in work.arcs:
        raise XmodError(f"arc {event.under_out!r} is already live")
    if event.sign < 0:
        over = _inverse(over)
    _charge(work, 2 * len(over) + len(into))
    work.arcs[event.under_out] = _product(_product(_inverse(over), into), over)


def _strand_band(work: _Replay, event: StrandBandCross) -> None:
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
            b = _inverse(b)
        _charge(work, 2 * len(b) + len(strand))
        work.arcs[event.out] = _product(_product(b, strand), _inverse(b))
    else:
        mover = strand if direction > 0 else _inverse(strand)
        work.bands[event.band] = _acted(work, band_label, mover)


def _band_band(work: _Replay, event: BandBandCross) -> None:
    direction = _rule("bb", event.rule)[1]
    mover_label = _live_band(work, event.mover)
    fixed_label = _live_band(work, event.fixed)
    if event.mover == event.fixed:
        raise XmodError("a band cannot cross itself")
    if direction < 0:
        fixed_label = _inverse_terms(fixed_label)
    _charge(work, _size(mover_label) + 2 * _size(fixed_label))
    work.bands[event.mover] = fixed_label + mover_label + _inverse_terms(fixed_label)


def _saddle(work: _Replay, event: SaddleEvent) -> None:
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
    wu = u_label if event.u[1] > 0 else _inverse(u_label)
    wv = v_label if event.v[1] > 0 else _inverse(v_label)
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
    work.bands[event.band] = (((), event.cell, 1),)
    work.cells.append(event.cell)
    work.cell_boundary[event.cell] = _product(wu, _inverse(wv))


def _death(work: _Replay, event: DeathEvent) -> None:
    if len(set(event.circle)) != len(event.circle):
        raise XmodError("death circle lists an arc twice")
    for arc in event.circle:
        if arc not in work.arcs:
            raise XmodError(f"arc {arc!r} is not live")
        del work.arcs[arc]
    # A disk meeting no bands yields the empty relation, which is omitted.
    if not event.spanner:
        return
    known = work.known
    terms: list = []
    for band, conjugator, sign in event.spanner:
        label = _live_band(work, band)
        for gen, _ in conjugator.letters:
            if gen not in known:
                unknown = sorted(conjugator.generators() - known)
                raise XmodError(
                    f"spanner conjugator uses unknown generator {unknown[0]!r}"
                )
        moved = _acted(work, label, conjugator.letters)
        terms += moved if sign > 0 else _inverse_terms(moved)
    relation = tuple(terms)
    boundary = _boundary(work, relation)
    if boundary:
        raise XmodError(
            f"death relation has nontrivial boundary {format_word(_reduced(boundary))}"
        )
    work.relations.append(relation)


def _end(work: _Replay, event: EndEvent) -> None:
    work.finished = True


_STEPS = {Birth: _birth, WirtingerCross: _cross, StrandBandCross: _strand_band,
          BandBandCross: _band_band, SaddleEvent: _saddle, DeathEvent: _death,
          EndEvent: _end}


def _step(work: _Replay, event: Event) -> None:
    """Apply one event to ``work`` in place.

    Checks may follow mutations of the same event, so a raising step leaves
    ``work`` part-way; callers discard it.
    """
    if work.finished:
        raise XmodError("script already ended")
    step = _STEPS.get(type(event))
    if step is None:
        raise XmodError(f"unknown event type {type(event).__name__}")
    step(work, event)


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
    # Each stored word becomes a FreeWord here, once.
    cell_boundary = {cell: _reduced(letters) for cell, letters in work.cell_boundary.items()}
    relations = tuple([_crossed(tuple([(_reduced(w), cell, sign) for w, cell, sign in terms]))
                       for terms in work.relations])
    return CrossedPresentation(tuple(work.generators), tuple(work.cells),
                               cell_boundary, relations)
