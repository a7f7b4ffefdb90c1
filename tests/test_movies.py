from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from xmod import movies
from xmod.counting import invariant
from xmod.crossed import FiniteCrossedModule, validate_crossed_module
from xmod.errors import FormatError, ReplayError, XmodError
from xmod.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from xmod.groups import build_cyclic_group
from xmod.cli import main
from xmod.movies import (
    BandBandCross,
    Birth,
    DeathEvent,
    EndEvent,
    MovieScript,
    SaddleEvent,
    StrandBandCross,
    WirtingerCross,
    compile_movie,
    parse_movie_script,
)
from xmod.presentations import (
    CrossedPresentation,
    CrossedWord,
    format_presentation_text,
    validate_presentation,
)
from xmod.words import FreeWord, LineReader, parse_word

ROOT = Path(__file__).resolve().parents[1]


def word(text: str) -> FreeWord:
    return parse_word(text)


def letters(text: str) -> tuple:
    """The letter tuple replay stores for the word ``text``."""
    return parse_word(text).letters


def replay(text: str) -> movies._Replay:
    """The replay state after the events of ``text``, before any ``end``."""
    return movies._replayed(parse_movie_script(text + "\nend\n").events[:-1])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_script():
    script = parse_movie_script("birth X\nend\n", name="tiny")
    assert script.name == "tiny"
    assert script.events == (Birth("X", 1), EndEvent(2))


def test_parse_accepts_comments_and_blank_lines():
    script = parse_movie_script("# header\n\nbirth X  # inline\n\nend\n")
    assert [type(e).__name__ for e in script.events] == ["Birth", "EndEvent"]


def test_parse_cross_arguments_any_order():
    script = parse_movie_script("birth X\nbirth Y\ncross - out=Z over=X in=Y\nend\n")
    cross = script.events[2]
    assert isinstance(cross, WirtingerCross)
    assert (cross.sign, cross.over, cross.under_in, cross.under_out) == (-1, "X", "Y", "Z")


def test_parse_saddle_arc_refs():
    script = parse_movie_script(
        "birth X\nsaddle cell=e u=X^-1 v=X band=b merged=c1,c2\nend\n"
    )
    saddle = script.events[1]
    assert isinstance(saddle, SaddleEvent)
    assert saddle.u == ("X", -1) and saddle.v == ("X", 1)
    assert saddle.merged == ("c1", "c2")


def test_event_equality_depends_on_the_class():
    # Events with the same fields are equal only within one class.
    assert WirtingerCross(1, "a", "b", "c", 3) != StrandBandCross(1, "a", "b", "c", 3)
    assert Birth("X", 1) != ("X", 1)
    assert Birth("X", 1) == Birth(arc="X", line=1)


def event_by_keyword(content: str, line: int):
    """The event of a canonical fixture line, built by keyword from its
    tokens without either movie reader."""
    keyword, _, rest = content.partition(" ")
    if keyword == "death":
        circle, _, spanner = rest.removeprefix("circle=").partition(" spanner=")
        terms = [term[1:-1].split(",") for term in spanner[1:-1].split(";") if term]
        return DeathEvent(circle=tuple(circle.split(",")), line=line, spanner=tuple(
            (band, letters(text), 1 if sign == "+" else -1) for band, text, sign in terms))
    tokens = rest.split()
    args = dict(token.split("=") for token in tokens if "=" in token)

    def ref(token: str) -> tuple[str, int]:
        return token.removesuffix("^-1"), -1 if token.endswith("^-1") else 1

    if keyword == "birth":
        return Birth(arc=rest, line=line)
    if keyword == "cross":
        return WirtingerCross(sign=1 if tokens[0] == "+" else -1,
                              over=args["over"], under_in=args["in"],
                              under_out=args["out"], line=line)
    if keyword == "sb":
        return StrandBandCross(rule=int(tokens[0]), band=args["band"],
                               strand=args["strand"], out=args.get("out"), line=line)
    if keyword == "bb":
        return BandBandCross(rule=int(tokens[0]), mover=args["mover"],
                             fixed=args["fixed"], line=line)
    if keyword == "saddle":
        return SaddleEvent(cell=args["cell"], u=ref(args["u"]), v=ref(args["v"]),
                           band=args["band"], merged=tuple(args["merged"].split(",")),
                           line=line)
    assert keyword == "end" and not rest
    return EndEvent(line=line)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_parsed_events_equal_events_built_by_keyword(name):
    text = fixture_text(name)
    expected = tuple(event_by_keyword(content, line)
                     for line, content in LineReader(text))
    assert parse_movie_script(text).events == expected


def test_parse_errors_carry_line_numbers():
    cases = [
        ("birth\nend\n", 1, "arc id"),
        ("birth X Y\nend\n", 1, "one arc id"),
        ("cross ? over=X in=Y out=Z\nend\n", 1, "sign"),
        ("cross + over=X in=Y\nend\n", 1, "over"),
        ("birth X\ncross + over=X in=X out=Z extra=1\nend\n", 2, "cross takes"),
        ("sb 7 band=b strand=X\nend\n", 1, "unknown sb rule"),
        ("sb 2 mover=a fixed=b\nend\n", 1, "band/band"),
        ("bb 1 mover=a fixed=b\nend\n", 1, "strand/band"),
        ("sb 1 band=b strand=X\nend\n", 1, "out="),
        ("sb 4 band=b strand=X out=Z\nend\n", 1, "unexpected argument"),
        ("saddle cell=e u=X v=X band=b merged=\nend\n", 1, "one or two"),
        ("saddle cell=e u=X^2 v=X band=b merged=c\nend\n", 1, "exponent"),
        ("death circle=X\nend\n", 1, "spanner"),
        ("death spanner=[]\nend\n", 1, "circle"),
        ("death circle=X spanner=[(b,1)]\nend\n", 1, "3 fields"),
        ("death circle=X spanner=[b,1,+]\nend\n", 1, "(band,word,sign)"),
        ("end\nbirth X\n", 2, "after 'end'"),
        ("end extra\n", 1, "no arguments"),
        ("mystery\nend\n", 1, "unknown event"),
        ("birth X\n", 1, "missing 'end'"),
    ]
    for text, line, needle in cases:
        with pytest.raises(FormatError) as info:
            parse_movie_script(text)
        assert info.value.line == line, text
        assert needle in str(info.value), text


def test_parse_duplicate_argument():
    with pytest.raises(FormatError) as info:
        parse_movie_script("saddle cell=e cell=f u=X v=X band=b merged=c\nend\n")
    assert "duplicate argument" in str(info.value)


# The message of a rule id given with the other keyword, by the keyword that
# ``_RULES`` gives it.
WRONG_KEYWORD = {"sb": "rule {} is a strand/band rule; use sb",
                 "bb": "rule {} is a band/band rule; use bb"}


@pytest.mark.parametrize("keyword", ["sb", "bb"])
@pytest.mark.parametrize("rule", range(8))
def test_rule_ids_are_read_off_the_table(keyword, rule):
    kind, _, needs_out = movies._RULES.get(rule, (None, 0, False))
    args = "mover=a fixed=b" if keyword == "bb" else "band=b strand=X" + " out=Z" * needs_out
    text = f"{keyword} {rule} {args}\nend\n"
    if kind == keyword:
        event = parse_movie_script(text).events[0]
        assert type(event) is (BandBandCross if kind == "bb" else StrandBandCross)
        assert event.rule == rule
        return
    with pytest.raises(FormatError) as info:
        parse_movie_script(text)
    expected = f"unknown {keyword} rule {rule}" if kind is None else WRONG_KEYWORD[kind].format(rule)
    assert str(info.value) == f"line 1: {expected}"


@pytest.mark.parametrize("rule", sorted(movies._RULES))
def test_out_is_needed_exactly_where_the_table_says(rule):
    kind, _, needs_out = movies._RULES[rule]
    args = "band=b strand=X" if kind == "sb" else "mover=a fixed=b"
    with_out, without = (f"{kind} {rule} {args}{out}\nend\n" for out in (" out=Z", ""))
    accepted, refused, message = (
        (with_out, without, "missing argument out=") if needs_out
        else (without, with_out, "unexpected argument 'out=Z'"))
    assert getattr(parse_movie_script(accepted).events[0], "out", None) == (
        "Z" if needs_out else None)
    with pytest.raises(FormatError) as info:
        parse_movie_script(refused)
    assert str(info.value) == f"line 1: {message}"


# For every keyed argument: a line giving it a bad value, and the message.
BAD_ARGUMENTS = {
    "over": ("cross + over=1 in=Y out=Z", "bad arc id '1'"),
    "in": ("cross + over=X in=1 out=Z", "bad arc id '1'"),
    "out": ("cross + over=X in=Y out=1", "bad arc id '1'"),
    "strand": ("sb 1 band=b strand=1 out=Z", "bad arc id '1'"),
    "band": ("sb 1 band=1 strand=X out=Z", "bad band id '1'"),
    "mover": ("bb 2 mover=1 fixed=b", "bad band id '1'"),
    "fixed": ("bb 2 mover=a fixed=1", "bad band id '1'"),
    "cell": ("saddle cell=1 u=X v=Y band=b merged=c", "bad cell id '1'"),
    "u": ("saddle cell=e u=X^2 v=Y band=b merged=c",
          "arc reference exponent must be -1, got 'X^2'"),
    "v": ("saddle cell=e u=X v=Y^1 band=b merged=c",
          "arc reference exponent must be -1, got 'Y^1'"),
    "merged": ("saddle cell=e u=X v=Y band=b merged=c,", "bad arc id ''"),
}


@pytest.mark.parametrize("key", sorted(movies._ARGUMENTS))
def test_each_argument_is_read_as_its_kind(key):
    assert set(BAD_ARGUMENTS) == set(movies._ARGUMENTS)
    line, message = BAD_ARGUMENTS[key]
    with pytest.raises(FormatError) as info:
        parse_movie_script(line + "\nend\n")
    assert str(info.value) == f"line 1: {message}"


# ---------------------------------------------------------------------------
# Event semantics
# ---------------------------------------------------------------------------


def test_birth_introduces_generator_labelled_arc():
    state = replay("birth X")
    assert state.generators == ["X"]
    assert state.arcs == {"X": letters("X")}


def test_birth_rejects_duplicate():
    with pytest.raises(Exception) as info:
        replay("birth X\nbirth X")
    assert "already" in str(info.value)


def test_birth_rejects_cell_id():
    script = parse_movie_script(
        "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\nbirth e\n"
        "death circle=c1 spanner=[]\nend\n"
    )
    with pytest.raises(ReplayError) as info:
        compile_movie(script)
    assert (info.value.event_index, info.value.line) == (2, 3)
    assert str(info.value) == "event 2 (line 3): generator 'e' collides with a cell"


def test_saddle_rejects_a_used_cell_id():
    cases = [
        ("saddle cell=e u=Y v=Y band=b2 merged=d1,d2", "cell 'e' already exists"),
        ("saddle cell=X u=Y v=Y band=b2 merged=d1,d2",
         "cell id 'X' collides with a generator"),
    ]
    for event, message in cases:
        script = parse_movie_script(
            "birth X\nbirth Y\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
            + event + "\nend\n"
        )
        with pytest.raises(ReplayError) as info:
            compile_movie(script)
        assert str(info.value) == f"event 3 (line 4): {message}"


def test_wirtinger_positive_and_negative():
    state = replay("birth X\nbirth Y\ncross + over=X in=Y out=Z")
    assert state.arcs["Z"] == letters("X^-1 Y X")
    state = replay("birth X\nbirth Y\ncross - over=X in=Y out=Z")
    assert state.arcs["Z"] == letters("X Y X^-1")
    # The input arc stays live; crossings do not consume strands.
    assert "Y" in state.arcs


def test_wirtinger_r2_insertion_is_identity():
    # Crossing under X and back out restores the original label.
    state = replay(
        "birth X\nbirth Y\n"
        "cross + over=X in=Y out=Z\n"
        "cross - over=X in=Z out=W"
    )
    assert state.arcs["W"] == state.arcs["Y"] == letters("Y")


def test_saddle_reads_boundary_and_spawns_band():
    state = replay("birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2")
    assert state.cells == ["e"]
    assert state.cell_boundary["e"] == letters("X Y^-1")
    assert set(state.arcs) == {"c1", "c2"}
    # Merged arcs inherit the consumed labels positionally.
    assert state.arcs["c1"] == letters("X") and state.arcs["c2"] == letters("Y")
    assert state.bands["b"] == ((letters(""), "e", 1),)


def test_saddle_with_reversed_refs():
    state = replay("birth X\nbirth Y\nsaddle cell=e u=X^-1 v=Y^-1 band=b merged=c1,c2")
    assert state.cell_boundary["e"] == letters("X^-1 Y")


def test_saddle_on_single_arc():
    # u and v on the same arc: the arc splits, boundary reads twice.
    state = replay("birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2")
    assert state.cell_boundary["e"] == letters("")
    assert state.arcs == {"c1": letters("X"), "c2": letters("X")}


def test_saddle_liveness_errors():
    with pytest.raises(Exception):
        replay("birth X\nsaddle cell=e u=X v=Q band=b merged=c1,c2")
    with pytest.raises(Exception):
        replay("birth X\nsaddle cell=e u=X v=X band=b merged=c1,c1")
    with pytest.raises(Exception):
        replay(
            "birth X\nbirth c1\nsaddle cell=e u=X v=X band=b merged=c1,c2"
        )


def test_strand_band_rules_relabel_strand():
    base = "birth X\nbirth Y\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
    state = replay(base + "sb 1 band=b strand=Y out=Z")
    # The band boundary is trivial here, so conjugation is invisible.
    assert state.arcs["Z"] == letters("Y")
    state = replay(
        "birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2\n"
        "sb 1 band=b strand=c1 out=Z"
    )
    assert state.arcs["Z"] == letters("X Y^-1 X Y X^-1")
    state = replay(
        "birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2\n"
        "sb 3 band=b strand=c1 out=Z"
    )
    assert state.arcs["Z"] == letters("Y X Y^-1")


def test_strand_band_rules_move_band():
    base = "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
    state = replay(base + "sb 6 band=b strand=c1")
    assert state.bands["b"] == ((letters("X"), "e", 1),)
    state = replay(base + "sb 4 band=b strand=c1")
    assert state.bands["b"] == ((letters("X^-1"), "e", 1),)


def test_band_band_rules_conjugate_label():
    base = (
        "birth X\nbirth Y\n"
        "saddle cell=e u=X v=X band=be merged=c1,c2\n"
        "saddle cell=f u=Y v=Y band=bf merged=d1,d2\n"
    )
    state = replay(base + "bb 2 mover=bf fixed=be")
    label = state.bands["bf"]
    assert [term[1] for term in label] == ["e", "f", "e"]
    assert [term[2] for term in label] == [1, 1, -1]
    state = replay(base + "bb 5 mover=bf fixed=be")
    label = state.bands["bf"]
    assert [term[2] for term in label] == [-1, 1, 1]


def test_band_cannot_cross_itself():
    base = "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
    with pytest.raises(Exception) as info:
        replay(base + "bb 2 mover=b fixed=b")
    assert "itself" in str(info.value)


def test_death_removes_arcs_and_emits_relation():
    state = replay(
        "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
        "death circle=c1 spanner=[(b,1,+)]"
    )
    assert set(state.arcs) == {"c2"}
    assert len(state.relations) == 1
    assert state.relations[0] == ((letters(""), "e", 1),)


def test_death_with_empty_spanner_emits_nothing():
    state = replay(
        "birth X\nbirth Y\nsaddle cell=e u=X^-1 v=Y^-1 band=b merged=c1,c2\n"
        "death circle=c1,c2 spanner=[]"
    )
    assert state.relations == []
    assert state.arcs == {}


def test_death_checks_boundary_triviality():
    # A spanning disk meeting the band once, unconjugated, has boundary
    # X Y^-1 which is not trivial; the replay must refuse it.
    with pytest.raises(Exception) as info:
        replay(
            "birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2\n"
            "death circle=c1 spanner=[(b,1,+)]"
        )
    assert "boundary" in str(info.value)


def test_death_rejects_unknown_conjugator_generator():
    with pytest.raises(Exception) as info:
        replay(
            "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
            "death circle=c1 spanner=[(b,Q,+)]"
        )
    assert "unknown generator" in str(info.value)


def test_death_rejects_dead_arc():
    with pytest.raises(Exception):
        replay("birth X\ndeath circle=Q spanner=[]")


# ---------------------------------------------------------------------------
# Whole-script compilation
# ---------------------------------------------------------------------------


def test_compile_is_deterministic():
    text = fixture_text("spun_trefoil")
    first = compile_movie(parse_movie_script(text))
    second = compile_movie(parse_movie_script(text))
    assert first == second


# Uses every sb and bb rule, a conjugated spanner and an empty one.
ALL_RULES = """
birth X
birth Y
saddle cell=e u=X v=Y band=be merged=c1,c2
saddle cell=f u=c1 v=c1 band=bf merged=d1,d2
sb 1 band=be strand=c2 out=g1
sb 3 band=be strand=g1 out=g2
sb 4 band=bf strand=g2
sb 6 band=be strand=d1
bb 2 mover=bf fixed=be
bb 5 mover=be fixed=bf
death circle=d2 spanner=[(bf,1,+)]
death circle=g1,g2 spanner=[(be,X Y,+);(bf,Y^-1,-);(be,X Y,-)]
death circle=c2,d1 spanner=[]
end
"""


def test_compile_counts_births_as_one_handles():
    scripts = [load_fixture(name) for name in FIXTURE_NAMES]
    scripts.append(parse_movie_script(ALL_RULES))
    for script in scripts:
        pres = compile_movie(script)
        births = sum(1 for e in script.events if isinstance(e, Birth))
        assert pres.one_handles == births, script.name
        assert len(pres.generators) == births, script.name
    assert len(scripts[-1].events) == 14 and len(pres.relations) == 2


def test_compiled_fixtures_validate(compiled_fixtures):
    for pres in compiled_fixtures.values():
        assert validate_presentation(pres).ok


# ---------------------------------------------------------------------------
# Replay returns a valid presentation: compile_movie does not validate what
# it returns, so these tests stand in for that check.
# ---------------------------------------------------------------------------


# A token is a run of characters that are not whitespace or a separator of
# the movie format: a keyword, an id, a word, a sign or a rule id.
_TOKEN_RE = re.compile(r"[^\s=,;()\[\]#]+")

# Movies that give an id of one kind to another kind.  A replay that skipped
# the freshness check they meet would return duplicate ids.
COLLISIONS = [
    # A birth named after a cell.
    "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
    "death circle=c1,c2 spanner=[]\nbirth e\ndeath circle=e spanner=[]\nend\n",
    # A cell named after a generator.
    "birth X\nsaddle cell=X u=X v=X band=b merged=c1,c2\n"
    "death circle=c1,c2 spanner=[]\nend\n",
]


def token_mutants(count: int = 2000, seed: int = 0):
    """``count`` seeded mutants of the fixture movies and ``ALL_RULES``.

    Each mutant makes one or two edits.  An edit replaces one token, or
    every occurrence of it, with a token drawn from all of these movies.
    So ids meet ids of other kinds, rule ids meet signs, and keywords meet
    arguments.
    """
    texts = [re.sub(r"#.*", "", fixture_text(name)) for name in FIXTURE_NAMES]
    texts.append(ALL_RULES)
    pool = sorted({token for text in texts for token in _TOKEN_RE.findall(text)})
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.choice((1, 1, 2))):
            spans = [match.span() for match in _TOKEN_RE.finditer(text)]
            start, end = rng.choice(spans)
            new = rng.choice(pool)
            if rng.random() < 0.5:
                text = text[:start] + new + text[end:]
            else:
                old = text[start:end]
                text = _TOKEN_RE.sub(
                    lambda match: new if match.group() == old else match.group(), text)
        yield text


def compiled_or_none(text: str):
    """The presentation of ``text``, or None if parsing or replay refuses it."""
    try:
        return compile_movie(parse_movie_script(text))
    except (FormatError, ReplayError):
        return None


# The fixtures are checked by test_compiled_fixtures_validate.
@pytest.mark.parametrize("source", [
    "ALL_RULES", *COLLISIONS,
    *[(seed, events) for seed in (1, 2, 3) for events in (60, 1000)],
], ids=lambda source: (
    "long_movie-seed%d-%d" % source if isinstance(source, tuple)
    else "collision%d" % COLLISIONS.index(source) if source in COLLISIONS
    else source))
def test_every_replayed_movie_is_valid(source, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import long_movie

    if isinstance(source, tuple):
        text = long_movie(random.Random(source[0]), source[1])
    else:
        text = ALL_RULES if source == "ALL_RULES" else source
    pres = compiled_or_none(text)
    if source in COLLISIONS:
        assert pres is None
    else:
        assert validate_presentation(pres).ok


def test_every_replayed_token_mutant_is_valid():
    replayed = 0
    for text in token_mutants():
        pres = compiled_or_none(text)
        if pres is not None:
            replayed += 1
            assert validate_presentation(pres).ok, text
    # 281 of the 2000 replay; the rest are refused by the parser or replay.
    assert replayed > 200


# ---------------------------------------------------------------------------
# A canonical line is read by its keyword's pattern and any other line by
# the token reader; both must give the same events or the same error.
# ---------------------------------------------------------------------------


def on_pattern(content: str) -> bool:
    """Whether the pattern of ``content``'s keyword reads it."""
    canonical = movies._CANONICAL.get(content.partition(" ")[0])
    return bool(canonical and canonical[0].fullmatch(content))


def parse_outcome(text: str):
    """The events of ``text``, or its ``FormatError`` message and line."""
    try:
        return parse_movie_script(text).events
    except FormatError as exc:
        return (str(exc), exc.line)


def token_reader_outcome(text: str, monkeypatch):
    """``parse_outcome`` with every line read by the token reader."""
    with monkeypatch.context() as patch:
        patch.setattr(movies, "_CANONICAL", {})
        return parse_outcome(text)


# One line each, read after "birth X" and before "end".  None of them is in
# the canonical spelling: other spacing, keys in another order, other sign
# and word spellings, and canonically spaced lines the token reader refuses.
OFF_PATTERN = [
    "birth  Y", "birth\tY", "birth Y Z", "birth 1x",
    "cross  +  over=X in=X out=Z", "cross + in=X over=X out=Z",
    "cross +1 over=X in=X out=Z", "cross -1 over=X in=X out=Z",
    "cross ? over=X in=X out=Z", "cross + over=X in=X",
    "sb 1 strand=X band=b out=Z", "sb 01 band=b strand=X out=Z", "sb +4 band=b strand=X",
    "sb 1 band=b strand=X", "sb 4 band=b strand=X out=Z", "sb 2 band=b strand=X",
    "bb 2 fixed=b mover=a", "bb 1 mover=a fixed=b", "bb\t5 mover=a fixed=b",
    "saddle cell=e v=X u=X band=b merged=c", "saddle u=X^-1 cell=e v=X^-1 band=b merged=c1,c2",
    "saddle cell=e u=X v=X band=b merged=c1,c2,c3",
    "saddle cell=e u=X^-1 v=X^-1 band=b merged=c1,c2,c3",
    "saddle cell=e u=X^2 v=X band=b merged=c", "saddle cell=e u=X v=X band=b merged=",
    "saddle cell=e u=X v=X band=b  merged=c1,c2",
    "death circle=X spanner=[(b,X^2,+)]", "death circle=X spanner=[(b,X^-3,-)]",
    "death circle=X spanner=[(b,1 X,+)]", "death circle=X spanner=[(b,X 1 X^-1,+)]",
    "death circle=X spanner=[( b , X X , + )]", "death circle=X spanner=[(b,X  X,+)]",
    "death circle=X spanner=[(b,X,+1);(c,X,-1)]", "death circle=X spanner=[ (b,X,+) ; (c,1,-) ]",
    "death circle=X spanner=[(b,X^-1^-1,+)]", "death circle=X,X  spanner=[]",
    "death circle= spanner=[]", "death spanner=[] circle=X", "death circle=X spanner=[(b,1)]",
]


@pytest.mark.parametrize("line", OFF_PATTERN)
def test_an_off_pattern_line_is_read_by_the_token_reader(line, monkeypatch):
    assert not on_pattern(line)
    text = f"birth X\n{line}\nend\n"
    assert parse_outcome(text) == token_reader_outcome(text, monkeypatch)


@pytest.mark.parametrize("source", [
    *FIXTURE_NAMES, "ALL_RULES",
    *[(seed, events) for seed in (1, 2, 3) for events in (60, 1000, 7000)],
], ids=lambda source: source if isinstance(source, str) else "long_movie-seed%d-%d" % source)
def test_the_patterns_read_what_the_token_reader_reads(source, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import long_movie

    if source == "ALL_RULES":
        text = ALL_RULES
    elif isinstance(source, str):
        text = fixture_text(source)
    else:
        text = long_movie(random.Random(source[0]), source[1])
    # Every event of these movies is written in the canonical spelling.
    assert all(on_pattern(content) for _, content in LineReader(text))
    events = parse_outcome(text)
    assert isinstance(events, tuple)
    assert events == token_reader_outcome(text, monkeypatch)


def test_token_mutants_parse_alike_on_both_paths(monkeypatch):
    outcomes = Counter()
    for text in token_mutants():
        outcome = parse_outcome(text)
        assert outcome == token_reader_outcome(text, monkeypatch), text
        outcomes[isinstance(outcome, tuple) and isinstance(outcome[0], str)] += 1
    # Both paths are met: most mutants are refused, some parse.
    assert outcomes[True] > 1000 and outcomes[False] > 200


IDS = st.sampled_from(["X", "Y", "b", "a_1", "c.d", "e'", "f-g"])
# Letters of two generators in canonical spelling, so runs such as
# "X X^-1 Y" cancel; or the empty word "1".
CANONICAL_WORDS = st.one_of(st.just("1"), st.lists(
    st.sampled_from(["X", "X^-1", "Y", "Y^-1"]), min_size=1, max_size=6).map(" ".join))
SPANNER_TERMS = st.tuples(IDS, CANONICAL_WORDS, st.sampled_from("+-")).map(
    lambda term: "(%s,%s,%s)" % term)


@given(st.lists(IDS, min_size=1, max_size=3), st.lists(SPANNER_TERMS, max_size=4))
def test_both_death_readers_read_a_canonical_line_alike(circle, terms):
    line = f"death circle={','.join(circle)} spanner=[{';'.join(terms)}]"
    assert on_pattern(line)
    event = parse_movie_script(line + "\nend\n").events[0]
    assert event == movies._read_event(line, 1)
    assert type(event) is DeathEvent and event.circle == tuple(circle)
    for (band, conjugator, sign), term in zip(event.spanner, terms, strict=True):
        text_band, text_word, text_sign = term[1:-1].split(",")
        assert (band, sign) == (text_band, 1 if text_sign == "+" else -1)
        assert type(conjugator) is tuple and conjugator == letters(text_word)
        assert all(x != (y[0], -y[1]) for x, y in zip(conjugator, conjugator[1:]))


def respelled(text: str) -> str:
    """``text`` with the spaces of every line widened, so no line but
    ``end`` (which has one spelling) is canonical any more."""
    return "\n".join(line.replace(" ", ("  ", "\t", " \t ")[index % 3])
                     for index, line in enumerate(text.splitlines())) + "\n"


@pytest.mark.parametrize("source", [*FIXTURE_NAMES, (1, 1000)], ids=lambda source: (
    source if isinstance(source, str) else "long_movie-seed%d-%d" % source))
def test_a_respelled_movie_compiles_to_the_same_bytes(source, tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import long_movie

    if isinstance(source, str):
        text = fixture_text(source)
    else:
        text = long_movie(random.Random(source[0]), source[1])
    respelled_text = respelled(text)
    assert all(not on_pattern(content) or content == "end"
               for _, content in LineReader(respelled_text))
    results = []
    for name, movie in (("original", text), ("respelled", respelled_text)):
        path = tmp_path / f"{name}.movie"
        path.write_text(movie, encoding="utf-8")
        code = main(["compile", str(path)])
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1] and results[0][0] == 0


@pytest.mark.parametrize("event, message", [
    (Birth("a b", 2), "bad arc id 'a b'"),
    (Birth("", 2), "bad arc id ''"),
    (Birth("1x", 2), "bad arc id '1x'"),
    (SaddleEvent("e=f", ("X", 1), ("X", 1), "b", ("c1", "c2"), 2),
     "bad cell id 'e=f'"),
    (SaddleEvent("e;", ("X", 1), ("X", 1), "b", ("c1", "c2"), 2),
     "bad cell id 'e;'"),
], ids=["birth-space", "birth-empty", "birth-digit", "saddle-equals",
        "saddle-semicolon"])
def test_replay_refuses_a_bad_id_at_its_event(event, message):
    # The parser never builds these; a movie built in code can, and its
    # births become generators and its saddles cells of the presentation.
    script = MovieScript("m", (Birth("X", 1), event, EndEvent(3)))
    with pytest.raises(ReplayError) as info:
        compile_movie(script)
    assert (info.value.event_index, info.value.line) == (1, 2)
    assert str(info.value) == f"event 1 (line 2): {message}"


def test_compile_reports_event_index_and_line():
    script = parse_movie_script("birth X\nbirth X\nend\n")
    with pytest.raises(ReplayError) as info:
        compile_movie(script)
    assert info.value.event_index == 1
    assert info.value.line == 2


@pytest.mark.parametrize("event, message", [
    (StrandBandCross(9, "b", "c1", None, 3), "unknown sb rule 9"),
    (StrandBandCross(2, "b", "c1", None, 3), "rule 2 is a band/band rule; use bb"),
    (BandBandCross(6, "b", "b", 3), "rule 6 is a strand/band rule; use sb"),
], ids=["unknown", "sb-given-bb", "bb-given-sb"])
def test_replay_refuses_a_rule_outside_its_table(event, message):
    # The parser never builds these; a movie built in code can.
    script = MovieScript("m", (Birth("X", 1), SaddleEvent(
        "e", ("X", 1), ("X", 1), "b", ("c1", "c2"), 2), event, EndEvent(4)))
    with pytest.raises(ReplayError) as info:
        compile_movie(script)
    assert (info.value.event_index, info.value.line) == (2, 3)
    assert str(info.value) == f"event 2 (line 3): {message}"


@pytest.mark.parametrize("event, message", [
    (StrandBandCross(1, "b", "Y", None, 4), "sb rule 1 needs out="),
    (StrandBandCross(4, "b", "Y", "Q", 4), "sb rule 4 takes no out="),
], ids=["rule-1-without-out", "rule-4-with-out"])
def test_replay_refuses_an_out_its_rule_does_not_take(event, message):
    # Without the check the first would relabel band b as rule 6 does and
    # the second would create arc Q as rule 3 does.
    script = MovieScript("m", (Birth("X", 1), Birth("Y", 2), SaddleEvent(
        "e", ("X", 1), ("X", 1), "b", ("c1", "c2"), 3), event, EndEvent(5)))
    with pytest.raises(ReplayError) as info:
        compile_movie(script)
    assert (info.value.event_index, info.value.line) == (3, 4)
    assert str(info.value) == f"event 3 (line 4): {message}"


def test_compile_requires_end():
    script = MovieScript("trunc", (Birth("X", 1),))
    with pytest.raises(ReplayError):
        compile_movie(script)


def test_step_after_end_rejected():
    with pytest.raises(XmodError):
        movies._replayed([EndEvent(1), Birth("X", 2)])


@dataclass(frozen=True)
class Unknown:
    line: int


# One event of each type, and an object of a type replay does not know.
EVERY_KIND = [
    Birth("Y", 3), WirtingerCross(1, "X", "X", "Z", 3), StrandBandCross(1, "b", "X", "Z", 3),
    BandBandCross(2, "a", "b", 3), SaddleEvent("e", ("X", 1), ("X", 1), "b", ("c",), 3),
    DeathEvent(("X",), (), 3), EndEvent(3), Unknown(3),
]


@pytest.mark.parametrize("event", EVERY_KIND, ids=lambda event: type(event).__name__)
def test_every_event_after_end_is_refused(event):
    script = MovieScript("m", (Birth("X", 1), EndEvent(2), event))
    with pytest.raises(ReplayError) as info:
        compile_movie(script)
    assert str(info.value) == "event 2 (line 3): script already ended"


def test_an_event_of_an_unknown_type_is_refused():
    script = MovieScript("m", (Birth("X", 1), Unknown(2), EndEvent(3)))
    with pytest.raises(ReplayError) as info:
        compile_movie(script)
    assert str(info.value) == "event 1 (line 2): unknown event type Unknown"


def test_compile_fails_where_step_fails():
    bad = {
        "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\nbirth e\nend\n":
            "event 2 (line 3): generator 'e' collides with a cell",
        "birth X\nsaddle cell=X u=X v=X band=b merged=c1,c2\nend\n":
            "event 1 (line 2): cell id 'X' collides with a generator",
        "birth X\nbirth c1\nsaddle cell=e u=X v=X band=b merged=c1,c2\nend\n":
            "event 2 (line 3): arc 'c1' is already live",
        "birth X\nsb 1 band=b strand=X out=Z\nend\n": "event 1 (line 2): band 'b' is not live",
        "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\nbb 5 mover=b fixed=b\nend\n":
            "event 2 (line 3): a band cannot cross itself",
        "birth X\ndeath circle=X,X spanner=[]\nend\n":
            "event 1 (line 2): death circle lists an arc twice",
        "birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2\n"
        "death circle=c1 spanner=[(b,1,+)]\nend\n":
            "event 3 (line 4): death relation has nontrivial boundary X Y^-1",
    }
    for text, expected in bad.items():
        with pytest.raises(ReplayError) as info:
            compile_movie(parse_movie_script(text))
        assert str(info.value) == expected, text


# Movies built in code, with ids that the parser never builds.
BAD_BIRTH = (Birth("X", 1), Birth("a b", 2))
BAD_CELL = (Birth("X", 1), SaddleEvent("e=f", ("X", 1), ("X", 1), "b", ("c1",), 2))
BAD_CELL_ON_DEAD_ARC = (Birth("X", 1), SaddleEvent("e=f", ("Q", 1), ("X", 1), "b", ("c1",), 2))
SADDLE = "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
# X and Y, and a band b of cell e whose boundary X Y^-1 is not trivial.
OPEN_SADDLE = "birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2\n"

# Every refusal of birth, cross, saddle and death: (movie, the replay bound
# it runs under or None, event index, line, message).  A movie is text
# without its "end" or a tuple of events.  Rows with two faults in one event
# pin which check refuses first, and rows under a small bound pin where
# each charge sits among the checks.
REFUSALS = {
    "birth-bad-id": (BAD_BIRTH, None, 1, 2, "bad arc id 'a b'"),
    "birth-generator": ("birth X\nbirth X", None, 1, 2, "generator 'X' already exists"),
    "birth-cell": (SADDLE + "birth e", None, 2, 3, "generator 'e' collides with a cell"),
    "birth-live-arc": ("birth X\ncross + over=X in=X out=Y\nbirth Y", None, 2, 3,
                       "arc 'Y' is already live"),
    "birth-charge": ("birth X\nbirth Y", 1, 1, 2, "labels grow past 1 letters and terms"),
    "birth-cell-and-live-arc": ("birth X\nsaddle cell=e u=X v=X band=b merged=e\nbirth e",
                                None, 2, 3, "generator 'e' collides with a cell"),
    "birth-live-arc-and-charge": ("birth X\ncross + over=X in=X out=Y\nbirth Y", 4, 2, 3,
                                  "arc 'Y' is already live"),
    "cross-over-dead": ("birth X\ncross + over=Q in=X out=Z", None, 1, 2,
                        "arc 'Q' is not live"),
    "cross-in-dead": ("birth X\ncross + over=X in=Q out=Z", None, 1, 2,
                      "arc 'Q' is not live"),
    "cross-out-live": ("birth X\nbirth Y\ncross + over=X in=Y out=X", None, 2, 3,
                       "arc 'X' is already live"),
    "cross-charge": ("birth X\nbirth Y\ncross - over=X in=Y out=Z", 4, 2, 3,
                     "labels grow past 4 letters and terms"),
    "cross-over-and-in-dead": ("birth X\ncross + over=P in=Q out=Z", None, 1, 2,
                               "arc 'P' is not live"),
    "cross-in-dead-and-out-live": ("birth X\ncross + over=X in=Q out=X", None, 1, 2,
                                   "arc 'Q' is not live"),
    "cross-out-live-and-charge": ("birth X\nbirth Y\ncross + over=X in=Y out=X", 2, 2, 3,
                                  "arc 'X' is already live"),
    "saddle-u-dead": ("birth X\nsaddle cell=e u=Q v=X band=b merged=c1", None, 1, 2,
                      "arc 'Q' is not live"),
    "saddle-v-dead": ("birth X\nsaddle cell=e u=X v=Q^-1 band=b merged=c1", None, 1, 2,
                      "arc 'Q' is not live"),
    "saddle-bad-cell-id": (BAD_CELL, None, 1, 2, "bad cell id 'e=f'"),
    "saddle-cell-exists": (SADDLE + "saddle cell=e u=c1 v=c1 band=b2 merged=d1", None, 2, 3,
                           "cell 'e' already exists"),
    "saddle-cell-is-generator": ("birth X\nsaddle cell=X u=X v=X band=b merged=c1", None,
                                 1, 2, "cell id 'X' collides with a generator"),
    "saddle-band-live": (SADDLE + "saddle cell=f u=c1 v=c1 band=b merged=d1", None, 2, 3,
                         "band 'b' is already live"),
    "saddle-merged-repeated": ("birth X\nsaddle cell=e u=X v=X band=b merged=c1,c1", None,
                               1, 2, "merged arc ids must be distinct"),
    "saddle-merged-none": ((Birth("X", 1), SaddleEvent("e", ("X", 1), ("X", 1), "b", (), 2)),
                           None, 1, 2, "merged= must list one or two fresh arcs"),
    "saddle-merged-three": ((Birth("X", 1),
                             SaddleEvent("e", ("X", 1), ("X", 1), "b", ("c1", "c2", "c3"), 2)),
                            None, 1, 2, "merged= must list one or two fresh arcs"),
    "saddle-merged-live": ("birth X\nbirth Y\nsaddle cell=e u=X v=X band=b merged=Y", None,
                           2, 3, "arc 'Y' is already live"),
    "saddle-charge": ("birth X\nsaddle cell=e u=X^-1 v=X band=b merged=c1", 3, 1, 2,
                      "labels grow past 3 letters and terms"),
    "saddle-dead-arc-and-used-cell": (SADDLE + "saddle cell=e u=Q v=c1 band=b2 merged=d1",
                                      None, 2, 3, "arc 'Q' is not live"),
    "saddle-dead-arc-and-bad-cell-id": (BAD_CELL_ON_DEAD_ARC, None, 1, 2,
                                        "arc 'Q' is not live"),
    "saddle-used-cell-and-live-band": (SADDLE + "saddle cell=e u=c1 v=c1 band=b merged=d1",
                                       None, 2, 3, "cell 'e' already exists"),
    "saddle-generator-cell-and-live-band": (
        SADDLE + "saddle cell=X u=c1 v=c1 band=b merged=d1", None, 2, 3,
        "cell id 'X' collides with a generator"),
    "saddle-live-band-and-repeated-merged": (
        SADDLE + "saddle cell=f u=c1 v=c1 band=b merged=d1,d1", None, 2, 3,
        "band 'b' is already live"),
    "saddle-repeated-merged-and-charge": (
        "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c1", 1, 1, 2,
        "merged arc ids must be distinct"),
    "saddle-charge-and-live-merged": (
        "birth X\nbirth Y\nsaddle cell=e u=X v=X band=b merged=Y", 2, 2, 3,
        "labels grow past 2 letters and terms"),
    "death-arc-repeated": ("birth X\ndeath circle=X,X spanner=[]", None, 1, 2,
                           "death circle lists an arc twice"),
    "death-arc-dead": ("birth X\ndeath circle=X,Q spanner=[]", None, 1, 2,
                       "arc 'Q' is not live"),
    "death-band-dead": (SADDLE + "death circle=c1 spanner=[(b,1,+);(Q,1,+)]", None, 2, 3,
                        "band 'Q' is not live"),
    "death-unknown-generator": (SADDLE + "death circle=c1 spanner=[(b,Q P,+)]", None, 2, 3,
                                "spanner conjugator uses unknown generator 'P'"),
    "death-term-charge": (SADDLE + "death circle=c1 spanner=[(b,X,+)]", 5, 2, 3,
                          "labels grow past 5 letters and terms"),
    "death-boundary-charge": (SADDLE + "death circle=c1 spanner=[(b,X,+)]", 7, 2, 3,
                              "labels grow past 7 letters and terms"),
    "death-boundary": (OPEN_SADDLE + "death circle=c1 spanner=[(b,1,+)]", None, 3, 4,
                       "death relation has nontrivial boundary X Y^-1"),
    "death-repeated-arc-and-dead-band": ("birth X\ndeath circle=X,X spanner=[(Q,1,+)]",
                                         None, 1, 2, "death circle lists an arc twice"),
    "death-dead-arc-and-dead-band": (SADDLE + "death circle=Q spanner=[(Q,1,+)]", None,
                                     2, 3, "arc 'Q' is not live"),
    "death-dead-band-and-unknown-generator": (
        SADDLE + "death circle=c1 spanner=[(Q,P,+)]", None, 2, 3, "band 'Q' is not live"),
    "death-unknown-generator-and-charge": (
        SADDLE + "death circle=c1 spanner=[(b,Q,+)]", 4, 2, 3,
        "spanner conjugator uses unknown generator 'Q'"),
    "death-charge-and-dead-band": (
        SADDLE + "death circle=c1 spanner=[(b,1,+);(Q,1,+)]", 4, 2, 3,
        "labels grow past 4 letters and terms"),
    "death-boundary-charge-and-boundary": (
        OPEN_SADDLE + "death circle=c1 spanner=[(b,1,+)]", 7, 3, 4,
        "labels grow past 7 letters and terms"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_every_replay_refusal(name, monkeypatch):
    movie, bound, index, line, message = REFUSALS[name]
    if bound is not None:
        # The events before the last fit under the bound.
        assert replay_charge(movie.rpartition("\n")[0] + "\nend\n") <= bound
        monkeypatch.setattr(movies, "MAX_REPLAY_SIZE", bound)
    script = (MovieScript("m", movie + (EndEvent(len(movie) + 1),)) if isinstance(movie, tuple)
              else parse_movie_script(movie + "\nend\n"))
    with pytest.raises(ReplayError) as info:
        compile_movie(script)
    assert (info.value.event_index, info.value.line) == (index, line)
    assert str(info.value) == f"event {index} (line {line}): {message}"


# ---------------------------------------------------------------------------
# Fixture presentations, pinned
# ---------------------------------------------------------------------------


def test_trivial_fixture_shapes(compiled_fixtures):
    pres = compiled_fixtures["trivial1"]
    assert pres.generators == ("X",)
    assert pres.cells == ("e",)
    assert pres.cell_boundary["e"] == word("")
    assert len(pres.relations) == 1

    pres = compiled_fixtures["trivial2"]
    assert pres.cell_boundary["e"] == word("X^-1 Y")
    assert pres.relations == ()

    pres = compiled_fixtures["trivial3"]
    assert pres.cell_boundary["e"] == word("X Y X^-1 X^-1")

    pres = compiled_fixtures["trivial4"]
    assert pres.relations[0].terms == ((word("X"), "e", 1),)


def test_spun_trefoil_presentation(compiled_fixtures):
    pres = compiled_fixtures["spun_trefoil"]
    assert pres.generators == ("X", "Y")
    assert pres.cells == ("e", "f")
    # Boundary of e: X against the triple-crossed arc.
    assert pres.cell_boundary["e"] == word("X") * word(
        "X Y X Y^-1 X^-1 Y^-1 X^-1"
    )
    assert pres.cell_boundary["f"] == word("")
    assert len(pres.relations) == 1


def swapping_bands(swaps: int) -> list[str]:
    """Two bands crossing each other in turn: each swap about triples a label."""
    return (["birth Z", "saddle cell=f u=Z v=Z band=b merged=z1,z2"]
            + ["bb 2 mover=a fixed=b", "bb 2 mover=b fixed=a"] * (swaps // 2))


def wirtinger_chain(crosses: int) -> list[str]:
    """Each arc crossed under the one before it: word lengths grow like 2^n."""
    return ["birth A0", "birth A1"] + [
        f"cross {'+-'[i % 2]} over=A{i} in=A{i + 1} out=A{i + 2}" for i in range(crosses)]


BLOW_UPS = {
    # Uncapped, one band label reaches 54.6M terms.
    "band swaps": (["birth X", "saddle cell=e u=X v=X band=a merged=c1,c2"]
                   + swapping_bands(20), 19),
    # Uncapped, 20 crosses build a 1.4M-letter word and 26 exhaust memory.
    "wirtinger chain": (wirtinger_chain(26), 21),
    # Each label stays small enough, but reading the boundary of a band of
    # 577 terms whose cell has an 87382-letter boundary would not be.
    "band boundary": (wirtinger_chain(16)
                      + ["saddle cell=e u=A17 v=A0 band=a merged=m"]
                      + swapping_bands(8) + ["sb 1 band=a strand=A1 out=Q"], 30),
}


@pytest.mark.parametrize("name", BLOW_UPS)
def test_replay_refuses_labels_that_blow_up(name, tmp_path, capsys):
    lines, refused_at = BLOW_UPS[name]
    path = tmp_path / "blow_up.movie"
    path.write_text("\n".join(lines + ["end"]) + "\n", encoding="utf-8")
    assert main(["compile", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: event {refused_at - 1} (line {refused_at}): labels grow "
                   f"past {movies.MAX_REPLAY_SIZE} letters and terms\n")


def replay_charge(text: str) -> int:
    """``_Replay.size`` after every event of ``text``."""
    work = movies._replayed(parse_movie_script(text).events)
    assert work.finished
    return work.size


# The work cap refuses a movie at the event where this charge passes
# MAX_REPLAY_SIZE, so a faster replay must charge exactly as much.
FIXTURE_CHARGES = {"trivial1": 5, "trivial2": 5, "trivial3": 10, "trivial4": 10,
                   "two_spheres": 15, "two_tori": 14, "spun_hopf": 38,
                   "spun_trefoil": 62}


def test_fixture_replay_charge_is_pinned():
    assert {name: replay_charge(fixture_text(name))
            for name in FIXTURE_NAMES} == FIXTURE_CHARGES


def test_long_movies_stay_far_below_the_replay_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import long_movie

    size = replay_charge(long_movie(random.Random(1), 7000))
    assert size == 34943 < movies.MAX_REPLAY_SIZE // 20


def test_replay_checks_no_word_it_builds_itself(monkeypatch):
    # Replay works on letter tuples that are reduced by construction, and
    # builds its words and crossed words unchecked when it returns, so no
    # word goes through a checked constructor.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import long_movie

    text = long_movie(random.Random(1), 4000)
    checked = Counter()
    check = FreeWord.__post_init__

    def counted(self):
        checked["words"] += 1
        check(self)
    check_crossed = CrossedWord.__post_init__

    def counted_crossed(self):
        checked["crossed words"] += 1
        check_crossed(self)
    monkeypatch.setattr(FreeWord, "__post_init__", counted)
    monkeypatch.setattr(CrossedWord, "__post_init__", counted_crossed)
    compile_movie(parse_movie_script(text))
    assert checked["words"] == 0
    assert checked["crossed words"] == 0


# perfbench.oracle replays only birth, cross, saddle, death and end; the two
# fixtures with sb or bb events are replayed here by hand from ``_RULES``.
HAND_REPLAYED = {
    "trivial4": "pres v1\ngens X\ncells e\nbnd e = 1\nrel = (X ; e ; +)\n",
    "two_spheres": "pres v1\ngens X Y\ncells e f\nbnd e = 1\nbnd f = 1\n"
                   "rel = (1 ; e ; +)\nrel = (1 ; e ; -) (1 ; f ; +) (1 ; e ; +)\n",
}


LONG_MOVIES = [(seed, events) for seed in (1, 2, 3) for events in (1000, 7000)]

# ALL_RULES meets every rule, and its last relation inverts a band label of
# three terms, so the order of inverted terms shows.
ALL_RULES_PRESENTATION = (
    "pres v1\ngens X Y\ncells e f\nbnd e = X Y^-1\nbnd f = 1\n"
    "rel = (X ; e ; +) (Y^-1 ; f ; +) (X ; e ; -)\n"
    "rel = (X Y X ; e ; +) (X ; f ; -) (X Y X ; e ; -) (X Y X ; e ; +) (X Y X ; e ; +)"
    " (X ; f ; +) (X Y X ; e ; -) (Y^-1 X ; e ; +) (Y^-1 Y^-1 ; f ; -) (Y^-1 X ; e ; -)"
    " (X Y X ; e ; +) (X ; f ; -) (X Y X ; e ; -) (X Y X ; e ; -) (X Y X ; e ; +)"
    " (X ; f ; +) (X Y X ; e ; -)\n"
)


def test_all_rules_presentation_is_pinned():
    pres = compile_movie(parse_movie_script(ALL_RULES))
    assert format_presentation_text(pres) == ALL_RULES_PRESENTATION


@pytest.mark.parametrize("source", [*FIXTURE_NAMES, *LONG_MOVIES], ids=lambda source: (
    source if isinstance(source, str) else "long_movie-seed%d-%d" % source))
def test_compile_agrees_with_the_reference_replay(source, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import oracle
    from perfbench.inputs import long_movie

    if isinstance(source, str):
        text = fixture_text(source)
    else:
        seed, events = source
        text = long_movie(random.Random(seed), events)
    expected = HAND_REPLAYED.get(source) or oracle.format_pres(oracle.replay(text)[0])
    assert format_presentation_text(compile_movie(parse_movie_script(text))) == expected


def test_replay_builds_no_state_per_event(monkeypatch):
    # Replay must stay linear in the number of events: one working state
    # and one presentation per movie, not one per event.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import long_movie

    def constructions(events: int) -> Counter:
        script = parse_movie_script(long_movie(random.Random(1), events))
        assert len(script.events) > events
        counts: Counter = Counter()
        with monkeypatch.context() as patch:
            for name in ("_Replay", "CrossedPresentation"):
                def counted(*args, _name=name, _cls=getattr(movies, name), **kwargs):
                    counts[_name] += 1
                    return _cls(*args, **kwargs)
                patch.setattr(movies, name, counted)
            compile_movie(script)
        return counts

    expected = Counter({"_Replay": 1, "CrossedPresentation": 1})
    assert constructions(500) == constructions(4000) == expected


def test_replay_builds_each_stored_word_once(monkeypatch):
    # Replay works on letter tuples, so one compile builds a FreeWord for
    # each cell boundary and relation conjugator and a CrossedWord for each
    # relation, when it returns, and none per product, inverse or action.
    # The canonical reader hands replay letter tuples too, so parsing builds
    # no word at all.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import long_movie
    from xmod import presentations, words

    def built(events: int) -> tuple[Counter, Counter, CrossedPresentation]:
        text = long_movie(random.Random(1), events)
        counts: Counter = Counter()
        with monkeypatch.context() as patch:
            for kind, name, modules in (("words", "_reduced", (words, presentations, movies)),
                                        ("crossed words", "_crossed", (presentations, movies))):
                for module in modules:
                    def unchecked(*args, _kind=kind, _build=getattr(module, name)):
                        counts[_kind] += 1
                        return _build(*args)
                    patch.setattr(module, name, unchecked)
            for kind, cls in (("words", FreeWord), ("crossed words", CrossedWord)):
                def checked(self, _kind=kind, _check=cls.__post_init__):
                    counts[_kind] += 1
                    _check(self)
                patch.setattr(cls, "__post_init__", checked)
            script = parse_movie_script(text)
            parsed = counts.copy()
            pres = compile_movie(script)
        return parsed, counts, pres

    for events in (500, 4000):
        parsed, counts, pres = built(events)
        assert parsed == Counter()
        terms = sum(len(relation.terms) for relation in pres.relations)
        assert counts["words"] <= len(pres.cells) + terms
        assert counts["crossed words"] == len(pres.relations) > 0


# ---------------------------------------------------------------------------
# Alexander duality: with trivial boundary and trivial action, a surface of
# c components and total genus g has I = |G|^c * |E|^(2g - c).
# ---------------------------------------------------------------------------


def trivial_module(base_order: int, fiber_order: int) -> FiniteCrossedModule:
    """Z_m over Z_n with trivial boundary and trivial action."""
    return FiniteCrossedModule(
        build_cyclic_group(base_order), build_cyclic_group(fiber_order),
        (0,) * fiber_order, (tuple(range(fiber_order)),) * base_order,
    )


def movie_topology(name: str) -> tuple[int, int]:
    """(components, total genus) of a fixture, read off its events.

    chi = births - saddles + deaths.  Components are the classes of arcs
    joined by a saddle (its u, v and merged arcs) or by a crossing (its
    in and out arcs); genus is c - chi/2.
    """
    parent: dict[str, str] = {}

    def find(arc: str) -> str:
        parent.setdefault(arc, arc)
        while parent[arc] != arc:
            arc = parent[arc]
        return arc

    def join(*arcs: str) -> None:
        roots = [find(arc) for arc in arcs]
        for root in roots[1:]:
            parent[root] = roots[0]

    births = saddles = deaths = 0
    for event in load_fixture(name).events:
        if isinstance(event, Birth):
            births += 1
            find(event.arc)
        elif isinstance(event, SaddleEvent):
            saddles += 1
            join(event.u[0], event.v[0], *event.merged)
        elif isinstance(event, DeathEvent):
            deaths += 1
        elif isinstance(event, WirtingerCross):
            join(event.under_in, event.under_out)
        elif isinstance(event, StrandBandCross) and event.out is not None:
            join(event.strand, event.out)
    chi = births - saddles + deaths
    components = len({find(arc) for arc in parent})
    return components, components - chi // 2


def test_movie_topology_of_the_fixtures():
    topology = {name: movie_topology(name) for name in FIXTURE_NAMES}
    assert topology == {
        "trivial1": (1, 0), "trivial2": (1, 0), "trivial3": (1, 0),
        "trivial4": (1, 0), "two_spheres": (2, 0), "two_tori": (2, 2),
        "spun_hopf": (2, 2), "spun_trefoil": (1, 0),
    }


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("base_order, fiber_order",
                         [(1, 2), (2, 3), (3, 2), (1, 4), (4, 6)])
def test_alexander_duality_closed_form(name, base_order, fiber_order, compiled_fixtures):
    components, genus = movie_topology(name)
    cm = trivial_module(base_order, fiber_order)
    assert validate_crossed_module(cm).ok
    expected = (Fraction(base_order) ** components
                * Fraction(fiber_order) ** (2 * genus - components))
    pres = compiled_fixtures[name]
    assert invariant(pres, cm) == expected
