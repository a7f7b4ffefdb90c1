from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

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
from xmod.presentations import format_presentation_text, validate_presentation
from xmod.words import FreeWord, parse_word

ROOT = Path(__file__).resolve().parents[1]


def word(text: str) -> FreeWord:
    return parse_word(text)


def replay(text: str) -> movies._Replay:
    """The replay state after the events of ``text``, before any ``end``."""
    work = movies._Replay()
    for event in parse_movie_script(text + "\nend\n").events[:-1]:
        movies._step(work, event)
    return work


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
    assert state.arcs == {"X": word("X")}


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
    assert state.arcs["Z"] == word("X^-1 Y X")
    state = replay("birth X\nbirth Y\ncross - over=X in=Y out=Z")
    assert state.arcs["Z"] == word("X Y X^-1")
    # The input arc stays live; crossings do not consume strands.
    assert "Y" in state.arcs


def test_wirtinger_r2_insertion_is_identity():
    # Crossing under X and back out restores the original label.
    state = replay(
        "birth X\nbirth Y\n"
        "cross + over=X in=Y out=Z\n"
        "cross - over=X in=Z out=W"
    )
    assert state.arcs["W"] == state.arcs["Y"] == word("Y")


def test_saddle_reads_boundary_and_spawns_band():
    state = replay("birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2")
    assert state.cells == ["e"]
    assert state.cell_boundary["e"] == word("X Y^-1")
    assert set(state.arcs) == {"c1", "c2"}
    # Merged arcs inherit the consumed labels positionally.
    assert state.arcs["c1"] == word("X") and state.arcs["c2"] == word("Y")
    assert state.bands["b"].terms == ((word(""), "e", 1),)


def test_saddle_with_reversed_refs():
    state = replay("birth X\nbirth Y\nsaddle cell=e u=X^-1 v=Y^-1 band=b merged=c1,c2")
    assert state.cell_boundary["e"] == word("X^-1 Y")


def test_saddle_on_single_arc():
    # u and v on the same arc: the arc splits, boundary reads twice.
    state = replay("birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2")
    assert state.cell_boundary["e"] == word("")
    assert state.arcs == {"c1": word("X"), "c2": word("X")}


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
    assert state.arcs["Z"] == word("Y")
    state = replay(
        "birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2\n"
        "sb 1 band=b strand=c1 out=Z"
    )
    assert state.arcs["Z"] == word("X Y^-1 X Y X^-1")
    state = replay(
        "birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2\n"
        "sb 3 band=b strand=c1 out=Z"
    )
    assert state.arcs["Z"] == word("Y X Y^-1")


def test_strand_band_rules_move_band():
    base = "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
    state = replay(base + "sb 6 band=b strand=c1")
    assert state.bands["b"].terms == ((word("X"), "e", 1),)
    state = replay(base + "sb 4 band=b strand=c1")
    assert state.bands["b"].terms == ((word("X^-1"), "e", 1),)


def test_band_band_rules_conjugate_label():
    base = (
        "birth X\nbirth Y\n"
        "saddle cell=e u=X v=X band=be merged=c1,c2\n"
        "saddle cell=f u=Y v=Y band=bf merged=d1,d2\n"
    )
    state = replay(base + "bb 2 mover=bf fixed=be")
    label = state.bands["bf"]
    assert [term[1] for term in label.terms] == ["e", "f", "e"]
    assert [term[2] for term in label.terms] == [1, 1, -1]
    state = replay(base + "bb 5 mover=bf fixed=be")
    label = state.bands["bf"]
    assert [term[2] for term in label.terms] == [-1, 1, 1]


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
    assert state.relations[0].terms == ((word(""), "e", 1),)


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
    work = movies._Replay()
    movies._step(work, EndEvent(1))
    with pytest.raises(XmodError):
        movies._step(work, Birth("X", 2))


def test_compile_fails_where_step_fails():
    bad = [
        "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\nbirth e\nend\n",
        "birth X\nsaddle cell=X u=X v=X band=b merged=c1,c2\nend\n",
        "birth X\nbirth c1\nsaddle cell=e u=X v=X band=b merged=c1,c2\nend\n",
        "birth X\nsb 1 band=b strand=X out=Z\nend\n",
        "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\nbb 5 mover=b fixed=b\nend\n",
        "birth X\ndeath circle=X,X spanner=[]\nend\n",
        "birth X\nbirth Y\nsaddle cell=e u=X v=Y band=b merged=c1,c2\n"
        "death circle=c1 spanner=[(b,1,+)]\nend\n",
    ]
    for text in bad:
        script = parse_movie_script(text)
        work = movies._Replay()
        for index, event in enumerate(script.events):
            try:
                movies._step(work, event)
            except XmodError as exc:
                expected = f"event {index} (line {event.line}): {exc}"
                break
        else:
            pytest.fail(text)
        with pytest.raises(ReplayError) as info:
            compile_movie(script)
        assert str(info.value) == expected, text


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
    work = movies._Replay()
    for event in parse_movie_script(text).events:
        movies._step(work, event)
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
    # Products, inverses and reductions are reduced by construction; only
    # the one-letter label of each birth goes through the checked
    # constructor.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import long_movie

    text = long_movie(random.Random(1), 4000)
    births = sum(line.startswith("birth ") for line in text.splitlines())
    checked = Counter()
    check = FreeWord.__post_init__

    def counted(self):
        checked["words"] += 1
        check(self)
    monkeypatch.setattr(FreeWord, "__post_init__", counted)
    compile_movie(parse_movie_script(text))
    assert 0 < checked["words"] <= births


# perfbench.oracle replays only birth, cross, saddle, death and end; the two
# fixtures with sb or bb events are replayed here by hand from ``_RULES``.
HAND_REPLAYED = {
    "trivial4": "pres v1\ngens X\ncells e\nbnd e = 1\nrel = (X ; e ; +)\n",
    "two_spheres": "pres v1\ngens X Y\ncells e f\nbnd e = 1\nbnd f = 1\n"
                   "rel = (1 ; e ; +)\nrel = (1 ; e ; -) (1 ; f ; +) (1 ; e ; +)\n",
}


LONG_MOVIES = [(seed, events) for seed in (1, 2, 3) for events in (1000, 7000)]


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
