from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from xmod import movies
from xmod.errors import FormatError, ReplayError, XmodError
from xmod.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from xmod.movies import (
    Birth,
    EndEvent,
    MovieScript,
    SaddleEvent,
    WirtingerCross,
    compile_movie,
    parse_movie_script,
)
from xmod.presentations import validate_presentation
from xmod.words import FreeWord, parse_word


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
    label, owner = state.bands["b"]
    assert owner == "e"
    assert label.terms == ((word(""), "e", 1),)


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
    label, owner = state.bands["b"]
    assert label.terms == ((word("X"), "e", 1),)
    assert owner == "e"
    state = replay(base + "sb 4 band=b strand=c1")
    label, _ = state.bands["b"]
    assert label.terms == ((word("X^-1"), "e", 1),)


def test_band_band_rules_conjugate_label():
    base = (
        "birth X\nbirth Y\n"
        "saddle cell=e u=X v=X band=be merged=c1,c2\n"
        "saddle cell=f u=Y v=Y band=bf merged=d1,d2\n"
    )
    state = replay(base + "bb 2 mover=bf fixed=be")
    label, owner = state.bands["bf"]
    assert owner == "f"
    assert [term[1] for term in label.terms] == ["e", "f", "e"]
    assert [term[2] for term in label.terms] == [1, 1, -1]
    state = replay(base + "bb 5 mover=bf fixed=be")
    label, _ = state.bands["bf"]
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


def test_compile_reports_event_index_and_line():
    script = parse_movie_script("birth X\nbirth X\nend\n")
    with pytest.raises(ReplayError) as info:
        compile_movie(script)
    assert info.value.event_index == 1
    assert info.value.line == 2


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


def test_replay_builds_no_state_per_event(monkeypatch):
    # Replay must stay linear in the number of events: one working state
    # and one presentation per movie, not one per event.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
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
