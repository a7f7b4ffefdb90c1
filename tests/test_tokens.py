"""The token rules the three text formats share: ids, integers, signs and
end of input, through the library parsers and through ``xmod``."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from xmod.cli import main
from xmod.crossed import parse_crossed_module_text
from xmod.errors import FormatError
from xmod.movies import parse_movie_script
from xmod.presentations import parse_presentation_text
from xmod.words import LineReader, first_content, parse_integers, parse_word

PARSERS = {
    "xmod": parse_crossed_module_text,
    "pres": parse_presentation_text,
    "movie": parse_movie_script,
}
ORDER_1_MODULE = "xmod v1\nbase 1\n0\nfiber 1\n0\nboundary\n0\naction\n0\n"
PRES_HEAD = "pres v1\ngens X\ncells e\n"

# (format, text, line, message after "line <n>: ").  Each token is one that
# int() would read or an empty item of a comma-separated list of ids.
MALFORMED_TOKENS = [
    ("pres", PRES_HEAD + "bnd e = X^1_0\n", 4, "[bnd] bad exponent in token 'X^1_0'"),
    ("movie", "birth X\ndeath circle=X spanner=[(b,X^٣,+)]\nend\n", 2,
     "[spanner] bad exponent in token 'X^٣'"),
    ("xmod", "xmod v1\nbase ٣\n", 2, "[base] bad order '٣'"),
    ("xmod", "xmod v1\nbase 1_0\n", 2, "[base] bad order '1_0'"),
    ("xmod", "xmod v1\nbase 1\n٠\n", 3, "[base] expected an integer, got '٠'"),
    ("movie", "birth X\nsb ٤ band=b strand=X\nend\n", 2, "bad rule id '٤'"),
    ("xmod", "", 1, "[header] unexpected end of input"),
    ("movie", "birth X\nsaddle cell=e u=X v=X band=b merged=,c1,,\nend\n", 2,
     "bad arc id ''"),
    ("movie", "birth X\nsaddle cell=e u=X v=X band=b merged=c1,\nend\n", 2,
     "bad arc id ''"),
    ("movie", "birth X\ndeath circle=,X, spanner=[]\nend\n", 2, "bad arc id ''"),
    ("movie", "birth X\ndeath circle=X,,Y spanner=[]\nend\n", 2, "bad arc id ''"),
    # More digits than int() converts by default (4300): refused by the
    # integer rule like any other bad token, not raised from int().
    pytest.param("xmod", "xmod v1\nbase " + "9" * 4301 + "\n", 2,
                 f"[base] bad order '{'9' * 4301}'", id="xmod-order-past-int-digits"),
]


@pytest.mark.parametrize("fmt, text, line, message", MALFORMED_TOKENS)
def test_malformed_token_is_a_parse_error(fmt, text, line, message, tmp_path, capsys):
    expected = f"line {line}: {message}"
    with pytest.raises(FormatError) as info:
        PARSERS[fmt](text)
    assert info.value.line == line and str(info.value) == expected

    path = tmp_path / f"input.{fmt}"
    path.write_text(text, encoding="utf-8")
    module = tmp_path / "order1.xmod"
    module.write_text(ORDER_1_MODULE, encoding="utf-8")
    argv = {
        "xmod": ["validate", str(path)],
        "pres": ["invariant", str(path), str(module)],
        "movie": ["compile", str(path)],
    }[fmt]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {expected}\n")


def test_accepted_token_spellings():
    pres = parse_presentation_text(
        PRES_HEAD + "bnd e = X^+2 X^-2 X^02\n"
        "rel = (1 ; e ; +) (1 ; e ; +1) (X ; e ; -) (X ; e ; -1)\n"
    )
    assert pres.cell_boundary["e"] == parse_word("X X")
    assert [sign for _, _, sign in pres.relations[0].terms] == [1, 1, -1, -1]

    cm = parse_crossed_module_text(
        "xmod v1\nbase 02\n00 +1\n01 0\nfiber 1\n-0\nboundary\n0\naction\n0\n000\n"
    )
    assert (cm.base.order, cm.base.product, cm.boundary) == (2, ((0, 1), (1, 0)), (0,))

    script = parse_movie_script(
        "sb 04 band=b strand=X\nbb +2 mover=b fixed=c\n"
        "cross +1 over=X in=Y out=Z\ncross - over=X in=Y out=W\n"
        "death circle=Z spanner=[(b,X^+2,+);(c,X^-02,-1)]\nend\n"
    )
    sb, bb, plus, minus, death, _ = script.events
    assert (sb.rule, bb.rule, plus.sign, minus.sign) == (4, 2, 1, -1)
    assert death.spanner == (
        ("b", parse_word("X X"), 1), ("c", parse_word("X^-1 X^-1"), -1)
    )


TOKENS = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,3}", fullmatch=True),
    # Tokens that int() reads but the integer rule refuses.
    st.from_regex(r"[+-]?[0-9]+(_[0-9]+|[\u0663\uff11])", fullmatch=True),
    st.text("0123456789+-_x\u0663\uff11", min_size=1, max_size=4),
)


@given(st.lists(TOKENS, max_size=5), st.sampled_from([" ", "  ", "\t", "\u00a0"]))
def test_parse_integers_is_the_integer_rule_per_token(tokens, space):
    # A row is read token by token under the integer rule: the first token
    # outside it is named, and otherwise each token's value is int()'s.
    def strict(token):
        digits = token[1:] if token[:1] in "+-" else token
        return digits != "" and all(c in "0123456789" for c in digits)

    text = space.join(tokens)
    bad = [token for token in tokens if not strict(token)]
    if bad:
        with pytest.raises(FormatError) as info:
            parse_integers(text, line=3, field="base")
        assert str(info.value) == f"line 3: [base] expected an integer, got {bad[0]!r}"
    else:
        assert parse_integers(text) == tuple(int(token) for token in tokens)


# Every line break of str.splitlines, other characters, and "#".
LINE_PIECES = st.sampled_from([
    "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
    "\u2029", "\x1f", " ", "\t", "#", "pres v1", "x", "a#b",
])


@given(st.lists(LINE_PIECES, max_size=8))
def test_first_content_is_the_first_line_the_reader_yields(pieces):
    text = "".join(pieces)
    assert first_content(text) == next((content for _, content in LineReader(text)), "")


def test_end_of_input_is_the_last_line_of_the_text():
    assert LineReader("").end_error("x").line == 1
    assert LineReader("a\n\n# c\n").end_error("x").line == 3
    cases = [
        (parse_crossed_module_text, "xmod v1\nbase 1\n# comment\n\n", 4, "base"),
        (parse_presentation_text, "pres v1\ngens X\n# comment\n", 3, "cells"),
        (parse_presentation_text, "# comment\n\n", 2, "header"),
        (parse_movie_script, "birth X\n# comment\n", 2, None),
    ]
    for parse, text, line, field in cases:
        with pytest.raises(FormatError) as info:
            parse(text)
        assert (info.value.line, info.value.field) == (line, field), text


# Z2 over Z3 with trivial boundary and action: 13 lines, base indices 0..1
# and fiber indices 0..2.
Z2_Z3_MODULE = (
    "xmod v1\nbase 2\n0 1\n1 0\nfiber 3\n0 1 2\n1 2 0\n2 0 1\n"
    "boundary\n0 0 0\naction\n0 1 2\n0 1 2\n"
)


@pytest.mark.parametrize("line, row, message", [
    (4, "1 2", "[base] index 2 out of range 0..1"),
    (7, "1 2 3", "[fiber] index 3 out of range 0..2"),
    (10, "0 0 2", "[boundary] index 2 out of range 0..1"),
    (13, "0 1 3", "[action] index 3 out of range 0..2"),
])
def test_table_entry_out_of_range_is_a_parse_error(line, row, message, tmp_path, capsys):
    lines = Z2_Z3_MODULE.splitlines()
    lines[line - 1] = row
    module = tmp_path / "bad.xmod"
    module.write_text("\n".join(lines) + "\n", encoding="utf-8")
    target = tmp_path / "sphere.pres"
    target.write_text("pres v1\ngens X\ncells\n", encoding="utf-8")
    for argv in (["validate", str(module)], ["invariant", str(target), str(module)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", f"error: line {line}: {message}\n"), argv


# Two broken rows in one table: the earlier row's error is reported, whether
# it is the range error or the other.  None ends the text before that line.
@pytest.mark.parametrize("rows, line, message", [
    ({6: "0 1 3", 7: "1 2"}, 6, "[fiber] index 3 out of range 0..2"),
    ({6: "1 2", 7: "1 2 3"}, 6, "[fiber] expected 3 entries, got 2"),
    ({12: "0 1 5", 13: "0 x 2"}, 12, "[action] index 5 out of range 0..2"),
    ({12: "0 1 5", 13: None}, 12, "[action] index 5 out of range 0..2"),
    ({3: "0 1", 4: "1 2"}, 4, "[base] index 2 out of range 0..1"),
], ids=["range-then-length", "length-then-range", "range-then-integer",
        "range-then-end", "second-row"])
def test_the_first_broken_row_of_a_table_is_reported(rows, line, message, tmp_path, capsys):
    lines = Z2_Z3_MODULE.splitlines()
    for index, row in rows.items():
        lines[index - 1] = row
    text = "\n".join(lines[:lines.index(None)] if None in lines else lines) + "\n"
    with pytest.raises(FormatError) as info:
        parse_crossed_module_text(text)
    assert str(info.value) == f"line {line}: {message}"
    module = tmp_path / "bad.xmod"
    module.write_text(text, encoding="utf-8")
    assert main(["validate", str(module)]) == 2
    assert capsys.readouterr() == ("", f"error: line {line}: {message}\n")
