from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from xmod.errors import FormatError
from xmod.words import (
    EMPTY_WORD,
    MAX_EXPONENT,
    FreeWord,
    LineReader,
    format_word,
    parse_word,
    reduce_free_word,
)

letters = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z"]), st.integers(-3, 3)), max_size=8
)


def test_reduce_cancels_adjacent_pair():
    assert reduce_free_word([("X", 1), ("X", -1)]) == EMPTY_WORD


def test_reduce_cascades():
    raw = [("X", 1), ("Y", 1), ("Y", -1), ("X", -1), ("Z", 1)]
    assert reduce_free_word(raw) == FreeWord((("Z", 1),))


def test_reduce_expands_exponents():
    assert reduce_free_word([("X", 3)]) == FreeWord((("X", 1),) * 3)
    assert reduce_free_word([("X", 2), ("X", -2)]) == EMPTY_WORD
    assert reduce_free_word([("X", 0)]) == EMPTY_WORD


def test_str_is_the_canonical_text():
    assert str(parse_word("X Y^-1 X^2")) == "X Y^-1 X X"
    assert str(EMPTY_WORD) == "1"


def test_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        FreeWord((("X", 1), ("X", -1)))
    with pytest.raises(ValueError):
        FreeWord((("X", 2),))


@given(letters)
def test_reduce_is_idempotent(raw):
    once = reduce_free_word(raw)
    assert reduce_free_word(once.letters) == once


@given(letters, letters)
def test_reduce_is_a_homomorphism(raw1, raw2):
    assert reduce_free_word(raw1 + raw2) == reduce_free_word(raw1) * reduce_free_word(
        raw2
    )


@given(letters, letters, letters)
def test_product_is_associative(a, b, c):
    u, v, w = (reduce_free_word(x) for x in (a, b, c))
    assert (u * v) * w == u * (v * w)


@given(letters)
def test_inverse_cancels(raw):
    word = reduce_free_word(raw)
    assert word * word.inverse() == EMPTY_WORD
    assert word.inverse() * word == EMPTY_WORD


@given(letters, letters)
def test_built_words_pass_the_checked_constructor(raw1, raw2):
    # These results skip the constructor's check, so each must be a word
    # the check accepts, with int signs.
    u, v = reduce_free_word(raw1), reduce_free_word(raw2)
    text = " ".join(f"{gen}^{exp}" if exp else "1" for gen, exp in raw1 + raw2)
    for word in (u, v, u * v, v * u, u.inverse(), (u * v).inverse(), parse_word(text),
                 reduce_free_word([("x", True), ("y", -1)])):
        assert FreeWord(word.letters) == word
        assert {type(sign) for _, sign in word.letters} <= {int}


def test_parse_basic():
    word = parse_word("X Y^-1 X")
    assert word.letters == (("X", 1), ("Y", -1), ("X", 1))


def test_parse_empty_token():
    assert parse_word("1") == EMPTY_WORD
    assert parse_word("") == EMPTY_WORD


def test_parse_exponents_expand():
    assert parse_word("X^2") == FreeWord((("X", 1), ("X", 1)))
    assert parse_word("X^-2 X^2") == EMPTY_WORD


def test_parse_bad_token():
    with pytest.raises(FormatError):
        parse_word("X^)")
    with pytest.raises(FormatError):
        parse_word("=bad")


def test_parse_exponent_bound():
    assert parse_word(f"X^{MAX_EXPONENT}") == FreeWord((("X", 1),) * MAX_EXPONENT)
    assert parse_word(f"X^-{MAX_EXPONENT}") == FreeWord((("X", -1),) * MAX_EXPONENT)
    for token in (f"X^{MAX_EXPONENT + 1}", f"X^-{MAX_EXPONENT + 1}"):
        with pytest.raises(FormatError) as info:
            parse_word(f"Y {token}", line=12, field="bnd")
        assert info.value.line == 12 and info.value.field == "bnd"
        assert str(info.value) == (
            f"line 12: [bnd] exponent in token {token!r} exceeds "
            f"{MAX_EXPONENT} in absolute value"
        )


def test_content_lines():
    text = "# head\n\n  a b  # tail\n#\nc\n   \n"
    assert list(LineReader(text)) == [(3, "a b"), (5, "c")]
    assert list(LineReader("")) == []
    # Lines are split as str.splitlines splits them, so numbers match it.
    assert list(LineReader("a\r\nb\rc")) == [(1, "a"), (2, "b"), (3, "c")]


def test_format_round_trip():
    for text in ("1", "X", "X^-1", "X Y^-1 X"):
        assert format_word(parse_word(text)) == text


@given(letters)
def test_parse_of_format_is_identity(raw):
    word = reduce_free_word(raw)
    assert parse_word(format_word(word)) == word
