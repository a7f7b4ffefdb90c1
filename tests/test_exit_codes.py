"""Every input ends in an answer or a documented exit code with one line.

Seeded single-byte corruptions of a fixture movie, its ``pres v1`` text and
a battery module are run through ``validate``, ``compile`` and ``invariant``
in process.  Each run must return 0-3 without raising, print nothing to
stdout when it fails, and print exactly one ``error:`` line to stderr.  The
one exception is ``validate``'s exit 1, which lists its violations on
stdout.
"""
from __future__ import annotations

import random

import pytest

from xmod.battery import standard_battery
from xmod.cli import main
from xmod.crossed import format_crossed_module_text
from xmod.fixtures import fixture_text, load_fixture
from xmod.movies import compile_movie
from xmod.presentations import format_presentation_text

SEED = 6
PER_KIND = 100

# Bytes that a corruption writes in place of one byte of the input: a byte
# that is not UTF-8, a non-ASCII digit, the separators of the text formats
# and a few ordinary characters.
REPLACEMENTS = [
    b"\xff", "٣".encode(), b"_", b"0", b"9", b"-", b"+", b"^", b"#",
    b"=", b";", b",", b"(", b"]", b" ", b"\n", b"X", b"e", b"",
]


def corruptions(text: str, rng: random.Random):
    data = text.encode()
    for _ in range(PER_KIND):
        at = rng.randrange(len(data))
        yield data[:at] + rng.choice(REPLACEMENTS) + data[at + 1:]


def check_run(capsys, argv):
    try:
        code = main(argv)
    except Exception as exc:  # an escape is the failure this test looks for
        pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        assert err == "", argv
    elif argv[0] == "validate" and code == 1:
        assert err == "" and out, argv
        assert all(line.startswith("violation ") for line in out.splitlines())
    else:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code


def test_corrupted_inputs_end_in_a_documented_exit(tmp_path, capsys):
    movie = fixture_text("spun_trefoil")
    pres = format_presentation_text(compile_movie(load_fixture("spun_trefoil")))
    modules = dict(standard_battery())
    good = {}
    for name in ("conj_s3", "ga_z2_p2"):
        good[name] = tmp_path / f"{name}.xmod"
        good[name].write_text(format_crossed_module_text(modules[name]), encoding="utf-8")
    good["pres"] = tmp_path / "good.pres"
    good["pres"].write_text(pres, encoding="utf-8")

    cap = ["--work-cap", "100000"]
    commands = {
        "movie": lambda f: [["compile", f], ["invariant", f, str(good["ga_z2_p2"]), *cap]],
        "pres": lambda f: [["invariant", f, str(good["conj_s3"]), *cap]],
        "module": lambda f: [["validate", f], ["invariant", str(good["pres"]), f, *cap]],
    }
    texts = {
        "movie": movie,
        "pres": pres,
        "module": format_crossed_module_text(modules["conj_s3"]),
    }
    rng = random.Random(SEED)
    codes = {code: 0 for code in range(4)}
    for kind, text in texts.items():
        for index, data in enumerate(corruptions(text, rng)):
            path = tmp_path / f"{kind}{index}"
            path.write_bytes(data)
            for argv in commands[kind](str(path)):
                codes[check_run(capsys, argv)] += 1
    # The corruptions reach every outcome but the work cap.
    assert codes[0] and codes[1] and codes[2], codes


ORDER_1_TABLES = "xmod v1\nbase 1\n0\nfiber 1\n0\n"

# (command, file suffix, text, exit code, message): one refusal each, made
# through the command that reads the file.
REFUSALS = [
    pytest.param("compile", "movie", "birth X\nbirth Y\ncross + over=X in=Y out=b\n"
                 "birth b\nend\n", 1, "event 3 (line 4): arc 'b' is already live",
                 id="birth_onto_a_crossing_output"),
    pytest.param("compile", "movie", "birth X\nbirth Y\ncross + over=X in=Y out=X\nend\n",
                 1, "event 2 (line 3): arc 'X' is already live", id="cross_onto_a_live_arc"),
    pytest.param("compile", "movie", "birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\n"
                 "birth Y\nsb 1 band=b strand=Y out=c1\nend\n", 1,
                 "event 3 (line 4): arc 'c1' is already live",
                 id="sb_onto_a_live_arc"),
    pytest.param("compile", "movie", "birth X\nsb\nend\n", 2, "line 2: sb takes a rule id",
                 id="sb_without_a_rule"),
    pytest.param("compile", "movie", "bb\nend\n", 2, "line 1: bb takes a rule id",
                 id="bb_without_a_rule"),
    pytest.param("validate", "xmod", ORDER_1_TABLES + "boundary 3\n0\naction\n0\n", 2,
                 "line 6: [boundary] 'boundary' takes no arguments",
                 id="boundary_header_with_an_argument"),
    pytest.param("validate", "xmod", ORDER_1_TABLES + "boundary\n0\naction x\n0\n", 2,
                 "line 8: [action] 'action' takes no arguments",
                 id="action_header_with_an_argument"),
]


@pytest.mark.parametrize("command, suffix, text, code, message", REFUSALS)
def test_refusal_is_one_line(command, suffix, text, code, message, tmp_path, capsys):
    path = tmp_path / f"input.{suffix}"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
