"""README.md's examples, run as written."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from xmod import movies
from xmod.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)


def test_library_snippet_prints_nine_eighths(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "9/8\n"


def test_examples_block_matches_the_cli(capsys):
    (body,) = [body for _, body in BLOCKS if body.startswith("$ xmod examples ")]
    command, expected = body.split("\n", 1)
    argv = shlex.split(command)[2:]
    assert argv == ["examples", "trivial1", "two_tori", "spun_hopf", "spun_trefoil"]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_rule_table_matches_the_parser():
    rows = re.findall(r"^ *\| (\d) \| (sb|bb)(, needs `out=`)? \|", README, re.M)
    assert {int(rule): (kind, bool(out)) for rule, kind, out in rows} == {
        rule: (kind, needs_out) for rule, (kind, _, needs_out) in movies._RULES.items()}
