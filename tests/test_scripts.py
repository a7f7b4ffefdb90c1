"""Smoke tests of the scripts under ``scripts/``, imported as modules."""
from __future__ import annotations

import pytest

import fuzz_oracles
import knottedness_report


def test_fuzz_oracles_finds_no_mismatch(capsys):
    assert fuzz_oracles.main(["--count", "25"]) == 0
    assert "25 instances, 0 mismatches" in capsys.readouterr().out


def test_fuzz_oracles_has_no_verbose_option(capsys):
    with pytest.raises(SystemExit) as exit_info:
        fuzz_oracles.main(["--verbose"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


def test_knottedness_report_separates_the_knotted_fixtures(capsys):
    assert knottedness_report.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "spun_hopf: separated from two_tori by ga_z2_p2, ga_z3_p2" in lines
    assert "spun_trefoil: separated from trivial1 by ga_z3_p2" in lines


def test_fuzz_oracles_exits_1_on_a_mismatch(monkeypatch, capsys):
    # One wrong naive count per instance: 256 mismatches, a count that as an
    # exit status would read as success.
    naive = fuzz_oracles.count_homomorphisms_naive
    monkeypatch.setattr(fuzz_oracles, "count_homomorphisms_naive",
                        lambda pres, cm: naive(pres, cm) + 1)
    assert fuzz_oracles.main(["--count", "256"]) == 1
    out = capsys.readouterr().out
    assert "256 instances, 256 mismatches" in out
    assert out.count("MISMATCH at instance") == 256


@pytest.mark.parametrize("main, option", [
    (fuzz_oracles.main, "--seed"),
    (fuzz_oracles.main, "--count"),
    (knottedness_report.main, "--work-cap"),
], ids=["fuzz-seed", "fuzz-count", "report-work-cap"])
def test_integer_options_follow_the_token_rule(main, option, capsys):
    for token in ("1_0", "\u0663"):
        with pytest.raises(SystemExit) as exit_info:
            main([option, token])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {option}: bad integer {token!r}" in err


def test_integer_options_take_signs_and_leading_zeros(capsys):
    assert fuzz_oracles.main(["--count", "007", "--seed", "+5"]) == 0
    assert "7 instances, 0 mismatches, " in capsys.readouterr().out
    assert knottedness_report.main(["--work-cap", "+0100000000", "--fixtures",
                                    "trivial1"]) == 0


@pytest.mark.parametrize("main, argv, message", [
    (knottedness_report.main, ["--fixtures", ""], "argument --fixtures: lists no fixture"),
    (knottedness_report.main, ["--fixtures", ","], "argument --fixtures: lists no fixture"),
    (knottedness_report.main, ["--fixtures", "trivial1,mystery"],
     "argument --fixtures: unknown fixtures: mystery"),
    (knottedness_report.main, ["--work-cap", "0"], "argument --work-cap: must be positive, got 0"),
    (knottedness_report.main, ["--work-cap", "-5"],
     "argument --work-cap: must be positive, got -5"),
    (fuzz_oracles.main, ["--count", "-5"], "argument --count: must not be negative, got -5"),
], ids=["report-empty-fixtures", "report-comma-fixtures", "report-unknown-fixture",
        "report-cap-0", "report-cap-negative", "fuzz-negative-count"])
def test_bad_option_values_are_usage_errors(main, argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: {message}\n")


def test_fuzz_oracles_takes_a_zero_count(capsys):
    assert fuzz_oracles.main(["--count", "0"]) == 0
    assert "0 instances, 0 mismatches" in capsys.readouterr().out


@pytest.mark.parametrize("cap", ["1", "5"])
def test_knottedness_report_stopped_by_the_cap_exits_3(cap, capsys):
    assert knottedness_report.main(["--work-cap", cap]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: work cap of {cap} elementary steps exceeded\n"
