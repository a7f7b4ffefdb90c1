from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

import xmod
from xmod import cli, counting, fuzz, movies
from xmod.battery import standard_battery
from xmod.cli import main
from xmod.crossed import (
    FiniteCrossedModule,
    build_group_algebra_crossed_module,
    format_crossed_module_text,
)
from xmod.fixtures import fixture_text
from xmod.fuzz import inversion_module, sign_module
from xmod.groups import build_cyclic_group
from xmod.presentations import format_presentation_text, stabilize
from xmod.words import MAX_EXPONENT


@pytest.fixture(scope="session")
def cli_files(tmp_path_factory, deep_chain, padded_chain):
    """Battery modules, fixture movies, and a small presentation on disk."""
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, cm in standard_battery():
        path = root / f"{name}.xmod"
        path.write_text(format_crossed_module_text(cm), encoding="utf-8")
        paths[name] = str(path)
    for name in ("trivial1", "spun_hopf", "spun_trefoil"):
        path = root / f"{name}.movie"
        path.write_text(fixture_text(name), encoding="utf-8")
        paths[name] = str(path)

    broken = standard_battery()[1][1]
    action = [list(row) for row in broken.action]
    action[1][1] = (action[1][1] + 1) % broken.fiber.order
    corrupt = FiniteCrossedModule(
        broken.base, broken.fiber, broken.boundary,
        tuple(tuple(row) for row in action),
    )
    path = root / "corrupt.xmod"
    path.write_text(format_crossed_module_text(corrupt), encoding="utf-8")
    paths["corrupt"] = str(path)

    path = root / "sphere.pres"
    path.write_text("pres v1\ngens X\ncells e\nbnd e = X\n", encoding="utf-8")
    paths["sphere.pres"] = str(path)

    for name, pres in (("deep_chain", deep_chain), ("padded_chain", padded_chain)):
        path = root / f"{name}.pres"
        path.write_text(format_presentation_text(pres), encoding="utf-8")
        paths[f"{name}.pres"] = str(path)

    for name, cm in (("inv_z2_z4", inversion_module(4)), ("sign_s3_z3", sign_module())):
        path = root / f"{name}.xmod"
        path.write_text(format_crossed_module_text(cm), encoding="utf-8")
        paths[name] = str(path)

    path = root / "bad.pres"
    path.write_text("pres v1\ngens X\ncells e\nbnd e = Q\n", encoding="utf-8")
    paths["bad.pres"] = str(path)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(cli_files, capsys):
    code, out, err = run_cli(capsys, "validate", cli_files["conj_s3"])
    assert code == 0
    assert out == "ok\n"
    assert err == ""


def test_validate_violation(cli_files, capsys):
    code, out, _ = run_cli(capsys, "validate", cli_files["corrupt"])
    assert code == 1
    lines = out.splitlines()
    assert lines and all(line.startswith("violation ") for line in lines)
    # Witness indices are spelled out after the axiom name.
    assert any(len(line.split()) >= 3 for line in lines)


def test_validate_parse_error(cli_files, tmp_path, capsys):
    path = tmp_path / "garbage.xmod"
    path.write_text("xmod v1\nbase 2\n0 1\n1 zebra\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "line 4" in err


def test_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/file.xmod")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["validate", "compile", "invariant"])
def test_non_utf8_file_exit_2(command, cli_files, tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"xmod v1\nbase 1\n0 \xff\n")
    argv = [command, str(path)]
    if command == "invariant":
        argv.append(cli_files["conj_s3"])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: not UTF-8 at byte 17\n"


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_golden(cli_files, capsys, tmp_path):
    path = tmp_path / "tube.movie"
    path.write_text(
        "birth X\nbirth Y\n"
        "saddle cell=e u=X^-1 v=Y^-1 band=b merged=c1,c2\n"
        "death circle=c1,c2 spanner=[]\nend\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "compile", str(path))
    assert code == 0
    assert out == (
        "pres v1\n"
        "gens X Y\n"
        "cells e\n"
        "bnd e = X^-1 Y\n"
        "one_handles 2\n"
    )
    assert err == ""


def test_compile_replay_error_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.movie"
    for text, message in (
        ("birth X\nbirth X\nend\n", "event 1 (line 2): generator 'X' already exists"),
        ("birth X\nsaddle cell=e u=X v=X band=b merged=c1,c2\nbirth e\nend\n",
         "event 2 (line 3): generator 'e' collides with a cell"),
    ):
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "compile", str(path))
        assert code == 1
        assert message in err


def test_compile_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "noend.movie"
    path.write_text("birth X\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "compile", str(path))
    assert code == 2
    assert "missing 'end'" in err


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------


def report_lines(out: str) -> list[str]:
    lines = out.splitlines()
    assert lines[-1].startswith("elapsed_ms ")
    return lines[:-1]


def test_invariant_spun_hopf(cli_files, capsys):
    code, out, _ = run_cli(
        capsys, "invariant", cli_files["spun_hopf"], cli_files["ga_z2_p2"]
    )
    assert code == 0
    assert report_lines(out) == [
        "count 640",
        "one_handles 2",
        "invariant 40/1",
        "method linear",
    ]


def test_count_is_not_a_command(cli_files, capsys):
    code, out, err = run_cli(
        capsys, "count", cli_files["spun_trefoil"], cli_files["ga_z3_p2"]
    )
    assert code == 2 and out == ""
    assert "invalid choice: 'count'" in err


def test_invariant_on_presentation_file(cli_files, capsys):
    code, out, _ = run_cli(
        capsys, "invariant", cli_files["sphere.pres"], cli_files["conj_s3"]
    )
    assert code == 0
    # one_handles of a pres file is its generator count.
    assert report_lines(out) == [
        "count 6",
        "one_handles 1",
        "invariant 1/1",
        "method backtracking",
    ]


def test_one_handles_is_not_an_option(cli_files, capsys):
    # The 1-handle count is read off the presentation; no flag changes it.
    code, out, err = run_cli(
        capsys,
        "invariant", cli_files["sphere.pres"], cli_files["conj_s3"],
        "--one-handles", "3",
    )
    assert (code, out, err) == (2, "", "error: unrecognized arguments: --one-handles 3\n")


def read_decimal(digits: str) -> int:
    """The value of a decimal string, read in chunks: int() refuses more than
    sys.get_int_max_str_digits() digits at once."""
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_invariant_prints_values_of_any_size(cli_files, capsys, tmp_path):
    # 5000 free cells against a fiber of order 8: the count is 8**5000, 4516
    # digits, more than str() converts by default.
    cells = [f"c{i}" for i in range(5000)]
    path = tmp_path / "free_cells.pres"
    path.write_text(
        "pres v1\ngens\ncells " + " ".join(cells) + "\n"
        + "".join(f"bnd {c} = 1\n" for c in cells),
        encoding="utf-8",
    )
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "invariant", str(path), cli_files["ga_z3_p2"])
    assert code == 0 and err == ""
    count, one_handles, value, method = report_lines(out)
    assert read_decimal(count.removeprefix("count ")) == 8**5000
    assert len(count) == len("count ") + 4516
    assert (one_handles, method) == ("one_handles 0", "method linear")
    assert value.startswith("invariant ") and value.endswith("/1")
    assert read_decimal(value[len("invariant "):-2]) == 8**5000
    # main leaves the interpreter's conversion limit as it found it.
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_default_one_handles_is_bounded(tmp_path, capsys):
    # A pres file's one_handles is its generator count, at most MAX_ONE_HANDLES.
    z2 = tmp_path / "z2.xmod"
    z2.write_text(format_crossed_module_text(FiniteCrossedModule(
        build_cyclic_group(1), build_cyclic_group(2), (0, 0), ((0, 1),),
    )), encoding="utf-8")

    def wide(gens):
        path = tmp_path / f"wide{gens}.pres"
        path.write_text("pres v1\ngens " + " ".join(f"X{i}" for i in range(gens))
                        + "\ncells\n", encoding="utf-8")
        return str(path)

    code, out, err = run_cli(capsys, "invariant", wide(cli.MAX_ONE_HANDLES), str(z2))
    assert code == 0 and err == ""
    count, one_handles, value, method = report_lines(out)
    assert (count, one_handles, method) == (
        "count 1", f"one_handles {cli.MAX_ONE_HANDLES}", "method linear")
    assert value.startswith("invariant 1/")
    assert read_decimal(value[len("invariant 1/"):]) == 2**cli.MAX_ONE_HANDLES

    gens = cli.MAX_ONE_HANDLES + 1
    pres = wide(gens)
    code, out, err = run_cli(capsys, "invariant", pres, str(z2))
    assert code == 2 and out == ""
    assert err == (f"error: {pres} has {gens} one-handles, more than "
                   f"{cli.MAX_ONE_HANDLES}\n")


# Integer options follow the token rule of the text formats: an optional
# sign and ASCII digits.
BAD_INTEGERS = ["1_0", "\u0663", "5 ", "0x10", ""]


def assert_refused(result, name, token):
    code, out, err = result
    assert code == 2 and out == "", token
    assert err == f"error: bad {name} {token!r}\n"


# sign_s3_z3 has a nonabelian base and K nontrivial, so the sphere's count
# visits the 3 conjugation classes of S3, more than 5 steps.
def test_work_cap_flag_token_rule(cli_files, capsys):
    argv = ["invariant", cli_files["sphere.pres"], cli_files["sign_s3_z3"], "--work-cap"]
    for token in BAD_INTEGERS:
        assert_refused(run_cli(capsys, *argv, token), "--work-cap", token)
    for accepted in ("+5000", "0005000"):
        code, out, _ = run_cli(capsys, *argv, accepted)
        assert code == 0 and report_lines(out)[0] == "count 3"
    assert run_cli(capsys, *argv, "+5")[0] == 3


def test_seed_flag_token_rule(capsys):
    # selftest runs at its fixed seed and takes no --seed, whatever the token.
    for token in [*BAD_INTEGERS, "+5", "007"]:
        code, out, err = run_cli(capsys, "selftest", "--seed", token)
        assert code == 2 and out == "", token
        assert err.startswith("error: unrecognized arguments: --seed")
        assert err.count("\n") == 1


def test_invariant_exponent_bound(cli_files, capsys, tmp_path):
    path = tmp_path / "power.pres"
    path.write_text(f"pres v1\ngens X\ncells e\nbnd e = X^{MAX_EXPONENT}\n",
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "invariant", str(path), cli_files["conj_s3"])
    assert code == 0
    assert report_lines(out)[0] == "count 6"

    token = f"X^{MAX_EXPONENT + 1}"
    path.write_text(f"pres v1\ngens X\ncells e\nbnd e = {token}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "invariant", str(path), cli_files["conj_s3"])
    assert code == 2 and out == ""
    assert err == (f"error: line 4: [bnd] exponent in token {token!r} exceeds "
                   f"{MAX_EXPONENT} in absolute value\n")


def test_invariant_invalid_presentation_exit_1(cli_files, capsys):
    code, _, err = run_cli(
        capsys, "invariant", cli_files["bad.pres"], cli_files["conj_s3"]
    )
    assert code == 1
    assert "violates" in err


@pytest.mark.parametrize("head", [
    "# a comment first\n", "\n  \n\t\n", "pres v1  # a note\n",
], ids=["comment_first", "blank_first", "noted_header"])
def test_invariant_reads_a_pres_file_by_its_first_content_line(head, cli_files, tmp_path,
                                                               capsys):
    # A target is a presentation iff its first content line is "pres v1",
    # whatever comments and blank lines come before it or after the header.
    text = Path(cli_files["sphere.pres"]).read_text(encoding="utf-8")
    if head.startswith("pres v1"):
        text = text.replace("pres v1\n", head, 1)
    else:
        text = head + text
    path = tmp_path / "target.txt"
    path.write_text(text, encoding="utf-8")
    expected = run_cli(capsys, "invariant", cli_files["sphere.pres"], cli_files["conj_s3"])
    code, out, err = run_cli(capsys, "invariant", str(path), cli_files["conj_s3"])
    assert (code, err) == (0, "")
    assert report_lines(out) == report_lines(expected[1])


def test_invariant_reads_any_other_target_as_a_movie(cli_files, tmp_path, capsys):
    # "pres v1" in a comment does not make a movie a presentation.
    path = tmp_path / "target.txt"
    path.write_text("# pres v1\n" + fixture_text("spun_trefoil"), encoding="utf-8")
    expected = run_cli(capsys, "invariant", cli_files["spun_trefoil"], cli_files["conj_s3"])
    code, out, err = run_cli(capsys, "invariant", str(path), cli_files["conj_s3"])
    assert (code, err) == (0, "")
    assert report_lines(out) == report_lines(expected[1])


def test_linear_method_unavailable_exit_2(cli_files, capsys):
    # The module picks the engine; there is no option to ask for one.
    code, out, err = run_cli(
        capsys,
        "invariant", cli_files["spun_hopf"], cli_files["ga_z2_p2"],
        "--method", "linear",
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --method linear" in err


def test_work_cap_flag_exit_3(cli_files, capsys):
    # conj_s3 is not a linear target, so this run takes the closed form for
    # an injective boundary.  The count takes 15 steps in all
    # (test_exact_step_counts), 12 of them the coset set-up of phi_classes,
    # so a cap of 14 stops it in the count itself.
    argv = ["invariant", cli_files["spun_hopf"], cli_files["conj_s3"], "--work-cap"]
    code, out, err = run_cli(capsys, *argv, "14")
    assert code == 3 and out == ""
    assert err == "error: work cap of 14 elementary steps exceeded\n"
    code, out, err = run_cli(capsys, *argv, "15")
    assert (code, err) == (0, "")
    assert report_lines(out) == [
        "count 36", "one_handles 2", "invariant 1/1", "method backtracking",
    ]


@pytest.mark.parametrize("module", ["ga_z2_p2", "inv_z2_z4"])
def test_work_cap_exit_3_on_linear_target(module, cli_files, capsys):
    code, out, err = run_cli(
        capsys, "invariant", cli_files["spun_hopf"], cli_files[module], "--work-cap", "20"
    )
    assert (code, out) == (3, "")
    assert err == "error: work cap of 20 elementary steps exceeded\n"


@pytest.mark.parametrize("module, count, value, method", [
    ("conj_s3", 6, "1/1", "backtracking"), ("inv_z2_z4", 8, "2/1", "linear"),
])
def test_invariant_deep_chain(module, count, value, method, cli_files, capsys):
    # The padded chain keeps 1200 cells, each relation one cell deeper: an
    # answer, not a RecursionError, from either engine.  The chain cancels
    # to one cell and has the same answer.
    for name in ("deep_chain.pres", "padded_chain.pres"):
        code, out, err = run_cli(capsys, "invariant", cli_files[name], cli_files[module])
        assert (code, err) == (0, ""), name
        assert report_lines(out) == [
            f"count {count}", "one_handles 1", f"invariant {value}", f"method {method}",
        ], name


def test_validate_work_cap_exit_3(cli_files, tmp_path, capsys):
    # A corrupted module is listed exhaustively, one step per tuple visited
    # (about 6 * 10**5 here), under the same cap as counting.
    cm = build_group_algebra_crossed_module(build_cyclic_group(4), 3)
    action = [list(row) for row in cm.action]
    action[1][1] = action[1][2]
    path = tmp_path / "corrupt_ga_z4_p3.xmod"
    path.write_text(format_crossed_module_text(FiniteCrossedModule(
        cm.base, cm.fiber, cm.boundary, tuple(map(tuple, action)))), encoding="utf-8")
    message = "error: work cap of 1000 elementary steps exceeded\n"
    assert run_cli(capsys, "validate", str(path), "--work-cap", "1000") == (3, "", message)
    code, out, _ = run_cli(capsys, "validate", str(path), "--work-cap", "1000000")
    assert code == 1 and out.startswith("violation action.composition 1 1 1\n")
    # A valid module is settled on generators and spends no steps.
    assert run_cli(capsys, "validate", cli_files["ga_z3_p2"], "--work-cap", "1") == (0, "ok\n", "")


def test_invariant_refuses_an_invalid_module_at_its_first_witness(cli_files, tmp_path,
                                                                   capsys):
    # Two entries of one action row swapped: validate lists 484 witnesses,
    # while invariant names the first axiom with one witness of it, found
    # on generating sets, so the listing's cost does not meet the cap.
    cm = build_group_algebra_crossed_module(build_cyclic_group(4), 3)
    action = [list(row) for row in cm.action]
    action[1][1], action[1][2] = action[1][2], action[1][1]
    path = tmp_path / "swapped_ga_z4_p3.xmod"
    path.write_text(format_crossed_module_text(FiniteCrossedModule(
        cm.base, cm.fiber, cm.boundary, tuple(map(tuple, action)))), encoding="utf-8")
    code, listing, _ = run_cli(capsys, "validate", str(path))
    lines = listing.splitlines()
    assert code == 1 and len(lines) == 484
    code, out, err = run_cli(capsys, "invariant", cli_files["sphere.pres"], str(path),
                             "--work-cap", "1000")
    assert (code, out) == (1, "")
    match = re.fullmatch(rf"error: crossed module in {re.escape(str(path))} "
                         r"violates (\S+) at witness \(([\d, ]+)\)\n", err)
    assert match, err
    axiom, witness = match[1], match[2].replace(",", "")
    assert axiom == lines[0].split()[1]
    assert f"violation {axiom} {witness}" in lines


def test_work_cap_env(cli_files, capsys, monkeypatch):
    # The environment sets no budget: a cap of 10 stops this run when it is
    # given as the flag, and is not read from XMOD_WORK_CAP.
    argv = ["invariant", cli_files["spun_hopf"], cli_files["conj_s3"]]
    for value in ("1", "10"):
        monkeypatch.setenv("XMOD_WORK_CAP", value)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), value
        assert report_lines(out) == [
            "count 36", "one_handles 2", "invariant 1/1", "method backtracking",
        ]
    assert run_cli(capsys, *argv, "--work-cap", "10")[0] == 3


def test_work_cap_env_must_be_numeric(cli_files, capsys, monkeypatch):
    # XMOD_WORK_CAP is not read, so a value that is no number is not refused.
    monkeypatch.setenv("XMOD_WORK_CAP", "plenty")
    code, out, err = run_cli(
        capsys, "invariant", cli_files["spun_hopf"], cli_files["ga_z2_p2"]
    )
    assert (code, err) == (0, "")
    assert "XMOD_WORK_CAP" not in out
    assert report_lines(out)[0].startswith("count ")


def test_work_cap_env_token_rule(cli_files, capsys, monkeypatch):
    # No token in XMOD_WORK_CAP, malformed or a cap that would stop the
    # run, changes the answer.
    argv = ["invariant", cli_files["sphere.pres"], cli_files["sign_s3_z3"]]
    for token in [*BAD_INTEGERS, "+5", "007000"]:
        monkeypatch.setenv("XMOD_WORK_CAP", token)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), token
        assert report_lines(out)[0] == "count 3"


@pytest.mark.parametrize("command", ["invariant", "examples", "selftest", "validate"])
def test_work_cap_flag_must_be_positive(command, cli_files, capsys):
    targets = {"invariant": [cli_files["spun_hopf"], cli_files["ga_z2_p2"]],
               "validate": [cli_files["ga_z2_p2"]]}.get(command)
    if targets is None:
        # examples and selftest do fixed work and take no --work-cap at all.
        code, out, err = run_cli(capsys, command, "--work-cap", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: unrecognized arguments: --work-cap")
        assert err.count("\n") == 1
        return
    argv = [command, *targets, "--work-cap", "0"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --work-cap must be positive\n"


@pytest.mark.parametrize("command, target, calls", [
    pytest.param("invariant", "sphere.pres", 1, id="sphere.pres-1"),
    pytest.param("invariant", "spun_hopf", 1, id="spun_hopf-1"),
    pytest.param("compile", "spun_hopf", 0, id="compile-spun_hopf-0"),
])
def test_invariant_validation_count(command, target, calls, cli_files, capsys,
                                    monkeypatch):
    # A presentation is validated once, where it is counted, whether it comes
    # from a pres file or a movie.  Replay checks what it builds, so compile
    # validates nothing.
    seen = []
    original = counting.validate_presentation

    def counted(pres):
        seen.append(pres)
        return original(pres)

    for module in (cli, counting, movies):
        monkeypatch.setattr(module, "validate_presentation", counted)
    modules = [cli_files["ga_z2_p2"]] if command == "invariant" else []
    code, _, _ = run_cli(capsys, command, cli_files[target], *modules)
    assert code == 0
    assert len(seen) == calls


# ---------------------------------------------------------------------------
# examples / selftest
# ---------------------------------------------------------------------------


def test_examples_subset_golden(capsys):
    code, out, _ = run_cli(capsys, "examples", "trivial1")
    assert code == 0
    assert out == (
        "fixture module invariant\n"
        "trivial1 conj_s3 1/1\n"
        "trivial1 ga_z2_p2 1/2\n"
        "trivial1 ga_z3_p2 3/8\n"
    )


def test_examples_rejects_unknown_fixture(capsys):
    # "all" is no alias: passing no names runs every fixture.
    for name in ("mystery", "all"):
        code, out, err = run_cli(capsys, "examples", name)
        assert code == 2 and out == ""
        assert err.startswith(f"error: unknown fixture {name!r}") and err.count("\n") == 1


def test_examples_full_battery(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fixture module invariant"
    assert len(lines) == 1 + 8 * 3
    assert "spun_hopf ga_z2_p2 40/1" in lines
    assert "two_tori ga_z2_p2 64/1" in lines
    assert "spun_trefoil ga_z3_p2 9/8" in lines


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("ok ") for line in lines)


def test_selftest_checks_that_compiled_fixtures_round_trip(capsys, monkeypatch):
    def drop_last_line(pres):
        return "".join(format_presentation_text(pres).splitlines(True)[:-1])

    monkeypatch.setattr(cli, "format_presentation_text", drop_last_line)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL compile spun_hopf" in out.splitlines()


def test_selftest_checks_the_cancelling_pair(capsys, monkeypatch):
    # selftest shares the fuzz script's check, the moved count included:
    # a "cancelling pair" that stabilizes instead multiplies some count
    # by |E|.
    monkeypatch.setattr(fuzz, "add_cancelling_pair", lambda pres, cell: stabilize(pres))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL counting oracles agree"


def test_selftest_stops_at_the_work_cap(capsys):
    # selftest runs under the library's default caps and takes no
    # --work-cap: the flag is refused before any check runs.
    code, out, err = run_cli(capsys, "selftest", "--work-cap", "50")
    assert code == 2 and out == ""
    assert err.startswith("error: unrecognized arguments: --work-cap")
    assert err.count("\n") == 1


def test_usage_error_exit_2(capsys):
    # argparse's errors take the one-line path of every other failure.
    # examples and selftest do fixed work and take no options.
    for argv in ([], ["invariant"], ["count", "a", "b"],
                 ["invariant", "a", "b", "--method", "linear"],
                 ["validate", "m", "--work-cap"],
                 ["examples", "--work-cap", "5"], ["selftest", "--seed", "7"],
                 ["selftest", "--work-cap", "50"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_help_exits_0(capsys):
    for argv in (["--help"], ["validate", "--help"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: xmod")


def test_parser_is_built_once(cli_files, capsys, monkeypatch):
    # main reuses one parser: the top level and its five subparsers are
    # constructed on the first call only.
    built = []
    original = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    codes = []
    for _ in range(4):
        for argv in (
            ["validate", cli_files["ga_z2_p2"]],
            ["invariant", cli_files["sphere.pres"], cli_files["ga_z2_p2"]],
            ["compile", cli_files["trivial1"]],
            ["count", "a", "b"],
            ["--help"],
        ):
            codes.append(run_cli(capsys, *argv)[0])
    assert codes == [0, 0, 0, 2, 0] * 4
    assert len(built) == 6


def without_elapsed(result: tuple[int, str, str]) -> tuple[int, str, str]:
    code, out, err = result
    kept = [line for line in out.splitlines(True) if not line.startswith("elapsed_ms ")]
    return code, "".join(kept), err


def test_parser_reuse_leaks_no_state(cli_files, capsys):
    # Each command gives the same answer whatever ran before it in the
    # same process.
    argvs = [
        ["invariant", "a", "b", "--method", "linear"],
        ["validate", "--help"],
        ["validate", cli_files["corrupt"]],
        ["invariant", cli_files["spun_hopf"], cli_files["ga_z2_p2"]],
        ["invariant", cli_files["spun_hopf"], cli_files["ga_z2_p2"], "--work-cap", "0"],
    ]
    first = {tuple(argv): without_elapsed(run_cli(capsys, *argv)) for argv in argvs}
    second = {tuple(argv): without_elapsed(run_cli(capsys, *argv))
              for argv in argvs[3:] + argvs[:3]}
    assert first == second
    assert [first[tuple(argv)][0] for argv in argvs] == [2, 0, 1, 0, 2]


def test_module_entry_point(cli_files):
    result = subprocess.run(
        [sys.executable, "-m", "xmod", "examples", "trivial1"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert "trivial1 ga_z3_p2 3/8" in result.stdout


def test_benchmark_tracer_still_fits(cli_files, capsys, monkeypatch):
    # The per-layer benchmark wraps these functions by name and reads their
    # positional arguments; a renamed or re-signed layer must fail here.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.loop import WRAPPED, Tracer

    tracer = Tracer()
    patches = tracer.patches(xmod)
    assert len(patches) == len(WRAPPED)
    for module, attr, _, wrapped in patches:
        monkeypatch.setattr(module, attr, wrapped)
    for argv in (
        ["invariant", cli_files["spun_hopf"], cli_files["conj_s3"]],
        ["invariant", cli_files["sphere.pres"], cli_files["ga_z2_p2"]],
        ["compile", cli_files["trivial1"]],
    ):
        assert run_cli(capsys, *argv)[0] == 0
    assert tracer.errors == []
    assert {span[0] for span in tracer.spans} == {name for _, _, name, _ in WRAPPED}
