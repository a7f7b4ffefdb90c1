"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import os
import sys
import types
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs, oracle  # noqa: E402
from perfbench.loop import WRAPPED, Tracer, TraceError, closed_loop, run_op  # noqa: E402
from perfbench.run import verdict  # noqa: E402
from xmod import cli  # noqa: E402
from xmod.battery import standard_battery  # noqa: E402
from xmod.crossed import parse_crossed_module_text, validate_crossed_module  # noqa: E402
from xmod.fixtures import fixture_text  # noqa: E402
from xmod.movies import compile_movie, parse_movie_script  # noqa: E402


@pytest.fixture(scope="module", params=inputs.WORKLOADS)
def built(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(request.param)
    return request.param, workdir, inputs.build(request.param, 7, workdir)


def _files(workdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_same_seed_gives_identical_inputs(built, tmp_path):
    workload, workdir, ops = built
    again = inputs.build(workload, 7, tmp_path)
    assert _files(tmp_path) == _files(workdir)
    assert [op.argv[0] for op in again] == [op.argv[0] for op in ops]


def test_seed_changes_random_inputs(tmp_path):
    inputs.build("search", 1, tmp_path / "a")
    inputs.build("search", 2, tmp_path / "b")
    assert _files(tmp_path / "a")["random0.pres"] != _files(tmp_path / "b")["random0.pres"]


def test_generated_modules_are_valid_except_corrupted(built):
    _, workdir, _ = built
    for path in workdir.glob("*.xmod"):
        report = validate_crossed_module(parse_crossed_module_text(path.read_text()))
        assert report.ok != path.name.startswith("corrupt_"), path.name


def test_generated_movies_compile(built):
    _, workdir, _ = built
    for path in workdir.glob("*.movie"):
        compile_movie(parse_movie_script(path.read_text(), name=path.name))


def test_mix_has_ops_and_setup_op(built):
    workload, _, ops = built
    assert len(ops) >= 10
    assert inputs.setup_op(workload, ops) in ops


def test_deep_chain_is_attempted_and_counted_failed(tmp_path):
    ops = [asdict(op) for op in inputs.build("search", 3, tmp_path)]
    chain = [op for op in ops if op["input_class"] == "deep_chain"]
    other = next(op for op in ops if op["input_class"] != "deep_chain")
    assert len(chain) == 1
    affinity = os.sched_getaffinity(0)
    result = closed_loop(cli.main, chain + [other], 0, 2)
    assert os.sched_getaffinity(0) == affinity
    assert len(result["latencies_s"]) == 2
    outcomes = {k: v for k, v in result["by_class"].items() if k.startswith("deep_chain ")}
    assert sum(outcomes.values()) == 1
    assert "deep_chain ok" not in outcomes  # fails today; the fix will show here
    assert result["outcomes"].get("ok") == 1
    assert verdict(result["by_class"])


def test_failing_op_outside_deep_chain_is_incorrect(tmp_path):
    ops = [asdict(op) for op in inputs.build("search", 3, tmp_path)]
    other = next(op for op in ops if op["input_class"] != "deep_chain")

    def raising(argv):
        raise IndexError("engine bug")
    result = closed_loop(raising, [other], 0, 2)
    assert result["outcomes"] == {"error:IndexError": 2}
    assert not verdict(result["by_class"])
    assert not verdict({f"{other['input_class']} cap": 1})
    assert not verdict({"deep_chain wrong_output": 1})
    assert not verdict({"setup exit_1": 1})


def test_tracer_fails_on_missing_attribute_or_count():
    package = types.SimpleNamespace(**{m: types.SimpleNamespace() for m, *_ in WRAPPED})
    for module, attr, _, _ in WRAPPED:
        setattr(getattr(package, module), attr, lambda *a: None)
    assert len(Tracer().patches(package)) == len(WRAPPED)
    del package.counting.select_method
    with pytest.raises(TraceError):
        Tracer().patches(package)
    tracer = Tracer()
    events = next(note for _, _, span, note in WRAPPED if span == "movies.replay")
    traced = tracer.wrap("movies.replay", lambda movie: None, events)
    traced(object())
    assert tracer.errors and "movies.replay" in tracer.errors[0]


def test_wrong_output_and_exit_code_are_failures(tmp_path):
    op = next(asdict(o) for o in inputs.build("cli_targets", 1, tmp_path)
              if o.input_class == "validate_corrupted")
    assert run_op(cli.main, op)[0] == "ok"
    assert run_op(cli.main, {**op, "stdout": "ok\n"})[0] == "wrong_output"
    assert run_op(cli.main, {**op, "exit_code": 0})[0] == "exit_1"


@pytest.mark.parametrize("fixture, module, value", [
    ("spun_hopf", "ga_z2_p2", Fraction(40)),
    ("two_tori", "ga_z2_p2", Fraction(64)),
    ("spun_trefoil", "ga_z3_p2", Fraction(9, 8)),
    ("trivial1", "ga_z3_p2", Fraction(3, 8)),
    ("trivial3", "conj_s3", Fraction(1)),
])
def test_reference_count_matches_closed_forms(fixture, module, value):
    cm = dict(standard_battery())[module]
    m = oracle.Module(cm.base.product, cm.fiber.product, cm.boundary, cm.action)
    pres, births = oracle.replay(fixture_text(fixture))
    assert oracle.invariant(oracle.count_homs(pres, m), m, births) == value


def test_reference_targets_satisfy_reference_axioms():
    for m in inputs.search_targets().values():
        assert oracle.violation_lines(m) == []
