"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_targets --seed 1 --seconds 40 --trace 0

Run from the repository root.  Generates the workload's inputs from the
seed under ``.perfbench_work/``, times set-up in fresh interpreters, runs
the closed loop in a child process (see ``loop.py``), checks every output
and prints the metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``correct`` is false when any op outside the deep chain ends other than
``ok``: a wrong answer, an unexpected exit code, the work cap or an
exception out of ``cli.main``.  The deep chain fails today and stays in the
``search`` mix; there only a wrong answer makes ``correct`` false.
``failed`` counts every op that did not end ``ok``; outcomes are printed by
name.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench import inputs  # noqa: E402
from perfbench.loop import check  # noqa: E402

MIN_OPS = 100        # at least ten latency samples beyond p90
SETUP_REPEATS = 3    # fresh interpreters before and again after the loop
DEADLINE_S = 170     # a run ends within this, whatever the program does

# A fresh interpreter as a user's `xmod ...` starts: import, one command, exit.
_FRESH = ("import sys; sys.path.insert(0, sys.argv[1]); import xmod; "
          "from xmod.cli import main; sys.exit(main(sys.argv[2:]))")

# name: (unit, spans summed, what is summed: self time, calls or notes)
LAYER_METRICS = {
    "cli.self_ms": ("ms/op", ("cli",), "self"),
    "movies.parse_ms": ("ms/op", ("movies.parse",), "self"),
    "movies.replay_ms": ("ms/op", ("movies.replay",), "self"),
    "movies.events": ("count/op", ("movies.replay",), "note"),
    "presentations.parse_ms": ("ms/op", ("presentations.parse",), "self"),
    "presentations.validate_ms": ("ms/op", ("presentations.validate",), "self"),
    "presentations.validate_calls": ("count/op", ("presentations.validate",), "calls"),
    "presentations.format_ms": ("ms/op", ("presentations.format",), "self"),
    "crossed.parse_ms": ("ms/op", ("crossed.parse",), "self"),
    "crossed.validate_ms": ("ms/op", ("crossed.validate",), "self"),
    "crossed.validate_calls": ("count/op", ("crossed.validate",), "calls"),
    "crossed.axiom_checks": ("count/op", ("crossed.validate",), "note"),
    "groups.axioms_ms": ("ms/op", ("groups.axioms",), "self"),
    "counting.select_ms": ("ms/op", ("counting.select",), "self"),
    "counting.backtracking_ms": ("ms/op", ("counting.backtracking",), "self"),
    "counting.linear_ms": ("ms/op", ("counting.linear",), "self"),
    "counting.phi_space": ("count/op", ("counting.backtracking", "counting.linear"), "note"),
}


# Input classes that may fail without an answer today (see inputs.search).
EXPECTED_FAILING = {"deep_chain"}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _child_env() -> dict:
    # The work cap comes from the CLI default, not from the caller's shell.
    return {k: v for k, v in os.environ.items() if k != "XMOD_WORK_CAP"}


def _timeout(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time before the run finished")
    return left


def measure_setup(op: dict, started: float) -> tuple[list, list]:
    """Wall times of fresh interpreters running ``op``, and their outcomes."""
    times, outcomes = [], []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _FRESH, str(SRC), *op["argv"]],
                              capture_output=True, text=True, env=_child_env(),
                              timeout=_timeout(started))
        times.append(time.perf_counter() - begin)
        outcomes.append(check(op, proc.returncode, proc.stdout))
    return times, outcomes


def run_loop(ops_path: Path, seconds: int, trace: bool, started: float) -> dict:
    out = ops_path.with_name(f"loop{int(trace)}.json")
    cmd = [sys.executable, str(ROOT / "perfbench" / "loop.py"), str(SRC), str(ops_path),
           str(seconds), str(MIN_OPS), str(int(trace)), str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          timeout=_timeout(started))
    if proc.returncode != 0:
        raise BenchError(f"closed loop exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(out.read_text(encoding="utf-8"))


def verdict(by_class: dict) -> bool:
    """Whether every output is correct: ``by_class`` maps "class outcome" to counts."""
    for key in by_class:
        input_class, outcome = key.split(" ", 1)
        if input_class in EXPECTED_FAILING:
            if outcome == "wrong_output":
                return False
        elif outcome != "ok":
            return False
    return True


def end_to_end(loop: dict, setup_times: list) -> dict:
    """name -> (value, unit, samples)."""
    lat_ms = [s * 1000 for s in loop["latencies_s"]]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    n = len(lat_ms)
    return {
        "ops_per_s": (n / loop["elapsed_s"], "1/s", n),
        "op_p50_ms": (statistics.median(lat_ms), "ms", n),
        "op_p90_ms": (deciles[8], "ms", n),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (loop["peak_rss_kb"] / 1024, "MB", 1),
    }


def per_layer(loop: dict, ops_per_pass: int) -> dict:
    """name -> (value per traced op, unit, traced ops)."""
    layers, ops = loop["layers"], ops_per_pass * len(loop["traced_passes_s"])
    out = {}
    for name, (unit, spans, field) in LAYER_METRICS.items():
        total = sum(layers.get(span, {}).get("self_s" if field == "self" else field, 0)
                    for span in spans)
        out[name] = (total * 1000 / ops if field == "self" else total / ops, unit, ops)
    select = layers.get("counting.select", {})
    out["counting.backtracking_share"] = (
        select.get("note", 0) / select["noted"] if select.get("noted") else 0.0, "ratio",
        select.get("noted", 0))
    # gap between the ops_per_s of untraced and traced passes, which alternate
    untraced_s = statistics.mean(loop["passes_s"])
    traced_s = statistics.mean(loop["traced_passes_s"])
    out["trace.overhead_pct"] = (100 * (1 - untraced_s / traced_s), "%",
                                 len(loop["passes_s"]) + len(loop["traced_passes_s"]))
    return out


def measure(workload: str, seed: int, seconds: int, *, timed: bool = True,
            traced: bool = False) -> dict:
    """Generate, run and check one workload.

    ``timed`` runs the untraced closed loop and set-up for the end-to-end
    metrics; ``traced`` runs the loop with alternating traced passes for the
    per-layer metrics.  Op outcomes come from the first loop that ran.
    """
    if not (SRC / "xmod" / "__init__.py").is_file():
        raise BenchError(f"no xmod package under {SRC}")
    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    setup_times, setup_outcomes, loops = [], [], []
    try:
        ops = inputs.build(workload, seed, workdir)
        ops_path = workdir / "ops.json"
        ops_path.write_text(json.dumps([asdict(op) for op in ops]), encoding="utf-8")
        if timed:
            # set-up is sampled on both sides of the loop, so that its median
            # spans the same stretch of host load as the loop
            setup = asdict(inputs.setup_op(workload, ops))
            setup_times, setup_outcomes = measure_setup(setup, started)
            loops.append(run_loop(ops_path, seconds, False, started))
            more_times, more_outcomes = measure_setup(setup, started)
            setup_times += more_times
            setup_outcomes += more_outcomes
        if traced:
            loops.append(run_loop(ops_path, seconds, True, started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's inputs
            workdir.parent.rmdir()
    first = loops[0]
    attempted = len(first["latencies_s"])
    # set-up runs are checked like ops, but not counted as attempted
    by_class = Counter(first["by_class"]) + Counter(f"setup {o}" for o in setup_outcomes)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "correct": verdict(by_class),
        "attempted": attempted, "failed": attempted - first["outcomes"].get("ok", 0),
        "by_class": dict(by_class),
        "end_to_end": end_to_end(first, setup_times) if timed else {},
        "per_layer": per_layer(loops[-1], len(ops)) if traced else {},
        "spans": loops[-1]["spans"] if traced else 0,
    }


def describe(result: dict) -> list:
    """Human-readable lines: every metric with unit and sample count, outcomes."""
    lines = [f"workload {result['workload']} seed {result['seed']} "
             f"seconds {result['seconds']} python {sys.version.split()[0]} "
             f"cores {os.cpu_count()}"]
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  failed_ratio {ratio:.6f} ({result['failed']} of "
                 f"{result['attempted']} ops)")
    for section in ("end_to_end", "per_layer"):
        for name, (value, unit, samples) in result[section].items():
            lines.append(f"  {name} {value:.6g} {unit} (n={samples})")
    if result["spans"]:
        lines.append(f"  spans kept {result['spans']}")
    for key, count in sorted(result["by_class"].items()):
        lines.append(f"  outcome {key} {count}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         timed=not args.trace, traced=bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ImportError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(describe(result)))
    section = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in section.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
