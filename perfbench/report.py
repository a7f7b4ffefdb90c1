"""Every metric of every workload, in one command.

    python3 perfbench/report.py --seed 1

For each workload, for ``run_seconds`` of BENCHMARK.json, this runs the untraced closed loop (end-to-end metrics and
set-up) and then the traced one (per-layer metrics and tracing overhead),
and prints each metric by name with its unit and sample count, the outcome
of every op class, and whether the layer predicted to dominate the workload
does.  The header records the Python version, core count, git commit and
seed.  Exits 1 if any output was wrong.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import ROOT, BenchError, describe, inputs, measure  # noqa: E402

# The layer metrics each workload was chosen to stress (see inputs.py).
PREDICTED = {"cli_targets": ("groups.axioms_ms", "crossed.validate_ms"),
             "search": ("counting.backtracking_ms",),
             "long_movies": ("movies.replay_ms",)}


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def predicted_split(workload: str, layers: dict) -> str:
    times = {k: v for k, (v, unit, _) in layers.items() if unit == "ms/op"}
    claimed = sum(times[k] for k in PREDICTED[workload])
    rival, rival_ms = max(((k, v) for k, v in times.items()
                           if k not in PREDICTED[workload]), key=lambda kv: kv[1])
    verdict = "holds" if claimed > rival_ms else "does not hold"
    return (f"  predicted split {verdict}: {' + '.join(PREDICTED[workload])} "
            f"{claimed:.3f} ms/op, next {rival} {rival_ms:.3f} ms/op")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    print(f"python {sys.version.split()[0]} cores {os.cpu_count()} "
          f"commit {git_commit()} seed {args.seed} seconds {seconds}")
    correct = True
    for workload in inputs.WORKLOADS:
        try:
            result = measure(workload, args.seed, seconds, traced=True)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: benchmark error: {exc}")
            return 2
        correct &= result["correct"]
        print("\n".join(describe(result)))
        print(predicted_split(workload, result["per_layer"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
