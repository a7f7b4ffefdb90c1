"""Closed-loop client: runs a workload's ops through ``xmod.cli.main``.

One client in one thread: the next command starts when the previous one
returns.  Every command runs in this process on files written beforehand,
its stdout is captured and checked against the pinned value, and its wall
time from the call into ``cli.main`` to the return is recorded.  Whole
passes over the mix run until both the time and the op floor are reached,
so every run executes the same mix in the same proportions; the duration of
each pass is kept, so throughput can be taken as a median over passes.

With trace set to 1, every other pass wraps the public functions of each
layer from here (``src/`` is not touched) and keeps every call as a span in
memory: name, start, end, parent span and op id.  Self times and work
counts per layer are summed when the run ends.

Usage: loop.py SRC OPS_JSON SECONDS MIN_OPS TRACE OUT_JSON
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import sys
import time
from collections import Counter
from pathlib import Path

_METHOD = re.compile(r"method \S+\Z")
_ELAPSED = re.compile(r"elapsed_ms \d+\Z")


def check(op: dict, code, stdout: str) -> str:
    """Outcome name of one op: ``ok``, ``wrong_output``, ``cap`` or ``exit_<n>``."""
    if code != op["exit_code"]:
        return "cap" if code == 3 else f"exit_{code}"
    if op.get("report") is not None:
        lines = stdout.splitlines()
        if (len(lines) == 5 and lines[:3] == list(op["report"])
                and _METHOD.match(lines[3]) and _ELAPSED.match(lines[4])):
            return "ok"
        return "wrong_output"
    return "ok" if stdout == op["stdout"] else "wrong_output"


def run_op(main, op: dict) -> tuple[str, float]:
    """Run one op; return its outcome and latency in seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(list(op["argv"]))
        except Exception as exc:  # an escaping exception is a failed op, by name
            return f"error:{type(exc).__name__}", time.perf_counter() - start
        elapsed = time.perf_counter() - start
    return check(op, code, out.getvalue()), elapsed


# --------------------------------------------------------------- tracing


def _events(args, result):
    return len(args[0].events)


def _axiom_checks(args, result):
    # Tuples the exhaustive check visits: associativity of both tables,
    # then the boundary, action, equivariance and conjugation loops.
    g, e = args[0].base.order, args[0].fiber.order
    return g**3 + e**3 + 2 * e * e + e + g * g * e + g * e * e + g * e


def _phi_space(args, result):
    return args[1].base.order ** len(args[0].generators)


def _chose_backtracking(args, result):
    return int(result == "backtracking")


# (module, attribute, span name, note): each attribute is the name a caller
# looks up at call time, so patching it wraps every call on the CLI path.
WRAPPED = (
    ("cli", "parse_movie_script", "movies.parse", None),
    ("cli", "compile_movie", "movies.replay", _events),
    ("cli", "parse_presentation_text", "presentations.parse", None),
    ("cli", "validate_presentation", "presentations.validate", None),
    ("movies", "validate_presentation", "presentations.validate", None),
    ("counting", "validate_presentation", "presentations.validate", None),
    ("cli", "format_presentation_text", "presentations.format", None),
    ("cli", "parse_crossed_module_text", "crossed.parse", None),
    ("cli", "validate_crossed_module", "crossed.validate", _axiom_checks),
    ("crossed", "group_violations", "groups.axioms", None),
    ("counting", "select_method", "counting.select", _chose_backtracking),
    ("counting", "count_homomorphisms", "counting.backtracking", _phi_space),
    ("counting", "count_linear_fastpath", "counting.linear", _phi_space),
)


class TraceError(Exception):
    """A wrapped function or its work count no longer fits the program."""


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op id, note].

    A work count that cannot be computed is kept in ``errors``; the traced
    run then fails instead of reporting the count as 0.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op_id = 0
        self.errors: list = []

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else None, self.op_id, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if note is not None:
                try:
                    span[5] = note(args, result)
                except Exception as exc:  # reported after the run, not inside cli.main
                    self.errors.append(f"work count of {name}: {type(exc).__name__}: {exc}")
            return result
        return traced

    def patches(self, package) -> list:
        """(module, attribute, original, wrapped) for every attribute in ``WRAPPED``.

        Raises ``TraceError`` if one is missing: its layer would read as 0.
        """
        out = []
        for module_name, attr, name, note in WRAPPED:
            module = getattr(package, module_name, None)
            if not callable(getattr(module, attr, None)):
                raise TraceError(f"xmod.{module_name}.{attr} is gone; update WRAPPED")
            original = getattr(module, attr)
            out.append((module, attr, original, self.wrap(name, original, note)))
        return out

    def summary(self) -> dict:
        """Per span name: calls, self seconds, summed notes and notes seen."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _, _, note) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "note": 0, "noted": 0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            if note is not None:
                entry["note"] += note
                entry["noted"] += 1
        return out


# ------------------------------------------------------------------ loop


def closed_loop(main, ops: list, seconds: float, min_ops: int,
                tracer=None, package=None) -> dict:
    """Run whole passes over ``ops`` until ``seconds`` and ``min_ops`` are reached.

    With a tracer, passes alternate untraced and traced, so that both see
    the same load on the host and their ratio is the tracing overhead.
    Passes also rotate over the cores this process may use: other tenants
    of the host slow each core separately, and a run that samples every
    core varies less from run to run than one that stays on a single core.
    An untraced pass and the traced pass after it share a core.  The
    process's core mask is restored on return.
    """
    affinity = os.sched_getaffinity(0)
    try:
        return _passes(main, ops, seconds, min_ops, tracer, package, sorted(affinity))
    finally:
        os.sched_setaffinity(0, affinity)


def _passes(main, ops, seconds, min_ops, tracer, package, cores) -> dict:
    run_op(main, ops[0])  # first call pays for lazy imports and caches
    patches = tracer.patches(package) if tracer is not None else []
    traced_main = tracer.wrap("cli", main) if tracer is not None else None
    latencies, outcomes, by_class = [], Counter(), Counter()
    passes, traced_passes = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) > len(traced_passes)
        for module, attr, original, wrapped in patches:
            setattr(module, attr, wrapped if traced else original)
        call = traced_main if traced else main
        turn = len(passes) if tracer is None else len(traced_passes)
        os.sched_setaffinity(0, {cores[turn % len(cores)]})
        pass_start = time.perf_counter()
        for op in ops:
            if traced:
                tracer.op_id += 1
            outcome, elapsed = run_op(call, op)
            latencies.append(elapsed)
            outcomes[outcome] += 1
            by_class[f"{op['input_class']} {outcome}"] += 1
        (traced_passes if traced else passes).append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= min_ops
                and (tracer is None or traced_passes)):
            break
    for module, attr, original, _ in patches:
        setattr(module, attr, original)
    return {"elapsed_s": elapsed, "passes_s": passes, "traced_passes_s": traced_passes,
            "latencies_s": latencies, "outcomes": dict(outcomes),
            "by_class": dict(by_class)}


def main(argv: list) -> int:
    src, ops_path, seconds, min_ops, trace, out_path = argv
    sys.path.insert(0, src)
    import xmod
    import xmod.cli
    if not Path(xmod.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"xmod imported from {xmod.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops = json.loads(Path(ops_path).read_text(encoding="utf-8"))
    tracer = Tracer() if trace == "1" else None
    try:
        result = closed_loop(xmod.cli.main, ops, float(seconds), int(min_ops), tracer, xmod)
    except TraceError as exc:
        print(exc, file=sys.stderr)
        return 2
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None and tracer.errors:
        print("\n".join(sorted(set(tracer.errors))), file=sys.stderr)
        return 2
    if tracer is not None:
        result["spans"] = len(tracer.spans)
        result["layers"] = tracer.summary()
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
