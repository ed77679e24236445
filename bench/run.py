#!/usr/bin/env python3
"""Benchmark for markov-mutator: one workload, one seed, one run.

    python3 bench/run.py --workload enum-ladder --seed 1 --seconds 50 --trace 0

Imports ``markov_mutator`` from ``src/`` next to this directory (nothing
needs installing), builds the workload's inputs from the seed, and runs
whole rounds of operations in a closed loop (one call at a time, at most
one child process) until ``--seconds`` have passed. Every answered
operation is checked against the oracles in ``oracles.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a third
of the time untraced, then installs the wrappers from ``tracing.py`` and
runs the rest traced, and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object; a summary
goes to standard error, and the result (and, traced, the spans) to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import array
import compileall
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, CliMix  # noqa: E402

MODULES = ("surd", "matrices", "classify", "orbits", "enumeration", "cli", "errors")
SETUPS = 5
CONTROL_REPEATS = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10
# At most this many latencies are stored, from whole rounds spread evenly
# over the run, so the benchmark's own memory, which peak_rss_mb sees,
# does not grow with the program's speed.
MAX_SAMPLES = 50_000


def load_program():
    """Import the package afresh from SRC; returns the module namespace and module list."""
    for name in [n for n in sys.modules if n == "markov_mutator" or n.startswith("markov_mutator.")]:
        del sys.modules[name]
    pkg = importlib.import_module("markov_mutator")
    if Path(pkg.__file__).resolve().parent != (SRC / "markov_mutator").resolve():
        raise SystemExit(f"markov_mutator was imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"markov_mutator.{name}") for name in MODULES}
    return SimpleNamespace(**mods), [pkg, *mods.values()]


def setup(cls, seed: int):
    """Import, generate and warm up SETUPS times; the last one is kept."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        mm, modules = load_program()
        wl = cls(seed, str(SRC))
        wl.warm(mm)
        times.append(time.perf_counter() - t0)
    return mm, modules, wl, statistics.median(times)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.timed = 0.0
        self.kept: list[array.array] = []  # latencies of every stride-th round
        self.stride = 1
        self.current: array.array | None = array.array("d")
        self.problems: list[str] = []

    def start_round(self) -> None:
        self.current = array.array("d") if self.rounds % self.stride == 0 else None

    def end_round(self) -> None:
        if self.current is not None:
            self.kept.append(self.current)
            if sum(map(len, self.kept)) > MAX_SAMPLES:
                self.kept = self.kept[::2]
                self.stride *= 2
        self.rounds += 1

    @property
    def latencies(self) -> array.array:
        out = array.array("d")
        for chunk in self.kept:
            out.extend(chunk)
        return out

    @property
    def answered(self) -> int:
        return self.attempted - self.failed

    def work_per_s(self) -> float:
        return self.answered / self.timed


def run_case(wl, mm, case, runner, tally: Tally, tracer=None, op_id=0) -> None:
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        out, err = runner(mm, case), None
    except Exception as exc:  # an operation's failure is data, not a crash
        out, err = None, exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op(f"op.{wl.name}.{case.kind}")
    tally.attempted += 1
    tally.timed += dt
    if err is not None:
        tally.failed += 1
        if not wl.expected_failure(case, err, mm):
            tally.problems.append(f"{case.kind} {case.data}: {type(err).__name__}: {err}")
        return
    if tally.current is not None:
        tally.current.append(dt)
    try:
        wl.check(case, out)
    except CheckFailed as exc:
        tally.problems.append(f"check: {exc}")
    except (KeyError, ValueError, IndexError, TypeError, AttributeError) as exc:
        tally.problems.append(f"check: {case.kind} output unreadable: {type(exc).__name__}: {exc}")


def run_rounds(wl, mm, seconds: float, runner, tracer=None) -> Tally:
    """Whole rounds of the workload's cases until `seconds` of wall clock have passed."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        tally.start_round()
        for case in wl.cases:
            op_id += 1
            run_case(wl, mm, case, runner, tally, tracer, op_id)
        tally.end_round()
        if time.perf_counter() >= deadline:
            return tally


def tail(latencies, nominal: float) -> tuple[float, float]:
    """The nominal percentile, or the highest lower one with MIN_BEYOND samples beyond."""
    data = sorted(latencies)
    n = len(data)
    for pct in [nominal] + [p for p in TAIL_LADDER if p < nominal]:
        idx = max(math.ceil(pct / 100 * n) - 1, 0)
        if n - idx - 1 >= MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, data[idx]
    raise AssertionError("unreachable")


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def time_child(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True, timeout=120)
    return (time.perf_counter() - t0) * 1e3


def controls(env: dict) -> dict:
    """Interpreter start-up alone, and the import of the CLI module on top of it."""
    bare = statistics.median(time_child("pass", env) for _ in range(CONTROL_REPEATS))
    imp = statistics.median(time_child("import markov_mutator.cli", env) for _ in range(CONTROL_REPEATS))
    return {"interpreter_ms": bare, "import_ms": imp - bare}


def untraced(wl, mm, seconds: float, setup_s: float):
    tally = run_rounds(wl, mm, seconds, wl.run)
    latencies = tally.latencies
    pct, tail_s = tail(latencies, wl.tail_pct)
    metrics = {
        "work_per_s": (tally.work_per_s(), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(children=isinstance(wl, CliMix)), "MB"),
        "setup_s": (setup_s, "s"),
    }
    info = {"tail_percentile": pct, "samples": len(latencies), "rounds_sampled": len(tally.kept)}
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info, None


def traced(wl, mm, modules, seconds: float, seed: int):
    base = run_rounds(wl, mm, seconds / 3, wl.run_traced)
    tracer = Tracer()
    tracer.install(mm, modules)
    tally = run_rounds(wl, mm, seconds * 2 / 3, wl.run_traced, tracer)
    overhead = (base.work_per_s() / tally.work_per_s() - 1) * 100
    tally.problems += base.problems

    tracer.set_phase("control")
    cli = CliMix(seed, str(SRC))
    ctl = controls(cli.child_env())
    ctl_tally = Tally()
    for i, case in enumerate(cli.cases):
        run_case(cli, mm, case, cli.run_traced, ctl_tally, tracer, -1 - i)
    tally.problems += ctl_tally.problems

    metrics = tracer.metrics(tally.rounds, overhead, ctl)
    info = {
        "untraced_work_per_s": base.work_per_s(),
        "traced_work_per_s": tally.work_per_s(),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return tally, metrics, info, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "markov_mutator" / "__init__.py").is_file():
        print(f"error: no markov_mutator package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MARKOV_MUTATOR_THREADS", None)
    compileall.compile_dir(str(SRC / "markov_mutator"), quiet=1)

    mm, modules, wl, setup_s = setup(WORKLOADS[args.workload], args.seed)
    if args.trace:
        tally, metrics, info, tracer = traced(wl, mm, modules, args.seconds, args.seed)
    else:
        tally, metrics, info, tracer = untraced(wl, mm, args.seconds, setup_s)

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({**result, "rounds": tally.rounds, "setup_s": setup_s, **info,
                   "problems": tally.problems}, fh, indent=1)
    if tracer is not None:
        with open(OUT / f"trace-{stem}.json", "w") as fh:
            json.dump(tracer.dump(), fh)

    err = sys.stderr
    print(f"{args.workload} seed {args.seed}: {tally.rounds} rounds, {tally.attempted} attempted, "
          f"{tally.failed} failed, correct {result['correct']}", file=err)
    for key, val in info.items():
        print(f"  {key}: {val}", file=err)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=err)
    for problem in tally.problems[:10]:
        print(f"  PROBLEM {problem}", file=err)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
