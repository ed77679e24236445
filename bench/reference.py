#!/usr/bin/env python3
"""One-off reference figures quoted in bench/README.md; not a workload.

    python3 bench/reference.py

Times enumerate_m1 at C = -300 and C = -1000, and one enum-ladder round
and `sweep --max-entry 12` with MARKOV_MUTATOR_THREADS unset and set
to 2. Takes about a minute.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from markov_mutator.enumeration import enumerate_m1  # noqa: E402
from workloads import EnumLadder  # noqa: E402


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def with_threads(value):
    if value is None:
        os.environ.pop("MARKOV_MUTATOR_THREADS", None)
    else:
        os.environ["MARKOV_MUTATOR_THREADS"] = value


def sweep_s(threads) -> float:
    env = {k: v for k, v in os.environ.items() if k != "MARKOV_MUTATOR_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["MARKOV_MUTATOR_THREADS"] = threads
    argv = [sys.executable, "-c", "from markov_mutator.cli import main; main()", "sweep", "--max-entry", "12"]
    return timed(lambda: subprocess.run(argv, env=env, check=True, capture_output=True))


def main() -> None:
    for c in (-300, -1000):
        print(f"enumerate_m1({c}): {timed(lambda: enumerate_m1(c)):.2f} s", flush=True)
    ladder = EnumLadder(1, str(SRC))
    for threads in (None, "2", None, "2"):
        with_threads(threads)
        total = timed(lambda: [enumerate_m1(k.data["c"], p_square_cap=k.data["cap"]) for k in ladder.cases])
        print(f"enum-ladder round, seed 1, MARKOV_MUTATOR_THREADS={threads or 'unset'}: {total:.2f} s", flush=True)
    with_threads(None)
    for threads in (None, "2"):
        runs = [sweep_s(threads) for _ in range(5)]
        print(f"sweep --max-entry 12, MARKOV_MUTATOR_THREADS={threads or 'unset'}: median {statistics.median(runs):.3f} s "
              f"of {[round(r, 3) for r in runs]}", flush=True)


if __name__ == "__main__":
    main()
