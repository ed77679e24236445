"""The benchmark's own output check, run on one round of its triple-descent workload.

bench/workloads.py is imported read-only: nothing under bench/ is written,
not even bytecode. One TripleDescent round per seed, 1 to 4, goes through
the workload's run and check as bench/run.py drives them, so a change that
breaks the representative, the path or the constant fails here, not only
in a benchmark run.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("surd", "matrices", "classify", "orbits", "enumeration", "cli", "errors")


@pytest.fixture(scope="module")
def workloads():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_triple_descent_round_passes_the_benchmark_check(workloads, seed):
    mm = SimpleNamespace(**{name: importlib.import_module(f"markov_mutator.{name}") for name in MODULES})
    wl = workloads.TripleDescent(seed, str(ROOT / "src"))
    wl.warm(mm)
    assert len(wl.cases) > 1000
    for case in wl.cases:
        # Any failure, a program error or workloads.CheckFailed, fails the test.
        wl.check(case, wl.run(mm, case))
