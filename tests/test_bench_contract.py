"""The benchmark's own output check, run on one round of its triple-descent workload,
and the paired A/B tool that drives the same rounds.

tools/ab.py is loaded by path, and bench/run.py and bench/workloads.py are
imported through its import_bench, read-only: nothing under bench/ is written,
not even bytecode. One TripleDescent round per seed, 1 to 4, goes through the
workload's run and check as bench/run.py drives them, so a change that
breaks the representative, the path or the constant fails here, not only
in a benchmark run. One more round runs through tools/ab.py on two copies
of the working tree loaded under distinct names, with no git call.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    saved_flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("markov_mutator_ab", ROOT / "tools" / "ab.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = saved_flag


@pytest.fixture(scope="module")
def workloads(ab):
    return ab.import_bench("workloads")


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_triple_descent_round_passes_the_benchmark_check(ab, workloads, seed):
    mm = SimpleNamespace(
        **{name: importlib.import_module(f"markov_mutator.{name}") for name in ab.bench_run.MODULES}
    )
    wl = workloads.TripleDescent(seed, str(ROOT / "src"))
    wl.warm(mm)
    assert len(wl.cases) > 1000
    for case in wl.cases:
        # Any failure, a program error or workloads.CheckFailed, fails the test.
        wl.check(case, wl.run(mm, case))


def test_ab_runs_a_round_on_two_loaded_copies_of_the_tree(ab, workloads):
    names = ("mm_ab_test_base", "mm_ab_test_head")
    try:
        sides = [ab.load_package(name, ROOT / "src") for name in names]
        assert sides[0].surd is not sides[1].surd
        wl = workloads.TripleDescent(1, str(ROOT / "src"))
        errors: list[str] = []
        for mm in sides:
            wl.warm(mm)
            assert ab.run_round(wl, mm, errors) > 0
        assert errors == []
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in names]:
            del sys.modules[name]
