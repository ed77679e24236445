#!/usr/bin/env python3
"""Paired A/B timing of one in-process benchmark workload: a base revision against the working tree.

    python3 tools/ab.py --base HEAD~1 --workload triple-descent --rounds 40

The base revision is checked out with ``git worktree`` into a temporary
directory, which is removed afterwards. Both copies of the package are
loaded into this one process under distinct names (the package uses only
relative imports), and ``bench/workloads.py`` is imported read-only, with
no bytecode written. Each round runs every case of the workload once on
each side, the side that goes first alternating, times each call as
``bench/run.py`` does and checks every answer with the workload's own
check. The report gives each side's ``work_per_s`` over the rounds (median
and quartiles), the median of the rounds' head/base ratios, which pairing
keeps clear of the host's drift, and the rounds each side won.
Nothing is written under ``bench/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("surd", "matrices", "classify", "orbits", "enumeration", "cli", "errors")


def import_workloads():
    """bench/workloads.py, imported without writing bytecode under bench/."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def load_package(name: str, src: Path) -> SimpleNamespace:
    """The markov_mutator package under src, imported as `name`, as the workloads' module namespace."""
    pkg_dir = src / "markov_mutator"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def run_round(wl, mm, errors) -> float:
    """One round of the workload on one side: answered operations per second of timed calls."""
    answered, timed = 0, 0.0
    for case in wl.cases:
        t0 = time.perf_counter()
        try:
            out, err = wl.run(mm, case), None
        except Exception as exc:  # an expected failure is data, as in bench/run.py
            out, err = None, exc
        timed += time.perf_counter() - t0
        if err is not None:
            if not wl.expected_failure(case, err, mm):
                errors.append(f"{case.kind} {case.data}: {type(err).__name__}: {err}")
            continue
        answered += 1
        try:
            wl.check(case, out)
        except Exception as exc:
            errors.append(f"check: {type(exc).__name__}: {exc}")
    return answered / timed


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare the working tree against")
    ap.add_argument("--workload", default="triple-descent")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    workloads = import_workloads()
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None or cls is workloads.CliMix:
        in_process = sorted(n for n, c in workloads.WORKLOADS.items() if c is not workloads.CliMix)
        ap.error(f"--workload must be an in-process workload, one of {', '.join(in_process)}")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    tmp = Path(tempfile.mkdtemp(prefix="markov-mutator-ab-"))
    tree = tmp / "base"
    git = ["git", "-C", str(ROOT)]
    try:
        if subprocess.run(git + ["worktree", "add", "--detach", "--quiet", str(tree), args.base]).returncode:
            return 2  # git has printed why
        sides = {"base": load_package("mm_ab_base", tree / "src"),
                 "head": load_package("mm_ab_head", ROOT / "src")}
        wl = cls(args.seed, str(ROOT / "src"))
        for mm in sides.values():
            wl.warm(mm)
        rates = {side: [] for side in sides}
        errors: list[str] = []
        for r in range(args.rounds):
            order = ("base", "head") if r % 2 == 0 else ("head", "base")
            for side in order:
                rates[side].append(run_round(wl, sides[side], errors))
    finally:
        subprocess.run(git + ["worktree", "remove", "--force", str(tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in errors[:10]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds, {len(wl.cases)} cases a round; "
          f"base {args.base} against the working tree")
    for side, xs in rates.items():
        q1, q2, q3 = quartiles(xs) if len(xs) > 1 else (xs[0],) * 3
        print(f"  {side}: work_per_s median {q2:,.0f}, quartiles {q1:,.0f} .. {q3:,.0f}")
    ratios = [h / b for h, b in zip(rates["head"], rates["base"])]
    head_wins = sum(r > 1 for r in ratios)
    print(f"  median of the rounds' head/base ratios: {statistics.median(ratios):.3f}; "
          f"rounds won: head {head_wins}, base {args.rounds - head_wins}")
    print(f"  correct: {not errors}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
