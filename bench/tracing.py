"""Timing and counting wrappers for the traced run.

``Tracer.install`` replaces the public functions of the program's
modules, and the public methods plus arithmetic and construction hooks
of its classes, with wrappers that record a span per call. The program's
files are not touched: the wrappers are set as attributes on the loaded
modules and classes, and every module that imported a function by name
gets the wrapper too.

Aggregates (calls, total and self time, event counts) are kept per
phase: ``work`` for the workload's operations and ``control`` for the
control block. Spans (name, start, end, parent, operation) are kept in
memory up to a cap and written out at the end.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from enum import Enum

MODULES = ("surd", "matrices", "classify", "orbits", "enumeration", "cli")

# Dunder methods that carry work: arithmetic, ordering, rendering and the
# dataclass construction hook (one call per constructed instance).
DUNDERS = {
    "__post_init__", "__mul__", "__rmul__", "__sub__", "__neg__",
    "__lt__", "__le__", "__gt__", "__ge__", "__str__",
}

# ensure_int64 guards every stored value; a span per call would cost more
# than the check, so the errors layer is seen through the exceptions raised.


class Phase:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()  # by module
        self.events: Counter = Counter()
        self.ops = 0


class Tracer:
    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = -1
        self.stack: list[list[int]] = [[-1, 0]]  # [span id, child ns]
        self.phases = {"work": Phase(), "control": Phase()}
        self.phase = self.phases["work"]
        self.cur: Phase | None = None  # set only while an operation runs

    # -- operation spans -----------------------------------------------

    def set_phase(self, name: str) -> None:
        self.phase = self.phases[name]

    def begin_op(self, op_id: int) -> None:
        """Open an operation's root span; calls outside operations (checks) are not counted."""
        self.op_id = op_id
        self.cur = self.phase
        self.cur.ops += 1
        self.stack.append([self._new_id(), 0, time.perf_counter_ns()])

    def end_op(self, name: str) -> None:
        end = time.perf_counter_ns()
        span_id, _, start = self.stack.pop()
        self._record(span_id, name, start, end, self.stack[-1][0])
        self.cur = None

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def _record(self, span_id, name, start, end, parent) -> None:
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    # -- wrappers ------------------------------------------------------

    def wrap(self, fn, name: str, module: str):
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            frame = [tracer._new_id(), 0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                phase = tracer.cur
                if phase is not None:
                    phase.calls[name] += 1
                    phase.total_ns[name] += dur
                    phase.self_ns[module] += dur - frame[1]
                    tracer._record(frame[0], name, start, end, parent[0])

        traced.__wrapped__ = fn
        return traced

    def observe(self, name: str, fn):
        """Wrap an already traced callable to count events from its result."""
        tracer = self

        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.cur is None:
                return out
            ev = tracer.cur.events
            if name == "orbit_bfs":
                ev["bfs_members"] += len(out.members)
                ev["bfs_pruned"] += out.pruned
            elif name == "enumerate_m1":
                ev["reps"] += len(out)
            return out

        return observed

    def install(self, mm, package_modules) -> None:
        """Wrap every public function and method of the program's modules."""
        replaced = {}
        for short in MODULES:
            mod = getattr(mm, short)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(obj, f"{short}.{attr}", short)
                    if attr in ("orbit_bfs", "enumerate_m1"):
                        wrapped = self.observe(attr, wrapped)
                    replaced[obj] = wrapped
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, (Enum, BaseException)):
                        self._wrap_class(obj, short)
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        self._count_raises(mm.errors.OverflowLimitError)

    def _wrap_class(self, cls, short: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, short)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, name, short)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name, short))

    def _count_raises(self, exc_cls) -> None:
        tracer = self
        base_init = exc_cls.__init__

        def counting_init(exc, *args, **kwargs):
            if tracer.cur is not None:
                tracer.cur.events["overflow_raised"] += 1
            base_init(exc, *args, **kwargs)

        exc_cls.__init__ = counting_init

    # -- metrics -------------------------------------------------------

    def metrics(self, rounds: int, overhead_pct: float, controls: dict) -> dict:
        """The per-layer metrics, work phase first, control block as fallback.

        Counts per operation come from the workload's operations only, so
        they are zero for a layer the workload does not reach. A time or
        ratio needs calls to exist: for a function or module the workload
        never calls, it is taken from the control block instead.
        """
        work, ctl = self.phases["work"], self.phases["control"]
        ops = max(work.ops, 1)

        def per_op(n):
            return n / ops

        def per_call(name, scale):
            for ph in (work, ctl):
                if ph.calls[name]:
                    return ph.total_ns[name] / ph.calls[name] / scale
            return 0.0

        def self_ms(module):
            for ph in (work, ctl):
                if ph.self_ns[module] and ph.ops:
                    return ph.self_ns[module] / ph.ops / 1e6
            return 0.0

        def enum_split():
            for ph in (work, ctl):
                n = ph.calls["enumeration.enumerate_m1"]
                if n:
                    total = ph.total_ns["enumeration.enumerate_m1"]
                    build = ph.total_ns["enumeration.M1Representative.from_squares"]
                    return (total - build) / n / 1e6, build / n / 1e6
            return 0.0, 0.0

        def kept_ratio():
            for ph in (work, ctl):
                kept, pruned = ph.events["bfs_members"], ph.events["bfs_pruned"]
                if kept + pruned:
                    return kept / (kept + pruned)
            return 0.0

        search_ms, build_ms = enum_split()
        c = work.calls
        values = {
            "surd.constructed_per_op": (per_op(c["surd.Surd.__post_init__"]), "count/op"),
            "surd.self_ms_per_op": (self_ms("surd"), "ms/op"),
            "surd.parse_us": (per_call("surd.Surd.parse", 1e3), "us/call"),
            "matrices.gamma_s_us": (per_call("matrices.gamma_s", 1e3), "us/call"),
            "matrices.triple_constructed_per_op": (per_op(c["matrices.TripleS.__post_init__"]), "count/op"),
            "matrices.matm_constructed_per_op": (per_op(c["matrices.MatM.__post_init__"]), "count/op"),
            "matrices.gamma_tuple_calls_per_op": (per_op(c["matrices.gamma_tuple"]), "count/op"),
            "matrices.mutate_tuple_calls_per_op": (per_op(c["matrices.mutate_tuple"]), "count/op"),
            "matrices.self_ms_per_op": (self_ms("matrices"), "ms/op"),
            "classify.descent_steps_per_op": (per_op(c["classify.descent_step"]), "count/op"),
            "classify.ab_class_ms": (per_call("classify.ab_class", 1e6), "ms/call"),
            "classify.is_cluster_cyclic_us": (per_call("classify.is_cluster_cyclic", 1e3), "us/call"),
            "classify.self_ms_per_op": (self_ms("classify"), "ms/op"),
            "orbits.bfs_members_per_op": (per_op(work.events["bfs_members"]), "count/op"),
            "orbits.bfs_pruned_per_op": (per_op(work.events["bfs_pruned"]), "count/op"),
            "orbits.bfs_kept_ratio": (kept_ratio(), "ratio"),
            "orbits.orbit_bfs_ms": (per_call("orbits.orbit_bfs", 1e6), "ms/call"),
            "orbits.mu_search_ms": (per_call("orbits.mu_orbit_search_acyclic", 1e6), "ms/call"),
            "orbits.reduce_ms": (per_call("orbits.reduce_to_fundamental", 1e6), "ms/call"),
            "enumeration.enumerate_ms": (per_call("enumeration.enumerate_m1", 1e6), "ms/call"),
            "enumeration.search_ms": (search_ms, "ms/call"),
            "enumeration.build_reps_ms": (build_ms, "ms/call"),
            "enumeration.reps_per_op": (per_op(work.events["reps"]), "count/op"),
            "cli.interpreter_ms": (controls["interpreter_ms"], "ms"),
            "cli.import_ms": (controls["import_ms"], "ms"),
            "cli.run_ms": (per_call("cli.run", 1e6), "ms/call"),
            "errors.overflow_raised_per_run": (work.events["overflow_raised"] / max(rounds, 1), "count/round"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "dropped": self.dropped,
            "phases": {
                name: {
                    "ops": ph.ops,
                    "calls": dict(ph.calls),
                    "total_ns": dict(ph.total_ns),
                    "self_ns": dict(ph.self_ns),
                    "events": dict(ph.events),
                }
                for name, ph in self.phases.items()
            },
        }
