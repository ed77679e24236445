"""The four workloads: seeded inputs, the operation, and the output checks.

A workload builds one *round* of cases from the seed. A run repeats whole
rounds, so every run attempts the same operations in the same
proportions. The program only ever sees the generated inputs: every
program call goes through the module namespace ``mm`` (attributes
``surd``, ``matrices``, ``classify``, ``orbits``, ``enumeration``,
``cli``, ``errors``), which the traced run instruments in place.

Every answered operation is checked against ``oracles``, never against a
stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import oracles as O

INT64_MAX = O.INT64_MAX
# Generated inputs keep every value the program stores or multiplies out
# below this, so no operation outside the fault slice can overflow.
SAFE = 1 << 62


class CheckFailed(Exception):
    """An answered operation returned something the oracle disagrees with."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Case:
    kind: str
    data: dict = field(default_factory=dict)
    fault: bool = False


def m1_pool(lo: int, hi: int) -> list[O.Triple]:
    """Descent-minimal triples with constants in [lo, hi], from the oracle."""
    return [O.triple_from_squares(*s) for c in range(hi, lo - 1, -1) for s in O.m1_squares(c)]


def fits_triple(t: O.Triple, limit: int = SAFE) -> bool:
    a, b, c = O.triple_squares(t)
    sq = limit * limit
    return max(a, b, c, a * b, b * c, c * a) < sq and O.triple_product(t) < limit


def climb_triple(rng: random.Random, base: O.Triple, depth: int, fits=fits_triple):
    """The end of a random word of exactly `depth` strictly increasing gamma steps, or None."""
    t, last = base, 0
    for _ in range(depth):
        dirs = [k for k in (1, 2, 3) if k != last and O.triple_increases(t, k)]
        if not dirs:
            return None
        last = rng.choice(dirs)
        t = O.triple_gamma(t, last)
        if not fits(t):
            return None
    return t


def climb_exact(rng: random.Random, first: list, pool: list, depth: int):
    """Draw bases from `first` (then the whole pool) until a climb of `depth` fits."""
    for attempt in range(10_000):
        base = rng.choice(first if attempt < 200 else pool)
        t = climb_triple(rng, base, depth)
        if t is not None:
            return base, t
    raise RuntimeError(f"no climb of depth {depth} fits")


def permute_triple(rng: random.Random, t: O.Triple, base: O.Triple):
    order = [0, 1, 2]
    rng.shuffle(order)
    return tuple(t[i] for i in order), tuple(base[i] for i in order)


def surd_of(value) -> tuple[int, int]:
    """A program surd read back through its text rendering."""
    return O.parse_surd(str(value))


def parse_matrix(text: str):
    top, bottom = text.split("/")
    return tuple(int(v) for v in top.split()) + tuple(int(v) for v in bottom.split())


def matrix_text(m) -> str:
    return " ".join(map(str, m[:3])) + " / " + " ".join(map(str, m[3:]))


class Workload:
    name = ""
    tail_pct = 90.0  # the tail percentile, chosen per workload in the README

    def __init__(self, seed: int, src: str) -> None:
        self.seed = seed
        self.src = src
        self.cases = self.generate(random.Random(seed))

    def generate(self, rng: random.Random) -> list[Case]:
        raise NotImplementedError

    def warm(self, mm) -> None:
        """Fixed, seed-independent calls that load lazily created state."""

    def run(self, mm, case: Case):
        raise NotImplementedError

    def run_traced(self, mm, case: Case):
        return self.run(mm, case)

    def check(self, case: Case, out) -> None:
        raise NotImplementedError

    def expected_failure(self, case: Case, exc: BaseException, mm) -> bool:
        return False


# -- enum-ladder -------------------------------------------------------


class EnumLadder(Workload):
    """enumerate_m1 on every constant in [-40, 3], a seeded sample down to -200, and capped C = 4."""

    name = "enum-ladder"
    tail_pct = 95.0
    LOW, MID, HIGH = -200, -41, 3
    HEAVY = 32
    CAPPED = 2

    def generate(self, rng):
        # Every cheap constant is in each round, so the median operation
        # does not hang on one sampled rung; the costly constants below MID
        # are sampled one per stratum of equal width.
        cases = [Case("ladder", {"c": c, "cap": None}) for c in range(self.MID + 1, self.HIGH + 1)]
        span = self.MID - self.LOW + 1
        for i in range(self.HEAVY):
            lo = self.LOW + span * i // self.HEAVY
            hi = self.LOW + span * (i + 1) // self.HEAVY - 1
            cases.append(Case("ladder", {"c": rng.randint(lo, hi), "cap": None}))
        for _ in range(self.CAPPED):
            cases.append(Case("capped", {"c": 4, "cap": rng.randint(100, 400)}))
        rng.shuffle(cases)
        self._oracle: dict = {}
        return cases

    def warm(self, mm):
        mm.enumeration.enumerate_m1(0)
        mm.enumeration.enumerate_m1(4, p_square_cap=8)

    def run(self, mm, case):
        return mm.enumeration.enumerate_m1(case.data["c"], p_square_cap=case.data["cap"])

    def check(self, case, out):
        c, cap = case.data["c"], case.data["cap"]
        got = []
        for rep in out:
            sq = tuple(k * k * d for k, d in map(surd_of, rep.triple.entries()))
            expect(O.is_m1_squares(*sq, c), f"C={c}: {sq} is not a representative")
            expect(tuple(rep.squares) == sq and rep.markov == c, f"C={c}: fields disagree with {sq}")
            got.append(sq)
        expect(len(set(got)) == len(got), f"C={c}: duplicate representatives")
        expect(got == sorted(got, key=lambda s: (s[2], s[1], s[0])), f"C={c}: not sorted by (c, b, a)")
        if cap is not None:
            expect(got == [(a, a, 4) for a in range(4, cap + 1)], f"C=4 cap {cap}: not the (p, p, 2) family")
            return
        if c not in self._oracle:
            self._oracle[c] = O.m1_squares(c)
        expect(got == self._oracle[c], f"C={c}: {len(got)} representatives, oracle {len(self._oracle[c])}")


# -- triple-descent ----------------------------------------------------


def fault_inputs() -> list[Case]:
    """Shallow climbs whose entries fit in 64 bits but whose product pqr does not.

    Fixed, whatever the seed: a run's failed share must not depend on it.
    Bases are (n, n, n) and (n sqrt 5, 2n, sqrt 5), both descent-minimal.
    """
    rng = random.Random(0x0F_A017)
    cases = []
    shapes = [(0, 21, 31), (1, 21, 31), (2, 17, 20)] * 10 + [(0, 30, 31), (1, 30, 31)] * 9
    for depth, lo_bits, hi_bits in shapes:
        while True:
            n = rng.randint(1 << lo_bits, 1 << hi_bits)
            base = ((n, 1),) * 3 if lo_bits != 30 else ((n, 5), (2 * n, 1), (1, 5))
            t = climb_triple(rng, base, depth, fits=lambda t: max(O.triple_squares(t)) <= INT64_MAX ** 2)
            if t is not None and O.triple_product(t) > INT64_MAX:
                break
        cases.append(Case("fault", {"triple": t, "base": base, "text": O.render_triple(t)}, fault=True))
    return cases


class TripleDescent(Workload):
    """Parse an exact triple, classify it and descend it to its M1 representative."""

    name = "triple-descent"
    # Above p99 the samples beyond are a few dozen collector pauses and
    # preemptions, which swing by a quarter between runs on a shared host.
    tail_pct = 99.0
    DEPTHS = 8

    def generate(self, rng):
        # Every base at every depth: only the gamma words and the entry
        # order come from the seed, so the round's cost hardly depends on it.
        pool = sorted(m1_pool(-20, 3), key=lambda t: (O.triple_squares(t)[0], t))
        cases = []
        for triple in pool:
            for depth in range(1, self.DEPTHS + 1):
                base, t = climb_exact(rng, [triple], pool, depth)
                t, base = permute_triple(rng, t, base)
                cases.append(Case("climb", {"triple": t, "base": base, "text": O.render_triple(t)}))
        cases += fault_inputs()
        rng.shuffle(cases)
        return cases

    def warm(self, mm):
        self.run(mm, Case("warm", {"text": "6, 15, 3"}))

    def run(self, mm, case):
        s = mm.matrices.TripleS.parse(case.data["text"])
        return (
            mm.classify.mk_class(s),
            mm.classify.ab_class(s),
            mm.matrices.markov_c_s(s),
        )

    def expected_failure(self, case, exc, mm):
        return case.fault and isinstance(exc, mm.errors.OverflowLimitError)

    def check(self, case, out):
        cls, ab, c = out
        t, base = case.data["triple"], case.data["base"]
        expect(cls.value == O.triple_class(t), f"{case.data['text']}: class {cls.value}")
        expect(ab.kind.value == "A", f"{case.data['text']}: case {ab.kind.value}")
        rep = tuple(surd_of(e) for e in ab.representative.entries())
        expect(rep == base, f"{case.data['text']}: representative {rep}, climbed from {base}")
        path = list(ab.path)
        expect(ab.iterations == len(path), f"{case.data['text']}: {ab.iterations} steps, path {path}")
        expect(O.replay(t, path, O.triple_gamma) == rep, f"{case.data['text']}: path {path} does not link")
        expect(c == O.triple_markov(t), f"{case.data['text']}: markov {c}")


# -- orbit-walk --------------------------------------------------------


def climb_matrix(rng, start, depth: int):
    """Exactly `depth` strictly increasing gamma steps, or None."""
    m, last = start, 0
    for _ in range(depth):
        p = O.products(m)
        dirs = [k for k in (1, 2, 3) if k != last
                and 4 * p[k - 1] < p[k % 3] * p[(k + 1) % 3]]
        if not dirs:
            return None
        last = rng.choice(dirs)
        m = O.gamma(m, last)
        if max(m) >= SAFE:
            return None
    return m


class OrbitWalk(Workload):
    """Cluster-cyclic matrices: decide, reduce, BFS. Others: decide, search for an acyclic image."""

    name = "orbit-walk"
    tail_pct = 99.5
    BFS_DEPTHS = (10, 11, 12)
    CLIMBS = 6
    GRID, GRID_CASES = 5, 150

    def generate(self, rng):
        # Every base with every climb length, the BFS depth cycling with
        # both: only the climbing words and the grid sample are seeded.
        pool = sorted(m1_pool(-10, 3), key=lambda t: (O.triple_squares(t)[0], t))
        cases = []
        for i, triple in enumerate(pool):
            base = O.lift(triple)
            for climb in range(self.CLIMBS):
                depth = self.BFS_DEPTHS[(i + climb) % len(self.BFS_DEPTHS)]
                m = None
                while m is None:  # small bases: some word of 5 steps always fits
                    m = climb_matrix(rng, base, climb)
                cases.append(Case("cyclic", {"m": m, "base": base, "depth": depth}))
        grid = [m for m in O.positive_matrices(self.GRID) if not O.cluster_cyclic(m)]
        cases += [Case("acyclic", {"m": m}) for m in rng.sample(grid, self.GRID_CASES)]
        rng.shuffle(cases)
        self._bfs: dict = {}
        self._shortest: dict = {}
        return cases

    def warm(self, mm):
        m = mm.matrices.MatM(6, 3, 3, 6, 3, 3)
        mm.classify.is_cluster_cyclic(m)
        mm.orbits.reduce_to_fundamental(m)
        mm.orbits.orbit_bfs(m, 6, INT64_MAX)
        mm.orbits.mu_orbit_search_acyclic(mm.matrices.MatM(1, 1, 1, 1, 1, 1), 12, INT64_MAX)

    def run(self, mm, case):
        m = mm.matrices.MatM(*case.data["m"])
        decided = mm.classify.is_cluster_cyclic(m)
        if case.kind == "cyclic":
            return (
                decided,
                mm.orbits.reduce_to_fundamental(m),
                mm.orbits.orbit_bfs(m, case.data["depth"], INT64_MAX),
            )
        return decided, mm.orbits.mu_orbit_search_acyclic(m, 12, INT64_MAX)

    def check(self, case, out):
        m = case.data["m"]
        ok, cert = out[0]
        expect(ok == O.cluster_cyclic(m), f"{m}: decided {ok}")
        expect(tuple(cert.products) == O.products(m), f"{m}: products {cert.products}")
        if case.kind == "cyclic":
            self._check_cyclic(case, cert, out[1], out[2])
        else:
            self._check_acyclic(case, cert, out[1])

    def _check_cyclic(self, case, cert, report, bfs):
        m, base, depth = case.data["m"], case.data["base"], case.data["depth"]
        expect(cert.markov == O.markov_abs(m), f"{m}: markov {cert.markov}")
        rep = report.representative.entries()
        expect(rep == base and O.fundamental(base), f"{m}: reduced to {rep}, lift of base is {base}")
        expect(report.is_minimal_certified, f"{m}: representative not certified")
        expect(O.replay(base, list(report.path), O.gamma) == m, f"{m}: path {list(report.path)}")
        members = frozenset(e.entries() for e in bfs.members)
        key = (m, depth)
        if key not in self._bfs:
            seen, pruned = O.gamma_bfs(m, depth, INT64_MAX)
            self._bfs[key] = (len(seen), pruned, hash(frozenset(seen)))
        count, pruned, digest = self._bfs[key]
        expect((len(members), bfs.pruned) == (count, pruned),
               f"{m}: BFS {len(members)} members / {bfs.pruned} pruned, oracle {count} / {pruned}")
        expect(hash(members) == digest, f"{m}: BFS members differ from the oracle's")
        c = O.markov(m)
        expect(all(O.markov(e) == c for e in members), f"{m}: a BFS member changed the constant")

    def _check_acyclic(self, case, cert, hit):
        m = case.data["m"]
        expect(cert.decision == "cluster_acyclic", f"{m}: decision {cert.decision}")
        if m not in self._shortest:
            self._shortest[m] = O.shortest_acyclic(m, 12, INT64_MAX)
        shortest = self._shortest[m]
        if hit is None:
            expect(shortest is None, f"{m}: no acyclic image found, oracle finds one at {shortest}")
            return
        word, image = list(hit[0]), hit[1].entries()
        expect(O.is_acyclic(image), f"{m}: {image} is cyclic")
        expect(O.replay(m, word, O.mutate) == image, f"{m}: word {word} does not reach {image}")
        expect(len(word) == shortest, f"{m}: word of length {len(word)}, shortest is {shortest}")


# -- cli-mix -----------------------------------------------------------


class CliMix(Workload):
    """Every subcommand once as text and once as --json, each in a fresh interpreter."""

    name = "cli-mix"
    tail_pct = 90.0

    def generate(self, rng):
        pool = sorted(m1_pool(-40, 3), key=lambda t: (O.triple_squares(t)[0], t))
        grid = [m for m in O.positive_matrices(4) if not O.cluster_cyclic(m)]
        cases = []
        for fmt in ([], ["--json"]):
            base = rng.choice(pool)
            cc = climb_matrix(rng, O.lift(base), rng.randint(0, 3))
            t_base, t = climb_exact(rng, pool, pool, rng.randint(1, 4))
            depth = rng.randint(2, 5)
            k, d = rng.choice([(1, 5), (1, 6), (1, 7), (2, 3), (1, 10), (3, 1), (1, 11)])
            argvs = [
                ("classify-cyclic", ["classify", matrix_text(cc)], {"m": cc}),
                ("classify-acyclic", ["classify", matrix_text(m := rng.choice(grid))], {"m": m}),
                ("classify-triple", ["classify", O.render_triple(t)], {"triple": t, "base": t_base}),
                ("reduce", ["reduce", matrix_text(cc)], {"m": cc}),
                ("orbit", ["orbit", matrix_text(O.lift(base)), "--depth", str(depth)],
                 {"m": O.lift(base), "depth": depth}),
                ("enumerate", ["enumerate", "--markov", str(c := rng.randint(-40, 3))], {"c": c}),
                ("witness", ["witness", "--markov", str(n := rng.randint(-2000, 4))], {"n": n}),
                ("fixed-points", ["fixed-points"], {}),
                ("lift", ["lift", O.render_triple(t)], {"triple": t}),
                ("chebyshev", ["chebyshev", str(nn := rng.randint(2, 12)), O.render_surd(k, d)],
                 {"n": nn, "k": k, "d": d}),
                ("sweep", ["sweep", "--max-entry", str(e := rng.randint(3, 4))], {"e": e}),
            ]
            cases += [Case(kind, {"argv": argv + fmt, "json": bool(fmt), **data})
                      for kind, argv, data in argvs]
        rng.shuffle(cases)
        self._first: dict = {}
        return cases

    def child_env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "MARKOV_MUTATOR_THREADS"}
        env["PYTHONPATH"] = self.src
        return env

    def warm(self, mm):
        self.spawn(["fixed-points"])

    def spawn(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", "from markov_mutator.cli import main; main()", *argv],
            capture_output=True, text=True, env=self.child_env(), timeout=120,
        )
        return proc.returncode, proc.stdout

    def run(self, mm, case):
        return self.spawn(case.data["argv"])

    def run_traced(self, mm, case):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = mm.cli.run(case.data["argv"])
        return code, buf.getvalue()

    def check(self, case, out):
        code, text = out
        argv = case.data["argv"]
        expect(code == 0, f"{argv}: exit {code}")
        key = tuple(argv)
        first = self._first.setdefault(key, text)
        expect(text == first, f"{argv}: output differs between invocations")
        doc = json.loads(text) if case.data["json"] else None
        lines = text.splitlines()
        fields = dict(line.split(": ", 1) for line in lines if ": " in line)
        getattr(self, "_check_" + case.kind.replace("-", "_"))(case.data, doc, lines, fields)

    # Each checker reads either the JSON document or the text lines.

    def _check_classify_cyclic(self, data, doc, lines, fields):
        m = data["m"]
        decision = doc["decision"] if doc else fields["decision"]
        markov = doc["markov"] if doc else int(fields["markov"])
        prods = tuple(doc["products"]) if doc else tuple(map(int, fields["products"].split()))
        fixed = doc["fixed_point"] if doc else fields["fixed point"] == "yes"
        expect(decision == "cluster_cyclic" and O.cluster_cyclic(m), f"{m}: {decision}")
        expect(markov == O.markov_abs(m) and prods == O.products(m), f"{m}: {markov} {prods}")
        expect(fixed == all(p == 4 for p in prods), f"{m}: fixed point {fixed}")

    def _check_classify_acyclic(self, data, doc, lines, fields):
        m = data["m"]
        decision = doc["decision"] if doc else fields["decision"]
        violated = doc["violated"] if doc else fields["violated"]
        word = doc.get("witness_path") if doc else (
            list(map(int, fields["witness path"].split())) if "witness path" in fields else None)
        expect(decision == "cluster_acyclic" and not O.cluster_cyclic(m), f"{m}: {decision}")
        prods = dict(zip(("xx", "yy", "zz"), O.products(m)))
        holds = {f"product_{n}_lt_4": p < 4 for n, p in prods.items()}
        holds["markov_gt_4"] = O.markov_abs(m) > 4
        expect(holds.get(violated, False), f"{m}: violated {violated} does not hold")
        shortest = O.shortest_acyclic(m, 12, 10**9)
        if word is None:
            expect(shortest is None, f"{m}: no witness, oracle finds one at {shortest}")
        else:
            expect(O.is_acyclic(O.replay(m, word, O.mutate)) and len(word) == shortest,
                   f"{m}: witness {word}")

    def _check_classify_triple(self, data, doc, lines, fields):
        t = data["triple"]
        text = O.render_triple(t)
        if doc:
            cls, markov, gate = doc["class"], doc["markov"], doc["cluster_positive"]
            kind, rep, path = doc["ab"]["kind"], doc["ab"]["representative"], doc["ab"]["path"]
            steps = doc["ab"]["iterations"]
        else:
            cls, markov, gate = fields["class"], int(fields["markov"]), fields["cluster positive"] == "yes"
            kind, _, steps = fields["case"].split()[0], None, int(fields["case"].split()[2])
            rep = fields["representative"]
            path = [int(v) for v in lines[-1].split(":", 1)[1].split()]
        expect(cls == O.triple_class(t) and markov == O.triple_markov(t), f"{text}: {cls} {markov}")
        expect(gate and kind == "A" and steps == len(path), f"{text}: {gate} {kind} {steps}")
        rep = tuple(O.parse_surd(v) for v in rep.split(","))
        expect(rep == data["base"], f"{text}: representative {rep}, climbed from {data['base']}")
        expect(O.replay(t, path, O.triple_gamma) == rep, f"{text}: path {path} does not link")

    def _check_reduce(self, data, doc, lines, fields):
        m = data["m"]
        rep = parse_matrix(doc["representative"] if doc else fields["representative"])
        path = doc["path"] if doc else list(map(int, fields.get("path", "").split()))
        certified = doc["is_minimal_certified"] if doc else fields["minimal certified"] == "yes"
        explored = doc["explored"] if doc else int(fields["explored"])
        expect(O.fundamental(rep) and certified, f"{m}: {rep} is not in the fundamental domain")
        expect(O.replay(rep, path, O.gamma) == m and explored == len(path) + 1, f"{m}: path {path}")

    def _check_orbit(self, data, doc, lines, fields):
        m, depth = data["m"], data["depth"]
        if doc:
            count, pruned, members = doc["count"], doc["pruned"], doc["members"]
        else:
            count, pruned, members = int(fields["count"]), int(fields["pruned"]), lines[2:]
        seen, oracle_pruned = O.gamma_bfs(m, depth, 10**9)
        got = {parse_matrix(v) for v in members}
        expect(count == len(members) == len(got) and got == seen and pruned == oracle_pruned,
               f"{m}: orbit {count}/{pruned}, oracle {len(seen)}/{oracle_pruned}")
        expect(all(O.markov(e) == O.markov(m) for e in got), f"{m}: constant changed in orbit")

    def _check_enumerate(self, data, doc, lines, fields):
        c = data["c"]
        if doc:
            rows = [(r["p"], r["q"], r["r"], r["markov"]) for r in doc]
        else:
            expect(lines[0].split() == ["p", "q", "r", "C"], f"enumerate {c}: header {lines[0]!r}")
            rows = [tuple(line.split()) for line in lines[1:]]
        squares = []
        for p, q, r, mc in rows:
            sq = tuple(k * k * d for k, d in map(O.parse_surd, (p, q, r)))
            expect(int(mc) == c and O.is_m1_squares(*sq, c), f"enumerate {c}: row {p} {q} {r}")
            squares.append(sq)
        expect(squares == O.m1_squares(c), f"enumerate {c}: rows differ from the oracle")

    def _check_witness(self, data, doc, lines, fields):
        n = data["n"]
        triple = doc["triple"] if doc else fields["triple"]
        markov = doc["markov"] if doc else int(fields["markov"])
        m = parse_matrix(doc["lift"] if doc else fields["lift"])
        t = tuple(O.parse_surd(v) for v in triple.split(","))
        expect(markov == n == O.triple_markov(t), f"witness {n}: constant {markov}")
        expect(O.is_valid(m) and O.sk_squares(m) == O.triple_squares(t), f"witness {n}: lift {m}")

    def _check_fixed_points(self, data, doc, lines, fields):
        got = [parse_matrix(v) for v in (doc if doc else lines)]
        expect(len(got) == 7 and set(got) == O.fixed_points(), f"fixed points {got}")
        expect(all(O.products(m) == (4, 4, 4) for m in got), "fixed points: a column product is not 4")

    def _check_lift(self, data, doc, lines, fields):
        t = data["triple"]
        m = parse_matrix(doc["lift"] if doc else lines[0])
        expect(O.is_valid(m) and O.sk_squares(m) == O.triple_squares(t), f"lift of {t}: {m}")

    def _check_chebyshev(self, data, doc, lines, fields):
        n, k, d = data["n"], data["k"], data["d"]
        if doc:
            u = doc["u"]
            got = (u["sign"] * u["coeff"], u["radicand"])
            expect(O.parse_surd(doc["text"]) == got, f"chebyshev: text {doc['text']}")
        else:
            got = O.parse_surd(lines[0])
        value, odd = O.chebyshev(n, k, d)
        want = (value, d if odd else 1) if value else (0, 1)
        expect(got == want, f"chebyshev {n} {k}*sqrt({d}): {got}, oracle {want}")

    def _check_sweep(self, data, doc, lines, fields):
        e = data["e"]
        if doc:
            total, cyc, acyc = doc["total"], doc["cluster_cyclic"], doc["cluster_acyclic"]
        else:
            total = int(lines[0].rsplit(":", 1)[1])
            cyc, acyc = int(fields["cluster-cyclic"]), int(fields["cluster-acyclic"])
        want = O.sweep_counts(e)
        expect((cyc, acyc) == want and total == sum(want), f"sweep {e}: {cyc}/{acyc}, oracle {want}")


WORKLOADS = {w.name: w for w in (EnumLadder, TripleDescent, OrbitWalk, CliMix)}
