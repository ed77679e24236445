"""Command-line surface.

Every subcommand is deterministic given its flags: same invocation,
same bytes. `--json` switches from human-readable lines to JSON on
stdout. Exit codes: 0 success, 1 domain errors (invalid input,
out-of-scope values), 2 resource errors (overflow, caps) and usage
errors.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import Optional, Sequence, Union

from .classify import (
    DESCENT_CAP,
    ABKind,
    ab_class,
    chebyshev_u,
    cyclicity,
    integer_fixed_points,
    is_cluster_cyclic,
    is_cluster_positive,
    is_fixed_point,
    mk_class,
)
from .enumeration import enumerate_m1, surjectivity_witness
from .errors import DomainError, ResourceError
from .matrices import MatM, TripleS, markov_c_s
from .orbits import (
    DEFAULT_DEPTH,
    DEFAULT_ENTRY_BOUND,
    lift_to_matm,
    mu_orbit_search_acyclic,
    orbit_bfs,
    reduce_to_fundamental,
)
from .surd import Surd

__all__ = ["SWEEP_CAP", "main", "run"]

# The largest --max-entry sweep accepts: it holds all N**3 bottom rows and
# classifies every matrix over them, and N = 20 takes about 2 s on a 2-core VM.
SWEEP_CAP = 20

_EPILOG = (
    f"default caps: breadth-first depth {DEFAULT_DEPTH}, "
    f"entry bound {DEFAULT_ENTRY_BOUND}, descent cap {DESCENT_CAP}"
)


def _parse_triple(text: str) -> TripleS:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 3:
        raise DomainError(f"expected three comma-separated entries, got {text!r}")
    if any("." in t or "e" in t.lower().replace("sqrt", "") for t in parts):
        try:
            floats = [float(t) for t in parts]
        except ValueError as exc:
            raise DomainError(f"cannot parse float triple {text!r}") from exc
        return TripleS.approx(*floats)
    return TripleS.parse(text)


def _parse_scalar(text: str) -> Union[Surd, float]:
    try:
        return Surd.parse(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError as exc:
        raise DomainError(f"cannot parse {text!r} as a surd or float") from exc
    if not math.isfinite(value):
        raise DomainError(f"{text!r} is not a finite number")
    return value


def _emit(args, payload, lines: list[str]) -> int:
    if args.json:
        import json

        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return 0


# -- classify ----------------------------------------------------------


def _classify_matrix(args, m: MatM) -> int:
    cyc = cyclicity(m)
    ok, cert = is_cluster_cyclic(m)
    if not ok:
        hit = mu_orbit_search_acyclic(m, depth=args.depth, entry_bound=args.entry_bound)
        if hit is not None:
            cert = cert._replace(witness_path=hit[0])
    fixed = m.is_positive() and is_fixed_point(m)
    payload = {"matrix": str(m), "cyclicity": cyc.value}
    payload.update(cert.to_json())
    payload["fixed_point"] = fixed
    payload["caps"] = {"depth": args.depth, "entry_bound": args.entry_bound}
    lines = [
        f"matrix: {m}",
        f"cyclicity: {cyc.value}",
        f"decision: {cert.decision}",
        f"markov: {cert.markov}",
        "products: " + " ".join(str(p) for p in cert.products),
    ]
    if cert.violated is not None:
        lines.append(f"violated: {cert.violated}")
    if cert.witness_path is not None:
        lines.append("witness path: " + " ".join(str(i) for i in cert.witness_path))
    lines.append(f"fixed point: {'yes' if fixed else 'no'}")
    return _emit(args, payload, lines)


def _classify_triple(args, s: TripleS) -> int:
    cls = mk_class(s)
    payload = {"triple": str(s), "backend": s.backend, "class": cls.value}
    lines = [f"triple: {s}", f"backend: {s.backend}", f"class: {cls.value}"]
    c = markov_c_s(s)
    payload["markov"] = c
    lines.append(f"markov: {c}")
    gate = is_cluster_positive(s)
    payload["cluster_positive"] = gate
    lines.append(f"cluster positive: {'yes' if gate else 'no'}")
    if gate:
        outcome = ab_class(s, cap=args.cap)
        ab: dict = {"kind": outcome.kind.value, "iterations": outcome.iterations}
        lines.append(f"case: {outcome.kind.value} after {outcome.iterations} descent steps")
        if outcome.kind is ABKind.A:
            ab["representative"] = str(outcome.representative)
            ab["path"] = outcome.path.to_json()
            lines.append(f"representative: {outcome.representative}")
            lines.append("path: " + " ".join(str(i) for i in outcome.path))
        else:
            ab["limit"] = list(outcome.limit)
            lines.append("limit: 2 2 2")
        payload["ab"] = ab
    payload["caps"] = {"descent_cap": args.cap}
    return _emit(args, payload, lines)


def _cmd_classify(args) -> int:
    text = args.input.strip()
    if not text.startswith("[") and "," in text:
        return _classify_triple(args, _parse_triple(text))
    return _classify_matrix(args, MatM.parse(text))


# -- orbit machinery ---------------------------------------------------


def _cmd_reduce(args) -> int:
    report = reduce_to_fundamental(MatM.parse(args.matrix))
    payload = report.to_json()
    lines = [
        f"representative: {report.representative}",
        "path: " + " ".join(str(i) for i in report.path),
        f"explored: {report.explored}",
        f"minimal certified: {'yes' if report.is_minimal_certified else 'no'}",
    ]
    return _emit(args, payload, lines)


def _cmd_orbit(args) -> int:
    result = orbit_bfs(MatM.parse(args.matrix), depth=args.depth, entry_bound=args.entry_bound)
    payload = result.to_json()
    lines = [f"count: {len(result.members)}", f"pruned: {result.pruned}"]
    lines.extend(payload["members"])
    return _emit(args, payload, lines)


def _cmd_lift(args) -> int:
    s = TripleS.parse(args.triple)
    m = lift_to_matm(s)
    return _emit(args, {"triple": str(s), "lift": str(m)}, [str(m)])


# -- enumeration -------------------------------------------------------


def _cmd_enumerate(args) -> int:
    reps = enumerate_m1(args.markov, p_square_cap=args.p_square_cap)
    payload = [r.to_json() for r in reps]
    rows = [("p", "q", "r", "C")]
    for r in reps:
        p, q, rr = r.triple.entries()
        rows.append((str(p), str(q), str(rr), str(r.markov)))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return _emit(args, payload, lines)


def _cmd_witness(args) -> int:
    w = surjectivity_witness(args.markov)
    c = markov_c_s(w)
    lift = lift_to_matm(w)
    payload = {"triple": str(w), "markov": c, "lift": str(lift)}
    lines = [f"triple: {w}", f"markov: {c}", f"lift: {lift}"]
    return _emit(args, payload, lines)


def _cmd_fixed_points(args) -> int:
    pts = sorted(integer_fixed_points(), key=lambda m: m.entries())
    payload = [str(m) for m in pts]
    return _emit(args, payload, payload)


def _cmd_chebyshev(args) -> int:
    r = _parse_scalar(args.r)
    value = chebyshev_u(args.n, r)
    if isinstance(value, Surd):
        payload = {"n": args.n, "r": str(r), "u": value.to_json(), "text": str(value)}
    else:
        payload = {"n": args.n, "r": r, "u": value}
    return _emit(args, payload, [str(value)])


# -- sweep -------------------------------------------------------------


def _sweep_counts(max_entry: int) -> tuple[int, int]:
    """Tally the cluster-cyclicity decision over every positive matrix
    with entries <= max_entry. Matrices are grouped by the product
    xyz = x'y'z', so each bucket pairs freely."""
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for t in itertools.product(range(1, max_entry + 1), repeat=3):
        buckets.setdefault(t[0] * t[1] * t[2], []).append(t)
    cyc = acyc = 0
    for bottoms in buckets.values():
        for top in bottoms:
            for bottom in bottoms:
                if is_cluster_cyclic(MatM(*top, *bottom))[0]:
                    cyc += 1
                else:
                    acyc += 1
    return cyc, acyc


def _cmd_sweep(args) -> int:
    if args.max_entry < 1:
        raise DomainError(f"--max-entry must be at least 1, got {args.max_entry}")
    if args.max_entry > SWEEP_CAP:
        raise ResourceError(f"--max-entry {args.max_entry} exceeds SWEEP_CAP = {SWEEP_CAP}")
    cyc, acyc = _sweep_counts(args.max_entry)
    payload = {
        "max_entry": args.max_entry,
        "total": cyc + acyc,
        "cluster_cyclic": cyc,
        "cluster_acyclic": acyc,
    }
    lines = [
        f"positive matrices with entries <= {args.max_entry}: {cyc + acyc}",
        f"cluster-cyclic: {cyc}",
        f"cluster-acyclic: {acyc}",
    ]
    return _emit(args, payload, lines)


# -- parser ------------------------------------------------------------


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _add_search_caps(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--depth", type=int, default=DEFAULT_DEPTH,
        help="breadth-first word-length bound (default: %(default)s)",
    )
    p.add_argument(
        "--entry-bound", type=int, default=DEFAULT_ENTRY_BOUND,
        help="prune branches whose entries exceed this (default: %(default)s)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markov-mutator",
        description=(
            "Exact mutation engine for rank-3 skew-symmetrizable matrices: "
            "cluster-cyclicity decisions, orbit reduction and enumeration."
        ),
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify",
        help="classify a matrix (cyclicity, cluster-cyclicity) or a triple (M-class, case A/B)",
        epilog=_EPILOG,
    )
    p.add_argument("input", help="matrix 'x y z / x\\' y\\' z\\'', 3x3 JSON, or triple 'p, q, r'")
    _add_json(p)
    _add_search_caps(p)
    p.add_argument(
        "--cap", type=int, default=DESCENT_CAP,
        help="descent iteration cap for triples (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("reduce", help="descend a cluster-cyclic matrix to its orbit minimum")
    p.add_argument("matrix")
    _add_json(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("orbit", help="breadth-first orbit enumeration with caps", epilog=_EPILOG)
    p.add_argument("matrix")
    _add_json(p)
    _add_search_caps(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser(
        "enumerate",
        help="all descent-minimal triples with integer squares and a given constant",
    )
    p.add_argument("--markov", type=int, required=True, help="target constant, at most 4")
    p.add_argument(
        "--p-square-cap", type=int, default=None,
        help="cap on p^2; mandatory for --markov 4 (infinite family)",
    )
    _add_json(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("witness", help="a triple attaining a given constant, with its lift")
    p.add_argument("--markov", type=int, required=True, help="target constant, at most 4")
    _add_json(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("fixed-points", help="all positive integer matrices fixed by every gamma")
    _add_json(p)
    p.set_defaults(func=_cmd_fixed_points)

    p = sub.add_parser("lift", help="integer matrix whose skew-symmetrization is the triple")
    p.add_argument("triple", help="exact triple, e.g. '5, 2*sqrt(5), sqrt(5)'")
    _add_json(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("chebyshev", help="u_n(r) with u_0 = 1, u_1 = r, u_{n+1} = r u_n - u_{n-1}")
    p.add_argument("n", type=int)
    p.add_argument("r", help="surd like 'sqrt(5)' or a float")
    _add_json(p)
    p.set_defaults(func=_cmd_chebyshev)

    p = sub.add_parser(
        "sweep",
        help="classify every positive matrix with entries up to a bound and tally decisions",
    )
    p.add_argument("--max-entry", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch argv and return the exit code; output goes to stdout/stderr."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
