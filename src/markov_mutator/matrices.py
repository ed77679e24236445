"""Skew-symmetrizable 3x3 matrices in six-tuple form and the maps on them.

A matrix

    B = [[ 0,  -z',  y ],
         [ z,   0,  -x'],
         [-y',  x,   0 ]]

is recorded as the tuple M = (x, y, z, x', y', z'). Validity means
xyz = x'y'z' and each of the pairs (x, x'), (y, y'), (z, z') shares a
sign. The triple form carries (p, q, r) with p = sign(x) * sqrt(x x')
and so on, either exactly (Surd entries) or approximately (floats).

Matrix mutation mu_k is the sign-dependent transformation

    b'_ij = -b_ij                                   if i = k or j = k,
    b'_ij = b_ij + b_ik [b_kj]_+ + [-b_ik]_+ b_kj   otherwise,

an involution. The maps gamma_k below are given by fixed polynomial
formulas; on cyclic matrices gamma_k = -mu_k, and the formulas are kept
total so orbit code can apply them to anything.

Exact triples are worked on in plain integers: entry i is
ks[i] * sqrt(ds[i]) with a signed coefficient and a squarefree radicand,
and t = pqr. The direction test (_exact_directions) and the gamma step
(_gamma_step) work on (ks, ds, t) alone. _exact_triple is the one way
from coefficients back to a TripleS: TripleS.parse feeds it the (k, d)
pairs of surd._parse_kd, gamma_s and the exact descent feed it their
results, and the public constructor hands it the coefficients of its
Surd entries. It checks the 64-bit widths of the entries, computes pqr
and raises NotInShat when pqr is not an integer.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Iterator, Sequence, Union

from .errors import NotInShat, OverflowLimitError, ProductMismatch, SignMismatch, ensure_int64
from .surd import Surd, _parse_kd, _render, _surd, surd_from_integer_square
from .value import Value

__all__ = [
    "CyclicityClass",
    "MatM",
    "MutationPath",
    "TripleS",
    "gamma_m",
    "gamma_s",
    "markov_c_m",
    "markov_c_m_abs",
    "markov_c_s",
    "mutate",
    "permute",
    "sk",
]

SixTuple = tuple[int, int, int, int, int, int]


class CyclicityClass(Enum):
    """Sign pattern of the six entries."""

    POSITIVE_CYCLIC = "positive-cyclic"
    NEGATIVE_CYCLIC = "negative-cyclic"
    ACYCLIC = "acyclic"


def _sgn(a) -> int:
    return (a > 0) - (a < 0)


class MatM(Value):
    """Validated six-tuple (x, y, z, x', y', z') with 64-bit entries."""

    __slots__ = ("x", "y", "z", "xp", "yp", "zp")
    x: int
    y: int
    z: int
    xp: int
    yp: int
    zp: int

    def __init__(self, x: int, y: int, z: int, xp: int, yp: int, zp: int) -> None:
        for name, e in zip(("x", "y", "z", "x'", "y'", "z'"), (x, y, z, xp, yp, zp)):
            if not isinstance(e, int):
                raise TypeError(f"entry {name} must be an integer, got {type(e).__name__}")
            ensure_int64(e, f"matrix entry {name}")
        if x * y * z != xp * yp * zp:
            raise ProductMismatch(f"xyz = {x * y * z} but x'y'z' = {xp * yp * zp}")
        for name, a, b in (("x", x, xp), ("y", y, yp), ("z", z, zp)):
            if _sgn(a) != _sgn(b):
                raise SignMismatch(f"column {name} mixes signs: ({a}, {b})")
        for slot, e in zip(MatM.__slots__, (x, y, z, xp, yp, zp)):
            object.__setattr__(self, slot, e)

    def entries(self) -> SixTuple:
        return (self.x, self.y, self.z, self.xp, self.yp, self.zp)

    def columns(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        return ((self.x, self.xp), (self.y, self.yp), (self.z, self.zp))

    def is_positive(self) -> bool:
        return all(e > 0 for e in self.entries())

    def transpose(self) -> MatM:
        return MatM(self.xp, self.yp, self.zp, self.x, self.y, self.z)

    # -- 3x3 matrix form ----------------------------------------------

    def to_matrix(self) -> list[list[int]]:
        x, y, z, xp, yp, zp = self.entries()
        return [[0, -zp, y], [z, 0, -xp], [-yp, x, 0]]

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[int]]) -> MatM:
        """Build from a row-major 3x3 matrix, validating skew-symmetrizability."""
        if len(rows) != 3 or any(not isinstance(r, (list, tuple)) or len(r) != 3 for r in rows):
            raise ValueError("expected a 3x3 matrix")
        b = []
        for r in rows:
            row = []
            for e in r:
                if isinstance(e, bool) or not isinstance(e, (int, float)):
                    raise ValueError(f"matrix entries must be integers, got {e!r}")
                if isinstance(e, float) and not e.is_integer():
                    raise ValueError(f"matrix entries must be integers, got {e!r}")
                row.append(int(e))
            b.append(row)
        if any(b[i][i] != 0 for i in range(3)):
            raise SignMismatch("diagonal entries must be zero")
        return cls(x=b[2][1], y=b[0][2], z=b[1][0], xp=-b[1][2], yp=-b[2][0], zp=-b[0][1])

    # -- text and JSON ------------------------------------------------

    def __str__(self) -> str:
        return f"{self.x} {self.y} {self.z} / {self.xp} {self.yp} {self.zp}"

    @classmethod
    def parse(cls, text: str) -> MatM:
        """Parse either 'x y z / x' y' z'' or a row-major 3x3 JSON matrix."""
        stripped = text.strip()
        if stripped.startswith("["):
            import json

            try:
                rows = json.loads(stripped)
            except RecursionError as exc:
                raise ValueError("matrix JSON nests too deeply") from exc
            return cls.from_matrix(rows)
        parts = stripped.split("/")
        if len(parts) != 2:
            raise ValueError(f"expected 'x y z / x' y' z'', got {text!r}")
        try:
            top = [int(t) for t in parts[0].split()]
            bottom = [int(t) for t in parts[1].split()]
        except ValueError as exc:
            raise ValueError(f"non-integer entry in {text!r}") from exc
        if len(top) != 3 or len(bottom) != 3:
            raise ValueError(f"expected three entries per row in {text!r}")
        return cls(*top, *bottom)

    def to_json(self) -> dict:
        return {"tuple": str(self), "entries": list(self.entries())}


def _exact_triple(pairs: Iterable[tuple[int, int]]) -> TripleS:
    """The exact triple whose entries are k * sqrt(d) for three (k, d) pairs.

    Every d is squarefree. Each entry is built by surd._surd, which checks
    its 64-bit widths, before the next pair is read, so a lazily parsed
    entry fails in order. pqr is multiplied in plain integers, the
    radicands one at a time with their gcd taken out as Surd
    multiplication does, and nothing is held to 64 bits; a pqr that is
    not an integer raises NotInShat.
    """
    entries = []
    coeff = rad = 1
    for k, d in pairs:
        entries.append(_surd(k, d))
        g = math.gcd(rad, d)
        coeff *= k * g
        rad = (rad // g) * (d // g)
    p, q, r = entries
    if coeff and rad != 1:
        raise NotInShat(
            f"pqr = {_render(coeff, rad)} is not an integer; ({p}, {q}, {r}) has no integer lift"
        )
    s = object.__new__(TripleS)
    object.__setattr__(s, "p", p)
    object.__setattr__(s, "q", q)
    object.__setattr__(s, "r", r)
    object.__setattr__(s, "pqr", coeff)
    return s


class TripleS(Value):
    """Ordered triple (p, q, r), exact (Surd entries) or float, never mixed.

    The exact backend requires integer entry squares by construction and
    checks that pqr is an integer; the float backend accepts any finite
    real numbers.
    The product is kept in pqr: an unbounded int for the exact backend,
    whose entries alone are held to 64 bits, and a float otherwise.
    Equality, the hash and repr read p, q and r only.
    """

    __slots__ = ("p", "q", "r", "pqr")
    _fields = ("p", "q", "r")
    p: Union[Surd, float]
    q: Union[Surd, float]
    r: Union[Surd, float]
    pqr: Union[int, float]

    def __init__(self, p: Union[Surd, float], q: Union[Surd, float], r: Union[Surd, float]) -> None:
        kinds = {isinstance(e, Surd) for e in (p, q, r)}
        if len(kinds) != 1:
            raise TypeError("triple entries must be all Surd or all float, not mixed")
        if kinds == {True}:
            exact = _exact_triple((e.k, e.radicand) for e in (p, q, r))
            p, q, r, pqr = exact.p, exact.q, exact.r, exact.pqr
        else:
            for e in (p, q, r):
                if not isinstance(e, (int, float)) or isinstance(e, bool):
                    raise TypeError(f"float-backend entry must be a real number, got {e!r}")
                if not math.isfinite(e):
                    raise ValueError(f"float-backend entry must be finite, got {e!r}")
            p, q, r = float(p), float(q), float(r)
            pqr = p * q * r
        for slot, e in zip(TripleS.__slots__, (p, q, r, pqr)):
            object.__setattr__(self, slot, e)

    @classmethod
    def exact(cls, p: Surd, q: Surd, r: Surd) -> TripleS:
        return cls(p, q, r)

    @classmethod
    def approx(cls, p: float, q: float, r: float) -> TripleS:
        return cls(float(p), float(q), float(r))

    @property
    def backend(self) -> str:
        return "exact" if isinstance(self.p, Surd) else "float"

    def entries(self) -> tuple:
        return (self.p, self.q, self.r)

    def is_positive(self) -> bool:
        return all(e > 0 for e in self.entries())

    def as_floats(self) -> tuple[float, float, float]:
        return tuple(float(e) for e in self.entries())

    def __str__(self) -> str:
        return ", ".join(str(e) for e in self.entries())

    @classmethod
    def parse(cls, text: str) -> TripleS:
        """Parse comma-separated surd expressions, e.g. '5, 2*sqrt(5), sqrt(5)'."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated entries, got {text!r}")
        return _exact_triple(_parse_kd(part.strip()) for part in parts)

    def to_json(self) -> dict:
        if self.backend == "exact":
            return {
                "text": str(self),
                "entries": [e.to_json() for e in self.entries()],
            }
        return {"entries": list(self.entries())}


class MutationPath(Value):
    """A finite word over {1, 2, 3} with no two consecutive letters equal."""

    __slots__ = ("indices",)
    indices: tuple[int, ...]

    def __init__(self, indices: Sequence[int] = ()) -> None:
        indices = tuple(int(i) for i in indices)
        for i in indices:
            if i not in (1, 2, 3):
                raise ValueError(f"path index {i} is not in {{1, 2, 3}}")
        for a, b in zip(indices, indices[1:]):
            if a == b:
                raise ValueError(f"path {indices} repeats index {a} consecutively")
        object.__setattr__(self, "indices", indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def reversed(self) -> MutationPath:
        return MutationPath(tuple(reversed(self.indices)))

    def to_json(self) -> list[int]:
        return list(self.indices)


# -- tuple-level kernels (hot paths work on plain six-tuples) ----------


def _pos(a: int) -> int:
    return a if a > 0 else 0


def mutate_tuple(t: SixTuple, k: int) -> SixTuple:
    """Matrix mutation mu_k on a raw six-tuple; no validity or width checks."""
    x, y, z, xp, yp, zp = t
    if k == 1:
        return (
            x - yp * _pos(-zp) - _pos(yp) * zp,
            -y,
            -z,
            xp - z * _pos(y) - _pos(-z) * y,
            -yp,
            -zp,
        )
    if k == 2:
        return (
            -x,
            y - zp * _pos(-xp) - _pos(zp) * xp,
            -z,
            -xp,
            yp - x * _pos(z) - _pos(-x) * z,
            -zp,
        )
    if k == 3:
        return (
            -x,
            -y,
            z - xp * _pos(-yp) - _pos(xp) * yp,
            -xp,
            -yp,
            zp - y * _pos(x) - _pos(-y) * x,
        )
    raise ValueError(f"mutation index must be 1, 2 or 3, got {k}")


def gamma_tuple(t: SixTuple, k: int) -> SixTuple:
    """The gamma_k polynomial formulas on a raw six-tuple."""
    x, y, z, xp, yp, zp = t
    if k == 1:
        return (yp * zp - x, y, z, y * z - xp, yp, zp)
    if k == 2:
        return (x, zp * xp - y, z, xp, z * x - yp, zp)
    if k == 3:
        return (x, y, xp * yp - z, xp, yp, x * y - zp)
    raise ValueError(f"gamma index must be 1, 2 or 3, got {k}")


# -- exact triples in plain integers -----------------------------------


def _coefficients(s: TripleS) -> tuple[list[int], list[int]]:
    return [e.k for e in s.entries()], [e.radicand for e in s.entries()]


def _exact_directions(ks: Sequence[int], ds: Sequence[int], t: int) -> list[bool]:
    """For each entry i: is s_i <= gamma_i(s), i.e. 2 s_i <= the product of the others?

    Entry i is ks[i] * sqrt(ds[i]) and t = pqr. Only ks[i]**2 * ds[i] and the
    sign of ks[i] are read, so ds need not be squarefree: a positive matrix
    is ks = (1, 1, 1), ds = (xx', yy', zz'), t = xyz. For s_i != 0 the product
    of the others is t / s_i, so the test is sign(s_i) (t - 2 s_i^2) >= 0;
    for s_i = 0 it is the sign of that product.
    """
    flags = []
    for i in (0, 1, 2):
        k = ks[i]
        if k:
            twice = 2 * k * k * ds[i]
            flags.append(t >= twice if k > 0 else t <= twice)
        else:
            flags.append(ks[i - 1] * ks[i - 2] >= 0)
    return flags


def _gamma_step(ks: list[int], ds: Sequence[int], t: int, i: int) -> int:
    """gamma on nonzero entry i, in place; returns the new product.

    The product of the other two entries is t / (ks[i] sqrt(ds[i])), which
    is (t // (ks[i] ds[i])) sqrt(ds[i]) by an exact division, so the new
    entry keeps radicand ds[i]. The new product is the product of the
    other two squares minus t. Nothing is held to 64 bits here: a descent
    step only shrinks the entry, and _exact_triple checks the width of
    what gamma_s returns.
    """
    k = ks[i]
    ks[i] = t // (k * ds[i]) - k
    a, b = ks[i - 2], ks[i - 1]
    return a * a * ds[i - 2] * b * b * ds[i - 1] - t


def mutate(b: MatM, k: int) -> MatM:
    """The mutation mu_k, defined for cyclic and acyclic inputs alike."""
    return MatM(*mutate_tuple(b.entries(), k))


def gamma_m(m: MatM, k: int) -> MatM:
    """gamma_k on a six-tuple; equals -mu_k on cyclic inputs, formal elsewhere."""
    return MatM(*gamma_tuple(m.entries(), k))


def gamma_s(s: TripleS, k: int) -> TripleS:
    """gamma_k on a triple: one entry is replaced by (product of the others) - itself."""
    if k not in (1, 2, 3):
        raise ValueError(f"gamma index must be 1, 2 or 3, got {k}")
    i = k - 1
    entries = list(s.entries())
    if isinstance(s.p, Surd) and entries[i].k:
        ks, ds = _coefficients(s)
        _gamma_step(ks, ds, s.pqr, i)
        return _exact_triple(zip(ks, ds))
    # Floats, and an exact zero entry, which takes the others' radicand.
    entries[i] = entries[i - 2] * entries[i - 1] - entries[i]
    return TripleS(*entries)


def sk(m: MatM) -> TripleS:
    """The double-sided skew-symmetrization: entry signs times sqrt of column products.

    sqrt(aa') is taken as sqrt(|a|) * sqrt(|a'|), so square roots are only
    split from 64-bit entries, never from their product.
    """
    entries = []
    for a, b in m.columns():
        root = surd_from_integer_square(abs(a)) * surd_from_integer_square(abs(b))
        entries.append(root if a >= 0 else -root)
    return TripleS(*entries)


def markov_c_m(m: MatM) -> int:
    """xx' + yy' + zz' - xyz, the form invariant under every gamma_k."""
    return m.x * m.xp + m.y * m.yp + m.z * m.zp - m.x * m.y * m.z


def markov_c_m_abs(m: MatM) -> int:
    """xx' + yy' + zz' - |xyz|, the cyclic-matrix convention.

    Agrees with markov_c_m on positive matrices. It is the quantity the
    cluster-cyclicity criterion bounds, but it is not preserved by a
    mutation that crosses from cyclic to acyclic.
    """
    return m.x * m.xp + m.y * m.yp + m.z * m.zp - abs(m.x * m.y * m.z)


def markov_c_s(s: TripleS):
    """p^2 + q^2 + r^2 - pqr; an exact integer for the exact backend.

    A float result that is not finite raises OverflowLimitError.
    """
    p, q, r = s.entries()
    if isinstance(p, Surd):
        return p.square() + q.square() + r.square() - s.pqr
    c = p * p + q * q + r * r - s.pqr
    if not math.isfinite(c):
        raise OverflowLimitError(f"p^2 + q^2 + r^2 - pqr of ({s}) overflows the float range")
    return c


_PERMS = {
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
}


def permute(m: Union[MatM, TripleS], sigma: Sequence[int], transpose: bool = False):
    """Permute the three columns by sigma; optionally swap the tuple rows.

    Position i of the result holds column sigma[i] of the input
    (1-based). Transposition is only meaningful for MatM; on triples it
    is the identity, and asking for it raises.
    """
    sig = tuple(int(i) for i in sigma)
    if sig not in _PERMS:
        raise ValueError(f"sigma must be a permutation of (1, 2, 3), got {sigma!r}")
    if isinstance(m, MatM):
        cols = m.columns()
        picked = [cols[i - 1] for i in sig]
        out = MatM(
            picked[0][0], picked[1][0], picked[2][0],
            picked[0][1], picked[1][1], picked[2][1],
        )
        return out.transpose() if transpose else out
    if isinstance(m, TripleS):
        if transpose:
            raise ValueError("transpose does not act on triples")
        ent = m.entries()
        return TripleS(*(ent[i - 1] for i in sig))
    raise TypeError(f"cannot permute {type(m).__name__}")
