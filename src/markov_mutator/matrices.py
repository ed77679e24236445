"""Skew-symmetrizable 3x3 matrices in six-tuple form and the maps on them.

A matrix

    B = [[ 0,  -z',  y ],
         [ z,   0,  -x'],
         [-y',  x,   0 ]]

is recorded as the tuple M = (x, y, z, x', y', z'). Validity means
xyz = x'y'z' and each of the pairs (x, x'), (y, y'), (z, z') shares a
sign. The triple form carries (p, q, r) with p = sign(x) * sqrt(x x')
and so on, either exactly (entries k * sqrt(d)) or approximately
(floats).

Matrix mutation mu_k is the sign-dependent transformation

    b'_ij = -b_ij                                   if i = k or j = k,
    b'_ij = b_ij + b_ik [b_kj]_+ + [-b_ik]_+ b_kj   otherwise,

an involution. The maps gamma_k below are given by fixed polynomial
formulas; on cyclic matrices gamma_k = -mu_k, and the formulas are kept
total so orbit code can apply them to anything.

An exact triple is held in plain integers and stores nothing else: ks,
the signed coefficients, ds, the squarefree radicands (1 for a zero
entry), and pqr, the unbounded integer product; entry i is
ks[i] * sqrt(ds[i]). Its p, q and r are read-only properties that build
a Surd when read. A float triple stores its floats in ks, None in ds and
their product in pqr. The direction test (_directions) reads this stored
layout of either backend, and gamma_s is the one gamma step on triples.
_descend is the one exact descent: it steps the squares of three entries and
their product, which classify.ab_class reads off a triple and
orbits.reduce_to_fundamental off a matrix's columns.
_exact_triple is the checked way in for (k, d) pairs: it checks the
widths of the entries (surd._check_widths), takes pqr from one isqrt of
the radicands' product and raises NotInShat when pqr is not an integer.
TripleS.parse splits the text at commas and feeds it the entries lazily,
each read by surd._parse_kd, the one reader of surd text, so the entries
fail in order.
_triple stores entries that are valid by construction as given, and
_path does the same for words; both set the slots by their member
descriptors. Every product of two exact values is surd._product on their
(k, d) pairs; no Surd arithmetic is done here.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    _WIDTH_HIGH,
    _WIDTH_LOW,
    DomainError,
    NotInShat,
    OverflowLimitError,
    ProductMismatch,
    SignMismatch,
    _int_repr,
    ensure_int,
    ensure_width,
)
from .surd import (
    _INT_TOKEN, Surd, _canonical, _check_widths, _parse_kd, _product, _read_int, _render, _surd,
)
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

_ENTRY_NAMES = ("x", "y", "z", "x'", "y'", "z'")


class CyclicityClass(Enum):
    """Sign pattern of the six entries."""

    POSITIVE_CYCLIC = "positive-cyclic"
    NEGATIVE_CYCLIC = "negative-cyclic"
    ACYCLIC = "acyclic"


def _sgn(a) -> int:
    return (a > 0) - (a < 0)


class MatM(Value):
    """Validated six-tuple (x, y, z, x', y', z'), each entry within errors.WIDTH_BITS."""

    __slots__ = ("x", "y", "z", "xp", "yp", "zp")
    x: int
    y: int
    z: int
    xp: int
    yp: int
    zp: int

    def __init__(self, x: int, y: int, z: int, xp: int, yp: int, zp: int) -> None:
        # the checks that raise, and the texts that name the entry, run only on a failure
        for name, e in zip(_ENTRY_NAMES, (x, y, z, xp, yp, zp)):
            if type(e) is not int or not _WIDTH_LOW < e < _WIDTH_HIGH:
                ensure_int(e, f"entry {name}")
                ensure_width(e, f"matrix entry {name}")
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

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[int]]) -> MatM:
        """Build from a row-major 3x3 matrix, validating skew-symmetrizability."""
        if len(rows) != 3 or any(not isinstance(r, (list, tuple)) or len(r) != 3 for r in rows):
            raise DomainError("expected a 3x3 matrix")
        b = []
        for r in rows:
            row = []
            for e in r:
                integral = isinstance(e, float) and e.is_integer()
                if isinstance(e, bool) or not (isinstance(e, int) or integral):
                    raise DomainError(f"matrix entries must be integers, got {e!r}")
                row.append(int(e))
            b.append(row)
        if any(b[i][i] != 0 for i in range(3)):
            raise SignMismatch("diagonal entries must be zero")
        return cls(x=b[2][1], y=b[0][2], z=b[1][0], xp=-b[1][2], yp=-b[2][0], zp=-b[0][1])

    def __str__(self) -> str:
        return f"{self.x} {self.y} {self.z} / {self.xp} {self.yp} {self.zp}"

    @classmethod
    def parse(cls, text: str) -> MatM:
        """Parse either 'x y z / x' y' z'' or a row-major 3x3 JSON matrix."""
        stripped = text.strip()
        if stripped.startswith("["):
            import json

            try:
                rows = json.loads(stripped, parse_int=lambda t: _read_int(t, "matrix entry"))
            except RecursionError as exc:
                raise DomainError("matrix JSON nests too deeply") from exc
            except ValueError as exc:  # malformed JSON
                raise DomainError(str(exc)) from exc
            return cls.from_matrix(rows)
        parts = stripped.split("/")
        if len(parts) != 2:
            raise DomainError(f"expected 'x y z / x' y' z'', got {text!r}")
        rows = [part.split() for part in parts]
        if not all(_INT_TOKEN.fullmatch(t) for row in rows for t in row):
            raise DomainError(f"non-integer entry in {text!r}")
        if len(rows[0]) != 3 or len(rows[1]) != 3:
            raise DomainError(f"expected three entries per row in {text!r}")
        return cls(*map(_read_int, rows[0] + rows[1], [f"matrix entry {n}" for n in _ENTRY_NAMES]))


def _exact_triple(pairs: Iterable[tuple[int, int]]) -> TripleS:
    """The exact triple whose entries are k * sqrt(d) for three (k, d) pairs.

    Every d is squarefree, and 1 where k is 0. The widths of each pair
    are checked before the next pair is read, so a lazily parsed entry
    fails in order. As the radicands are squarefree, pqr is an integer
    exactly when d0 d1 d2 is a square, and then it is
    k0 k1 k2 isqrt(d0 d1 d2), held in plain integers and not to the
    width; a pqr that is not an integer raises NotInShat, whose text folds
    the entries by surd._product.
    """
    ks, ds = [], []
    for k, d in pairs:
        _check_widths(k, d)
        ks.append(k)
        ds.append(d)
    k0, k1, k2 = ks
    coeff, rad = k0 * k1 * k2, ds[0] * ds[1] * ds[2]
    root = math.isqrt(rad)
    if coeff and root * root != rad:
        coeff, rad = _product(*_product(k0, ds[0], k1, ds[1]), k2, ds[2])
        entries = ", ".join(map(_render, ks, ds))
        raise NotInShat(
            f"pqr = {_render(coeff, rad)} is not an integer; ({entries}) has no integer lift"
        )
    return _triple(tuple(ks), tuple(ds), coeff * root)


def _triple(ks: tuple, ds: Optional[tuple[int, ...]], pqr: Union[int, float]) -> TripleS:
    """The triple storing ks, ds and pqr, which the caller vouches for.

    Nothing is checked; only the radicand of an exact zero entry is set to
    1, so that one value has one layout.
    """
    if ds is not None and 0 in ks:
        ds = tuple(d if k else 1 for k, d in zip(ks, ds))
    s = _new(TripleS)
    _set_ks(s, ks)
    _set_ds(s, ds)
    _set_pqr(s, pqr)
    return s


def _path(indices: tuple[int, ...]) -> MutationPath:
    """The path storing indices, which the caller vouches for: a descent word,
    valid by construction. Nothing is checked."""
    path = _new(MutationPath)
    _set_indices(path, indices)
    return path


def _finite_float(e) -> float:
    """float(e) for a float-backend entry: an int or a float, not a bool, and
    finite, which an int past the float range is not."""
    if not isinstance(e, (int, float)) or isinstance(e, bool):
        raise TypeError(f"float-backend entry must be a real number, got {e!r}")
    try:
        f = float(e)
        if math.isfinite(f):
            return f
        shown = repr(f)
    except OverflowError:
        shown = _int_repr(e)
    raise DomainError(f"float-backend entry must be finite, got {shown}")


class TripleS(Value):
    """Ordered triple (p, q, r), exact (entries k * sqrt(d)) or float, never mixed.

    An exact triple stores ks, its three signed integer coefficients, ds,
    their squarefree radicands (1 for a zero entry), and pqr, the product
    as an unbounded int; the entries alone are held to the width. It has
    integer entry squares by construction and an integer pqr, which
    construction checks. A float triple stores its three finite floats in
    ks, None in ds and their product in pqr; the backend is read off ds.
    p, q and r are read-only properties: on an exact triple each builds
    its Surd when read, on a float triple it is the stored float.
    Equality and the hash read the stored entries (ks and ds) only; repr,
    copy and pickle go through p, q and r.
    """

    __slots__ = ("ks", "ds", "pqr")
    _fields = ("p", "q", "r")
    _key = attrgetter("ks", "ds")
    ks: Union[tuple[int, int, int], tuple[float, float, float]]
    ds: Optional[tuple[int, int, int]]
    pqr: Union[int, float]

    def __init__(self, p: Union[Surd, float], q: Union[Surd, float], r: Union[Surd, float]) -> None:
        kinds = {isinstance(e, Surd) for e in (p, q, r)}
        if len(kinds) != 1:
            raise TypeError("triple entries must be all Surd or all float, not mixed")
        if kinds == {True}:
            exact = _exact_triple((e.k, e.radicand) for e in (p, q, r))
            ks, ds, pqr = exact.ks, exact.ds, exact.pqr
        else:
            ks, ds = (_finite_float(p), _finite_float(q), _finite_float(r)), None
            pqr = ks[0] * ks[1] * ks[2]
        for slot, value in zip(TripleS.__slots__, (ks, ds, pqr)):
            object.__setattr__(self, slot, value)

    def _entry(self, i: int) -> Union[Surd, float]:
        ds = self.ds
        return self.ks[i] if ds is None else _surd(self.ks[i], ds[i])

    p = property(lambda self: self._entry(0), doc="The first entry: a Surd, or a float.")
    q = property(lambda self: self._entry(1), doc="The second entry: a Surd, or a float.")
    r = property(lambda self: self._entry(2), doc="The third entry: a Surd, or a float.")

    @classmethod
    def exact(cls, p: Surd, q: Surd, r: Surd) -> TripleS:
        return cls(p, q, r)

    @classmethod
    def approx(cls, p: float, q: float, r: float) -> TripleS:
        return cls(_finite_float(p), _finite_float(q), _finite_float(r))

    @property
    def backend(self) -> str:
        return "float" if self.ds is None else "exact"

    def entries(self) -> tuple:
        ds = self.ds
        return self.ks if ds is None else tuple(map(_surd, self.ks, ds))

    def is_positive(self) -> bool:
        return all(k > 0 for k in self.ks)

    def as_floats(self) -> tuple[float, float, float]:
        return tuple(float(e) for e in self.entries())

    def __str__(self) -> str:
        return ", ".join(str(e) for e in self.entries())

    @classmethod
    def parse(cls, text: str) -> TripleS:
        """Parse comma-separated surd expressions, e.g. '5, 2*sqrt(5), sqrt(5)'.

        Each entry is stripped of the whitespace str.strip strips and read by
        surd._parse_kd, lazily: it is read after the widths of the one before it pass.
        """
        parts = text.split(",")
        if len(parts) != 3:
            raise DomainError(f"expected three comma-separated entries, got {text!r}")
        return _exact_triple(_parse_kd(part.strip()) for part in parts)


class MutationPath(Value):
    """A finite word over {1, 2, 3} with no two consecutive letters equal."""

    __slots__ = ("indices",)
    indices: tuple[int, ...]

    def __init__(self, indices: Sequence[int] = ()) -> None:
        indices = tuple(indices)
        for i in indices:
            if ensure_int(i, "path index") not in (1, 2, 3):
                raise DomainError(f"path index {_int_repr(i)} is not in {{1, 2, 3}}")
        for a, b in zip(indices, indices[1:]):
            if a == b:
                raise DomainError(f"path {indices} repeats index {a} consecutively")
        object.__setattr__(self, "indices", indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


# _triple and _path set slots by their member descriptors, as object.__setattr__
# would but without its lookup.
_new = object.__new__
_set_ks, _set_ds, _set_pqr = TripleS.ks.__set__, TripleS.ds.__set__, TripleS.pqr.__set__
_set_indices = MutationPath.indices.__set__


# -- tuple-level kernels (hot paths work on plain six-tuples) ----------


def _pos(a: int) -> int:
    return a if a > 0 else 0


def mutate_tuple(t: SixTuple, k: int) -> SixTuple:
    """Matrix mutation mu_k on a raw six-tuple; no validity or width checks. k is an
    int (errors.ensure_int) in {1, 2, 3}."""
    x, y, z, xp, yp, zp = t
    if type(k) is int:  # one type test a call; a bool or float index is refused below
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
    ensure_int(k, "mutation index")
    raise DomainError(f"mutation index must be 1, 2 or 3, got {_int_repr(k)}")


def gamma_tuple(t: SixTuple, k: int) -> SixTuple:
    """The gamma_k polynomial formulas on a raw six-tuple. k is an int
    (errors.ensure_int) in {1, 2, 3}."""
    x, y, z, xp, yp, zp = t
    if type(k) is int:  # one type test a call; a bool or float index is refused below
        if k == 1:
            return (yp * zp - x, y, z, y * z - xp, yp, zp)
        if k == 2:
            return (x, zp * xp - y, z, xp, z * x - yp, zp)
        if k == 3:
            return (x, y, xp * yp - z, xp, yp, x * y - zp)
    ensure_int(k, "gamma index")
    raise DomainError(f"gamma index must be 1, 2 or 3, got {_int_repr(k)}")


# -- the direction test on the stored triple layout --------------------


def _directions(
    ks: Sequence, ds: Optional[Sequence[int]], t: Union[int, float], rel_eps: float = 0.0
) -> list[bool]:
    """For each entry i: is s_i <= gamma_i(s), i.e. 2 s_i <= the product of the others?

    Exact: entry i is ks[i] * sqrt(ds[i]) and t = pqr. For s_i != 0 the
    product of the others is t / s_i, so the test is sign(s_i) (t - 2 s_i^2)
    >= 0; for s_i = 0 it is the sign of that product. rel_eps is ignored.

    Float (ds is None): the products of the other two entries are formed
    directly, and rel_eps is a relative slack so that noise-level
    differences count as non-decreasing; with rel_eps = 0 there is no
    slack, even on a product that overflows to inf.
    """
    if ds is None:
        flags = []
        for own, prod in zip(ks, (ks[1] * ks[2], ks[2] * ks[0], ks[0] * ks[1])):
            slack = rel_eps * max(1.0, abs(prod)) if rel_eps else 0.0
            flags.append(own * 2 <= prod + slack)
        return flags
    k0, k1, k2 = ks
    if k0 > 0 and k1 > 0 and k2 > 0:
        return [t >= 2 * k0 * k0 * ds[0], t >= 2 * k1 * k1 * ds[1], t >= 2 * k2 * k2 * ds[2]]
    flags = []
    for i in (0, 1, 2):
        k = ks[i]
        if k:
            twice = 2 * k * k * ds[i]
            flags.append(t >= twice if k > 0 else t <= twice)
        else:
            flags.append(ks[i - 1] * ks[i - 2] >= 0)
    return flags


def _descend(q0: int, q1: int, q2: int, t: int, cap: Union[int, float]):
    """The exact M1/M2/M3 descent on the squares q_i of three positive entries
    s_i and their product t; cap bounds the steps and may be math.inf.

    Direction i is non-decreasing when t >= 2 q_i, the rule of _directions for
    a positive entry. While exactly two are (M2), the third is stepped by gamma_i:
    s_i becomes t / s_i - s_i, whose square is q_j q_k - 2 t + q_i, and t
    becomes q_j q_k - t, with no division. A positive matrix's column products
    xx', yy', zz' and xyz follow the same rule. Returns the word, the last
    (q0, q1, q2, t) and its count of non-decreasing directions: 3 at M1, at
    most 1 at M3, and 2 once cap steps are taken. Squares hold no sign, but
    only the last-stepped entry can reach zero or below: t is then <= 0 and
    has its sign, and the directions of the other two entries decrease, so
    the loop stops there, at M3.
    """
    word: list[int] = []
    while True:
        f0, f1, f2 = t >= 2 * q0, t >= 2 * q1, t >= 2 * q2
        if f0 + f1 + f2 != 2 or len(word) >= cap:
            return word, (q0, q1, q2, t), f0 + f1 + f2
        if not f0:
            q0, t = q0 + q1 * q2 - 2 * t, q1 * q2 - t
            word.append(1)
        elif not f1:
            q1, t = q1 + q2 * q0 - 2 * t, q2 * q0 - t
            word.append(2)
        else:
            q2, t = q2 + q0 * q1 - 2 * t, q0 * q1 - t
            word.append(3)


def mutate(b: MatM, k: int) -> MatM:
    """The mutation mu_k, defined for cyclic and acyclic inputs alike."""
    return MatM(*mutate_tuple(b.entries(), k))


def gamma_m(m: MatM, k: int) -> MatM:
    """gamma_k on a six-tuple; equals -mu_k on cyclic inputs, formal elsewhere."""
    return MatM(*gamma_tuple(m.entries(), k))


def gamma_s(s: TripleS, k: int) -> TripleS:
    """gamma_k on a triple: entry k is replaced by (product of the others) - itself.

    A float entry is formed so, and the new product is p * q * r in the
    order TripleS.approx multiplies; an entry that is not finite raises
    OverflowLimitError. An exact nonzero entry c sqrt(d) with pqr = t has
    the product of the others t / (c sqrt(d)) = (t // (c d)) sqrt(d), an
    exact division, so it becomes (t // (c d) - c) sqrt(d), and the new pqr
    is the product of the other two squares minus t; a new coefficient past
    the width raises the width check's OverflowLimitError. An exact zero entry
    becomes the product of the other two by surd._product, and the triple
    is rebuilt by _exact_triple, whose width check also covers the new
    radicand.
    """
    if ensure_int(k, "gamma index") not in (1, 2, 3):
        raise DomainError(f"gamma index must be 1, 2 or 3, got {_int_repr(k)}")
    i = k - 1
    ks, ds, t = list(s.ks), s.ds, s.pqr
    c = ks[i]
    if ds is None:
        ks[i] = ks[i - 2] * ks[i - 1] - c
        if not math.isfinite(ks[i]):
            raise OverflowLimitError(f"gamma_{k} of ({s}) overflows the float range")
        return _triple(tuple(ks), None, ks[0] * ks[1] * ks[2])
    if c:
        ks[i] = t // (c * ds[i]) - c
        _check_widths(ks[i], ds[i])  # a climb can leave the width
        a, b = ks[i - 2], ks[i - 1]
        return _triple(tuple(ks), ds, a * a * ds[i - 2] * b * b * ds[i - 1] - t)
    pairs = list(zip(ks, ds))
    pairs[i] = _product(*pairs[i - 2], *pairs[i - 1])
    return _exact_triple(pairs)


def sk(m: MatM) -> TripleS:
    """The double-sided skew-symmetrization: entry signs times sqrt of column products.

    With g = gcd(|a|, |a'|), or 1 for a zero column, sqrt(aa') is taken as
    g * sqrt(|a| / g) * sqrt(|a'| / g): the two cofactors are coprime, so
    each root is split on its own and surd._product multiplies them, and
    a common factor, however wide, is never split. _exact_triple checks the
    widths of the products, column by column.
    """
    return _exact_triple(
        _product(*_canonical(_sgn(a) * g, abs(a) // g), *_canonical(1, abs(b) // g))
        for a, b in m.columns()
        for g in (math.gcd(a, b) or 1,)
    )


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

    For the float backend, the constant of the literal floats, rounded once:
    it is formed exactly in integers over the common denominator of the
    entries' ratios, so it does not cancel. A constant past the float range
    raises OverflowLimitError.
    """
    ks, ds = s.ks, s.ds
    if ds is not None:
        return ks[0] * ks[0] * ds[0] + ks[1] * ks[1] * ds[1] + ks[2] * ks[2] * ds[2] - s.pqr
    (p, u), (q, v), (r, w) = (e.as_integer_ratio() for e in ks)
    numerator = (p * v * w) ** 2 + (q * u * w) ** 2 + (r * u * v) ** 2 - p * q * r * u * v * w
    try:
        return numerator / (u * v * w) ** 2
    except OverflowError:
        raise OverflowLimitError(f"p^2 + q^2 + r^2 - pqr of ({s}) overflows the float range")


_PERMS = {
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
}


def permute(m: Union[MatM, TripleS], sigma: Sequence[int]):
    """Permute the three columns by sigma: position i of the result holds column
    sigma[i] of the input (1-based). permute(m, sigma).transpose() also swaps a
    matrix's two tuple rows."""
    sig = tuple(sigma)
    if not all(type(i) is int for i in sig):
        raise TypeError(f"sigma must hold integers, got {_int_repr(sig)}")
    if sig not in _PERMS:
        raise DomainError(f"sigma must be a permutation of (1, 2, 3), got {_int_repr(sig)}")
    if isinstance(m, MatM):
        cols = m.columns()
        picked = [cols[i - 1] for i in sig]
        return MatM(
            picked[0][0], picked[1][0], picked[2][0],
            picked[0][1], picked[1][1], picked[2][1],
        )
    if isinstance(m, TripleS):
        ent = m.entries()
        return TripleS(*(ent[i - 1] for i in sig))
    raise TypeError(f"cannot permute {type(m).__name__}")
