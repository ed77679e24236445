"""Value semantics of the package's records: equality and hashing by fields,
immutability, keyword construction, repr and pickling.

Surd, MatM, TripleS (exact and float), MutationPath and M1Representative
are validated classes on a shared immutable base; ABClass, CyclicityCertificate,
OrbitReport and OrbitBfsResult are named tuples.
"""

import copy
import pickle

import pytest

from markov_mutator.classify import (
    ABClass,
    ABKind,
    CyclicityCertificate,
    ab_class,
    is_cluster_cyclic,
)
from markov_mutator.enumeration import M1Representative
from markov_mutator.matrices import MatM, MutationPath, TripleS
from markov_mutator.orbits import OrbitBfsResult, OrbitReport, orbit_bfs, reduce_to_fundamental
from markov_mutator.surd import Surd

# name: (compared fields, factory, factory of a value that differs). Each
# factory builds a fresh instance per call, so equal values are never the
# same object.
CASES = {
    "Surd": (("k", "radicand"), lambda: Surd(2, 5), lambda: Surd(3, 5)),
    "MatM": (
        ("x", "y", "z", "xp", "yp", "zp"),
        lambda: MatM(6, 3, 3, 6, 3, 3),
        lambda: MatM(3, 3, 3, 3, 3, 3),
    ),
    "TripleS": (
        ("p", "q", "r"),
        lambda: TripleS.parse("5, 2*sqrt(5), sqrt(5)"),
        lambda: TripleS.parse("3, 3, 3"),
    ),
    "TripleS-float": (
        ("p", "q", "r"),
        lambda: TripleS.approx(2.5, 2.5, 2.5),
        lambda: TripleS.approx(3.0, 3.0, 3.0),
    ),
    "MutationPath": (("indices",), lambda: MutationPath((1, 2, 1)), lambda: MutationPath((1, 2))),
    "M1Representative": (
        ("triple", "squares", "markov"),
        lambda: M1Representative.from_squares(9, 9, 9, 0),
        lambda: M1Representative.from_squares(16, 8, 8, 0),
    ),
    "ABClass": (
        ("kind", "path", "iterations", "representative", "limit"),
        lambda: ab_class(TripleS.parse("6, 15, 3")),
        lambda: ab_class(TripleS.parse("3, 3, 3")),
    ),
    "CyclicityCertificate": (
        ("decision", "markov", "products", "violated"),
        lambda: is_cluster_cyclic(MatM(6, 3, 3, 6, 3, 3))[1],
        lambda: is_cluster_cyclic(MatM(1, 1, 1, 1, 1, 1))[1],
    ),
    "OrbitReport": (
        ("representative", "path", "explored", "is_minimal_certified"),
        lambda: reduce_to_fundamental(MatM(6, 3, 3, 6, 3, 3)),
        lambda: reduce_to_fundamental(MatM(3, 3, 3, 3, 3, 3)),
    ),
    "OrbitBfsResult": (
        ("members", "pruned", "depth", "entry_bound"),
        lambda: orbit_bfs(MatM(3, 3, 3, 3, 3, 3), depth=2),
        lambda: orbit_bfs(MatM(3, 3, 3, 3, 3, 3), depth=1),
    ),
}
VALIDATED = ["Surd", "MatM", "TripleS", "TripleS-float", "MutationPath", "M1Representative"]


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_mean_equal_values_and_hashes(name):
    _, make, other = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and not a == other()
    assert len({a, b, other()}) == 2


@pytest.mark.parametrize("name", CASES)
def test_a_different_type_compares_unequal(name):
    a = CASES[name][1]()
    assert a != object()
    assert a != str(a)
    assert a != None  # noqa: E711


@pytest.mark.parametrize("name", VALIDATED)
def test_validated_value_is_not_the_tuple_of_its_fields(name):
    fields, make, _ = CASES[name]
    a = make()
    assert a != tuple(getattr(a, f) for f in fields)


@pytest.mark.parametrize("name", CASES)
def test_assigning_a_field_raises(name):
    fields, make, _ = CASES[name]
    a = make()
    for field in fields:
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, before)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) == before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_round_trip(name):
    a = CASES[name][1]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and type(b) is type(a)


@pytest.mark.parametrize("name", ["TripleS", "TripleS-float"])
def test_triple_stored_fields_are_read_only(name):
    """Beside its entries, a triple's stored ks, ds and pqr refuse assignment and deletion."""
    a = CASES[name][1]()
    for field in ("ks", "ds", "pqr", "p"):
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, before)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) == before


def test_duplicate_matrices_collapse_in_a_frozenset():
    members = frozenset([MatM(6, 3, 3, 6, 3, 3), MatM(3, 3, 3, 3, 3, 3), MatM(6, 3, 3, 6, 3, 3)])
    assert len(members) == 2
    assert MatM(3, 3, 3, 3, 3, 3) in members


def test_surd_ordering():
    values = [Surd(3, 1), Surd(-1, 2), Surd(0, 1), Surd(2, 3), Surd(1, 5)]
    assert [str(v) for v in sorted(values)] == ["-sqrt(2)", "0", "sqrt(5)", "3", "2*sqrt(3)"]
    assert Surd(1, 5) < Surd(3, 1) <= Surd(3, 1) < Surd(2, 3)
    assert Surd(2, 3) > 3 and Surd(2, 3) >= Surd.make(1, 12) and Surd(-1, 2) < 0


def test_triple_compares_on_entries_only():
    a = TripleS.approx(2.5, 2.5, 2.5)
    b = TripleS(2.5, 2.5, 2.5)
    assert a == b and hash(a) == hash(b)
    assert a.pqr == 2.5**3
    assert repr(TripleS.parse("3, 3, 3")) == (
        "TripleS(p=Surd(k=3, radicand=1), q=Surd(k=3, radicand=1), r=Surd(k=3, radicand=1))"
    )


def test_keyword_construction():
    assert MatM(x=6, y=3, z=3, xp=6, yp=3, zp=3) == MatM(6, 3, 3, 6, 3, 3)
    assert Surd(k=2, radicand=5) == Surd(2, 5)
    s = TripleS(p=Surd(3, 1), q=Surd(3, 1), r=Surd(3, 1))
    assert s == TripleS.parse("3, 3, 3") and s.pqr == 27
    assert MutationPath(indices=[1, 2]) == MutationPath((1, 2))
    assert MutationPath() == MutationPath(())
    rep = M1Representative(triple=s, squares=(9, 9, 9), markov=0)
    assert rep == M1Representative.from_squares(9, 9, 9, 0)
    result = OrbitBfsResult(
        members=frozenset([MatM(3, 3, 3, 3, 3, 3)]), pruned=0, depth=2, entry_bound=10
    )
    assert result == OrbitBfsResult(frozenset([MatM(3, 3, 3, 3, 3, 3)]), 0, 2, 10)
    report = OrbitReport(
        representative=MatM(3, 3, 3, 3, 3, 3),
        path=MutationPath(),
        explored=1,
        is_minimal_certified=True,
    )
    assert report == reduce_to_fundamental(MatM(3, 3, 3, 3, 3, 3))
    outcome = ABClass(kind=ABKind.A, path=MutationPath(), iterations=0, representative=s)
    assert outcome == ab_class(s) and outcome.limit is None
    cert = CyclicityCertificate(decision="cluster_cyclic", markov=0, products=(36, 9, 9))
    assert cert == is_cluster_cyclic(MatM(6, 3, 3, 6, 3, 3))[1]
    assert cert.violated is None


def test_repr_names_the_fields():
    assert repr(Surd(2, 5)) == "Surd(k=2, radicand=5)"
    assert repr(MatM(6, 3, 3, 6, 3, 3)) == "MatM(x=6, y=3, z=3, xp=6, yp=3, zp=3)"
    assert repr(MutationPath((1, 2))) == "MutationPath(indices=(1, 2))"
    assert repr(CyclicityCertificate("cluster_cyclic", 0, (36, 9, 9))) == (
        "CyclicityCertificate(decision='cluster_cyclic', markov=0, products=(36, 9, 9), "
        "violated=None)"
    )


def test_constructor_still_validates():
    with pytest.raises(ValueError):
        Surd(2, 4)
    with pytest.raises(ValueError):
        MutationPath((1, 1))
    with pytest.raises(TypeError):
        TripleS(Surd(1, 1), 1.0, 1.0)


def test_a_subclass_keeps_the_fields_and_compares_only_with_itself():
    class Tagged(MatM):
        __slots__ = ()

    a, b = Tagged(6, 3, 3, 6, 3, 3), Tagged(6, 3, 3, 6, 3, 3)
    assert a == b and hash(a) == hash(b)
    assert a != MatM(6, 3, 3, 6, 3, 3)
    assert repr(a).endswith("Tagged(x=6, y=3, z=3, xp=6, yp=3, zp=3)")
