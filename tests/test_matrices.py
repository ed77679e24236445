import json

import pytest
from hypothesis import given, strategies as st

from markov_mutator.errors import (
    NotInShat,
    OverflowLimitError,
    ProductMismatch,
    SignMismatch,
)
from markov_mutator.matrices import (
    CyclicityClass,
    MatM,
    MutationPath,
    TripleS,
    gamma_m,
    gamma_s,
    markov_c_m,
    markov_c_m_abs,
    markov_c_s,
    mutate,
    permute,
    sk,
)
from markov_mutator.surd import Surd

# Valid matrices come from the column construction (lu, mv, nw / lw, mu, nv),
# which hits every positive matrix with integer skew-symmetrization; sign
# flips per column and zeroed columns extend it off the positive locus.
_pos = st.integers(min_value=1, max_value=9)
_signs = st.sampled_from([1, -1])


@st.composite
def positive_mats(draw):
    l, m, n = draw(_pos), draw(_pos), draw(_pos)
    u, v, w = draw(_pos), draw(_pos), draw(_pos)
    return MatM(l * u, m * v, n * w, l * w, m * u, n * v)


@st.composite
def valid_mats(draw):
    base = draw(positive_mats())
    x, y, z, xp, yp, zp = base.entries()
    s1, s2, s3 = draw(_signs), draw(_signs), draw(_signs)
    cols = [[s1 * x, s1 * xp], [s2 * y, s2 * yp], [s3 * z, s3 * zp]]
    for i in range(3):
        if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
            cols[i] = [0, 0]
    return MatM(cols[0][0], cols[1][0], cols[2][0], cols[0][1], cols[1][1], cols[2][1])


cyclic_mats = valid_mats().filter(
    lambda m: all(e > 0 for e in m.entries()) or all(e < 0 for e in m.entries())
)


def test_tuple_matrix_correspondence():
    m = MatM(4, 1, 2, 1, 4, 2)
    assert m.to_matrix() == [[0, -2, 1], [2, 0, -1], [-4, 4, 0]]
    assert MatM.from_matrix(m.to_matrix()) == m


@given(valid_mats())
def test_matrix_round_trip(m):
    assert MatM.from_matrix(m.to_matrix()) == m


def test_validation_product_mismatch():
    with pytest.raises(ProductMismatch):
        MatM(1, 1, 1, 1, 1, 2)
    with pytest.raises(ProductMismatch):
        MatM(0, 1, 1, 1, 1, 1)


def test_validation_sign_mismatch():
    # products match (both -1) but column y pairs 1 with -1
    with pytest.raises(SignMismatch):
        MatM(1, 1, -1, 1, -1, 1)
    with pytest.raises(SignMismatch):
        MatM(0, 1, 1, 2, 1, 0)


def test_validation_int64():
    with pytest.raises(OverflowLimitError):
        MatM(1 << 63, 1, 1, 1, 1, 1)


def test_validation_type():
    with pytest.raises(TypeError):
        MatM(1.0, 1, 1, 1, 1, 1)


def test_parse_and_str():
    m = MatM.parse("5 10 1 / 5 2 5")
    assert m == MatM(5, 10, 1, 5, 2, 5)
    assert str(m) == "5 10 1 / 5 2 5"
    assert MatM.parse("[[0,-2,1],[2,0,-1],[-4,4,0]]") == MatM(4, 1, 2, 1, 4, 2)
    for bad in ["1 2 3", "1 2 / 3 4", "a b c / d e f", "[[0,1],[1,0]]", "[[0,1.5,1],[1,0,1],[1,1,0]]"]:
        with pytest.raises(ValueError):
            MatM.parse(bad)
    with pytest.raises(SignMismatch):
        MatM.parse("[[1,0,0],[0,1,0],[0,0,1]]")


def test_matm_json():
    m = MatM(4, 1, 2, 1, 4, 2)
    assert m.to_json() == {"tuple": "4 1 2 / 1 4 2", "entries": [4, 1, 2, 1, 4, 2]}
    assert json.loads(json.dumps(m.to_json()))["tuple"] == str(m)


# -- mutation ----------------------------------------------------------


def test_mutation_examples():
    fp = MatM(2, 2, 2, 2, 2, 2)
    assert mutate(fp, 1) == MatM(-2, -2, -2, -2, -2, -2)
    assert mutate(MatM(3, 3, 3, 3, 3, 3), 1) == MatM(-6, -3, -3, -6, -3, -3)
    with pytest.raises(ValueError):
        mutate(fp, 4)


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_mutation_involution(m, k):
    assert mutate(mutate(m, k), k) == m


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_mutation_preserves_validity(m, k):
    image = mutate(m, k)  # constructor re-checks both invariants
    assert image.x * image.y * image.z == image.xp * image.yp * image.zp


@given(positive_mats(), st.sampled_from([1, 2, 3]))
def test_gamma_is_negated_mutation_on_positive_cyclic(m, k):
    assert gamma_m(m, k).entries() == tuple(-e for e in mutate(m, k).entries())


def test_gamma_examples():
    assert gamma_m(MatM(4, 1, 2, 1, 4, 2), 1) == MatM(4, 1, 2, 1, 4, 2)
    assert gamma_m(MatM(3, 3, 3, 3, 3, 3), 1) == MatM(6, 3, 3, 6, 3, 3)


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_gamma_involution(m, k):
    assert gamma_m(gamma_m(m, k), k) == m


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_markov_constant_gamma_invariant(m, k):
    assert markov_c_m(gamma_m(m, k)) == markov_c_m(m)


@given(cyclic_mats, st.sampled_from([1, 2, 3]))
def test_markov_abs_invariant_on_cyclic_pairs(m, k):
    image = mutate(m, k)
    entries = image.entries()
    if all(e > 0 for e in entries) or all(e < 0 for e in entries):
        assert markov_c_m_abs(image) == markov_c_m_abs(m)


def test_markov_values():
    assert markov_c_m(MatM(2, 2, 2, 2, 2, 2)) == 4
    assert markov_c_m(MatM(3, 3, 3, 3, 3, 3)) == 0
    assert markov_c_m_abs(MatM(-3, -3, -3, -3, -3, -3)) == 0
    assert markov_c_m(MatM(-3, -3, -3, -3, -3, -3)) == 54


# -- skew-symmetrization ----------------------------------------------


def test_sk_examples():
    assert sk(MatM(4, 1, 2, 1, 4, 2)) == TripleS.exact(
        Surd.from_int(2), Surd.from_int(2), Surd.from_int(2)
    )
    assert str(sk(MatM(5, 10, 1, 5, 2, 5))) == "5, 2*sqrt(5), sqrt(5)"
    assert str(sk(MatM(-4, -1, -2, -1, -4, -2))) == "-2, -2, -2"


@given(valid_mats())
def test_sk_sign_and_square_correspondence(m):
    s = sk(m)
    for entry, (a, b) in zip(s.entries(), m.columns()):
        assert entry.square() == a * b
        assert entry.sign == (a > 0) - (a < 0)


@given(valid_mats())
def test_markov_forms_agree_through_sk(m):
    s = sk(m)
    prod = s.p * s.q * s.r
    assert prod.radicand == 1
    if m.is_positive():
        assert markov_c_s(s) == markov_c_m(m) == markov_c_m_abs(m)


# -- triples -----------------------------------------------------------


def test_triple_backends():
    exact = TripleS.exact(Surd.from_int(3), Surd.from_int(3), Surd.from_int(3))
    assert exact.backend == "exact"
    approx = TripleS.approx(2.5, 2.0, 2.0)
    assert approx.backend == "float"
    with pytest.raises(TypeError):
        TripleS(Surd.from_int(3), 3.0, Surd.from_int(3))


def test_triple_shat_membership():
    with pytest.raises(NotInShat):
        TripleS.exact(Surd.make(1, 2), Surd.from_int(1), Surd.from_int(1))
    # zero product is an integer
    TripleS.exact(Surd.zero(), Surd.make(1, 2), Surd.from_int(1))


def test_triple_parse_and_str():
    s = TripleS.parse("5, 2*sqrt(5), sqrt(5)")
    assert s == TripleS.exact(Surd.from_int(5), Surd.make(2, 5), Surd.make(1, 5))
    assert str(s) == "5, 2*sqrt(5), sqrt(5)"
    with pytest.raises(ValueError):
        TripleS.parse("1, 2")


def test_triple_json():
    s = TripleS.parse("5, 2*sqrt(5), sqrt(5)")
    payload = s.to_json()
    assert payload["text"] == "5, 2*sqrt(5), sqrt(5)"
    assert payload["entries"][1] == {"sign": 1, "coeff": 2, "radicand": 5}
    assert TripleS.approx(1.5, 2.0, 2.5).to_json() == {"entries": [1.5, 2.0, 2.5]}


def test_gamma_s_and_markov_s():
    s = TripleS.parse("5, 2*sqrt(5), sqrt(5)")
    assert str(gamma_s(s, 2)) == "5, 3*sqrt(5), sqrt(5)"
    assert markov_c_s(s) == 0
    assert markov_c_s(TripleS.approx(2.0, 2.0, 2.0)) == pytest.approx(4.0)


def test_gamma_s_width():
    """The new entry comes from the stored pqr: only what is stored is held to 64 bits."""
    base = TripleS.parse("3037000500, 3037000500, 3037000500")
    up = gamma_s(base, 1)  # the other two entries multiply to 3037000500^2 > 2^63
    assert str(up) == "9223372033963249500, 3037000500, 3037000500"
    assert gamma_s(up, 1) == base
    with pytest.raises(OverflowLimitError):
        gamma_s(up, 2)  # the new entry itself leaves 64 bits
    # a zero entry takes the radicand of the other two
    assert str(gamma_s(TripleS.parse("0, 2*sqrt(3), sqrt(3)"), 1)) == "6, 2*sqrt(3), sqrt(3)"


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_gamma_commutes_with_sk_on_positive(m, k):
    if m.is_positive():
        assert sk(gamma_m(m, k)) == gamma_s(sk(m), k)


# -- permutation -------------------------------------------------------


def test_permute_examples():
    m = MatM(4, 1, 2, 1, 4, 2)
    assert m.transpose() == MatM(1, 4, 2, 4, 1, 2)
    assert permute(m, (2, 1, 3)) == MatM(1, 4, 2, 4, 1, 2)
    assert permute(m, (1, 2, 3), transpose=True) == m.transpose()
    s = TripleS.parse("5, 2*sqrt(5), sqrt(5)")
    assert str(permute(s, (3, 1, 2))) == "sqrt(5), 5, 2*sqrt(5)"
    with pytest.raises(ValueError):
        permute(s, (1, 2, 3), transpose=True)
    with pytest.raises(ValueError):
        permute(m, (1, 1, 2))


@given(valid_mats(), st.permutations([1, 2, 3]))
def test_permute_preserves_markov(m, sigma):
    assert markov_c_m(permute(m, tuple(sigma))) == markov_c_m(m)
    assert markov_c_m_abs(permute(m, tuple(sigma))) == markov_c_m_abs(m)
    assert markov_c_m_abs(m.transpose()) == markov_c_m_abs(m)


# -- paths -------------------------------------------------------------


def test_mutation_path():
    p = MutationPath((1, 2, 1, 3))
    assert list(p) == [1, 2, 1, 3]
    assert len(p) == 4
    assert p.reversed() == MutationPath((3, 1, 2, 1))
    assert p.to_json() == [1, 2, 1, 3]
    assert len(MutationPath()) == 0
    with pytest.raises(ValueError):
        MutationPath((1, 1))
    with pytest.raises(ValueError):
        MutationPath((0, 1))
