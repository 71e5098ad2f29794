import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsalg.elements import Element
from gsalg.fields import GF2, GF3
from gsalg.limits import CapacityError
from gsalg.linalg import (BitBasis, SparseBasis, bit_indices, intersect_bitspaces,
                          product_bits, rref_gf2, rref_modp)
from gsalg.subspace import GENERAL_DEGREE_CAP, Subspace

from ideal_oracle import pack_gf2


def gf2_span(vectors):
    """Brute-force span of int bitsets over GF(2)."""
    out = {0}
    for v in vectors:
        out |= {v ^ u for u in out}
    return out


def fraction_rank(rows):
    """Plain Gaussian elimination oracle over the rationals."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- BitBasis ----------------------------------------------------------

@settings(max_examples=60)
@given(st.lists(st.integers(0, 255), max_size=8))
def test_bitbasis_matches_brute_span(vectors):
    basis = BitBasis()
    basis.extend(vectors)
    span = gf2_span(vectors)
    assert (1 << basis.rank) == len(span)
    for probe in range(256):
        assert basis.contains(probe) == (probe in span)


def test_bitbasis_reduce_is_canonical():
    basis = BitBasis()
    basis.extend([0b1100, 0b0110])
    # reduction of a member is zero, of a non-member is a fixed residue
    assert basis.reduce(0b1010) == 0
    r1 = basis.reduce(0b1000)
    r2 = basis.reduce(0b1000 ^ 0b1100)
    assert r1 == r2 != 0


@given(st.lists(st.integers(0, 1023), max_size=7),
       st.lists(st.integers(0, 1023), max_size=7))
def test_intersect_bitspaces_oracle(avecs, bvecs):
    a, b = BitBasis(), BitBasis()
    a.extend(avecs)
    b.extend(bvecs)
    got = intersect_bitspaces(a, b, 10)
    want = gf2_span(avecs) & gf2_span(bvecs)
    assert (1 << got.rank) == len(want)
    for v in want:
        assert got.contains(v)


def test_product_bits_oracle():
    # v = {x, y} (degree 1), w = {xx, yy} (degree 2): four products
    v = 0b11
    w = 0b1001
    got = product_bits(v, w, 2)
    want = 0
    for a in (0, 1):
        for b in (0b00, 0b11):
            want ^= 1 << ((a << 2) | b)
    assert got == want
    assert product_bits(0, w, 2) == 0
    # collisions cancel mod 2
    assert product_bits(0b1, 0b1, 0) ^ product_bits(0b1, 0b1, 0) == 0


def test_bit_indices():
    assert bit_indices(0b10110) == [1, 2, 4]
    assert bit_indices(0) == []


# -- packed GF(2) and mod-p elimination --------------------------------

@settings(max_examples=30)
@given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 10 ** 9))
def test_rref_gf2_rank_matches_oracle(nrows, ncols, seed):
    rng = random.Random(seed)
    mat = np.array([[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)],
                   dtype=np.uint8)
    packed = pack_gf2(mat)
    rank, pivots = rref_gf2(packed.copy(), ncols)
    span = gf2_span(int("".join(map(str, row)), 2) for row in mat)
    assert (1 << rank) == len(span)
    assert rank == rref_gf2(pack_gf2(mat), ncols)[0]
    assert sorted(pivots) == pivots and len(set(pivots)) == len(pivots)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 150), st.integers(1, 300), st.floats(0.01, 0.6),
       st.integers(0, 10 ** 9))
def test_rref_gf2_equals_the_bitbasis_rref(nrows, ncols, density, seed):
    # rows span several uint64 words; some columns are forced empty, and
    # duplicate and zero rows are mixed in
    rng = random.Random(seed)
    empty = set(rng.sample(range(ncols), rng.randint(0, ncols // 2)))
    rows = [sum(1 << c for c in range(ncols) if c not in empty and rng.random() < density)
            for _ in range(nrows)]
    rows[rng.randrange(nrows)] = 0
    rows += [rng.choice(rows) for _ in range(rng.randint(0, 150 - nrows) // 4)]
    rng.shuffle(rows)
    mat = pack_gf2(np.array([[(r >> c) & 1 for c in range(ncols)] for r in rows],
                            dtype=np.uint8))
    rank, pivots = rref_gf2(mat, ncols)
    oracle = BitBasis()
    oracle.extend(rows)
    assert rank == oracle.rank
    assert pivots == oracle.pivots()
    assert [int.from_bytes(mat[i].tobytes(), "little") for i in range(rank)] == oracle.basis()
    assert not mat[rank:].any()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.sampled_from([2, 3]),
       st.integers(0, 10 ** 9))
def test_rref_modp_rank_matches_modular_span_oracle(nrows, ncols, p, seed):
    rng = random.Random(seed)
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    mat = np.array(rows, dtype=np.int64)
    rank, pivots = rref_modp(mat, p)
    span = {tuple([0] * ncols)}
    for r in rows:
        span |= {tuple((a + c * b) % p for a, b in zip(v, r))
                 for v in list(span) for c in range(1, p)}
    assert p ** rank == len(span)


# -- SparseBasis over the rationals -------------------------------------

@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=6))
def test_sparse_basis_rank_matches_oracle(rows):
    basis = SparseBasis()
    for r in rows:
        basis.insert({i: Fraction(v) for i, v in enumerate(r) if v})
    assert basis.rank == fraction_rank(rows) if rows else basis.rank == 0


def test_sparse_basis_membership():
    basis = SparseBasis()
    basis.insert({0: Fraction(1), 1: Fraction(2)})
    basis.insert({1: Fraction(1), 2: Fraction(-1)})
    # a combination of the two rows
    combo = {0: Fraction(3), 1: Fraction(6 + 2), 2: Fraction(-2)}
    assert basis.contains(combo)
    assert not basis.contains({0: Fraction(1)})
    assert basis.contains({})


# -- Subspace ------------------------------------------------------------

def test_monomial_subspace_set_semantics():
    s = Subspace.monomial_span(2, 2, [0b00, 0b11])
    t = Subspace.monomial_span(2, 2, [0b11, 0b01])
    assert s.dim == 2 and s.is_monomial
    assert s.sum(t).monomials() == frozenset({0b00, 0b11, 0b01})
    assert s.intersect(t).monomials() == frozenset({0b11})
    assert s.complement().monomials() == frozenset({0b01, 0b10})
    assert Subspace.full_space(2, 2).dim == 4
    assert Subspace.zero_space(2, 3).dim == 0


def test_subspace_product_matches_word_concat():
    a = Subspace.monomial_span(2, 1, [0])          # {x}
    b = Subspace.monomial_span(2, 2, [0b01, 0b10])  # {xy, yx}
    prod = a.product(b)
    assert prod.k == 3
    assert prod.monomials() == frozenset({0b001, 0b010})


def test_general_subspace_from_elements():
    x = Element.generator(2, 0)
    y = Element.generator(2, 1)
    s = Subspace.span_elements(2, 2, [x * y + y * x])
    assert not s.is_monomial
    assert s.dim == 1
    assert s.contains_element(x * y + y * x)
    assert not s.contains_element(x * y)
    full = s.sum(Subspace.monomial_span(2, 2, [0b01]))
    assert full.dim == 2
    assert full.contains_element(y * x)


def test_mixed_sum_intersect_dims():
    # {xy + yx} and {xy} intersect trivially; sums span both
    x = Element.generator(2, 0)
    y = Element.generator(2, 1)
    s = Subspace.span_elements(2, 2, [x * y + y * x])
    m = Subspace.monomial_span(2, 2, [0b01])
    assert s.intersect(m).dim == 0
    assert s.sum(m).dim == 2
    assert s.is_subspace_of(s.sum(m))
    assert not m.is_subspace_of(s)


def _word_sets(n):
    every = frozenset(range(n))
    some = st.frozensets(st.integers(0, n - 1), max_size=12)
    return st.one_of(st.just(frozenset()), st.just(every), some,
                     some.map(lambda s: every - s))


def _operand(data, k):
    """(space, its oracle): the oracle spells a co-monomial space out as
    the plain word set; monomial and rows spaces are their own oracle."""
    n = 1 << k
    kind = data.draw(st.sampled_from(["monomial", "co", "rows"]))
    if kind == "rows":
        basis = BitBasis()
        basis.extend(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4)))
        s = Subspace(2, k, rows=basis)
        return s, s
    words = data.draw(_word_sets(n))
    if kind == "monomial":
        s = Subspace.monomial_span(2, k, words)
        return s, s
    plain = frozenset(w for w in range(n) if w not in words)
    return Subspace(2, k, co=words), Subspace(2, k, mono=plain)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_co_monomial_form_matches_the_materialized_word_set(data):
    k = data.draw(st.integers(0, 8), label="k")
    n = 1 << k
    excluded = data.draw(_word_sets(n), label="excluded")
    co = Subspace(2, k, co=excluded)
    plain = Subspace(2, k, mono=frozenset(w for w in range(n) if w not in excluded))
    assert Subspace.monomial_span(2, k, excluded).complement().co == excluded
    assert co.is_monomial and co.dim == plain.dim == n - len(excluded)
    assert all(co.contains_word(w) == plain.contains_word(w) for w in range(-1, n + 1))
    support = data.draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from([1, 2]),
                                        max_size=4))
    e = Element(2, {(k, w): c for w, c in support.items()})
    for field in (GF2, GF3):
        assert co.contains_element(e, field) == plain.contains_element(e, field)
    assert co.monomials() == plain.monomials()
    assert co.complement().monomials() == excluded
    assert plain.complement().monomials() == excluded
    assert json.dumps(co.to_json()) == json.dumps(plain.to_json())
    assert co.describe() == plain.describe()
    assert co.describe(limit=n) == plain.describe(limit=n)
    other, other_plain = _operand(data, k)
    for a, b in ((co, other), (other, co)):
        pa = plain if a is co else other_plain
        pb = plain if b is co else other_plain
        assert a.sum(b).to_json() == pa.sum(pb).to_json()
        assert a.intersect(b).to_json() == pa.intersect(pb).to_json()
        assert a.is_subspace_of(b) == pa.is_subspace_of(pb)
        assert a.equals(b) == pa.equals(pb)
    factor, factor_plain = _operand(data, data.draw(st.integers(0, 3), label="j"))
    assert co.product(factor).to_json() == plain.product(factor_plain).to_json()
    assert factor.product(co).to_json() == factor_plain.product(plain).to_json()


def test_co_monomial_materializing_is_guarded(monkeypatch):
    monkeypatch.setenv("GSALG_MEMORY_LIMIT_MB", "1")
    big = Subspace.full_space(2, 20)
    assert big.dim == 1 << 20 and big.contains_word(12345)
    assert big.intersect(Subspace.monomial_span(2, 20, [7])).dim == 1
    for materialize in (big.monomials, big._as_basis, big.to_json,
                        lambda: big.product(Subspace.full_space(2, 1))):
        with pytest.raises(CapacityError):
            materialize()


def test_subspace_json_round_trip():
    s = Subspace.monomial_span(2, 3, [1, 5])
    t = Subspace.from_json(s.to_json())
    assert t.equals(s)
    x = Element.generator(2, 0)
    y = Element.generator(2, 1)
    g = Subspace.span_elements(2, 2, [x * y + y * x])
    h = Subspace.from_json(g.to_json())
    assert h.equals(g)


def test_degree_cap_guard():
    # a genuinely non-monomial span above the degree cap is rejected
    x = Element.generator(2, 0)
    y = Element.generator(2, 1)
    deg = GENERAL_DEGREE_CAP + 1
    big_x = x
    big_y = y
    for _ in range(deg - 1):
        big_x = big_x * x
        big_y = big_y * y
    with pytest.raises(CapacityError):
        Subspace.span_elements(2, deg, [big_x + big_y])
