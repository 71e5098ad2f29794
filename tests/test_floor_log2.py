"""Power-of-two thresholds against plain integer arithmetic.

Every threshold in the schedule machinery reads floor(log2(r)) through
``magnitude.floor_log2_map``.  Here each one is compared with the same
predicate evaluated on the integer value, which the tests build from
``coeff`` and ``factors`` themselves rather than through ``to_int``.  With
``MATERIALIZE_BITS`` patched down to 64 the refinement stage decides every
case that bit lengths cannot.
"""

import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gsalg import magnitude
from gsalg.magnitude import Magnitude, bitlen_lt_pow2
from gsalg.schedule import (_le_pow2, _le_pow2pow, _lt_pow2pow, bracket_exponent,
                            exponential_exceeds_quasipoly, window_of)


def value(r):
    if isinstance(r, int):
        return r
    v = r.coeff
    for b, e in r.factors:
        v *= b ** e
    return v


@st.composite
def counts(draw):
    """Ints and Magnitudes of up to about 10^4 bits."""
    k = draw(st.integers(0, 5000))
    kind = draw(st.sampled_from(["int", "c2k", "pe2k", "pow2", "pow2pow"]))
    if kind == "int":
        return draw(st.integers(1, 1 << draw(st.sampled_from([8, 64, 1000, 10000]))))
    if kind == "c2k":
        return Magnitude.from_int(draw(st.integers(1, 10 ** 6))).mul(Magnitude.pow2(k))
    if kind == "pe2k":
        p = draw(st.sampled_from([3, 5, 40, 65537]))
        return Magnitude.power(p, draw(st.integers(1, 1800))).mul(Magnitude.pow2(k))
    if kind == "pow2":
        return Magnitude.pow2(draw(st.integers(0, 10000)))
    return Magnitude.pow2(1 << draw(st.integers(0, 13)))


def below_pow2pow(v, d, strict):
    """v < 2^(2^d), or <= with strict False; for d < 0 compare v^(2^-d) with 2."""
    lhs, rhs = (v, 2 ** (2 ** d)) if d >= 0 else (v ** (2 ** -d), 2)
    return lhs < rhs if strict else lhs <= rhs


def oracle_bracket(v):
    e = 2
    while not v < 2 ** (2 ** (e - 2)):
        e += 1
    return e


@pytest.mark.parametrize("materialize_bits", [magnitude.MATERIALIZE_BITS, 64])
@settings(max_examples=150, deadline=None)
@given(r=counts(), dt=st.integers(-3, 3))
def test_thresholds_match_integer_arithmetic(materialize_bits, r, dt):
    v = value(r)
    L = v.bit_length() - 1
    with mock.patch.object(magnitude, "MATERIALIZE_BITS", materialize_bits):
        if isinstance(r, Magnitude):
            assert r.log2_floor() == L
            assert r.bit_length() == L + 1
        for t in {-1, 0, L + dt, 20000}:
            assert bitlen_lt_pow2(r, t) == (v < Fraction(2) ** t)
            assert _le_pow2(r, t) == (v <= Fraction(2) ** t)
        for d in {-2, -1, 0, max(L, 1).bit_length() + dt}:
            assert _lt_pow2pow(r, d) == below_pow2pow(v, d, strict=True)
            assert _le_pow2pow(r, d) == below_pow2pow(v, d, strict=False)
        if v >= 2:
            assert bracket_exponent(r) == oracle_bracket(v)
            assert window_of(r) == (v - 1).bit_length() - 1


def test_huge_thresholds_return_promptly():
    # 2^(10^18) and 2^(2^(10^18)) must never be formed
    d = 10 ** 18
    for r, below in ((3 ** 100, True), (Magnitude.power(3, 10 ** 6), True),
                     (Magnitude.power(40, 8 * 101 ** 3), True),
                     (Magnitude.pow2(1 << 200), False)):
        start = time.perf_counter()
        assert bitlen_lt_pow2(r, d) is below and _le_pow2(r, d) is below
        assert _lt_pow2pow(r, d) and _le_pow2pow(r, d)
        assert not _lt_pow2pow(r, -d) and not _le_pow2pow(r, -d)
        assert time.perf_counter() - start < 2.0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 3000), st.integers(0, 4),
       st.integers(-20, 400))
def test_exponential_exceeds_quasipoly_matches_integers(c_den, step, log_n, cube):
    c_num = c_den + step
    n = 1 << log_n
    expected = Fraction(c_num, c_den) ** n > Fraction(2) ** (cube * log_n ** 3)
    assert exponential_exceeds_quasipoly(c_num, c_den, log_n, cube) == expected


@pytest.mark.parametrize("args, expected", [
    ((2, 1, 1, 2), False),       # 2^2 == 2^(2 * 1^3): equality is not "exceeds"
    ((2, 1, 1, 1), True),
    ((4, 1, 2, 1), False),       # 4^4 == 2^(1 * 2^3)
    ((1025, 1024, 0, 0), True),
])
def test_exponential_exceeds_quasipoly_at_equality(args, expected):
    assert exponential_exceeds_quasipoly(*args) is expected
