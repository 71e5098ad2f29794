import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import magnitude_oracle as oracle
from gsalg.magnitude import (EXPONENT_BITS, MATERIALIZE_BITS, ComparisonUndecided,
                             Magnitude, MagnitudeError, _split_base, bitlen_lt_pow2,
                             log2_bounds, magnitude_cmp)


def test_from_int_canonical_form():
    m = Magnitude.from_int(12)
    assert m.to_int() == 12
    assert Magnitude.from_int(1).to_int() == 1
    assert Magnitude.power(4, 10).to_int() == 4 ** 10
    assert Magnitude.pow2(100).to_int() == 1 << 100
    with pytest.raises(MagnitudeError):
        Magnitude.from_int(0)
    with pytest.raises(MagnitudeError):
        Magnitude.from_int(-3)


def test_canonical_equality_across_routes():
    # 8^10 = 2^30 = (2^5)^6, all collapse to one canonical form
    a = Magnitude.power(8, 10)
    b = Magnitude.pow2(30)
    c = Magnitude.power(32, 6)
    assert magnitude_cmp(a, b) == 0
    assert magnitude_cmp(b, c) == 0
    assert magnitude_cmp(a.mul(b), Magnitude.pow2(60)) == 0


@given(st.integers(1, 10 ** 9), st.integers(1, 10 ** 9))
def test_cmp_matches_int_order_small(x, y):
    assert magnitude_cmp(Magnitude.from_int(x), Magnitude.from_int(y)) == (
        (x > y) - (x < y))


@given(st.integers(1, 40), st.integers(0, 600), st.integers(1, 40), st.integers(0, 600))
def test_cmp_materializes_medium(c1, e1, c2, e2):
    a = Magnitude.from_int(2 * c1 + 1).mul(Magnitude.pow2(e1))
    b = Magnitude.from_int(2 * c2 + 1).mul(Magnitude.pow2(e2))
    x = (2 * c1 + 1) << e1
    y = (2 * c2 + 1) << e2
    assert magnitude_cmp(a, b) == ((x > y) - (x < y))


def test_cmp_huge_via_log_refinement():
    # 40^(8*101^3) against powers of two nearby: log2(40) = 5.3219...
    big = Magnitude.power(40, 8 * 101 ** 3)
    exact_log2 = 8 * 101 ** 3 * math.log2(40)
    below = Magnitude.pow2(int(exact_log2) - 1)
    above = Magnitude.pow2(int(exact_log2) + 2)
    assert magnitude_cmp(big, below) > 0
    assert magnitude_cmp(big, above) < 0
    # and a doubly-exponential gap decided by bit lengths alone
    assert magnitude_cmp(Magnitude.pow2(1 << 40), big) > 0


def test_cmp_mixed_int_argument():
    assert magnitude_cmp(Magnitude.pow2(10), 1024) == 0
    assert magnitude_cmp(1023, Magnitude.pow2(10)) < 0


def test_pow_int_and_mul():
    m = Magnitude.from_int(6)
    assert m.pow_int(5).to_int() == 6 ** 5
    assert m.pow_int(0).to_int() == 1
    assert (m * m).to_int() == 36


def test_bit_length_and_log2_floor():
    assert Magnitude.pow2(17).log2_floor() == 17
    assert Magnitude.pow2(17).is_power_of_two()
    assert Magnitude.from_int(12).bit_length() == 4
    assert not Magnitude.from_int(12).is_power_of_two()


def test_bitlen_lt_pow2_boundaries():
    # r < 2^t exactly when bit_length(r) <= t
    assert bitlen_lt_pow2(1, 1)
    assert bitlen_lt_pow2((1 << 64) - 1, 64)
    assert not bitlen_lt_pow2(1 << 64, 64)
    assert bitlen_lt_pow2(Magnitude.pow2(63), 64)
    assert not bitlen_lt_pow2(Magnitude.pow2(64), 64)
    big = Magnitude.power(40, 8 * 101 ** 3)   # about 2^43865502.7
    assert bitlen_lt_pow2(big, 43865503 + 10)
    assert not bitlen_lt_pow2(big, 43865503 - 10)


def test_log2_bounds_certified():
    lo, hi = log2_bounds(10, 30)
    true = math.log2(10)
    assert lo <= Fraction(true).limit_denominator(10 ** 12) <= hi
    assert hi - lo <= Fraction(1, 1 << 30)
    lo1, hi1 = log2_bounds(1, 10)
    assert lo1 == hi1 == 0
    lo2, hi2 = log2_bounds(1 << 20, 10)
    assert lo2 == hi2 == 20


@settings(max_examples=40)
@given(st.integers(2, 10 ** 6), st.integers(4, 10))
def test_log2_bounds_bracket_property(n, prec):
    lo, hi = log2_bounds(n, prec)
    assert hi - lo <= Fraction(1, 1 << prec)
    # 2^lo <= n <= 2^hi, cross-multiplied into integer comparisons
    assert 2 ** lo.numerator <= n ** lo.denominator
    assert n ** hi.denominator <= 2 ** hi.numerator


# n close to sqrt(2) * 2^top: log2(n) has a long run of equal digits early on,
# which the interval squaring cannot split without more guard bits
NEAR_SQRT2 = [round(math.sqrt(2) * (1 << top)) for top in range(10, 40)]


@settings(max_examples=80)
@given(st.one_of(st.integers(2, 1 << 200), st.sampled_from(NEAR_SQRT2)),
       st.integers(1, 10))
def test_log2_bounds_are_dyadic_with_the_full_width(n, prec):
    lo, hi = log2_bounds(n, prec)
    for x in (lo, hi):
        d = x.denominator
        assert d & (d - 1) == 0 and d <= 1 << prec
    if n & (n - 1):
        assert hi - lo == Fraction(1, 1 << prec)
    else:
        assert lo == hi == n.bit_length() - 1
    assert 2 ** lo.numerator <= n ** lo.denominator
    assert n ** hi.denominator <= 2 ** hi.numerator


def test_json_round_trip():
    for m in (Magnitude.from_int(12), Magnitude.power(40, 8 * 101 ** 3),
              Magnitude.pow2(1 << 20)):
        back = Magnitude.from_json(m.to_json())
        assert magnitude_cmp(m, back) == 0


def test_exponent_budget_guard():
    # exponents may be huge, but their bit size is capped
    with pytest.raises(MagnitudeError):
        Magnitude.pow2(1 << (1 << 26))
    with pytest.raises(MagnitudeError):
        Magnitude.power(3, -1)


def test_materialize_guard_means_undecided_or_decides():
    # two magnitudes equal in value but built through different smooth routes
    # stay comparable; genuinely huge close calls may refuse instead of lying
    a = Magnitude.power(6, 1 << 10)
    b = Magnitude.power(36, 1 << 9)
    assert magnitude_cmp(a, b) == 0
    c = Magnitude.power(6, (1 << 22) + 1)
    d = Magnitude.power(6, 1 << 22).mul(Magnitude.from_int(6))
    try:
        assert magnitude_cmp(c, d) == 0
    except ComparisonUndecided:
        pass


def test_random_cross_check_with_ints():
    rng = random.Random(99)
    for _ in range(200):
        x = rng.randrange(1, 1 << 200)
        y = rng.randrange(1, 1 << 200)
        got = magnitude_cmp(Magnitude.from_int(x), Magnitude.from_int(y))
        assert got == ((x > y) - (x < y))


def test_nested_json_exponent_is_bounded_before_it_is_built():
    def nested(n):
        return {"coeff": "1", "factors": [{"base": "3", "exp": {"base": "2", "exp": n}}]}

    assert Magnitude.from_json(nested("1000")) == Magnitude.power(3, 1 << 1000)
    # 1 << n would take n/8 bytes: refuse before building it
    for n in ("1000000000000", str(EXPONENT_BITS), "-1"):
        with pytest.raises(MagnitudeError):
            Magnitude.from_json(nested(n))


# -- the gcd split against the trial-division oracle ---------------------------

def _is_prime(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


# primes just below the small-factor bound 2^16, and the first ones above it
NEAR_BOUND = [p for p in range(60001, 1 << 16, 2) if _is_prime(p)]
ABOVE_BOUND = [65537, 65539, 65543, 65551]
LARGE_PRIMES = ABOVE_BOUND + [4294967291, (1 << 61) - 1, 10 ** 20 + 39]

FIXED_SPLITS = [
    1, 2, 3, 65521, 65535, 65536, 65537, 65539, 65537 ** 2, 65537 * 65539,
    65521 * 65519, 65521 ** 2, 65521 ** 3 * 65537, 4294967291, (1 << 61) - 1,
    ((1 << 61) - 1) ** 3, 65537 ** 5, 1 << 100, 3 ** 50 * 65537, 40 ** 12,
    2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 65521, (65537 * 65539) ** 6,
]


@pytest.mark.parametrize("b", FIXED_SPLITS)
def test_split_base_fixed_cases(b):
    assert _split_base(b) == oracle.split_base(b)


@settings(max_examples=150)
@given(st.integers(1, 1 << 200))
def test_split_base_matches_trial_division(b):
    assert _split_base(b) == oracle.split_base(b)


@settings(max_examples=100)
@given(st.sampled_from(NEAR_BOUND + ABOVE_BOUND), st.sampled_from(NEAR_BOUND + ABOVE_BOUND),
       st.integers(1, 3), st.integers(1, 10 ** 6))
def test_split_base_near_the_bound(p, q, e, c):
    # products of two primes close to 2^16, a power, and a small cofactor
    for b in (p * q, p ** e * q, p * q * c):
        assert _split_base(b) == oracle.split_base(b)


@settings(max_examples=60)
@given(st.sampled_from(LARGE_PRIMES), st.integers(1, 7), st.integers(1, 1000))
def test_split_base_powers_of_large_primes(p, e, c):
    for b in (p ** e, c * p ** e):
        assert _split_base(b) == oracle.split_base(b)


SPLIT_BASES = [2, 3, 6, 40, 101, 65521, 65537, 65539, 65537 * 65539,
               4294967291, (1 << 61) - 1, ((1 << 61) - 1) ** 2]


@st.composite
def magnitude_terms(draw):
    """(base, exponent, coefficient) for power(base, exp) * from_int(coeff)."""
    b = draw(st.sampled_from(SPLIT_BASES)) * draw(st.sampled_from([1, 2, 7, 65537]))
    e = draw(st.one_of(st.integers(0, 40), st.integers(0, 10).map(lambda j: 1 << j)))
    return b, e, draw(st.integers(1, 10 ** 30))


def _both(term):
    b, e, c = term
    new = Magnitude.power(b, e).mul(Magnitude.from_int(c))
    old = oracle.mul(oracle.canonical(1, ((b, e),)), oracle.canonical(c, ()))
    return new, old, b ** e * c


def _form(m):
    return m.coeff, m.factors


@settings(max_examples=60, deadline=None)
@given(magnitude_terms(), magnitude_terms(),
       st.lists(st.sampled_from(["mul", "pow2", "pow3", "json"]), max_size=3))
def test_merged_forms_match_resplit_forms(s, t, ops):
    a, a_old, x = _both(s)
    b, b_old, y = _both(t)
    assert _form(a) == _form(a_old) and _form(b) == _form(b_old)
    for op in ops:
        if op == "mul":
            a, a_old, x = a.mul(b), oracle.mul(a_old, b_old), x * y
        elif op == "json":
            a = Magnitude.from_json(a.to_json())
        else:
            k = int(op[-1])
            a, a_old, x = a.pow_int(k), oracle.pow_int(a_old, k), x ** k
        assert _form(a) == _form(a_old)
    if a.bits_upper() <= MATERIALIZE_BITS and b.bits_upper() <= MATERIALIZE_BITS:
        assert a.to_int() == x
        assert magnitude_cmp(a, b) == (x > y) - (x < y)


@settings(max_examples=80)
@given(st.sampled_from([2, 3, 5, 7, 251, 65521]), st.integers(1, 600),
       st.sampled_from([1, 11, 13 * 17, 65537, 4294967291]))
def test_split_base_prime_powers(p, e, c):
    # the multiplicity comes from dividing by p^(2^i), not once per unit
    b = p ** e * (c if c % p else 1)
    assert _split_base(b) == oracle.split_base(b)


def test_split_base_large_prime_powers():
    assert _split_base(40 ** 30000) == [(2, 90000), (5, 30000)]
    assert _split_base(3 ** 60000) == [(3, 60000)]
    assert _split_base(1 << 400000) == [(2, 400000)]
    assert _split_base(7 ** 5000 * 65537) == [(7, 5000), (65537, 1)]
