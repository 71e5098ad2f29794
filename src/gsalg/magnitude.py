"""Exact comparison of huge formal products c * prod(b_i ** e_i).

Quantities like 40**(8*101**3) or 2**(2**91) cannot be materialized, but
every comparison the schedule machinery needs can still be decided
exactly, by one of two engines.  ``magnitude_cmp`` orders two magnitudes:
canonical equality, then the integers themselves when both fit
``MATERIALIZE_BITS``, then certified rational bounds on log2 refined
until they separate.  ``floor_log2_map(r, f)`` evaluates a monotone f at
floor(log2(r)), which decides every power-of-two threshold such as
r < 2**t or r < 2**(2**d); it narrows a bracket on floor(log2(r)) in cost
order: the exact exponent of an int or a power of two, bit lengths, the
materialized value, then the same log2 bounds.  If nothing separates
within the refinement budget ComparisonUndecided is raised rather than
ever guessing from floats.  Bases are split into a canonical prime-split
factorization by batch trial division (one gcd against the product of
the primes below 2^16), and only once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

__all__ = [
    "Magnitude",
    "MagnitudeError",
    "ComparisonUndecided",
    "log2_bounds",
    "bitlen_lt_pow2",
    "floor_log2_map",
    "magnitude_cmp",
]

# Largest bit-size we are willing to materialize for a direct integer compare.
MATERIALIZE_BITS = 1 << 20
# Largest bit-size allowed for an exponent integer.
EXPONENT_BITS = 1 << 26
# Log-interval refinement schedule.
_PREC_START = 64
_PREC_LIMIT = 1 << 13
# Primes below this bound are split off bases by one gcd against their product.
_SMALL_FACTOR_BOUND = 1 << 16


class MagnitudeError(ValueError):
    pass


class ComparisonUndecided(MagnitudeError):
    """Raised when refinement hits its budget without separating operands."""


def log2_bounds(n: int, prec: int) -> Tuple[Fraction, Fraction]:
    """Certified rationals lo <= log2(n) <= hi with hi - lo = 2**-prec.

    Exact (lo == hi) when n is a power of two.  Uses fixed-point interval
    squaring, so the cost is polynomial in ``prec`` and never touches the
    value 2**log2(n) itself.
    """
    if n <= 0:
        raise MagnitudeError("log2 of non-positive value")
    top = n.bit_length() - 1
    if n == 1 << top:
        return Fraction(top), Fraction(top)
    # each squaring can double the interval width, so guard bits scale
    # with the digit count; log2(n) is irrational, so enough of them
    # always pin every digit
    s = 2 * prec + 8
    while True:
        lo = (n << s) >> top          # floor of (n / 2**top) * 2**s
        hi = lo + 1
        two = 1 << (s + 1)
        digits = 0
        for _ in range(prec):
            lo = (lo * lo) >> s
            hi = (hi * hi + (1 << s) - 1) >> s
            digits <<= 1
            if lo >= two:
                digits |= 1
                lo >>= 1
                hi >>= 1
            elif hi >= two:
                break                 # straddles 2: retry with more guard bits
        else:
            lo = (top << prec) + digits
            return Fraction(lo, 1 << prec), Fraction(lo + 1, 1 << prec)
        s *= 2


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n."""
    if n < 2 or k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _split_base(b: int) -> list[tuple[int, int]]:
    """Factor b into (base, multiplicity) pairs: small primes split off,
    perfect powers collapsed, any remaining large cofactor kept opaque."""
    out: list[tuple[int, int]] = []
    m = b
    primes, product = _small_prime_table()
    g = math.gcd(m, product)
    for p in primes:
        if g == 1:
            break
        if g < p * p:
            p = g  # g is squarefree with no prime below p, so prime
        elif g % p:
            continue
        g //= p
        e, m = _multiplicity(m, p)
        out.append((p, e))
    if m > 1:
        # no prime below the bound divides m, and 2^16 + 1 is prime
        if m < (_SMALL_FACTOR_BOUND + 1) ** 2:
            out.append((m, 1))  # m is prime
        else:
            # perfect-power collapse on the opaque cofactor; prime
            # exponents suffice because the recursion collapses the rest
            for k in _small_primes(m.bit_length()):
                r = _iroot(m, k)
                if r > 1 and r ** k == m:
                    for base, e in _split_base(r):
                        out.append((base, e * k))
                    break
            else:
                out.append((m, 1))
    return out


def _multiplicity(m: int, p: int) -> tuple[int, int]:
    """(e, m // p**e) for the largest e with p**e dividing m.

    Odd p recurses on p*p, so m is divided by p^(2^i) and the cost is
    logarithmic in e, not linear."""
    if p == 2:
        e = (m & -m).bit_length() - 1
        return e, m >> e
    if m % p:
        return 0, m
    e, m = _multiplicity(m // p, p * p)
    if m % p == 0:
        return 2 * e + 2, m // p
    return 2 * e + 1, m


@functools.cache
def _small_prime_table() -> tuple[tuple[int, ...], int]:
    """Primes below _SMALL_FACTOR_BOUND and their product; built on first use."""
    primes = tuple(_small_primes(_SMALL_FACTOR_BOUND - 1))
    return primes, math.prod(primes)


def _small_primes(limit: int):
    if limit < 2:
        return
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, limit + 1):
        if sieve[i]:
            yield i
            for j in range(i * i, limit + 1, i):
                sieve[j] = 0


def _check_exponent(e: int) -> int:
    if e < 0:
        raise MagnitudeError("negative exponent")
    if e.bit_length() > EXPONENT_BITS:
        raise MagnitudeError("exponent exceeds the magnitude budget")
    return e


@dataclass(frozen=True)
class Magnitude:
    """A positive integer in the form coeff * prod(base_i ** exp_i).

    Canonical form: coeff >= 1 with its smooth part absorbed into the
    factor list, bases >= 2 sorted and distinct, exponents >= 1.
    Construct via :meth:`from_int`, :meth:`power`, or :meth:`pow2`.
    """

    coeff: int
    factors: Tuple[Tuple[int, int], ...]

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_int(n: int) -> "Magnitude":
        if n < 1:
            raise MagnitudeError("magnitudes are positive integers")
        return _canonical(n, ())

    @staticmethod
    def power(base: int, exp: int) -> "Magnitude":
        if base < 1:
            raise MagnitudeError("base must be a positive integer")
        _check_exponent(exp)
        if base == 1 or exp == 0:
            return Magnitude.from_int(1)
        return _canonical(1, ((base, exp),))

    @staticmethod
    def pow2(exp: int) -> "Magnitude":
        """2**exp; exp may be huge (e.g. itself a power of two)."""
        return Magnitude.power(2, exp)

    # -- arithmetic ---------------------------------------------------
    def mul(self, other: "Magnitude") -> "Magnitude":
        return _canonical(self.coeff * other.coeff, self.factors + other.factors,
                          presplit=True)

    def __mul__(self, other: "Magnitude") -> "Magnitude":
        return self.mul(other)

    def pow_int(self, k: int) -> "Magnitude":
        if k < 0:
            raise MagnitudeError("negative exponent")
        if k == 0:
            return Magnitude.from_int(1)
        fac = tuple((b, _check_exponent(e * k)) for b, e in self.factors)
        if self.coeff > 1 and self.coeff.bit_length() * k > MATERIALIZE_BITS:
            raise MagnitudeError("coefficient power exceeds the magnitude budget")
        return _canonical(self.coeff ** k if self.coeff > 1 else 1, fac,
                          presplit=True)

    # -- size estimates ----------------------------------------------
    def bits_upper(self) -> int:
        """Upper bound on bit length (so on log2 + 1)."""
        total = self.coeff.bit_length()
        for b, e in self.factors:
            total += e * b.bit_length()
        return total

    def to_int(self) -> int:
        if self.bits_upper() > MATERIALIZE_BITS:
            raise MagnitudeError("magnitude too large to materialize")
        n = self.coeff
        for b, e in self.factors:
            n *= b ** e
        return n

    def log2_interval(self, prec: int) -> Tuple[Fraction, Fraction]:
        lo, hi = log2_bounds(self.coeff, prec)
        for b, e in self.factors:
            blo, bhi = log2_bounds(b, prec)
            lo += e * blo
            hi += e * bhi
        return lo, hi

    def is_power_of_two(self) -> bool:
        return self.coeff == 1 and all(b == 2 for b, _ in self.factors)

    def log2_floor(self) -> int:
        """Exact floor(log2(value))."""
        return floor_log2_map(self, lambda L: L)

    def bit_length(self) -> int:
        return self.log2_floor() + 1

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict:
        def enc_exp(e: int):
            if e.bit_length() > 64 and e == 1 << (e.bit_length() - 1):
                return {"base": "2", "exp": str(e.bit_length() - 1)}
            return str(e)

        return {
            "coeff": str(self.coeff),
            "factors": [{"base": str(b), "exp": enc_exp(e)} for b, e in self.factors],
        }

    @staticmethod
    def from_json(data: dict) -> "Magnitude":
        def dec_exp(e) -> int:
            if isinstance(e, dict):
                if e.get("base") != "2":
                    raise MagnitudeError("nested exponents must have base 2")
                n = int(e["exp"])
                if not 0 <= n < EXPONENT_BITS:
                    raise MagnitudeError("exponent exceeds the magnitude budget")
                return 1 << n
            return int(e)

        fac = tuple((int(f["base"]), _check_exponent(dec_exp(f["exp"])))
                    for f in data.get("factors", []))
        return _canonical(int(data.get("coeff", "1")), fac)

    def __str__(self) -> str:
        parts = []
        if self.coeff != 1 or not self.factors:
            parts.append(str(self.coeff))
        for b, e in self.factors:
            if e.bit_length() > 64 and e == 1 << (e.bit_length() - 1):
                parts.append(f"{b}^(2^{e.bit_length() - 1})")
            else:
                parts.append(f"{b}^{e}")
        return " * ".join(parts)


def _canonical(coeff: int, factors: Tuple[Tuple[int, int], ...],
               presplit: bool = False) -> Magnitude:
    # presplit: every b is a canonical factor base, so _split_base(b) is
    # [(b, 1)] and only the coefficient needs splitting
    if coeff < 1:
        raise MagnitudeError("magnitudes are positive integers")
    merged: dict[int, int] = {}

    def add(base: int, exp: int):
        if base == 1 or exp == 0:
            return
        merged[base] = merged.get(base, 0) + exp

    for b, e in factors:
        if b < 1:
            raise MagnitudeError("base must be a positive integer")
        _check_exponent(e)
        for base, mult in ((b, 1),) if presplit else _split_base(b):
            add(base, _check_exponent(mult * e))
    # absorb the smooth part of the coefficient
    rest = 1
    for base, mult in _split_base(coeff) if coeff > 1 else []:
        if base < _SMALL_FACTOR_BOUND or base in merged:
            add(base, mult)
        else:
            rest *= base ** mult
    for e in merged.values():
        _check_exponent(e)
    return Magnitude(rest, tuple(sorted(merged.items())))


def magnitude_cmp(a: Union[Magnitude, int], b: Union[Magnitude, int]) -> int:
    """-1, 0, or 1; every answer is certified exact."""
    if isinstance(a, int):
        a = Magnitude.from_int(a)
    if isinstance(b, int):
        b = Magnitude.from_int(b)
    if a == b:
        return 0
    if a.bits_upper() <= MATERIALIZE_BITS and b.bits_upper() <= MATERIALIZE_BITS:
        x, y = a.to_int(), b.to_int()
        return (x > y) - (x < y)
    prec = _PREC_START
    while prec <= _PREC_LIMIT:
        alo, ahi = a.log2_interval(prec)
        blo, bhi = b.log2_interval(prec)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        if alo == ahi and blo == bhi:
            return 0 if alo == blo else (1 if alo > blo else -1)
        prec *= 4
    raise ComparisonUndecided(f"cannot separate {a} and {b} within budget")


def bitlen_lt_pow2(r: Union[Magnitude, int], t: int) -> bool:
    """Decide r < 2**t without materializing 2**t.

    For integer r this is the identity r < 2**t  <=>  bit_length(r) <= t.
    """
    return t >= 0 and floor_log2_map(r, lambda L: L < t)


def floor_log2_map(r: Union[Magnitude, int], f):
    """f(floor(log2(r))) for a positive r and a monotone f, decided exactly.

    L = floor(log2(r)) is bracketed in [lo, hi], and the bracket narrows in
    cost order until f(lo) == f(hi): exact for ints and powers of two, then
    bit lengths, then the value itself when it fits MATERIALIZE_BITS, then
    log2 intervals refined up to _PREC_LIMIT digits.  r is never a power of
    two by then, so log2(r) is irrational and refinement only runs out on
    its budget, raising ComparisonUndecided.
    """
    if isinstance(r, int):
        if r < 1:
            raise MagnitudeError("r must be a positive integer")
        return f(r.bit_length() - 1)
    if r.is_power_of_two():
        return f(sum(e for _, e in r.factors))
    lo = r.coeff.bit_length() - 1 + sum(e * (b.bit_length() - 1)
                                        for b, e in r.factors)
    hi = r.bits_upper() - 1
    if f(lo) == f(hi):
        return f(lo)
    if hi < MATERIALIZE_BITS:
        return f(r.to_int().bit_length() - 1)
    prec = _PREC_START
    while prec <= _PREC_LIMIT:
        ilo, ihi = r.log2_interval(prec)
        lo, hi = max(lo, ilo.__floor__()), min(hi, ihi.__floor__())
        if f(lo) == f(hi):
            return f(lo)
        prec *= 4
    raise ComparisonUndecided("log2 floor not pinned within budget")
