"""Exact scalar fields: GF(2), GF(p) for prime p < 2**31, and the rationals.

Scalars are plain Python objects: ints in [0, p) for prime fields,
`fractions.Fraction` for the rationals.  Field objects only bundle the
arithmetic; all linear algebra lives in :mod:`gsalg.linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_PRIME = 1 << 31


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**31 cap."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """GF(p) when ``char`` is a prime, the rationals when ``char`` is 0."""

    __slots__ = ("char",)

    def __init__(self, char: int):
        if char != 0:
            if char >= MAX_PRIME:
                raise FieldError(f"prime fields limited to p < 2**31, got {char}")
            if not is_prime(char):
                raise FieldError(f"{char} is not prime")
        self.char = char

    # -- predicates -------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.char == 0

    @property
    def is_gf2(self) -> bool:
        return self.char == 2

    # -- element arithmetic -----------------------------------------
    def coerce(self, x: Scalar) -> Scalar:
        """Map an int or Fraction into the field."""
        if self.char == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            den = x.denominator % self.char
            if den == 0:
                raise FieldError(f"denominator {x.denominator} not invertible mod {self.char}")
            return x.numerator * pow(den, self.char - 2, self.char) % self.char
        return x % self.char

    def zero(self) -> Scalar:
        return Fraction(0) if self.char == 0 else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.char == 0 else 1

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.char if self.char else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.char if self.char else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.char if self.char else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.char if self.char else -a

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.char == 0:
            return 1 / Fraction(a)
        return pow(a, self.char - 2, self.char)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # -- misc --------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    def __repr__(self) -> str:
        return "QQ" if self.char == 0 else f"GF({self.char})"

    @property
    def name(self) -> str:
        return "q" if self.char == 0 else ("gf2" if self.char == 2 else f"gfp:{self.char}")


GF2 = Field(2)
GF3 = Field(3)
QQ = Field(0)


def field_by_name(name: str) -> Field:
    """Parse 'gf2', 'gfp:P', or 'q' into a Field."""
    name = name.strip().lower()
    if name in ("q", "qq", "rational", "rationals"):
        return QQ
    if name == "gf2":
        return GF2
    if name.startswith("gfp:"):
        p = int(name[4:])
        if p < 2:
            raise FieldError(f"gfp:P needs a prime P, got {p}")
        return Field(p)
    raise FieldError(f"unknown field {name!r} (expected gf2, gfp:P, or q)")
