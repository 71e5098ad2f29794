"""Independent oracle for magnitude canonicalization.

The library splits the small primes off a base with one gcd against their
product and merges the factors of canonical forms without splitting them
again.  This module keeps the plain trial-division split, dividing by 2..13
and then by every odd q < 2^16 while q*q <= m, and a canonicalization that
re-splits every base, so tests compare two different constructions of the
same factor lists.
"""

from gsalg.magnitude import _SMALL_FACTOR_BOUND, Magnitude, _iroot, _small_primes


def split_base(b):
    """(base, multiplicity) pairs of b by trial division."""
    out = []
    m = b
    for p in (2, 3, 5, 7, 11, 13):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    q = 17
    while q * q <= m and q < _SMALL_FACTOR_BOUND:
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            out.append((q, e))
        q += 2
    if m > 1:
        if q * q > m:
            out.append((m, 1))  # no factor below q, so m is prime
        else:
            for k in _small_primes(m.bit_length()):
                r = _iroot(m, k)
                if r > 1 and r ** k == m:
                    out.extend((base, e * k) for base, e in split_base(r))
                    break
            else:
                out.append((m, 1))
    return out


def canonical(coeff, factors):
    """coeff * prod(b ** e) in canonical form, every base split afresh."""
    merged = {}
    for b, e in factors:
        for base, mult in split_base(b) if e else []:
            merged[base] = merged.get(base, 0) + mult * e
    rest = 1
    for base, mult in split_base(coeff) if coeff > 1 else []:
        if base < _SMALL_FACTOR_BOUND or base in merged:
            merged[base] = merged.get(base, 0) + mult
        else:
            rest *= base ** mult
    return Magnitude(rest, tuple(sorted(merged.items())))


def mul(a, b):
    return canonical(a.coeff * b.coeff, a.factors + b.factors)


def pow_int(a, k):
    if k == 0:
        return Magnitude(1, ())
    return canonical(a.coeff ** k, tuple((b, e * k) for b, e in a.factors))
