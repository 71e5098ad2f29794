"""Independent oracle for the layers of a homogeneous relation ideal.

The library builds the degree-j layer recursively, as
letter * layer(j-1) + f * A(j - deg f).  This module enumerates the defining
spanning set {u * f * v : deg u + deg v = j - deg f} directly and ranks it,
so tests compare two different constructions of the same space.
"""

from fractions import Fraction

import numpy as np

from gsalg.elements import Element
from gsalg.linalg import SparseBasis, pack_gf2, rref_gf2, rref_modp


def ufv_rows(relations, n, j, fld):
    """Every u*f*v of degree j, one row each, columns indexed by word.

    Entries are field elements: ints in [0, p) over GF(p), Fractions in an
    object array over QQ.
    """
    ncols = n ** j
    dtype = object if fld.is_rational else np.int64
    blocks = [np.zeros((0, ncols), dtype=dtype)]
    for f in relations:
        m = f.degree()
        if m > j:
            continue
        terms = [(w, fld.coerce(c)) for (_, w), c in f.coeffs.items()]
        s = j - m
        for su in range(s + 1):
            sv = s - su
            iu = np.repeat(np.arange(n ** su), n ** sv)
            iv = np.tile(np.arange(n ** sv), n ** su)
            block = np.zeros((n ** s, ncols), dtype=dtype)
            rows = np.arange(n ** s)
            for w, c in terms:
                block[rows, (iu * n ** m + w) * n ** sv + iv] = c
            blocks.append(block)
    return np.vstack(blocks)


def rank(mat, fld):
    """Rank of a matrix of field elements."""
    if fld.is_rational:
        basis = SparseBasis()
        for row in mat:
            basis.insert({c: Fraction(v) for c, v in enumerate(row) if v})
        return basis.rank
    if fld.is_gf2:
        return rref_gf2(pack_gf2(mat), mat.shape[1])[0]
    return rref_modp(mat.copy(), fld.char)[0]


def span_dims(relations, n, D, fld):
    """Dimension of the ideal's degree-j layer for j = 1..D."""
    return [rank(ufv_rows(relations, n, j, fld), fld) for j in range(1, D + 1)]


def in_span(mat, vec, fld):
    """True when vec is a combination of the rows of mat."""
    return rank(np.vstack([mat, vec[None, :]]), fld) == rank(mat, fld)


def random_member(mat, rng, fld):
    """A random combination of the rows of mat, with small coefficients."""
    if fld.is_rational:
        coef = np.array([Fraction(rng.randint(-1, 1)) for _ in range(mat.shape[0])],
                        dtype=object)
        return coef @ mat if mat.shape[0] else np.zeros(mat.shape[1], dtype=object)
    coef = np.array([rng.randrange(fld.char) for _ in range(mat.shape[0])], dtype=np.int64)
    return coef @ mat % fld.char


def random_vector(ncols, rng, fld):
    """A random vector of field elements, mostly outside a proper subspace."""
    if fld.is_rational:
        return np.array([Fraction(rng.randint(-2, 2)) for _ in range(ncols)], dtype=object)
    return np.array([rng.randrange(fld.char) for _ in range(ncols)], dtype=np.int64)


def as_element(vec, n, j):
    """The degree-j element whose coefficient on word w is vec[w]."""
    return Element(n, {(j, w): c if isinstance(c, Fraction) else Fraction(int(c))
                       for w, c in enumerate(vec) if c})
