"""Independent oracle for truncated relation ideals.

The library builds the degree-j layer of a homogeneous ideal recursively, as
letter * layer(j-1) + f * A(j - deg f), and the mixed-degree span
W_D = span{trunc_D(u f v)} by recursion on the precision, as
letter * W_(D-1) + trunc_D(f * v).  This module enumerates the defining
spanning sets {u * f * v} directly and ranks them, so tests compare two
different constructions of the same space.
"""

from fractions import Fraction

import numpy as np

from gsalg.elements import Element
from gsalg.linalg import BitBasis, SparseBasis, rref_gf2, rref_modp


def pack_gf2(rows):
    """Pack a (m, ncols) 0/1 array into (m, ceil(ncols/64)) uint64 words, bit j = column j."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    packed = np.packbits(rows, axis=1, bitorder="little")
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view(np.uint64)


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


def rref(mat, fld):
    """The reduced row echelon form of mat's row space, as dense rows of ints
    (Fractions over QQ) in pivot order.

    GF(2) goes through ``BitBasis``, which the layer builder does not use;
    GF(p) through ``rref_modp`` and QQ through ``SparseBasis``, each on the
    whole u*f*v matrix at once.
    """
    ncols = mat.shape[1]
    if fld.is_gf2:
        basis = BitBasis()
        basis.extend(sum(1 << int(c) for c in np.flatnonzero(row)) for row in mat)
        return [[(r >> c) & 1 for c in range(ncols)] for r in basis.basis()]
    if fld.is_rational:
        basis = SparseBasis()
        for row in mat:
            basis.insert({c: Fraction(v) for c, v in enumerate(row) if v})
        return [[basis.rows[p].get(c, 0) for c in range(ncols)] for p in basis.pivots()]
    mat = mat.copy()
    rank, _ = rref_modp(mat, fld.char)
    return mat[:rank].tolist()


def span_dims(relations, n, D, fld):
    """Dimension of the ideal's degree-j layer for j = 1..D."""
    return [rank(ufv_rows(relations, n, j, fld), fld) for j in range(1, D + 1)]


def in_span(mat, vec, fld, mat_rank=None):
    """True when vec is a combination of the rows of mat (of rank mat_rank, if known)."""
    if mat_rank is None:
        mat_rank = rank(mat, fld)
    return rank(np.vstack([mat, vec[None, :]]), fld) == mat_rank


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


# -- mixed degrees: all columns of degree 1..D, truncated at D ---------------

def degree_offsets(n, D):
    """offsets[k] is the first column of degree k; offsets[D + 1] the width."""
    offsets = [0, 0]
    for k in range(1, D + 1):
        offsets.append(offsets[-1] + n ** k)
    return offsets


def mixed_ufv_rows(relations, n, D, fld):
    """Every trunc_D(u*f*v) with deg u + deg v <= D - 2, one row each.

    The coefficient of the degree-k word w sits in column offsets[k] + w.
    """
    offsets = degree_offsets(n, D)
    ncols = offsets[D + 1]
    dtype = object if fld.is_rational else np.int64
    blocks = [np.zeros((0, ncols), dtype=dtype)]
    for f in relations:
        terms = [(k, w, fld.coerce(c)) for (k, w), c in f.coeffs.items()]
        for su in range(D - 1):
            for sv in range(D - 1 - su):
                iu = np.repeat(np.arange(n ** su), n ** sv)
                iv = np.tile(np.arange(n ** sv), n ** su)
                block = np.zeros((n ** (su + sv), ncols), dtype=dtype)
                rows = np.arange(n ** (su + sv))
                for k, w, c in terms:
                    if su + k + sv <= D:
                        block[rows, offsets[su + k + sv] + (iu * n ** k + w) * n ** sv + iv] = c
                blocks.append(block)
    return np.vstack(blocks)


def mixed_span_dims(mat, n, D, fld):
    """Leading-term count of the row space in each degree 1..D.

    The rows whose lowest term has degree >= k span the kernel of the
    projection onto the columns of degree < k, so their number is
    rank(mat) - rank(mat restricted to those columns).
    """
    offsets = degree_offsets(n, D)
    total = rank(mat, fld)
    at_least = [total - (rank(mat[:, :offsets[k]], fld) if offsets[k] else 0)
                for k in range(1, D + 1)] + [0]
    return [at_least[k] - at_least[k + 1] for k in range(D)]


def certificate_degree(dims, n):
    """Least k with degrees k..D all full, or None."""
    k = None
    for j in range(len(dims), 0, -1):
        if dims[j - 1] != n ** j:
            break
        k = j
    return k


def as_mixed_element(vec, n, D):
    """The element whose coefficient on the degree-k word w is vec[offsets[k] + w]."""
    offsets = degree_offsets(n, D)
    coeffs = {}
    for k in range(1, D + 1):
        for w, c in enumerate(vec[offsets[k]:offsets[k + 1]]):
            if c:
                coeffs[(k, w)] = c if isinstance(c, Fraction) else Fraction(int(c))
    return Element(n, coeffs)
