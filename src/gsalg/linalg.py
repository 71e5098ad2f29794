"""Row reduction engines used across the package.

Four implementations, picked by field and problem size:

* :class:`BitBasis` -- incremental GF(2) reduced row echelon form with
  rows stored as Python ints (bit j = coordinate j, pivot = lowest set
  bit).  Exact, unbounded width, ideal for subspace bookkeeping.
* :func:`rref_gf2` -- bulk GF(2) elimination on numpy uint64 words, 64
  coordinates per lane.  It steps from pivot to pivot, skipping the
  columns that are empty below the current rank.
* :func:`rref_modp` -- dense elimination over GF(p), p < 2**31, on
  int64 matrices.
* :class:`SparseBasis` -- incremental reduction with sparse
  Fraction-valued rows for exact rational runs.

Homogeneous ideal layers, for Hilbert series and truncated ideals, come
from :func:`gsalg.series.ideal_layers`, which seeds each layer with its
letter copies and eliminates the relation residuals with ``rref_gf2`` over
GF(2), ``rref_modp`` over GF(p) and ``SparseBasis`` over QQ.  Mixed-degree
ideals (:mod:`gsalg.quotient`) use ``BitBasis``, ``SparseBasis``, and the
float64 block engine there for p >= 3, whose 64-row blocks end in ``rref_modp``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "BitBasis",
    "SparseBasis",
    "rref_gf2",
    "rref_modp",
    "bit_indices",
    "product_bits",
    "intersect_bitspaces",
]


# ---------------------------------------------------------------------
# GF(2), Python-int rows


def bit_indices(v: int) -> List[int]:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


class BitBasis:
    """Reduced basis of a GF(2) row space; rows are Python ints.

    Fully reduced at all times: each pivot (lowest set bit of its row)
    occurs in no other row, so the basis is the canonical RREF of the
    space and membership testing is a short XOR loop.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Optional[Dict[int, int]] = None):
        self.rows: Dict[int, int] = dict(rows) if rows else {}  # pivot -> row

    def copy(self) -> "BitBasis":
        return BitBasis(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        done = 0
        while v:
            p = v & -v
            row = self.rows.get(p)
            if row is None:
                done |= p       # not a pivot; park the bit and move on
                v ^= p
            else:
                v ^= row        # clears p, touches only higher bits
        return done

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def insert(self, v: int) -> bool:
        """Add v to the span; True if the rank grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        p = v & -v
        for q, row in self.rows.items():
            if row & p:
                self.rows[q] = row ^ v
        self.rows[p] = v
        return True

    def extend(self, vectors) -> None:
        for v in vectors:
            self.insert(v)

    def basis(self) -> List[int]:
        return [self.rows[p] for p in sorted(self.rows)]

    def pivots(self) -> List[int]:
        return sorted(p.bit_length() - 1 for p in self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitBasis) and self.rows == other.rows

    def __len__(self) -> int:
        return len(self.rows)


def intersect_bitspaces(a: BitBasis, b: BitBasis, width: int) -> BitBasis:
    """Basis of the intersection of two spaces of the given coordinate width."""
    work = BitBasis()
    for u in a.basis():
        work.insert(u | (u << width))
    for w in b.basis():
        work.insert(w)
    mask = (1 << width) - 1
    out = BitBasis()
    for row in work.basis():
        if row & mask == 0:
            out.insert(row >> width)
    return out


def product_bits(v: int, w: int, width2: int) -> int:
    """Concatenation product of two GF(2) rows of word coordinates.

    v's bit i is a word of some degree k1, w's bit j a word of degree
    k2 with 2**k2 == 1 << width2... the product row has bit
    i * 2**k2 + j set per pair, reduced mod 2 (carryless multiply).
    """
    out = 0
    for i in bit_indices(v):
        out ^= w << (i << width2)
    return out


# ---------------------------------------------------------------------
# GF(2), packed numpy


def rref_gf2(mat: np.ndarray, ncols: int) -> Tuple[int, List[int]]:
    """In-place RREF of a packed GF(2) matrix; returns (rank, pivot columns).

    Columns are eliminated in increasing index order, so pivot columns
    are the lexicographically earliest spanning set.  Rows from ``rank`` on
    are zero left of the last pivot, so the next pivot column is the lowest
    set bit of their OR, taken one word at a time: the loop runs once per
    pivot or empty word, not once per column.
    """
    m, words = mat.shape
    rank = 0
    pivots: List[int] = []
    one = np.uint64(1)
    w = 0
    while rank < m and w < words:
        word = int(np.bitwise_or.reduce(mat[rank:, w]))
        if word == 0:
            w += 1
            continue
        c = 64 * w + (word & -word).bit_length() - 1
        if c >= ncols:
            break
        b = np.uint64(c & 63)
        p = rank + int(np.flatnonzero((mat[rank:, w] >> b) & one)[0])
        if p != rank:
            mat[[rank, p]] = mat[[p, rank]]
        hits = np.nonzero((mat[:, w] >> b) & one)[0]
        hits = hits[hits != rank]
        if hits.size:
            mat[hits] ^= mat[rank]
        pivots.append(c)
        rank += 1
    return rank, pivots


# ---------------------------------------------------------------------
# GF(p), dense numpy


def rref_modp(mat: np.ndarray, p: int) -> Tuple[int, List[int]]:
    """In-place RREF over GF(p) of an int64 matrix with entries in [0, p)."""
    if p >= 1 << 31:
        raise ValueError("modulus too large for the int64 engine")
    m, n = mat.shape
    rank = 0
    pivots: List[int] = []
    for c in range(n):
        if rank == m:
            break
        nz = np.nonzero(mat[rank:, c])[0]
        if nz.size == 0:
            continue
        q = rank + int(nz[0])
        if q != rank:
            mat[[rank, q]] = mat[[q, rank]]
        inv = pow(int(mat[rank, c]), p - 2, p)
        mat[rank] = mat[rank] * inv % p
        col = mat[:, c].copy()
        col[rank] = 0
        hits = np.nonzero(col)[0]
        if hits.size:
            mat[hits] = (mat[hits] - np.outer(col[hits], mat[rank])) % p
        pivots.append(c)
        rank += 1
    return rank, pivots


# ---------------------------------------------------------------------
# rationals, sparse rows


class SparseBasis:
    """Incremental RREF with sparse Fraction rows keyed by column index."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: Dict[int, Dict[int, Fraction]] = {}  # pivot col -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        vec = {c: Fraction(v) for c, v in vec.items() if v != 0}
        done: Dict[int, Fraction] = {}
        while vec:
            p = min(vec)
            row = self.rows.get(p)
            if row is None:
                done[p] = vec.pop(p)
                continue
            coef = vec.pop(p)
            for c, v in row.items():
                if c == p:
                    continue
                new = vec.get(c, Fraction(0)) - coef * v
                if new:
                    vec[c] = new
                else:
                    vec.pop(c, None)
        return done

    def insert(self, vec: Dict[int, Fraction]) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        p = min(vec)
        inv = Fraction(1) / vec[p]
        vec = {c: v * inv for c, v in vec.items()}
        for q, row in list(self.rows.items()):
            coef = row.get(p)
            if coef:
                upd = dict(row)
                for c, v in vec.items():
                    new = upd.get(c, Fraction(0)) - coef * v
                    if new:
                        upd[c] = new
                    else:
                        upd.pop(c, None)
                self.rows[q] = upd
        self.rows[p] = vec
        return True

    def contains(self, vec: Dict[int, Fraction]) -> bool:
        return not self.reduce(vec)

    def pivots(self) -> List[int]:
        return sorted(self.rows)
