"""Truncated ideals and finite-dimension certificates for quotient algebras.

Given relations f_1..f_m of order >= 2 in d noncommuting variables, the
degree-D truncation of the two-sided ideal they generate is the span of

    trunc_D(u * f * v),   deg u + deg v <= D - 2,

inside the space of polynomials of degree <= D.  Because every relation has
order >= 2, this span equals (I + F^{D+1}) /\\ F_{<=D} exactly, where I is the
untruncated ideal and F^k the span of words of degree >= k.  Everything in
this module reduces to row echelon computations over that span:

* membership of an element (sound: a nonmember provably lies outside I),
* a certificate that the quotient is finite dimensional, namely the least k
  with every degree-k monomial in the span,
* a commutativity probe testing each commutator x_i x_j - x_j x_i.

Homogeneous relation sets are built one degree at a time by
:func:`gsalg.series.ideal_layers`, the layer recursion behind
``hilbert_quotient``.  Mixed-degree sets get the same letter recursion on the
precision: the span at precision j is x * (span at j - 1), over letters x,
plus the rows trunc_j(f * v), in one basis over all degrees <= j.  Either way
a ``BitBasis`` serves GF(2), a ``SparseBasis`` QQ, and the float64 mod-p
engine below GF(p), p >= 3; its arithmetic is exact only for p < 2**15.
That engine halves a block until at most 64 rows remain, reduces those
with ``rref_modp`` and merges the halves with float64 products.

A certificate k means F^k is contained in I + F^{D+1}.  Substituting the
inclusion into itself bounds F^k inside I + F^N for every N, so in the
completed power-series algebra the image of F^k lies in the closed ideal and
the quotient is nilpotent of index k: the certificate is complete there.  In
the free algebra itself it only asserts nilpotency up to precision D.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .elements import Element
from .fields import QQ, Field
from .limits import require_capacity
from .linalg import BitBasis, SparseBasis, rref_modp
from .series import ideal_layers

__all__ = [
    "QuotientError",
    "TruncatedIdeal",
    "truncated_ideal_basis",
    "FinDimCertificate",
    "certify_finite_dimensional",
    "CommutativityStatus",
    "commutativity_status",
    "ThresholdInfo",
    "relation_threshold",
    "commutative_construction",
    "sample_presentation",
    "AuditReport",
    "audit_soundness",
]

_COLUMN_BUDGET = 10_000
_DENSE_MAX_PRIME = 1 << 15


class QuotientError(ValueError):
    """Bad input to a truncated-ideal computation."""


def default_precision_cap(n: int) -> int:
    """Largest supported truncation precision for ``n`` generators."""
    if n < 1:
        raise QuotientError(f"need at least one generator, got {n}")
    if n == 2:
        return 10
    cap, total = 1, n
    while total + n ** (cap + 1) <= _COLUMN_BUDGET:
        cap += 1
        total += n ** cap
    return max(cap, 2)


def _check_inputs(relations: Sequence[Element], n: Optional[int], D: int,
                  fld: Field, cap: Optional[int]) -> int:
    if n is None:
        if not relations:
            raise QuotientError("empty relation list needs an explicit generator count")
        n = relations[0].d
    if n < 1:
        raise QuotientError(f"need at least one generator, got {n}")
    for f in relations:
        if f.d != n:
            raise QuotientError(f"relation over {f.d} generators, expected {n}")
        if f.is_zero():
            raise QuotientError("zero relation is not allowed")
        if f.min_degree() < 2:
            raise QuotientError(f"relation of order {f.min_degree()} rejected, need order >= 2: {f}")
    if D < 2:
        raise QuotientError(f"precision must be at least 2, got {D}")
    limit = default_precision_cap(n) if cap is None else cap
    if D > limit:
        raise QuotientError(
            f"precision {D} exceeds the cap {limit} for {n} generators; pass cap= to override")
    # _mod_reduce's float64 products are exact only below this prime
    if not fld.is_rational and fld.char >= _DENSE_MAX_PRIME:
        raise QuotientError(
            f"dense mod-p path limited to p < {_DENSE_MAX_PRIME}, got {fld.char}")
    return n


# ---------------------------------------------------------------------------
# dense row echelon bases over GF(p)
# ---------------------------------------------------------------------------

def _mod_reduce(block: np.ndarray, rows: np.ndarray, pivs: List[int], p: int) -> np.ndarray:
    """Eliminate the pivot columns of ``rows`` from every row of ``block``.

    ``rows`` is in reduced echelon form, so a single product per column chunk
    suffices.  Arithmetic runs in float64, exact because every accumulated
    sum stays far below 2**53 for p < 2**15.
    """
    if not pivs or not block.size:
        return block % p
    coef = block[:, pivs].astype(np.float64)
    if not coef.any():
        return block % p
    out = block.astype(np.float64)
    ncols = rows.shape[1]
    step = max(1024, (1 << 23) // max(1, rows.shape[0]))
    for lo in range(0, ncols, step):
        hi = min(ncols, lo + step)
        out[:, lo:hi] -= coef @ rows[:, lo:hi].astype(np.float64)
    return np.mod(out, p).astype(np.int64)


def _rref_block(mat: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form of an integer matrix mod p, rows sorted by pivot."""
    if mat.shape[0] <= 64:
        mat = mat % p
        rank, pivs = rref_modp(mat, p)
        return mat[:rank], pivs
    half = mat.shape[0] // 2
    top, tpiv = _rref_block(mat[:half], p)
    rest = _mod_reduce(mat[half:], top, tpiv, p) if tpiv else mat[half:] % p
    bot, bpiv = _rref_block(rest, p)
    if bpiv and tpiv:
        top = _mod_reduce(top, bot, bpiv, p)
    rows = np.concatenate([top, bot]) if tpiv and bpiv else (top if tpiv else bot)
    pivs = tpiv + bpiv
    order = np.argsort(pivs, kind="stable")
    return rows[order], sorted(pivs)


class _GFpBasis:
    """Incremental reduced row echelon basis over GF(p), dense rows in any order.

    ``piv[i]`` is the pivot column of ``rows[i]``.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int16)
        self.piv: List[int] = []

    @property
    def rank(self) -> int:
        return len(self.piv)

    def insert_block(self, mat: np.ndarray) -> None:
        mat = _mod_reduce(mat.astype(np.int64), self.rows, self.piv, self.p)
        mat = mat[np.any(mat, axis=1)]
        if not mat.shape[0]:
            return
        new, npiv = _rref_block(mat, self.p)
        if not npiv:
            return
        old = _mod_reduce(self.rows.astype(np.int64), new, npiv, self.p)
        self.rows = np.concatenate([old, new]).astype(np.int16)
        self.piv = self.piv + npiv

    def contains(self, vec: np.ndarray) -> bool:
        return not _mod_reduce(vec.reshape(1, -1), self.rows, self.piv, self.p).any()

    def pivots(self) -> List[int]:
        return sorted(self.piv)


# ---------------------------------------------------------------------------
# span construction
# ---------------------------------------------------------------------------

def _relation_rows(terms, n: int, j: int, offsets: List[int]):
    """Rows {column: coefficient} of trunc_j(f v), deg v <= j - 2, for each relation f.

    ``terms`` lists each relation's (degree, word index, coefficient); the
    word w times the iv-th word of degree sv is word w * n**sv + iv.
    """
    for tl in terms:
        for sv in range(j - 1):
            base = {offsets[k + sv] + w * n ** sv: c for k, w, c in tl if k + sv <= j and c}
            for iv in range(n ** sv if base else 0):
                yield {c + iv: v for c, v in base.items()}


_FULL = "full"


@dataclass
class TruncatedIdeal:
    """Echelonized span of a relation ideal truncated at a fixed precision.

    ``span_dims[j-1]`` counts independent leading terms of degree j in the
    span; for homogeneous relation sets this is the dimension of the ideal's
    degree-j slice.  ``quotient_dims`` subtracts from n**j, giving the graded
    dimensions of the quotient F_{<=D} / (I + F^{D+1}).
    """

    n: int
    precision: int
    field: Field
    homogeneous: bool
    span_dims: Tuple[int, ...]
    _blocks: Optional[Dict[int, object]]
    _mixed: Optional[object]
    _offsets: Optional[List[int]]

    @property
    def quotient_dims(self) -> Tuple[int, ...]:
        return tuple(self.n ** j - s for j, s in enumerate(self.span_dims, start=1))

    def contains(self, f: Element) -> bool:
        """Exact membership of f in (I + F^{D+1}) /\\ F_{<=D}.

        False is a proof that f is outside the untruncated ideal I; True only
        places f in I up to terms of degree > precision.
        """
        if f.d != self.n:
            raise QuotientError(f"element over {f.d} generators, expected {self.n}")
        if f.is_zero():
            return True
        if f.degree() > self.precision:
            raise QuotientError(
                f"membership is only defined up to degree {self.precision}, got {f.degree()}")
        if f.min_degree() < 2:
            return False
        if self.homogeneous:
            return all(j >= 2 and (self._blocks[j] is _FULL
                                   or self._in_span(self._blocks[j], comp, self.n ** j))
                       for j, comp in f.components().items())
        return self._in_span(self._mixed, f, self._offsets[self.precision + 1], self._offsets)

    def certificate_degree(self) -> Optional[int]:
        """Least k with every monomial of each degree in [k, precision] in the span."""
        k = None
        for j in range(self.precision, 0, -1):
            if self.span_dims[j - 1] != self.n ** j:
                break
            k = j
        return k

    # -- internals ---------------------------------------------------

    def _in_span(self, basis, f: Element, ncols: int,
                 offsets: Optional[List[int]] = None) -> bool:
        """Membership in one basis; columns are word indices, plus offsets[degree] if given."""
        vec = {(offsets[k] if offsets else 0) + idx: self.field.coerce(c)
               for (k, idx), c in f.coeffs.items()}
        if self.field.is_rational:
            return basis.contains(vec)
        if self.field.is_gf2:
            return basis.contains(sum(1 << col for col, c in vec.items() if c))
        dense = np.zeros(ncols, dtype=np.int64)
        dense[list(vec)] = list(vec.values())
        return basis.contains(dense)

    def to_json(self) -> dict:
        return {
            "generators": self.n,
            "precision": self.precision,
            "field": self.field.name,
            "homogeneous": self.homogeneous,
            "span_dims": list(self.span_dims),
            "quotient_dims": list(self.quotient_dims),
        }


def truncated_ideal_basis(relations: Sequence[Element], n: Optional[int] = None,
                          D: int = 6, fld: Field = QQ,
                          cap: Optional[int] = None) -> TruncatedIdeal:
    """Echelonize span{trunc_D(u f v) : deg u + deg v <= D - 2}.

    Relations must have order >= 2, which makes the span equal to
    (I + F^{D+1}) /\\ F_{<=D} on the nose.  Homogeneous relation sets are
    processed degree by degree with :func:`gsalg.series.ideal_layers`; once
    some degree has full rank every higher degree is full too (multiply a
    spanned monomial by a generator), so the scan stops early.
    """
    n = _check_inputs(relations, n, D, fld, cap)
    if all(f.is_homogeneous() for f in relations):
        blocks: Dict[int, object] = {}
        dims: List[int] = []
        for j, (rank, layer) in enumerate(ideal_layers(relations, D, n, fld), start=1):
            blocks[j] = _FULL if rank == n ** j else _layer_block(layer, fld, n ** j)
            dims.append(rank)
        for j in range(len(dims) + 1, D + 1):
            blocks[j] = _FULL
            dims.append(n ** j)
        return TruncatedIdeal(n, D, fld, True, tuple(dims), blocks, None, None)
    offsets = [0] * (D + 2)
    for j in range(1, D + 1):
        offsets[j + 1] = offsets[j] + n ** j
    basis = _build_mixed(relations, n, D, fld, offsets)
    dims = [0] * D
    for col in basis.pivots():
        dims[bisect.bisect_right(offsets, col, lo=1) - 2] += 1
    return TruncatedIdeal(n, D, fld, False, tuple(dims), None, basis, offsets)


def _require_mixed_capacity(fld: Field, n: int, D: int, count: int,
                            offsets: List[int]) -> None:
    """Guard a mixed build by its top level, the largest: ncols-bit ints over
    GF(2); over GF(p), ``_mod_reduce`` holds about five 8-byte copies of the
    relation rows trunc_D(f v), then of the n letter copies of W_{D-1}, whose
    rank is at most its width and its number of generators trunc(u f v)."""
    ncols = offsets[D + 1]
    if fld.is_gf2:
        nbytes = ncols * (ncols // 4 + 128)
    else:
        rel_rows = count * (1 + offsets[D - 1])
        gens = count * sum((s + 1) * n ** s for s in range(D - 2))
        nbytes = 40 * ncols * (rel_rows + n * min(offsets[D] - n, gens))
    require_capacity(nbytes, "truncated ideal basis")


def _layer_block(layer, fld: Field, ncols: int):
    """Membership block for one reduced layer from :func:`ideal_layers`."""
    if fld.is_rational:
        return layer
    if fld.is_gf2:
        return BitBasis({row & -row: row for row in layer})
    require_capacity(2 * ncols * ncols + 16 * ncols, "truncated ideal basis")
    rows, pivots = layer
    block = _GFpBasis(fld.char, ncols)
    block.rows, block.piv = rows.astype(np.int16), pivots
    return block


def _build_mixed(relations: Sequence[Element], n: int, D: int, fld: Field,
                 offsets: List[int]):
    """Echelonize W_D = span{trunc_D(u f v)} by recursion on the precision.

    W_j = sum_x x * W_{j-1} + span{trunc_j(f v) : deg v <= j - 2} is exact
    because x * trunc_{j-1}(g) = trunc_j(x g).  The letter copies of the
    reduced W_{j-1} are already reduced (see :func:`_letter_cols`), so each
    level seeds its basis with them and eliminates only the relation rows.
    """
    if not fld.is_rational:
        _require_mixed_capacity(fld, n, D, len(relations), offsets)
    terms = [[(k, w, fld.coerce(c)) for (k, w), c in f.coeffs.items()] for f in relations]
    if fld.is_rational:
        basis, level = SparseBasis(), _qq_level
    elif fld.is_gf2:
        basis, level = BitBasis(), _gf2_level
    else:
        basis, level = _GFpBasis(fld.char, n), _modp_level
    for j in range(2, D + 1):
        basis = level(basis, _relation_rows(terms, n, j, offsets), n, j, offsets)
    return basis


def _letter_cols(n: int, j: int, offsets: List[int]) -> List[List[int]]:
    """Column maps g -> x g from precision j - 1 to j, one per letter x.

    x sends column offsets[k] + w, the degree-k word w, (x + 1) * n**k to the
    right.  Each map keeps the column order, hence pivots, and letters land apart.
    """
    step = np.concatenate([np.full(n ** k, n ** k) for k in range(1, j)])
    cols = np.arange(offsets[j])
    return [(cols + (x + 1) * step).tolist() for x in range(n)]


def _qq_level(prev: SparseBasis, rows, n: int, j: int, offsets: List[int]) -> SparseBasis:
    basis = SparseBasis()
    for dest in _letter_cols(n, j, offsets):
        for piv, row in prev.rows.items():
            basis.rows[dest[piv]] = {dest[c]: v for c, v in row.items()}
    for row in rows:
        basis.insert(row)
    return basis


def _gf2_level(prev: BitBasis, rows, n: int, j: int, offsets: List[int]) -> BitBasis:
    basis = BitBasis()
    for row in prev.rows.values():
        blocks = [(row >> offsets[k]) & ((1 << n ** k) - 1) for k in range(1, j)]
        for x in range(n):
            copy = sum(b << (offsets[k] + (x + 1) * n ** k) for k, b in enumerate(blocks, 1))
            basis.rows[copy & -copy] = copy
    for row in rows:
        basis.insert(sum(1 << c for c in row))
    return basis


def _modp_level(prev: _GFpBasis, rows, n: int, j: int, offsets: List[int]) -> _GFpBasis:
    basis = _GFpBasis(prev.p, offsets[j + 1])
    dests = _letter_cols(n, j, offsets)
    basis.rows = np.zeros((n * prev.rank, basis.ncols), dtype=np.int16)
    for x, dest in enumerate(dests):
        basis.rows[x * prev.rank:(x + 1) * prev.rank, dest] = prev.rows
    basis.piv = [dest[c] for dest in dests for c in prev.piv]
    rows = list(rows)
    mat = np.zeros((len(rows), basis.ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        mat[i, list(row)] = list(row.values())
    basis.insert_block(mat)
    return basis


# ---------------------------------------------------------------------------
# finite-dimension certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinDimCertificate:
    """Witness that every monomial of degree k lies in I + F^{D+1}.

    In the power-series completion this is a complete proof that the quotient
    is nilpotent of index k, hence of total dimension 1 + sum(dims).  In the
    free algebra it certifies nilpotency only up to the stated precision.
    """

    k: int
    precision: int
    dims: Tuple[int, ...]
    field: str

    @property
    def total_dim(self) -> int:
        return 1 + sum(self.dims)

    def to_json(self) -> dict:
        return {
            "certified": True,
            "k": self.k,
            "precision": self.precision,
            "quotient_dims": list(self.dims),
            "total_dim": self.total_dim,
            "field": self.field,
            "readings": {
                "power_series": f"complete: quotient is nilpotent of index {self.k}",
                "free_algebra": f"partial: nilpotency verified up to precision {self.precision}",
            },
        }


def certify_finite_dimensional(relations: Sequence[Element], n: Optional[int] = None,
                               D: int = 6, fld: Field = QQ,
                               cap: Optional[int] = None,
                               ideal: Optional[TruncatedIdeal] = None
                               ) -> Optional[FinDimCertificate]:
    """Certificate of finite dimension, or None when precision D cannot tell."""
    if ideal is None:
        ideal = truncated_ideal_basis(relations, n, D, fld, cap)
    k = ideal.certificate_degree()
    if k is None:
        return None
    return FinDimCertificate(k, ideal.precision, ideal.quotient_dims, ideal.field.name)


@dataclass(frozen=True)
class CommutativityStatus:
    """Outcome of testing every commutator x_i x_j - x_j x_i for membership.

    A failed membership is a proof of noncommutativity (the commutator is
    outside the full ideal, and commutators vanish in any commutative
    quotient).  Full membership only says commutative at this precision.
    """

    commutative_at_precision: bool
    witness: Optional[Tuple[int, int]]
    precision: int

    @property
    def status(self) -> str:
        if self.commutative_at_precision:
            return f"commutative at precision {self.precision}"
        return "noncommutative"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "commutative_at_precision": self.commutative_at_precision,
            "witness": list(self.witness) if self.witness else None,
            "precision": self.precision,
        }


def commutativity_status(relations: Sequence[Element], n: Optional[int] = None,
                         D: int = 6, fld: Field = QQ,
                         cap: Optional[int] = None,
                         ideal: Optional[TruncatedIdeal] = None) -> CommutativityStatus:
    """Test all commutators of generators against the truncated ideal."""
    if ideal is None:
        ideal = truncated_ideal_basis(relations, n, D, fld, cap)
    n = ideal.n
    for i in range(1, n + 1):
        xi = Element.generator(n, i - 1)
        for j in range(i + 1, n + 1):
            xj = Element.generator(n, j - 1)
            if not ideal.contains(xi * xj - xj * xi):
                return CommutativityStatus(False, (i, j), ideal.precision)
    return CommutativityStatus(True, None, ideal.precision)


# ---------------------------------------------------------------------------
# relation-count threshold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdInfo:
    """Relation counts at which finite dimension forces noncommutativity.

    Any quotient presented by at most ``forced_noncommutative`` relations of
    order >= 2 is noncommutative whenever it is finite dimensional.  The
    commutator-and-squares presentation shows ``construction_size`` relations
    suffice for a commutative finite-dimensional quotient.  Counts strictly
    between the two are unresolved.
    """

    n: int
    forced_noncommutative: int
    construction_size: int
    unresolved: Optional[int]

    def to_json(self) -> dict:
        return {
            "generators": self.n,
            "forced_noncommutative": self.forced_noncommutative,
            "construction_size": self.construction_size,
            "unresolved": self.unresolved,
        }


def relation_threshold(n: int) -> ThresholdInfo:
    """Largest relation count where finite dimensional still forces noncommutative."""
    if n < 2:
        raise QuotientError(f"threshold needs at least 2 generators, got {n}")
    size = n * (n + 1) // 2
    forced = 2 if n == 2 else size - 2
    gap = size - 1
    return ThresholdInfo(n, forced, size, gap if gap > forced else None)


def commutative_construction(n: int) -> List[Element]:
    """The n(n+1)/2 relations {x_i x_j - x_j x_i (i < j)} + {x_i**2}."""
    if n < 1:
        raise QuotientError(f"need at least one generator, got {n}")
    gens = [Element.generator(n, i) for i in range(n)]
    rels = [gens[i] * gens[j] - gens[j] * gens[i]
            for i in range(n) for j in range(i + 1, n)]
    rels.extend(g * g for g in gens)
    return rels


# ---------------------------------------------------------------------------
# randomized soundness audit
# ---------------------------------------------------------------------------

def sample_presentation(rng, n: int = 2, count: int = 2, max_degree: int = 4,
                        min_order: int = 2) -> List[Element]:
    """Random relations with coefficients uniform in {-1, 0, 1}."""
    words = [(k, idx) for k in range(min_order, max_degree + 1)
             for idx in range(n ** k)]
    rels: List[Element] = []
    while len(rels) < count:
        coeffs = {w: Fraction(rng.choice((-1, 0, 1))) for w in words}
        f = Element(n, {w: c for w, c in coeffs.items() if c})
        if f.is_zero() or f.min_degree() < min_order:
            continue
        rels.append(f)
    return rels


@dataclass
class AuditReport:
    """Tally of a randomized soundness audit of the certify/commutativity pair."""

    trials: int
    certified: int
    noncommutative: int
    commutative_at_precision: int
    counterexamples: List[List[str]]

    @property
    def sound(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "certified": self.certified,
            "noncommutative": self.noncommutative,
            "commutative_at_precision": self.commutative_at_precision,
            "counterexamples": self.counterexamples,
            "sound": self.sound,
        }


def audit_soundness(rng, trials: int = 200, n: int = 2, min_count: int = 1,
                    max_count: int = 2, max_degree: int = 4, D: int = 6,
                    fld: Field = QQ) -> AuditReport:
    """Check that certified finite dimension always comes with a witness.

    With at most max_count = 2 relations on two generators, finite dimension
    is supposed to force noncommutativity; every certified presentation must
    therefore produce a noncommutativity witness.  Presentations that fail to
    certify are tallied but prove nothing either way.
    """
    certified = noncomm = comm = 0
    bad: List[List[str]] = []
    for _ in range(trials):
        count = rng.randint(min_count, max_count)
        rels = sample_presentation(rng, n=n, count=count, max_degree=max_degree)
        ideal = truncated_ideal_basis(rels, n=n, D=D, fld=fld)
        cert = certify_finite_dimensional(rels, ideal=ideal)
        status = commutativity_status(rels, ideal=ideal)
        if status.commutative_at_precision:
            comm += 1
        else:
            noncomm += 1
        if cert is not None:
            certified += 1
            if status.commutative_at_precision:
                bad.append([str(f) for f in rels])
    return AuditReport(trials, certified, noncomm, comm, bad)
