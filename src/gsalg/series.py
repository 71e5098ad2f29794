"""Growth series of finitely presented graded algebras.

Central inequality: for A = F/(relations) with d generators and r_i
relations in degree i, the graded dimensions a_n of any admissible
quotient satisfy

    a_n  >=  d*a_{n-1} - sum_i r_i * a_{n-i}        (n >= 1, a_0 = 1),

equivalently the coefficientwise bound H(t)*(1 - d*t + sum r_i t^i) >= 1.
Everything here is exact: integer coefficient recursions, Fraction
evaluation for certificates, GF(2)/GF(p)/rational row reduction for the
Hilbert series of concrete quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .elements import Element
from .fields import GF2, Field
from .limits import require_capacity
from .linalg import SparseBasis, bit_indices, rref_gf2, rref_modp

__all__ = [
    "DegreeProfile",
    "gs_check",
    "gs_min_series",
    "SearchParams",
    "Certificate",
    "certify_infinite",
    "hilbert_quotient",
    "EntropyEstimate",
    "entropy_estimate",
]


@dataclass(frozen=True)
class DegreeProfile:
    """d generators and r_i defining relations in each degree i >= 2."""

    d: int
    counts: Tuple[Tuple[int, int], ...]  # (degree, count), sorted, counts > 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need at least one generator")
        for deg, c in self.counts:
            if deg < 2:
                raise ValueError("relation degrees start at 2")
            if c < 1:
                raise ValueError("counts must be positive")

    @staticmethod
    def make(d: int, counts: Dict[int, int] | Sequence[Tuple[int, int]]) -> "DegreeProfile":
        items = dict(counts)
        return DegreeProfile(d, tuple(sorted((k, v) for k, v in items.items() if v)))

    @staticmethod
    def from_degrees(d: int, degrees: Iterable[int]) -> "DegreeProfile":
        out: Dict[int, int] = {}
        for deg in degrees:
            out[deg] = out.get(deg, 0) + 1
        return DegreeProfile.make(d, out)

    @staticmethod
    def of_relations(d: int, relations: Iterable[Element]) -> "DegreeProfile":
        return DegreeProfile.from_degrees(d, (f.degree() for f in relations))

    def r(self, i: int) -> int:
        for deg, c in self.counts:
            if deg == i:
                return c
        return 0

    @property
    def max_degree(self) -> int:
        return self.counts[-1][0] if self.counts else 0

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def poly(self, t: Fraction) -> Fraction:
        """1 - d*t + sum_i r_i t^i, evaluated exactly."""
        val = 1 - self.d * t
        for deg, c in self.counts:
            val += c * t ** deg
        return val


@dataclass
class GSReport:
    ok: bool
    defect: List[int]                 # b_n for each checked n
    first_violation: Optional[int]    # least n with b_n < required


def gs_check(profile: DegreeProfile, coeffs: Sequence[int]) -> GSReport:
    """Check the coefficientwise inequality for a candidate dimension series.

    coeffs[n] is the degree-n dimension; coeffs[0] must be 1.  Verifies
    b_n = a_n - d*a_{n-1} + sum_i r_i a_{n-i} >= (1 if n == 0 else 0)
    for every n in range.
    """
    if not coeffs or coeffs[0] != 1:
        raise ValueError("series must start with a_0 = 1")
    defect: List[int] = []
    first = None
    for n in range(len(coeffs)):
        b = coeffs[n]
        if n >= 1:
            b -= profile.d * coeffs[n - 1]
        for deg, c in profile.counts:
            if n >= deg:
                b += c * coeffs[n - deg]
        defect.append(b)
        need = 1 if n == 0 else 0
        if b < need and first is None:
            first = n
    return GSReport(first is None, defect, first)


def gs_min_series(profile: DegreeProfile, n_max: int) -> List[int]:
    """The clamped minimal series: the smallest coefficients any series
    satisfying the inequality can have.

    c_0 = 1, c_n = max(0, d*c_{n-1} - sum_i r_i c_{n-i}).
    """
    c = [1]
    for n in range(1, n_max + 1):
        v = profile.d * c[n - 1]
        for deg, cnt in profile.counts:
            if n >= deg:
                v -= cnt * c[n - deg]
        c.append(max(0, v))
    return c


# ---------------------------------------------------------------------
# infinite-dimensionality certificates


# Largest base-grid denominator accepted: every grid point is one exact
# Fraction evaluation of the certificate polynomial, so the grid bounds the work.
MAX_GRID_DENOMINATOR = 1 << 16


@dataclass(frozen=True)
class SearchParams:
    """Controls for the certificate search over rational t in (0, 1).

    The base grid is t = k/den for k = 1..den-1, scanned left to right
    (den defaults to max relation degree + 2).  If the grid fails,
    points approaching 1 (1 - 2**-j) and a dyadic refinement around the
    grid minimum are tried, all still exact.
    """

    grid_denominator: Optional[int] = None
    boundary_probes: int = 24
    refine_rounds: int = 10

    def __post_init__(self):
        def is_int(x):
            return isinstance(x, int) and not isinstance(x, bool)

        den = self.grid_denominator
        if den is not None and not (is_int(den) and den >= 2):
            raise ValueError(f"grid denominator must be an integer >= 2, got {den!r}")
        if den is not None and den > MAX_GRID_DENOMINATOR:
            raise ValueError(f"grid denominator must be at most "
                             f"{MAX_GRID_DENOMINATOR}, got {den}")
        for name in ("boundary_probes", "refine_rounds"):
            val = getattr(self, name)
            if not (is_int(val) and val >= 0):
                raise ValueError(f"{name} must be an integer >= 0, got {val!r}")


@dataclass(frozen=True)
class Certificate:
    """A verified witness: poly(t) < 0 proves the quotient is infinite
    dimensional for any admissible choice of that many relations."""

    t: Fraction
    value: Fraction
    points_checked: int


def certify_infinite(profile: DegreeProfile,
                     params: SearchParams = SearchParams()) -> Optional[Certificate]:
    """Search for rational t in (0,1) with 1 - d*t + sum r_i t^i < 0.

    Returns the leftmost witness on the base grid when one exists there,
    otherwise the first found by refinement.  None means no witness was
    found within the search budget, which is inconclusive.
    """
    den = params.grid_denominator or profile.max_degree + 2
    checked = 0
    best_t = None
    best_v = None
    for k in range(1, den):
        t = Fraction(k, den)
        v = profile.poly(t)
        checked += 1
        if v < 0:
            return Certificate(t, v, checked)
        if best_v is None or v < best_v:
            best_t, best_v = t, v
    for j in range(1, params.boundary_probes + 1):
        t = 1 - Fraction(1, 1 << j)
        v = profile.poly(t)
        checked += 1
        if v < 0:
            return Certificate(t, v, checked)
    lo = max(Fraction(0), best_t - Fraction(1, den))
    hi = min(Fraction(1), best_t + Fraction(1, den))
    step = Fraction(1, den)
    center = best_t
    for _ in range(params.refine_rounds):
        step /= 2
        cands = [center - step, center + step]
        vals = []
        for t in cands:
            if not (0 < t < 1):
                continue
            v = profile.poly(t)
            checked += 1
            if v < 0:
                return Certificate(t, v, checked)
            vals.append((v, t))
        if not vals:
            break
        vbest, tbest = min(vals)
        if vbest < profile.poly(center):
            center = tbest
    return None


# ---------------------------------------------------------------------
# Hilbert series of graded quotients


def _check_homogeneous(relations: List[Element], d: int):
    for f in relations:
        if f.is_zero():
            raise ValueError("zero relation")
        if f.d != d:
            raise ValueError("relation over a different alphabet")
        if not f.is_homogeneous():
            raise ValueError(
                "graded dimension series needs homogeneous relations "
                "(use the truncated-quotient tools for general ones)")
        if f.degree() < 1:
            raise ValueError("relations must have positive degree")


def hilbert_quotient(relations: List[Element], n_max: int, d: int = 2,
                     fld: Field = GF2) -> List[int]:
    """Graded dimensions a_0..a_n of F/(ideal generated by the relations)."""
    if n_max < 0:
        raise ValueError(f"max degree must be non-negative, got {n_max}")
    _check_homogeneous(relations, d)
    dims = [1]
    for n, (rank, _) in enumerate(ideal_layers(relations, n_max, d, fld), start=1):
        dims.append(d ** n - rank)
    return dims + [0] * (n_max + 1 - len(dims))


def ideal_layers(relations: Sequence[Element], n_max: int, d: int, fld: Field):
    """Yield (rank, basis) for the degree-n layer of a homogeneous ideal, n = 1, 2, ...

    The degree-n layer is built incrementally as
    letter * layer(n-1) + sum_f f * A(n - deg f), which spans the same
    space as all u*f*v and keeps row counts near the ambient dimension.
    The d letter copies of the reduced layer(n-1) lie in disjoint column
    blocks, so they seed the layer already reduced.  A seed row is zero at
    the other seed pivots, so each relation row is reduced against the seed
    at its own terms only; the nonzero residuals are eliminated and their
    few new pivots cleared from the seed rows.
    Iteration stops after degree n_max, or after the first full layer since
    every later one is full too.  Each basis is the layer's reduced row
    echelon form over word indices: int rows (bit j = word j, pivot = lowest
    set bit) over GF(2), an (int64 rows, pivot columns) pair over GF(p), both
    in pivot order, and a SparseBasis over QQ.
    """
    by_degree: Dict[int, List[List[Tuple[int, object]]]] = {}
    for f in relations:
        terms = [(w, fld.coerce(c)) for (deg, w), c in f.coeffs.items()]
        by_degree.setdefault(f.degree(), []).append([(w, c) for w, c in terms if c])
    if fld.is_gf2:
        layers = _gf2_layers(by_degree, n_max, d)
    elif fld.is_rational:
        layers = _qq_layers(by_degree, n_max, d)
    else:
        layers = _modp_layers(by_degree, n_max, d, fld.char)
    for n, (rank, basis) in enumerate(layers, start=1):
        yield rank, basis
        if rank == d ** n:
            return


def _relation_rows(by_degree, n: int, d: int):
    """One (count, terms) block per relation f: row v < count, f times the v-th
    word of degree n - deg f, holds c at column col + v for each (col, c)."""
    for m, fs in by_degree.items():
        if m <= n:
            count = d ** (n - m)
            for terms in fs:
                yield count, [(w * count, c) for w, c in terms]


def _gf2_layers(by_degree, n_max: int, d: int):
    prev: Dict[int, int] = {}                # pivot column -> row of layer(n-1)
    for n in range(1, n_max + 1):
        ncols, block = d ** n, d ** (n - 1)
        require_capacity(ncols * (len(prev) * d + 4) // 4,
                         f"ideal layer in degree {n}")
        residuals: List[int] = []
        for count, terms in _relation_rows(by_degree, n, d):
            spread = sum(1 << col for col, _ in terms)
            for v in range(count):
                row = spread << v
                for col, _ in terms:
                    j = (col + v) % block        # the column within its letter block
                    if j in prev:
                        row ^= prev[j] << (col + v - j)
                if row:
                    residuals.append(row)
        new = {(row & -row).bit_length() - 1: row
               for row in _gf2_reduce_rows(residuals, ncols)[1]}
        mask = sum(1 << q for q in new)
        layer: Dict[int, int] = dict(new)
        for off in range(0, ncols, block):
            for j, row in prev.items():
                row <<= off
                if row & mask:
                    for q in bit_indices(row & mask):
                        row ^= new[q]
                layer[j + off] = row
        prev = dict(sorted(layer.items()))
        yield len(prev), list(prev.values())


def _gf2_reduce_rows(rows: List[int], ncols: int) -> Tuple[int, List[int]]:
    if not rows:
        return 0, []
    nbytes = (ncols + 7) // 8
    pad = (-nbytes) % 8
    buf = b"".join(r.to_bytes(nbytes + pad, "little") for r in rows)
    mat = np.frombuffer(buf, dtype=np.uint64).reshape(len(rows), (nbytes + pad) // 8).copy()
    rank, _ = rref_gf2(mat, ncols)
    out = [int.from_bytes(mat[i].tobytes(), "little") for i in range(rank)]
    return rank, out


def _qq_layers(by_degree, n_max: int, d: int):
    sb = SparseBasis()
    for n in range(1, n_max + 1):
        prev, sb, block = sb, SparseBasis(), d ** (n - 1)
        for j, row in prev.rows.items():
            for off in range(0, d * block, block):
                sb.rows[j + off] = {c + off: v for c, v in row.items()}
        for count, terms in _relation_rows(by_degree, n, d):
            for v in range(count):
                sb.insert({col + v: c for col, c in terms})
        yield sb.rank, sb


def _modp_layers(by_degree, n_max: int, d: int, p: int):
    """Seeded layers over GF(p).  A seed row is 1 at its pivot and 0 at the
    other seed pivots, where every residual is 0, so both are held by the
    columns the seed leaves free."""
    # the back-substitution sums at most `step` products of two residues in
    # one int64 entry, exact while step * (p - 1)**2 < 2**63
    step = ((1 << 63) - 1) // (p - 1) ** 2
    prev, prev_piv = np.zeros((0, 1), dtype=np.int64), []
    for n in range(1, n_max + 1):
        ncols, block = d ** n, d ** (n - 1)
        k, rel = d * len(prev_piv), sum(count for count, _ in _relation_rows(by_degree, n, d))
        # held at once: layer(n-1) and the merged layer, full width; over the
        # free columns, the seed, the back-substitution copy and update of
        # its rows, the relation block and the residuals
        require_capacity(8 * (k * ncols // d ** 2 + ncols * min(ncols, k + rel)
                              + (3 * k + 2 * rel) * (ncols - k)),
                         f"ideal layer in degree {n}")
        free = np.delete(np.arange(block), prev_piv)
        cols = (np.arange(0, ncols, block)[:, None] + free).ravel()
        seed_piv = [j + off for off in range(0, ncols, block) for j in prev_piv]
        seed = np.kron(np.eye(d, dtype=np.int64), prev[:, free])
        to_free, to_seed = np.full(ncols, -1), np.full(ncols, -1)
        to_free[cols], to_seed[seed_piv] = np.arange(cols.size), np.arange(k)
        residuals = [np.zeros((0, cols.size), dtype=np.int64)]
        for count, terms in _relation_rows(by_degree, n, d):
            rows = np.zeros((count, cols.size), dtype=np.int64)
            for col, c in terms:
                at = to_free[col:col + count]
                rows[np.flatnonzero(at >= 0), at[at >= 0]] = c
            for col, c in terms:
                at = to_seed[col:col + count]
                hit = np.flatnonzero(at >= 0)
                rows[hit] = (rows[hit] - c * seed[at[hit]]) % p
            residuals.append(rows[rows.any(axis=1)])
        mat = np.vstack(residuals)
        rank, new = rref_modp(mat, p)
        for lo in range(0, rank, step):
            q = new[lo:lo + step]
            assert len(q) * (p - 1) ** 2 < 1 << 63
            hit = np.flatnonzero(seed[:, q].any(axis=1))
            seed[hit] = (seed[hit] - seed[np.ix_(hit, q)] @ mat[lo:lo + len(q)]) % p
        new_piv = cols[new].tolist()
        piv = sorted(seed_piv + new_piv)
        out = np.zeros((len(piv), ncols), dtype=np.int64)
        at = np.searchsorted(piv, seed_piv)
        out[at, seed_piv] = 1
        out[np.ix_(at, cols)] = seed
        out[np.ix_(np.searchsorted(piv, new_piv), cols)] = mat[:rank]
        prev, prev_piv = out, piv
        yield len(piv), (out, piv)


# ---------------------------------------------------------------------
# entropy of a dimension series


@dataclass(frozen=True)
class EntropyEstimate:
    """max over the window n in [N/2, N] of coeffs[n] ** (1/n), held
    exactly as the pair (n_star, c_star) so comparisons stay certified."""

    n_star: int
    c_star: int
    window: Tuple[int, int]

    def as_float(self) -> float:
        return self.c_star ** (1.0 / self.n_star)

    def compare(self, q: Fraction) -> int:
        """Sign of (estimate - q), decided on integers."""
        q = Fraction(q)
        if q <= 0:
            return 1
        lhs = self.c_star * q.denominator ** self.n_star
        rhs = q.numerator ** self.n_star
        return (lhs > rhs) - (lhs < rhs)

    def at_most(self, q: Fraction) -> bool:
        return self.compare(q) <= 0


def entropy_estimate(coeffs: Sequence[int]) -> EntropyEstimate:
    """Window maximum of c_n**(1/n) over n in [N/2, N], N = len - 1.

    The argmax is found by exact cross-powering: c_n**m vs c_m**n.
    Zero coefficients count as zero and never win while any positive
    coefficient is in the window.
    """
    n_top = len(coeffs) - 1
    if n_top < 1:
        raise ValueError("need at least degrees 0..1")
    lo = max(1, n_top // 2)
    best_n, best_c = lo, coeffs[lo]
    for n in range(lo + 1, n_top + 1):
        c = coeffs[n]
        if c < 0:
            raise ValueError("negative coefficient")
        # c**(1/n) > best_c**(1/best_n) iff c**best_n > best_c**n
        if best_c == 0:
            bigger = c > 0
        elif c == 0:
            bigger = False
        else:
            bigger = c ** best_n > best_c ** n
        if bigger:
            best_n, best_c = n, c
    return EntropyEstimate(best_n, best_c, (lo, n_top))
