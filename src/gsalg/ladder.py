"""Doubling ladders of monomial subspaces and the spaces built from them.

A ladder assigns to each level m = 0..L a splitting A(2^m) = V(2^m) (+)
U(2^m) with V spanned by monomials, V(2^0) = Kx + Ky, and

    V(2^m) inside V(2^{m-1}) * V(2^{m-1}),
    A(2^{m-1})U(2^{m-1}) + U(2^{m-1})A(2^{m-1}) inside U(2^m).

From the levels, any degree k <= cap gets two direct splittings
A(k) = U^<(k) (+) V^<(k) = U^>(k) (+) V^>(k) by factoring k along its
binary expansion (ascending vs descending powers), an "invisible" space
E(k) of elements killed in a window quotient, and bounds relating the
dimensions of all of these.

Everything over two letters; coefficient arithmetic is GF(2) and sets
of monomials wherever the data allows (which is always, for the
built-in strategies).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .elements import Element
from .fields import GF2
from .limits import CapacityError, require_capacity
from .linalg import BitBasis
from .magnitude import Magnitude, magnitude_cmp
from .subspace import Subspace
from .words import parse_word, word_str

__all__ = [
    "Ladder",
    "LadderLevel",
    "LadderError",
    "build_ladder",
    "BinaryDecomposition",
    "decompose_binary",
    "AbsorptionReport",
    "absorption_check",
    "compute_E",
    "cover_bound_check",
    "WindowSpanReport",
    "relation_window_span",
    "VBoundReport",
    "v_bound_check",
    "WitnessReport",
    "survivor_witness",
]

DEFAULT_DEGREE_CAP = 16


class LadderError(ValueError):
    pass


@dataclass
class LadderLevel:
    m: int
    words: Tuple[int, ...]                 # sorted indices spanning V(2^m)
    u_space: Optional[Subspace] = None     # None = monomial complement

    @property
    def degree(self) -> int:
        return 1 << self.m

    @property
    def v_dim(self) -> int:
        return len(self.words)

    def v_space(self) -> Subspace:
        return Subspace.monomial_span(2, self.degree, self.words)

    def u(self) -> Subspace:
        if self.u_space is not None:
            return self.u_space
        return Subspace(2, self.degree, mono=frozenset(self.words)).complement()

    def u_is_complement(self) -> bool:
        return self.u_space is None


@dataclass
class Ladder:
    levels: List[LadderLevel]
    eschedule: Optional[Dict[int, int]] = None   # m in Y -> e(m)
    degree_cap: int = DEFAULT_DEGREE_CAP
    strategy: str = "user"

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def level(self, m: int) -> LadderLevel:
        if not 0 <= m <= self.top:
            raise LadderError(f"level {m} missing (ladder has 0..{self.top})")
        return self.levels[m]

    def w_set(self, m: int) -> frozenset:
        return frozenset(self.level(m).words)

    # -- verification ---------------------------------------------------
    def verify(self) -> Dict[str, bool]:
        """The level invariants, one named check per property."""
        out: Dict[str, bool] = {}
        base = self.levels[0]
        out["base_level"] = (base.m == 0 and tuple(base.words) == (0, 1)
                             and base.u().dim == 0)
        mono_v = all(lv.m == m for m, lv in enumerate(self.levels))
        out["level_indexing"] = mono_v
        ok_sum, ok_rec, ok_prod = True, True, True
        for m in range(1, self.top + 1):
            lv = self.level(m)
            prev = self.level(m - 1)
            # direct sum: V + U = A(2^m), V cap U = 0; V is built unchecked
            # because an unverified ladder may hold words outside A(2^m)
            if lv.u_space is not None:
                v = Subspace(2, lv.degree, mono=frozenset(lv.words))
                u = lv.u_space
                if not (v.dim + u.dim == 1 << lv.degree
                        and v.intersect(u).dim == 0):
                    ok_sum = False
            # U recursion on spanning sets
            if not _u_recursion_holds(prev, lv):
                ok_rec = False
            # V products
            prev_w = frozenset(prev.words)
            block = 1 << prev.degree
            prods = frozenset(a * block + b for a in prev_w for b in prev_w)
            if not frozenset(lv.words) <= prods:
                ok_prod = False
        out["direct_sum"] = ok_sum
        out["u_recursion"] = ok_rec
        out["v_products"] = ok_prod
        if self.eschedule is not None:
            out["target_dims"] = self._targets_ok()
        return out

    def _targets_ok(self) -> bool:
        want = _target_dims(self.eschedule, self.top)
        return all(self.level(m).v_dim == want[m] for m in range(self.top + 1))

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        levels = []
        for lv in self.levels:
            entry = {"m": lv.m,
                     "v": [word_str(2, lv.degree, i) for i in lv.words]}
            if lv.u_space is not None:
                entry["u"] = lv.u_space.to_json()
            levels.append(entry)
        out = {"levels": levels, "strategy": self.strategy}
        if self.eschedule is not None:
            out["eschedule"] = {str(m): e for m, e in self.eschedule.items()}
        return out

    @staticmethod
    def from_json(data: dict, verify: bool = True) -> "Ladder":
        entries = data["levels"]
        u_spaces = {i: Subspace.from_json(e["u"])
                    for i, e in enumerate(entries) if "u" in e}
        sched = None
        if "eschedule" in data:
            sched = {int(k): int(v) for k, v in data["eschedule"].items()}
        # words are read against their position, so a wrong "m" shows up
        # as a level_indexing failure rather than a parse error
        lad = ladder_from_levels([e["v"] for e in entries], u_spaces=u_spaces,
                                 eschedule=sched, verify=False)
        for lv, e in zip(lad.levels, entries):
            lv.m = int(e["m"])
        lad.strategy = data.get("strategy", "user")
        if verify:
            _require_valid(lad)
        return lad


def _u_recursion_holds(prev: LadderLevel, cur: LadderLevel) -> bool:
    """A(h)U(h) + U(h)A(h) inside U(2^m), h = half degree, on spanning sets."""
    if prev.u_is_complement() and cur.u_is_complement():
        # forced part is exactly the non-product words, so the check
        # reduces to V(2^m) staying inside the product set
        prev_w = frozenset(prev.words)
        block = 1 << prev.degree
        return all((w >> prev.degree) in prev_w and (w & (block - 1)) in prev_w
                   for w in cur.words)
    half = prev.degree
    block = 1 << half
    u_cur = cur.u()
    prev_u = prev.u()
    if prev_u.is_monomial and u_cur.is_monomial:
        uset = prev_u.monomials()
        target = u_cur.monomials()
        # spanning words: either half drawn from U(half)
        for w in range(1 << cur.degree):
            if ((w >> half) in uset or (w & (block - 1)) in uset) \
                    and w not in target:
                return False
        return True
    # general backend: run over spanning pairs
    full = Subspace.full_space(2, half)
    left = full.product(prev_u)
    right = prev_u.product(full)
    return left.is_subspace_of(u_cur) and right.is_subspace_of(u_cur)


def _require_valid(lad: Ladder):
    report = lad.verify()
    bad = [k for k, v in report.items() if not v]
    if bad:
        raise LadderError("ladder invariants violated: " + ", ".join(bad))


# ---------------------------------------------------------------------
# construction


def _target_dims(eschedule: Optional[Dict[int, int]], top: int) -> List[int]:
    """Per-level V dimensions: 2 everywhere, 2^(2^j) along each scheduled
    interval m-e(m)-1+j for j = 0..e(m)."""
    dims = [2] * (top + 1)
    taken: Dict[int, int] = {}
    for m, e in sorted((eschedule or {}).items()):
        if e < 0 or m - e - 1 < 0:
            raise LadderError(f"interval for index {m} starts below level 0")
        if m - 1 > top:
            raise LadderError(f"interval for index {m} runs past level {top}")
        for j in range(e + 1):
            lvl = m - e - 1 + j
            if lvl in taken:
                raise LadderError(
                    f"intervals for indices {taken[lvl]} and {m} overlap at level {lvl}")
            taken[lvl] = m
            if lvl <= top:
                dims[lvl] = 1 << (1 << j)
    dims[0] = 2
    return dims


def build_ladder(strategy: str = "lex-greedy", top: int = 4,
                 seed: Optional[int] = None,
                 eschedule: Optional[Dict[int, int]] = None,
                 degree_cap: int = DEFAULT_DEGREE_CAP) -> Ladder:
    """Build and verify a ladder with levels 0..top.

    Strategies: "trivial" (V = everything, U = 0), "lex-greedy" (the
    lexicographically least monomial subset of the product set meeting
    each level's target dimension), "random" (seeded uniform choice
    among the product words, for property testing).
    """
    if top < 1:
        raise LadderError("need at least levels 0..1")
    if (1 << top) > degree_cap:
        raise CapacityError(
            f"top level degree {1 << top} over the degree cap {degree_cap}")
    if strategy == "trivial" and eschedule:
        raise LadderError("the trivial strategy fixes every dimension; "
                          "targets cannot apply")
    dims = _target_dims(eschedule, top)
    rng = random.Random(seed)
    levels = [LadderLevel(0, (0, 1))]
    for m in range(1, top + 1):
        prev = levels[-1]
        block = 1 << prev.degree
        prods = sorted(a * block + b for a in prev.words for b in prev.words)
        if strategy == "trivial":
            words = tuple(range(1 << (1 << m)))
        else:
            want = dims[m]
            if want > len(prods):
                raise LadderError(
                    f"target dim {want} at level {m} exceeds the "
                    f"{len(prods)} product words available")
            if strategy == "lex-greedy":
                words = tuple(prods[:want])
            elif strategy == "random":
                words = tuple(sorted(rng.sample(prods, want)))
            else:
                raise LadderError(f"unknown strategy {strategy!r}")
        levels.append(LadderLevel(m, words))
    lad = Ladder(levels, eschedule=eschedule, degree_cap=degree_cap,
                 strategy=strategy)
    _require_valid(lad)
    return lad


def ladder_from_levels(word_sets: Sequence[Iterable[str] | Iterable[int]],
                       u_spaces: Optional[Dict[int, Subspace]] = None,
                       eschedule: Optional[Dict[int, int]] = None,
                       verify: bool = True) -> Ladder:
    """User-supplied ladder; words given as letter strings or indices.

    verify=False skips validation (for building known-bad fixtures)."""
    levels = []
    for m, ws in enumerate(word_sets):
        idx = []
        for w in ws:
            if isinstance(w, str):
                deg, i = parse_word(2, w)
                if deg != 1 << m:
                    raise LadderError(f"word {w!r} has degree {deg}, level {m} needs {1 << m}")
                idx.append(i)
            else:
                idx.append(int(w))
        u = (u_spaces or {}).get(m)
        levels.append(LadderLevel(m, tuple(sorted(set(idx))), u))
    lad = Ladder(levels, eschedule=eschedule)
    if verify:
        _require_valid(lad)
    return lad


# ---------------------------------------------------------------------
# binary decomposition spaces


def _powers(k: int) -> List[int]:
    return [p for p in range(k.bit_length()) if k >> p & 1]


@dataclass
class BinaryDecomposition:
    k: int
    powers: List[int]
    v_less: Subspace
    u_less: Subspace
    v_greater: Subspace
    u_greater: Subspace


def _mono_chain(lad: Ladder, powers: List[int], k: int) -> Tuple[frozenset, Subspace]:
    """(V-set, U) for the factor order given by ``powers``.

    V is the concatenation product W(2^{p_1}) ... W(2^{p_r}) of the level
    W-sets, first factor leftmost; U is its complement, the words with
    some aligned factor outside its level's W-set, kept co-monomially as
    "all words but V".  That matches the spanning definitions
    sum_i A...U(2^{p_i})...A exactly.
    """
    # an unverified ladder may list words outside A(2^p); no factor is one
    factors = [[b for b in lad.w_set(p) if b >> (1 << p) == 0] for p in powers]
    require_capacity(64 * math.prod(map(len, factors)), f"V-set at degree {k}")
    v = {0}
    for p, w in zip(powers, factors):
        v = {a << (1 << p) | b for a in v for b in w}
    v = frozenset(v)
    return v, Subspace(2, k, co=v)


def _general_chain(lad: Ladder, powers: List[int], k: int) -> Tuple[Subspace, Subspace]:
    v = Subspace.monomial_span(2, 0, [0])
    for p in powers:
        v = v.product(lad.level(p).v_space())
    u = None
    for i, p in enumerate(powers):
        pre_deg = sum(1 << q for q in powers[:i])
        post_deg = sum(1 << q for q in powers[i + 1:])
        part = lad.level(p).u()
        if pre_deg:
            part = Subspace.full_space(2, pre_deg).product(part)
        if post_deg:
            part = part.product(Subspace.full_space(2, post_deg))
        u = part if u is None else u.sum(part)
    if u is None:
        u = Subspace.zero_space(2, k)
    return v, u


def decompose_binary(lad: Ladder, k: int) -> BinaryDecomposition:
    """The four spaces from k's binary expansion; ascending powers for
    the < pair, descending for the > pair.  Verifies both splittings."""
    if k < 1:
        raise LadderError("degree must be positive")
    if k > lad.degree_cap:
        raise CapacityError(f"degree {k} over the cap {lad.degree_cap}")
    powers = _powers(k)
    if powers[-1] > lad.top:
        raise LadderError(
            f"degree {k} needs level {powers[-1]}, ladder stops at {lad.top}")
    mono = all(lad.level(p).u_is_complement() or lad.level(p).u().is_monomial
               for p in powers)
    if mono:
        v_set, u_less = _mono_chain(lad, powers, k)
        v_less = Subspace(2, k, mono=v_set)
        v_set, u_greater = _mono_chain(lad, list(reversed(powers)), k)
        v_greater = Subspace(2, k, mono=v_set)
    else:
        v_less, u_less = _general_chain(lad, powers, k)
        v_greater, u_greater = _general_chain(lad, list(reversed(powers)), k)
    for v, u in ((v_less, u_less), (v_greater, u_greater)):
        if v.dim + u.dim != 1 << k or v.intersect(u).dim != 0:
            raise LadderError(f"splitting of A({k}) failed to be direct")
    return BinaryDecomposition(k, powers, v_less, u_less, v_greater, u_greater)


# ---------------------------------------------------------------------
# absorption


@dataclass
class AbsorptionReport:
    k: int
    l: int
    left_ok: bool    # A(k) U^<(l) inside U^<(k+l)
    right_ok: bool   # U^>(k) A(l) inside U^>(k+l)

    @property
    def ok(self) -> bool:
        return self.left_ok and self.right_ok


def absorption_check(lad: Ladder, k: int, l: int) -> AbsorptionReport:
    """Spanning-set check of both absorption containments at (k, l)."""
    if k < 1 or l < 1:
        raise LadderError("degrees must be positive")
    total = decompose_binary(lad, k + l)
    dk = decompose_binary(lad, k)
    dl = decompose_binary(lad, l)
    if total.v_less.is_monomial and dl.v_less.is_monomial:
        # w*u lands in U^<(k+l) unless it lands in V^<(k+l); so scan the
        # (small) V set for counterexamples with a suffix inside U^<(l)
        vl = dl.v_less.monomials()
        mask = (1 << l) - 1
        left_ok = all((w & mask) in vl for w in total.v_less.monomials())
    else:
        full = Subspace.full_space(2, k)
        left_ok = full.product(dl.u_less).is_subspace_of(total.u_less)
    if total.v_greater.is_monomial and dk.v_greater.is_monomial:
        vg = dk.v_greater.monomials()
        left_shift = l
        right_ok = all((w >> left_shift) in vg for w in total.v_greater.monomials())
    else:
        full = Subspace.full_space(2, l)
        right_ok = dk.u_greater.product(full).is_subspace_of(total.u_greater)
    return AbsorptionReport(k, l, left_ok, right_ok)


# ---------------------------------------------------------------------
# the invisible space E


def _window_index(k: int) -> int:
    """n with 2^(n-1) <= k < 2^n."""
    if k < 1:
        raise LadderError("degree must be positive")
    return k.bit_length()


def compute_E(lad: Ladder, k: int) -> Subspace:
    """E(k): elements r with every u*r*v of degree 2^(n+1) falling in
    U(2^n)A(2^n) + A(2^n)U(2^n), where 2^(n-1) <= k < 2^n."""
    n = _window_index(k)
    if n > lad.top:
        raise LadderError(f"E({k}) needs level {n}, ladder stops at {lad.top}")
    if (1 << (n + 1)) > lad.degree_cap:
        raise CapacityError(
            f"E({k}) works in degree {1 << (n + 1)}, over the cap {lad.degree_cap}")
    lv = lad.level(n)
    if lv.u().dim == (1 << lv.degree):
        raise LadderError("degenerate level: U covers all of A")
    if lv.u_is_complement() or lv.u().is_monomial:
        # quotient mod U.A + A.U has monomial basis W_n * W_n =: G; a
        # monomial r survives iff it appears as a factor of some g in G,
        # so E(k) is spanned by the words that appear in no g
        words = lv.words
        total = 1 << (n + 1)
        seen = set()
        mask = (1 << k) - 1
        block = 1 << lv.degree
        require_capacity(len(words) ** 2 * 8 * max(1, total - k),
                         f"factor scan for E({k})")
        for a in words:
            for b in words:
                g = a * block + b
                for shift in range(total - k + 1):
                    seen.add((g >> shift) & mask)
        return Subspace(2, k, co=frozenset(seen))
    # general backend: joint kernel over all (u, v) placements
    return _compute_e_kernel(lad, k, n)


def _compute_e_kernel(lad: Ladder, k: int, n: int) -> Subspace:
    total = 1 << (n + 1)
    if total > 8:
        raise CapacityError(
            "general-backend E computation is limited to window degree 8")
    lv = lad.level(n)
    half = lv.degree
    w_space = lv.u().product(Subspace.full_space(2, half)).sum(
        Subspace.full_space(2, half).product(lv.u()))
    wb = w_space._as_basis()
    nvars = 1 << k
    basis = BitBasis()
    kernel_tag = BitBasis()
    # augmented rows [residues | tag e_m]: eliminating on the low
    # residue bits first, dependencies surface as zero-residue rows
    # whose tags are kernel vectors
    n_place = sum(1 << (total - k) for _ in range(total - k + 1))
    res_bits = n_place * (1 << total)
    for midx in range(nvars):
        row = 0
        slot = 0
        for pos in range(total - k + 1):
            left_deg = pos
            right_deg = total - k - pos
            for u in range(1 << left_deg):
                for v in range(1 << right_deg):
                    w = ((u << k | midx) << right_deg) | v
                    row |= wb.reduce(1 << w) << (slot * (1 << total))
                    slot += 1
        basis.insert(row | (1 << (res_bits + midx)))
    res_mask = (1 << res_bits) - 1
    out = BitBasis()
    for row in basis.basis():
        if row & res_mask == 0:
            out.insert(row >> res_bits)
    return Subspace(2, k, rows=out)


def e_sets_consistent(lad: Ladder, k: int) -> bool:
    """Ideal-style closure: letter * E(k) and E(k) * letter land in E(k+1)."""
    e_k = compute_E(lad, k)
    e_k1 = compute_E(lad, k + 1)
    left = Subspace.full_space(2, 1).product(e_k)
    right = e_k.product(Subspace.full_space(2, 1))
    return left.is_subspace_of(e_k1) and right.is_subspace_of(e_k1)


# ---------------------------------------------------------------------
# dimension bound on A(k)/E(k)


def _v_dim(lad: Ladder, j: int, greater: bool) -> int:
    if j == 0:
        return 1
    dec = decompose_binary(lad, j)
    return (dec.v_greater if greater else dec.v_less).dim


def cover_bound_check(lad: Ladder, k: int) -> Tuple[int, int, bool]:
    """lhs = dim A(k)/E(k), rhs = sum_j dim V^<(k-j) dim V^>(j); lhs <= rhs?"""
    e = compute_E(lad, k)
    lhs = (1 << k) - e.dim
    rhs = sum(_v_dim(lad, k - j, greater=False) * _v_dim(lad, j, greater=True)
              for j in range(k + 1))
    return lhs, rhs, lhs <= rhs


# ---------------------------------------------------------------------
# the relation pad Q


@dataclass
class WindowSpanReport:
    n: int
    q: Subspace
    dim: int
    bound: Fraction
    bound_ok: bool
    window: Tuple[int, int]
    used_relations: int
    hypothesis_note: str


def relation_window_span(lad: Ladder, relations: Sequence[Element], n: int) -> WindowSpanReport:
    """Q = sum over relations f with deg f in the window
    [2^n + 2^(n-2), 2^n + 2^(n-1) + 2^(n-2)] of sum_{i+j = 2^(n+1) - deg f}
    V^>(i) f V^<(j), compared against (1/4)((1/2) dim V(2^(n-1))^2 - 2)."""
    if n < 2:
        raise LadderError("window needs n >= 2")
    total = 1 << (n + 1)
    if total > lad.degree_cap:
        raise CapacityError(f"Q lives in degree {total}, over the cap")
    if n - 1 > lad.top:
        raise LadderError(f"Q bound needs level {n - 1}")
    lo = (1 << n) + (1 << (n - 2))
    hi = (1 << n) + (1 << (n - 1)) + (1 << (n - 2))
    basis = BitBasis()
    used = 0
    for f in relations:
        if f.is_zero() or not f.is_homogeneous():
            raise LadderError("relations must be nonzero homogeneous")
        deg = f.degree()
        if not lo <= deg <= hi:
            continue
        used += 1
        support = [w for (_, w), c in f.coeffs.items()
                   if GF2.coerce(c)]
        if not support:
            continue
        rem = total - deg
        for i in range(rem + 1):
            j = rem - i
            vg = decompose_binary(lad, i).v_greater.monomials() if i else {0}
            vl = decompose_binary(lad, j).v_less.monomials() if j else {0}
            for a in vg:
                for b in vl:
                    # word index of a*w*b is ((a << deg) | w) << j | b
                    vec = 0
                    for w in support:
                        vec |= 1 << ((((a << deg) | w) << j) | b)
                    basis.insert(vec)
    qspace = Subspace(2, total, rows=basis)
    v_half = lad.level(n - 1).v_dim
    bound = Fraction(1, 4) * (Fraction(1, 2) * v_half ** 2 - 2)
    note = ("bound is meaningful under the schedule count hypothesis; "
            "comparison reported unconditionally")
    return WindowSpanReport(n, qspace, basis.rank, bound, Fraction(basis.rank) <= bound,
                   (lo, hi), used, note)


# ---------------------------------------------------------------------
# product-dimension bound for V^>


@dataclass
class VBoundReport:
    alpha: int
    v_dim: int
    bound: Magnitude
    applicable: bool
    ok: bool


def v_bound_check(lad: Ladder, alpha: int,
                  eschedule: Optional[Dict[int, int]] = None) -> VBoundReport:
    """dim V^>(alpha) < 2*alpha*prod over scheduled i <= m of 2^(2^(e(i)+1)),
    m the largest scheduled index whose interval holds a power of alpha."""
    sched = eschedule if eschedule is not None else lad.eschedule
    if sched is None:
        raise LadderError("no e-schedule available")
    dec = decompose_binary(lad, alpha)
    v_dim = dec.v_greater.dim
    powers = set(dec.powers)
    m_star = None
    for m, e in sorted(sched.items()):
        if any(m - e - 1 <= p <= m - 1 for p in powers):
            m_star = m
    bound = Magnitude.from_int(2 * alpha)
    applicable = m_star is not None
    if applicable:
        for i, e in sorted(sched.items()):
            if i <= m_star:
                bound = bound * Magnitude.pow2(1 << (e + 1))
    if v_dim == 0:
        ok = True
    else:
        ok = magnitude_cmp(Magnitude.from_int(v_dim), bound) < 0
    return VBoundReport(alpha, v_dim, bound, applicable, ok)


# ---------------------------------------------------------------------
# last-letter witness


@dataclass
class WitnessReport:
    level: int
    p: int
    letter: str
    independent: bool
    v_dim: int

    @property
    def half_ok(self) -> bool:
        return 2 * self.p >= self.v_dim


def survivor_witness(lad: Ladder, l: int) -> WitnessReport:
    """Take the majority last letter among V(2^(l-1)) basis words (ties
    to x), strip it, and test independence of the stripped words in
    A(2^(l-1) - 1)/E(2^(l-1) - 1)."""
    if l < 2:
        raise LadderError("witness needs l >= 2")
    lv = lad.level(l - 1)
    words = lv.words
    enders_x = [w for w in words if (w & 1) == 0]
    enders_y = [w for w in words if (w & 1) == 1]
    if len(enders_x) >= len(enders_y):
        letter, chosen = "x", enders_x
    else:
        letter, chosen = "y", enders_y
    k = lv.degree - 1
    e_space = compute_E(lad, k)
    stripped = [w >> 1 for w in chosen]
    # distinct words are independent; modulo E they stay so iff their
    # span meets E only in 0
    s = Subspace.monomial_span(2, k, stripped)
    independent = s.dim == len(stripped) and s.intersect(e_space).dim == 0
    return WitnessReport(l, len(chosen), letter, independent, len(words))
