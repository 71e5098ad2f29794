"""Sparse relation-degree profiles, exponent schedules, and growth bounds.

Relation degrees are grouped into dyadic windows (2^n, 2^(n+1)]; the
window counts r_n drive everything else: hypothesis validation, the
per-level exponent schedule e(n), and upper/lower dimension bounds.
All comparisons are exact, over plain integers or Magnitudes; this module
decides none itself.  Power-of-two thresholds go through
``magnitude.floor_log2_map`` (or ``bitlen_lt_pow2``) and everything else
through ``magnitude_cmp``.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .limits import CapacityError
from .magnitude import (Magnitude, MagnitudeError, bitlen_lt_pow2,
                        floor_log2_map, magnitude_cmp)

__all__ = [
    "ScheduleError",
    "Count",
    "DyadicProfile",
    "window_of",
    "dyadic_profile",
    "ConditionEntry",
    "ValidationReport",
    "validate_profile",
    "bracket_exponent",
    "Schedule",
    "compute_schedule",
    "verify_schedule",
    "cumulative_gap_report",
    "check_cumulative_gap",
    "GrowthBounds",
    "growth_bounds",
    "tower_profile",
    "tower_class_checks",
    "exponential_exceeds_quasipoly",
    "sample_valid_profile",
]

Count = Union[int, Magnitude]

_TOWER_MAX_LEVELS = 8


class ScheduleError(ValueError):
    pass


# -- size helpers -------------------------------------------------------

def _is_one(r: Count) -> bool:
    if isinstance(r, int):
        return r == 1
    return r.coeff == 1 and not r.factors


def _as_mag(r: Count) -> Magnitude:
    return Magnitude.from_int(r) if isinstance(r, int) else r


def _exact_log2(r: Count) -> Optional[int]:
    """log2(r) when r is a power of two, else None."""
    if isinstance(r, int):
        return r.bit_length() - 1 if r > 0 and r & (r - 1) == 0 else None
    return r.log2_floor() if r.is_power_of_two() else None


def _le_pow2(r: Count, t: int) -> bool:
    """r <= 2**t."""
    return bitlen_lt_pow2(r, t) or _exact_log2(r) == t


def _lt_pow2pow(r: Count, d: int) -> bool:
    """r < 2**(2**d); d may be negative or far too large to expand."""
    # for d <= 0, 2^(2^d) lies in (1, 2], so only r = 1 (L = 0) fits under it
    return floor_log2_map(r, lambda L: L.bit_length() <= max(d, 0))


def _le_pow2pow(r: Count, d: int) -> bool:
    """r <= 2**(2**d)."""
    lg = _exact_log2(r)
    # equality needs log2(r) = 2^d, the power of two with d + 1 bits
    return _lt_pow2pow(r, d) or (
        lg is not None and lg & (lg - 1) == 0 and lg.bit_length() == d + 1)


# -- profiles -----------------------------------------------------------

def window_of(deg: Count) -> int:
    """Index n of the dyadic window (2^n, 2^(n+1)] containing a degree."""
    if isinstance(deg, int) and deg < 2 or _is_one(deg):
        raise ScheduleError("degrees must be at least 2")
    # a power of two closes the window below its floor(log2)
    return floor_log2_map(deg, lambda L: L) - (_exact_log2(deg) is not None)


@dataclass(frozen=True)
class DyadicProfile:
    """Window counts r_n, stored as (n, r_n) pairs sorted by level."""

    levels: Tuple[Tuple[int, Count], ...]

    @staticmethod
    def make(counts: Dict[int, Count]) -> "DyadicProfile":
        items = []
        for n in sorted(counts):
            r = counts[n]
            if n < 0:
                raise ScheduleError("window indices are nonnegative")
            if isinstance(r, int) and r < 1:
                raise ScheduleError("window counts are positive")
            items.append((n, r))
        return DyadicProfile(tuple(items))

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(n for n, _ in self.levels)

    def r(self, n: int) -> Count:
        for lvl, cnt in self.levels:
            if lvl == n:
                return cnt
        return 0

    def to_json(self) -> dict:
        out = []
        for n, r in self.levels:
            enc = str(r) if isinstance(r, int) else r.to_json()
            out.append({"n": n, "r": enc})
        return {"levels": out}

    @staticmethod
    def from_json(data: dict) -> "DyadicProfile":
        counts: Dict[int, Count] = {}
        for item in data["levels"]:
            enc = item["r"]
            counts[int(item["n"])] = (
                Magnitude.from_json(enc) if isinstance(enc, dict) else int(enc))
        return DyadicProfile.make(counts)


def _degree_pairs(degrees: Iterable) -> List[Tuple[Count, Count]]:
    pairs = []
    for item in degrees:
        if isinstance(item, tuple):
            deg, mult = item
        else:
            deg, mult = item, 1
        if isinstance(mult, int) and mult < 1:
            raise ScheduleError("multiplicities are positive")
        pairs.append((deg, mult))
    return pairs


def dyadic_profile(degrees: Iterable) -> DyadicProfile:
    """Window counts of a degree multiset.

    Accepts plain degrees or (degree, multiplicity) pairs; degrees and
    multiplicities may be integers or Magnitudes.
    """
    counts: Dict[int, Count] = {}
    for deg, mult in _degree_pairs(degrees):
        n = window_of(deg)
        if n in counts:
            a = counts[n]
            if isinstance(a, int) and isinstance(mult, int):
                counts[n] = a + mult
            else:
                raise MagnitudeError(
                    "cannot accumulate symbolic multiplicities in one window")
        else:
            counts[n] = mult
    return DyadicProfile.make(counts)


# -- hypothesis validation ----------------------------------------------

@dataclass
class ConditionEntry:
    key: str
    ok: bool
    level: Optional[int] = None
    other: Optional[int] = None
    lhs: str = ""
    rhs: str = ""
    note: str = ""
    informational: bool = False

    def to_json(self) -> dict:
        out = {"key": self.key, "ok": self.ok}
        if self.level is not None:
            out["level"] = self.level
        if self.other is not None:
            out["other"] = self.other
        if self.lhs:
            out["lhs"] = self.lhs
        if self.rhs:
            out["rhs"] = self.rhs
        if self.note:
            out["note"] = self.note
        if self.informational:
            out["informational"] = True
        return out


@dataclass
class ValidationReport:
    entries: List[ConditionEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries if not e.informational)

    def failures(self) -> List[ConditionEntry]:
        return [e for e in self.entries if not e.ok and not e.informational]

    def find(self, key: str, level: Optional[int] = None,
             other: Optional[int] = None) -> List[ConditionEntry]:
        out = []
        for e in self.entries:
            if e.key != key:
                continue
            if level is not None and e.level != level:
                continue
            if other is not None and e.other != other:
                continue
            out.append(e)
        return out

    def to_json(self) -> dict:
        return {"ok": self.ok, "entries": [e.to_json() for e in self.entries]}


def _window_hit(deg: Count, n: int) -> bool:
    """Degree falls inside [2^n - 2^(n-3), 2^n + 2^(n-2)]."""
    if n < 3:
        return False
    if isinstance(deg, int):
        return 7 << (n - 3) <= deg <= 5 << (n - 2)
    lo = Magnitude.from_int(7).mul(Magnitude.pow2(n - 3))
    hi = Magnitude.from_int(5).mul(Magnitude.pow2(n - 2))
    return magnitude_cmp(lo, deg) <= 0 and magnitude_cmp(deg, hi) <= 0


def validate_profile(profile: DyadicProfile,
                     degrees: Optional[Iterable] = None) -> ValidationReport:
    """Check the sparsity and growth hypotheses on a window profile.

    Conditions, in report order: no occupied window below index 8; no
    relation degree inside a forbidden band around a power of two (only
    when the degree multiset is supplied); for every pair m < n of
    occupied windows the chained bounds 2^(3n+4) * r_m^33 < r_n and
    r_n < 2^(2^(n-m-3)); and the cap r_n < 2^(2^(floor(n/2)-4)).

    The pair conditions also quantify over m = 0.  An empty bottom
    window is read as r_0 = 0, which degenerates the lower bound to
    r_n >= 1; the strict alternative 2^(3n+4) < r_n is reported as an
    informational entry since the cumulative product condition needs it.
    Failures are report entries, never exceptions.
    """
    rep = ValidationReport()
    support = profile.support

    small = [n for n in support if n < 8]
    if small:
        for n in small:
            rep.entries.append(ConditionEntry(
                "small_levels_empty", False, level=n,
                lhs=str(profile.r(n)), rhs="0",
                note="windows below index 8 must be empty"))
    else:
        rep.entries.append(ConditionEntry("small_levels_empty", True))

    if degrees is not None:
        hits = []
        for deg, mult in _degree_pairs(degrees):
            w = window_of(deg)
            for n in (w, w + 1):
                if _window_hit(deg, n):
                    hits.append(ConditionEntry(
                        "window_free", False, level=n,
                        lhs=str(deg),
                        rhs=f"[2^{n} - 2^{n - 3}, 2^{n} + 2^{n - 2}]",
                        note="degree lands in a forbidden band"))
        rep.entries.extend(hits if hits else
                           [ConditionEntry("window_free", True)])

    for n in support:
        rn = profile.r(n)
        lowers = [m for m in (0,) + support if m < n]
        for m in sorted(set(lowers)):
            rm = profile.r(m)
            if m == 0 and 0 not in support:
                ok = True if isinstance(rn, Magnitude) else rn >= 1
                rep.entries.append(ConditionEntry(
                    "chain_lower", ok, level=n, other=0,
                    lhs="0", rhs=str(rn),
                    note="empty bottom window read as r_0 = 0; the lower "
                         "bound degenerates to r_n >= 1"))
            else:
                lhs = Magnitude.pow2(3 * n + 4).mul(_as_mag(rm).pow_int(33))
                rep.entries.append(ConditionEntry(
                    "chain_lower", magnitude_cmp(lhs, rn) < 0, level=n, other=m,
                    lhs=str(lhs), rhs=str(rn)))
            d = n - m - 3
            rep.entries.append(ConditionEntry(
                "chain_upper", _lt_pow2pow(rn, d), level=n, other=m,
                lhs=str(rn), rhs=f"2^(2^{d})"))

    if support:
        n0 = support[0]
        base = Magnitude.pow2(3 * n0 + 4)
        rep.entries.append(ConditionEntry(
            "base_gap", magnitude_cmp(base, profile.r(n0)) < 0, level=n0,
            lhs=str(base), rhs=str(profile.r(n0)), informational=True,
            note="strict reading of the empty-window base case; the "
                 "cumulative product condition relies on it"))

    for n in support:
        d = n // 2 - 4
        rep.entries.append(ConditionEntry(
            "half_level_upper", _lt_pow2pow(profile.r(n), d), level=n,
            lhs=str(profile.r(n)), rhs=f"2^(2^{d})",
            note="floor convention for n/2"))

    return rep


# -- exponent schedules -------------------------------------------------

def bracket_exponent(r: Count) -> int:
    """The unique e with 2^(2^(e-3)) <= r < 2^(2^(e-2))."""
    if isinstance(r, int) and r < 2 or _is_one(r):
        raise ScheduleError("no bracketing exponent for counts below 2")
    # 2^(e-3) <= floor(log2 r) < 2^(e-2)
    return floor_log2_map(r, int.bit_length) + 2


@dataclass(frozen=True)
class Schedule:
    """Per-level exponents e(n) with their spans and count budgets.

    For each occupied window n: the span is the integer interval
    {n-1-e(n), ..., n-1}, and t_n = 2^(e(n)-1) - 3n - 4 - sum of
    2^(e(k)+2) over earlier occupied windows k; counts obey r_n <= 2^t_n.
    """

    profile: DyadicProfile
    e: Tuple[Tuple[int, int], ...]
    spans: Tuple[Tuple[int, Tuple[int, int]], ...]
    t: Tuple[Tuple[int, int], ...]

    def e_of(self, n: int) -> int:
        return dict(self.e)[n]

    def span_of(self, n: int) -> Tuple[int, int]:
        return dict(self.spans)[n]

    def t_of(self, n: int) -> int:
        return dict(self.t)[n]

    def regime_flags(self) -> Dict[int, bool]:
        """Whether e(n) < n/2 - 1 holds (the tight product-bound regime)."""
        return {n: 2 * e + 2 < n for n, e in self.e}

    def to_json(self) -> dict:
        levels = []
        for n, e in self.e:
            lo, hi = self.span_of(n)
            levels.append({"n": n, "e": e, "span": [lo, hi],
                           "t": str(self.t_of(n))})
        return {"profile": self.profile.to_json(), "levels": levels}

    @staticmethod
    def from_json(data: dict, verify: bool = True) -> "Schedule":
        profile = DyadicProfile.from_json(data["profile"])
        e = tuple((item["n"], item["e"]) for item in data["levels"])
        spans = tuple((item["n"], (item["span"][0], item["span"][1]))
                      for item in data["levels"])
        t = tuple((item["n"], int(item["t"])) for item in data["levels"])
        sched = Schedule(profile, e, spans, t)
        if verify:
            rep = verify_schedule(sched)
            if not rep.ok:
                bad = ", ".join(f"{x.key}@{x.level}" for x in rep.failures())
                raise ScheduleError(f"schedule fails verification: {bad}")
        return sched


def compute_schedule(profile: DyadicProfile) -> Schedule:
    """Bracket each window count and lay out the level spans.

    Raises ScheduleError when a count has no bracketing exponent, an
    exponent escapes its level, spans collide, or a count exceeds its
    budget 2^t_n.  The result is independently re-verified.
    """
    e: Dict[int, int] = {}
    spans: Dict[int, Tuple[int, int]] = {}
    t: Dict[int, int] = {}
    acc = 0
    prev_hi = None
    for n in profile.support:
        r = profile.r(n)
        en = bracket_exponent(r)
        if en > n - 1:
            raise ScheduleError(
                f"window {n}: exponent {en} escapes the level bound {n - 1}")
        tn = (1 << (en - 1)) - 3 * n - 4 - acc
        if not _le_pow2(r, tn):
            raise ScheduleError(
                f"window {n}: count exceeds its budget 2^{tn}")
        lo, hi = n - 1 - en, n - 1
        if prev_hi is not None and lo <= prev_hi:
            raise ScheduleError(f"window {n}: level spans collide")
        e[n], spans[n], t[n] = en, (lo, hi), tn
        acc += 1 << (en + 2)
        prev_hi = hi
    sched = Schedule(profile, tuple(sorted(e.items())),
                     tuple(sorted(spans.items())), tuple(sorted(t.items())))
    rep = verify_schedule(sched)
    if not rep.ok:
        bad = ", ".join(f"{x.key}@{x.level}" for x in rep.failures())
        raise ScheduleError(f"schedule fails verification: {bad}")
    return sched


def verify_schedule(sched: Schedule,
                    spans_as_intervals: bool = True) -> ValidationReport:
    """Re-check a schedule against the raw definitions.

    Avoids the construction shortcuts: brackets are tested through the
    double-exponential inequalities, budgets are recomputed from scratch,
    and the master product inequality
    r_n * 2^(3n+4) * prod 2^(2^(e(k)+2)) <= 2^(2^(e(n)-1)) is evaluated
    directly over Magnitudes.  With spans_as_intervals=False only the
    span endpoints are required to be distinct (the looser two-element
    reading of the span set).
    """
    rep = ValidationReport()
    profile = sched.profile
    acc_exps: List[int] = []
    for n, en in sched.e:
        r = profile.r(n)
        ok = (not _lt_pow2pow(r, en - 3)) and _lt_pow2pow(r, en - 2)
        rep.entries.append(ConditionEntry(
            "bracket", ok, level=n, lhs=str(r),
            rhs=f"[2^(2^{en - 3}), 2^(2^{en - 2}))"))
        rep.entries.append(ConditionEntry(
            "exponent_range", 1 <= en <= n - 1, level=n,
            lhs=str(en), rhs=f"[1, {n - 1}]"))
        lo, hi = sched.span_of(n)
        rep.entries.append(ConditionEntry(
            "span_shape", (lo, hi) == (n - 1 - en, n - 1), level=n,
            lhs=f"[{lo}, {hi}]", rhs=f"[{n - 1 - en}, {n - 1}]"))
        tn = (1 << (en - 1)) - 3 * n - 4 - sum(acc_exps)
        rep.entries.append(ConditionEntry(
            "count_budget", sched.t_of(n) == tn and _le_pow2(r, tn),
            level=n, lhs=str(r), rhs=f"2^{tn}"))
        lhs = _as_mag(r).mul(Magnitude.pow2(3 * n + 4))
        for exp in acc_exps:
            lhs = lhs.mul(Magnitude.pow2(exp))
        rhs = Magnitude.pow2(1 << (en - 1))
        rep.entries.append(ConditionEntry(
            "master_product", magnitude_cmp(lhs, rhs) <= 0, level=n,
            lhs=str(lhs), rhs=f"2^(2^{en - 1})"))
        rep.entries.append(ConditionEntry(
            "fourth_power", _le_pow2pow(_as_mag(r).pow_int(4), en),
            level=n, lhs=f"({r})^4", rhs=f"2^(2^{en})"))
        rep.entries.append(ConditionEntry(
            "tight_regime", 2 * en + 2 < n, level=n, informational=True,
            note="e(n) < n/2 - 1, the regime of the product upper bound"))
        acc_exps.append(1 << (en + 2))

    if spans_as_intervals:
        prev = None
        ok = True
        for n, (lo, hi) in sched.spans:
            if prev is not None and lo <= prev:
                ok = False
            prev = hi
        rep.entries.append(ConditionEntry(
            "spans_disjoint", ok, note="interval reading"))
    else:
        seen: set = set()
        ok = True
        for n, (lo, hi) in sched.spans:
            if lo in seen or hi in seen:
                ok = False
            seen.update((lo, hi))
        rep.entries.append(ConditionEntry(
            "spans_disjoint", ok, note="endpoint reading"))
    return rep


# -- cumulative product condition ----------------------------------------

def cumulative_gap_report(profile: DyadicProfile) -> ValidationReport:
    """Check 2^(3n+4) * prod r_i^32 < r_n over earlier occupied windows i.

    The first occupied window faces the bare power 2^(3n+4) (the empty
    product), which is the strict reading of the m = 0 pair condition.
    """
    rep = ValidationReport()
    support = profile.support
    for idx, n in enumerate(support):
        lhs = Magnitude.pow2(3 * n + 4)
        for i in support[:idx]:
            lhs = lhs.mul(_as_mag(profile.r(i)).pow_int(32))
        rep.entries.append(ConditionEntry(
            "cumulative_gap", magnitude_cmp(lhs, profile.r(n)) < 0, level=n,
            lhs=str(lhs), rhs=str(profile.r(n)),
            note="empty product: bare power base case" if idx == 0 else ""))
    return rep


def check_cumulative_gap(profile: DyadicProfile) -> bool:
    return cumulative_gap_report(profile).ok


# -- growth bounds -------------------------------------------------------

def _half_exact(m: Magnitude) -> Optional[Magnitude]:
    """m / 2 as a Magnitude, or None when m is odd."""
    # a canonical coefficient has no prime below 2^16, so it is odd, and
    # taking one 2 off the factor list leaves the form canonical
    fac = dict(m.factors)
    if 2 not in fac:
        return None
    fac[2] -= 1
    return Magnitude(m.coeff, tuple((b, e) for b, e in sorted(fac.items()) if e))


@dataclass
class GrowthBounds:
    """Exact dimension bounds for the degree-n graded piece.

    Upper bounds: 8 n^4 r_k^33 with k the top occupied window having
    2^k <= n^2, and 8 n^3 times the product of 2^(2^(e(i)+2)) over
    occupied windows with 2^i <= n^2.  Lower bounds: half of r_j^4 and
    half of 2^(2^(e(j))) with j the top occupied window having 2^j <= n;
    the doubled values are stored so everything stays integral.
    """

    n: Count
    k: Optional[int]
    j: Optional[int]
    upper_count_power: Optional[Magnitude]
    upper_level_product: Magnitude
    lower_fourth_twice: Optional[Magnitude]
    lower_level_twice: Optional[Magnitude]
    checks: List[ConditionEntry]
    notes: List[str]

    @property
    def consistent(self) -> bool:
        return all(c.ok for c in self.checks)

    def lower_fourth(self) -> Optional[Magnitude]:
        if self.lower_fourth_twice is None:
            return None
        return _half_exact(self.lower_fourth_twice)

    def lower_level(self) -> Optional[Magnitude]:
        if self.lower_level_twice is None:
            return None
        return _half_exact(self.lower_level_twice)

    def to_json(self) -> dict:
        def enc(m):
            return None if m is None else m.to_json()

        return {
            "n": str(self.n) if isinstance(self.n, int) else self.n.to_json(),
            "k": self.k,
            "j": self.j,
            "upper_count_power": enc(self.upper_count_power),
            "upper_level_product": self.upper_level_product.to_json(),
            "lower_fourth_twice": enc(self.lower_fourth_twice),
            "lower_level_twice": enc(self.lower_level_twice),
            "consistent": self.consistent,
            "checks": [c.to_json() for c in self.checks],
            "notes": self.notes,
        }


def growth_bounds(sched: Schedule, n: Count) -> GrowthBounds:
    """Evaluate the dimension bounds at degree n.

    The window selectors floor their logarithms through powering:
    k <= 2 log2(n) is applied as 2^k <= n^2 and j <= log2(n) as
    2^j <= n.  Consistency entries compare every applicable doubled
    lower bound against the doubled uppers.
    """
    profile = sched.profile
    notes: List[str] = []
    nm = _as_mag(n)
    n_sq = nm.pow_int(2)
    eight = Magnitude.from_int(8)

    k = None
    prod_levels = []
    for lvl in profile.support:
        if not bitlen_lt_pow2(n_sq, lvl):
            k = lvl
            prod_levels.append(lvl)
    j = None
    for lvl in profile.support:
        if not bitlen_lt_pow2(nm, lvl):
            j = lvl

    upper_count = None
    if k is not None:
        upper_count = eight.mul(nm.pow_int(4)).mul(_as_mag(profile.r(k)).pow_int(33))
    else:
        notes.append("no occupied window k with 2^k <= n^2; "
                     "the count-power upper bound is inapplicable")

    upper_prod = eight.mul(nm.pow_int(3))
    for lvl in prod_levels:
        upper_prod = upper_prod.mul(Magnitude.pow2(1 << (sched.e_of(lvl) + 2)))

    lower4 = lower_lvl = None
    if j is not None:
        lower4 = _as_mag(profile.r(j)).pow_int(4)
        lower_lvl = Magnitude.pow2(1 << sched.e_of(j))
    else:
        notes.append("no occupied window j with 2^j <= n; "
                     "the lower bounds are inapplicable")

    two = Magnitude.from_int(2)
    checks: List[ConditionEntry] = []
    for jj in profile.support:
        if bitlen_lt_pow2(nm, jj):
            continue
        low4 = _as_mag(profile.r(jj)).pow_int(4)
        lowl = Magnitude.pow2(1 << sched.e_of(jj))
        uppers = [("upper_level_product", upper_prod)]
        if upper_count is not None:
            uppers.append(("upper_count_power", upper_count))
        for name, up in uppers:
            doubled = two.mul(up)
            checks.append(ConditionEntry(
                "consistency", magnitude_cmp(low4, doubled) <= 0, level=jj,
                lhs=f"({profile.r(jj)})^4",
                rhs=f"2 * {name}"))
            checks.append(ConditionEntry(
                "consistency", magnitude_cmp(lowl, doubled) <= 0, level=jj,
                lhs=f"2^(2^{sched.e_of(jj)})", rhs=f"2 * {name}"))
    return GrowthBounds(n, k, j, upper_count, upper_prod,
                        lower4, lower_lvl, checks, notes)


# -- the staircase family -------------------------------------------------

def tower_profile(count: int) -> Tuple[DyadicProfile, Schedule, Dict[int, int]]:
    """A sparse staircase of doubly exponential window counts.

    Level indices grow by m' = 200 m^3 + 1 starting at 101; window m
    holds 40^(8 m^3) relations, placed at the window-safe degree
    3 * 2^(m-1).  The profile is validated, scheduled, and returned with
    the index map i -> m_i (1-based).
    """
    if count < 0:
        raise ValueError("count is nonnegative")
    if count > _TOWER_MAX_LEVELS:
        raise CapacityError(f"staircase supports at most {_TOWER_MAX_LEVELS} "
                            "levels within the magnitude budget")
    ms: List[int] = []
    m = 101
    for _ in range(count):
        ms.append(m)
        m = 200 * m ** 3 + 1
    counts: Dict[int, Count] = {}
    degrees: List[Tuple[Count, Count]] = []
    for m in ms:
        if not (m > 100 and bitlen_lt_pow2(m ** 3, m // 2 - 4)):
            raise ScheduleError(f"staircase side condition fails at {m}")
        r = Magnitude.power(40, 8 * m ** 3)
        counts[m] = r
        degrees.append((Magnitude.from_int(3).mul(Magnitude.pow2(m - 1)), r))
    profile = DyadicProfile.make(counts)
    rep = validate_profile(profile, degrees)
    if not rep.ok:
        bad = ", ".join(f"{x.key}@{x.level}" for x in rep.failures())
        raise ScheduleError(f"staircase profile fails validation: {bad}")
    if count and not check_cumulative_gap(profile):
        raise ScheduleError("staircase profile fails the cumulative gap")
    sched = compute_schedule(profile)
    return profile, sched, {i + 1: mi for i, mi in enumerate(ms)}


def tower_class_checks(sched: Schedule,
                       exps: Optional[Sequence[int]] = None) -> ValidationReport:
    """Growth-class comparisons for a staircase schedule.

    Upper class, per sampled exponent s: the best applicable upper bound
    at n = 2^s stays below 2^(3 + 4s + 200 s^3).  Lower class, per
    occupied window m: the doubled lower bound r_m^4 exceeds 40^(8 m^2).
    """
    rep = ValidationReport()
    profile = sched.profile
    support = profile.support
    if exps is None:
        exps = [10, 20, 40] + ([2 * support[0]] if support else [])
    for s in exps:
        gb = growth_bounds(sched, Magnitude.pow2(s))
        upper = (gb.upper_count_power if gb.upper_count_power is not None
                 else gb.upper_level_product)
        rhs = Magnitude.pow2(3 + 4 * s + 200 * s ** 3)
        rep.entries.append(ConditionEntry(
            "upper_class", magnitude_cmp(upper, rhs) <= 0, level=s,
            lhs=str(upper), rhs=f"2^{3 + 4 * s + 200 * s ** 3}",
            note="" if gb.upper_count_power is None else
            f"count-power bound via window {gb.k}"))
    for m in support:
        lhs = _as_mag(profile.r(m)).pow_int(4)
        rhs = Magnitude.power(40, 8 * m * m)
        rep.entries.append(ConditionEntry(
            "lower_class", magnitude_cmp(lhs, rhs) > 0, level=m,
            lhs=str(lhs), rhs=str(rhs),
            note="doubled lower bound exceeds the quoted floor"))
    return rep


def exponential_exceeds_quasipoly(c_num: int = 1025, c_den: int = 1024,
                                  log_n: int = 64,
                                  cube_coeff: int = 400) -> bool:
    """Certify (c_num/c_den)^n > 2^(cube_coeff * log2(n)^3) at n = 2^log_n.

    Any exponential with base above 1 escapes the quasi-polynomial class;
    this pins a concrete instance with one exact magnitude comparison.
    """
    if c_num <= c_den or c_den < 1:
        raise ValueError("the base must exceed 1")
    n = 1 << log_n
    rhs = cube_coeff * log_n ** 3
    lhs = Magnitude.power(c_num, n).mul(Magnitude.pow2(max(0, -rhs)))
    return magnitude_cmp(lhs, Magnitude.power(c_den, n).mul(
        Magnitude.pow2(max(0, rhs)))) > 0


# -- random valid profiles ------------------------------------------------

def sample_valid_profile(rng, max_levels: int = 3) -> DyadicProfile:
    """A random profile passing validate_profile with a strict base gap.

    Counts are sampled as small odd coefficients times large powers of
    two so every later comparison stays cheap and exact.  Bit lengths
    are driven upward fast enough that all pair conditions hold with
    room to spare, including the strict base reading, so the cumulative
    product condition provably follows.
    """
    size = rng.randint(1, max_levels)
    counts: Dict[int, Count] = {}
    bits_sum = 0
    n = rng.randint(22, 30)
    for i in range(size):
        if i:
            gap = 4
            while True:
                cand = n + gap
                cap = min(1 << (gap - 3), 1 << (cand // 2 - 4))
                lo = 3 * cand + 8 + 34 * bits_sum
                if cap > lo + 8:
                    break
                gap += 1
            n = cand
            bits = rng.randint(lo, min(cap - 1, lo + rng.randint(8, 512)))
        else:
            bits = rng.randint(3 * n + 8,
                               min((1 << (n // 2 - 4)) - 1,
                                   3 * n + 8 + rng.randint(8, 512)))
        cbits = rng.randint(1, 40)
        c = (rng.getrandbits(cbits) | (1 << (cbits - 1)) | 1) if cbits > 1 else 1
        counts[n] = Magnitude.from_int(c).mul(Magnitude.pow2(bits - cbits))
        bits_sum += bits
    profile = DyadicProfile.make(counts)
    rep = validate_profile(profile)
    if not rep.ok:
        raise ScheduleError("sampled profile unexpectedly fails validation")
    return profile
