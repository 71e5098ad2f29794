"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every numbered test is self-contained, seeds its own randomness, and
checks its stated wall-clock budget where one applies.
"""

import random
import resource
import time
from fractions import Fraction
from functools import lru_cache

from gsalg.elements import Element
from gsalg.fields import GF2, GF3
from gsalg.ladder import (absorption_check, build_ladder, compute_E,
                          cover_bound_check, decompose_binary, e_sets_consistent)
from gsalg.magnitude import Magnitude, magnitude_cmp
from gsalg.parser import parse_expression
from gsalg.quotient import (audit_soundness, certify_finite_dimensional,
                            commutativity_status, truncated_ideal_basis)
from gsalg.schedule import (bracket_exponent, check_cumulative_gap,
                            compute_schedule, sample_valid_profile,
                            tower_class_checks, tower_profile, validate_profile,
                            verify_schedule, growth_bounds)
from gsalg.series import (DegreeProfile, certify_infinite, gs_check,
                          gs_min_series, hilbert_quotient)
from gsalg.words import num_words

import ideal_oracle

MASTER_SEED = 20260814


def finish(num, name, ok, t0, budget=None):
    secs = time.perf_counter() - t0
    verdict = "PASS" if ok and (budget is None or secs < budget) else "FAIL"
    extra = f", budget {budget}s" if budget is not None else ""
    print(f"criterion {num:>2}: {name}: {verdict} ({secs:.2f}s{extra})")
    assert ok
    if budget is not None:
        assert secs < budget


@lru_cache(maxsize=1)
def homogeneous_presentations():
    """100 seeded presentations: d=2, 1..3 relations, degrees 2..5."""
    rng = random.Random(MASTER_SEED)
    out = []
    for _ in range(100):
        rels = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(2, 5)
            coeffs = {}
            while not coeffs:
                for w in range(num_words(2, deg)):
                    if rng.random() < 0.4:
                        coeffs[(deg, w)] = 1
            rels.append(Element(2, coeffs))
        out.append(rels)
    return out


def ladder_fleet(count):
    shapes = [None, {5: 1}, {5: 2}]
    return [build_ladder("random", top=4, seed=seed,
                         eschedule=shapes[seed % len(shapes)])
            for seed in range(count)]


def test_criterion_01_free_algebra_baseline():
    t0 = time.perf_counter()
    dims = hilbert_quotient([], 12, d=2)
    ok = dims[1:] == [2 ** n for n in range(1, 13)]
    finish(1, "free-algebra baseline", ok, t0, budget=1)


def test_criterion_02_one_relation_growth():
    t0 = time.perf_counter()
    dims = hilbert_quotient([parse_expression("y*x")], 12, d=2)
    profile = DegreeProfile.make(2, {2: 1})
    ok = (dims[1:] == list(range(2, 14))
          and dims == gs_min_series(profile, 12))
    finish(2, "one-relation growth attains the minimal series", ok, t0, budget=5)


def test_criterion_03_gs_inequality_property():
    t0 = time.perf_counter()
    passed = 0
    for rels in homogeneous_presentations():
        dims = hilbert_quotient(rels, 10, d=2, fld=GF2)
        profile = DegreeProfile.of_relations(2, rels)
        if gs_check(profile, dims).ok:
            passed += 1
    finish(3, f"GS inequality on exact dimensions, {passed}/100 presentations",
           passed == 100, t0, budget=120)


def test_criterion_04_certificate_exactness():
    t0 = time.perf_counter()
    cubic = DegreeProfile.make(2, {3: 1})
    cert = certify_infinite(cubic)
    ok = (cert is not None and cert.t == Fraction(4, 5)
          and cert.value == Fraction(-11, 125)
          and cubic.poly(cert.t) == cert.value and cert.value < 0)
    quad = DegreeProfile.make(2, {2: 1})
    ok = ok and certify_infinite(quad) is None
    grid = [Fraction(k, 4) for k in range(1, 4)]
    ok = ok and all(quad.poly(t) > 0 for t in grid)
    ok = ok and quad.poly(Fraction(1)) == 0
    finish(4, "rational certificates exact on both fixtures", ok, t0, budget=1)


def test_criterion_05_splitting_and_absorption_suite():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for lad in ladder_fleet(20):
        for k in range(1, 16):
            dec = decompose_binary(lad, k)
            for v, u in ((dec.v_less, dec.u_less), (dec.v_greater, dec.u_greater)):
                ok = ok and v.dim + u.dim == 1 << k
                ok = ok and not (v.monomials() & u.monomials())
        for k in range(1, 16):
            for l in range(1, 17 - k):
                rep = absorption_check(lad, k, l)
                ok = ok and rep.ok
                checked += 1
    finish(5, f"splittings and absorption, {checked} pairs on 20 ladders",
           ok, t0, budget=300)


def test_criterion_06_e_pipeline():
    t0 = time.perf_counter()
    ok = True
    for lad in ladder_fleet(5):
        for k in range(1, 8):
            compute_E(lad, k)
            ok = ok and cover_bound_check(lad, k)[2]
        for k in range(1, 7):
            ok = ok and e_sets_consistent(lad, k)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = ok and peak_kb < 1024 * 1024
    finish(6, f"E pipeline on 5 ladders, peak rss {peak_kb // 1024} MB",
           ok, t0, budget=900)


def test_criterion_07_scheduler_exactness():
    t0 = time.perf_counter()
    fixtures = {2: 3, 256: 6, Magnitude.pow2(1 << 10): 13}
    ok = True
    for r, want in fixtures.items():
        e = bracket_exponent(r)
        ok = ok and e == want
        r_mag = r if isinstance(r, Magnitude) else Magnitude.from_int(r)
        ok = ok and magnitude_cmp(Magnitude.pow2(1 << (e - 3)), r_mag) <= 0
        ok = ok and magnitude_cmp(r_mag, Magnitude.pow2(1 << (e - 2))) < 0
        ok = ok and magnitude_cmp(r_mag.pow_int(4), Magnitude.pow2(1 << e)) <= 0
    profile, sched, fmap = tower_profile(2)
    ok = ok and fmap == {1: 101, 2: 206060201}
    ok = ok and validate_profile(profile).ok and check_cumulative_gap(profile)
    reports = [verify_schedule(sched)]
    for seed in range(5):
        p = sample_valid_profile(random.Random(seed))
        reports.append(verify_schedule(compute_schedule(p)))
    for rep in reports:
        ok = ok and rep.ok
        masters = rep.find("master_product")
        ok = ok and masters and all(e.ok for e in masters)
    finish(7, "bracket fixtures, staircase windows, master inequality",
           ok, t0, budget=10)


def test_criterion_08_cumulative_gap_implication():
    t0 = time.perf_counter()
    passed = 0
    for seed in range(100):
        p = sample_valid_profile(random.Random(seed))
        if validate_profile(p).ok and check_cumulative_gap(p):
            passed += 1
    finish(8, f"validated profiles imply the cumulative gap, {passed}/100",
           passed == 100, t0)


def test_criterion_09_finite_dimension_audit():
    t0 = time.perf_counter()
    rels = [parse_expression("x*y - y*x"), parse_expression("x*x"),
            parse_expression("y*y")]
    cert = certify_finite_dimensional(rels, D=8)
    status = commutativity_status(rels, D=8)
    ok = (cert is not None and cert.k == 3 and cert.dims[:3] == (2, 1, 0)
          and status.commutative_at_precision)
    audit = audit_soundness(random.Random(MASTER_SEED), trials=200, n=2,
                            min_count=2, max_count=2, max_degree=4, D=8,
                            fld=GF3)
    ok = ok and audit.sound and audit.certified > 0
    finish(9, f"finite dimension forces noncommutativity, "
              f"{audit.certified}/200 certified, 0 counterexamples",
           ok, t0, budget=600)


def test_criterion_10_cross_module_consistency():
    t0 = time.perf_counter()
    agreed = 0
    for rels in homogeneous_presentations():
        ideal = truncated_ideal_basis(rels, D=10, fld=GF2)
        graded = hilbert_quotient(rels, 10, d=2, fld=GF2)
        # both builders share the layer recursion; the u*f*v enumeration
        # is the independent construction
        oracle = ideal_oracle.span_dims(rels, 2, 10, GF2)
        if list(ideal.quotient_dims) == graded[1:] and list(ideal.span_dims) == oracle:
            agreed += 1
    finish(10, f"quotient dims match graded series and the u*f*v oracle, {agreed}/100",
           agreed == 100, t0)


def test_criterion_11_growth_class_separation():
    t0 = time.perf_counter()
    _, sched, _ = tower_profile(2)
    upper = tower_class_checks(sched, exps=[10, 20, 40])
    ok = upper.ok
    gb = growth_bounds(sched, Magnitude.pow2(102))
    ok = ok and gb.j == 101
    floor = Magnitude.power(40, 8 * 101 * 101)
    ok = ok and magnitude_cmp(gb.lower_fourth(), floor) > 0
    finish(11, "tower bounds separate the growth classes", ok, t0, budget=10)
