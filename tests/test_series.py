import random
import tracemalloc
from fractions import Fraction

import pytest

from gsalg import series
from gsalg.elements import Element
from gsalg.fields import GF2, GF3, QQ, Field
from gsalg.parser import parse_expression
from gsalg.series import (MAX_GRID_DENOMINATOR, Certificate, DegreeProfile, SearchParams,
                          certify_infinite, entropy_estimate, gs_check, gs_min_series,
                          hilbert_quotient, ideal_layers)
from gsalg.words import num_words

import ideal_oracle


def random_homogeneous(rng, d=2, max_relations=3, max_degree=5):
    """A few nonzero homogeneous GF(2) relations of random degrees."""
    relations = []
    for _ in range(rng.randint(1, max_relations)):
        deg = rng.randint(2, max_degree)
        coeffs = {}
        while not coeffs:
            for w in range(num_words(d, deg)):
                if rng.random() < 0.4:
                    coeffs[(deg, w)] = 1
        relations.append(Element(d, coeffs))
    return relations


# -- DegreeProfile ------------------------------------------------------

def test_profile_construction_and_poly():
    p = DegreeProfile.make(2, {3: 1})
    assert p.r(3) == 1 and p.r(2) == 0
    assert p.max_degree == 3 and p.total == 1
    assert p.poly(Fraction(4, 5)) == Fraction(-11, 125)
    q = DegreeProfile.from_degrees(2, [2, 2, 5])
    assert q.r(2) == 2 and q.r(5) == 1 and q.total == 3


def test_profile_of_relations():
    rels = [parse_expression("y*x"), parse_expression("x*x*x + y*y*y")]
    p = DegreeProfile.of_relations(2, rels)
    assert p.r(2) == 1 and p.r(3) == 1


def test_profile_rejects_bad_degrees():
    with pytest.raises(ValueError):
        DegreeProfile.make(2, {1: 1})
    with pytest.raises(ValueError):
        DegreeProfile.make(2, {3: -1})
    with pytest.raises(ValueError):
        DegreeProfile.make(0, {2: 1})


# -- Hilbert series of quotients ----------------------------------------

def test_free_algebra_dimensions():
    dims = hilbert_quotient([], 12, d=2)
    assert dims == [2 ** n for n in range(13)]


def test_single_relation_linear_growth():
    rels = [parse_expression("y*x")]
    dims = hilbert_quotient(rels, 12, d=2)
    assert dims == list(range(1, 14))
    profile = DegreeProfile.of_relations(2, rels)
    assert gs_min_series(profile, 12) == dims
    assert gs_check(profile, dims).ok


def test_commutator_gives_polynomial_growth():
    rels = [parse_expression("x*y - y*x")]
    for fld in (GF2, GF3, QQ):
        assert hilbert_quotient(rels, 8, d=2, fld=fld) == list(range(1, 10))


def test_field_can_change_dimensions():
    # x*y + y*x is the commutator mod 2 but not mod 3
    rels = [parse_expression("x*y + y*x")]
    assert hilbert_quotient(rels, 4, d=2, fld=GF2) == [1, 2, 3, 4, 5]
    assert hilbert_quotient(rels, 4, d=2, fld=GF3) == [1, 2, 3, 4, 5]
    # three quadratic relations kill degree 2 down to one dimension
    rels = [parse_expression(s) for s in ("x*x", "y*y", "x*y + y*x")]
    assert hilbert_quotient(rels, 4, d=2, fld=GF2)[2] == 1


def test_killing_generators_stops_the_series():
    rels = [parse_expression(s) for s in ("x*x", "x*y", "y*x", "y*y")]
    dims = hilbert_quotient(rels, 10, d=2)
    assert dims == [1, 2] + [0] * 9


def test_inhomogeneous_relations_rejected():
    with pytest.raises(ValueError):
        hilbert_quotient([parse_expression("x + x*y")], 4, d=2)
    # a degree-1 relation is fine: it removes a generator
    assert hilbert_quotient([parse_expression("x")], 4, d=2) == [1, 1, 1, 1, 1]


def test_quotient_dims_satisfy_gs_inequality():
    rng = random.Random(20260814)
    for _ in range(25):
        rels = random_homogeneous(rng, max_degree=4)
        dims = hilbert_quotient(rels, 8, d=2)
        profile = DegreeProfile.of_relations(2, rels)
        report = gs_check(profile, dims)
        assert report.ok, (rels, dims, report)
        assert report.first_violation is None
        assert all(b >= 0 for b in report.defect[1:])


def test_gs_check_flags_a_too_small_series():
    profile = DegreeProfile.make(2, {2: 1})
    good = gs_min_series(profile, 6)
    bad = list(good)
    bad[4] -= 1
    report = gs_check(profile, bad)
    assert not report.ok and report.first_violation == 4
    with pytest.raises(ValueError):
        gs_check(profile, [2, 3])


def test_min_series_clamps_at_zero():
    # enough quadratic relations to force the recursion negative
    profile = DegreeProfile.make(2, {2: 5})
    c = gs_min_series(profile, 8)
    assert c[0] == 1 and c[1] == 2
    assert c[2] == 0            # max(0, 4 - 5) clamped
    assert all(v >= 0 for v in c)


# -- ideal layers ---------------------------------------------------------

def random_weighted(rng, d, max_relations, max_degree):
    """Homogeneous relations with coefficients in {-1, 1, 2, 3}; 3 vanishes mod 3."""
    relations = []
    for _ in range(rng.randint(1, max_relations)):
        deg = rng.randint(2, max_degree)
        coeffs = {(deg, w): Fraction(rng.choice([-1, 1, 2, 3]))
                  for w in range(num_words(d, deg)) if rng.random() < 0.4}
        relations.append(Element(d, coeffs or {(deg, 0): Fraction(1)}))
    return relations


def dense_layer(basis, fld, ncols):
    """An ideal_layers basis as dense rows, in its own row order."""
    if fld.is_gf2:
        return [[(r >> c) & 1 for c in range(ncols)] for r in basis]
    if fld.is_rational:
        return [[basis.rows[p].get(c, 0) for c in range(ncols)] for p in basis.pivots()]
    rows, pivots = basis
    assert pivots == [next(c for c, v in enumerate(r) if v) for r in rows.tolist()]
    return rows.tolist()


LAYER_SETS = [
    ["y*x"],                        # in degree n, all but n - 1 relation rows reduce to zero
    ["x*y - y*x", "x*x", "y*y"],    # full in degree 3
    ["x*x - y*y", "x*y*x", "y*x*y"],    # full in degree 5
    ["3*x*y", "y*x*y"],             # the first relation is zero mod 3: no rows survive
    ["x - y", "x*y*x"],             # a degree-1 relation's rows span whole letter blocks
    ["x*y - y*x"],
]


@pytest.mark.parametrize("fld", [GF2, GF3, Field(32749), QQ, Field(2147483647)],
                         ids=lambda f: f.name)
def test_ideal_layers_equal_the_rref_of_all_ufv(fld):
    rng = random.Random(7)
    cases = [(2, 7, [parse_expression(s) for s in rels]) for rels in LAYER_SETS]
    cases += [(2, 7, random_weighted(rng, 2, 3, 4)) for _ in range(4)]
    cases += [(3, 4, random_weighted(rng, 3, 2, 3)) for _ in range(3)]
    for d, top, rels in cases:
        layers = list(ideal_layers(rels, top, d, fld))
        for j in range(1, top + 1):
            want = ideal_oracle.rref(ideal_oracle.ufv_rows(rels, d, j, fld), fld)
            if j > len(layers):             # the builder stops after a full layer
                assert len(want) == d ** j, (rels, j)
                continue
            rank, basis = layers[j - 1]
            got = dense_layer(basis, fld, d ** j)
            assert rank == len(got) and got == want, (rels, fld, j)
            # full reduction: each pivot is 1 and occurs in its own row only
            for i, row in enumerate(got):
                p = next(c for c, v in enumerate(row) if v)
                assert row[p] == 1
                assert [r[p] for r in got] == [int(k == i) for k in range(len(got))]


@pytest.mark.parametrize("fld", [GF2, GF3], ids=lambda f: f.name)
def test_homogeneous_capacity_estimate_is_within_4x_of_peak(monkeypatch, fld):
    c3 = random_homogeneous(random.Random(0))           # degrees 5 and 2
    for rels in ([parse_expression("y*x")], c3):
        for top in (10, 11, 12):
            estimates = []
            monkeypatch.setattr(series, "require_capacity",
                                lambda nbytes, what: estimates.append(nbytes))
            tracemalloc.start()
            try:
                dims = hilbert_quotient(rels, top, d=2, fld=fld)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0 < dims[-1] < 2 ** top and len(estimates) == top
            assert peak / 4 <= max(estimates) <= 4 * peak, (rels, top, peak, estimates)


# -- infinite dimensionality certificates --------------------------------

def test_certificate_for_one_cubic_relation():
    profile = DegreeProfile.make(2, {3: 1})
    cert = certify_infinite(profile)
    assert cert is not None
    assert cert.t == Fraction(4, 5)
    assert cert.value == Fraction(-11, 125)
    assert profile.poly(cert.t) == cert.value
    assert cert.points_checked >= 1


def test_no_certificate_for_one_quadratic_relation():
    # 1 - 2t + t^2 = (1-t)^2 >= 0 everywhere, so no witness can exist
    profile = DegreeProfile.make(2, {2: 1})
    assert certify_infinite(profile) is None
    assert profile.poly(Fraction(1)) == 0


def test_certificate_with_no_relations_comes_from_boundary_probes():
    profile = DegreeProfile.make(2, {})
    cert = certify_infinite(profile)
    assert cert is not None
    assert cert.value < 0
    assert profile.poly(cert.t) == cert.value


def test_certificate_search_params():
    profile = DegreeProfile.make(2, {3: 1})
    cert = certify_infinite(profile, SearchParams(grid_denominator=100))
    assert cert is not None and cert.value < 0
    # the leftmost grid witness moves with the grid
    assert cert.t <= Fraction(4, 5)


@pytest.mark.parametrize("kwargs", [
    {"grid_denominator": -3}, {"grid_denominator": 0}, {"grid_denominator": 1},
    {"grid_denominator": 2.5}, {"grid_denominator": True},
    {"grid_denominator": MAX_GRID_DENOMINATOR + 1},
    {"boundary_probes": -1}, {"boundary_probes": 1.5},
    {"refine_rounds": -1}, {"refine_rounds": "10"},
])
def test_search_params_reject_bad_values(kwargs):
    with pytest.raises(ValueError):
        SearchParams(**kwargs)


def test_search_params_edge_values_run():
    profile = DegreeProfile.make(2, {3: 1})
    cert = certify_infinite(profile, SearchParams(grid_denominator=2))
    assert (cert.t, cert.points_checked) == (Fraction(3, 4), 3)
    bare = SearchParams(grid_denominator=2, boundary_probes=0, refine_rounds=0)
    assert certify_infinite(profile, bare) is None
    assert SearchParams(grid_denominator=MAX_GRID_DENOMINATOR).grid_denominator == 1 << 16


# -- entropy window -------------------------------------------------------

def test_entropy_of_free_algebra_is_exactly_two():
    coeffs = [2 ** n for n in range(11)]
    est = entropy_estimate(coeffs)
    assert est.compare(Fraction(2)) == 0
    assert est.at_most(Fraction(2))
    assert not est.at_most(Fraction(199, 100))


def test_entropy_window_max_certified():
    coeffs = [1] + [0] * 31 + [33]
    est = entropy_estimate(coeffs)
    assert est.n_star == 32 and est.c_star == 33
    assert est.window == (16, 32)
    # 33 ** (1/32) is a hair above 1.1: 33 > 1.1 ** 32
    assert est.compare(Fraction(11, 10)) == 1
    assert not est.at_most(Fraction(11, 10))
    assert est.at_most(Fraction(12, 10))


def test_entropy_rejects_tiny_input():
    with pytest.raises(ValueError):
        entropy_estimate([1])
