import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsalg import quotient
from gsalg.elements import Element
from gsalg.fields import GF2, GF3, QQ, Field
from gsalg.limits import CapacityError
from gsalg.linalg import rref_modp
from gsalg.parser import parse_expression
from gsalg.quotient import (QuotientError, audit_soundness,
                            certify_finite_dimensional, commutative_construction,
                            commutativity_status, default_precision_cap,
                            relation_threshold, sample_presentation,
                            truncated_ideal_basis)
from gsalg.series import hilbert_quotient

import ideal_oracle

COMM = parse_expression("x*y - y*x")
XX = parse_expression("x*x")
YY = parse_expression("y*y")


# -- truncated ideal spans --------------------------------------------------

def test_commutator_ideal_dims():
    ideal = truncated_ideal_basis([COMM], D=4)
    assert ideal.span_dims == (0, 1, 4, 11)
    assert ideal.quotient_dims == (2, 3, 4, 5)
    assert ideal.certificate_degree() is None
    assert ideal.homogeneous


def test_membership_in_commutator_ideal():
    ideal = truncated_ideal_basis([COMM], D=4)
    assert ideal.contains(COMM)
    assert ideal.contains(Element.generator(2, 0) * COMM)
    assert not ideal.contains(XX)
    assert not ideal.contains(parse_expression("x*y"))
    # membership of low-order elements is decided outright
    assert not ideal.contains(parse_expression("x"))
    assert ideal.contains(parse_expression("x - x"))


def test_membership_guards():
    ideal = truncated_ideal_basis([COMM], D=4)
    with pytest.raises(QuotientError):
        ideal.contains(parse_expression("x*x*x*x*x"))
    with pytest.raises(QuotientError):
        ideal.contains(Element.generator(3, 0) * Element.generator(3, 1))


def test_power_series_membership_for_inhomogeneous_relations():
    # x*x + x*x*x = x*x * (1 + x) and 1 + x is invertible as a power
    # series, so x*x lies in the ideal up to any precision
    ideal = truncated_ideal_basis([parse_expression("x*x + x*x*x")], D=3)
    assert not ideal.homogeneous
    assert ideal.span_dims == (0, 1, 3)
    assert ideal.contains(XX)
    assert not ideal.contains(YY)
    assert not ideal.contains(parse_expression("x*y"))


def test_truncation_coherence():
    rng = random.Random(3)
    for _ in range(8):
        rels = sample_presentation(rng, count=rng.randint(1, 2))
        small = truncated_ideal_basis(rels, D=4)
        large = truncated_ideal_basis(rels, D=6)
        assert small.span_dims == large.span_dims[:4]


def test_modular_spans_never_exceed_rational_spans():
    # reduction mod p can only collapse rank, never raise it; most
    # samples agree exactly, and seed 17 sample 5 genuinely drops by
    # one dimension in degree 3 over GF(3)
    rng = random.Random(17)
    drops = 0
    for _ in range(6):
        rels = sample_presentation(rng, count=2)
        dims_q = truncated_ideal_basis(rels, D=6, fld=QQ).span_dims
        dims_3 = truncated_ideal_basis(rels, D=6, fld=GF3).span_dims
        assert all(a <= b for a, b in zip(dims_3, dims_q))
        drops += sum(b - a for a, b in zip(dims_3, dims_q))
    assert drops == 1


def test_quotient_dims_match_graded_series_when_homogeneous():
    # both builders share the layer recursion; the u*f*v oracle is the
    # independent construction
    cases = [[COMM], [XX, YY], [COMM, XX, YY], [parse_expression("y*x")]]
    for rels in cases:
        for fld in (GF2, GF3):
            ideal = truncated_ideal_basis(rels, D=6, fld=fld)
            graded = hilbert_quotient(rels, 6, d=2, fld=fld)
            assert list(ideal.quotient_dims) == graded[1:]
            assert list(ideal.span_dims) == ideal_oracle.span_dims(rels, 2, 6, fld)


def _homogeneous_sample(rng, n, degrees):
    rels = []
    for deg in degrees:
        coeffs = {}
        while not coeffs:
            coeffs = {(deg, w): Fraction(rng.choice((-1, 1, 2)))
                      for w in range(n ** deg) if rng.random() < 0.4}
        rels.append(Element(n, coeffs))
    return rels


def test_homogeneous_layers_and_membership_match_ufv_oracle():
    rng = random.Random(11)
    cases = [(2, 5, [COMM]), (2, 5, [COMM, XX, YY]),
             (2, 5, [parse_expression("2*x*y - y*x"), parse_expression("x*y*x - 3*y*y*y")]),
             (2, 5, _homogeneous_sample(rng, 2, [2, 3])),
             (2, 5, _homogeneous_sample(rng, 2, [3, 3, 4])),
             (3, 4, commutative_construction(3)[:2]),
             (3, 4, _homogeneous_sample(rng, 3, [2, 3]))]
    outcomes = set()
    for n, D, rels in cases:
        for fld in (GF2, GF3, QQ):
            ideal = truncated_ideal_basis(rels, n=n, D=D, fld=fld)
            assert list(ideal.span_dims) == ideal_oracle.span_dims(rels, n, D, fld)
            for j in range(2, D + 1):
                rows = ideal_oracle.ufv_rows(rels, n, j, fld)
                vecs = [ideal_oracle.random_member(rows, rng, fld) for _ in range(3)]
                vecs += [ideal_oracle.random_vector(n ** j, rng, fld) for _ in range(3)]
                for vec in vecs:
                    expected = ideal_oracle.in_span(rows, vec, fld)
                    got = ideal.contains(ideal_oracle.as_element(vec, n, j))
                    assert got == expected, (rels, fld, j)
                    outcomes.add(expected)
    assert outcomes == {True, False}


def test_mixed_ideals_match_ufv_oracle():
    # the library recurses on the precision; the oracle ranks every
    # trunc_D(u*f*v) at once and reads leading terms off column prefixes
    rng = random.Random(5)
    tails = [parse_expression("x*x + x*x*x"),
             parse_expression("x*y - y*x + y*y*y*y"),
             parse_expression("x*x - 2*x*y*x + y*x*y*y")]
    cases = [(2, 2, tails[:1]), (2, 4, tails[1:]), (2, 7, tails)]
    cases += [(2, D, sample_presentation(rng, n=2, count=rng.randint(1, 2), max_degree=4))
              for D in (3, 5, 6, 7)]
    cases += [(3, 4, sample_presentation(rng, n=3, count=count, max_degree=4))
              for count in (1, 2)]
    outcomes = set()
    for n, D, rels in cases:
        for fld in (GF2, GF3, QQ):
            ideal = truncated_ideal_basis(rels, n=n, D=D, fld=fld)
            rows = ideal_oracle.mixed_ufv_rows(rels, n, D, fld)
            dims = ideal_oracle.mixed_span_dims(rows, n, D, fld)
            assert list(ideal.span_dims) == dims, (rels, fld, D)
            assert ideal.certificate_degree() == ideal_oracle.certificate_degree(dims, n)
            members = [ideal_oracle.random_member(rows, rng, fld) for _ in range(3)]
            others = [ideal_oracle.random_vector(rows.shape[1], rng, fld) for _ in range(3)]
            near = members[1].copy()
            near[rng.randrange(n, rows.shape[1])] += 1      # one monomial off a member
            others += [members[0] + others[0], near]
            if not fld.is_rational:
                others = [vec % fld.char for vec in others]
            full = ideal_oracle.rank(rows, fld)
            for vec in members + others:
                vec[:n] = 0                 # degree-1 terms are never in the ideal
            for vec, expected in [(v, True) for v in members] + [
                    (v, ideal_oracle.in_span(rows, v, fld, full)) for v in others]:
                got = ideal.contains(ideal_oracle.as_mixed_element(vec, n, D))
                assert got == expected, (rels, fld, D)
                outcomes.add(expected)
    assert outcomes == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(1, 40), st.sampled_from([3, 5, 32749]),
       st.integers(0, 10 ** 9))
def test_rref_block_matches_rref_modp_on_the_whole_matrix(nrows, ncols, p, seed):
    # 1..200 rows cover blocks on both sides of the 64-row split; low-rank
    # products make the merges of the two halves nontrivial
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, ncols + 1))
    left = rng.integers(0, p, size=(nrows, rank), dtype=np.int64)
    right = rng.integers(0, p, size=(rank, ncols), dtype=np.int64)
    mat = (left @ right) % p + p * rng.integers(-1, 2, size=(nrows, ncols))
    rows, pivs = quotient._rref_block(mat.copy(), p)
    want = mat % p
    want_rank, want_pivs = rref_modp(want, p)
    assert pivs == want_pivs
    assert np.array_equal(rows, want[:want_rank])


def test_input_validation():
    with pytest.raises(QuotientError):
        truncated_ideal_basis([], D=4)              # needs explicit n
    with pytest.raises(QuotientError):
        truncated_ideal_basis([parse_expression("x + x*x")], D=4)
    with pytest.raises(QuotientError):
        truncated_ideal_basis([parse_expression("x - x")], D=4)
    with pytest.raises(QuotientError):
        truncated_ideal_basis([COMM], D=1)
    with pytest.raises(QuotientError):
        truncated_ideal_basis([COMM], D=11)         # over the 2-generator cap
    # float64 mod-p reduction is exact only below 2**15, homogeneous or not
    for rels in ([COMM], [parse_expression("x*x + x*x*x")]):
        with pytest.raises(QuotientError):
            truncated_ideal_basis(rels, D=4, fld=Field(32771))
    assert truncated_ideal_basis([COMM], D=4, fld=Field(32749)).span_dims == (0, 1, 4, 11)
    # explicit cap override allows it in principle
    assert default_precision_cap(2) == 10
    assert [default_precision_cap(n) for n in (3, 4, 5)] == [8, 6, 5]


@pytest.mark.parametrize("fld", [GF2, GF3], ids=lambda f: f.name)
def test_mixed_capacity_estimate_is_within_4x_of_peak(monkeypatch, fld):
    rels = sample_presentation(random.Random(0), n=2, count=2, max_degree=4)
    assert not all(f.is_homogeneous() for f in rels)
    estimates = []
    monkeypatch.setattr(quotient, "require_capacity",
                        lambda nbytes, what: estimates.append(nbytes))
    tracemalloc.start()
    try:
        truncated_ideal_basis(rels, n=2, D=8, fld=fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    assert peak / 4 <= estimates[0] <= 4 * peak


def test_mixed_gfp_build_over_budget_is_refused_up_front():
    rels = sample_presentation(random.Random(0), n=3, count=2, max_degree=4)
    with pytest.raises(CapacityError):
        truncated_ideal_basis(rels, n=3, D=8, fld=GF3)


def test_json_summary():
    ideal = truncated_ideal_basis([COMM], D=4)
    data = ideal.to_json()
    assert data["span_dims"] == [0, 1, 4, 11]
    assert data["quotient_dims"] == [2, 3, 4, 5]


# -- finite-dimension certificates -------------------------------------------

def test_commutative_pair_certificate():
    rels = [COMM, XX, YY]
    cert = certify_finite_dimensional(rels, D=8)
    assert cert is not None
    assert cert.k == 3
    assert cert.dims == (2, 1, 0, 0, 0, 0, 0, 0)
    assert cert.total_dim == 4


def test_monomial_certificate():
    rels = [XX, YY, parse_expression("x*y"), parse_expression("y*x")]
    cert = certify_finite_dimensional(rels, D=4)
    assert cert.k == 2 and cert.dims[0] == 2


def test_no_certificate_for_infinite_quotients():
    assert certify_finite_dimensional([COMM], D=6) is None
    assert certify_finite_dimensional([XX, YY], D=6) is None


def test_certificate_reuses_a_prebuilt_ideal():
    rels = [COMM, XX, YY]
    ideal = truncated_ideal_basis(rels, D=8)
    cert = certify_finite_dimensional(rels, ideal=ideal)
    assert cert.k == 3 and cert.precision == 8


def test_certificate_field_independence_here():
    rels = [COMM, XX, YY]
    for fld in (GF2, GF3, QQ):
        cert = certify_finite_dimensional(rels, D=6, fld=fld)
        assert cert is not None and cert.k == 3


# -- commutativity ------------------------------------------------------------

def test_commutative_quotient_detected():
    status = commutativity_status([COMM, XX, YY], D=8)
    assert status.commutative_at_precision
    assert status.witness is None
    assert "commutative" in status.status


def test_noncommutativity_witness_is_a_proof():
    status = commutativity_status([XX, YY], D=6)
    assert not status.commutative_at_precision
    assert status.witness == (1, 2)
    status0 = commutativity_status([], n=2, D=3)
    assert status0.witness == (1, 2)


def test_three_generator_construction():
    rels = commutative_construction(3)
    assert len(rels) == 6
    cert = certify_finite_dimensional(rels, D=8)
    # squarefree monomials survive: dims are the binomial counts
    assert cert.k == 4
    assert cert.dims == (3, 3, 1, 0, 0, 0, 0, 0)
    assert cert.total_dim == 8
    assert commutativity_status(rels, D=8).commutative_at_precision


def test_relation_thresholds():
    t2 = relation_threshold(2)
    assert (t2.forced_noncommutative, t2.construction_size, t2.unresolved) == (2, 3, None)
    t3 = relation_threshold(3)
    assert (t3.forced_noncommutative, t3.construction_size, t3.unresolved) == (4, 6, 5)
    t5 = relation_threshold(5)
    assert (t5.forced_noncommutative, t5.construction_size, t5.unresolved) == (13, 15, 14)
    with pytest.raises(QuotientError):
        relation_threshold(1)


# -- randomized audit -----------------------------------------------------------

def test_sample_presentation_shapes():
    rng = random.Random(0)
    rels = sample_presentation(rng, n=2, count=2, max_degree=4)
    assert len(rels) == 2
    for f in rels:
        assert 2 <= f.min_degree() and f.degree() <= 4


def test_audit_finds_no_counterexamples():
    rep = audit_soundness(random.Random(99), trials=30, D=6)
    assert rep.sound
    assert rep.trials == 30
    assert rep.certified > 0            # the audit is not vacuous
    assert rep.noncommutative == 30
    assert rep.commutative_at_precision == 0
    data = rep.to_json()
    assert data["sound"] is True and data["counterexamples"] == []
