import copy
import tracemalloc
from fractions import Fraction

import pytest

from gsalg.elements import Element
import gsalg.ladder
from gsalg.ladder import (Ladder, LadderError, LadderLevel, _general_chain,
                          absorption_check,
                          build_ladder, compute_E, cover_bound_check,
                          decompose_binary, e_sets_consistent, ladder_from_levels,
                          relation_window_span, survivor_witness, v_bound_check)
from gsalg.limits import CapacityError
from gsalg.linalg import BitBasis
from gsalg.parser import parse_expression
from gsalg.subspace import Subspace
from gsalg.words import word_str


def mono_elem(k, w):
    return Element(2, {(k, w): 1})


# -- construction and invariants ----------------------------------------

def test_strategies_build_valid_ladders():
    for strategy in ("trivial", "lex-greedy", "random"):
        lad = build_ladder(strategy, top=3, seed=11)
        assert all(lad.verify().values())
        assert lad.top == 3
        assert lad.level(0).words == (0, 1)
        assert lad.level(2).degree == 4


def test_random_strategy_is_seed_reproducible():
    a = build_ladder("random", top=3, seed=7)
    b = build_ladder("random", top=3, seed=7)
    assert [lv.words for lv in a.levels] == [lv.words for lv in b.levels]


def test_schedule_sets_level_dimensions():
    lad = build_ladder("lex-greedy", top=3, eschedule={3: 1})
    assert [lv.v_dim for lv in lad.levels] == [2, 2, 4, 2]
    assert lad.verify()["target_dims"]


def test_overlapping_schedule_intervals_rejected():
    with pytest.raises(LadderError):
        build_ladder("lex-greedy", top=3, eschedule={2: 0, 3: 1})


def test_degree_cap_on_construction():
    with pytest.raises(CapacityError):
        build_ladder("trivial", top=5)


def test_non_product_words_rejected():
    with pytest.raises(LadderError):
        ladder_from_levels([["x", "y"], ["xx", "xy"], ["yxyx"]])
    bad = ladder_from_levels([["x", "y"], ["xx", "xy"], ["yxyx"]], verify=False)
    assert not bad.verify()["v_products"]


def test_bad_base_level_flagged():
    bad = ladder_from_levels([["x"]], verify=False)
    assert not bad.verify()["base_level"]


def test_json_round_trip():
    lad = build_ladder("random", top=3, seed=3, eschedule={3: 1})
    back = Ladder.from_json(lad.to_json())
    assert [lv.words for lv in back.levels] == [lv.words for lv in lad.levels]
    assert back.eschedule == {3: 1}
    assert back.strategy == "random"
    for other in [lad] + [build_ladder(s, top=3, seed=1)
                          for s in ("trivial", "lex-greedy", "random")]:
        data = other.to_json()
        assert Ladder.from_json(data).to_json() == data


def test_json_words_follow_ladder_from_levels_rules():
    data = build_ladder("lex-greedy", top=3, eschedule={3: 1}).to_json()
    # "x" has degree 1, not 4; it used to be read as x^4
    short = copy.deepcopy(data)
    short["levels"][2]["v"][0] = "x"
    with pytest.raises(LadderError, match="degree 1, level 2 needs 4"):
        Ladder.from_json(short)
    # a repeated word counts once, so V(8) has dim 1 and misses its target 2
    twice = copy.deepcopy(data)
    twice["levels"][3]["v"] = ["x^8", "x^8"]
    with pytest.raises(LadderError, match="target_dims"):
        Ladder.from_json(twice)
    lad = Ladder.from_json(twice, verify=False)
    assert lad.level(3).v_dim == decompose_binary(lad, 8).v_less.dim == 1
    # a wrong level index is a failed invariant, not a parse error
    moved = copy.deepcopy(data)
    moved["levels"][2]["m"] = 5
    with pytest.raises(LadderError, match="level_indexing"):
        Ladder.from_json(moved)


def test_json_round_trip_with_general_u():
    u = Subspace.span_elements(2, 2, [mono_elem(2, 3) + mono_elem(2, 0)])
    lad = ladder_from_levels([["x", "y"], ["xx", "xy", "yx"]], u_spaces={1: u})
    back = Ladder.from_json(lad.to_json())
    assert back.level(1).u().equals(u)


# -- the level checks on other U backends ---------------------------------

def _fleet(count):
    shapes = [None, {5: 1}, {5: 2}]
    return [build_ladder("random", top=4, seed=seed, eschedule=shapes[seed % 3])
            for seed in range(count)]


def _check_reports(lad):
    return (lad.verify(),
            [vars(survivor_witness(lad, l)) for l in (2, 3, 4)],
            [e_sets_consistent(lad, k) for k in range(1, 7)])


def test_rows_backend_replica_gives_the_same_reports():
    # U(2), U(4) as GF(2) row spans: the level checks run on the rows
    # backend and E(1..3) comes from the kernel, not the factor scan
    for lad in _fleet(12):
        u_spaces = {}
        for m in (1, 2):
            basis = BitBasis()
            for w in range(1 << (1 << m)):
                if w not in lad.level(m).words:
                    basis.insert(1 << w)
            u_spaces[m] = Subspace(2, 1 << m, rows=basis)
        replica = ladder_from_levels([lv.words for lv in lad.levels], u_spaces=u_spaces,
                                     eschedule=lad.eschedule)
        assert not replica.level(2).u().is_monomial
        assert _check_reports(replica) == _check_reports(lad)


def test_explicit_monomial_u_spaces():
    for lad in _fleet(10):
        words = [lv.words for lv in lad.levels]
        for m in (1, 2, 3):
            comp = {j: Subspace(2, 1 << j, mono=lad.level(j).u().monomials())
                    for j in range(1, m + 1)}
            given = ladder_from_levels(words, u_spaces=comp, eschedule=lad.eschedule)
            assert _check_reports(given) == _check_reports(lad)
            dropped = dict(comp)
            dropped[m] = Subspace(2, 1 << m, mono=frozenset(sorted(comp[m].mono)[1:]))
            added = dict(comp)
            added[m] = Subspace(2, 1 << m, mono=comp[m].mono | {words[m][0]})
            for us in (dropped, added):
                bad = ladder_from_levels(words, u_spaces=us, verify=False)
                assert bad.verify()["direct_sum"] is False, (lad.strategy, m)


# -- binary decomposition -----------------------------------------------

def test_decomposition_is_a_direct_sum():
    for seed in range(5):
        lad = build_ladder("random", top=3, seed=seed)
        for k in range(1, 9):
            dec = decompose_binary(lad, k)
            for v, u in ((dec.v_less, dec.u_less), (dec.v_greater, dec.u_greater)):
                assert v.dim + u.dim == 1 << k
                assert not (v.monomials() & u.monomials())


def test_v_dim_is_product_of_level_dims():
    lad = build_ladder("lex-greedy", top=3, eschedule={3: 1})
    for k in range(1, 9):
        dec = decompose_binary(lad, k)
        want = 1
        for p in dec.powers:
            want *= lad.level(p).v_dim
        assert dec.v_less.dim == want
        assert dec.v_greater.dim == want


def _split_sets(lad, k):
    dec = decompose_binary(lad, k)
    return [s.monomials() for s in (dec.v_less, dec.u_less, dec.v_greater, dec.u_greater)]


def _oracle_ladders():
    return _fleet(6) + [build_ladder("lex-greedy", top=4, eschedule={5: 2}),
                        build_ladder("trivial", top=3)]


def test_split_sets_match_general_chain_oracle():
    # _general_chain builds V with Subspace.product and U as a sum of
    # full-space products, a second construction of the same sets
    for lad in _oracle_ladders():
        for k in range(1, 11):
            powers = decompose_binary(lad, k).powers
            want = []
            for order in (powers, powers[::-1]):
                v, u = _general_chain(lad, order, k)
                want += [v.monomials(), u.monomials()]
            assert _split_sets(lad, k) == want, (lad.strategy, lad.eschedule, k)


def test_split_sets_match_a_brute_force_word_scan():
    # past k = 10 the general chain is too slow; scan every word instead:
    # it lies in V iff each aligned 2^p-factor is in its level's W-set
    for lad in _fleet(3):
        for k in range(11, 15):
            powers = decompose_binary(lad, k).powers
            want = []
            for order in (powers, powers[::-1]):
                cuts, shift = [], k
                for p in order:
                    shift -= 1 << p
                    cuts.append((shift, (1 << (1 << p)) - 1, frozenset(lad.level(p).words)))
                v = frozenset(w for w in range(1 << k)
                              if all((w >> sh) & mask in ws for sh, mask, ws in cuts))
                want += [v, frozenset(range(1 << k)) - v]
            assert _split_sets(lad, k) == want, (lad.eschedule, k)


def test_decomposition_holds_the_v_sets_only(monkeypatch):
    # the guard counts the V-sets; U stays the complement of V
    for lad in (_fleet(1)[0], build_ladder("lex-greedy", top=4, eschedule={5: 2})):
        estimates = []

        def record(nbytes, what):
            estimates.append(nbytes)

        monkeypatch.setattr(gsalg.ladder, "require_capacity", record)
        decompose_binary(lad, 15)
        estimate = sum(estimates)
        tracemalloc.start()
        try:
            decompose_binary(lad, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate <= peak <= 4 * estimate, (estimate, peak)
        assert peak < 256 << 10


def test_split_sets_ignore_words_outside_their_level():
    shape = [[0, 1], [0, 1, 3], [0, 5, 15]]
    clean = ladder_from_levels(shape)
    stray = ladder_from_levels([shape[0], shape[1] + [7, -1], shape[2] + [17, 99]],
                               verify=False)
    for k in range(1, 8):
        assert _split_sets(stray, k) == _split_sets(clean, k)


def test_decomposition_guards():
    lad = build_ladder("trivial", top=2)
    with pytest.raises(LadderError):
        decompose_binary(lad, 0)
    with pytest.raises(LadderError):
        decompose_binary(lad, 8)       # needs level 3


# -- absorption -----------------------------------------------------------

def test_absorption_sweep():
    for seed in (0, 1, 2):
        lad = build_ladder("random", top=3, seed=seed)
        for k in range(1, 8):
            for l in range(1, 9 - k):
                rep = absorption_check(lad, k, l)
                assert rep.ok, (seed, k, l, rep)


def test_absorption_guards():
    lad = build_ladder("trivial", top=2)
    with pytest.raises(LadderError):
        absorption_check(lad, 0, 1)


# -- the invisible space E ------------------------------------------------

def test_e_dims_on_scheduled_ladder():
    lad = build_ladder("lex-greedy", top=3, eschedule={3: 1})
    dims = [compute_E(lad, k).dim for k in range(1, 8)]
    assert dims == [0, 1, 3, 11, 26, 57, 120]
    for k in range(1, 8):
        lhs, rhs, ok = cover_bound_check(lad, k)
        assert ok and lhs == (1 << k) - dims[k - 1]
    for k in range(1, 7):
        assert e_sets_consistent(lad, k)


def test_e_closure_on_random_ladders():
    for seed in (0, 5):
        lad = build_ladder("random", top=3, seed=seed)
        for k in range(1, 7):
            assert e_sets_consistent(lad, k)
        for k in range(1, 8):
            assert cover_bound_check(lad, k)[2]


def test_general_u_backend_matches_monomial_backend():
    words = [0, 1, 2, 3]
    lv2 = [word_str(2, 4, i) for i in words]
    comp = [i for i in range(16) if i not in words]
    vecs = [mono_elem(4, comp[0]) + mono_elem(4, comp[1])]
    vecs += [mono_elem(4, i) for i in comp]
    u_gen = Subspace.span_elements(2, 4, vecs)
    assert not u_gen.is_monomial
    shape = [["x", "y"], ["xx", "xy", "yx", "yy"], lv2]
    lad_g = ladder_from_levels(shape, u_spaces={2: u_gen})
    lad_m = ladder_from_levels(shape)
    for k in (2, 3):
        eg = compute_E(lad_g, k)
        em = compute_E(lad_m, k)
        assert eg.equals(em)
        assert cover_bound_check(lad_g, k) == cover_bound_check(lad_m, k)
    assert e_sets_consistent(lad_g, 2)


def test_general_backend_window_cap():
    u3 = Subspace.span_elements(2, 8, [mono_elem(8, 0) + mono_elem(8, 255)])
    lad = ladder_from_levels(
        [["x", "y"], ["xx", "xy", "yx", "yy"],
         [word_str(2, 4, i) for i in range(16)],
         [word_str(2, 8, i) for i in range(1, 256)]],
        u_spaces={3: u3})
    with pytest.raises(CapacityError):
        compute_E(lad, 4)


def test_e_needs_a_high_enough_ladder():
    lad = build_ladder("trivial", top=2)
    with pytest.raises(LadderError):
        compute_E(lad, 4)              # window [4, 8) needs level 3


# -- relation pad -----------------------------------------------------------

def test_window_span_counts_and_bound():
    lad = build_ladder("trivial", top=2)
    rep = relation_window_span(lad, [parse_expression("x*y*x*y*x*y")], 2)
    assert rep.window == (5, 7)
    assert rep.used_relations == 1
    assert rep.dim == 11
    assert rep.bound == Fraction(3, 2)
    assert not rep.bound_ok
    assert rep.hypothesis_note


def test_window_span_skips_out_of_window_relations():
    lad = build_ladder("trivial", top=2)
    rep = relation_window_span(lad, [parse_expression("x*y*x*y")], 2)
    assert rep.used_relations == 0 and rep.dim == 0 and rep.bound_ok


def test_window_span_guards():
    lad = build_ladder("trivial", top=2)
    with pytest.raises(LadderError):
        relation_window_span(lad, [], 1)
    with pytest.raises(LadderError):
        relation_window_span(lad, [parse_expression("x - x")], 2)


# -- V-dimension bound against the schedule ---------------------------------

def test_v_bound_applicable_case():
    lad = build_ladder("lex-greedy", top=3, eschedule={3: 1})
    rep = v_bound_check(lad, 6)
    assert rep.applicable and rep.ok
    assert rep.v_dim == 8


def test_v_bound_inapplicable_case():
    lad = build_ladder("lex-greedy", top=3, eschedule={3: 1})
    rep = v_bound_check(lad, 1)
    assert not rep.applicable


def test_v_bound_needs_schedule():
    lad = build_ladder("trivial", top=2)
    with pytest.raises(LadderError):
        v_bound_check(lad, 3)


# -- last-letter witness ------------------------------------------------------

def test_witness_on_full_level():
    rep = survivor_witness(build_ladder("trivial", top=2), 2)
    assert rep.letter == "x" and rep.p == 2 and rep.v_dim == 4
    assert rep.independent and rep.half_ok


def test_witness_majority_is_at_least_half():
    for seed in range(4):
        lad = build_ladder("random", top=3, seed=seed)
        for l in (2, 3):
            rep = survivor_witness(lad, l)
            assert rep.half_ok
            assert rep.letter in ("x", "y")


def test_witness_with_general_e_space():
    u1 = Subspace.span_elements(2, 2, [mono_elem(2, 3) + mono_elem(2, 0)])
    lad = ladder_from_levels([["x", "y"], ["xx", "xy", "yx"]], u_spaces={1: u1})
    rep = survivor_witness(lad, 2)
    assert rep.letter == "x" and rep.p == 2
    assert rep.independent


# -- False verdicts, checked by brute force --------------------------------
#
# E(k) by its definition: the vectors r of A(k) such that every u*r*v of
# degree 2^(n+1) lies in U(2^n)A(2^n) + A(2^n)U(2^n), 2^(n-1) <= k < 2^n.
# Vectors are ints over word indices; spans use a small elimination here.

def _reduce(basis, v):
    while v and v.bit_length() - 1 in basis:
        v ^= basis[v.bit_length() - 1]
    return v


def _span(vectors):
    basis = {}
    for v in vectors:
        v = _reduce(basis, v)
        if v:
            basis[v.bit_length() - 1] = v
    return basis


def _concat(a, b, kb):
    """Sum of the concatenations of a's words with b's words (b in degree kb)."""
    return sum(1 << (i << kb | j) for i in range(a.bit_length()) if a >> i & 1
               for j in range(b.bit_length()) if b >> j & 1)


def _brute_e(u_vectors, k):
    half = 1 << k.bit_length()
    total = 2 * half
    words = [1 << w for w in range(1 << half)]
    w_space = _span([_concat(u, w, half) for u in u_vectors for w in words]
                    + [_concat(w, u, half) for u in u_vectors for w in words])
    return {r for r in range(1 << (1 << k))
            if all(_reduce(w_space, _concat(_concat(1 << u, r, k), 1 << v,
                                            total - k - p)) == 0
                   for p in range(total - k + 1)
                   for u in range(1 << p) for v in range(1 << (total - k - p)))}


def _complement_vectors(words, degree):
    return [1 << w for w in range(1 << degree) if w not in words]


def _rows(vectors, degree):
    basis = BitBasis()
    for v in vectors:
        basis.insert(v)
    return Subspace(2, degree, rows=basis)


def _closure_cases():
    # W(1) = {yy} gives E(1) = span{x}; W(2) = {xxxx} puts xx outside E(2)
    levels = [["x", "y"], ["yy"], ["xxxx"]]
    u1 = _complement_vectors({3}, 2)
    u2 = _complement_vectors({0}, 4)
    yield ladder_from_levels(levels, verify=False), u1, u2, False
    # the same spaces given as GF(2) rows take the kernel backend
    yield (ladder_from_levels(levels, u_spaces={1: _rows(u1, 2), 2: _rows(u2, 4)},
                              verify=False), u1, u2, False)
    # a valid ladder with W(2) = {yyyy}: E(1) = span{x} and E(2) = span{xx, xy, yx}
    yield (ladder_from_levels([["x", "y"], ["yy"], ["yyyy"]]), u1,
           _complement_vectors({15}, 4), True)


@pytest.mark.parametrize("lad, u1, u2, expected", list(_closure_cases()),
                         ids=["monomial", "rows", "valid"])
def test_e_closure_verdict_matches_brute_force(lad, u1, u2, expected):
    e1, e2 = _brute_e(u1, 1), _brute_e(u2, 2)
    closed = all(_concat(1 << a, r, 1) in e2 and _concat(r, 1 << a, 1) in e2
                 for r in e1 for a in (0, 1))
    assert closed == expected
    assert e_sets_consistent(lad, 1) == expected


def test_e_closure_checks_both_sides(monkeypatch):
    # through compute_E the two sides always agree: U.A + A.U is the same
    # on both halves, so a word placed at the start of the first half is
    # placed at the start of the second too.  Given spaces separate them.
    e_spaces = {1: Subspace.monomial_span(2, 1, [0]),        # x
                2: Subspace.monomial_span(2, 2, [0, 2])}     # xx, yx
    monkeypatch.setattr(gsalg.ladder, "compute_E", lambda lad, k: e_spaces[k])
    assert not e_sets_consistent(build_ladder("trivial", top=2), 1)   # x*y
    e_spaces[2] = Subspace.monomial_span(2, 2, [0, 1])                 # xx, xy
    assert not e_sets_consistent(build_ladder("trivial", top=2), 1)   # y*x
    e_spaces[2] = Subspace.monomial_span(2, 2, [0, 1, 2])
    assert e_sets_consistent(build_ladder("trivial", top=2), 1)


def _brute_independent(stripped, e_space):
    """No nonempty subset of the stripped words sums into E."""
    vecs = [1 << w for w in stripped]
    for mask in range(1, 1 << len(vecs)):
        total = 0
        for i, v in enumerate(vecs):
            if mask >> i & 1:
                total ^= v
        if total in e_space:
            return False
    return True


def _witness_cases():
    # U(2) = span{xx, xy, yx} as rows: E(1) = span{x}, which holds x = xx/x
    u1 = [1 << 0, 1 << 1, 1 << 2]
    yield ladder_from_levels([["x", "y"], ["xx"]], u_spaces={1: _rows(u1, 2)},
                             verify=False), u1, False
    # a level that lists xx twice: the two stripped copies of x are dependent
    twice = Ladder([LadderLevel(0, (0, 1)), LadderLevel(1, (0, 0))])
    yield twice, _complement_vectors({0}, 2), False
    lad = build_ladder("trivial", top=2)
    yield lad, _complement_vectors(set(lad.level(1).words), 2), True


@pytest.mark.parametrize("lad, u1, expected", list(_witness_cases()),
                         ids=["rows-u", "repeated-word", "trivial"])
def test_witness_verdict_matches_brute_force(lad, u1, expected):
    rep = survivor_witness(lad, 2)
    chosen = [w for w in lad.level(1).words if (w & 1) == (rep.letter == "y")]
    assert len(chosen) == rep.p
    assert _brute_independent([w >> 1 for w in chosen], _brute_e(u1, 1)) == expected
    assert rep.independent == expected
