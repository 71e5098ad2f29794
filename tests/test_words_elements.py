from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gsalg.elements import Element
from gsalg.parser import ParseError, parse_expression, parse_relation, parse_relations
from gsalg.words import (all_subwords2, concat, num_words, parse_word,
                         word_from_letters, word_letters, word_str)


# -- words ------------------------------------------------------------

@given(st.integers(2, 4), st.lists(st.integers(0, 3), max_size=8))
def test_letters_round_trip(d, letters):
    letters = [a % d for a in letters]
    k, idx = word_from_letters(d, letters)
    assert k == len(letters)
    assert word_letters(d, k, idx) == letters


@given(st.integers(2, 3), st.lists(st.integers(0, 2), max_size=6),
       st.lists(st.integers(0, 2), max_size=6))
def test_concat_is_letter_concat(d, u, v):
    u = [a % d for a in u]
    v = [a % d for a in v]
    ku, iu = word_from_letters(d, u)
    kv, iv = word_from_letters(d, v)
    k, idx = concat(d, ku, iu, kv, iv)
    assert word_letters(d, k, idx) == u + v


@given(st.integers(2, 4), st.integers(1, 6), st.data())
def test_word_str_parse_round_trip(d, k, data):
    idx = data.draw(st.integers(0, max(0, num_words(d, k) - 1)))
    s = word_str(d, k, idx)
    assert parse_word(d, s) == (k, idx)


def test_word_str_examples():
    assert word_str(2, 0, 0) == "1"
    assert word_str(2, 3, 0b001) == "x^2*y"
    assert word_str(2, 2, 0b10) == "y*x"
    assert parse_word(2, "xxy") == (3, 0b001)


def test_all_subwords2_oracle():
    # yxy has factors of length 2: yx, xy
    k, idx = word_from_letters(2, [1, 0, 1])
    subs = list(all_subwords2(k, idx, 2))
    assert sorted(subs) == sorted([0b10, 0b01])
    # positions scan left to right
    assert subs == [0b10, 0b01]


# -- elements ---------------------------------------------------------

def x_and_y():
    return Element.generator(2, 0), Element.generator(2, 1)


def test_element_basic_arithmetic():
    x, y = x_and_y()
    e = 2 * x * y - y * x
    assert e.degree() == 2
    assert e.coeffs[(2, 0b01)] == 2
    assert e.coeffs[(2, 0b10)] == -1
    assert (e - e).is_zero()
    assert (x * (y * x)) == ((x * y) * x)
    assert str(x * y - y * x) == "x*y - y*x"


def test_element_scalar_and_one():
    x, y = x_and_y()
    one = Element.one(2)
    assert (one * x) == x and (x * one) == x
    assert (Fraction(1, 2) * x).coeffs[(1, 0)] == Fraction(1, 2)
    assert x.scale(0).is_zero()


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)), max_size=5),
       st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)), max_size=5))
def test_element_multiplication_distributes(ls, ms):
    def build(pairs):
        e = Element.zero(2)
        for k, c in pairs:
            e = e + Element.monomial(2, k, 0 if k == 0 else (k * 7) % (1 << k), c)
        return e
    a, b = build(ls), build(ms)
    x, _ = x_and_y()
    assert (a + b) * x == a * x + b * x
    assert x * (a + b) == x * a + x * b


def test_homogeneous_components():
    x, y = x_and_y()
    e = x * y + x * x * x - y
    comps = e.components()
    assert sorted(comps) == [1, 2, 3]
    assert not e.is_homogeneous()
    assert comps[2] == x * y
    assert e.min_degree() == 1 and e.degree() == 3


# -- parser -----------------------------------------------------------

def test_parse_expression_basics():
    x, y = x_and_y()
    assert parse_expression("x*y - y*x") == x * y - y * x
    assert parse_expression("x^2") == x * x
    assert parse_expression("(x + y)^2") == (x + y) * (x + y)
    assert parse_expression("2*x*y") == 2 * x * y
    assert parse_expression("-x") == -x
    assert parse_expression("3/2 * x") == Fraction(3, 2) * x
    assert parse_expression("0") == Element.zero(2)


def test_parse_precedence_and_power():
    x, y = x_and_y()
    assert parse_expression("x + y*x^2") == x + y * x * x
    assert parse_expression("(x*y)^2") == x * y * x * y


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse_expression("x + ***")
    assert "column" in str(exc.value)
    with pytest.raises(ParseError):
        parse_expression("x + (y")
    with pytest.raises(ParseError):
        parse_expression("")


def test_parse_relations_file_format():
    text = "# two relations\nx*y - y*x\n\nx^2  # a square\n"
    rels = parse_relations(text)
    x, y = x_and_y()
    assert rels == [x * y - y * x, x * x]


def test_parse_relation_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_relations("x*y\nx + + y\n")
    assert "line 2" in str(exc.value)
