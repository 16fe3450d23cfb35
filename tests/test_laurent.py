import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import MALFORMED_EXPRESSIONS, VAR_POOL, poly_strategy, random_poly
from toriclg import laurent
from toriclg.errors import (
    DimensionMismatch,
    DivisionByZero,
    NotDivisible,
    NotLaurent,
    NotUnimodular,
    ParseError,
)


def test_parse_expanded_quadric_model():
    p = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    assert p.var_names == ("x", "y", "z")
    assert p.terms == {
        (1, -1, -1): 1,
        (0, -1, -1): 2,
        (-1, -1, -1): 1,
        (0, 1, 0): 1,
        (0, 0, 1): 1,
    }


def test_parse_zero_and_constants():
    assert laurent.parse("0").terms == {}
    assert laurent.parse("0", ("x", "y")).is_zero()
    five = laurent.parse("5")
    assert five.var_names == ()
    assert five.terms == {(): 5}


def test_parse_division_with_remainder_fails():
    with pytest.raises(NotLaurent):
        laurent.parse("(x^2+1)/(x+1)")
    with pytest.raises(DivisionByZero):
        laurent.parse("x/0")


def test_parse_binds_variables_in_first_appearance_order():
    p = laurent.parse("y + x")
    assert p.var_names == ("y", "x")
    q = laurent.parse("y + x", ("x", "y"))
    assert q.var_names == ("x", "y")
    with pytest.raises(ParseError):
        laurent.parse("x + w", ("x", "y"))


@pytest.mark.parametrize("text,position", MALFORMED_EXPRESSIONS)
def test_parse_error_positions(text, position):
    with pytest.raises(ParseError) as err:
        laurent.parse(text)
    assert err.value.position == position


def test_parse_signed_exponents_and_leading_minus():
    p = laurent.parse("x^-2 + x^+3 - 4")
    assert p.terms == {(-2,): 1, (3,): 1, (0,): -4}
    q = laurent.parse("-x + y")
    assert q.terms == {(1,): -1, (0, 1): 1} or q.terms == {(1, 0): -1, (0, 1): 1}


def test_format_examples():
    assert laurent.format(laurent.zero(("x",))) == "0"
    p2 = laurent.parse("x+y+1/(x*y)")
    assert laurent.format(p2) == "x + y + x^-1*y^-1"
    assert laurent.format(laurent.parse("3/2*x - y^2")) == "3/2*x - y^2"
    assert laurent.format(laurent.constant((), 1)) == "1"


def test_format_parse_roundtrip_on_model_expressions():
    expressions = [
        "(x+1)^2/(x*y*z)+y+z",
        "(x+1)/(x*y*z)+y*(x+1)+z",
        "(x+y+1)^3/(x*y*z)+z",
        "(x+y+1)^2/(x*y*z)+z*(x+y+1)",
        "x+y+z+1/(x*y*z)",
        "x+y/x+z/x+1/(x*y)+1/(x*z)",
        "(x+1)^2/(x*y*z)+y/z+z",
        "(x+1)^2*y/x+1/y",
    ]
    for text in expressions:
        p = laurent.parse(text)
        assert laurent.parse(laurent.format(p), p.var_names) == p


def test_format_parse_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(200):
        p = random_poly(rng, rng.randint(1, 3))
        assert laurent.parse(laurent.format(p), p.var_names) == p


def test_add_mul_pow_basics():
    x_plus_1 = laurent.parse("x+1")
    assert laurent.mul(x_plus_1, x_plus_1) == laurent.parse("x^2+2*x+1")
    f = laurent.parse("x+y+1/(x*y)")
    assert laurent.pow(f, 0) == laurent.one(f.var_names)
    with pytest.raises(DimensionMismatch):
        laurent.add(laurent.parse("x"), laurent.parse("x+y"))


def test_pow_matches_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng, 2, max_terms=4, exp_bound=3)
        k = rng.randint(0, 5)
        expected = laurent.one(p.var_names)
        for _ in range(k):
            expected = laurent.mul(expected, p)
        assert laurent.pow(p, k) == expected


def test_negative_pow_only_for_monomials():
    m = laurent.parse("2*x*y^2")
    inv = laurent.pow(m, -1)
    assert laurent.mul(m, inv) == laurent.one(m.var_names)
    with pytest.raises(NotLaurent):
        laurent.pow(laurent.parse("x+1"), -1)


def test_exact_divide_examples():
    x_plus_1 = laurent.parse("x+1")
    assert laurent.exact_divide(laurent.mul(x_plus_1, x_plus_1), x_plus_1) == x_plus_1
    f0 = laurent.parse("(x+y+1)^3/(x*y*z)")
    expected = laurent.parse("(x+y+1)^2/(x*y*z)")
    assert laurent.exact_divide(f0, laurent.parse("x+y+1", f0.var_names)) == expected
    with pytest.raises(NotDivisible):
        laurent.exact_divide(laurent.parse("x^2+1"), laurent.parse("x+1"))
    with pytest.raises(DivisionByZero):
        laurent.exact_divide(laurent.parse("x"), laurent.zero(("x",)))
    assert laurent.exact_divide(laurent.zero(("x",)), laurent.parse("x+1")).is_zero()


@settings(max_examples=60)
@given(poly_strategy(2), poly_strategy(2, nonzero=True))
def test_exact_divide_inverts_multiplication(g, h):
    product = laurent.mul(g, h)
    assert laurent.exact_divide(product, h) == g


def test_monomial_substitute_identity_and_inverse():
    p = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    n = p.nvars
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert laurent.monomial_substitute(p, identity) == p

    from toriclg import intlinalg

    A = [[1, 0, -1], [0, 1, -1], [0, 0, -1]]
    A_inv = intlinalg.integer_inverse(A)
    scales = (Fraction(2), Fraction(1), Fraction(-1, 3))
    # undo coefficients with scale'_j = prod_i scales_i^(-A_inv[i][j])
    back_scales = tuple(
        Fraction(1)
        / __import__("math").prod(
            (s ** row[j] for s, row in zip(scales, A_inv)), start=Fraction(1)
        )
        for j in range(n)
    )
    q = laurent.monomial_substitute(p, A, scales=scales)
    assert laurent.monomial_substitute(q, A_inv, scales=back_scales) == p

    shift = (1, 0, -2)
    shifted = laurent.monomial_substitute(p, identity, shift)
    back = tuple(-x for x in shift)
    assert laurent.monomial_substitute(shifted, identity, back) == p


def test_monomial_substitute_requires_unimodular():
    p = laurent.parse("x+y")
    with pytest.raises(NotUnimodular):
        laurent.monomial_substitute(p, [[2, 0], [0, 1]])


@settings(max_examples=40)
@given(poly_strategy(2))
def test_substitute_with_zero_shift_preserves_constant_term(p):
    A = [[1, 1], [0, 1]]
    q = laurent.monomial_substitute(p, A)
    assert laurent.constant_term(q) == laurent.constant_term(p)


def test_constant_term_coefficient_support():
    p2 = laurent.parse("x+y+1/(x*y)")
    assert laurent.constant_term(p2) == 0
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    assert laurent.coefficient_at(f0, (0, -1, -1)) == 2
    assert laurent.coefficient_at(f0, (5, 5, 5)) == 0
    assert laurent.support(laurent.parse("1")) == [()]
    assert laurent.support(laurent.one(("x", "y"))) == [(0, 0)]
    assert laurent.support(p2) == [(-1, -1), (0, 1), (1, 0)]


@settings(max_examples=40)
@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_axioms(p, q, r):
    assert laurent.add(p, q) == laurent.add(q, p)
    assert laurent.mul(p, q) == laurent.mul(q, p)
    assert laurent.add(laurent.add(p, q), r) == laurent.add(p, laurent.add(q, r))
    assert laurent.mul(laurent.mul(p, q), r) == laurent.mul(p, laurent.mul(q, r))
    assert laurent.mul(p, laurent.add(q, r)) == laurent.add(laurent.mul(p, q), laurent.mul(p, r))


def test_paren_depth_cap():
    k = laurent.MAX_PAREN_DEPTH
    assert laurent.parse("(" * k + "x+1" + ")" * k) == laurent.parse("x+1")
    with pytest.raises(ParseError) as err:
        laurent.parse("2*" + "(" * (k + 1) + "x" + ")" * (k + 1))
    assert err.value.position == 2 + k
