import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_nonzero_poly
from toriclg import intlinalg, laurent, period, polytope
from toriclg.errors import ComplexityLimit, ZeroPolynomial


def test_p2_model_sequence():
    f = laurent.parse("x + y + 1/(x*y)")
    seq = period.period_sequence(f, 6)
    assert list(seq.values) == [1, 0, 0, 6, 0, 0, 90]


def test_a0_is_one():
    rng = random.Random(1)
    for _ in range(10):
        f = random_nonzero_poly(rng, 2)
        assert period.period_sequence(f, 0).values == (1,)


def test_quadric_first_values():
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    seq = period.period_sequence(f0, 3)
    assert list(seq.values) == [1, 0, 0, 12]


def test_periods_equal_examples():
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    f1 = laurent.parse("(x+1)/(x*y*z)+y*(x+1)+z")
    assert period.periods_equal(f0, f1, 3)
    assert period.periods_equal(f0, f0, 8)
    p2 = laurent.parse("x + y + 1/(x*y)")
    f0_2d = laurent.parse("(x+1)^2/(x*y)+y", ("x", "y"))
    assert not period.periods_equal(p2, f0_2d, 3)


def test_p2_vs_quadric_differ_at_3():
    p2 = laurent.parse("x + y + 1/(x*y)")
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    assert period.period_sequence(p2, 3)[3] == 6
    assert period.period_sequence(f0, 3)[3] == 12


def test_oracle_constant_geometric():
    f = laurent.parse("5", ("x",))
    seq = period.period_oracle(f, 4)
    assert list(seq.values) == [1, 5, 25, 125, 625]
    assert period.period_sequence(f, 4).values == seq.values


def test_oracle_equivalence_random():
    rng = random.Random(23)
    for _ in range(50):
        nv = rng.randint(2, 3)
        f = random_nonzero_poly(rng, nv, max_terms=5, exp_bound=3)
        N = rng.randint(0, 8)
        assert period.period_sequence(f, N).values == period.period_oracle(f, N).values


def test_p2_vanishing_off_multiples_of_three():
    f = laurent.parse("x + y + 1/(x*y)")
    seq = period.period_sequence(f, 12)
    for i, v in enumerate(seq.values):
        if i % 3 != 0:
            assert v == 0
        else:
            assert v > 0


def test_invariance_under_origin_fixing_substitution():
    rng = random.Random(41)
    for _ in range(15):
        nv = rng.randint(2, 3)
        f = random_nonzero_poly(rng, nv, max_terms=5, exp_bound=3)
        while True:
            A = [[rng.randint(-2, 2) for _ in range(nv)] for _ in range(nv)]
            if abs(intlinalg.det(A)) == 1:
                break
        g = laurent.monomial_substitute(f, A)
        assert period.periods_equal(f, g, 6)


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        period.period_sequence(laurent.zero(("x",)), 3)
    with pytest.raises(ZeroPolynomial):
        period.period_oracle(laurent.zero(("x",)), 3)


def test_rational_coefficients_stay_exact():
    f = laurent.LaurentPoly(("x", "y"), {(1, 0): Fraction(1, 2), (-1, 0): Fraction(2), (0, 1): Fraction(1), (0, -1): Fraction(1)})
    seq = period.period_sequence(f, 4)
    assert seq[2] == 2 * Fraction(1, 2) * 2 + 2 * 1
    assert seq.values == period.period_oracle(f, 4).values


def assert_matches_oracle(f, N):
    assert period.period_sequence(f, N).values == period.period_oracle(f, N).values


@pytest.mark.parametrize(
    "text",
    ["x + x^2*y", "x*y + x^2 + x^3/y", "2*x + 3*y + x*y", "x + 1/x + y", "1 + x + x*y - 2*y^2"],
)
def test_prune_when_newton_polytope_misses_or_touches_origin(text):
    assert_matches_oracle(laurent.parse(text), 9)


@pytest.mark.parametrize(
    "text, names",
    [
        ("x*z + y/z + 1/(x*y)", ("x", "y", "z")),
        ("x + y + 1/(x*y)", ("x", "y", "z")),
        ("x*y*z + 2/(x*y*z) - 3", ("x", "y", "z")),
        ("x + y", ("x", "y", "z")),
        ("x*w + y + 1/(x*y*w)", ("x", "y", "z", "w")),
        ("x*z*w + y/w + 1/(x*y) + z + 1/z", ("x", "y", "z", "w")),
    ],
)
def test_prune_on_lower_dimensional_supports(text, names):
    f = laurent.parse(text, names)
    hull = polytope.convex_hull(list(f.terms) + [(0,) * f.nvars])
    assert hull.dim_affine < f.nvars
    assert_matches_oracle(f, 9)


def test_prune_with_mixed_denominators():
    f = laurent.LaurentPoly(
        ("x", "y"),
        {(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3), (-1, -1): Fraction(5, 6), (0, 0): Fraction(-7, 4), (2, 1): Fraction(3, 10)},
    )
    assert_matches_oracle(f, 8)


def test_constant_without_variables():
    for c in (Fraction(5), Fraction(-3, 2)):
        f = laurent.LaurentPoly((), {(): c})
        assert period.period_sequence(f, 5).values == tuple(c**i for i in range(6))
        assert_matches_oracle(f, 5)


def test_hull_prune_beyond_six_variables():
    names = ("a", "b", "c", "d", "e", "g", "h")
    f = laurent.parse("a*b + b*c^2 + c + d/e + e*g + g*h + h + 1/(a*b*c*d*g*h) + a + 1/a - 2", names)
    assert f.nvars == 7
    Q = polytope.convex_hull(list(f.terms) + [(0,) * f.nvars])
    assert period._prune_cuts(f) == list(Q.facet_inequalities)
    assert len(Q.facet_inequalities) == 21
    assert_matches_oracle(f, 6)


@st.composite
def wide_models(draw):
    """Models in 7 to 9 variables: a few exponent vectors in {-1, 0, 1}^n,
    often with the negative of their sum, so constant terms appear."""
    n = draw(st.integers(7, 9))
    exponents = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n), min_size=1, max_size=6))
    if draw(st.booleans()):
        exponents.append(tuple(-sum(col) for col in zip(*exponents)))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    terms = {e: draw(coefficient) for e in exponents}
    return laurent.LaurentPoly(tuple("x%d" % k for k in range(n)), terms)


@settings(max_examples=40, deadline=None)
@given(wide_models(), st.integers(0, 7))
def test_hull_prune_matches_oracle_in_7_to_9_variables(f, N):
    assert_matches_oracle(f, N)


def test_period_step_obeys_the_run_budget(monkeypatch):
    # N = 2 is one step and no prune: f^0's 1 term times f's 5 terms
    f = laurent.parse("1 + x + x^2 + 1/x + 1/x^2")
    monkeypatch.setattr(period, "PERIOD_WORK_CAP", 5)
    assert period.period_sequence(f, 2).values == (1, 1, 5)
    monkeypatch.setattr(period, "PERIOD_WORK_CAP", 4)
    with pytest.raises(ComplexityLimit, match="term pairs and term-cut tests"):
        period.period_sequence(f, 2)


def test_period_prune_obeys_the_run_budget(monkeypatch):
    # N = 4 builds powers 1 and 2: 4 pairs, then 4 terms tested against the
    # 4 facets of Q (16), then 4 x 4 pairs; the products alone are only 20
    f = laurent.parse("x + 1/x + y + 1/y")
    monkeypatch.setattr(period, "PERIOD_WORK_CAP", 36)
    assert period.period_sequence(f, 4).values == (1, 0, 4, 0, 36)
    monkeypatch.setattr(period, "PERIOD_WORK_CAP", 35)
    with pytest.raises(ComplexityLimit, match="term pairs and term-cut tests"):
        period.period_sequence(f, 4)


@pytest.mark.parametrize(
    "text, names",
    [
        ("x + y", ("x", "y", "z")),
        ("x*z*w + y/w + 1/(x*y) + z + 1/z", ("x", "y", "z", "w")),
        ("x0*x1*x2*x3*x4*x5 + 1", None),
        ("x + x^2*y + 1/y", None),
    ],
)
def test_prune_cuts_hold_no_equalities(text, names):
    # Q holds the origin, so its equalities a·x = 0 hold on every power; the
    # cuts are Q's proper facets only
    f = laurent.parse(text, names)
    Q = polytope.convex_hull(list(f.terms) + [(0,) * f.nvars])
    cuts = period._prune_cuts(f)
    assert cuts == list(Q.facet_inequalities)
    for a, b in cuts:
        assert any(sum(x * y for x, y in zip(a, v)) < b for v in Q.vertices)
        assert (tuple(-x for x in a), -b) not in cuts


@st.composite
def sublattice_models(draw):
    """Models in 1 to 3 variables with exponents in the first r <= n
    coordinates, then sheared by transvections; Q is lower-dimensional
    when r < n. With half_space the first coordinate is never negative and
    both 0 and 1 occur, so the origin lies on a facet of Q (b = 0)."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, n))
    half_space = draw(st.booleans())
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=5))
    if half_space:
        points = [(abs(p[0]),) + p[1:] for p in points] + [(0,) * r, (1,) + (0,) * (r - 1)]
    exponents = [list(p) + [0] * (n - r) for p in points]
    axis = st.integers(0, n - 1)
    for i, j, k in draw(st.lists(st.tuples(axis, axis, st.integers(-2, 2)), max_size=3)):
        if i != j:
            for e in exponents:
                e[i] += k * e[j]
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    terms = {tuple(e): draw(coefficient) for e in exponents}
    return laurent.LaurentPoly(tuple("x%d" % k for k in range(n)), terms), r < n, half_space


@settings(max_examples=60, deadline=None)
@given(sublattice_models())
def test_half_depth_matches_oracle_at_every_depth(model):
    f, low_rank, half_space = model
    Q = polytope.convex_hull(list(f.terms) + [(0,) * f.nvars])
    if low_rank:
        assert Q.dim_affine < f.nvars
    if half_space:
        assert any(b == 0 for _a, b in Q.facet_inequalities)
    full = period.period_oracle(f, 9).values
    for N in range(10):
        assert period.period_sequence(f, N).values == full[: N + 1]
