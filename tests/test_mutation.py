import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VAR_POOL, poly_strategy, random_nonzero_poly
from toriclg import intlinalg, laurent, mutation, period
from toriclg.errors import InvalidChange, NotDivisible, NotLaurent, NotUnimodular

V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "t")


def elementary_cluster(pivot, indices, var_names, sign=-1):
    """Cluster change whose factor is 1 plus the listed variables."""
    factor = laurent.one(var_names)
    for i in indices:
        factor = laurent.add(factor, laurent.variable(var_names, i))
    return mutation.ClusterChange(pivot, sign, factor)


def test_quadric_cluster_example():
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    change = elementary_cluster(1, [0], V3)
    f1 = mutation.apply_cluster(f0, change)
    assert f1 == laurent.parse("(x+1)/(x*y*z)+y*(x+1)+z")


def test_cubic_cluster_example():
    f0 = laurent.parse("(x+y+1)^3/(x*y*z)+z")
    change = elementary_cluster(2, [0, 1], V3)
    f1 = mutation.apply_cluster(f0, change)
    assert f1 == laurent.parse("(x+y+1)^2/(x*y*z)+z*(x+y+1)")


def test_identity_factor_changes_nothing():
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    assert mutation.apply_cluster(f0, elementary_cluster(1, [], V3)) == f0


def test_cluster_then_opposite_sign_inverts():
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    factor = laurent.parse("x+1", V3)
    forward = mutation.apply_cluster(f0, mutation.ClusterChange(1, -1, factor))
    back = mutation.apply_cluster(forward, mutation.ClusterChange(1, 1, factor))
    assert back == f0

    rng = random.Random(17)
    done = 0
    while done < 20:
        f = random_nonzero_poly(rng, 3, max_terms=5, exp_bound=3)
        sign = rng.choice((1, -1))
        change = mutation.ClusterChange(2, sign, laurent.parse("x+y+1", V3))
        try:
            g = mutation.apply_cluster(f, change)
        except NotLaurent:
            continue
        opposite = mutation.ClusterChange(2, -sign, laurent.parse("x+y+1", V3))
        assert mutation.apply_cluster(g, opposite) == f
        done += 1


def test_cluster_preserves_periods():
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    f1 = mutation.apply_cluster(f0, elementary_cluster(1, [0], V3))
    assert period.periods_equal(f0, f1, 8)
    g0 = laurent.parse("(x+y+1)^3/(x*y*z)+z")
    g1 = mutation.apply_cluster(g0, elementary_cluster(2, [0, 1], V3))
    assert period.periods_equal(g0, g1, 8)


def test_cluster_validation():
    with pytest.raises(InvalidChange):
        mutation.ClusterChange(1, 2, laurent.parse("x+1", V3))
    with pytest.raises(InvalidChange):
        mutation.ClusterChange(0, 1, laurent.zero(V3))
    with pytest.raises(InvalidChange):
        mutation.ClusterChange(0, 1, laurent.parse("x+1", V3))
    with pytest.raises(InvalidChange):
        elementary_cluster(1, [1], V3)
    f = laurent.parse("x+y")
    with pytest.raises(InvalidChange):
        mutation.apply_cluster(f, mutation.ClusterChange(5, 1, laurent.parse("x+1", V3)))


def test_cluster_not_laurent_when_division_fails():
    f = laurent.parse("1/y + x", V3)
    with pytest.raises(NotLaurent):
        mutation.apply_cluster(f, mutation.ClusterChange(1, -1, laurent.parse("x+1", V3)))


def _at_pivot(p, pivot, k):
    """p with every exponent's pivot entry set to k."""
    return laurent.LaurentPoly(p.var_names, {e[:pivot] + (k,) + e[pivot + 1 :]: c for e, c in p.terms.items()})


def _cluster_by_slice_powers(f, change):
    """Reference cluster change: factor^|k| from laurent.pow for every slice."""
    result = laurent.zero(f.var_names)
    for k in sorted({e[change.pivot] for e in f.terms}):
        terms = {e: c for e, c in f.terms.items() if e[change.pivot] == k}
        part = _at_pivot(laurent.LaurentPoly(f.var_names, terms), change.pivot, 0)
        exponent = -change.sign * k
        if exponent >= 0:
            part = laurent.mul(part, laurent.pow(change.factor, exponent))
        else:
            part = laurent.exact_divide(part, laurent.pow(change.factor, -exponent))
        result = laurent.add(result, _at_pivot(part, change.pivot, k))
    return result


def test_cluster_matches_per_slice_powers():
    # pivot exponents with gaps, of both signs, under both signs of change;
    # slice k carries factor^max(0, sign*k), so every division is exact
    rng = random.Random(2024)
    outcomes = set()
    for trial in range(24):
        nvars = rng.choice((2, 3))
        names = V3[:nvars]
        pivot = rng.randrange(nvars)
        sign = rng.choice((1, -1))
        factor = laurent.zero(names)
        while len(factor.terms) < 2:
            factor = _at_pivot(random_nonzero_poly(rng, nvars, max_terms=3, exp_bound=1), pivot, 0)
        f = laurent.zero(names)
        for k in sorted(rng.sample(range(-4, 5), rng.randint(2, 4))):
            h = _at_pivot(random_nonzero_poly(rng, nvars, max_terms=2, exp_bound=1), pivot, k)
            f = laurent.add(f, laurent.mul(h, laurent.pow(factor, max(0, sign * k))))
        change = mutation.ClusterChange(pivot, sign, factor)
        assert mutation.apply_cluster(f, change) == _cluster_by_slice_powers(f, change), trial
        # the opposite sign needs divisions the slices were not built for
        opposite = mutation.ClusterChange(pivot, -sign, factor)
        try:
            expected = _cluster_by_slice_powers(f, opposite)
        except NotDivisible:
            outcomes.add("not Laurent")
            with pytest.raises(NotLaurent):
                mutation.apply_cluster(f, opposite)
        else:
            outcomes.add("Laurent")
            assert mutation.apply_cluster(f, opposite) == expected, trial
    assert outcomes == {"Laurent", "not Laurent"}


def _apply_cluster_oracle(f, change):
    """Reference cluster change: every slice's image times pivot^k, added to
    a running result with laurent.add, laurent.mul and laurent.monomial."""
    n = f.nvars
    pivot = change.pivot
    slices = {}
    for e, c in f.terms.items():
        slices.setdefault(e[pivot], {})[e[:pivot] + (0,) + e[pivot + 1 :]] = c
    result = laurent.zero(f.var_names)
    powers = [laurent.one(f.var_names)]
    for k, terms in sorted(slices.items()):
        part = laurent.LaurentPoly(f.var_names, terms)
        exponent = -change.sign * k
        while len(powers) <= abs(exponent):
            powers.append(laurent.mul(powers[-1], change.factor))
        power = powers[abs(exponent)]
        if exponent >= 0:
            part = laurent.mul(part, power)
        else:
            try:
                part = laurent.exact_divide(part, power)
            except NotDivisible as err:
                raise NotLaurent(str(err)) from err
        shift = tuple(k if i == pivot else 0 for i in range(n))
        result = laurent.add(result, laurent.mul(part, laurent.monomial(f.var_names, shift)))
    return result


@st.composite
def cluster_cases(draw):
    """(f, pivot, factor): f in 2 to 4 variables, factor nonzero and free of the pivot."""
    nvars = draw(st.integers(2, 4))
    pivot = draw(st.integers(0, nvars - 1))
    f = draw(poly_strategy(nvars, max_terms=6, exp_bound=3, nonzero=True))
    factors = poly_strategy(nvars, max_terms=3, exp_bound=1).map(lambda p: _at_pivot(p, pivot, 0))
    return f, pivot, draw(factors.filter(lambda p: not p.is_zero()))


@settings(max_examples=150, deadline=None)
@given(cluster_cases())
def test_apply_cluster_matches_the_add_mul_oracle(case):
    f, pivot, factor = case
    plus = mutation.ClusterChange(pivot, 1, factor)
    minus = mutation.ClusterChange(pivot, -1, factor)
    # sign +1 divides the slices above the pivot; both paths agree or both fail
    try:
        expected = _apply_cluster_oracle(f, plus)
    except NotLaurent:
        with pytest.raises(NotLaurent):
            mutation.apply_cluster(f, plus)
    else:
        assert mutation.apply_cluster(f, plus) == expected
    # with every pivot exponent <= 0, sign +1 only multiplies and sign -1
    # then divides its image exactly, back to the start
    low = laurent.LaurentPoly(f.var_names, {e[:pivot] + (-abs(e[pivot]),) + e[pivot + 1 :]: c for e, c in f.terms.items()})
    image = mutation.apply_cluster(low, plus)
    assert image == _apply_cluster_oracle(low, plus)
    assert mutation.apply_cluster(image, minus) == _apply_cluster_oracle(image, minus) == low


def test_toric_change_validation():
    with pytest.raises(NotUnimodular):
        mutation.ToricChange(((2, 0), (0, 1)), (0, 0), (1, 1))
    with pytest.raises(InvalidChange):
        mutation.ToricChange(((1, 0), (0, 1)), (0, 0), (0, 1))
    with pytest.raises(InvalidChange):
        mutation.ToricChange(((1, 0), (0, 1)), (0, 0, 0), (1, 1))


def test_apply_toric_delegates():
    f = laurent.parse("x + y + 1/(x*y)")
    rot = mutation.ToricChange(((0, 1), (1, 0)), (0, 0), (1, 1))
    assert mutation.apply_toric(f, rot) == f
    shift = mutation.ToricChange(((1, 0), (0, 1)), (1, 0), (1, 1))
    assert mutation.apply_toric(f, shift) == laurent.mul(f, laurent.parse("x", ("x", "y")))


def test_equivalent_up_to_toric_reflexive():
    f = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    w = mutation.equivalent_up_to_toric(f, f)
    assert w is not None
    assert w.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert w.shift == (0, 0, 0)
    assert mutation.apply_toric(f, w) == f


def test_equivalent_up_to_toric_symmetric_witness():
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    change = elementary_cluster(1, [0], V3)
    f2 = mutation.apply_cluster(mutation.apply_cluster(f0, change), change)
    w = mutation.equivalent_up_to_toric(f2, f0)
    assert w is not None
    assert mutation.apply_toric(f2, w) == f0
    w_back = mutation.equivalent_up_to_toric(f0, f2)
    assert w_back is not None
    assert mutation.apply_toric(f0, w_back) == f2


def test_quadric_double_mutation_returns_up_to_toric():
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    change = elementary_cluster(1, [0], V3)
    f2 = mutation.apply_cluster(mutation.apply_cluster(f0, change), change)
    w = mutation.equivalent_up_to_toric(f2, f0)
    assert w is not None
    assert mutation.apply_toric(f2, w) == f0


def test_cubic_triple_mutation_cycle():
    f0 = laurent.parse("(x+y+1)^3/(x*y*z)+z")
    f1 = laurent.parse("(x+y+1)^2/(x*y*z)+z*(x+y+1)")
    change = elementary_cluster(2, [0, 1], V3)
    g1 = mutation.apply_cluster(f0, change)
    assert g1 == f1
    g2 = mutation.apply_cluster(g1, change)
    w2 = mutation.equivalent_up_to_toric(g2, f1)
    assert w2 is not None
    assert mutation.apply_toric(g2, w2) == f1
    g3 = mutation.apply_cluster(g2, change)
    w3 = mutation.equivalent_up_to_toric(g3, f0)
    assert w3 is not None
    assert mutation.apply_toric(g3, w3) == f0


def test_equivalent_up_to_toric_lower_dimensional_support():
    # the support is a segment in the plane, so the witness is lifted from Z^1
    f = laurent.parse("x*y + 2/(x*y)")
    g = laurent.parse("x^2*y + 2/(x^2*y)")
    w = mutation.equivalent_up_to_toric(f, g)
    assert w is not None
    assert mutation.apply_toric(f, w) == g
    assert mutation.equivalent_up_to_toric(f, laurent.parse("x^2*y^2 + 2/(x^2*y^2)")) is None
    # B = [[2, 3]] with ratio 2: x = 1/2, y = 2 solves it, but y = 1 would
    # leave x^2 = 2, so the free coordinate is set only after a column change
    f = laurent.parse("x^2*y^3 + x^-2*y^-3")
    g = laurent.parse("2*x^2*y^3 + 1/2*x^-2*y^-3")
    w = mutation.equivalent_up_to_toric(f, g)
    assert w is not None
    assert mutation.apply_toric(f, w) == g


def test_equivalence_negative():
    p2 = laurent.parse("x + y + 1/(x*y)")
    other = laurent.parse("x + y + 1/(x*y^2)")
    assert mutation.equivalent_up_to_toric(p2, other) is None
    doubled = laurent.scale(p2, Fraction(2))
    w = mutation.equivalent_up_to_toric(p2, doubled)
    assert w is None or mutation.apply_toric(p2, w) == doubled


def test_equivalence_negative_on_vertex_degrees():
    # square pyramid against triangular bipyramid: 5 vertices in 3-D each,
    # vertex degrees [3, 3, 3, 3, 4] against [3, 3, 4, 4, 4]
    pyramid = laurent.parse("1 + x + y + x*y + z")
    bipyramid = laurent.parse("x + y + 1/(x*y) + z + 1/z")
    assert mutation.equivalent_up_to_toric(pyramid, bipyramid) is None
    assert mutation.equivalent_up_to_toric(bipyramid, pyramid) is None


def test_equivalence_with_scales():
    f = laurent.parse("x + y + 1/(x*y)")
    g = laurent.parse("4*x + 2*y + 1/(8*x*y)")
    w = mutation.equivalent_up_to_toric(f, g)
    assert w is not None
    assert mutation.apply_toric(f, w) == g


def _solve_scales_smith_oracle(f, g, A, t):
    """Reference scale solve: the Smith form U E V = D of the whole support
    E, with the ratios raised to the entries of the row transform U."""
    n = f.nvars
    image = {}
    for e, c in f.terms.items():
        target = tuple(sum(A[i][j] * e[j] for j in range(n)) + t[i] for i in range(n))
        image[target] = (e, c)
    if set(image) != set(g.terms):
        return None
    exponents = []
    ratios = []
    for target in sorted(image):
        e, c = image[target]
        exponents.append(list(e))
        ratios.append(Fraction(g.terms[target]) / c)
    m = len(exponents)
    D, U, V = intlinalg.smith_normal_form(exponents)
    transformed = []
    for i in range(m):
        value = Fraction(1)
        for j in range(m):
            if U[i][j]:
                value *= ratios[j] ** U[i][j]
        transformed.append(value)
    y = [Fraction(1)] * n
    for i in range(m):
        d = D[i][i] if i < n else 0
        if d != 0:
            root = intlinalg.nth_root_fraction(transformed[i], abs(d))
            if root is None:
                return None
            y[i] = Fraction(root) if d > 0 else Fraction(1) / root
        elif transformed[i] != 1:
            return None
    scales = []
    for j in range(n):
        value = Fraction(1)
        for k in range(n):
            if V[j][k]:
                value *= y[k] ** V[j][k]
        scales.append(value)
    for e, c in f.terms.items():
        target = tuple(sum(A[i][j] * e[j] for j in range(n)) + t[i] for i in range(n))
        value = c
        for j in range(n):
            if e[j]:
                value *= scales[j] ** e[j]
        if g.terms[target] != value:
            return None
    return tuple(scales)


@st.composite
def scale_cases(draw):
    """(f, g, A, t): g is f's image under A, t and random scales, or that
    image with one coefficient times 7 or one sign flipped."""
    n = draw(st.integers(1, 4))
    exponents = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=2, max_size=6, unique=True))
    coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(3), Fraction(-2, 5)])
    f = laurent.LaurentPoly(VAR_POOL[:n], {e: draw(coeffs) for e in exponents})
    A = intlinalg.identity(n)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            q = draw(st.integers(-2, 2))
            A[i] = [a + q * b for a, b in zip(A[i], A[j])]
    if draw(st.booleans()):
        A[0] = [-a for a in A[0]]
    t = draw(st.tuples(*[st.integers(-2, 2)] * n))
    values = [Fraction(x) for x in (1, -1, 2, -2, "1/2", "-1/2", 3, -3)]
    scales = draw(st.tuples(*[st.sampled_from(values)] * n))
    g = dict(mutation.apply_toric(f, mutation.ToricChange(A, t, scales)).terms)
    key = draw(st.sampled_from(sorted(g)))
    g[key] *= draw(st.sampled_from([1, 7, -1]))
    return f, laurent.LaurentPoly(f.var_names, g), A, t


@settings(max_examples=300, deadline=None)
@given(scale_cases())
def test_solve_scales_matches_the_smith_oracle(case):
    f, g, A, t = case
    scales = mutation._solve_scales(f, g, A, t)
    assert (scales is None) == (_solve_scales_smith_oracle(f, g, A, t) is None)
    if scales is not None:
        assert mutation.apply_toric(f, mutation.ToricChange(A, t, scales)) == g


def test_cubic_fourfold_trace():
    f00 = laurent.parse("(x+y+1)^3/(x*y*z*t)+z+t")
    steps = [
        elementary_cluster(2, [0, 1], V4),
        elementary_cluster(3, [0, 1], V4),
    ]
    stages = mutation.apply_steps(f00, steps)
    f11 = laurent.parse("(x+y+1)/(x*y*z*t)+z*(x+y+1)+t*(x+y+1)")
    assert len(stages) == 3
    assert stages[0] == f00
    assert stages[1] == laurent.parse("(x+y+1)^2/(x*y*z*t)+z*(x+y+1)+t")
    assert stages[2] == f11


def test_p3_chain_to_third_model():
    f1 = laurent.parse("x+y+z+1/(x*y*z)")
    toric = mutation.ToricChange(((1, 0, 0), (0, 1, 0), (1, 0, 1)), (0, 0, 0), (1, 1, 1))
    f1_prime = mutation.apply_toric(f1, toric)
    assert f1_prime == laurent.parse("z*(x+1)+y+1/(x*y*z^2)", V3)
    cluster = mutation.ClusterChange(2, 1, laurent.parse("x+1", V3))
    g = mutation.apply_cluster(f1_prime, cluster)
    f3 = laurent.parse("z+y/z+(x+1)^2/(x*y*z)", V3)
    w = mutation.equivalent_up_to_toric(g, f3)
    assert w is not None
    assert mutation.apply_toric(g, w) == f3
    assert period.periods_equal(f1, f3, 8)


def test_empty_trace_and_error_index():
    f = laurent.parse("x + y + 1/(x*y)")
    assert mutation.apply_steps(f, []) == [f]

    bad = [
        elementary_cluster(1, [0], V3, sign=1),
        mutation.ClusterChange(1, -1, laurent.parse("x+1", V3)),
    ]
    f3 = laurent.parse("1/y + x", V3)
    with pytest.raises(NotLaurent) as err:
        mutation.apply_steps(f3, [bad[1]])
    assert "step 0" in str(err.value)


def test_steps_json_roundtrip():
    steps = [
        elementary_cluster(1, [0], V3),
        mutation.ToricChange(
            ((1, 0, -1), (0, 1, -1), (0, 0, -1)), (1, 0, 0), (1, Fraction(-1, 2), 3)
        ),
    ]
    data = mutation.steps_to_json(steps)
    assert data[0] == {"type": "cluster", "pivot": 1, "sign": -1, "factor": "x + 1"}
    assert data[1]["A"] == [[1, 0, -1], [0, 1, -1], [0, 0, -1]]
    assert data[1]["scale"] == ["1", "-1/2", "3"]
    back = mutation.steps_from_json(data, V3)
    assert back[0] == steps[0]
    assert back[1] == steps[1]
