"""Cone slicing, polytope mutation, and the factor-moving polynomial step."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriclg import constructions, degeneration, intlinalg, laurent, period, polytope
from toriclg.degeneration import Cosection, PolyhedralCone, SliceDecomposition
from toriclg.errors import (
    BadFactorization,
    DimensionMismatch,
    InvalidCone,
    InvalidCosection,
    InvalidDecomposition,
    NotLattice,
    OriginNotInterior,
    PivotDegreeOutOfRange,
    UnboundedSlice,
)

V2 = ("x", "y")


def test_cone_over_examples():
    sc = degeneration.weighted_plane_114()
    C = degeneration.cone_over(sc.delta)
    assert C.generators == ((-1, 2, 1), (0, -1, 1), (1, 2, 1))
    P2 = polytope.convex_hull([(1, 0), (0, 1), (-1, -1)])
    C2 = degeneration.cone_over(P2)
    assert len(C2.generators) == 3
    assert all(q[-1] == 1 for q in C2.generators)
    with pytest.raises(OriginNotInterior):
        degeneration.cone_over(polytope.convex_hull([(0, 0), (1, 0), (0, 1)]))
    with pytest.raises(OriginNotInterior):
        degeneration.cone_over(polytope.convex_hull([(-1, 0), (1, 0)]))


def test_cone_validation_and_normalization():
    with pytest.raises(InvalidCone):
        PolyhedralCone(2, ((0, 0),))
    with pytest.raises(InvalidCone):
        PolyhedralCone(2, ((1, 0, 0),))
    with pytest.raises(InvalidCone):
        PolyhedralCone(2, ())
    C = PolyhedralCone(2, ((2, 4), (1, 2), (Fraction(1, 3), 0)))
    assert C.generators == ((1, 0), (1, 2))


def test_cosection_validation():
    cos = Cosection((0, 1, 0), ((1, 0, 0), (0, 1, 1)))
    assert cos.ambient_dim == 3
    assert cos.image_dim == 2
    assert cos.grading == (0, 1)
    assert cos.project((Fraction(1, 2), 1, Fraction(1, 2))) == (Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(InvalidCosection):
        Cosection((0, 1, 1), ((1, 0, 0), (0, 1, 1)))
    with pytest.raises(InvalidCosection):
        Cosection((0, 2, 0), ((1, 0, 0), (0, 1, 1)))
    with pytest.raises(InvalidCosection):
        Cosection((0, 1, 0), ((1, 0, 0),))
    with pytest.raises(InvalidCosection):
        Cosection((0, 1, 0), ((1, 0, 0), (0, 0, 2)))
    # twisting the retraction along the kernel stays valid
    assert Cosection((0, 1, 0), ((1, 0, 5), (0, 1, 1))).grading == (5, 1)


def test_slice_examples():
    sc = degeneration.weighted_plane_114()
    C = degeneration.cone_over(sc.delta)
    low = degeneration.slice(C, sc.cosection, -1)
    assert low.vertices == ((0, 0),)
    high = degeneration.slice(C, sc.cosection, 1)
    assert set(high.vertices) == {(Fraction(-1, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(3, 2))}
    with pytest.raises(ValueError):
        degeneration.slice(C, sc.cosection, 0)
    one_sided = PolyhedralCone(3, ((1, 0, 1), (1, 1, 0)))
    with pytest.raises(UnboundedSlice):
        degeneration.slice(one_sided, sc.cosection, -1)


def test_slice_symmetry():
    sc = degeneration.weighted_plane_112()
    C = degeneration.cone_over(sc.delta)
    high = degeneration.slice(C, sc.cosection, 1)
    mirrored = {(-u, v) for u, v in high.vertices}
    assert mirrored == set(high.vertices)


def test_slice_prunes_redundant_generators():
    # (3,1,2) = (2,1,1) + (1,0,1) must not contribute a fake vertex
    cos = Cosection((0, 1, 0), ((1, 0, 0), (0, 1, 1)))
    C = PolyhedralCone(3, ((0, 1, 1), (2, 1, 1), (1, 0, 1), (3, 1, 2)))
    high = degeneration.slice(C, cos, 1)
    assert set(high.vertices) == {(0, 2), (2, 2)}


def _lp_feasible_oracle(A, b):
    """A nonnegative solution of A x = b, or None: an exact phase-I simplex
    with Bland's rule, used here only as an independent reference."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    width = n + m
    T = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # phase-I objective: minimize the artificial sum; reduced-cost row
    obj = [(Fraction(1) if n <= j < width else Fraction(0)) - sum(T[i][j] for i in range(m)) for j in range(width + 1)]
    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = best = None
        for i in range(m):
            if T[i][entering] > 0:
                ratio = T[i][width] / T[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        pivot = T[leaving][entering]
        T[leaving] = [x / pivot for x in T[leaving]]
        for i in range(m):
            if i != leaving and T[i][entering] != 0:
                factor = T[i][entering]
                T[i] = [x - factor * y for x, y in zip(T[i], T[leaving])]
        factor = obj[entering]
        obj = [x - factor * y for x, y in zip(obj, T[leaving])]
        basis[leaving] = entering
    if obj[width] != 0:
        return None
    x = [Fraction(0)] * n
    for i, col in enumerate(basis):
        if col < n:
            x[col] = T[i][width]
    return tuple(x)


def _lp_extreme_oracle(C):
    """Drop, one at a time, each generator lying in the cone of the rest."""
    keep = list(C.generators)
    i = 0
    while i < len(keep):
        others = keep[:i] + keep[i + 1:]
        columns = [[q[k] for q in others] for k in range(C.dim_ambient)]
        if others and _lp_feasible_oracle(columns, keep[i]) is not None:
            keep.pop(i)
        else:
            i += 1
    return keep


@st.composite
def pointed_cones(draw):
    """Generators with a positive last coordinate, some sums of others added,
    all mapped by a unimodular matrix; ambient dimension 2 to 6."""
    n = draw(st.integers(2, 6))
    small = st.integers(-2, 2)
    gens = [
        tuple(draw(small) for _ in range(n - 1)) + (draw(st.integers(1, 3)),)
        for _ in range(draw(st.integers(1, n + 2)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        picked = draw(st.lists(st.sampled_from(gens), min_size=2, max_size=3))
        gens.append(tuple(map(sum, zip(*picked))))
    lower = [[1 if j == i else draw(small) * (j < i) for j in range(n)] for i in range(n)]
    upper = [[1 if j == i else draw(small) * (j > i) for j in range(n)] for i in range(n)]
    U = draw(st.permutations(intlinalg.mat_mul(lower, upper)))
    return PolyhedralCone(n, tuple(intlinalg.mat_vec(U, g) for g in gens))


@settings(max_examples=100, deadline=None)
@given(pointed_cones())
def test_extreme_generators_match_lp_pruning(C):
    assert set(degeneration._extreme_generators(C)) == set(_lp_extreme_oracle(C))


def test_cone_with_a_line_has_no_slice():
    # the half-plane y >= 0: its level sets have no vertices
    C = PolyhedralCone(2, ((1, 0), (-1, 0), (0, 1)))
    assert degeneration._extreme_generators(C) == []
    cos = Cosection((1, 0), ((0, 1),))
    for level in (1, -1):
        with pytest.raises(UnboundedSlice):
            degeneration.slice(C, cos, level)


def _cone_over_cross_polytope(n):
    points = [tuple(s * int(k == i) for k in range(n)) for i in range(n) for s in (1, -1)]
    C = degeneration.cone_over(polytope.convex_hull(points))
    s_matrix = [[1] + [0] * n] + [[0, 0] + [int(k == i) for k in range(n - 1)] for i in range(n - 1)]
    return C, Cosection((1, 1) + (0,) * (n - 1), s_matrix)


def test_cone_over_5d_cross_polytope_slices():
    C, cos = _cone_over_cross_polytope(5)
    assert degeneration.slice(C, cos, 1).vertices == ((0, 0, 0, 0, 1), (1, 0, 0, 0, 1))
    assert degeneration.slice(C, cos, -1).vertices == ((-1, 0, 0, 0, 1), (0, 0, 0, 0, 1))


def test_cone_over_6d_cross_polytope_slices():
    C, cos = _cone_over_cross_polytope(6)
    assert degeneration.slice(C, cos, 1).vertices == ((0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1))
    assert degeneration.slice(C, cos, -1).vertices == ((-1, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1))


def test_decomposition_roundtrip():
    for sc in (degeneration.weighted_plane_114(), degeneration.weighted_plane_112()):
        C = degeneration.cone_over(sc.delta)
        c_plus = degeneration.slice(C, sc.cosection, 1)
        S = polytope.minkowski_sum(sc.decomposition.C1, sc.decomposition.C2)
        assert polytope.canonical_form(S) == polytope.canonical_form(c_plus)


def test_mutate_weighted_plane_114():
    sc = degeneration.weighted_plane_114()
    out = degeneration.mutate_polytope(sc.delta, sc.cosection, sc.decomposition)
    assert out == sc.expected
    standard = polytope.convex_hull([(1, 0), (0, 1), (-1, -1)])
    assert polytope.lattice_equivalent(out, standard) is not None


def test_mutate_weighted_plane_112():
    sc = degeneration.weighted_plane_112()
    out = degeneration.mutate_polytope(sc.delta, sc.cosection, sc.decomposition)
    assert out == sc.expected


def test_mutate_builds_the_cone_hull_once(monkeypatch):
    # both slices read the same extreme generators
    calls = []
    extreme = degeneration._extreme_generators

    def counted(C):
        calls.append(C)
        return extreme(C)

    monkeypatch.setattr(degeneration, "_extreme_generators", counted)
    sc = degeneration.weighted_plane_114()
    assert degeneration.mutate_polytope(sc.delta, sc.cosection, sc.decomposition) == sc.expected
    assert len(calls) == 1


def test_mutate_noop_decomposition():
    sc = degeneration.weighted_plane_114()
    c1 = polytope.convex_hull([(Fraction(-1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])
    c2 = polytope.convex_hull([(0, 1)])
    out = degeneration.mutate_polytope(sc.delta, sc.cosection, SliceDecomposition(c1, c2))
    assert out == sc.delta
    assert polytope.lattice_equivalent(out, sc.delta) is not None


def test_mutate_rejects_bad_decompositions():
    sc = degeneration.weighted_plane_114()
    # wrong total
    with pytest.raises(InvalidDecomposition):
        degeneration.mutate_polytope(
            sc.delta, sc.cosection,
            SliceDecomposition(sc.decomposition.C1, polytope.convex_hull([(0, 0), (1, 0)])))
    # both summand vertices fractional over each vertex of the sum
    half = polytope.convex_hull(
        [(Fraction(-1, 4), Fraction(3, 4)), (Fraction(1, 4), Fraction(3, 4))])
    with pytest.raises(InvalidDecomposition):
        degeneration.mutate_polytope(sc.delta, sc.cosection, SliceDecomposition(half, half))
    with pytest.raises(DimensionMismatch):
        degeneration.mutate_polytope(
            polytope.convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]),
            sc.cosection, sc.decomposition)


def test_mutate_zero_summand_is_unbounded():
    # a that-point-only summand sits at grading zero, so the reassembled
    # cone has no bounded grading-1 slice
    sc = degeneration.weighted_plane_114()
    C = degeneration.cone_over(sc.delta)
    c_plus = degeneration.slice(C, sc.cosection, 1)
    origin = polytope.convex_hull([(0, 0)])
    with pytest.raises(UnboundedSlice):
        degeneration.mutate_polytope(sc.delta, sc.cosection, SliceDecomposition(c_plus, origin))


def test_mutate_detects_non_lattice_output():
    sc = degeneration.weighted_plane_114()
    c1 = polytope.convex_hull([(Fraction(-1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])
    c2 = polytope.convex_hull([(0, 2)])
    with pytest.raises(NotLattice):
        degeneration.mutate_polytope(sc.delta, sc.cosection, SliceDecomposition(c1, c2))


def test_factor_mutation_matches_named_model():
    cat = constructions.catalog()
    f = cat["p112.f"]
    f1 = laurent.parse("(x+1)/x", V2)
    f2 = laurent.parse("x+1", V2)
    out = degeneration.factor_mutation(f, 1, f1, f2)
    assert out == cat["p112.fp"]
    assert period.period_sequence(out, 8).values == period.period_sequence(f, 8).values
    # polytope-level and polynomial-level mutations agree exactly
    sc = degeneration.weighted_plane_112()
    assert polytope.newton_polytope(out) == degeneration.mutate_polytope(
        sc.delta, sc.cosection, sc.decomposition)


def test_factor_mutation_trivial_and_errors():
    cat = constructions.catalog()
    f = cat["p112.f"]
    one = laurent.one(V2)
    f_plus = laurent.parse("(x+1)^2/x", V2)
    assert degeneration.factor_mutation(f, 1, f_plus, one) == f
    with pytest.raises(BadFactorization):
        degeneration.factor_mutation(f, 1, laurent.parse("x+1", V2), laurent.parse("x+1", V2))
    with pytest.raises(PivotDegreeOutOfRange):
        degeneration.factor_mutation(cat["p114.f"], 1, f_plus, one)
    with pytest.raises(ValueError):
        degeneration.factor_mutation(f, 2, f_plus, one)


def test_galkin_and_polytope_mutation_agree_on_114():
    sc = degeneration.weighted_plane_114()
    cat = constructions.catalog()
    g, t = constructions.galkin_mutate(cat["p114.f"], constructions.MarkovTriple(1, 1, 2), 2)
    assert t == constructions.MarkovTriple(1, 1, 1)
    out = degeneration.mutate_polytope(sc.delta, sc.cosection, sc.decomposition)
    assert polytope.lattice_equivalent(polytope.newton_polytope(g), out) is not None
