import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poly_strategy, random_nonzero_poly
from toriclg import intlinalg, laurent
from toriclg import polytope as pt
from toriclg.errors import (
    ComplexityLimit,
    DimensionMismatch,
    EmptyInput,
    InvalidDimension,
    NotTwoDimensional,
    ZeroPolynomial,
)


def test_hull_drops_interior_and_non_extreme_points():
    P = pt.convex_hull([(-1, 2), (1, 2), (0, -1), (0, 0)])
    assert P.vertices == ((-1, 2), (0, -1), (1, 2))
    assert P.dim_affine == 2
    assert pt.is_primitive(P)


def test_hull_single_point():
    P = pt.convex_hull([(3, -2, 5)])
    assert P.dim_affine == 0
    assert P.vertices == ((3, -2, 5),)
    assert P.facet_inequalities == ()
    assert pt.lattice_points(P) == [(3, -2, 5)]
    assert pt.contains(P, (3, -2, 5))
    assert not pt.contains(P, (3, -2, 4))


def test_hull_errors():
    with pytest.raises(EmptyInput):
        pt.convex_hull([])
    # no dimension cap: a segment in 7-D builds, and a 100-simplex's first
    # simplex alone charges 101 * 100^3 units, past HULL_WORK_CAP
    segment = pt.convex_hull([(0,) * 7, (1,) * 7])
    assert segment.vertices == ((0,) * 7, (1,) * 7)
    assert segment.dim_affine == 1
    n = 100
    assert (n + 1) * n**3 > pt.HULL_WORK_CAP
    with pytest.raises(ComplexityLimit):
        pt.convex_hull([tuple(int(i == k) for k in range(n)) for i in range(n)] + [(-1,) * n])
    with pytest.raises(DimensionMismatch):
        pt.convex_hull([(0, 0), (1, 1, 1)])


def test_hull_of_lattice_points_roundtrip():
    cases = [
        pt.convex_hull([(-1, 2), (1, 2), (0, -1)]),
        pt.newton_polytope(laurent.parse("(x+1)^2/(x*y*z)+y+z")),
        pt.newton_polytope(laurent.parse("(x+y+1)^3/(x*y*z*t)+z+t")),
        pt.convex_hull([(0, 0, 0), (2, 4, 6)]),
    ]
    for P in cases:
        assert pt.convex_hull(pt.lattice_points(P)) == P
        assert pt.convex_hull(P.vertices) == P


def test_newton_polytope_examples():
    T = pt.newton_polytope(laurent.parse("x + y + 1/(x*y)"))
    assert T.vertices == ((-1, -1), (0, 1), (1, 0))
    single = pt.newton_polytope(laurent.parse("1", ("x",)))
    assert single.vertices == ((0,),)
    assert single.dim_affine == 0
    f0 = laurent.parse("(x+1)^2/(x*y*z)+y+z")
    P = pt.newton_polytope(f0)
    assert set(P.vertices) == {(1, -1, -1), (-1, -1, -1), (0, 1, 0), (0, 0, 1)}
    assert pt.contains(P, (0, -1, -1))
    with pytest.raises(ZeroPolynomial):
        pt.newton_polytope(laurent.zero(("x",)))


def test_newton_polytope_of_constant():
    P = pt.newton_polytope(laurent.parse("7", ("x", "y")))
    assert P.vertices == ((0, 0),)
    assert P.dim_affine == 0


def test_minkowski_sum_examples():
    seg_h = pt.convex_hull([(0, 0), (1, 0)])
    seg_v = pt.convex_hull([(0, 0), (0, 1)])
    square = pt.minkowski_sum(seg_h, seg_v)
    assert square.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    P = pt.convex_hull([(-1, 2), (1, 2), (0, -1)])
    origin = pt.convex_hull([(0, 0)])
    assert pt.minkowski_sum(P, origin) == P
    with pytest.raises(DimensionMismatch):
        pt.minkowski_sum(P, pt.convex_hull([(0, 0, 0)]))


@settings(max_examples=30)
@given(poly_strategy(2, nonzero=True), poly_strategy(2, nonzero=True))
def test_newton_of_product_is_minkowski_sum_2d(f, g):
    lhs = pt.newton_polytope(laurent.mul(f, g))
    rhs = pt.minkowski_sum(pt.newton_polytope(f), pt.newton_polytope(g))
    assert lhs == rhs


def test_newton_of_product_is_minkowski_sum_dims_2_to_4():
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        nv = rng.randint(2, 4)
        f = random_nonzero_poly(rng, nv)
        g = random_nonzero_poly(rng, nv)
        lhs = pt.newton_polytope(laurent.mul(f, g))
        rhs = pt.minkowski_sum(pt.newton_polytope(f), pt.newton_polytope(g))
        assert lhs == rhs
        checked += 1


def test_faces_edges_lattice_points():
    square = pt.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    es = pt.edges(square)
    assert len(es) == 4
    assert all(pt.edge_lattice_length(e) == 1 for e in es)
    assert len(pt.faces(square, 0)) == 4
    assert len(pt.faces(square, 2)) == 1
    with pytest.raises(InvalidDimension):
        pt.faces(square, 3)

    long_edge = pt.faces(pt.convex_hull([(0, 0), (2, 2)]), 1)[0]
    assert pt.edge_lattice_length(long_edge) == 2

    T = pt.convex_hull([(1, 0), (0, 1), (-1, -1)])
    assert sorted(pt.lattice_points(T)) == [(-1, -1), (0, 0), (0, 1), (1, 0)]

    cube = pt.convex_hull([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    assert len(pt.faces(cube, 2)) == 6
    assert len(pt.edges(cube)) == 12
    assert len(pt.faces(cube, 0)) == 8
    assert len(pt.lattice_points(cube)) == 8


def test_face_lattice_points_live_on_the_face():
    P = pt.newton_polytope(laurent.parse("(x+1)^2/(x*y*z)+y+z"))
    for e in pt.edges(P):
        for z in pt.lattice_points(pt.convex_hull(e.vertices)):
            assert pt.contains(P, z)
    bottom = [e for e in pt.edges(P) if set(e.vertices) == {(1, -1, -1), (-1, -1, -1)}]
    assert len(bottom) == 1
    assert (0, -1, -1) in pt.lattice_points(pt.convex_hull(bottom[0].vertices))
    assert pt.edge_lattice_length(bottom[0]) == 2


def _reference_contains(P, x):
    """Membership by ambient equalities: the primitive kernel rays of the
    vertex differences (intlinalg.kernel_rays) must be constant from the
    first vertex to x, and x must meet every facet."""
    v0 = P.vertices[0]
    equalities = intlinalg.kernel_rays([pt._vec_sub(v, v0) for v in P.vertices[1:]], P.dim_ambient)
    return all(pt._dot(u, x) == pt._dot(u, v0) for u in equalities) and all(
        pt._dot(u, x) <= b for u, b in P.facet_inequalities
    )


def _reference_lattice_points(P):
    """Every integer point of the ambient bounding box that lies in P, in
    the box's lexicographic order."""
    ranges = [range(math.ceil(min(c)), math.floor(max(c)) + 1) for c in zip(*P.vertices)]
    return [x for x in product(*ranges) if _reference_contains(P, x)]


@st.composite
def affine_point_sets(draw):
    """Points in 1-5 variables with a common denominator 1-3, on an affine
    subspace of dimension k = 0..n: a base point b plus d_i + c·d_j for
    directions d_1..d_k with entries in [-1, 1] and c in {-1, 0, 1}, so each
    coordinate spans at most 4 and the ambient box stays small."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    den = draw(st.integers(1, 3))
    base = tuple(Fraction(draw(st.integers(-2 * den, 2 * den)), den) for _ in range(n))
    dirs = [tuple(Fraction(draw(st.integers(-den, den)), den) for _ in range(n)) for _ in range(k)]
    points = [base] + [tuple(b + a for b, a in zip(base, d)) for d in dirs]
    for _ in range(draw(st.integers(0, 4)) if k else 0):
        di, dj = draw(st.sampled_from(dirs)), draw(st.sampled_from(dirs))
        c = draw(st.sampled_from((-1, 0, 1)))
        points.append(tuple(b + a + c * e for b, a, e in zip(base, di, dj)))
    return [tuple(int(x) for x in p) if den == 1 else p for p in points]


@settings(max_examples=80, deadline=None)
@given(affine_point_sets())
@example([(Fraction(3, 2), 1, Fraction(1, 3)), (0, 0, 5), (Fraction(-3, 4), Fraction(-1, 2), 1)])
@example([(0, 0, 0, 0), (2, 2, 2, 2)])
def test_lattice_points_match_the_ambient_box_scan(points):
    P = pt.convex_hull(points)
    assert pt.lattice_points(P) == _reference_lattice_points(P)
    # contains agrees off the lattice too: vertex midpoints, and nudged copies
    for v, w in combinations(P.vertices, 2):
        mid = tuple(Fraction(a + b, 2) for a, b in zip(v, w))
        for x in (mid, mid[:-1] + (mid[-1] + Fraction(1, 7),)):
            assert pt.contains(P, x) == _reference_contains(P, x)


def test_lattice_point_cap_counts_the_box_over_the_affine_hull_axes(monkeypatch):
    # the segment projects one-to-one onto axis 0: 3 candidates, where its
    # ambient box holds 3 * 5 * 7; the square's box holds 4 * 4
    segment = pt.convex_hull([(0, 0, 0), (2, 4, 6)])
    square = pt.convex_hull([(0, 0), (3, 0), (0, 3), (3, 3)])
    for P, box in ((segment, 3), (square, 16)):
        monkeypatch.setattr(pt, "LATTICE_POINT_CAP", box)
        assert len(pt.lattice_points(P)) == box
        monkeypatch.setattr(pt, "LATTICE_POINT_CAP", box - 1)
        with pytest.raises(ComplexityLimit):
            pt.lattice_points(P)


def test_lattice_points_of_a_segment_in_30_variables():
    # the ambient box has 2^30 points, past LATTICE_POINT_CAP; the box over
    # the one axis of the segment has 2
    assert 2**30 > pt.LATTICE_POINT_CAP
    P = pt.convex_hull([(0,) * 30, (1,) * 30])
    assert pt.lattice_points(P) == [(0,) * 30, (1,) * 30]


def test_contains_is_exact_off_the_lattice():
    # the rational triangle in the plane y = 2x/3 of LOWER_DIMENSIONAL_PINS
    P = pt.convex_hull([(Fraction(3, 2), 1, Fraction(1, 3)), (0, 0, 5), (Fraction(-3, 4), Fraction(-1, 2), 1)])
    assert pt.contains(P, (Fraction(3, 4), Fraction(1, 2), Fraction(8, 3)))
    assert not pt.contains(P, (Fraction(3, 4), Fraction(1, 3), Fraction(8, 3)))
    with pytest.raises(DimensionMismatch):
        pt.contains(P, (0, 0))


def _det(M):
    """Fraction-free (Bareiss) determinant of an integer matrix; 1 for 0x0."""
    M = [list(row) for row in M]
    sign, previous = 1, 1
    for c in range(len(M)):
        p = next((i for i in range(c, len(M)) if M[i][c]), None)
        if p is None:
            return 0
        if p != c:
            M[c], M[p] = M[p], M[c]
            sign = -sign
        for i in range(c + 1, len(M)):
            for j in range(c + 1, len(M)):
                M[i][j] = (M[i][j] * M[c][c] - M[i][c] * M[c][j]) // previous
        previous = M[c][c]
    return sign * previous


def _oracle_facets(points):
    """Index sets of the points on each facet of conv(points), for points
    spanning Z^k: every hyperplane through k of them, its normal the
    cofactor vector of their differences, that has all points on one side."""
    k = len(points[0])
    found = set()
    for chosen in combinations(sorted(set(points)), k):
        diffs = [[a - b for a, b in zip(p, chosen[0])] for p in chosen[1:]]
        normal = [(-1) ** i * _det([row[:i] + row[i + 1 :] for row in diffs]) for i in range(k)]
        if not any(normal):
            continue
        values = [sum(a * b for a, b in zip(normal, p)) for p in points]
        top = sum(a * b for a, b in zip(normal, chosen[0]))
        if all(v <= top for v in values) or all(v >= top for v in values):
            found.add(frozenset(i for i, v in enumerate(values) if v == top))
    return found


@st.composite
def degenerate_point_sets(draw, dims=(3, 6), min_k=1):
    """(points, ambient): points spanning Z^k with repeated, collinear and
    coplanar ones among them, and their images under an injective affine
    map into Z^n, n in the range dims and k from min_k to n."""
    n = draw(st.integers(*dims))
    k = draw(st.integers(min(min_k, n), n))
    small = st.integers(-2, 2)
    simplex = [(0,) * k] + [
        tuple(draw(st.sampled_from((-2, -1, 1, 2))) if j == i else draw(st.integers(0, 1)) * (j < i) for j in range(k))
        for i in range(k)
    ]
    points = list(simplex)
    for _ in range(draw(st.integers(0, 7 if k < 5 else 4))):
        kind = draw(st.sampled_from(("random", "repeat", "collinear", "coplanar")))
        p, q, r = (draw(st.sampled_from(points)) for _ in range(3))
        if kind == "random":
            points.append(tuple(draw(small) for _ in range(k)))
        elif kind == "repeat":
            points.append(p)
        elif kind == "collinear":
            t = draw(st.sampled_from((-1, 2, 3)))
            points.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
        else:
            points.append(tuple(a + b - c for a, b, c in zip(p, q, r)))
    points = draw(st.permutations(points))
    # rows of a unit lower-triangular k x k block plus n - k free rows, shuffled
    rows = [tuple(1 if j == i else draw(small) * (j < i) for j in range(k)) for i in range(k)]
    rows += [tuple(draw(small) for _ in range(k)) for _ in range(n - k)]
    rows = draw(st.permutations(rows))
    shift = [draw(small) for _ in range(n)]
    ambient = [tuple(sum(a * x for a, x in zip(row, p)) + s for row, s in zip(rows, shift)) for p in points]
    return points, ambient


@settings(max_examples=120, deadline=None)
@given(degenerate_point_sets())
def test_hull_facets_match_brute_force_oracle(case):
    _assert_hull_matches_oracle(case)


@settings(max_examples=25, deadline=None)
@given(degenerate_point_sets(dims=(7, 8), min_k=5))
def test_hull_facets_match_brute_force_oracle_in_7_and_8_dimensions(case):
    _assert_hull_matches_oracle(case)


def _assert_hull_matches_oracle(case):
    points, ambient = case
    P = pt.convex_hull(ambient)
    assert P.dim_affine == len(points[0])
    assert all(pt.contains(P, q) for q in ambient)
    tight = [
        frozenset(i for i, q in enumerate(ambient) if sum(a * b for a, b in zip(normal, q)) == offset)
        for normal, offset in P.facet_inequalities
    ]
    oracle = _oracle_facets(points)
    assert len(set(tight)) == len(tight)
    assert set(tight) == oracle
    # a vertex is the only point left in the facets through it
    vertices = set()
    for i, p in enumerate(points):
        through = [S for S in oracle if i in S]
        if through and {points[j] for j in frozenset.intersection(*through)} == {p}:
            vertices.add(ambient[i])
    assert set(P.vertices) == vertices


def test_hull_work_is_charged_before_it_is_done(monkeypatch):
    # m points in R^n first pay n * (m * min(n, m) + n) for the ambient
    # eliminations: 45 for the unit 3-simplex, which then is one charge of
    # 4 * 3^3 = 108; with (1, 1, 1) the ambient charge is 54, and the new
    # point tests the simplex's 4 facets at 3 units each, sees one and
    # solves for the 3 new facets on that facet's edges at 27 units each
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for points, work in ((simplex, 45 + 108), (simplex + [(1, 1, 1)], 54 + 108 + 12 + 81)):
        monkeypatch.setattr(pt, "HULL_WORK_CAP", work)
        assert len(pt.convex_hull(points).vertices) == len(points)
        monkeypatch.setattr(pt, "HULL_WORK_CAP", work - 1)
        with pytest.raises(ComplexityLimit):
            pt.convex_hull(points)


def test_ambient_work_is_charged_in_every_affine_dimension():
    # a segment never reaches beneath-beyond; in 4,000 variables its
    # ambient charge 4000 * (2 * 2 + 4000) passes HULL_WORK_CAP at once
    n = 4000
    assert n * (2 * 2 + n) > pt.HULL_WORK_CAP
    start = time.perf_counter()
    with pytest.raises(ComplexityLimit):
        pt.convex_hull([(0,) * n, (1,) * n])
    assert time.perf_counter() - start < 1
    assert pt.convex_hull([(0,) * 1000, (1,) * 1000]).dim_affine == 1


@settings(max_examples=80, deadline=None)
@given(degenerate_point_sets(dims=(1, 6)))
def test_edges_match_the_face_lattice(case):
    P = pt.convex_hull(case[1])
    assert pt.edges(P) == pt.faces(P, 1)
    with pytest.raises(InvalidDimension):
        pt.edges(pt.convex_hull(case[1][:1]))


def test_edges_of_a_10d_cross_polytope():
    # every pair of vertices but the 10 antipodal ones is an edge; the
    # face lattice would list all 3^10 - 1 faces first
    n = 10
    P = pt.convex_hull([tuple(s * int(k == i) for k in range(n)) for i in range(n) for s in (1, -1)])
    found = {frozenset(e.vertices) for e in pt.edges(P)}
    assert len(found) == 190 - n
    assert all(any(a + b for a, b in zip(*pair)) for pair in found)


@settings(max_examples=60, deadline=None)
@given(degenerate_point_sets(), st.sampled_from((1, 2, 3, 6)))
def test_hull_of_scaled_points_matches_lattice_hull(case, k):
    # k = 1 hands convex_hull the int points as Fractions
    points, ambient = case
    scaled = [tuple(Fraction(x, k) for x in q) for q in ambient]
    P = pt.convex_hull(ambient)
    R = pt.convex_hull(scaled)
    entry = int if all(x % k == 0 for v in P.vertices for x in v) else Fraction
    assert R.dim_affine == P.dim_affine
    assert R.vertices == tuple(tuple(Fraction(x, k) for x in v) for v in P.vertices)
    assert all(type(x) is entry for v in R.vertices for x in v)
    assert R.facet_inequalities == tuple((u, Fraction(b, k)) for u, b in P.facet_inequalities)
    assert all(type(b) is entry for _u, b in R.facet_inequalities)
    tight = {
        frozenset(i for i, q in enumerate(scaled) if sum(a * x for a, x in zip(normal, q)) == offset)
        for normal, offset in R.facet_inequalities
    }
    assert tight == _oracle_facets(points)


# hulls whose affine hull projects one-to-one onto coordinate axes other
# than the leading ones (the axes are named); expected values pinned from
# the Fraction-coordinate hull this integer path replaced
LOWER_DIMENSIONAL_PINS = [
    # axes 0, 2
    (
        pt.convex_hull,
        [(0, 0, 0), (2, 1, 0), (0, 0, 2), (4, 2, 1), (2, 1, 1)],
        (((-1, 0, 0), 0), ((0, 0, -1), 0), ((1, 0, -2), 2), ((1, 0, 4), 8)),
        (((1, -2, 0), 0),),
    ),
    # axis 1: a segment along (0, 1, 1)
    (
        pt.convex_hull,
        [(1, 0, 0), (1, 1, 1), (1, 3, 3), (1, -1, -1)],
        (((0, -1, 0), 1), ((0, 1, 0), 3)),
        (((0, 1, -1), 0), ((1, 0, 0), 1)),
    ),
    # axes 1, 2: a 2-face in 4-D
    (
        pt.convex_hull,
        [(1, 0, 0, 0), (1, 2, 0, 2), (1, 0, 1, -1), (1, 1, 2, -1), (1, 1, 1, 0)],
        (((0, -1, 0, 0), 0), ((0, -1, 1, 0), 1), ((0, 0, -1, 0), 0), ((0, 2, 1, 0), 4)),
        (((0, 1, -1, -1), 0), ((1, 0, 0, 0), 1)),
    ),
    # axes 0, 1, 3: a 3-polytope in the hyperplane x1 = x0 + 2 x2
    (
        pt.convex_hull,
        [(0, 0, 0, 0), (1, 1, 0, 0), (0, 2, 1, 0), (0, 0, 0, 1), (1, 3, 1, 1), (1, 1, 0, 1)],
        (
            ((-3, 1, 0, 2), 2),
            ((-1, 0, 0, 0), 0),
            ((0, 0, 0, -1), 0),
            ((0, 0, 0, 1), 1),
            ((1, -1, 0, 0), 0),
            ((1, 0, 0, 0), 1),
            ((1, 1, 0, -2), 2),
        ),
        (((1, -1, 2, 0), 0),),
    ),
    # axes 0, 2: a rational triangle in the plane y = 2x/3
    (
        pt.convex_hull,
        [(Fraction(3, 2), 1, Fraction(1, 3)), (0, 0, 5), (Fraction(-3, 4), Fraction(-1, 2), 1)],
        (((-16, 0, 3), Fraction(15)), ((-8, 0, -27), Fraction(-21)), ((28, 0, 9), Fraction(45))),
        (((2, -3, 0), Fraction(0)),),
    ),
]


@pytest.mark.parametrize("hull, points, facets, equalities", LOWER_DIMENSIONAL_PINS)
def test_lower_dimensional_hulls_are_pinned(hull, points, facets, equalities):
    # the pinned equalities cut out the affine hull: each holds at every
    # vertex, and together they leave dim_affine = n - len(equalities)
    P = hull(points)
    assert P.dim_affine == P.dim_ambient - len(equalities)
    assert all(sum(a * x for a, x in zip(u, v)) == b for u, b in equalities for v in P.vertices)
    assert P.facet_inequalities == facets
    assert all(type(b) is type(facets[0][1]) for _u, b in P.facet_inequalities)


def test_is_primitive():
    assert pt.is_primitive(pt.convex_hull([(1, 0), (0, 1), (-1, -1)]))
    assert not pt.is_primitive(pt.convex_hull([(2, 0), (0, 2), (-2, -2)]))
    assert pt.is_primitive(pt.convex_hull([(-1, 2), (1, 2), (0, -1)]))
    assert not pt.is_primitive(pt.convex_hull([(Fraction(1, 2), 0), (0, 1), (-1, -1)]))


def test_polygon_decompositions_square():
    square = pt.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    decs = pt.polygon_minkowski_decompositions(square)
    assert len(decs) == 1
    summands = decs[0]
    assert sorted(tuple(s.vertices) for s in summands) == [
        ((0, 0), (0, 1)),
        ((0, 0), (1, 0)),
    ]


def test_polygon_decompositions_segment():
    seg = pt.convex_hull([(0, 0), (3, 3)])
    decs = pt.polygon_minkowski_decompositions(seg)
    assert len(decs) == 1
    assert [tuple(s.vertices) for s in decs[0]] == [((0, 0), (1, 1))] * 3


def test_polygon_decompositions_irreducible_triangle():
    T = pt.convex_hull([(1, 0), (0, 1), (-1, -1)])
    decs = pt.polygon_minkowski_decompositions(T)
    assert len(decs) == 1
    assert len(decs[0]) == 1
    assert pt.canonical_form(decs[0][0]) == pt.canonical_form(T)


def test_polygon_decompositions_sum_back():
    rng = random.Random(7)
    polys = [
        pt.convex_hull([(0, 0), (2, 0), (0, 2)]),
        pt.convex_hull([(0, 0), (1, 0), (2, 1), (0, 1)]),
        pt.convex_hull([(0, 0), (2, 0), (3, 1), (1, 2), (0, 1)]),
    ]
    for P in polys:
        decs = pt.polygon_minkowski_decompositions(P)
        assert decs
        for dec in decs:
            total = dec[0]
            for s in dec[1:]:
                total = pt.minkowski_sum(total, s)
            assert pt.canonical_form(total) == pt.canonical_form(P)


def test_polygon_decompositions_errors():
    with pytest.raises(NotTwoDimensional):
        pt.polygon_minkowski_decompositions(pt.convex_hull([(0, 0)]))
    wide = pt.convex_hull([(0, 0), (13, 0), (0, 1), (13, 1)])
    with pytest.raises(ComplexityLimit):
        pt.polygon_minkowski_decompositions(wide)


def test_lattice_equivalent_identity_and_p2_triangles():
    P = pt.convex_hull([(1, 0), (0, 1), (-1, -1)])
    A, t = pt.lattice_equivalent(P, P)
    mapped = {tuple(x + y for x, y in zip(intlinalg.mat_vec(A, v), t)) for v in P.vertices}
    assert mapped == set(P.vertices)
    Q = pt.convex_hull([(-1, 1), (0, 1), (1, -2)])
    w = pt.lattice_equivalent(P, Q)
    assert w is not None
    A, t = w
    assert abs(intlinalg.det(A)) == 1
    mapped = {tuple(x + y for x, y in zip(intlinalg.mat_vec(A, v), t)) for v in P.vertices}
    assert mapped == set(Q.vertices)


def test_lattice_equivalent_recovers_random_map():
    rng = random.Random(31)
    done = 0
    while done < 20:
        n = rng.randint(2, 4)
        pts = set()
        while len(pts) < n + 2:
            pts.add(tuple(rng.randint(-3, 3) for _ in range(n)))
        P = pt.convex_hull(list(pts))
        if P.dim_affine != n:
            continue
        while True:
            A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if abs(intlinalg.det(A)) == 1:
                break
        t = tuple(rng.randint(-4, 4) for _ in range(n))
        Q = pt.convex_hull(
            [tuple(x + y for x, y in zip(intlinalg.mat_vec(A, v), t)) for v in P.vertices]
        )
        w = pt.lattice_equivalent(P, Q)
        assert w is not None
        WA, wt = w
        mapped = {tuple(x + y for x, y in zip(intlinalg.mat_vec(WA, v), wt)) for v in P.vertices}
        assert mapped == set(Q.vertices)
        done += 1


def test_lattice_equivalent_is_equivalence_relation():
    P = pt.convex_hull([(0, 0), (1, 0), (2, 1), (0, 1)])
    A1 = [[1, 1], [0, 1]]
    Q = pt.convex_hull([tuple(intlinalg.mat_vec(A1, v)) for v in P.vertices])
    A2 = [[1, 0], [1, 1]]
    R = pt.convex_hull([tuple(x + 1 for x in intlinalg.mat_vec(A2, v)) for v in Q.vertices])
    assert pt.lattice_equivalent(P, P) is not None
    assert pt.lattice_equivalent(P, Q) is not None
    assert pt.lattice_equivalent(Q, P) is not None
    assert pt.lattice_equivalent(Q, R) is not None
    assert pt.lattice_equivalent(P, R) is not None


def test_lattice_equivalent_negative():
    P = pt.convex_hull([(1, 0), (0, 1), (-1, -1)])
    bigger = pt.convex_hull([(2, 0), (0, 2), (-2, -2)])
    assert pt.lattice_equivalent(P, bigger) is None
    square = pt.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert pt.lattice_equivalent(P, square) is None


def test_lattice_equivalent_needs_lattice_polytopes():
    # a half-integer translate is no lattice polytope, so nothing maps onto it
    P = pt.convex_hull([(0, 0), (2, 0), (0, 1)])
    moved = pt.convex_hull([(x + Fraction(1, 2), y) for x, y in P.vertices])
    assert pt.lattice_equivalent(P, moved) is None


def _equivalence_candidates_oracle(P, Q):
    """Every unimodular (A, t) with A*P + t = Q, by trying each vertex w0 of
    Q and each ordered d-tuple of Q's other vertices as the images of P's
    first vertex and first affine basis, in that order."""
    if P.dim_ambient != Q.dim_ambient or P.dim_affine != Q.dim_affine:
        return
    if len(P.vertices) != len(Q.vertices) or not (pt.is_lattice(P) and pt.is_lattice(Q)):
        return
    n = P.dim_ambient
    d = P.dim_affine
    P_verts = [tuple(int(x) for x in v) for v in P.vertices]
    Q_verts = [tuple(int(x) for x in w) for w in Q.vertices]
    if d == 0:
        yield intlinalg.identity(n), pt._vec_sub(Q_verts[0], P_verts[0])
        return
    U_P, _, coords_P = pt._frame_coords(P_verts)
    _, U_Q_inv, coords_Q = pt._frame_coords(Q_verts)
    basis_idx = intlinalg.pivot_columns(intlinalg.transpose(coords_P))
    V = [[coords_P[j][i] for j in basis_idx] for i in range(d)]
    det_V = int(intlinalg.det(V))
    adj_V = [[int(x * det_V) for x in row] for row in intlinalg.matrix_inverse(V)]
    Q_set = set(coords_Q)
    for w0, c0 in zip(Q_verts, coords_Q):
        others = [c for c in coords_Q if c != c0]
        for images in permutations(others, d):
            W = [[c[i] - c0[i] for c in images] for i in range(d)]
            A_d = intlinalg.mat_mul(W, adj_V)
            if any(x % det_V for row in A_d for x in row):
                continue
            A_d = [[x // det_V for x in row] for row in A_d]
            if {pt._vec_add(intlinalg.mat_vec(A_d, c), c0) for c in coords_P} != Q_set:
                continue
            if abs(intlinalg.det(A_d)) != 1:
                continue
            block = [row + [0] * (n - d) for row in A_d]
            block += [[int(i == j) for j in range(n)] for i in range(d, n)]
            A = intlinalg.mat_mul(intlinalg.mat_mul(U_Q_inv, block), U_P)
            yield A, pt._vec_sub(w0, intlinalg.mat_vec(A, P_verts[0]))


def _assert_scan_matches_oracle(P, Q):
    scan = list(pt.lattice_equivalence_candidates(P, Q))
    assert scan == list(_equivalence_candidates_oracle(P, Q))
    return scan


def _unimodular(draw, n):
    small = st.integers(-2, 2)
    lower = [[1 if j == i else draw(small) * (j < i) for j in range(n)] for i in range(n)]
    upper = [[1 if j == i else draw(small) * (j > i) for j in range(n)] for i in range(n)]
    return [list(row) for row in draw(st.permutations(intlinalg.mat_mul(lower, upper)))]


def _affine_image(A, t, v):
    return tuple(x + y for x, y in zip(intlinalg.mat_vec(A, v), t))


@st.composite
def lower_dimensional_maps(draw):
    """(P, A, t): a lattice polytope of affine dimension d < n <= 4, placed
    by a unimodular map so its affine hull is not a coordinate subspace,
    and a second unimodular A with integer shift t."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, n - 1))
    small = st.integers(-2, 2)
    points = [(0,) * d] + [
        tuple(draw(st.sampled_from((-2, -1, 1, 2))) if j == i else draw(small) * (j < i) for j in range(d))
        for i in range(d)
    ]
    points += [tuple(draw(small) for _ in range(d)) for _ in range(draw(st.integers(0, 3)))]
    place, shift = _unimodular(draw, n), [draw(small) for _ in range(n)]
    P = pt.convex_hull([_affine_image(place, shift, p + (0,) * (n - d)) for p in points])
    return P, _unimodular(draw, n), tuple(draw(st.integers(-4, 4)) for _ in range(n))


@settings(max_examples=80, deadline=None)
@given(lower_dimensional_maps())
def test_lattice_equivalent_lower_dimensional(case):
    P, A, t = case
    assert P.dim_affine < P.dim_ambient
    Q = pt.convex_hull([_affine_image(A, t, v) for v in P.vertices])
    witness = pt.lattice_equivalent(P, Q)
    assert witness is not None
    WA, wt = witness
    assert abs(intlinalg.det(WA)) == 1
    assert {_affine_image(WA, wt, v) for v in P.vertices} == set(Q.vertices)
    twice = pt.convex_hull([tuple(2 * x for x in v) for v in P.vertices])
    assert pt.lattice_equivalent(P, twice) is None
    _assert_scan_matches_oracle(P, Q)
    _assert_scan_matches_oracle(P, twice)


def _cross_polytope(n):
    return [tuple(s * (i == k) for i in range(n)) for k in range(n) for s in (1, -1)]


def _simplex(n):
    return [(0,) * n] + [tuple(int(i == k) for i in range(n)) for k in range(n)]


@st.composite
def small_polytope_maps(draw):
    """(P, A, t, R): a lattice polytope in ambient dimension 1-4 of any
    affine dimension, a unimodular A with integer shift t, and an
    unrelated polytope R with as many points drawn."""
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-2, 2)] * n)
    points = draw(st.lists(point, min_size=1, max_size=n + 3, unique=True))
    other = draw(st.lists(point, min_size=len(points), max_size=len(points), unique=True))
    A = _unimodular(draw, n)
    t = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    return pt.convex_hull(points), A, t, pt.convex_hull(other)


# the first vertex has five neighbours and its first four span only a hyperplane
FIRST_NEIGHBOURS_DEPENDENT = pt.convex_hull(
    [(-1, -1, 1, -1), (-1, -1, 1, 1), (-1, 0, -1, -1), (0, 0, 1, 1), (0, 1, -1, -1), (0, 1, 1, 0)]
)


# vertex sets on the lattice sphere x^2 + y^2 + z^2 = 14, as in the equiv
# benchmark: every vertex has degree 4, yet the colours split them
SPHERE_6_TWO_COLOURS = [(-3, 1, 2), (-3, 2, -1), (-2, -3, 1), (-1, 2, 3), (-1, 3, 2), (2, 3, 1)]
SPHERE_6_FOUR_COLOURS = [(-2, 3, 1), (-1, 3, -2), (1, 2, 3), (2, -3, -1), (2, -3, 1), (3, 1, 2)]
SPHERE_8_TWO_COLOURS = [
    (-3, -1, -2), (-3, -1, 2), (1, -3, -2), (1, -3, 2), (1, -2, -3), (2, -3, -1), (2, 3, -1), (3, 2, 1),
]  # fmt: skip
SPHERE_8_FIVE_COLOURS = [
    (-3, 1, -2), (-3, 1, 2), (-2, 3, -1), (-1, -3, -2), (-1, -3, 2), (-1, 2, -3), (2, -1, 3), (3, -2, -1),
]  # fmt: skip
SPHERE_9_NINE_COLOURS = [
    (-3, 1, -2), (-3, 1, 2), (-2, 1, -3), (-2, 3, -1), (1, -3, -2), (1, -3, 2), (2, 3, -1), (3, -2, -1), (3, 1, 2),
]  # fmt: skip
SHEAR_3 = [[1, 1, 0], [0, 1, 0], [0, -1, 1]]
SWAP_3 = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]


@settings(max_examples=60, deadline=None)
@given(small_polytope_maps())
@example((FIRST_NEIGHBOURS_DEPENDENT, intlinalg.identity(4), (1, 0, 0, 0), pt.convex_hull(_simplex(4))))
@example((pt.convex_hull(SPHERE_6_TWO_COLOURS), SHEAR_3, (1, -1, 2), pt.convex_hull(SPHERE_6_FOUR_COLOURS)))
@example((pt.convex_hull(SPHERE_8_TWO_COLOURS), SHEAR_3, (0, 2, -1), pt.convex_hull(SPHERE_8_FIVE_COLOURS)))
@example((pt.convex_hull(SPHERE_9_NINE_COLOURS), SWAP_3, (2, 0, 0), pt.convex_hull(SPHERE_9_NINE_COLOURS)))
def test_equivalence_scan_matches_oracle(case):
    P, A, t, R = case
    Q = pt.convex_hull([_affine_image(A, t, v) for v in P.vertices])
    assert _assert_scan_matches_oracle(P, Q)
    _assert_scan_matches_oracle(P, R)


# (points, order of the lattice automorphism group): every automorphism
# must be yielded, since galkin_mutate reads the whole list
SYMMETRIC_POLYTOPES = [
    (list(product((0, 1), repeat=3)), 48),
    (_cross_polytope(3), 48),
    (_cross_polytope(4), 384),
    (_simplex(1), 2),
    (_simplex(2), 6),
    (_simplex(3), 24),
    (_simplex(4), 120),
    ([(s, s**2, s**3, s**4) for s in range(7)], 2),
]


@pytest.mark.parametrize("points, automorphisms", SYMMETRIC_POLYTOPES)
def test_equivalence_scan_matches_oracle_on_symmetric_polytopes(points, automorphisms):
    P = pt.convex_hull(points)
    n = P.dim_ambient
    assert len(_assert_scan_matches_oracle(P, P)) == automorphisms
    A = [[1 if j == i else int(j == i + 1) for j in range(n)] for i in range(n)]
    Q = pt.convex_hull([_affine_image(A, (1,) * n, v) for v in P.vertices])
    assert len(_assert_scan_matches_oracle(P, Q)) == automorphisms


def test_equivalence_scan_rejects_different_vertex_degrees(monkeypatch):
    # both have 5 vertices in 3-D; degrees [3, 3, 3, 3, 4] against [3, 3, 4, 4, 4]
    pyramid = pt.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    bipyramid = pt.convex_hull([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)])
    assert sorted(map(len, pt._edge_graph(pyramid))) == [3, 3, 3, 3, 4]
    assert sorted(map(len, pt._edge_graph(bipyramid))) == [3, 3, 4, 4, 4]

    def no_frames(points):
        raise AssertionError("frame built for polytopes with different vertex degrees")

    monkeypatch.setattr(pt, "_frame_coords", no_frames)
    assert pt.lattice_equivalent(pyramid, bipyramid) is None
    assert pt.lattice_equivalent(bipyramid, pyramid) is None


def _colours(*polytopes):
    graphs = []
    for P in polytopes:
        tights = pt._facet_vertex_sets(P)
        graphs.append((P, pt._edge_graph(P, tights), tights))
    return pt._vertex_colours(*graphs)


@pytest.mark.parametrize(
    "points, colours",
    [(SPHERE_6_TWO_COLOURS, 2), (SPHERE_6_FOUR_COLOURS, 4), (SPHERE_8_TWO_COLOURS, 2), (SPHERE_9_NINE_COLOURS, 9)],
)
def test_sphere_vertices_of_one_degree_split_into_colours(points, colours):
    P = pt.convex_hull(points)
    assert len(P.vertices) == len(points)
    assert {len(adj) for adj in pt._edge_graph(P)} == {4}
    (colouring,) = _colours(P)
    assert len(set(colouring)) == colours


@settings(max_examples=60, deadline=None)
@given(small_polytope_maps())
def test_unimodular_maps_keep_vertex_colours(case):
    P, A, t, _R = case
    Q = pt.convex_hull([_affine_image(A, t, v) for v in P.vertices])
    WA, wt = pt.lattice_equivalent(P, Q)
    P_colour, Q_colour = _colours(P, Q)
    for v, colour in zip(P.vertices, P_colour):
        assert Q_colour[Q.vertices.index(_affine_image(WA, wt, v))] == colour


def test_equivalence_scan_rejects_different_vertex_colours(monkeypatch):
    # two triangular prisms, every vertex of degree 3; the second's vertical
    # edges have lattice length 2, so no vertex colour is shared
    prism = pt.convex_hull([(x, y, z) for x, y in ((0, 0), (1, 0), (0, 1)) for z in (0, 1)])
    tall = pt.convex_hull([(x, y, z) for x, y in ((0, 0), (1, 0), (0, 1)) for z in (0, 2)])
    assert sorted(map(len, pt._edge_graph(prism))) == sorted(map(len, pt._edge_graph(tall))) == [3] * 6
    prism_colour, tall_colour = _colours(prism, tall)
    assert not set(prism_colour) & set(tall_colour)

    def no_frames(points):
        raise AssertionError("frame built for polytopes with different vertex colours")

    monkeypatch.setattr(pt, "_frame_coords", no_frames)
    assert pt.lattice_equivalent(prism, tall) is None
    assert pt.lattice_equivalent(tall, prism) is None


def test_equivalence_scan_cap(monkeypatch):
    # the 4-simplex has one colour: 5 starts * 4! frame tuples * 4^3 = 7,680 units
    simplex = pt.convex_hull(_simplex(4))
    monkeypatch.setattr(pt, "EQUIVALENCE_WORK_CAP", 7_680)
    assert len(list(pt.lattice_equivalence_candidates(simplex, simplex))) == 120
    monkeypatch.setattr(pt, "EQUIVALENCE_WORK_CAP", 7_679)
    with pytest.raises(ComplexityLimit):
        pt.lattice_equivalent(simplex, simplex)
    # C(4, 13) is neighbourly, so every vertex has degree 12, but its colours
    # leave 32 frame tuples, 2,048 units (9,884,160 by degree alone)
    cyclic = pt.convex_hull([(s, s**2, s**3, s**4) for s in range(13)])
    monkeypatch.setattr(pt, "EQUIVALENCE_WORK_CAP", 2_048)
    assert len(list(pt.lattice_equivalence_candidates(cyclic, cyclic))) == 2
    monkeypatch.setattr(pt, "EQUIVALENCE_WORK_CAP", 2_047)
    with pytest.raises(ComplexityLimit):
        pt.lattice_equivalent(cyclic, cyclic)


def test_equivalence_scan_cost_is_starts_times_tuples_times_n_cubed(monkeypatch):
    # the 5-D cross-polytope: 10 starts of degree 8, P(8, 5) = 6,720 frame
    # tuples each, 5^3 units per tuple: 8,400,000 units in all
    cross = [tuple(s * int(k == i) for k in range(5)) for i in range(5) for s in (1, -1)]
    shear = [[int(i == j or (i, j) == (1, 0)) for j in range(5)] for i in range(5)]
    P = pt.convex_hull(cross)
    Q = pt.convex_hull([intlinalg.mat_vec(shear, v) for v in cross])
    monkeypatch.setattr(pt, "EQUIVALENCE_WORK_CAP", 8_400_000)
    A, t = pt.lattice_equivalent(P, Q)
    assert {intlinalg.mat_vec(A, v) for v in P.vertices} == set(Q.vertices)
    monkeypatch.setattr(pt, "EQUIVALENCE_WORK_CAP", 8_399_999)
    with pytest.raises(ComplexityLimit):
        pt.lattice_equivalent(P, Q)


def test_hull_vertices_are_int_exactly_when_integral():
    R = pt.convex_hull([(Fraction(1, 2), Fraction(1, 2)), (0, 1), (-1, 1)])
    assert (Fraction(1, 2), Fraction(1, 2)) in R.vertices
    assert all(type(x) is Fraction for v in R.vertices for x in v)
    assert not pt.is_lattice(R)
    L = pt.convex_hull([(Fraction(1), 0), (0, Fraction(2, 2)), (-1, -1), (Fraction(1, 3), Fraction(1, 3))])
    assert pt.is_lattice(L)
    assert L.vertices == ((-1, -1), (0, 1), (1, 0))
    assert all(type(x) is int for v in L.vertices for x in v)
    assert L == pt.convex_hull([(1, 0), (0, 1), (-1, -1)])


def _typed(P):
    """The hull's data in a form that, unlike ==, tells int from Fraction."""
    return repr((P.vertices, P.facet_inequalities))


@st.composite
def exact_point_sets(draw):
    """(points, A, t): in dimension 1-4, corners with a common
    denominator 1-3, points between two corners when that is 1, each
    point typed int when integral or Fraction at random; plus a
    unimodular A with integer shift t."""
    n = draw(st.integers(1, 4))
    den = draw(st.integers(1, 3))
    corner = st.tuples(*[st.builds(Fraction, st.integers(-3, 3), st.just(den))] * n)
    corners = draw(st.lists(corner, min_size=1, max_size=n + 2))
    points = list(corners)
    if den == 1:
        for _ in range(draw(st.integers(0, 2))):
            p, q = draw(st.sampled_from(corners)), draw(st.sampled_from(corners))
            s = draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))))
            points.append(tuple(a + s * (b - a) for a, b in zip(p, q)))
    points = [
        tuple(int(x) for x in p) if all(x.denominator == 1 for x in p) and draw(st.booleans()) else p
        for p in draw(st.permutations(points))
    ]
    return points, _unimodular(draw, n), tuple(draw(st.integers(-3, 3)) for _ in range(n))


@settings(max_examples=100, deadline=None)
@given(exact_point_sets())
# a Fraction-typed segment in the plane: its facet offsets are read at vertices
@example(([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))], [[1, 0], [0, 1]], (0, 0)))
def test_vertex_and_offset_types_follow_integrality(case):
    points, A, t = case
    P = pt.convex_hull(points)
    integral = all(Fraction(x).denominator == 1 for v in P.vertices for x in v)
    entry = int if integral else Fraction
    assert pt.is_lattice(P) == integral
    assert all(type(x) is entry for v in P.vertices for x in v)
    assert all(type(b) is entry for _u, b in P.facet_inequalities)
    if not integral:
        return
    ints = [tuple(int(x) for x in v) for v in P.vertices]
    assert _typed(pt.convex_hull(ints)) == _typed(P)
    # Fraction-typed integral input gives the same maps as int input
    images = [_affine_image(A, t, v) for v in ints]
    fractions = [tuple(Fraction(x) for x in v) for v in points]
    scan = list(pt.lattice_equivalence_candidates(pt.convex_hull(ints), pt.convex_hull(images)))
    assert scan
    F_images = [tuple(Fraction(x) for x in v) for v in images]
    assert repr(list(pt.lattice_equivalence_candidates(pt.convex_hull(fractions), pt.convex_hull(F_images)))) == repr(scan)


def test_supporting_vertices_and_tight_normals():
    square = pt.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    top, verts = pt.supporting_vertices(square, (0, 1))
    assert top == 1
    assert set(verts) == {(0, 1), (1, 1)}
    corner_normals = pt.tight_normals(square, (1, 1))
    assert len(corner_normals) == 2
    assert intlinalg.rank([list(v) for v in corner_normals]) == 2


def test_polytope_json_roundtrip():
    P = pt.convex_hull([(1, 0), (0, 1), (-1, -1)])
    data = pt.polytope_to_json(P)
    assert data == {"dim": 2, "vertices": [[-1, -1], [0, 1], [1, 0]]}
    assert pt.polytope_from_json(data) == P
    R = pt.convex_hull([(Fraction(1, 2), 0), (1, 0), (0, 1)])
    data2 = pt.polytope_to_json(R)
    assert pt.polytope_from_json(data2) == R


@pytest.mark.parametrize(
    "vertices",
    [
        [[-1, 2], [1, 2], [0, -1]],
        [[-1, 1], [0, 1], [1, -1], [0, -1]],
        # integral entries written as text or floats, and a point inside
        [["-1", 2.0], ["1", "4/2"], [0, -1], [0, 1]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    ],
)
def test_polytope_from_json_reads_integral_entries_as_int(vertices, monkeypatch):
    ints = [tuple(intlinalg.exact_int(x) for x in v) for v in vertices]
    expected = pt.convex_hull(ints)
    seen = []
    build = pt.convex_hull

    def spy(points):
        seen.extend(points)
        return build(points)

    monkeypatch.setattr(pt, "convex_hull", spy)
    P = pt.polytope_from_json({"dim": len(ints[0]), "vertices": vertices})
    assert _typed(P) == _typed(expected)
    assert P.dim_affine == expected.dim_affine
    # the hull takes its all-int path
    assert all(type(x) is int for v in seen for x in v)


def test_polytope_from_json_keeps_fractional_entries():
    data = {"dim": 2, "vertices": [["1/2", 0], [1, 0], [0, 1.5]]}
    P = pt.polytope_from_json(data)
    assert _typed(P) == _typed(pt.convex_hull([(Fraction(1, 2), 0), (1, 0), (0, Fraction(3, 2))]))
    assert pt.polytope_to_json(P) == {"dim": 2, "vertices": [[0, "3/2"], ["1/2", 0], [1, 0]]}
