"""Face restrictions, edge binomial checks, and presentation search."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toriclg import constructions, laurent, minkowski, polytope
from toriclg.errors import ComplexityLimit, ShapeMismatch

V3 = ("x", "y", "z")
LONG_EDGE = ((-1, -1, -1), (1, -1, -1))


def _face_with_vertices(P, d, vertices):
    wanted = tuple(sorted(vertices))
    for F in polytope.faces(P, d):
        if tuple(sorted(F.vertices)) == wanted:
            return F
    raise AssertionError("face not found: %s" % (wanted,))


def _restriction_oracle(f, F):
    """The terms of f whose exponents lie in the hull of the face's vertices."""
    hull = polytope.convex_hull(F.vertices)
    return laurent.LaurentPoly(f.var_names, {e: c for e, c in f.terms.items() if polytope.contains(hull, e)})


def test_face_restriction_examples():
    f = constructions.catalog()["quadric3.f0"]
    P = polytope.newton_polytope(f)
    whole = _face_with_vertices(P, P.dim_affine, P.vertices)
    assert minkowski._restrict(f, P, whole) == f
    edge = _face_with_vertices(P, 1, LONG_EDGE)
    assert minkowski._restrict(f, P, edge) == laurent.parse("(x^2 + 2*x + 1)/(x*y*z)", V3)
    vertex = _face_with_vertices(P, 0, ((0, 1, 0),))
    assert minkowski._restrict(f, P, vertex) == laurent.parse("y", V3)


def test_restriction_matches_the_hull_oracle():
    for name, f in sorted(constructions.catalog().items()):
        if len(f.var_names) != 3:
            continue
        P = polytope.newton_polytope(f)
        for d in (1, 2):
            for F in polytope.faces(P, d):
                assert minkowski._restrict(f, P, F) == _restriction_oracle(f, F), (name, F.vertices)


def test_face_restriction_commutes_with_substitution():
    f = constructions.catalog()["quadric3.f0"]
    A = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    g = laurent.monomial_substitute(f, A)
    P = polytope.newton_polytope(f)
    Q = polytope.newton_polytope(g)
    for d in range(P.dim_affine + 1):
        for F in polytope.faces(P, d):
            image = [tuple(sum(A[i][j] * v[j] for j in range(3)) for i in range(3)) for v in F.vertices]
            G = _face_with_vertices(Q, d, image)
            lhs = laurent.monomial_substitute(minkowski._restrict(f, P, F), A)
            assert lhs == minkowski._restrict(g, Q, G) == _restriction_oracle(g, G)


def test_edge_binomials_examples():
    cat = constructions.catalog()
    ok, violations = minkowski.edge_binomials_ok(cat["quadric3.f0"])
    assert ok and violations == ()
    assert minkowski.edge_binomials_ok(cat["p2.f"])[0]
    ok, violations = minkowski.edge_binomials_ok(laurent.parse("x^2 + 3*x + 1 + y", ("x", "y")))
    assert not ok
    assert len(violations) == 1
    assert violations[0]["point"] == (1, 0)
    assert violations[0]["expected"] == 2
    assert violations[0]["found"] == 3
    # a vertex coefficient other than 1 is the i = 0 violation
    ok, violations = minkowski.edge_binomials_ok(laurent.parse("2*x + y + 1/(x*y)", ("x", "y")))
    assert not ok
    assert any(v["point"] == (1, 0) and v["expected"] == 1 for v in violations)
    with pytest.raises(ValueError):
        minkowski.edge_binomials_ok(laurent.zero(("x",)))


def test_p2_presentation_is_trivial():
    f = constructions.catalog()["p2.f"]
    pres = minkowski.find_presentation(f)
    assert pres is not None
    assert not pres.partial and pres.skipped == ()
    assert len(pres.assignments) == 3
    for _key, summands in pres.assignments:
        assert len(summands) == 1
        assert len(summands[0].vertices) == 2
    ok, report = minkowski.verify_presentation(f, pres)
    assert ok
    assert all(entry["status"] == "ok" for entry in report)


def test_quadric_edge_splits_into_unit_segments():
    f = constructions.catalog()["quadric3.f0"]
    pres = minkowski.find_presentation(f)
    assert pres is not None and not pres.partial
    summands = pres.summands_for(LONG_EDGE)
    assert len(summands) == 2
    assert all(Q.vertices == ((0, 0, 0), (1, 0, 0)) for Q in summands)
    ok, _report = minkowski.verify_presentation(f, pres)
    assert ok


def test_verify_rejects_single_long_segment():
    f = constructions.catalog()["quadric3.f0"]
    pres = minkowski.find_presentation(f)
    tampered = tuple(
        (key, (polytope.convex_hull([(0, 0, 0), (2, 0, 0)]),)) if key == tuple(sorted(LONG_EDGE)) else (key, s)
        for key, s in pres.assignments
    )
    bad = minkowski.MinkowskiPresentation(assignments=tampered)
    ok, report = minkowski.verify_presentation(f, bad)
    assert not ok
    failing = [e for e in report if e["face"] == tuple(sorted(LONG_EDGE))]
    assert failing and failing[0]["status"] == "failed"
    assert "irreducible" in failing[0]["detail"]


def test_verify_rejects_reducible_polygon_summand():
    f = constructions.catalog()["quadric3.f0"]
    pres = minkowski.find_presentation(f)
    key = next(key for key, _s in pres.assignments if len(key) > 2)
    square = polytope.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    tampered = tuple((k, (square,) if k == key else s) for k, s in pres.assignments)
    ok, report = minkowski.verify_presentation(f, minkowski.MinkowskiPresentation(assignments=tampered))
    assert not ok
    (entry,) = [e for e in report if e["face"] == key]
    assert entry["dim"] == 2 and entry["status"] == "failed"
    assert "irreducible" in entry["detail"]


def _irreducible_by_decomposition(Q):
    decs = polytope.polygon_minkowski_decompositions(Q)
    return len(decs) == 1 and len(decs[0]) == 1


def _outcome(check, Q):
    try:
        return check(Q)
    except ComplexityLimit:
        return "limit"


@st.composite
def plane_polytopes(draw):
    """Hull of 2-5 lattice points of the plane, left in Z^2 or mapped into
    Z^3 by an injective integer affine map; segments and polygons only."""
    pts = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=5, unique=True))
    if draw(st.booleans()):
        vec = st.tuples(*[st.integers(-2, 2)] * 3)
        u, v, base = draw(vec), draw(vec), draw(vec)
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if cross == (0, 0, 0):
            u, v = (1, 0, 0), (0, 1, 0)
        pts = [tuple(b + a * x + c * y for b, x, y in zip(base, u, v)) for a, c in pts]
    return polytope.convex_hull(pts)


@settings(max_examples=60, deadline=None)
@given(plane_polytopes())
def test_slot_irreducibility_matches_decompositions(Q):
    assert Q.dim_affine in (1, 2)
    assert _outcome(minkowski._is_irreducible, Q) == _outcome(_irreducible_by_decomposition, Q)


def test_slot_irreducibility_examples():
    unit_triangle = polytope.convex_hull([(0, 0), (1, 0), (0, 1)])
    assert minkowski._is_irreducible(unit_triangle)
    assert not minkowski._is_irreducible(polytope.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert minkowski._is_irreducible(polytope.convex_hull([(0, 0, 0), (1, 2, 3)]))
    assert not minkowski._is_irreducible(polytope.convex_hull([(0, 0, 0), (2, 2, 0)]))
    # side 5 gives 15 slots, above MAX_EDGE_SLOTS = 12, on both paths
    big = polytope.convex_hull([(0, 0), (5, 0), (0, 5)])
    assert _outcome(minkowski._is_irreducible, big) == _outcome(_irreducible_by_decomposition, big) == "limit"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=6),
            st.tuples(*[st.integers(-4, 4)] * n),
            st.booleans(),
        )
    )
)
def test_canonical_polytope_matches_rehull(data):
    pts, shift, at_origin = data
    if at_origin:
        shift = tuple(-x for x in min(pts))
    Q = polytope.convex_hull([tuple(x + t for x, t in zip(p, shift)) for p in pts])
    assert minkowski._canonical_polytope(Q) == polytope.convex_hull(list(polytope.canonical_form(Q)))


@pytest.mark.parametrize("name", ["quadric3.f0", "cubic4.f00"])
def test_one_newton_polytope_per_search_and_per_check(name, monkeypatch):
    f = constructions.catalog()[name]
    calls = []
    build = polytope.newton_polytope

    def counting(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(polytope, "newton_polytope", counting)
    pres = minkowski.find_presentation(f)
    assert pres is not None and pres.partial == (name == "cubic4.f00")
    assert len(calls) == 1
    assert minkowski.verify_presentation(f, pres)[0]
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["quadric3.f0", "cubic3.f0", "cubic4.f00"])
def test_search_report_matches_verify_presentation_on_catalog_models(name):
    f = constructions.catalog()[name]
    pres, report = minkowski.search_presentation(f)
    assert pres is not None
    assert minkowski.verify_presentation(f, pres) == (True, report)


def test_search_trusts_its_candidates(monkeypatch):
    # the candidates fit the face by construction: no face hull, no sum
    # hull and no irreducibility or translation check on the search path
    f = constructions.catalog()["cubic4.f00"]
    expected = minkowski.search_presentation(f)
    P = polytope.newton_polytope(f)
    faces = {minkowski._face_key(F.vertices) for d in (1, 2) for F in polytope.faces(P, d)}
    hull = polytope.convex_hull

    def no_face_hull(points):
        points = list(points)
        assert minkowski._face_key(points) not in faces
        return hull(points)

    def forbidden(*args):
        raise AssertionError("structural check on the search path")

    monkeypatch.setattr(polytope, "convex_hull", no_face_hull)
    for module, name in ((polytope, "minkowski_sum"), (minkowski, "_is_irreducible"), (minkowski, "_canonical_polytope")):
        monkeypatch.setattr(module, name, forbidden)
    assert minkowski.search_presentation(f) == expected


def _unit_pieces(n):
    """Primitive vectors v of {-1, 0, 1}^n, and pairs (u, v) of them
    spanning a saturated rank-2 sublattice: the edges of unit segments
    [0, v] and of unimodular triangles 0, u, v."""
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=n) if any(v)]
    pairs = [
        (u, v)
        for u, v in itertools.combinations(vectors, 2)
        if math.gcd(*(u[i] * v[j] - u[j] * v[i] for i in range(n) for j in range(i + 1, n))) == 1
    ]
    return vectors, pairs


UNIT_PIECES = {n: _unit_pieces(n) for n in (2, 3)}


@st.composite
def unit_products(draw):
    """(f, base): a full-dimensional product of 2-3 unit segments and
    unimodular triangles in 2 or 3 variables, and f that product itself or
    with one coefficient raised by 1 or 2."""
    n = draw(st.integers(2, 3))
    names = ("x", "y", "z")[:n]
    vectors, pairs = UNIT_PIECES[n]
    base = laurent.monomial(names, (0,) * n)
    for _ in range(draw(st.integers(2, 3))):
        edges = draw(st.sampled_from(pairs)) if draw(st.booleans()) else (draw(st.sampled_from(vectors)),)
        base = laurent.mul(base, laurent.LaurentPoly(names, {p: 1 for p in ((0,) * n,) + edges}))
    assume(polytope.newton_polytope(base).dim_affine == n)
    f = base
    if draw(st.booleans()):
        e = draw(st.sampled_from(sorted(base.terms)))
        f = laurent.add(base, laurent.LaurentPoly(names, {e: draw(st.integers(1, 2))}))
    return f, base


@settings(max_examples=60, deadline=None)
@given(unit_products())
def test_search_report_matches_verify_presentation(case):
    """verify_presentation is the independent check of the search's own
    report; a failed search must also reject the unperturbed witness."""
    f, base = case
    witness = minkowski.find_presentation(base)
    assert witness is not None
    pres, report = minkowski.search_presentation(f)
    if pres is None:
        assert report is None
        assert not minkowski.verify_presentation(f, witness)[0]
    else:
        assert minkowski.verify_presentation(f, pres) == (True, report)


def test_verify_rejects_non_binomial_coefficients():
    cat = constructions.catalog()
    f = cat["quadric3.f0"]
    pres = minkowski.find_presentation(f)
    bumped = laurent.add(f, laurent.parse("1/(y*z)", V3))
    ok, report = minkowski.verify_presentation(bumped, pres)
    assert not ok
    failing = [e for e in report if e["status"] == "failed"]
    assert failing
    assert minkowski.find_presentation(bumped) is None


def test_verify_shape_mismatch():
    f = constructions.catalog()["quadric3.f0"]
    pres = minkowski.find_presentation(f)
    with pytest.raises(ShapeMismatch):
        minkowski.verify_presentation(f, minkowski.MinkowskiPresentation(assignments=pres.assignments[1:]))
    extra = pres.assignments + ((((8, 8, 8), (9, 9, 9)), (polytope.convex_hull([(0, 0, 0), (1, 0, 0)]),)),)
    with pytest.raises(ShapeMismatch):
        minkowski.verify_presentation(f, minkowski.MinkowskiPresentation(assignments=extra))


def test_find_presentation_needs_unit_vertices_and_binomials():
    assert minkowski.find_presentation(laurent.parse("x^2 + 3*x + 1 + y", ("x", "y"))) is None
    assert minkowski.find_presentation(laurent.parse("2*x + y + 1/(x*y)", ("x", "y"))) is None
    # one-variable square binomial presents itself as two unit segments
    f = laurent.parse("x^2 + 2*x + 1", ("x",))
    pres = minkowski.find_presentation(f)
    assert pres is not None and len(pres.assignments) == 1
    assert len(pres.assignments[0][1]) == 2
    assert minkowski.verify_presentation(f, pres)[0]


def test_triple_triangle_face():
    f = constructions.catalog()["cubic3.f0"]
    pres = minkowski.find_presentation(f)
    assert pres is not None and not pres.partial
    big = tuple(sorted(((2, -1, -1), (-1, 2, -1), (-1, -1, -1))))
    summands = pres.summands_for(big)
    assert len(summands) == 3
    assert all(set(Q.vertices) == {(0, 0, 0), (1, 0, 0), (0, 1, 0)} for Q in summands)
    assert minkowski.verify_presentation(f, pres)[0]


def test_factor_search_solves_interior_coefficient():
    # base face = segment + triangle, the triangle's edge midpoint
    # coefficient is forced to 2 by the product
    f = laurent.parse("1 + 3*x + 3*x^2 + x^3 + x*y + x^2*y + z", V3)
    pres = minkowski.find_presentation(f)
    assert pres is not None
    base = tuple(sorted(((0, 0, 0), (3, 0, 0), (2, 1, 0), (1, 1, 0))))
    summands = pres.summands_for(base)
    shapes = sorted(len(Q.vertices) for Q in summands)
    assert shapes == [2, 3]
    ok, _report = minkowski.verify_presentation(f, pres)
    assert ok


def test_cubic4_runs_in_partial_mode():
    f = constructions.catalog()["cubic4.f00"]
    pres = minkowski.find_presentation(f)
    assert pres is not None
    assert pres.partial
    assert len(pres.skipped) > 0
    ok, report = minkowski.verify_presentation(f, pres)
    assert ok
    assert any(entry["status"] == "skipped" for entry in report)


def test_edge_binomials_implied_by_presentations():
    cat = constructions.catalog()
    for name in ("p2.f", "quadric3.f0", "cubic3.f0"):
        f = cat[name]
        pres = minkowski.find_presentation(f)
        assert pres is not None and minkowski.verify_presentation(f, pres)[0]
        assert minkowski.edge_binomials_ok(f)[0]


def test_supporting_pieces_of_2_face_summands_sum_to_each_edge():
    """For every 2-face of a found presentation and each of its edges, the
    summands' faces in the edge's outer direction sum to a translate of the
    edge: face_w(Q1 + ... + Qk) = face_w(Q1) + ... + face_w(Qk), so this
    follows from the summands adding up to the face."""
    checked = 0
    for name, f in sorted(constructions.catalog().items()):
        if f.nvars != 3:
            continue
        pres = minkowski.find_presentation(f)
        assert pres is not None, name
        for key, summands in pres.assignments:
            hull = polytope.convex_hull(list(key))
            if hull.dim_affine != 2:
                continue
            for edge in polytope.edges(hull):
                (w,) = [
                    normal
                    for normal, offset in hull.facet_inequalities
                    if all(sum(a * b for a, b in zip(normal, v)) == offset for v in edge.vertices)
                ]
                total = None
                for Q in summands:
                    piece = polytope.convex_hull(list(polytope.supporting_vertices(Q, w)[1]))
                    total = piece if total is None else polytope.minkowski_sum(total, piece)
                expected = polytope.convex_hull(list(edge.vertices))
                assert polytope.canonical_form(total) == polytope.canonical_form(expected), (name, key, edge)
                checked += 1
    assert checked > 0


def test_presentation_json_roundtrip():
    f = constructions.catalog()["quadric3.f0"]
    pres = minkowski.find_presentation(f)
    data = minkowski.presentation_to_json_dict(pres)
    assert minkowski.presentation_from_json_dict(data) == pres
    with pytest.raises(ShapeMismatch):
        minkowski.presentation_from_json_dict({"faces": [{"face": "nope"}]})


def test_matched_factor_coefficients_are_int_exactly_when_integral():
    # 1 + 3/2*x + x^2 on the segment [0, 2]: the midpoint solves to 3/2;
    # (1 + x)*(1 + 2*x + x^2 + y) on a segment and a triangle: every coefficient an int
    cases = [("1 + 3/2*x + x^2", [[(0, 0), (2, 0)]]), ("(1 + x)*(1 + 2*x + x^2 + y)", [[(0, 0), (1, 0)], [(0, 0), (2, 0), (0, 1)]])]
    for text, summands in cases:
        target = laurent.parse(text, ("x", "y"))
        factors = minkowski._match_factors(target, [polytope.convex_hull(Q) for Q in summands])
        assert factors is not None
        product = factors[0]
        for g in factors[1:]:
            product = laurent.mul(product, g)
        assert product == target
        for g in factors:
            assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in g.terms.values())
