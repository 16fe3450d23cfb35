"""Builders: complete-intersection models, Markov triples, weighted-plane
mutation chains, and the named catalog."""

import time
from fractions import Fraction
from itertools import permutations

import pytest

from toriclg import constructions, intlinalg, laurent, mutation, period, polytope
from toriclg.constructions import CompleteIntersectionSpec, MarkovTriple
from toriclg.errors import ComplexityLimit, CoordinateSearchFailed, NotFano, NotMarkov, NotWeightedTriangle

V2 = ("x", "y")
V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "t")


def T(a, b, c):
    return MarkovTriple(a, b, c)


def test_hori_vafa_matches_named_models():
    cat = constructions.catalog()
    assert constructions.hori_vafa(CompleteIntersectionSpec(4, (2,))) == cat["quadric3.f0"]
    assert constructions.hori_vafa(CompleteIntersectionSpec(4, (3,))) == cat["cubic3.f0"]
    assert constructions.hori_vafa(CompleteIntersectionSpec(5, (3,))) == cat["cubic4.f00"]
    assert constructions.hori_vafa(CompleteIntersectionSpec(3, ())) == cat["p3.f1"]


def test_hori_vafa_index_boundary():
    with pytest.raises(NotFano):
        constructions.hori_vafa(CompleteIntersectionSpec(4, (2, 3)))
    with pytest.raises(NotFano):
        constructions.hori_vafa(CompleteIntersectionSpec(3, (4,)))
    # index 1 with two quadrics: exactly Fano, no free variables left
    f = constructions.hori_vafa(CompleteIntersectionSpec(4, (2, 2)))
    assert f == laurent.parse("(x+1)^2*(y+1)^2/(x*y)", V2)


def test_hori_vafa_variable_cap_boundary():
    cap = constructions.HORI_VAFA_VARIABLE_CAP
    with pytest.raises(ComplexityLimit):
        constructions.hori_vafa(CompleteIntersectionSpec(cap + 1, ()))
    # one quadric takes a variable off: (x1 + 1)^2 / (x1...xn) plus n - 1 free ones
    f = constructions.hori_vafa(CompleteIntersectionSpec(cap + 1, (2,)))
    assert len(f.var_names) == cap
    assert len(f.terms) == 3 + cap - 1


def test_spec_validation():
    with pytest.raises(ValueError):
        CompleteIntersectionSpec(3, (1,))
    with pytest.raises(ValueError):
        CompleteIntersectionSpec(2, (2, 2))
    with pytest.raises(ValueError):
        CompleteIntersectionSpec(0, ())
    assert CompleteIntersectionSpec(5, (3,)).dim == 4
    assert CompleteIntersectionSpec(5, (3,)).index == 3


def _fano_specs(max_ambient):
    out = []
    for N in range(2, max_ambient + 1):
        stack = [()]
        while stack:
            degs = stack.pop()
            if degs and N - len(degs) >= 1:
                out.append(CompleteIntersectionSpec(N, degs))
            lo = degs[-1] if degs else 2
            for d in range(lo, N - sum(degs) + 1):
                if len(degs) + 1 <= N - 1 and sum(degs) + d <= N:
                    stack.append(degs + (d,))
        out.append(CompleteIntersectionSpec(N, ()))
    return out


def test_origin_strictly_interior_small_dims():
    # ambient polytope dimension is capped at 6, so skip models with more
    # variables; supports above 150 monomials only repeat smaller shapes slowly
    specs = [s for s in _fano_specs(7) if s.dim <= 6]
    checked = 0
    for spec in specs:
        f = constructions.hori_vafa(spec)
        if len(f.terms) > 150:
            continue
        checked += 1
        P = polytope.newton_polytope(f)
        assert P.dim_affine == spec.dim, spec
        assert all(offset > 0 for _, offset in P.facet_inequalities), spec
    assert checked > 20


def test_markov_triple_sorting_and_validation():
    t = MarkovTriple(2, 1, 1)
    assert t.as_tuple() == (1, 1, 2)
    assert t.weights() == (1, 1, 4)
    assert T(5, 1, 2) == T(1, 2, 5)
    with pytest.raises(NotMarkov):
        MarkovTriple(1, 1, 3)
    with pytest.raises(NotMarkov):
        MarkovTriple(0, 1, 1)
    with pytest.raises(NotMarkov):
        MarkovTriple(2, 2, 2)


def test_markov_children_examples():
    assert constructions.markov_children(T(1, 1, 1)) == {T(1, 1, 2)}
    assert constructions.markov_children(T(1, 1, 2)) == {T(1, 1, 1), T(1, 2, 5)}
    assert constructions.markov_children(T(1, 2, 5)) == {T(1, 1, 2), T(1, 5, 13), T(2, 5, 29)}


def test_markov_transform_is_reversible():
    for t in constructions.markov_tree(3):
        for child in constructions.markov_children(t):
            assert t in constructions.markov_children(child)


def test_markov_tree_levels():
    assert constructions.markov_tree(0) == {T(1, 1, 1)}
    assert constructions.markov_tree(1) == {T(1, 1, 1), T(1, 1, 2)}
    assert constructions.markov_tree(2) == {T(1, 1, 1), T(1, 1, 2), T(1, 2, 5)}
    tree4 = constructions.markov_tree(4)
    assert len(tree4) == 9
    for t in (T(1, 5, 13), T(2, 5, 29), T(1, 13, 34), T(5, 13, 194), T(2, 29, 169), T(5, 29, 433)):
        assert t in tree4
    with pytest.raises(ValueError):
        constructions.markov_tree(-1)


def test_triangle_weights_examples():
    cat = constructions.catalog()
    w = constructions.triangle_weights(polytope.newton_polytope(cat["p2.f"]))
    assert w == (1, 1, 1)
    w = constructions.triangle_weights(polytope.newton_polytope(cat["p112.f"]))
    assert sorted(w) == [1, 1, 2]
    w = constructions.triangle_weights(polytope.newton_polytope(cat["p114.f"]))
    assert sorted(w) == [1, 1, 4]
    with pytest.raises(NotWeightedTriangle):
        constructions.triangle_weights(polytope.newton_polytope(laurent.parse("x + y + x*y + 1/(x*y)", V2)))
    with pytest.raises(NotWeightedTriangle):
        constructions.triangle_weights(polytope.newton_polytope(laurent.parse("x^2 + y + 1/(x^2*y)", V2)))
    with pytest.raises(NotWeightedTriangle):
        constructions.triangle_weights(polytope.newton_polytope(laurent.parse("x + y + x*y", V2)))


def test_galkin_chain_from_basic_model():
    f0 = constructions.catalog()["p2.f"]
    g1, t1 = constructions.galkin_mutate(f0, T(1, 1, 1), 1)
    assert t1 == T(1, 1, 2)
    assert g1 == laurent.parse("y + (x+1)^2/(x*y^2)", V2)

    g2, t2 = constructions.galkin_mutate(g1, t1, 1)
    assert t2 == T(1, 2, 5)
    assert g2 == laurent.parse("y + 2*(x+1)^2/y^2 + (x+1)^5/(x*y^5)", V2)

    g3, t3 = constructions.galkin_mutate(g2, t2, 1)
    assert t3 == T(1, 5, 13)

    for g, t in ((g1, t1), (g2, t2), (g3, t3)):
        P = polytope.newton_polytope(g)
        assert sorted(constructions.triangle_weights(P)) == sorted(t.weights())
    chain = [f0, g1, g2, g3]
    base = period.period_sequence(f0, 9)
    for g in chain[1:]:
        assert period.period_sequence(g, 9).values == base.values


def _solve_linear_map(verts, targets):
    """Unimodular integer 2x2 matrix sending each vertex to its target, or None."""
    m00, m01 = verts[0][0], verts[1][0]
    m10, m11 = verts[0][1], verts[1][1]
    dM = m00 * m11 - m01 * m10
    if dM == 0:
        return None
    A = []
    for i in range(2):
        t0, t1 = targets[0][i], targets[1][i]
        r0 = Fraction(t0 * m11 - t1 * m10, dM)
        r1 = Fraction(t1 * m00 - t0 * m01, dM)
        if r0.denominator != 1 or r1.denominator != 1:
            return None
        A.append([int(r0), int(r1)])
    if abs(A[0][0] * A[1][1] - A[0][1] * A[1][0]) != 1:
        return None
    if tuple(intlinalg.mat_vec(A, verts[2])) != tuple(targets[2]):
        return None
    return A


def _galkin_oracle(f, triple, slot):
    """The weighted-plane step with its own 2x2 coordinate search: every
    weight-preserving vertex matching, the lexicographically least map."""
    vals = triple.as_tuple()
    c = vals[slot]
    a, b = sorted(vals[i] for i in range(3) if i != slot)
    P = polytope.newton_polytope(f)
    weights = constructions.triangle_weights(P)
    d = next((cand for cand in range(c, 2 * c) if (3 * a * cand - b) % c == 0), None)
    if d is None:
        raise CoordinateSearchFailed("no admissible exponent for slot value %d" % c)
    m = 3 * a * b - c
    third_num = d * m - b * b
    if third_num % c != 0:
        raise CoordinateSearchFailed("third vertex target is not integral")
    weighted_targets = ((a * a, (d, c)), (b * b, (d - c, c)), (c * c, (-(third_num // c), -m)))
    best = None
    for perm in permutations(range(3)):
        if any(weights[i] != weighted_targets[perm[i]][0] for i in range(3)):
            continue
        A = _solve_linear_map(P.vertices, [weighted_targets[perm[i]][1] for i in range(3)])
        if A is not None and (best is None or A < best):
            best = A
    if best is None:
        raise CoordinateSearchFailed("no unimodular map onto the target triangle")
    skewed = laurent.monomial_substitute(f, best)
    factor = laurent.add(laurent.variable(f.var_names, 0), laurent.one(f.var_names))
    return mutation.apply_cluster(skewed, mutation.ClusterChange(1, 1, factor))


def test_galkin_coordinate_search_matches_2x2_oracle():
    # every slot of every model on the chain p2.f -> depth 4
    f, triple = constructions.catalog()["p2.f"], T(1, 1, 1)
    for _ in range(4):
        for slot in range(3):
            try:
                expected = _galkin_oracle(f, triple, slot)
            except CoordinateSearchFailed as err:
                with pytest.raises(CoordinateSearchFailed, match=str(err)):
                    constructions.galkin_mutate(f, triple, slot)
                continue
            assert constructions.galkin_mutate(f, triple, slot)[0] == expected
        f, triple = constructions.galkin_mutate(f, triple, 1)


def test_galkin_step_over_the_lattice_point_cap_is_refused_up_front():
    f, triple = constructions.catalog()["p2.f"], T(1, 1, 1)
    for _ in range(4):
        f, triple = constructions.galkin_mutate(f, triple, 1)
    assert triple == T(1, 13, 34)
    start = time.perf_counter()
    with pytest.raises(ComplexityLimit, match="879162 lattice points"):
        constructions.galkin_mutate(f, triple, 0)
    assert time.perf_counter() - start < 1.0


def test_catalog_is_parsed_once_and_each_call_gets_a_fresh_dict(monkeypatch):
    first = constructions.catalog()
    monkeypatch.setattr(laurent, "parse", None)
    second = constructions.catalog()
    assert second == first and second is not first
    second.pop("p2.f")
    assert "p2.f" in constructions.catalog()


def test_galkin_p114_step_down():
    cat = constructions.catalog()
    g, t = constructions.galkin_mutate(cat["p114.f"], T(1, 1, 2), 2)
    assert t == T(1, 1, 1)
    assert g == laurent.parse("x*y^2 + 1/y + 1/(x*y)", V2)
    witness = mutation.equivalent_up_to_toric(g, cat["p2.f"])
    assert witness is not None
    assert mutation.apply_toric(g, witness) == cat["p2.f"]


def test_galkin_rejects_bad_inputs():
    cat = constructions.catalog()
    with pytest.raises(ValueError):
        constructions.galkin_mutate(cat["p2.f"], T(1, 1, 1), 3)
    with pytest.raises(NotWeightedTriangle):
        constructions.galkin_mutate(cat["p2.f"], T(1, 1, 2), 0)
    with pytest.raises(NotWeightedTriangle):
        constructions.galkin_mutate(laurent.parse("x + y + x*y + 1/(x*y)", V2), T(1, 1, 1), 0)
    with pytest.raises(NotWeightedTriangle):
        constructions.galkin_mutate(cat["p3.f1"], T(1, 1, 1), 0)


def test_catalog_keys_and_shapes():
    cat = constructions.catalog()
    assert len(cat) == 16
    assert set(cat) >= {"p2.f", "quadric3.f0", "cubic3.f0", "cubic4.f00", "p3.f1", "p112.f", "p114.f"}
    assert cat["p3.f2"] == laurent.parse("x + y/x + z/x + 1/(x*y) + 1/(x*z)", V3)
    assert cat["cubic4.f11"].var_names == V4
    for f in cat.values():
        assert not f.is_zero()


def test_catalog_cluster_coherence():
    cat = constructions.catalog()
    fac2 = laurent.parse("x + 1", V3)
    assert mutation.apply_cluster(cat["quadric3.f0"], mutation.ClusterChange(1, -1, fac2)) == cat["quadric3.f1"]
    fac3 = laurent.parse("x + y + 1", V3)
    assert mutation.apply_cluster(cat["cubic3.f0"], mutation.ClusterChange(2, -1, fac3)) == cat["cubic3.f1"]
    fac4 = laurent.parse("x + y + 1", V4)
    assert mutation.apply_cluster(cat["cubic4.f00"], mutation.ClusterChange(2, -1, fac4)) == cat["cubic4.f10"]
    assert mutation.apply_cluster(cat["cubic4.f10"], mutation.ClusterChange(3, -1, fac4)) == cat["cubic4.f11"]
    facp = laurent.parse("x + 1", V2)
    assert mutation.apply_cluster(cat["p112.f"], mutation.ClusterChange(1, 1, facp)) == cat["p112.fp"]


def test_p3_rewrites_and_cluster_chain():
    cat = constructions.catalog()
    A1 = [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
    A2 = [[1, 0, 0], [0, 1, 0], [1, -1, 1]]
    assert laurent.monomial_substitute(cat["p3.f1"], A1) == cat["p3.f1p"]
    assert laurent.monomial_substitute(cat["p3.f1"], A2) == cat["p3.f1pp"]

    fac = laurent.parse("x + 1", V3)
    g = mutation.apply_cluster(cat["p3.f1p"], mutation.ClusterChange(2, 1, fac))
    assert g == laurent.parse("z + y + (x+1)^2/(x*y*z^2)", V3)
    wit = mutation.equivalent_up_to_toric(g, cat["p3.f3"])
    assert wit is not None

    h = mutation.apply_cluster(cat["p3.f1pp"], mutation.ClusterChange(2, 1, fac))
    assert h == laurent.parse("z + (x+1)*y/z + (x+1)/(x*y*z)", V3)
    wit = mutation.equivalent_up_to_toric(h, cat["p3.f2"])
    assert wit is not None
    assert mutation.apply_cluster(h, mutation.ClusterChange(1, 1, fac)) == cat["p3.f3"]


def test_p3_family_periods_agree():
    cat = constructions.catalog()
    base = period.period_sequence(cat["p3.f1"], 8)
    for name in ("p3.f2", "p3.f3", "p3.f1p", "p3.f1pp"):
        assert period.period_sequence(cat[name], 8).values == base.values
