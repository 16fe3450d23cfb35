"""Face restrictions, edge coefficient checks, and lattice Minkowski
presentations of Newton polytopes.

A presentation assigns to each edge and each two-dimensional proper face of
the Newton polytope a multiset of irreducible summand polytopes.  It is
accepted when, face by face, the summands add up to the face and the face's
sub-sum of the polynomial factors as a product of polynomials supported on
the summands with coefficient 1 at every summand vertex.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import intlinalg, laurent, polytope
from .errors import ComplexityLimit, ShapeMismatch

# faces of dimension 3 are never decomposed; on a four-dimensional Newton
# polytope only the 2-skeleton is checked and the result says so
PARTIAL_DIM = 4
# choices of one lattice point per summand that _match_factors may
# enumerate; an edge of lattice length k alone gives 2^k, so (1+x)^14 fits
# and (1+x)^15 does not
MATCH_COMBINATION_CAP = 16_384


@dataclass(frozen=True)
class MinkowskiPresentation:
    """Map from faces (keyed by their sorted vertex tuples) to summand lists.

    assignments holds (face_key, summands) pairs where each summand is a
    lattice polytope translated so its lexicographically least vertex sits
    at the origin.  partial marks that some faces were skipped; their keys
    are listed in skipped.
    """

    assignments: tuple
    partial: bool = False
    skipped: tuple = ()

    def __post_init__(self):
        fixed = []
        for key, summands in self.assignments:
            key = _face_key(key)
            summands = tuple(sorted(summands, key=lambda Q: Q.vertices))
            fixed.append((key, summands))
        object.__setattr__(self, "assignments", tuple(sorted(fixed)))
        object.__setattr__(self, "skipped", tuple(sorted(_face_key(key) for key in self.skipped)))

    def summands_for(self, face_key):
        key = _face_key(face_key)
        for stored, summands in self.assignments:
            if stored == key:
                return summands
        raise KeyError(key)

    def face_keys(self):
        return tuple(key for key, _ in self.assignments)


def _face_key(face_vertices):
    return tuple(sorted(tuple(v) for v in face_vertices))


def _canonical_polytope(Q):
    """Translate so the lexicographically least vertex, vertices[0], is the
    origin; Q itself when it already is."""
    if not any(Q.vertices[0]):
        return Q
    return polytope.convex_hull(list(polytope.canonical_form(Q)))


def _restrict(f, P, face):
    """Sub-sum of the terms of f whose exponents lie on the given face of
    P = Delta_f: those tight at every facet through the face."""
    defining = [
        (normal, offset)
        for normal, offset in P.facet_inequalities
        if all(sum(a * b for a, b in zip(normal, v)) == offset for v in face.vertices)
    ]
    kept = {
        e: c
        for e, c in f.terms.items()
        if all(sum(a * b for a, b in zip(normal, e)) == offset for normal, offset in defining)
    }
    return laurent._trusted(f.var_names, kept)


def edge_binomials_ok(f):
    """Check that every edge of the Newton polytope carries binomial
    coefficients: at the i-th lattice point of an edge of lattice length n
    the coefficient must be C(n, i).  Returns (ok, violations)."""
    if not f.terms:
        raise ValueError("zero polynomial has no Newton polytope")
    P = polytope.newton_polytope(f)
    violations = []
    if P.dim_affine == 0:
        (e,) = f.terms
        if f.terms[e] != 1:
            violations.append({"edge": (tuple(e),), "point": tuple(e), "expected": 1, "found": f.terms[e]})
        return (not violations, tuple(violations))
    for edge in polytope.edges(P):
        n = polytope.edge_lattice_length(edge)
        a, b = edge.vertices
        step = tuple((y - x) // n for x, y in zip(a, b))
        key = _face_key(edge.vertices)
        for i in range(n + 1):
            point = tuple(x + i * s for x, s in zip(a, step))
            found = laurent.coefficient_at(f, point)
            expected = math.comb(n, i)
            if found != expected:
                violations.append({"edge": key, "point": point, "expected": expected, "found": found})
    return (not violations, tuple(violations))


def _presented_faces(P):
    """Faces that a presentation must cover, plus the ones it may skip.

    Edges and two-dimensional proper faces are covered.  A segment Newton
    polytope presents itself.  In ambient affine dimension 4 the
    three-dimensional faces are skipped; higher dimensions are refused.
    """
    if P.dim_affine > PARTIAL_DIM:
        raise ComplexityLimit("no face search above affine dimension %d" % PARTIAL_DIM)
    if P.dim_affine == 0:
        return [], []
    if P.dim_affine == 1:
        return list(polytope.faces(P, 1)), []
    covered = list(polytope.faces(P, 1))
    if P.dim_affine > 2:
        covered.extend(polytope.faces(P, 2))
    skipped = polytope.faces(P, 3) if P.dim_affine == PARTIAL_DIM else []
    return covered, list(skipped)


def _is_irreducible(Q):
    """A unit segment, or a polygon whose primitive edge slots have no
    proper zero-sum subset: what polygon_minkowski_decompositions keeps whole."""
    if Q.dim_affine < 2:
        # lattice length of a segment; gcd 0 for a point
        return math.gcd(*(y - x for x, y in zip(Q.vertices[0], Q.vertices[-1]))) == 1
    slots, _basis2 = polytope._polygon_edge_slots(Q)
    return polytope._is_minimal_zero_sum(slots)


def _match_factors(target, summands):
    """Factor target into polynomials supported on the summands' lattice
    points with coefficient 1 at summand vertices.

    target must have its lexicographically least Newton vertex at the
    origin.  Coefficients are recovered by repeatedly solving product
    coefficients that involve a single unknown; returns the factors or
    None, with None also covering the underdetermined case.  More than
    MATCH_COMBINATION_CAP choices of one point per summand raise
    ComplexityLimit.
    """
    names = target.var_names
    points = [polytope.lattice_points(Q) for Q in summands]
    if math.prod(len(p) for p in points) > MATCH_COMBINATION_CAP:
        raise ComplexityLimit("more than %d lattice point choices in a face factorization" % MATCH_COMBINATION_CAP)
    verts = [set(Q.vertices) for Q in summands]
    coeffs = [
        {tuple(p): (1 if tuple(p) in verts[i] else None) for p in points[i]}
        for i in range(len(summands))
    ]
    by_total = {}
    for combo in itertools.product(*points):
        total = tuple(sum(xs) for xs in zip(*combo))
        by_total.setdefault(total, []).append(combo)
    # a target term the summand lattice points cannot reach is fatal
    for e in target.terms:
        if e not in by_total:
            return None
    unknown_count = sum(1 for layer in coeffs for c in layer.values() if c is None)
    while True:
        progress = False
        for total in sorted(by_total):
            wanted = laurent.coefficient_at(target, total)
            known_sum = 0
            open_terms = []
            for combo in by_total[total]:
                slots = [(i, p) for i, p in enumerate(combo) if coeffs[i][p] is None]
                if not slots:
                    known_sum += math.prod(coeffs[i][p] for i, p in enumerate(combo))
                else:
                    open_terms.append((combo, slots))
            if not open_terms:
                if known_sum != wanted:
                    return None
                continue
            if len(open_terms) == 1 and len(open_terms[0][1]) == 1:
                combo, ((i_star, p_star),) = open_terms[0]
                cofactor = math.prod(coeffs[i][p] for i, p in enumerate(combo) if (i, p) != (i_star, p_star))
                if cofactor == 0:
                    continue
                coeffs[i_star][p_star] = intlinalg.rational(Fraction(wanted - known_sum, cofactor))
                unknown_count -= 1
                progress = True
        if unknown_count == 0:
            break
        if not progress:
            return None
    for total in by_total:
        value = sum(math.prod(coeffs[i][p] for i, p in enumerate(combo)) for combo in by_total[total])
        if value != laurent.coefficient_at(target, total):
            return None
    return [
        laurent._trusted(names, {p: c for p, c in layer.items() if c != 0})
        for layer in coeffs
    ]


def _shifted_restriction(f, P, face):
    """Face restriction translated so the least face vertex maps to 0."""
    g = _restrict(f, P, face)
    m = min(face.vertices)
    shift = laurent.monomial(f.var_names, tuple(-x for x in m))
    return laurent.mul(g, shift)


def _factor_check(target, summands):
    """(ok, detail) of _match_factors for summands known to fit the face."""
    if _match_factors(target, summands) is None:
        return False, "no factorization with unit vertex coefficients"
    return True, "product of %d factors matches" % len(summands)


def _check_face(face, target, summands):
    """(ok, detail) for one face of Delta_f, with target its shifted
    restriction, against summands read from outside."""
    if not summands:
        return False, "no summands assigned"
    canon = []
    for Q in summands:
        if Q.dim_ambient != len(face.vertices[0]):
            return False, "summand lives in the wrong ambient dimension"
        canon.append(_canonical_polytope(Q))
    for Q in canon:
        if not _is_irreducible(Q):
            return False, "summand %s is not irreducible" % (Q.vertices,)
    total = canon[0]
    for Q in canon[1:]:
        total = polytope.minkowski_sum(total, Q)
    if polytope.canonical_form(total) != polytope.canonical_form(face):
        return False, "summands do not add up to the face"
    return _factor_check(target, canon)


def _vertex_entries(f, P):
    """Report entries for the coefficient of f at each vertex of P, which must be 1."""
    entries = []
    for vert in P.vertices:
        c = laurent.coefficient_at(f, vert)
        status = "ok" if c == 1 else "failed"
        entries.append({"face": (tuple(vert),), "dim": 0, "status": status, "detail": "vertex coefficient is %s" % c})
    return entries


def _face_entry(key, dim, good, detail):
    return {"face": key, "dim": dim, "status": "ok" if good else "failed", "detail": detail}


def _skipped_entry(key):
    return {"face": key, "dim": 3, "status": "skipped", "detail": "not decomposed"}


def verify_presentation(f, pres):
    """Check a presentation face by face.  Returns (ok, report) where the
    report lists one entry per face, vertex coefficient checks included.
    The presentation must cover exactly the required faces."""
    if not f.terms:
        raise ValueError("zero polynomial has no Newton polytope")
    P = polytope.newton_polytope(f)
    covered, skippable = _presented_faces(P)
    required = {_face_key(F.vertices): F for F in covered}
    given = set(pres.face_keys())
    if given != set(required):
        raise ShapeMismatch("presentation faces do not match the Newton polytope")
    skippable_keys = {_face_key(F.vertices) for F in skippable}
    if set(pres.skipped) - skippable_keys:
        raise ShapeMismatch("skipped entries are not faces that may be skipped")
    if skippable_keys and set(pres.skipped) != skippable_keys:
        raise ShapeMismatch("three-dimensional faces must be listed as skipped")
    if skippable_keys and not pres.partial:
        raise ShapeMismatch("a presentation skipping faces must be marked partial")
    report = _vertex_entries(f, P)
    for key in sorted(required):
        face = required[key]
        good, detail = _check_face(face, _shifted_restriction(f, P, face), pres.summands_for(key))
        report.append(_face_entry(key, face.dim_affine, good, detail))
    report.extend(_skipped_entry(key) for key in pres.skipped)
    return all(entry["status"] != "failed" for entry in report), tuple(report)


def search_presentation(f):
    """Search for a presentation witness, one face at a time, and report
    the checks it ran.

    Edges admit only the split into unit segments, so an edge whose
    coefficients are not binomial kills the search immediately.  For each
    polygon face the candidate decompositions are tried in order until one
    supports a unit-vertex factorization.  Returns (pres, report), where
    report is what verify_presentation(f, pres) reports for the witness, or
    (None, None) when some vertex coefficient is not 1 or some face has no
    working decomposition."""
    if not f.terms:
        raise ValueError("zero polynomial has no Newton polytope")
    P = polytope.newton_polytope(f)
    vertices = _vertex_entries(f, P)
    if any(entry["status"] == "failed" for entry in vertices):
        return None, None
    covered, skippable = _presented_faces(P)
    assignments = []
    entries = []
    for face in sorted(covered, key=lambda F: (F.dim_affine, _face_key(F.vertices))):
        target = _shifted_restriction(f, P, face)
        # each candidate lies in the face's space, is canonical and
        # irreducible, and adds up to the face: only the factors are open
        for candidate in polytope.polygon_minkowski_decompositions(face):
            good, detail = _factor_check(target, candidate)
            if good:
                break
        else:
            return None, None
        key = _face_key(face.vertices)
        assignments.append((key, tuple(candidate)))
        entries.append(_face_entry(key, face.dim_affine, good, detail))
    pres = MinkowskiPresentation(
        assignments=tuple(assignments),
        partial=bool(skippable),
        skipped=tuple(_face_key(F.vertices) for F in skippable),
    )
    report = vertices + sorted(entries, key=lambda entry: entry["face"])
    report.extend(_skipped_entry(key) for key in pres.skipped)
    return pres, tuple(report)


def find_presentation(f):
    """The witness of search_presentation(f), or None when there is none."""
    return search_presentation(f)[0]


def presentation_to_json_dict(pres):
    return {
        "partial": pres.partial,
        "skipped": [[list(v) for v in key] for key in pres.skipped],
        "faces": [
            {
                "face": [list(v) for v in key],
                "summands": [[list(v) for v in Q.vertices] for Q in summands],
            }
            for key, summands in pres.assignments
        ],
    }


def presentation_from_json_dict(data):
    def point(v):
        return tuple(intlinalg.exact_int(x) for x in v)

    try:
        assignments = []
        for entry in data["faces"]:
            key = tuple(point(v) for v in entry["face"])
            summands = tuple(polytope.convex_hull([point(v) for v in Q]) for Q in entry["summands"])
            assignments.append((key, summands))
        skipped = tuple(tuple(point(v) for v in key) for key in data.get("skipped", ()))
        return MinkowskiPresentation(
            assignments=tuple(assignments), partial=bool(data.get("partial", False)), skipped=skipped
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeMismatch("malformed presentation data: %s" % exc)
