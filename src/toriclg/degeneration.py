"""Polytope mutation by cone slicing, and its polynomial counterpart.

A lattice polytope with the origin strictly inside is coned off at
height 1.  A chosen covector r cuts the cone at levels +1 and -1; a
retraction onto the kernel lattice of r turns both cuts into rational
polytopes.  Splitting the positive cut as a Minkowski sum and
reassembling the pieces into a new cone gives, at grading 1, the
mutated polytope.  factor_mutation is the same move performed on a
Laurent polynomial: one factor of the top pivot slice migrates to the
bottom slice.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import intlinalg, laurent, mutation, polytope
from .errors import (
    BadFactorization,
    ComplexityLimit,
    DimensionMismatch,
    InvalidCone,
    InvalidCosection,
    InvalidDecomposition,
    NotLattice,
    OriginNotInterior,
    PivotDegreeOutOfRange,
    UnboundedSlice,
)


@dataclass(frozen=True)
class PolyhedralCone:
    """Nonnegative span of finitely many nonzero rational generators,
    stored as sorted deduplicated primitive integer rays."""

    dim_ambient: int
    generators: tuple

    def __post_init__(self):
        rays = set()
        for q in self.generators:
            if len(q) != self.dim_ambient:
                raise InvalidCone("generator %r does not have length %d" % (q, self.dim_ambient))
            if all(x == 0 for x in q):
                raise InvalidCone("zero vector cannot generate a ray")
            rays.add(intlinalg.rational_ray_to_primitive(q))
        if not rays:
            raise InvalidCone("a cone needs at least one generator")
        object.__setattr__(self, "generators", tuple(sorted(rays)))


@dataclass(frozen=True)
class Cosection:
    """Integer covector r (primitive, last coordinate zero) together with
    a retraction matrix identifying the kernel lattice of r with the
    lattice the sliced polytopes live in."""

    r: tuple
    s_matrix: tuple

    def __post_init__(self):
        r = tuple(int(x) for x in self.r)
        if len(r) < 2:
            raise InvalidCosection("covector needs length at least 2")
        if r[-1] != 0:
            raise InvalidCosection("last coordinate of r must be zero")
        if gcd(*r) != 1:
            raise InvalidCosection("covector must be primitive")
        s = tuple(tuple(int(x) for x in row) for row in self.s_matrix)
        if len(s) != len(r) - 1 or any(len(row) != len(r) for row in s):
            raise InvalidCosection("retraction matrix must have shape (n-1) x n")
        if len(r) ** 3 > polytope.EQUIVALENCE_WORK_CAP:
            raise ComplexityLimit("a retraction in %d variables is past the equivalence work cap" % len(r))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s_matrix", s)
        kernel = intlinalg.integer_kernel_basis([list(r)])
        M = [[sum(row[i] * k[i] for i in range(len(r))) for k in kernel] for row in s]
        if abs(intlinalg.det(M)) != 1:
            raise InvalidCosection("matrix is not a lattice isomorphism on the kernel of r")

    @property
    def ambient_dim(self):
        return len(self.r)

    @property
    def image_dim(self):
        return len(self.r) - 1

    def project(self, p):
        """Apply the retraction matrix to a rational point."""
        return tuple(sum(row[i] * p[i] for i in range(len(p))) for row in self.s_matrix)

    @property
    def grading(self):
        """Retraction image of the height generator; always primitive for a
        valid cosection because the height generator lies in ker r."""
        return tuple(row[-1] for row in self.s_matrix)


@dataclass(frozen=True)
class SliceDecomposition:
    """Two rational Minkowski summands of the positive slice."""

    C1: object
    C2: object

    def __post_init__(self):
        for P in (self.C1, self.C2):
            if not hasattr(P, "vertices") or not hasattr(P, "dim_ambient"):
                raise InvalidDecomposition("summands must be polytopes")
        if self.C1.dim_ambient != self.C2.dim_ambient:
            raise InvalidDecomposition("summands live in different ambient dimensions")


def cone_over(P):
    """Cone generated by the vertices of P lifted to height 1.

    P must be a full-dimensional lattice polytope with the origin
    strictly inside, so every facet offset is positive.
    """
    if P.dim_affine != P.dim_ambient:
        raise OriginNotInterior("polytope is not full-dimensional")
    if any(offset <= 0 for _, offset in P.facet_inequalities):
        raise OriginNotInterior("origin is not strictly inside the polytope")
    return PolyhedralCone(P.dim_ambient + 1, tuple(tuple(v) + (1,) for v in P.vertices))


def _extreme_generators(C):
    """The generators on extreme rays of C, or [] when C contains a line.

    A pointed cone is the tangent cone at 0 of H = conv({0} + generators),
    so its extreme rays are the edges of H at the origin (Ziegler,
    Lectures on Polytopes, 1995); each ray holds exactly one generator,
    the far end of its edge.  The origin is a vertex of H exactly when C
    is pointed.  H is capped like every hull, by polytope.HULL_WORK_CAP.
    """
    origin = (0,) * C.dim_ambient
    H = polytope.convex_hull((origin,) + C.generators)
    if origin not in H.vertices:
        return []
    return [H.vertices[j] for j in polytope._edge_graph(H)[H.vertices.index(origin)]]


def slice(C, cos, level):
    """Retraction image of the vertices of the level-set polyhedron.

    The level set of r on C is in general unbounded; its vertices are
    the points where extreme rays with matching sign meet the level
    plane, and those are what the returned rational polytope spans.
    Raises UnboundedSlice when no extreme ray meets the plane, which
    includes every cone that contains a line: such a level set has no
    vertices.
    """
    if level not in (1, -1):
        raise ValueError("level must be +1 or -1")
    if C.dim_ambient != cos.ambient_dim:
        raise DimensionMismatch("cone and cosection ambient dimensions differ")
    return _slice(_extreme_generators(C), cos, level)


def _slice(rays, cos, level):
    """slice on the cone's extreme generators, so that both levels can
    share one hull."""
    hits = []
    for q in rays:
        value = sum(ri * qi for ri, qi in zip(cos.r, q))
        if value != 0 and (value > 0) == (level > 0):
            scale = Fraction(level, value)
            hits.append(tuple(x * scale for x in q))
    if not hits:
        raise UnboundedSlice("no extreme ray meets level %+d of r" % level)
    return polytope.convex_hull([cos.project(p) for p in hits])


def _is_lattice_point(v):
    return all(Fraction(x).denominator == 1 for x in v)


def _vertex_pairs(S, C1, C2):
    """Pair each vertex of S = C1 + C2 with its unique summand vertices."""
    pairs = []
    for v in S.vertices:
        normals = polytope.tight_normals(S, v)
        if normals:
            w = tuple(sum(col) for col in zip(*normals))
        else:
            w = tuple(0 for _ in v)
        _top1, v1s = polytope.supporting_vertices(C1, w)
        _top2, v2s = polytope.supporting_vertices(C2, w)
        if len(v1s) != 1 or len(v2s) != 1:
            raise InvalidDecomposition("vertex %s of the sum does not split uniquely" % (v,))
        if tuple(a + b for a, b in zip(v1s[0], v2s[0])) != tuple(v):
            raise InvalidDecomposition("summand vertices do not add up at %s" % (v,))
        pairs.append((v, v1s[0], v2s[0]))
    return pairs


def _recession_directions(delta, cos):
    """Extreme directions shared by both slices: rays of the cone over the
    intersection of delta with the kernel hyperplane of r, pushed through
    the retraction."""
    r0 = cos.r[:-1]
    pts = []
    for v in delta.vertices:
        if sum(a * b for a, b in zip(r0, v)) == 0:
            pts.append(v)
    for e in polytope.edges(delta):
        a, b = e.vertices
        va = sum(p * q for p, q in zip(r0, a))
        vb = sum(p * q for p, q in zip(r0, b))
        if (va > 0 and vb < 0) or (va < 0 and vb > 0):
            t = Fraction(-va, vb - va)
            pts.append(tuple(a[i] + t * (b[i] - a[i]) for i in range(len(a))))
    if not pts:
        return []
    section = polytope.convex_hull(pts)
    rays = set()
    for v in section.vertices:
        lifted = intlinalg.rational_ray_to_primitive(tuple(v) + (1,))
        rays.add(tuple(cos.project(lifted)))
    return sorted(rays)


def mutate_polytope(delta, cos, dec):
    """Mutate delta along the cosection using the given decomposition.

    Validates that the summands recombine to the positive slice up to
    translation and that each vertex of the sum has an integral summand
    vertex.  The reassembled cone takes the negative-slice vertices and
    the recession directions at grading-height 0 and the two summands at
    heights +1 and -1; each generator ray is scaled to grading 1 and the
    hull is read off in kernel-complement coordinates.  The result must
    be a lattice polytope.
    """
    if delta.dim_ambient != cos.image_dim:
        raise DimensionMismatch("polytope dimension does not match the cosection")
    rays = _extreme_generators(cone_over(delta))
    c_plus = _slice(rays, cos, 1)
    c_minus = _slice(rays, cos, -1)
    S = polytope.minkowski_sum(dec.C1, dec.C2)
    if polytope.canonical_form(S) != polytope.canonical_form(c_plus):
        raise InvalidDecomposition("summands do not recombine to the positive slice")
    for v, v1, v2 in _vertex_pairs(S, dec.C1, dec.C2):
        if not (_is_lattice_point(v1) or _is_lattice_point(v2)):
            raise InvalidDecomposition("no integral summand vertex over %s" % (v,))
    gens = []
    for v in c_minus.vertices:
        if any(x != 0 for x in v):
            gens.append(tuple(v) + (0,))
    for rho in _recession_directions(delta, cos):
        gens.append(tuple(rho) + (0,))
    for v in dec.C1.vertices:
        gens.append(tuple(v) + (1,))
    for v in dec.C2.vertices:
        gens.append(tuple(v) + (-1,))
    g = cos.grading
    points = []
    for q in gens:
        q = intlinalg.rational_ray_to_primitive(q)
        # grading ignores the appended height coordinate: zip stops at g
        level = sum(gi * qi for gi, qi in zip(g, q))
        if level <= 0:
            raise UnboundedSlice("generator %s has nonpositive grading" % (q,))
        points.append(tuple(Fraction(x, level) for x in q))
    basis = intlinalg.unimodular_with_last_row(list(g))
    out = []
    for p in points:
        u = p[:-1]
        coords = [sum(row[i] * u[i] for i in range(len(u))) for row in basis[:-1]]
        out.append(tuple(coords) + (p[-1],))
    Q = polytope.convex_hull(out)
    if not polytope.is_lattice(Q):
        raise NotLattice("mutated polytope has a non-integral vertex")
    return Q


def factor_mutation(f, pivot, f1, f2):
    """Move the factor f2 of the top pivot slice down to the bottom slice.

    f must have pivot exponents spanning exactly [-1, 1] and its
    pivot-degree +1 slice must equal f1 * f2; the result keeps f1 on the
    top slice and multiplies the bottom slice by f2, which is the
    cluster change with pivot substituted by pivot / f2.
    """
    n = len(f.var_names)
    if not 0 <= pivot < n:
        raise ValueError("pivot index out of range")
    degrees = [e[pivot] for e in f.terms]
    if not degrees or min(degrees) != -1 or max(degrees) != 1:
        raise PivotDegreeOutOfRange(
            "pivot exponents span [%s, %s], need exactly [-1, 1]"
            % (min(degrees, default=0), max(degrees, default=0)))
    top = {}
    for e, c in f.terms.items():
        if e[pivot] == 1:
            top[e[:pivot] + (0,) + e[pivot + 1:]] = c
    f_top = laurent._trusted(f.var_names, top)
    if laurent.mul(f1, f2) != f_top:
        raise BadFactorization("product of the factors is not the top pivot slice")
    return mutation.apply_cluster(f, mutation.ClusterChange(pivot, 1, f2))


@dataclass(frozen=True)
class MutationScenario:
    """Bundled worked example: input polytope, cosection, decomposition,
    and the expected mutated polytope."""

    name: str
    delta: object
    cosection: Cosection
    decomposition: SliceDecomposition
    expected: object


def weighted_plane_114():
    """Deformation data for the weight (1,1,4) plane: slicing its fan
    triangle horizontally and splitting the top cut as unit segment plus
    half-integral point mutates it to the standard plane triangle."""
    delta = polytope.convex_hull([(-1, 2), (1, 2), (0, -1)])
    cos = Cosection((0, 1, 0), ((1, 0, 0), (0, 1, 1)))
    c1 = polytope.convex_hull([(-1, 1), (0, 1)])
    c2 = polytope.convex_hull([(Fraction(1, 2), Fraction(1, 2))])
    expected = polytope.convex_hull([(-1, 1), (0, 1), (1, -2)])
    return MutationScenario("p114", delta, cos, SliceDecomposition(c1, c2), expected)


def weighted_plane_112():
    """Deformation data for the weight (1,1,2) plane: the top cut is a
    lattice segment of length two split into two unit segments, mutating
    the triangle to the smooth quadric quadrilateral."""
    delta = polytope.convex_hull([(-1, 1), (1, 1), (0, -1)])
    cos = Cosection((0, 1, 0), ((1, 0, 0), (0, 1, 1)))
    c1 = polytope.convex_hull([(-1, 1), (0, 1)])
    c2 = polytope.convex_hull([(0, 1), (1, 1)])
    expected = polytope.convex_hull([(-1, 1), (0, 1), (1, -1), (0, -1)])
    return MutationScenario("p112", delta, cos, SliceDecomposition(c1, c2), expected)
