"""Exact convex geometry for lattice and rational polytopes.

All arithmetic is exact (int and Fraction); there is no floating point
anywhere.  Every hull, lattice or rational, is built on integer
coordinates: the points are projected one-to-one onto coordinate axes of
their affine hull and rational ones are scaled to integers, so facet
normals come from fraction-free elimination.  A lower-dimensional polytope
is described by its vertices, whose affine span is its affine hull, and
facet inequalities that cut it out of that hull; no ambient equalities are
kept.
"""

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from . import intlinalg
from .errors import (
    ComplexityLimit,
    DimensionMismatch,
    EmptyInput,
    InvalidDimension,
    NotLattice,
    NotTwoDimensional,
    ZeroPolynomial,
)

HULL_WORK_CAP = 10_000_000
LATTICE_POINT_CAP = 2_000_000
MAX_EDGE_SLOTS = 12
EQUIVALENCE_WORK_CAP = 5_000_000


@dataclass(frozen=True)
class Polytope:
    """A lattice or rational polytope, as built by convex_hull.

    The vertices are int tuples exactly when every vertex is integral (a
    lattice polytope, see is_lattice), else Fraction tuples; the facet
    offsets are int or Fraction along with them.  The facet inequalities cut
    the polytope out of its affine hull, the affine span of the vertices."""

    dim_ambient: int
    vertices: tuple
    facet_inequalities: tuple
    dim_affine: int

    def __repr__(self):
        return "Polytope(%r)" % (list(self.vertices),)


@dataclass(frozen=True)
class Face:
    dim_affine: int
    vertex_indices: tuple
    vertices: tuple


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [list(_vec_sub(p, base)) for p in points[1:]]
    return intlinalg.rank(rows)


def _hyperplane(coords, idxs, d):
    """Primitive integer normal and offset of the hyperplane through the
    given d affinely independent coordinate points, or None if degenerate."""
    base = coords[idxs[0]]
    rows = [_vec_sub(coords[i], base) for i in idxs[1:]]
    kernel = intlinalg.kernel_rays(rows, d)
    if len(kernel) != 1:
        return None
    return kernel[0], _dot(kernel[0], base)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(coords):
    order = sorted(range(len(coords)), key=lambda i: coords[i])
    lower = []
    for i in order:
        while len(lower) >= 2 and _cross(coords[lower[-2]], coords[lower[-1]], coords[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(order):
        while len(upper) >= 2 and _cross(coords[upper[-2]], coords[upper[-1]], coords[i]) <= 0:
            upper.pop()
        upper.append(i)
    cycle = lower[:-1] + upper[:-1]
    facets = []
    for k in range(len(cycle)):
        a = coords[cycle[k]]
        b = coords[cycle[(k + 1) % len(cycle)]]
        direction = _vec_sub(b, a)
        normal = intlinalg.primitive_vector((direction[1], -direction[0]))
        facets.append((normal, _dot(normal, a)))
    return cycle, facets


def _charge(work, units):
    """work + units, or ComplexityLimit when that passes HULL_WORK_CAP."""
    work += units
    if work > HULL_WORK_CAP:
        raise ComplexityLimit("convex hull needs over %d units of work" % HULL_WORK_CAP)
    return work


def _hull_incremental(coords, d, init_idx, work):
    """Beneath-beyond over integer coordinates; returns simplex facets
    (normal, offset, frozenset of point indices) triangulating the boundary.

    init_idx must index d + 1 affinely independent points; their sum is
    d + 1 times an interior reference point.  Work is charged on top of the
    caller's work before it is done: d^3 per hyperplane solve, d per facet
    tested for visibility (facets can grow like n^(d/2), McMullen 1970).
    The ArithmeticErrors below mark broken invariants, not hard inputs."""
    work = _charge(work, (d + 1) * d**3)
    ref = tuple(sum(coords[i][k] for i in init_idx) for k in range(d))
    facets = []
    for omit in init_idx:
        rest = [i for i in init_idx if i != omit]
        plane = _hyperplane(coords, rest, d)
        if plane is None:
            raise ArithmeticError("degenerate initial simplex")
        normal, offset = plane
        if _dot(normal, coords[omit]) > offset:
            normal = tuple(-x for x in normal)
            offset = -offset
        facets.append((normal, offset, frozenset(rest)))
    init_set = set(init_idx)
    for idx in range(len(coords)):
        if idx in init_set:
            continue
        p = coords[idx]
        work = _charge(work, d * len(facets))
        # a point on a facet hyperplane counts as visible so it gets
        # stitched in and the triangulation stays consistent
        visible = [f for f in facets if _dot(f[0], p) >= f[1]]
        if not visible:
            continue
        ridge_count = {}
        for _n, _b, verts in visible:
            for ridge in combinations(sorted(verts), d - 1):
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        horizon = [ridge for ridge, count in ridge_count.items() if count == 1]
        work = _charge(work, len(horizon) * d**3)
        survivors = [f for f in facets if _dot(f[0], p) < f[1]]
        for ridge in horizon:
            plane = _hyperplane(coords, list(ridge) + [idx], d)
            if plane is None:
                raise ArithmeticError("degenerate horizon ridge")
            normal, offset = plane
            side = _dot(normal, ref) - offset * (d + 1)
            if side == 0:
                raise ArithmeticError("reference point on new facet")
            if side > 0:
                normal = tuple(-x for x in normal)
                offset = -offset
            survivors.append((normal, offset, frozenset(ridge) | {idx}))
        facets = survivors
    return facets


def _hull_coords(coords, d, basis_idx, work):
    """Facet list [(normal, offset)] of the hull of full-rank affine coords."""
    if d == 0:
        return []
    if d == 1:
        values = [c[0] for c in coords]
        return [((1,), max(values)), ((-1,), -min(values))]
    if d == 2:
        return _hull_2d(coords)[1]
    simplices = _hull_incremental(coords, d, [0] + basis_idx, work)
    return sorted({(n, b) for n, b, _verts in simplices})


def _build(points):
    """Hull of the points, all facet and vertex work in integer coordinates.

    The points independent of the ones before them (pivot columns of the
    differences to the first point) span the affine hull, and the pivot
    columns of their differences are coordinate axes onto which the affine
    hull projects one-to-one; a point's coordinates are its difference
    restricted to those axes, times the lcm of their denominators.  A facet
    normal there is the ambient normal written on the axes, zero elsewhere.
    All-int points are read as int, any other entry makes every entry a
    Fraction; vertices come back as int exactly when all are integral, and
    the offsets, taken at vertices, follow their type."""
    n, m = len(points[0]), len(points)
    # charged up front: eliminations on the n x m differences, basis rows and normals in n entries
    work = _charge(0, n * (m * min(n, m) + n))
    entry = int if all(isinstance(x, int) for p in points for x in p) else Fraction
    cleaned = sorted({tuple(entry(x) for x in p) for p in points})
    if any(len(p) != n for p in cleaned):
        raise DimensionMismatch("points of mixed dimension")
    if n == 0:
        raise InvalidDimension("ambient dimension must be positive")
    base = cleaned[0]
    diffs = [_vec_sub(p, base) for p in cleaned]
    basis_idx = intlinalg.pivot_columns(intlinalg.transpose(diffs))
    basis = [diffs[i] for i in basis_idx]
    axes = intlinalg.pivot_columns(basis)
    d = len(axes)
    coords = [tuple(diff[a] for a in axes) for diff in diffs]
    if entry is Fraction:
        scale = math.lcm(*(x.denominator for c in coords for x in c))
        coords = [tuple(x.numerator * (scale // x.denominator) for x in c) for c in coords]
    facets_aff = _hull_coords(coords, d, basis_idx, work)

    # vertices: points where the tight facet normals span the full affine
    # rank (d = 0: the one point, with no facets)
    verts = []
    for p, c in zip(cleaned, coords):
        tight = [n_aff for n_aff, b in facets_aff if _dot(n_aff, c) == b]
        if len(tight) >= d and intlinalg.rank(tight) == d:
            verts.append(p)
    if all(x.denominator == 1 for v in verts for x in v):
        verts = [tuple(int(x) for x in v) for v in verts]
    normals = [tuple(dict(zip(axes, n_aff)).get(k, 0) for k in range(n)) for n_aff, _b in facets_aff]
    facets = tuple(sorted((u, max(_dot(u, v) for v in verts)) for u in normals))
    return Polytope(n, tuple(verts), facets, d)


def convex_hull(points):
    """Polytope spanned by exact rational points (int, Fraction, or anything
    Fraction reads exactly); exact facet description.  The vertices are int
    tuples exactly when every vertex is integral, else Fraction tuples."""
    pts = list(points)
    if not pts:
        raise EmptyInput("no points given")
    return _build(pts)


def is_lattice(P):
    return all(Fraction(x).denominator == 1 for v in P.vertices for x in v)


def newton_polytope(p):
    """Convex hull of the exponent vectors of a nonzero Laurent polynomial."""
    if not p.terms:
        raise ZeroPolynomial("zero polynomial has no Newton polytope")
    return convex_hull(list(p.terms))


def minkowski_sum(P, Q):
    """Pointwise sum polytope; hull of pairwise vertex sums."""
    if P.dim_ambient != Q.dim_ambient:
        raise DimensionMismatch("ambient dimensions differ")
    return convex_hull([_vec_add(v, w) for v in P.vertices for w in Q.vertices])


def contains(P, x):
    """Exact membership of a rational point x: adding x to the vertices
    keeps their affine rank, and x meets every facet inequality."""
    if len(x) != P.dim_ambient:
        raise DimensionMismatch("point has wrong length")
    if _affine_rank(P.vertices + (tuple(x),)) != P.dim_affine:
        return False
    return all(_dot(normal, x) <= offset for normal, offset in P.facet_inequalities)


def supporting_vertices(P, w):
    """Max of the linear functional w over P and the vertices attaining it."""
    values = [_dot(w, v) for v in P.vertices]
    top = max(values)
    return top, tuple(v for v, val in zip(P.vertices, values) if val == top)


def tight_normals(P, x):
    """Facet normals whose inequality is tight at x."""
    return [normal for normal, offset in P.facet_inequalities if _dot(normal, x) == offset]


def canonical_form(P):
    """Vertex tuple of a Polytope or a Face with the lex-smallest vertex
    moved to the origin; equal exactly for translates."""
    base = P.vertices[0]
    return tuple(sorted(_vec_sub(v, base) for v in P.vertices))


def lattice_points(P):
    """All integer points of P, sorted, by a box scan over the axes a_i onto
    which P's affine hull projects one-to-one, the pivot columns of the vertex
    differences to v0 = P.vertices[0] (as in _build).  With M their reduced
    fraction-free rows and den the pivot, box point y lifts to the x with
    den·x = den·v0 + sum (y_i - v0[a_i])·M[i], kept if integral and inside P.
    Two points of the affine hull first differ at an axis, so the scan's
    order is already lexicographic."""
    v0 = P.vertices[0]
    M, axes, den, _sign, _scale = intlinalg._bareiss([_vec_sub(v, v0) for v in P.vertices[1:]])
    columns = list(zip(*P.vertices))
    ranges = [range(math.ceil(min(columns[a])), math.floor(max(columns[a])) + 1) for a in axes]
    if math.prod(map(len, ranges)) > LATTICE_POINT_CAP:
        raise ComplexityLimit("bounding box has more than %d candidates" % LATTICE_POINT_CAP)
    lift = [tuple(row[k] for row in M[: len(axes)]) for k in range(P.dim_ambient)]
    base = [den * x - _dot(col, (v0[a] for a in axes)) for x, col in zip(v0, lift)]
    points = []
    for y in product(*ranges):
        x = [b + _dot(col, y) for b, col in zip(base, lift)]
        if all(c % den == 0 for c in x):
            x = tuple(c // den for c in x)
            if all(_dot(normal, x) <= offset for normal, offset in P.facet_inequalities):
                points.append(x)
    return points


def _facet_vertex_sets(P):
    """The vertex indices on each facet, one frozenset per facet."""
    return [
        frozenset(i for i, v in enumerate(P.vertices) if _dot(normal, v) == offset)
        for normal, offset in P.facet_inequalities
    ]


# bounded, so a long-lived process does not keep every polytope it has seen
@lru_cache(maxsize=128)
def _face_sets(P):
    """All nonempty faces as frozensets of vertex indices, mapped to their dims."""
    verts = P.vertices
    tights = _facet_vertex_sets(P)
    everything = frozenset(range(len(verts)))
    closed = {everything}
    frontier = {everything}
    while frontier:
        fresh = set()
        for S in frontier:
            for T in tights:
                I = S & T
                if I and I not in closed:
                    fresh.add(I)
        closed |= fresh
        frontier = fresh
    return {S: _affine_rank([verts[i] for i in sorted(S)]) for S in closed}


def faces(P, d):
    """All faces of dimension d, the whole polytope included at d = dim."""
    if d < 0 or d > P.dim_affine:
        raise InvalidDimension("no faces of dimension %d" % d)
    result = []
    for S, dim in sorted(_face_sets(P).items(), key=lambda kv: sorted(kv[0])):
        if dim == d:
            idxs = tuple(sorted(S))
            result.append(Face(dim, idxs, tuple(P.vertices[i] for i in idxs)))
    return result


def edges(P):
    """faces(P, 1), read off the edge graph rather than the face lattice."""
    if P.dim_affine < 1:
        raise InvalidDimension("no faces of dimension 1")
    v = P.vertices
    return [Face(1, (i, j), (v[i], v[j])) for i, adj in enumerate(_edge_graph(P)) for j in adj if i < j]


def edge_lattice_length(e):
    """gcd of the coordinate differences of the edge endpoints."""
    if e.dim_affine != 1 or len(e.vertices) != 2:
        raise InvalidDimension("not an edge")
    a, b = e.vertices
    diffs = _vec_sub(b, a)
    if any(Fraction(x).denominator != 1 for x in diffs):
        raise NotLattice("edge endpoints are not lattice points")
    return math.gcd(*(int(x) for x in diffs))


def is_primitive(P):
    """True when every vertex is a primitive integer vector."""
    return is_lattice(P) and all(math.gcd(*v) == 1 for v in P.vertices)


def _angle_key_pairs(vectors):
    def cmp(u, v):
        hu = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
        hv = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
        if hu != hv:
            return hu - hv
        cr = u[0] * v[1] - u[1] * v[0]
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        return 0

    return sorted(vectors, key=functools.cmp_to_key(cmp))


def _is_minimal_zero_sum(part):
    m = len(part)
    if m < 2:
        return False
    for size in range(1, m // 2 + 1):
        for idxs in combinations(range(m), size):
            total = [0, 0]
            for i in idxs:
                total[0] += part[i][0]
                total[1] += part[i][1]
            if total == [0, 0]:
                return False
    return True


def _partitions_into_minimal(slots):
    if not slots:
        yield ()
        return
    first = slots[0]
    rest = slots[1:]
    seen = set()
    for size in range(0, len(rest) + 1):
        for idxs in combinations(range(len(rest)), size):
            part = tuple(sorted((first,) + tuple(rest[i] for i in idxs)))
            if part in seen:
                continue
            sx = sum(v[0] for v in part)
            sy = sum(v[1] for v in part)
            if sx != 0 or sy != 0:
                continue
            if not _is_minimal_zero_sum(part):
                continue
            seen.add(part)
            taken = set(idxs)
            remaining = tuple(rest[i] for i in range(len(rest)) if i not in taken)
            for tail in _partitions_into_minimal(remaining):
                yield (part,) + tail


def _frame_coords(points):
    """(U, U_inv, coords) for integer points: the lattice frame of their
    differences to points[0] and each point's integer coordinates in the
    saturated basis, the first r columns of U_inv."""
    diffs = [_vec_sub(p, points[0]) for p in points]
    U, U_inv, r = intlinalg.lattice_frame(diffs)
    return U, U_inv, [intlinalg.mat_vec(U[:r], diff) for diff in diffs]


def _summand_from_part(part, basis2, ambient_dim):
    """Rebuild the convex summand with the given primitive edge multiset and
    return it in ambient coordinates, translated canonically."""
    ordered = _angle_key_pairs(list(part))
    path = [(0, 0)]
    for v in ordered:
        path.append((path[-1][0] + v[0], path[-1][1] + v[1]))
    ambient = []
    for y in set(path):
        point = tuple(y[0] * basis2[0][k] + y[1] * basis2[1][k] for k in range(ambient_dim))
        ambient.append(point)
    base = min(ambient)
    return convex_hull([_vec_sub(p, base) for p in ambient])


def _polygon_edge_slots(P):
    """(slots, basis2) of a polygon, Polytope or Face: its primitive edge
    vectors, one per lattice step around its boundary, sorted, in the lattice
    basis basis2 of its plane.  ComplexityLimit above MAX_EDGE_SLOTS slots."""
    if P.dim_affine != 2:
        raise NotTwoDimensional("expected a polygon")
    _U, U_inv, coords = _frame_coords(P.vertices)
    basis2 = [tuple(row[j] for row in U_inv) for j in range(2)]
    cycle = [coords[i] for i in _hull_2d(coords)[0]]
    slots = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        ex, ey = b[0] - a[0], b[1] - a[1]
        g = math.gcd(abs(ex), abs(ey))
        slots.extend([(ex // g, ey // g)] * g)
    if len(slots) > MAX_EDGE_SLOTS:
        raise ComplexityLimit("polygon has more than %d primitive edge slots" % MAX_EDGE_SLOTS)
    return tuple(sorted(slots)), basis2


def polygon_minkowski_decompositions(P):
    """Every way to write the polygon or segment P, a Polytope or a Face, as
    a Minkowski sum of irreducible lattice polygons and segments, each with
    its least vertex at the origin: each minimal zero-sum part of the
    primitive edge vectors closes up into one summand."""
    if P.dim_affine not in (1, 2):
        raise NotTwoDimensional("expected a polygon or a segment")
    n = len(P.vertices[0])
    if P.dim_affine == 1:
        a, b = P.vertices
        direction = _vec_sub(b, a)
        g = math.gcd(*direction)
        unit = convex_hull([(0,) * n, tuple(x // g for x in direction)])
        return [tuple([unit] * g)]

    slots, basis2 = _polygon_edge_slots(P)
    decompositions = set()
    for partition in _partitions_into_minimal(slots):
        summands = tuple(
            sorted(
                (_summand_from_part(part, basis2, n) for part in partition),
                key=lambda Q: Q.vertices,
            )
        )
        decompositions.add(summands)
    return [list(dec) for dec in sorted(decompositions, key=lambda ds: [Q.vertices for Q in ds])]


def _edge_graph(P, tights=None):
    """Sorted neighbour list of every vertex.  Vertices i and j are adjacent
    when the facets through both meet the vertex set in exactly {i, j}; with
    no facet through both the meet is every vertex, {i, j} only for a segment.
    tights is _facet_vertex_sets(P), for a caller that already has it."""
    if tights is None:
        tights = _facet_vertex_sets(P)
    everything = frozenset(range(len(P.vertices)))
    neighbours = [[] for _ in everything]
    for i, j in combinations(everything, 2):
        face = everything
        for T in tights:
            if i in T and j in T:
                face &= T
        if len(face) == 2:
            neighbours[i].append(j)
            neighbours[j].append(i)
    return neighbours


def _vertex_colours(*polytopes):
    """Vertex colours of lattice polytopes, each given as (P, adj, tights)
    with adj = _edge_graph(P) and tights = _facet_vertex_sets(P).

    A vertex starts with its degree, the sorted lattice lengths of its edges
    and the sorted vertex counts of the facets through it; its colour is
    then twice refined by the sorted colours of its neighbours (Weisfeiler
    and Leman 1968).  Every unimodular affine map keeps these colours.  Each
    colour is an int label from one table shared by the polytopes given, so
    their colours compare directly and stay small however dense the edge
    graph.  Returns one colour list per polytope."""
    labels = {}

    def relabel(signatures):
        return [labels.setdefault(s, len(labels)) for s in signatures]

    colourings = []
    for P, adj, tights in polytopes:
        v = P.vertices
        facet_sizes = [[] for _ in v]
        for T in tights:
            for i in T:
                facet_sizes[i].append(len(T))
        lengths = [sorted(math.gcd(*_vec_sub(v[j], v[i])) for j in adj[i]) for i in range(len(v))]
        colourings.append(
            relabel((len(adj[i]), tuple(lengths[i]), tuple(sorted(facet_sizes[i]))) for i in range(len(v)))
        )
    for _ in range(2):
        colourings = [
            relabel((c, tuple(sorted(colours[j] for j in adj[i]))) for i, c in enumerate(colours))
            for colours, (_P, adj, _tights) in zip(colourings, polytopes)
        ]
    return colourings


def _distinct_choices(lists, chosen=()):
    """Every tuple taking entry r from lists[r], no entry twice, in product order."""
    if len(chosen) == len(lists):
        yield chosen
        return
    for k in lists[len(chosen)]:
        if k not in chosen:
            yield from _distinct_choices(lists, chosen + (k,))


def lattice_equivalence_candidates(P, Q):
    """Yield every unimodular (A, t) with A*P + t = Q as vertex sets.

    Both polytopes are read in their lattice frames, where they are
    full-dimensional in Z^d.  A lattice automorphism maps edges to edges and
    keeps the vertex colours of _vertex_colours, so P and Q must have the
    same colour multiset, and P's first vertex p0 with d of its neighbours
    spanning a frame V goes to a start w0 of Q of p0's colour and a tuple W
    of distinct neighbours of w0, the image of each frame neighbour taken
    from w0's neighbours of that neighbour's colour.  Each other vertex c of
    P then goes to w0 + W adj(V) c / det(V), which must be integral and a
    vertex of Q; only maps passing that for every vertex build
    A_d = W adj(V) / det(V) and must be integral with |det| = 1.  A_d lifts
    to A = U_Q^-1 diag(A_d, I) U_P.  For each w0 the maps come in the order
    of the Q indices of the images of P's first affine basis.
    ComplexityLimit, before any tuple is tried, past EQUIVALENCE_WORK_CAP:
    a start with k_c neighbours of colour c gives the product over colours
    of perm(k_c, m_c) tuples, m_c frame neighbours having colour c, and each
    tuple weighs n^3 (frames, lifts and the caller's check of each map are
    n x n work).  A polytope with a non-integer vertex yields nothing."""
    if P.dim_ambient != Q.dim_ambient or P.dim_affine != Q.dim_affine:
        return
    if len(P.vertices) != len(Q.vertices) or not (is_lattice(P) and is_lattice(Q)):
        return
    n = P.dim_ambient
    d = P.dim_affine
    if d == 0:
        yield intlinalg.identity(n), _vec_sub(Q.vertices[0], P.vertices[0])
        return
    P_tights, Q_tights = _facet_vertex_sets(P), _facet_vertex_sets(Q)
    P_adj, Q_adj = _edge_graph(P, P_tights), _edge_graph(Q, Q_tights)
    P_colour, Q_colour = _vertex_colours((P, P_adj, P_tights), (Q, Q_adj, Q_tights))
    if sorted(P_colour) != sorted(Q_colour):
        return
    # p0's neighbours are independent exactly when their lattice-frame
    # coordinates are, so the frame is picked, and the cap charged, before
    # any frame coordinates are built
    neighbours = [_vec_sub(P.vertices[j], P.vertices[0]) for j in P_adj[0]]
    frame = [P_adj[0][i] for i in intlinalg.pivot_columns(intlinalg.transpose(neighbours))]
    wanted = Counter(P_colour[j] for j in frame)
    starts = [k for k, colour in enumerate(Q_colour) if colour == P_colour[0]]
    tuples = 0
    for k0 in starts:
        have = Counter(Q_colour[k] for k in Q_adj[k0])
        tuples += math.prod(math.perm(have[c], m) for c, m in wanted.items())
    if tuples * n**3 > EQUIVALENCE_WORK_CAP:
        raise ComplexityLimit("equivalence scan needs over %d units of work" % EQUIVALENCE_WORK_CAP)
    U_P, _, coords_P = _frame_coords(P.vertices)
    _, U_Q_inv, coords_Q = _frame_coords(Q.vertices)
    V = [[coords_P[j][i] for j in frame] for i in range(d)]
    det_V = int(intlinalg.det(V))
    adj_V = [[int(x * det_V) for x in row] for row in intlinalg.matrix_inverse(V)]
    # c goes to w0 + W adj(V) c / det(V); with lam = adj(V) c, det(V) times
    # that image is sum(lam_r w_r) + (det(V) - sum(lam)) w0
    lams = [intlinalg.mat_vec(adj_V, coords_P[j]) for j in range(1, len(coords_P)) if j not in frame]
    rest = [(lam, det_V - sum(lam)) for lam in lams]
    basis_idx = intlinalg.pivot_columns(intlinalg.transpose(coords_P))
    Q_index = {c: k for k, c in enumerate(coords_Q)}
    scaled_Q = {tuple(det_V * x for x in c) for c in coords_Q}
    for k0 in starts:
        c0 = coords_Q[k0]
        found = {}
        candidates = [[k for k in Q_adj[k0] if Q_colour[k] == P_colour[j]] for j in frame]
        for images in _distinct_choices(candidates):
            ws = [coords_Q[k] for k in images]
            if not all(
                tuple(sum(l * w[i] for l, w in zip(lam, ws)) + s * c0[i] for i in range(d)) in scaled_Q
                for lam, s in rest
            ):
                continue
            A_d = intlinalg.mat_mul([[w[i] - c0[i] for w in ws] for i in range(d)], adj_V)
            if any(x % det_V for row in A_d for x in row):
                continue
            A_d = [[x // det_V for x in row] for row in A_d]
            if abs(intlinalg.det(A_d)) == 1:
                key = tuple(Q_index[_vec_add(intlinalg.mat_vec(A_d, coords_P[b]), c0)] for b in basis_idx)
                found[key] = A_d
        for key in sorted(found):
            block = [row + [0] * (n - d) for row in found[key]]
            block += [[int(i == j) for j in range(n)] for i in range(d, n)]
            A = intlinalg.mat_mul(intlinalg.mat_mul(U_Q_inv, block), U_P)
            yield A, _vec_sub(Q.vertices[k0], intlinalg.mat_vec(A, P.vertices[0]))


def lattice_equivalent(P, Q):
    """First unimodular map with A*P + t = Q, or None."""
    for A, t in lattice_equivalence_candidates(P, Q):
        return A, t
    return None


def _entry_to_json(x):
    frac = Fraction(x)
    if frac.denominator == 1:
        return int(frac)
    return str(frac)


def polytope_to_json(P):
    return {
        "dim": P.dim_ambient,
        "vertices": [[_entry_to_json(x) for x in v] for v in P.vertices],
    }


def polytope_from_json(data):
    verts = [tuple(intlinalg.rational(x) for x in v) for v in data["vertices"]]
    if not verts:
        raise EmptyInput("no vertices in JSON polytope")
    if any(len(v) != data["dim"] for v in verts):
        raise DimensionMismatch("vertex length disagrees with dim")
    return convex_hull(verts)
