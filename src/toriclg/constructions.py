"""Model builders and the named polynomial catalog.

Three families live here: Hori-Vafa polynomials for complete
intersections in projective space, Markov triples with their
elementary transforms, and the weighted-plane mutation step that moves
one slot of a Markov triple while transporting the polynomial model.
catalog() collects the fixed polynomials the test suite and CLI refer
to by name.
"""

import functools
import math
from dataclasses import dataclass

from . import intlinalg, laurent, mutation, polytope
from .errors import ComplexityLimit, CoordinateSearchFailed, NotFano, NotMarkov, NotWeightedTriangle

# depth d holds 2^(d-1) + 1 triples and their entries grow without bound,
# so the tree stops well before its output reaches gigabytes (depth 14 fits)
MARKOV_TRIPLE_CAP = 10_000
# each variable is added to the model with exponents as long as the
# variable count, so time and memory grow with the square of that count
HORI_VAFA_VARIABLE_CAP = 200
# lattice points of a weighted-plane step's result triangle, which bound its
# term count; p2-chain --depth 6 needs 31,268, slot 0 at (1, 13, 34) 879,162
GALKIN_LATTICE_POINT_CAP = 100_000

_VAR_POOL = ("x", "y", "z", "t", "u", "v")


def variable_names(n):
    """Default variable names: x,y,z,t,u,v for small n, else x1..xn."""
    if n <= len(_VAR_POOL):
        return _VAR_POOL[:n]
    return tuple("x%d" % (i + 1) for i in range(n))


@dataclass(frozen=True)
class CompleteIntersectionSpec:
    """Intersection of hypersurfaces of the given degrees in projective
    space of dimension ambient_dim.  degrees may be empty (the space
    itself); each listed degree must be at least 2."""

    ambient_dim: int
    degrees: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        N = self.ambient_dim
        if not isinstance(N, int) or N < 1:
            raise ValueError("ambient dimension must be a positive integer")
        for d in self.degrees:
            if d < 2:
                raise ValueError("each degree must be at least 2, got %d" % d)
        if N - len(self.degrees) < 1:
            raise ValueError("too many hypersurfaces for the ambient dimension")

    @property
    def dim(self):
        return self.ambient_dim - len(self.degrees)

    @property
    def index(self):
        """Degree of the residual hyperplane factor; positive iff Fano."""
        return self.ambient_dim + 1 - sum(self.degrees)


def hori_vafa(spec):
    """Torus-chart model for a Fano complete intersection.

    One block of d_j - 1 variables per hypersurface and index - 1 free
    variables; the product of (block sum + 1)^d_j is divided by the
    product of all variables and the free variables are added.  Raises
    NotFano when the index is not positive, ComplexityLimit above
    HORI_VAFA_VARIABLE_CAP variables.
    """
    d0 = spec.index
    if d0 < 1:
        raise NotFano("index %d is not positive" % d0)
    n = spec.dim
    if n > HORI_VAFA_VARIABLE_CAP:
        raise ComplexityLimit("model has %d variables, more than %d" % (n, HORI_VAFA_VARIABLE_CAP))
    names = variable_names(n)
    f = laurent.one(names)
    pos = 0
    for d in spec.degrees:
        factor = laurent.one(names)
        for i in range(pos, pos + d - 1):
            factor = laurent.add(factor, laurent.variable(names, i))
        f = laurent.mul(f, laurent.pow(factor, d))
        pos += d - 1
    f = laurent.mul(f, laurent.monomial(names, tuple(-1 for _ in names)))
    for i in range(pos, n):
        f = laurent.add(f, laurent.variable(names, i))
    return f


@dataclass(frozen=True)
class MarkovTriple:
    """Sorted positive solution of a^2 + b^2 + c^2 = 3abc."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        vals = (self.a, self.b, self.c)
        for v in vals:
            if not isinstance(v, int) or v < 1:
                raise NotMarkov("entries must be positive integers, got %r" % (vals,))
        a, b, c = sorted(vals)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if a * a + b * b + c * c != 3 * a * b * c:
            raise NotMarkov("%r does not solve the Markov equation" % (vals,))

    def as_tuple(self):
        return (self.a, self.b, self.c)

    def weights(self):
        """Squared entries: the fan-triangle weights attached to the triple."""
        return (self.a * self.a, self.b * self.b, self.c * self.c)


def markov_children(t):
    """Triples reachable from t by one elementary transform, minus t itself.

    The transform replaces one entry by three times the product of the
    other two minus that entry; the result is always another triple.
    """
    vals = t.as_tuple()
    out = set()
    for slot in range(3):
        others = [vals[i] for i in range(3) if i != slot]
        new = 3 * others[0] * others[1] - vals[slot]
        if new < 1:
            continue
        child = MarkovTriple(others[0], others[1], new)
        if child != t:
            out.add(child)
    return out


def markov_tree(depth):
    """All triples within the given number of elementary transforms of (1,1,1).

    Raises ComplexityLimit once more than MARKOV_TRIPLE_CAP triples are found.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    root = MarkovTriple(1, 1, 1)
    seen = {root}
    frontier = [root]
    for _ in range(depth):
        step = []
        for t in frontier:
            for child in markov_children(t):
                if child not in seen:
                    seen.add(child)
                    step.append(child)
                    if len(seen) > MARKOV_TRIPLE_CAP:
                        raise ComplexityLimit("more than %d Markov triples" % MARKOV_TRIPLE_CAP)
        frontier = step
    return seen


def triangle_weights(P):
    """Positive primitive relation on the vertices of a lattice triangle.

    The triangle must be two-dimensional with exactly three primitive
    vertices and the origin strictly inside; returns the weight of each
    vertex in P.vertices order.
    """
    if P.dim_affine != 2 or len(P.vertices) != 3:
        raise NotWeightedTriangle("need a two-dimensional triangle, got %d vertices in dimension %d"
                                  % (len(P.vertices), P.dim_affine))
    if not polytope.is_primitive(P):
        raise NotWeightedTriangle("vertices are not primitive lattice vectors")
    v1, v2, v3 = P.vertices
    kernel = intlinalg.kernel_rays(list(zip(v1, v2, v3)), 3)
    if len(kernel) != 1:
        raise NotWeightedTriangle("vertices admit no one-dimensional relation")
    w = list(kernel[0])
    if any(x < 0 for x in w):
        w = [-x for x in w]
    if any(x <= 0 for x in w):
        raise NotWeightedTriangle("origin is not strictly inside the triangle")
    return tuple(w)


def galkin_mutate(f, triple, slot):
    """One weighted-plane mutation step on a two-variable model.

    f must have a primitive triangle as Newton polytope whose vertex
    weights are the squares of the triple's entries.  The entry at the
    chosen slot is replaced by the elementary transform of the other
    two; returns (new polynomial, new triple).  The coordinate search
    picks the smallest admissible exponent d and the lexicographically
    least change-of-basis matrix.  ComplexityLimit, before the cluster
    step, when the result triangle has over GALKIN_LATTICE_POINT_CAP
    lattice points.
    """
    if len(f.var_names) != 2:
        raise NotWeightedTriangle("need a polynomial in two variables, got %d" % len(f.var_names))
    if slot not in (0, 1, 2):
        raise ValueError("slot must be 0, 1, or 2")
    vals = triple.as_tuple()
    c = vals[slot]
    a, b = sorted(vals[i] for i in range(3) if i != slot)
    P = polytope.newton_polytope(f)
    weights = triangle_weights(P)
    if sorted(weights) != sorted(triple.weights()):
        raise NotWeightedTriangle("vertex weights %s do not match triple %s"
                                  % (sorted(weights), vals))
    d = None
    for cand in range(c, 2 * c):
        if (3 * a * cand - b) % c == 0:
            d = cand
            break
    if d is None:
        raise CoordinateSearchFailed("no admissible exponent for slot value %d" % c)
    m = 3 * a * b - c
    third_num = d * m - b * b
    if third_num % c != 0:
        raise CoordinateSearchFailed("third vertex target is not integral")
    x0 = -(third_num // c)
    # the cluster step shrinks the target's top edge to its end (d - c, c)
    # and stretches its bottom vertex (x0, -m) to the edge ending at
    # (x0 + m, -m); Pick's theorem counts that triangle's lattice points
    top = d - c - x0
    boundary = m + math.gcd(top, c + m) + math.gcd(top - m, c + m)
    points = (m * (c + m) + boundary) // 2 + 1
    if points > GALKIN_LATTICE_POINT_CAP:
        raise ComplexityLimit("the step's result triangle has %d lattice points, more than %d"
                              % (points, GALKIN_LATTICE_POINT_CAP))
    target = polytope.convex_hull([(d, c), (d - c, c), (x0, -m)])
    linear = [A for A, t in polytope.lattice_equivalence_candidates(P, target) if t == (0, 0)]
    if not linear:
        raise CoordinateSearchFailed("no unimodular map onto the target triangle")
    skewed = laurent.monomial_substitute(f, min(linear))
    factor = laurent.add(laurent.variable(f.var_names, 0), laurent.one(f.var_names))
    g = mutation.apply_cluster(skewed, mutation.ClusterChange(1, 1, factor))
    new_triple = MarkovTriple(a, b, m)
    new_weights = triangle_weights(polytope.newton_polytope(g))
    if sorted(new_weights) != sorted(new_triple.weights()):
        raise CoordinateSearchFailed("mutation produced weights %s, expected %s"
                                     % (sorted(new_weights), sorted(new_triple.weights())))
    return g, new_triple


_CATALOG_SOURCES = (
    ("p2.f", "x + y + 1/(x*y)", ("x", "y")),
    ("quadric3.f0", "(x+1)^2/(x*y*z) + y + z", ("x", "y", "z")),
    ("quadric3.f1", "(x+1)/(x*y*z) + y*(x+1) + z", ("x", "y", "z")),
    ("cubic3.f0", "(x+y+1)^3/(x*y*z) + z", ("x", "y", "z")),
    ("cubic3.f1", "(x+y+1)^2/(x*y*z) + z*(x+y+1)", ("x", "y", "z")),
    ("cubic4.f00", "(x+y+1)^3/(x*y*z*t) + z + t", ("x", "y", "z", "t")),
    ("cubic4.f10", "(x+y+1)^2/(x*y*z*t) + z*(x+y+1) + t", ("x", "y", "z", "t")),
    ("cubic4.f11", "(x+y+1)/(x*y*z*t) + z*(x+y+1) + t*(x+y+1)", ("x", "y", "z", "t")),
    ("p3.f1", "x + y + z + 1/(x*y*z)", ("x", "y", "z")),
    ("p3.f2", "x + y/x + z/x + 1/(x*y) + 1/(x*z)", ("x", "y", "z")),
    ("p3.f3", "(x+1)^2/(x*y*z) + y/z + z", ("x", "y", "z")),
    ("p3.f1p", "z*(x+1) + y + 1/(x*y*z^2)", ("x", "y", "z")),
    ("p3.f1pp", "z*(x+1) + y/z + 1/(x*y*z)", ("x", "y", "z")),
    ("p112.f", "(x+1)^2*y/x + 1/y", ("x", "y")),
    ("p112.fp", "(x+1)*y/x + (x+1)/y", ("x", "y")),
    ("p114.f", "(x+1)^2*y^2/x + 1/y", ("x", "y")),
)


@functools.lru_cache(maxsize=1)
def _parsed_catalog():
    return tuple((name, laurent.parse(expr, names)) for name, expr, names in _CATALOG_SOURCES)


def catalog():
    """Named polynomials from the worked examples, parsed once per process;
    each call returns a fresh dict.

    Keys are model.variant; the p3 entries f1p and f1pp are the two
    rewritten forms of f1 used as inputs of the cluster step.
    """
    return dict(_parsed_catalog())
