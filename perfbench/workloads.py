"""Seeded inputs, expected outcomes and output checks for the benchmark.

A workload is an endless sequence of rounds.  Round r of a workload run
with seed s is built from random.Random(f"{workload}:{s}:{r}") alone, so
the same seed always gives the same operations.  Every round of a workload
has the same mix of operation kinds and input sizes (but for the first
Minkowski rounds, see MINKOWSKI_FIRST_ROUNDS); the seed only picks
the concrete inputs (shears, vertex sets, scales, factors) and the order.
That keeps the cost of a round nearly the same from seed to seed.

Each operation is a toriclg argv plus the exit code it must end with and a
check on the parsed JSON document.  Expected answers never come from the
code under test: periods are pinned data, polynomials built by exponent
maps are computed here, and negative cases are negative by construction.
"""

import functools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from toriclg import constructions, intlinalg, laurent, mutation

HERE = os.path.dirname(os.path.abspath(__file__))
CANON = ("x", "y", "z", "t")

with open(os.path.join(HERE, "periods.json")) as _handle:
    PINNED = json.load(_handle)

# catalog model -> family whose pinned sequence it shares
FAMILY = {v: fam for fam, entry in PINNED["models"].items() for v in entry["variants"]}


@dataclass(eq=False)
class Op:
    """One CLI call: argv may name files as "{key}"; files maps key -> text.

    needs is the index (within the round) of an earlier op whose output
    is written to the file named by the key "witness"; check returns None
    when the document is right, else a short reason.  The runner fills
    paths with the file each key names.
    """

    kind: str
    argv: list
    exit_code: int
    check: object
    files: dict = field(default_factory=dict)
    needs: int = None
    paths: dict = field(default_factory=dict)

    def describe(self):
        """Seed-determined description, independent of where files land."""
        return {"kind": self.kind, "argv": self.argv, "exit": self.exit_code, "files": self.files}


# ----------------------------------------------------------------- helpers


def unimodular(rng, n, steps):
    """Random unimodular matrix and its inverse: transvections, then a row
    permutation and row signs."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    Minv = [row[:] for row in M]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        M[i] = [a + s * b for a, b in zip(M[i], M[j])]
        for row in Minv:
            row[j] -= s * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    M = [[signs[k] * x for x in M[perm[k]]] for k in range(n)]
    Minv = [[row[perm[k]] * signs[k] for k in range(n)] for row in Minv]
    for i in range(n):
        for j in range(n):
            if sum(M[i][k] * Minv[k][j] for k in range(n)) != int(i == j):
                raise RuntimeError("unimodular generator produced a wrong inverse")
    return M, Minv


def transform(terms, M, shift=None, scales=None):
    """Exponent map e -> M e + shift with coefficient c * prod scales^e."""
    n = len(M)
    shift = shift or (0,) * n
    out = {}
    for e, c in terms.items():
        ne = tuple(sum(M[i][j] * e[j] for j in range(n)) + shift[i] for i in range(n))
        for s, k in zip(scales or (), e):
            c = c * Fraction(s) ** k
        out[ne] = Fraction(c)
    return out


def polymul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def affine_rank(points):
    points = list(points)
    return intlinalg.rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def text(terms, n):
    return laurent.format(laurent.LaurentPoly(CANON[:n], terms))


def cli_names(expr):
    """Variable order the CLI gives an expression: first appearance."""
    return laurent.parse(expr).var_names


def to_cli_order(names, matrix=None, vector=None):
    """Re-express a canonical-order matrix or vector in the CLI's order."""
    perm = [CANON.index(v) for v in names]
    if matrix is not None:
        return [[matrix[pi][pj] for pj in perm] for pi in perm]
    return [vector[p] for p in perm]


# ----------------------------------------------------------------- periods

@functools.lru_cache(maxsize=None)
def catalog_terms():
    return {name: dict(f.terms) for name, f in constructions.catalog().items()}


def _check_period(family, depth):
    want = PINNED["models"][family]["values"][: depth + 1]

    def check(doc):
        got = doc["payload"].get("values")
        if got != want:
            return "period sequence differs from the pinned %s values" % family
        return None

    return check


# depth per catalog model, 12 to 16.  The four-variable models cost about
# the same and each runs long enough to average out the host's speed
# changes, so the tail sits among them.  The p3 and quadric3 models fill the
# middle of the latency range; measured over ten seeds, the median latency
# varied less this way than with their depths spread from 12 to 16.
DEPTHS = {
    "cubic3.f0": 13, "cubic3.f1": 15,
    "cubic4.f00": 14, "cubic4.f10": 15, "cubic4.f11": 16,
    "p112.f": 13, "p112.fp": 15,
    "p114.f": 12, "p2.f": 16,
    "p3.f1": 16, "p3.f1p": 16, "p3.f1pp": 16, "p3.f2": 16, "p3.f3": 16,
    "quadric3.f0": 14, "quadric3.f1": 14,
}  # fmt: skip


def periods_round(rng, r):
    """Every catalog model once, under a fresh random shear."""
    ops = []
    cat = catalog_terms()
    for name in sorted(cat):
        terms = cat[name]
        n = len(next(iter(terms)))
        M, _ = unimodular(rng, n, rng.choice((1, 2)))
        expr = text(transform(terms, M), n)
        depth = DEPTHS[name]
        ops.append(Op("period", ["period", expr, "--n", str(depth)], 0, _check_period(FAMILY[name], depth)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- mutation

# catalog cluster chains that land exactly on another catalog entry
CHAINS = (
    ("quadric3.f0", ((1, -1, "x+1"),), "quadric3.f1"),
    ("cubic3.f0", ((2, -1, "x+y+1"),), "cubic3.f1"),
    ("cubic4.f00", ((2, -1, "x+y+1"), (3, -1, "x+y+1")), "cubic4.f11"),
    ("p3.f1pp", ((2, 1, "x+1"), (1, 1, "x+1")), "p3.f3"),
    ("p112.f", ((1, 1, "x+1"),), "p112.fp"),
)

# (dimension, vertex count) of the equivalence pairs in every round.  About
# half of a round's operations take under 30 ms and the rest over 60 ms.  Six
# negative 3-D pairs with 6 vertices (30-50 ms; a negative pair scans every
# candidate, so its cost varies less than a positive one's) fill the gap, so
# the median latency falls among many operations of one kind and size
# instead of jumping across the gap from seed to seed.
EQUIV_POSITIVE = ((3, 6), (3, 8), (3, 10), (4, 6), (4, 7))
EQUIV_NEGATIVE = ((3, 6),) * 6 + ((3, 7), (3, 8), (3, 10), (4, 6), (4, 7))
SPHERE_RADIUS2 = {3: 14, 4: 7}
SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(3, 2))
EQUIV_SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))
PERTURB = 7  # a prime no generated scale contains
CHAIN_DEPTHS = (1, 2, 3)
NOT_LAURENT_PER_ROUND = 3

WEIGHTED_PLANES = (
    {
        "polytope": {"dim": 2, "vertices": [[-1, 2], [1, 2], [0, -1]]},
        "r": [0, 1, 0],
        "s_matrix": [[1, 0, 0], [0, 1, 1]],
        "C1": [[-1, 1], [0, 1]],
        "C2": [["1/2", "1/2"]],
        "expected": {"dim": 2, "vertices": [[-1, 1], [0, 1], [1, -2]]},
    },
    {
        "polytope": {"dim": 2, "vertices": [[-1, 1], [1, 1], [0, -1]]},
        "r": [0, 1, 0],
        "s_matrix": [[1, 0, 0], [0, 1, 1]],
        "C1": [[-1, 1], [0, 1]],
        "C2": [[0, 1], [1, 1]],
        "expected": {"dim": 2, "vertices": [[-1, 1], [0, 1], [1, -1], [0, -1]]},
    },
)

_SPHERES = {}


def sphere_points(n):
    """Lattice points on a sphere: always in convex position."""
    if n not in _SPHERES:
        r2 = SPHERE_RADIUS2[n]
        bound = math.isqrt(r2)
        pts = []

        def rec(prefix, left):
            if len(prefix) == n:
                if left == 0:
                    pts.append(tuple(prefix))
                return
            for x in range(-bound, bound + 1):
                if x * x <= left:
                    rec(prefix + [x], left - x * x)

        rec([], r2)
        _SPHERES[n] = sorted(pts)
    return _SPHERES[n]


def _check_equiv_positive(a_expr, b_expr):
    def check(doc):
        payload = doc["payload"]
        if payload.get("equivalent") is not True:
            return "equivalent pair reported as inequivalent"
        names = list(laurent.parse(a_expr).var_names)
        names += [v for v in laurent.parse(b_expr).var_names if v not in names]
        a = laurent.parse(a_expr, tuple(names))
        b = laurent.parse(b_expr, tuple(names))
        step = mutation.steps_from_json([payload["witness"]], tuple(names))[0]
        if mutation.apply_toric(a, step) != b:
            return "witness does not map the first polynomial onto the second"
        return None

    return check


def _check_equiv_negative(doc):
    if doc["payload"] != {"equivalent": False}:
        return "inequivalent pair not reported as such"
    return None


def equiv_pair(rng, n, m, positive):
    """Vertex-sum polynomial A and a toric image B of it.

    Negative pairs multiply one coefficient of B by PERTURB at a vertex in
    the affine hull of the others.  Every toric image of A has coefficients
    k * tau^w, whose PERTURB-adic valuation is affine in w; the perturbed
    one is not, so no monomial change of variables can reach it.
    """
    points = sphere_points(n)
    while True:
        verts = rng.sample(points, m)
        if affine_rank(verts) != n:
            continue
        drop = rng.randrange(m)
        if positive or affine_rank(verts[:drop] + verts[drop + 1 :]) == n:
            break
    a_terms = {v: Fraction(1) for v in verts}
    M, _ = unimodular(rng, n, 2)
    shift = tuple(rng.randint(-2, 2) for _ in range(n))
    # mutation._solve_scales is slow on some 3-D pairs with 7 or more
    # vertices and scales other than signs (see README.md), so those get
    # sign scales and the other sizes get scales of height at most 2
    choices = (1, -1) if n == 3 and m >= 7 else EQUIV_SCALES
    scales = tuple(rng.choice(choices) for _ in range(n))
    b_terms = transform(a_terms, M, shift, scales)
    if not positive:
        target = transform({verts[drop]: 1}, M, shift)
        (key,) = target
        b_terms[key] *= PERTURB
    a_expr, b_expr = text(a_terms, n), text(b_terms, n)
    if positive:
        return Op("equiv", ["equiv", a_expr, b_expr], 0, _check_equiv_positive(a_expr, b_expr))
    return Op("equiv", ["equiv", a_expr, b_expr], 2, _check_equiv_negative)


def _toric_json(names, M, scales=None):
    n = len(M)
    scales = scales or (1,) * n
    return {
        "type": "toric",
        "A": to_cli_order(names, matrix=M),
        "shift": [0] * n,
        "scale": [str(Fraction(s)) for s in to_cli_order(names, vector=scales)],
    }


def _cluster_json(names, pivot, sign, factor):
    return {"type": "cluster", "pivot": names.index(CANON[pivot]), "sign": sign, "factor": factor}


def _check_mutate_ok(n, start_expr, expected_terms, stages):
    expected = laurent.LaurentPoly(CANON[:n], expected_terms)

    def check(doc):
        payload = doc["payload"]
        if payload.get("periods_equal") is not True:
            return "periods changed along a Laurent trace"
        if len(payload["intermediates"]) != stages:
            return "wrong number of intermediate stages"
        if laurent.parse(payload["intermediates"][0], CANON[:n]) != laurent.parse(start_expr, CANON[:n]):
            return "first stage is not the input"
        if laurent.parse(payload["result"], CANON[:n]) != expected:
            return "trace end differs from the known catalog image"
        return None

    return check


def _check_not_laurent(doc):
    if doc["payload"].get("error") != "NotLaurent":
        return "non-Laurent step not reported as NotLaurent"
    return None


def mutate_ok(rng, chain):
    """Sheared catalog model, undo the shear, run its known cluster chain,
    finish with a scaled toric change; the end is known exactly."""
    cat = catalog_terms()
    source, steps, target = chain
    terms = cat[source]
    n = len(next(iter(terms)))
    M, Minv = unimodular(rng, n, 2)
    U, _ = unimodular(rng, n, 1)
    scales = tuple(rng.choice(SCALES) for _ in range(n))
    start = text(transform(terms, M), n)
    names = cli_names(start)
    trace = [_toric_json(names, Minv)]
    trace += [_cluster_json(names, p, s, factor) for p, s, factor in steps]
    trace.append(_toric_json(names, U, scales))
    expected = transform(cat[target], U, scales=scales)
    check = _check_mutate_ok(n, start, expected, len(trace) + 1)
    return Op("mutate", ["mutate", start, "--trace", "{trace}"], 0, check, files={"trace": json.dumps(trace)})


def _not_laurent_steps(terms):
    """(pivot, sign) pairs whose cluster step must divide a one-term slice
    by a power of the factor; no factor with two or more terms divides a
    monomial, so such a step always leaves the Laurent ring."""
    n = len(next(iter(terms)))
    out = []
    for pivot in range(n):
        sizes = {}
        for e in terms:
            sizes[e[pivot]] = sizes.get(e[pivot], 0) + 1
        for sign in (1, -1):
            if any(size == 1 and -sign * k < 0 for k, size in sizes.items()):
                out.append((pivot, sign))
    return out


def mutate_not_laurent(rng):
    """Sheared catalog model whose trace ends in a step that cannot be Laurent."""
    cat = catalog_terms()
    name = rng.choice(sorted(m for m in cat if _not_laurent_steps(cat[m])))
    terms = cat[name]
    n = len(next(iter(terms)))
    pivot, sign = rng.choice(_not_laurent_steps(terms))
    others = [i for i in range(n) if i != pivot]
    factor = "+".join(CANON[i] for i in rng.sample(others, rng.randint(1, len(others)))) + "+1"
    M, Minv = unimodular(rng, n, 2)
    start = text(transform(terms, M), n)
    names = cli_names(start)
    trace = [_toric_json(names, Minv), _cluster_json(names, pivot, sign, factor)]
    return Op("mutate", ["mutate", start, "--trace", "{trace}"], 3, _check_not_laurent, files={"trace": json.dumps(trace)})


def markov_chain(depth):
    triple = (1, 1, 1)
    out = []
    for _ in range(depth):
        a, c, b = triple
        triple = tuple(sorted((a, b, 3 * a * b - c)))
        out.append(list(triple))
    return out


def _check_p2_chain(depth):
    want = [[1, 1, 1]] + markov_chain(depth)

    def check(doc):
        steps = doc["payload"]["steps"]
        if [s["triple"] for s in steps] != want:
            return "chain left the Markov sequence"
        for s in steps[1:]:
            if not (s["weights_ok"] and s["periods_equal"]):
                return "chain invariant failed"
            if s["weights"] != sorted(x * x for x in s["triple"]):
                return "triangle weights are not the squared triple"
        return None

    return check


def _check_iv(data):
    expected = {tuple(Fraction(x) for x in v) for v in data["expected"]["vertices"]}

    def check(doc):
        payload = doc["payload"]
        if payload.get("equivalent_to_expected") is not True:
            return "mutated polytope not equivalent to the expected one"
        A, t = payload["equivalence"]["A"], payload["equivalence"]["t"]
        if abs(A[0][0] * A[1][1] - A[0][1] * A[1][0]) != 1:
            return "equivalence matrix is not unimodular"
        image = {
            tuple(sum(A[i][j] * Fraction(v[j]) for j in range(2)) + t[i] for i in range(2))
            for v in payload["polytope"]["vertices"]
        }
        if image != expected:
            return "equivalence does not map the output onto the expected polytope"
        return None

    return check


def mutation_round(rng, r):
    ops = [equiv_pair(rng, n, m, True) for n, m in EQUIV_POSITIVE]
    ops += [equiv_pair(rng, n, m, False) for n, m in EQUIV_NEGATIVE]
    ops += [mutate_ok(rng, chain) for chain in CHAINS]
    ops += [mutate_not_laurent(rng) for _ in range(NOT_LAURENT_PER_ROUND)]
    ops += [Op("p2-chain", ["p2-chain", "--depth", str(d)], 0, _check_p2_chain(d)) for d in CHAIN_DEPTHS]
    ops += [Op("iv-mutate", ["iv-mutate", "{data}"], 0, _check_iv(d), files={"data": json.dumps(d)}) for d in WEIGHTED_PLANES]
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------- minkowski

# factor shapes of the searched products in every round, as (ambient
# dimension, factors): S is a unit segment, T a unimodular triangle.  Every
# product is full-dimensional, so dimension 4 means a partial presentation.
# The 2-D searches (15-75 ms) lie between the 2-D re-checks and perturbed
# products below them and the 3-D operations above.  The four 2-D ST
# searches and their re-checks (10-25 ms, for every seed) sit at the middle,
# so the median latency falls among many operations of like cost.  The 3-D
# ST and SSS searches (150-360 ms) and their re-checks cost about the same
# whatever factors the seed picks, so the tail latency falls among them.
MINKOWSKI_SHAPES = (
    (2, "ST"), (2, "ST"), (2, "ST"), (2, "ST"), (2, "TT"), (2, "TT"),
    (2, "SSS"), (2, "SST"), (2, "SST"), (2, "STT"), (2, "STT"), (2, "TTT"),
    (3, "ST"), (3, "SSS"),
)  # fmt: skip
# shapes multiplied by a squared unit segment and then perturbed
MINKOWSKI_NEGATIVE = ((2, "T"), (2, "ST"), (2, "TT"), (3, "T"))
# Searches and perturbed products whose cost depends most on the factors
# the seed picks run in the first MINKOWSKI_FIRST_ROUNDS rounds only: the
# 4-D search (0.8-1.2 s) and its re-check (0.5-0.8 s), the 3-D TT search
# (0.2-0.6 s), and the perturbed 3-D ST and TT products (0.02-1 s, as the
# search meets the perturbed edge early or late).  A run has the same
# number of them whatever its round count.  Spread over every round, they
# made up most of the operations near the tail, which then moved with the
# seed by a quarter.
MINKOWSKI_FIRST_ROUNDS = 2
MINKOWSKI_FIRST_SHAPES = ((4, "TT"), (3, "TT"))
MINKOWSKI_FIRST_NEGATIVE = ((3, "ST"), (3, "TT"))


def primitive_vector(rng, n):
    while True:
        v = tuple(rng.randint(-1, 1) for _ in range(n))
        if any(v) and math.gcd(*v) == 1:
            return v


def segment(rng, n, v=None):
    v = v or primitive_vector(rng, n)
    return {(0,) * n: Fraction(1), v: Fraction(1)}


def triangle(rng, n):
    """Unimodular triangle 0, u, v: the 2x2 minors of (u, v) have gcd 1."""
    while True:
        u, v = primitive_vector(rng, n), primitive_vector(rng, n)
        minors = [u[i] * v[j] - u[j] * v[i] for i in range(n) for j in range(i + 1, n)]
        if math.gcd(*minors) == 1:
            return {(0,) * n: Fraction(1), u: Fraction(1), v: Fraction(1)}


def product(rng, n, shape, squared=None):
    """Full-dimensional product of factors of the given shape, times the
    square of the unit segment [0, squared] when that is given."""
    while True:
        factors = [segment(rng, n) if kind == "S" else triangle(rng, n) for kind in shape]
        if squared is not None:
            factors += [segment(rng, n, squared)] * 2
        terms = {(0,) * n: Fraction(1)}
        for g in factors:
            terms = polymul(terms, g)
        if affine_rank(terms) == n:
            return terms, factors


def _minkowski_argv(terms, n):
    return ["verify-minkowski", "--poly", text(terms, n)] + (["--partial-ok"] if n == 4 else [])


def _check_search(partial):
    def check(doc):
        payload = doc["payload"]
        if payload.get("ok") is not True or payload.get("partial") is not partial:
            return "presentable product not presented"
        return None

    return check


def _check_recheck(doc):
    payload = doc["payload"]
    if payload.get("ok") is not True:
        return "re-checked witness rejected"
    if any(s not in ("ok", "skipped") for s in payload["faces"].values()):
        return "re-checked witness has a failed face"
    return None


def _check_not_presentable(doc):
    if doc["payload"] != {"found": False}:
        return "perturbed product reported presentable"
    return None


def minkowski_search(rng, n, shape):
    """A search and the later re-check of the witness it writes."""
    terms, _ = product(rng, n, shape)
    argv = _minkowski_argv(terms, n)
    search = Op("verify-minkowski", argv, 0, _check_search(n == 4))
    recheck = Op("verify-minkowski", argv + ["--presentation", "{witness}"], 0, _check_recheck)
    return search, recheck


def minkowski_negative(rng, n, shape):
    """A product with a squared unit segment [0, v] has an edge
    p + [0, 2v] whose midpoint coefficient must be C(2,1) = 2 in any
    presentation; it is raised to 3 here.  p is the sum of the top vertices
    of the other factors in a direction w orthogonal to v on which each of
    them has just one top vertex."""
    while True:
        v = primitive_vector(rng, n)
        terms, factors = product(rng, n, shape, squared=v)
        r = [rng.randint(-5, 5) for _ in range(n)]
        vv = sum(x * x for x in v)
        rv = sum(a * b for a, b in zip(r, v))
        w = [vv * a - rv * b for a, b in zip(r, v)]
        tops = []
        for g in factors[: len(shape)]:
            ranked = sorted(((sum(a * b for a, b in zip(w, e)), e) for e in g), reverse=True)
            if ranked[0][0] == ranked[1][0]:
                break
            tops.append(ranked[0][1])
        else:
            mid = tuple(sum(xs) + x for xs, x in zip(zip(*tops), v))
            if terms.get(mid) != 2:
                raise RuntimeError("edge midpoint coefficient is not 2")
            terms[mid] = Fraction(3)
            return Op("verify-minkowski", _minkowski_argv(terms, n), 2, _check_not_presentable)


def minkowski_round(rng, r):
    first = r < MINKOWSKI_FIRST_ROUNDS
    shapes = MINKOWSKI_SHAPES + (MINKOWSKI_FIRST_SHAPES if first else ())
    negative = MINKOWSKI_NEGATIVE + (MINKOWSKI_FIRST_NEGATIVE if first else ())
    pairs = [minkowski_search(rng, n, shape) for n, shape in shapes]
    ops = [search for search, _ in pairs]
    ops += [minkowski_negative(rng, n, shape) for n, shape in negative]
    rng.shuffle(ops)
    # each re-check goes somewhere after the search whose witness it reads
    for search, recheck in pairs:
        ops.insert(rng.randint(ops.index(search) + 1, len(ops)), recheck)
    for search, recheck in pairs:
        recheck.needs = ops.index(search)
    return ops


ROUNDS = {"periods": periods_round, "mutation": mutation_round, "minkowski": minkowski_round}


def make_round(workload, seed, r):
    rng = random.Random("%s:%d:%d" % (workload, seed, r))
    return ROUNDS[workload](rng, r)
