"""Constant-term sequences of powers of a Laurent polynomial.

period_sequence is the fast path. It builds the powers of f only up to
M = ceil(N/2), one multiplication at a time on plain ints, and reads each
a_j as a pairing across the origin, a_{j+k} = sum_e [f^j]_e [f^k]_{-e}:
power i gives a_{2i-1} with power i - 1 and a_{2i} with itself. It drops
every term of a power that can no longer meet a partner term.
period_oracle is the same quantity by full Fraction expansion, kept as an
independent check.

The prune polytope is Q = conv(supp(f) ∪ {0}). A term e of f^i reaches
a_j only through a term e + s_1 + ... + s_(k-i) of a power k <= M, paired
with a term of f^(j-k), so -e is a sum of j - i <= N - i exponents of f:
-e lies in (N - i)·Q. Q holds the origin, hence k·Q ⊆ (k + 1)·Q, and one
test against (N - i)·Q covers every later pairing. The Newton polytope of
f has nested dilates only when it holds the origin, which is why the
origin is added. Q is built in every dimension: one prune path.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg

from . import laurent, polytope
from .errors import ComplexityLimit, ZeroPolynomial

# term pairs multiplied plus term-cut tests made in one period_sequence run
PERIOD_WORK_CAP = 3_000_000


@dataclass(frozen=True)
class PeriodSequence:
    values: tuple

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _check_input(f, N):
    if not f.terms:
        raise ZeroPolynomial("period sequence needs a nonzero polynomial")
    if N < 0:
        raise ValueError("N must be nonnegative")


def _prune_cuts(f):
    """Facet inequalities (a, b), meaning a·x <= b, of the prune polytope
    Q = conv(supp(f) ∪ {0}). Q holds the origin, so its affine hull is a
    linear span, and every exponent of every power of f lies in it; within
    that span, where Q is bounded, the facets alone cut out Q, so no
    equality is tested. The hull is built in any number of variables and
    raises ComplexityLimit past polytope.HULL_WORK_CAP; a constant in no
    variables has nothing to prune and gets no cuts.
    """
    n = f.nvars
    if n == 0:
        return []
    return list(polytope.convex_hull(list(f.terms) + [(0,) * n]).facet_inequalities)


def _charge(work, units):
    """work + units, or ComplexityLimit when that passes PERIOD_WORK_CAP."""
    work += units
    if work > PERIOD_WORK_CAP:
        raise ComplexityLimit("a period sequence needs over %d term pairs and term-cut tests" % PERIOD_WORK_CAP)
    return work


def _pairing(p, q):
    """sum_e p[e]·q[-e]."""
    return sum(c * q.get(tuple(map(neg, e)), 0) for e, c in p.items())


def period_sequence(f, N):
    """a_0..a_N with a_i the constant term of f^i.

    The loop runs on g = L·f, where L is the lcm of the coefficient
    denominators, so every coefficient is an int, and it returns
    a_i = [g^i]_0 / L^i. Only the powers g^i with i <= M = ceil(N/2) are
    built, and only the current one and the one before it are kept:
    a_{2i-1} pairs g^i with g^(i-1), and a_{2i} (for 2i <= N) pairs g^i
    with itself. After step i < M a term e is kept only while -e lies in
    (N - i)·Q, one dot-product test per cut from _prune_cuts:
    a·(-e) <= (N - i)·b. Dropped terms meet no partner term, so the
    pruned and full computations agree; the last power pairs without a
    prune. The run charges each step's term pairs before its product and
    each prune's term-cut tests before the prune, and raises
    ComplexityLimit once the total would pass PERIOD_WORK_CAP.
    """
    _check_input(f, N)
    n = f.nvars
    L = math.lcm(*(c.denominator for c in f.terms.values()))
    terms = [(s, int(c * L)) for s, c in f.terms.items()]
    cuts = _prune_cuts(f)
    M = (N + 1) // 2
    raw = [1] + [0] * N
    power = {(0,) * n: 1}
    work = 0
    for i in range(1, M + 1):
        work = _charge(work, len(power) * len(terms))
        produced = {}
        for e, c in power.items():
            for s, d in terms:
                key = tuple(map(add, e, s))
                produced[key] = produced.get(key, 0) + c * d
        if i < M:
            work = _charge(work, len(produced) * len(cuts))
            remaining = N - i
            produced = {
                e: c
                for e, c in produced.items()
                if c and all(sum(map(mul, a, e)) + remaining * b >= 0 for a, b in cuts)
            }
        raw[2 * i - 1] = _pairing(power, produced)
        if 2 * i <= N:
            raw[2 * i] = _pairing(produced, produced)
        power = produced
    return PeriodSequence(tuple(Fraction(r, L**i) for i, r in enumerate(raw)))


def period_oracle(f, N):
    """Same sequence by unpruned full expansion; test reference path."""
    _check_input(f, N)
    values = [Fraction(1)]
    power = laurent.one(f.var_names)
    for _ in range(N):
        power = laurent.mul(power, f)
        values.append(laurent.constant_term(power))
    return PeriodSequence(tuple(values))


def periods_equal(f, g, N):
    """Exact equality of the two constant-term sequences up to order N."""
    return period_sequence(f, N).values == period_sequence(g, N).values
