"""Constant-term sequences of powers of a Laurent polynomial.

period_sequence is the fast path. It accumulates the powers of f one
multiplication at a time on plain ints, and it drops every term of the
running power that the remaining multiplications can no longer bring back
to the origin. period_oracle is the same quantity by full Fraction
expansion, kept as an independent check.

The prune polytope is Q = conv(supp(f) ∪ {0}). A term e of f^i can reach
the constant term of f^j only if -e is a sum of j - i exponents of f, so
only if -e lies in (j - i)·Q. Q holds the origin, hence k·Q ⊆ (k + 1)·Q,
and one test against (N - i)·Q covers every a_j with i < j <= N: a term
with -e outside it is useless for all of them. The Newton polytope of f
has nested dilates only when it holds the origin, which is why the
origin is added. Q is built in every dimension: one prune path.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from . import laurent, polytope
from .errors import ComplexityLimit, ZeroPolynomial


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
    """Inequalities (a, b), meaning a·x <= b, that cut out the prune polytope
    Q = conv(supp(f) ∪ {0}): its facet list, and each affine equality
    a·x = b of Q as the pair a·x <= b, -a·x <= -b, so the cuts describe Q
    itself when it is lower-dimensional. The hull is built in any number of
    variables and raises ComplexityLimit past polytope.HULL_WORK_CAP; a
    constant in no variables has nothing to prune and gets no cuts.
    """
    n = f.nvars
    if n == 0:
        return []
    Q = polytope.convex_hull(list(f.terms) + [(0,) * n])
    cuts = list(Q.facet_inequalities)
    for a, b in Q.affine_equalities:
        cuts += [(a, b), (tuple(-x for x in a), -b)]
    return cuts


def period_sequence(f, N):
    """a_0..a_N with a_i the constant term of f^i.

    The loop runs on g = L·f, where L is the lcm of the coefficient
    denominators, so every coefficient is an int, and it returns
    a_i = [g^i]_0 / L^i. After step i a term e of the running power is kept
    only while -e lies in (N - i)·Q, one dot-product test per cut from
    _prune_cuts: a·(-e) <= (N - i)·b. Dropped terms cannot contribute to
    any later constant term, so the pruned and full computations agree.
    Like laurent.mul, a step of more than laurent.MUL_TERM_PAIR_CAP term
    pairs raises ComplexityLimit, and so does a prune of more terms x cuts.
    """
    _check_input(f, N)
    n = f.nvars
    L = math.lcm(*(c.denominator for c in f.terms.values()))
    terms = [(s, int(c * L)) for s, c in f.terms.items()]
    cuts = _prune_cuts(f)
    origin = (0,) * n
    values = [Fraction(1)]
    power = {origin: 1}
    for i in range(1, N + 1):
        if len(power) * len(terms) > laurent.MUL_TERM_PAIR_CAP:
            raise ComplexityLimit("a period step exceeds the cap of %d term pairs" % laurent.MUL_TERM_PAIR_CAP)
        produced = {}
        for e, c in power.items():
            for s, d in terms:
                key = tuple(map(add, e, s))
                produced[key] = produced.get(key, 0) + c * d
        if len(produced) * len(cuts) > laurent.MUL_TERM_PAIR_CAP:
            raise ComplexityLimit("a period prune exceeds the cap of %d term-cut tests" % laurent.MUL_TERM_PAIR_CAP)
        remaining = N - i
        power = {
            e: c
            for e, c in produced.items()
            if c and all(sum(map(mul, a, e)) + remaining * b >= 0 for a, b in cuts)
        }
        values.append(Fraction(produced.get(origin, 0), L**i))
    return PeriodSequence(tuple(values))


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
