"""Cluster-type changes, monomial changes of variables, and equivalence
testing up to such monomial changes.

A cluster change rescales one variable by a power of a factor polynomial
in the remaining variables. Writing f as a sum of slices by the pivot
exponent k, the transformed polynomial is the sum of slice_k * factor^(-sign*k)
* pivot^k; divisions must be exact or the result is not Laurent.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import intlinalg, laurent, polytope
from .errors import ComplexityLimit, InvalidChange, NotDivisible, NotLaurent, NotUnimodular


@dataclass(frozen=True)
class ClusterChange:
    pivot: int
    sign: int
    factor: laurent.LaurentPoly

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidChange("sign must be +1 or -1")
        if not self.factor.terms:
            raise InvalidChange("factor must be nonzero")
        if 0 <= self.pivot < self.factor.nvars:
            if any(e[self.pivot] != 0 for e in self.factor.terms):
                raise InvalidChange("factor must not involve the pivot variable")


@dataclass(frozen=True)
class ToricChange:
    matrix: tuple
    shift: tuple
    scale: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InvalidChange("matrix must be square")
        if n**3 > polytope.EQUIVALENCE_WORK_CAP:
            raise ComplexityLimit("a change of %d variables is past the equivalence work cap" % n)
        if abs(intlinalg.det([list(r) for r in rows])) != 1:
            raise NotUnimodular("matrix determinant must be +-1")
        shift = tuple(int(x) for x in (self.shift if self.shift is not None else (0,) * n))
        if len(shift) != n:
            raise InvalidChange("shift has wrong length")
        object.__setattr__(self, "shift", shift)
        scale = tuple(intlinalg.rational(x) for x in (self.scale if self.scale is not None else (1,) * n))
        if len(scale) != n or any(s == 0 for s in scale):
            raise InvalidChange("scale needs one nonzero rational per variable")
        object.__setattr__(self, "scale", scale)


def identity_toric(n):
    return ToricChange(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), (0,) * n, (1,) * n)


def apply_cluster(f, change):
    """Transformed polynomial, or NotLaurent when a slice division is inexact."""
    if not 0 <= change.pivot < f.nvars:
        raise InvalidChange("pivot index out of range for this polynomial")
    if change.factor.var_names != f.var_names:
        raise InvalidChange("factor is over different variables")
    pivot = change.pivot
    slices = {}
    for e, c in f.terms.items():
        slices.setdefault(e[pivot], {})[e[:pivot] + (0,) + e[pivot + 1 :]] = c
    # neither a slice nor the factor involves the pivot, so slice k's image
    # is the only one at pivot exponent k and the images never overlap
    result = {}
    powers = [laurent.one(f.var_names)]
    for k, terms in sorted(slices.items()):
        part = laurent._trusted(f.var_names, terms)
        exponent = -change.sign * k
        while len(powers) <= abs(exponent):
            powers.append(laurent.mul(powers[-1], change.factor))
        power = powers[abs(exponent)]
        if exponent >= 0:
            part = laurent.mul(part, power)
        else:
            try:
                part = laurent.exact_divide(part, power)
            except NotDivisible as err:
                raise NotLaurent("cluster change leaves the Laurent ring: %s" % err) from err
        result.update((e[:pivot] + (k,) + e[pivot + 1 :], c) for e, c in part.terms.items())
    return laurent._trusted(f.var_names, result)


def apply_toric(f, change):
    return laurent.monomial_substitute(
        f, [list(row) for row in change.matrix], change.shift, change.scale
    )


def apply_step(f, step):
    if isinstance(step, ClusterChange):
        return apply_cluster(f, step)
    if isinstance(step, ToricChange):
        return apply_toric(f, step)
    raise InvalidChange("unknown step type %r" % type(step).__name__)


def apply_steps(start, steps):
    """Every stage of applying the steps in turn to start, the start
    included; a step leaving the Laurent ring raises NotLaurent naming it."""
    stages = [start]
    for idx, step in enumerate(steps):
        try:
            stages.append(apply_step(stages[-1], step))
        except NotLaurent as err:
            raise NotLaurent("step %d failed: %s" % (idx, err)) from err
    return stages


def _solve_scales(f, g, A, t):
    """Per-variable scalings making exponent map e -> A e + t carry f onto g,
    or None.

    Term e asks prod_j s_j^e_j = r_e.  Independent exponent rows, put in a
    unimodular frame when they do not span (the frame's free coordinates
    are then 1), form a square H; each scale's magnitude is one exact
    |det H|-th root of a product of powers of the |r_e|.  The signs solve
    every term's parity equation over GF(2).  Every term is checked last.
    """
    n = f.nvars
    image = {}
    for e, c in f.terms.items():
        target = tuple(sum(A[i][j] * e[j] for j in range(n)) + t[i] for i in range(n))
        image[target] = (e, c)
    if set(image) != set(g.terms):
        return None
    exponents = []
    ratios = []
    for target in sorted(image):
        e, c = image[target]
        exponents.append(list(e))
        ratios.append(Fraction(g.terms[target], c))
    rows = intlinalg.pivot_columns(intlinalg.transpose(exponents))
    k = len(rows)
    B = [exponents[i] for i in rows]
    frame = intlinalg.lattice_frame(B)[0][:k] if 0 < k < n else intlinalg.identity(n)[:k]
    H = [intlinalg.mat_vec(frame, b) for b in B]
    D = abs(intlinalg.det(H))
    z = []
    for row in intlinalg.matrix_inverse(H):
        power = math.prod(abs(ratios[i]) ** int(D * x) for i, x in zip(rows, row) if x)
        root = intlinalg.nth_root_fraction(power, int(D))
        if root is None:
            return None
        z.append(root)
    # a row's bits are e mod 2 and, as bit n, [r_e < 0]; its lowest bit pivots
    basis = []
    for e, r in zip(exponents, ratios):
        row = sum(1 << j for j in range(n) if e[j] % 2) | (r < 0) << n
        for b in basis:
            if row & b & -b:
                row ^= b
        if row == 1 << n:
            return None
        if row:
            basis.append(row)
    signs = 0
    for b in reversed(basis):
        if (b & (signs | 1 << n)).bit_count() % 2:
            signs |= b & -b
    magnitudes = [math.prod(intlinalg.rational_power(x, u[j]) for x, u in zip(z, frame) if u[j]) for j in range(n)]
    scales = tuple(intlinalg.rational(-x if signs >> j & 1 else x) for j, x in enumerate(magnitudes))
    for e, c in f.terms.items():
        target = tuple(sum(A[i][j] * e[j] for j in range(n)) + t[i] for i in range(n))
        value = c
        for j in range(n):
            if e[j]:
                value *= intlinalg.rational_power(scales[j], e[j])
        if g.terms[target] != value:
            return None
    return scales


def equivalent_up_to_toric(f, g):
    """Monomial change of variables carrying f onto g term by term, or None.

    Candidate exponent maps come from lattice equivalences of the Newton
    polytopes; the coefficient scalings are then solved exactly. Scalings
    are restricted to rationals.
    """
    if f.nvars != g.nvars:
        return None
    if f == g:
        return identity_toric(f.nvars)
    if not f.terms or not g.terms:
        return None
    P = polytope.newton_polytope(f)
    Q = polytope.newton_polytope(g)
    for A, t in polytope.lattice_equivalence_candidates(P, Q):
        scales = _solve_scales(f, g, A, t)
        if scales is not None:
            return ToricChange(tuple(tuple(row) for row in A), t, scales)
    return None


def steps_to_json(steps):
    out = []
    for step in steps:
        if isinstance(step, ClusterChange):
            out.append(
                {
                    "type": "cluster",
                    "pivot": step.pivot,
                    "sign": step.sign,
                    "factor": laurent.format(step.factor),
                }
            )
        elif isinstance(step, ToricChange):
            out.append(
                {
                    "type": "toric",
                    "A": [list(row) for row in step.matrix],
                    "shift": list(step.shift),
                    "scale": [str(s) for s in step.scale],
                }
            )
        else:
            raise InvalidChange("unknown step type %r" % type(step).__name__)
    return out


def steps_from_json(data, var_names):
    """Steps from their JSON form; InvalidChange when the trace is malformed."""
    if not isinstance(data, list) or not all(isinstance(entry, dict) for entry in data):
        raise InvalidChange("a trace must be a JSON list of step objects")
    steps = []
    for idx, entry in enumerate(data):
        kind = entry.get("type")
        try:
            if kind == "cluster":
                factor = laurent.parse(entry["factor"], var_names)
                steps.append(ClusterChange(intlinalg.exact_int(entry["pivot"]), intlinalg.exact_int(entry["sign"]), factor))
            elif kind == "toric":
                matrix = tuple(tuple(intlinalg.exact_int(x) for x in row) for row in entry["A"])
                shift = tuple(intlinalg.exact_int(x) for x in entry.get("shift", (0,) * len(matrix)))
                scale = tuple(Fraction(s) for s in entry.get("scale", (1,) * len(matrix)))
                steps.append(ToricChange(matrix, shift, scale))
            else:
                raise InvalidChange("unknown step type %r" % kind)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as err:
            raise InvalidChange("step %d is malformed: %s" % (idx, err)) from err
    return steps
