"""Sparse Laurent polynomials with exact rational coefficients.

A polynomial is a map from integer exponent tuples to nonzero
coefficients, together with an ordered tuple of variable names.  A
coefficient is an int exactly when it is integral, else a Fraction, so
integer polynomials (every model in the package) multiply in int
arithmetic.  The zero polynomial is the empty map.  Everything is exact;
floats never appear.  Values are immutable: operations return new
polynomials.

Terms are validated where they enter: the public LaurentPoly(...)
constructor and parse.  Every result the package builds from clean terms
goes through _trusted, which checks nothing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add as _add, sub as _sub

from . import intlinalg
from .errors import (
    ComplexityLimit,
    DimensionMismatch,
    DivisionByZero,
    NotDivisible,
    NotLaurent,
    NotUnimodular,
    ParseError,
)
from .intlinalg import rational, rational_power

# term pairs one product may multiply; pow goes through mul, so this also
# stops a power whose repeated squaring outgrows it
MUL_TERM_PAIR_CAP = 2_000_000
# term pairs times variables: the exponent slots one product or one exact
# division may build, charged before a product's loop and before each
# quotient term's pass over the divisor.  (x0+...+x199)^2 needs 8,000,000;
# (x0+...+x999)^2 would need 10^9 (about 8 GB)
PRODUCT_SLOT_CAP = 10_000_000
# bits a power's coefficients may reach, bounded before any squaring; about
# 4,200 decimal digits, so every power allowed can still be printed
POW_COEFFICIENT_BITS_CAP = 14_000


@dataclass(frozen=True)
class LaurentPoly:
    var_names: tuple
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        names = tuple(self.var_names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        clean = {}
        n = len(names)
        for e, c in self.terms.items():
            c = rational(c)
            if c == 0:
                continue
            e = tuple(int(x) for x in e)
            if len(e) != n:
                raise DimensionMismatch(f"exponent {e} has length {len(e)}, expected {n}")
            clean[e] = c
        object.__setattr__(self, "var_names", names)
        object.__setattr__(self, "terms", clean)

    @property
    def nvars(self):
        return len(self.var_names)

    def is_zero(self):
        return not self.terms

    def __str__(self):
        return format(self)

    def __repr__(self):
        return f"LaurentPoly({format(self)!r}, vars={self.var_names})"


def _trusted(var_names, terms):
    """A LaurentPoly from clean terms, checking nothing: var_names a tuple,
    exponents int tuples of its length, coefficients nonzero, each an int
    exactly when it is integral and else a Fraction."""
    p = object.__new__(LaurentPoly)
    object.__setattr__(p, "var_names", var_names)
    object.__setattr__(p, "terms", terms)
    return p


def _check_vars(p, q):
    if p.var_names != q.var_names:
        raise DimensionMismatch(f"variable tuples differ: {p.var_names} vs {q.var_names}")


def _charge_slots(slots):
    """ComplexityLimit when slots passes PRODUCT_SLOT_CAP."""
    if slots > PRODUCT_SLOT_CAP:
        raise ComplexityLimit(f"a product needs {slots} exponent slots, over the cap of {PRODUCT_SLOT_CAP}")


def _quotient(a, b):
    """a / b for rationals a and b != 0, exactly: an int when integral."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return rational(Fraction(a, b))


def zero(var_names):
    return LaurentPoly(tuple(var_names), {})


def constant(var_names, c):
    names = tuple(var_names)
    return LaurentPoly(names, {(0,) * len(names): c})


def one(var_names):
    names = tuple(var_names)
    return _trusted(names, {(0,) * len(names): 1})


def monomial(var_names, exponent, coeff=1):
    return LaurentPoly(tuple(var_names), {tuple(exponent): coeff})


def variable(var_names, index):
    names = tuple(var_names)
    e = [0] * len(names)
    e[index] = 1
    return _trusted(names, {tuple(e): 1})


def add(p, q):
    _check_vars(p, q)
    acc = dict(p.terms)
    for e, c in q.terms.items():
        s = acc.get(e, 0) + c
        if s == 0:
            acc.pop(e, None)
        else:
            acc[e] = rational(s)
    return _trusted(p.var_names, acc)


def neg(p):
    return _trusted(p.var_names, {e: -c for e, c in p.terms.items()})


def scale(p, c):
    c = rational(c)
    if c == 0:
        return zero(p.var_names)
    return _trusted(p.var_names, {e: rational(c * coeff) for e, coeff in p.terms.items()})


def _cleared(p):
    """(L, pairs): L the lcm of p's coefficient denominators and pairs its
    (exponent, L * coefficient) items, every coefficient an int."""
    L = math.lcm(*(c.denominator for c in p.terms.values()))
    if L == 1:
        return 1, p.terms.items()
    return L, [(e, c.numerator * (L // c.denominator)) for e, c in p.terms.items()]


def mul(p, q):
    """p * q, multiplied in ints: each factor's denominators are cleared
    first and the product divided by their lcms at the end."""
    _check_vars(p, q)
    pairs = len(p.terms) * len(q.terms)
    if pairs > MUL_TERM_PAIR_CAP:
        raise ComplexityLimit(f"a product of {pairs} term pairs exceeds the cap of {MUL_TERM_PAIR_CAP}")
    _charge_slots(pairs * p.nvars)
    dp, left = _cleared(p)
    dq, right = _cleared(q)
    acc = {}
    get = acc.get
    for e1, c1 in left:
        for e2, c2 in right:
            e = tuple(map(_add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2
    den = dp * dq
    if den == 1:
        return _trusted(p.var_names, {e: c for e, c in acc.items() if c})
    return _trusted(p.var_names, {e: rational(Fraction(c, den)) for e, c in acc.items() if c})


def pow(p, k):
    """p^k, k < 0 for a monomial only.  Each coefficient of p^k has numerator
    and denominator at most H^|k|, H the larger of p's common denominator L
    and the sum of its |c| * L; ComplexityLimit when that may pass the cap."""
    k = int(k)
    if k < 0 and len(p.terms) != 1:
        raise NotLaurent(f"negative power of a non-monomial: ({format(p)})^{k}")
    common, cleared = _cleared(p)
    height = max(common, sum(abs(c) for _e, c in cleared))
    if abs(k) * (height - 1).bit_length() > POW_COEFFICIENT_BITS_CAP:
        raise ComplexityLimit(f"a power ^{k} may need coefficients over {POW_COEFFICIENT_BITS_CAP} bits")
    if len(p.terms) == 1:
        ((e, c),) = p.terms.items()
        return _trusted(p.var_names, {tuple(k * x for x in e): rational_power(c, k)})
    result = one(p.var_names)
    base = p
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def constant_term(p):
    return Fraction(p.terms.get((0,) * p.nvars, 0))


def coefficient_at(p, exponent):
    return Fraction(p.terms.get(tuple(int(x) for x in exponent), 0))


def exact_divide(p, q):
    """The r with mul(r, q) == p, if it exists in the Laurent ring.

    Both are normalized by clearing a monomial factor so the divisor has
    per-coordinate minimum exponent 0; those minima are additive under
    multiplication, which makes the normalization lossless.  Then plain
    multivariate division in lexicographic order must leave remainder 0.
    Each quotient term charges the divisor's terms times the variables
    against PRODUCT_SLOT_CAP before it is multiplied out.
    """
    _check_vars(p, q)
    if q.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return zero(p.var_names)
    mp = tuple(map(min, zip(*p.terms)))
    mq = tuple(map(min, zip(*q.terms)))
    dividend = {tuple(map(_sub, e, mp)): c for e, c in p.terms.items()}
    divisor = {tuple(map(_sub, e, mq)): c for e, c in q.terms.items()}
    lead_q = max(divisor)
    lead_coeff = divisor[lead_q]
    step = len(divisor) * p.nvars
    slots = 0
    quotient = {}
    while dividend:
        lead_p = max(dividend)
        e = tuple(map(_sub, lead_p, lead_q))
        if any(x < 0 for x in e):
            raise NotDivisible(f"({format(p)}) is not divisible by ({format(q)})")
        slots += step
        _charge_slots(slots)
        c = _quotient(dividend[lead_p], lead_coeff)
        quotient[e] = c
        for eq, cq in divisor.items():
            key = tuple(map(_add, e, eq))
            s = dividend.get(key, 0) - c * cq
            if s == 0:
                dividend.pop(key, None)
            else:
                dividend[key] = s
    offset = tuple(map(_sub, mp, mq))
    return _trusted(p.var_names, {tuple(map(_add, e, offset)): c for e, c in quotient.items()})


def monomial_substitute(p, matrix, shift=None, scales=None):
    """Monomial change of variables: term (c, e) -> (c * prod scales_i^e_i, A e + shift).

    The matrix must be unimodular so the map is invertible over the
    Laurent ring; scales are per-variable nonzero rationals applied with
    the old exponents.
    """
    n = p.nvars
    A = [[int(x) for x in row] for row in matrix]
    if len(A) != n or any(len(row) != n for row in A):
        raise DimensionMismatch(f"matrix shape is not {n}x{n}")
    if shift is None:
        shift = (0,) * n
    shift = tuple(int(x) for x in shift)
    if len(shift) != n:
        raise DimensionMismatch("shift length mismatch")
    if scales is None:
        scales = (1,) * n
    scales = tuple(rational(s) for s in scales)
    if len(scales) != n:
        raise DimensionMismatch("scales length mismatch")
    if any(s == 0 for s in scales):
        raise ValueError("scales must be nonzero")
    if n and abs(intlinalg.det(A)) != 1:
        raise NotUnimodular(f"matrix determinant is {intlinalg.det(A)}")
    scaled = [(j, s) for j, s in enumerate(scales) if s != 1]
    out = {}
    for e, c in p.terms.items():
        ne = tuple(map(_add, intlinalg.mat_vec(A, e), shift))
        for j, s in scaled:
            if e[j]:
                c = rational(c * rational_power(s, e[j]))
        out[ne] = c
    return _trusted(p.var_names, out)


# --- parsing ---------------------------------------------------------------

# each parenthesis level costs two parser frames; this stays well inside
# Python's default recursion limit
MAX_PAREN_DEPTH = 100
# int() reads, and str() prints, no longer decimal integers by default
MAX_LITERAL_DIGITS = 4300
# numbers and variables in the text times the variable count: each of them
# is at most one dense exponent tuple, so this bounds the tuple slots a parse
# builds before any is built (a 2,000-variable product needs 4,002,000)
PARSE_EXPONENT_SLOT_CAP = 10_000_000
# one token per match: a decimal literal (\d is exactly what int() reads),
# a word, an operator, or any other non-space character, which is an error
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<ident>\w+)|(?P<op>[-+*/^()])|\S")


def _scan(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "int" and len(value) > MAX_LITERAL_DIGITS:
            raise ParseError(f"number literal longer than {MAX_LITERAL_DIGITS} digits", pos)
        if kind is None or (kind == "ident" and not (value[0].isalpha() or value[0] == "_")):
            raise ParseError(f"unexpected character {value[0]!r}", pos)
        tokens.append((value if kind == "op" else kind, value, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, var_names):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.var_names = var_names
        self.var_index = {name: i for i, name in enumerate(var_names)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        self.pos += 1
        return tok

    def parse_expr(self):
        """The signed terms, added into one dict."""
        acc = {}
        negative = self.peek()[0] == "-"
        if negative:
            self.take()
        while True:
            for e, c in self.parse_term():
                s = acc.get(e, 0) + (-c if negative else c)
                if s == 0:
                    acc.pop(e, None)
                else:
                    acc[e] = rational(s)
            if self.peek()[0] not in "+-":
                return _trusted(self.var_names, acc)
            negative = self.take()[0] == "-"

    def parse_term(self):
        """The term's (exponent, coefficient) pairs.

        Numbers and variables multiply into one pair, coeff * x^exponent.  A
        parenthesis with two or more terms makes a polynomial, poly, which
        takes the pair in when the term ends or divides by such a
        parenthesis; a one-term parenthesis joins the pair.  A zero term
        (coeff 0) multiplies nothing more in, as 0 * (...) does, but still
        evaluates its factors."""
        n = len(self.var_names)
        coeff, exponent, poly = 1, [0] * n, None
        divide = False
        while True:
            kind, value, pos = self.take()
            if kind == "int":
                c = int(value)
                if self.peek()[0] == "^":
                    # a power of a literal in no variables: pow's checks and caps, nothing else
                    c = pow(_trusted((), {(): c} if c else {}), self.parse_power()).terms.get((), 0)
                if not divide:
                    coeff = rational(coeff * c)
                elif c == 0:
                    raise DivisionByZero("division by the zero polynomial")
                else:
                    coeff = _quotient(coeff, c)
            elif kind == "ident":
                k = self.parse_power() if self.peek()[0] == "^" else 1
                exponent[self.var_index[value]] += -k if divide else k
            elif kind == "(":
                if self.depth == MAX_PAREN_DEPTH:
                    raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", pos)
                self.depth += 1
                factor = self.parse_expr()
                self.depth -= 1
                self.take(")")
                if self.peek()[0] == "^":
                    factor = pow(factor, self.parse_power())
                if len(factor.terms) == 1:
                    ((e, c),) = factor.terms.items()
                    if divide:
                        coeff, exponent = _quotient(coeff, c), list(map(_sub, exponent, e))
                    else:
                        coeff, exponent = rational(coeff * c), list(map(_add, exponent, e))
                elif divide:
                    if not factor.terms:
                        raise DivisionByZero("division by the zero polynomial")
                    if coeff:
                        try:
                            poly = exact_divide(self.term_poly(coeff, exponent, poly), factor)
                        except NotDivisible as exc:
                            raise NotLaurent(str(exc)) from exc
                        coeff, exponent = 1, [0] * n
                elif not factor.terms:
                    coeff = 0
                elif coeff:
                    poly = factor if poly is None else mul(poly, factor)
            else:
                raise ParseError(f"expected a number, variable, or '(', found {value or 'end of input'!r}", pos)
            if self.peek()[0] not in "*/":
                break
            divide = self.take()[0] == "/"
        if poly is None or not coeff:
            return ((tuple(exponent), coeff),) if coeff else ()
        return self.term_poly(coeff, exponent, poly).terms.items()

    def term_poly(self, coeff, exponent, poly):
        """poly * coeff * x^exponent as a polynomial, coeff nonzero."""
        if poly is not None and coeff == 1 and not any(exponent):
            return poly
        mono = _trusted(self.var_names, {tuple(exponent): coeff})
        return mono if poly is None else mul(poly, mono)

    def parse_power(self):
        """The signed integer after a '^', which the caller has seen."""
        self.take()
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        return sign * int(self.take("int")[1])


def parse(text, var_names=None):
    """Parse an expression into canonical sparse form.

    Grammar: expr := ['-'] term (('+'|'-') term)*; term := factor
    (('*'|'/') factor)*; factor := base ('^' signed_int)?; base :=
    integer | identifier | '(' expr ')'.  Unknown identifiers bind in
    first-appearance order when var_names is not given.
    """
    tokens = _scan(text)
    if var_names is None:
        var_names = tuple(dict.fromkeys(value for kind, value, _pos in tokens if kind == "ident"))
    else:
        var_names = tuple(var_names)
        for kind, value, pos in tokens:
            if kind == "ident" and value not in var_names:
                raise ParseError(f"unknown variable {value!r}", pos)
    slots = sum(kind in ("int", "ident") for kind, _value, _pos in tokens) * len(var_names)
    if slots > PARSE_EXPONENT_SLOT_CAP:
        raise ComplexityLimit(f"parsing needs {slots} exponent slots, over the cap of {PARSE_EXPONENT_SLOT_CAP}")
    parser = _Parser(tokens, var_names)
    result = parser.parse_expr()
    end = parser.peek()
    if end[0] != "end":
        raise ParseError(f"unexpected {end[1]!r}", end[2])
    return result


def format(p):
    """Deterministic rendering, lexicographically descending exponents.

    parse(format(p), p.var_names) reproduces p exactly; without the
    explicit variable list the round trip still holds whenever every
    variable occurs in some term.
    """
    if p.is_zero():
        return "0"
    pieces = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        factors = []
        for name, k in zip(p.var_names, e):
            if k == 1:
                factors.append(name)
            elif k != 0:
                factors.append(f"{name}^{k}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(pieces)

