"""Sparse Laurent polynomials with exact rational coefficients.

A polynomial is a map from integer exponent tuples to nonzero Fraction
coefficients, together with an ordered tuple of variable names.  The
zero polynomial is the empty map.  Everything is exact; floats never
appear.  Values are immutable: operations return new polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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

# term pairs one product may multiply; pow goes through mul, so this also
# stops a power whose repeated squaring outgrows it
MUL_TERM_PAIR_CAP = 2_000_000


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
            c = Fraction(c)
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


def _check_vars(p, q):
    if p.var_names != q.var_names:
        raise DimensionMismatch(f"variable tuples differ: {p.var_names} vs {q.var_names}")


def zero(var_names):
    return LaurentPoly(tuple(var_names), {})


def constant(var_names, c):
    names = tuple(var_names)
    return LaurentPoly(names, {(0,) * len(names): Fraction(c)})


def one(var_names):
    return constant(var_names, 1)


def monomial(var_names, exponent, coeff=1):
    return LaurentPoly(tuple(var_names), {tuple(exponent): Fraction(coeff)})


def variable(var_names, index):
    names = tuple(var_names)
    e = [0] * len(names)
    e[index] = 1
    return LaurentPoly(names, {tuple(e): Fraction(1)})


def add(p, q):
    _check_vars(p, q)
    acc = dict(p.terms)
    for e, c in q.terms.items():
        s = acc.get(e, 0) + c
        if s == 0:
            acc.pop(e, None)
        else:
            acc[e] = s
    return LaurentPoly(p.var_names, acc)


def neg(p):
    return LaurentPoly(p.var_names, {e: -c for e, c in p.terms.items()})


def scale(p, c):
    c = Fraction(c)
    if c == 0:
        return zero(p.var_names)
    return LaurentPoly(p.var_names, {e: c * coeff for e, coeff in p.terms.items()})


def mul(p, q):
    _check_vars(p, q)
    pairs = len(p.terms) * len(q.terms)
    if pairs > MUL_TERM_PAIR_CAP:
        raise ComplexityLimit(f"a product of {pairs} term pairs exceeds the cap of {MUL_TERM_PAIR_CAP}")
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = acc.get(e, 0) + c1 * c2
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s
    return LaurentPoly(p.var_names, acc)


def pow(p, k):
    k = int(k)
    if k < 0:
        if len(p.terms) == 1:
            ((e, c),) = p.terms.items()
            return LaurentPoly(p.var_names, {tuple(k * x for x in e): c**k})
        raise NotLaurent(f"negative power of a non-monomial: ({format(p)})^{k}")
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


def support(p):
    """Exponent vectors with nonzero coefficient, lexicographically sorted."""
    return sorted(p.terms)


def _min_exponents(p):
    mins = list(next(iter(p.terms)))
    for e in p.terms:
        for i, x in enumerate(e):
            if x < mins[i]:
                mins[i] = x
    return tuple(mins)


def exact_divide(p, q):
    """The r with mul(r, q) == p, if it exists in the Laurent ring.

    Both are normalized by clearing a monomial factor so the divisor has
    per-coordinate minimum exponent 0; those minima are additive under
    multiplication, which makes the normalization lossless.  Then plain
    multivariate division in lexicographic order must leave remainder 0.
    """
    _check_vars(p, q)
    if q.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return zero(p.var_names)
    mp = _min_exponents(p)
    mq = _min_exponents(q)
    dividend = {tuple(a - b for a, b in zip(e, mp)): c for e, c in p.terms.items()}
    divisor = {tuple(a - b for a, b in zip(e, mq)): c for e, c in q.terms.items()}
    lead_q = max(divisor)
    lead_coeff = divisor[lead_q]
    quotient = {}
    while dividend:
        lead_p = max(dividend)
        e = tuple(a - b for a, b in zip(lead_p, lead_q))
        if any(x < 0 for x in e):
            raise NotDivisible(f"({format(p)}) is not divisible by ({format(q)})")
        c = dividend[lead_p] / lead_coeff
        quotient[e] = c
        for eq, cq in divisor.items():
            key = tuple(a + b for a, b in zip(e, eq))
            s = dividend.get(key, 0) - c * cq
            if s == 0:
                dividend.pop(key, None)
            else:
                dividend[key] = s
    offset = tuple(a - b for a, b in zip(mp, mq))
    return LaurentPoly(p.var_names, {tuple(a + b for a, b in zip(e, offset)): c for e, c in quotient.items()})


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
        scales = (Fraction(1),) * n
    scales = tuple(Fraction(s) for s in scales)
    if len(scales) != n:
        raise DimensionMismatch("scales length mismatch")
    if any(s == 0 for s in scales):
        raise ValueError("scales must be nonzero")
    if n and abs(intlinalg.det(A)) != 1:
        raise NotUnimodular(f"matrix determinant is {intlinalg.det(A)}")
    out = {}
    for e, c in p.terms.items():
        ne = tuple(x + s for x, s in zip(intlinalg.mat_vec(A, e), shift))
        nc = c
        for s, k in zip(scales, e):
            nc *= s**k
        out[ne] = nc
    return LaurentPoly(p.var_names, out)


# --- parsing ---------------------------------------------------------------

_OPS = "+-*/^()"
# each parenthesis level costs four parser frames; this stays well inside
# Python's default recursion limit
MAX_PAREN_DEPTH = 100


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
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
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        result = self.parse_term()
        if sign < 0:
            result = neg(result)
        while self.peek()[0] in "+-":
            op = self.take()
            rhs = self.parse_term()
            result = add(result, rhs if op[0] == "+" else neg(rhs))
        return result

    def parse_term(self):
        result = self.parse_factor()
        while self.peek()[0] in "*/":
            op = self.take()
            rhs = self.parse_factor()
            if op[0] == "*":
                result = mul(result, rhs)
            else:
                try:
                    result = exact_divide(result, rhs)
                except NotDivisible as exc:
                    raise NotLaurent(str(exc)) from exc
                except DivisionByZero:
                    raise
        return result

    def parse_factor(self):
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] in "+-":
                sign = -1 if self.take()[0] == "-" else 1
            tok = self.take("int")
            k = sign * int(tok[1])
            base = pow(base, k)
        return base

    def parse_base(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return constant(self.var_names, int(tok[1]))
        if tok[0] == "ident":
            self.take()
            return variable(self.var_names, self.var_index[tok[1]])
        if tok[0] == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", tok[2])
            self.take()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.take(")")
            return inner
        raise ParseError(f"expected a number, variable, or '(', found {tok[1] or 'end of input'!r}", tok[2])


def parse(text, var_names=None):
    """Parse an expression into canonical sparse form.

    Grammar: expr := ['-'] term (('+'|'-') term)*; term := factor
    (('*'|'/') factor)*; factor := base ('^' signed_int)?; base :=
    integer | identifier | '(' expr ')'.  Unknown identifiers bind in
    first-appearance order when var_names is not given.
    """
    tokens = _tokenize(text)
    if var_names is None:
        seen = []
        for kind, value, _pos in tokens:
            if kind == "ident" and value not in seen:
                seen.append(value)
        var_names = tuple(seen)
    else:
        var_names = tuple(var_names)
        for kind, value, pos in tokens:
            if kind == "ident" and value not in var_names:
                raise ParseError(f"unknown variable {value!r}", pos)
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

