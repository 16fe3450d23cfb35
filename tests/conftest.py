"""Shared helpers: deterministic random polynomials and hypothesis strategies."""

from fractions import Fraction

from hypothesis import strategies as st

from toriclg import laurent

VAR_POOL = ("x", "y", "z", "t", "u", "v")


def random_poly(rng, nvars, max_terms=6, exp_bound=4):
    names = VAR_POOL[:nvars]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return laurent.LaurentPoly(names, terms)


def random_nonzero_poly(rng, nvars, max_terms=6, exp_bound=4):
    while True:
        p = random_poly(rng, nvars, max_terms, exp_bound)
        if not p.is_zero():
            return p


def poly_strategy(nvars=2, max_terms=5, exp_bound=3, nonzero=False):
    exponent = st.tuples(*[st.integers(-exp_bound, exp_bound)] * nvars)
    coeff = st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
    ).filter(lambda c: c != 0)
    terms = st.dictionaries(exponent, coeff, max_size=max_terms)
    polys = terms.map(lambda d: laurent.LaurentPoly(VAR_POOL[:nvars], d))
    if nonzero:
        polys = polys.filter(lambda p: not p.is_zero())
    return polys


# registry filled by test_acceptance; printed after the run so every
# criterion gets one PASS/FAIL line even under captured output
ACCEPTANCE_RESULTS = {}


def record_acceptance(number, label, failures):
    ACCEPTANCE_RESULTS[number] = (label, not failures, tuple(failures))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for number in sorted(ACCEPTANCE_RESULTS):
        label, ok, failures = ACCEPTANCE_RESULTS[number]
        line = "%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, label)
        if failures:
            line += " [" + "; ".join(failures) + "]"
        terminalreporter.write_line(line)


# malformed expression fixtures: (text, 0-based error position)
MALFORMED_EXPRESSIONS = [
    ("x +", 3),
    ("(x+1", 4),
    ("x^", 2),
    ("x^y", 2),
    ("2x", 1),
    ("x & y", 2),
    ("", 0),
    ("x*/y", 2),
    ("()", 1),
    ("x^(2)", 2),
    # a digit int() cannot read, and a literal longer than int() reads
    ("x^\u00b2+1/x", 2),
    ("x^" + "9" * 5000, 2),
]
