"""Exact linear algebra over the integers and rationals.

All matrices are sequences of row sequences; nothing here is sized for
large inputs (their callers cap the work, as polytope.HULL_WORK_CAP does),
so the implementations favor exactness and clarity.  There are two
eliminations: one fraction-free (Bareiss) elimination over Q, from which
ranks, pivot columns, determinants and primitive integer kernel rays are
read in integers, and `rref` (its rows divided by the final pivot) for
inverses; and a textbook Smith normal form over Z, from which saturated
integer kernels and lattice frames (a unimodular change of basis putting
a set of integer vectors into saturated coordinates) are read.  There is no simplex: cone questions go through
exact hulls in `polytope`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def mat_mul(A, B):
    n = len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(n)]
        for i in range(len(A))
    ]


def transpose(A):
    return [list(col) for col in zip(*A)]


def _bareiss(A):
    """Fraction-free (Bareiss) elimination of A: (M, pivot_cols, pivot, sign, scale).

    Rows of A are first scaled to integers (scale is the product of the
    row scales).  Each step keeps every row an integer multiple, by the
    current pivot minor, of its rational reduced row, so the divisions are
    exact; at the end M[i] is pivot times row i of the reduced row echelon
    form for i < len(pivot_cols), and sign tracks the row swaps.
    """
    M = []
    scale = 1
    for row in A:
        den = lcm(*(x.denominator for x in row))
        M.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    m = len(M)
    n = len(M[0]) if m else 0
    pivot_cols = []
    sign = pivot = 1
    for c in range(n):
        r = len(pivot_cols)
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if M[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            M[r], M[pivot_row] = M[pivot_row], M[r]
            sign = -sign
        top = M[r]
        new = top[c]
        for i in range(m):
            if i != r:
                q = M[i][c]
                M[i] = [(new * x - q * y) // pivot for x, y in zip(M[i], top)]
        pivot = new
        pivot_cols.append(c)
    return M, pivot_cols, pivot, sign, scale


def rref(A):
    """Reduced row echelon form of A over Q: (rows, pivot_cols).

    rows are the nonzero rows of the form, as Fraction lists; row i has its
    leading 1 in column pivot_cols[i].  Inverses are read off this form;
    ranks, pivots, determinants and integer kernels come straight from the
    fraction-free elimination underneath it.
    """
    M, pivot_cols, pivot, _sign, _scale = _bareiss(A)
    return [[Fraction(x, pivot) for x in M[i]] for i in range(len(pivot_cols))], pivot_cols


def det(A):
    """Exact determinant of a square matrix, as a Fraction."""
    M, pivot_cols, pivot, sign, scale = _bareiss(A)
    full = len(pivot_cols) == len(M) == (len(M[0]) if M else 0)
    return Fraction(sign * pivot, scale) if full else Fraction(0)


def matrix_inverse(A):
    """Inverse with Fraction entries; ValueError if singular."""
    n = len(A)
    rows, pivot_cols = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)])
    if pivot_cols[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in rows]


def integer_inverse(A):
    """Inverse of a unimodular integer matrix, with int entries."""
    inv = matrix_inverse(A)
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append([int(x) for x in row])
    return out


def pivot_columns(A):
    """Pivot columns of A's echelon form: the columns of A outside the span
    of the columns before them."""
    return _bareiss(A)[1]


def rank(A):
    return len(_bareiss(A)[1])


def kernel_rays(A, n):
    """Primitive integer vectors spanning {x in Q^n : A x = 0}, one per free
    column of the fraction-free form; each is a positive multiple of the
    rational kernel vector with 1 at that column and 0 at the other free
    columns.  A may have no rows."""
    M, pivot_cols, pivot, _sign, _scale = _bareiss(A)
    rays = []
    for fc in range(n):
        if fc in pivot_cols:
            continue
        vec = [0] * n
        vec[fc] = abs(pivot)
        for row, pc in zip(M, pivot_cols):
            vec[pc] = -row[fc] if pivot > 0 else row[fc]
        rays.append(primitive_vector(vec))
    return rays


def smith_normal_form(A):
    """Returns (D, U, V) with U*A*V = D diagonal, U and V unimodular."""
    M = [[int(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    U = identity(m)
    V = identity(n)

    def row_sub(i, j, q):
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(i, j, q):
        for k in range(m):
            M[k][i] -= q * M[k][j]
        for k in range(n):
            V[k][i] -= q * V[k][j]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for k in range(m):
            M[k][i], M[k][j] = M[k][j], M[k][i]
        for k in range(n):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    def row_negate(i):
        M[i] = [-a for a in M[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] != 0 and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        if M[t][t] < 0:
            row_negate(t)
        while True:
            changed = False
            for i in range(t + 1, m):
                if M[i][t] != 0:
                    row_sub(i, t, M[i][t] // M[t][t])
                    if M[i][t] != 0:
                        row_swap(t, i)
                        if M[t][t] < 0:
                            row_negate(t)
                        changed = True
            for j in range(t + 1, n):
                if M[t][j] != 0:
                    col_sub(j, t, M[t][j] // M[t][t])
                    if M[t][j] != 0:
                        col_swap(t, j)
                        changed = True
            if not changed:
                break
        t += 1
    return M, U, V


def integer_kernel_basis(A):
    """Basis of {x in Z^n : A x = 0}; saturated (a direct summand)."""
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    D, _U, V = smith_normal_form(A)
    r = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    return [tuple(V[k][j] for k in range(n)) for j in range(r, n)]


def lattice_frame(vectors):
    """(U, U_inv, r) for integer vectors in Z^n, from one Smith normal form.

    U is unimodular and U*v is zero past its first r entries for every
    given v; those r entries are v's coordinates in the first r columns of
    U_inv, a basis of the saturation span_Q(vectors) intersected with Z^n.
    The remaining columns of U_inv complete it to a basis of Z^n.
    """
    D, U, _V = smith_normal_form(transpose(vectors))
    r = sum(1 for i in range(min(len(D), len(D[0]))) if D[i][i] != 0)
    return U, integer_inverse(U), r


def exact_int(x):
    """x as an int if its exact value is one (1.0 and "3" pass); else ValueError."""
    try:
        q = Fraction(x)
    except (OverflowError, ZeroDivisionError) as err:
        raise ValueError("not an integer: %r" % (x,)) from err
    if q.denominator != 1:
        raise ValueError("not an integer: %r" % (x,))
    return q.numerator


def rational(x):
    """x's exact value (anything Fraction reads) as an int when it is
    integral, else as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def rational_power(x, k):
    """x^k for a rational x and an int k, exactly: an int when integral."""
    return rational(x**k if k >= 0 else Fraction(x) ** k)


def primitive_vector(v):
    """v divided by the gcd of its entries (zero vector unchanged)."""
    v = tuple(int(x) for x in v)
    g = gcd(*v)
    return tuple(x // g for x in v) if g else v


def rational_ray_to_primitive(v):
    """First lattice point on the ray through a rational vector."""
    v = [Fraction(x) for x in v]
    scale = lcm(*(x.denominator for x in v))
    return primitive_vector(x.numerator * (scale // x.denominator) for x in v)


def unimodular_with_last_row(g):
    """A unimodular integer matrix whose last row is the primitive vector g."""
    g = [int(x) for x in g]
    n = len(g)
    D, _U, V = smith_normal_form([g])
    if abs(D[0][0]) != 1:
        raise ValueError("vector is not primitive")
    # g*V = (+-1, 0, ..., 0); move that column last and fix the sign
    W = [list(row) for row in V]
    for k in range(n):
        W[k][0], W[k][n - 1] = W[k][n - 1], W[k][0]
    value = sum(g[k] * W[k][n - 1] for k in range(n))
    if value == -1:
        for k in range(n):
            W[k][n - 1] = -W[k][n - 1]
    return integer_inverse(W)


def int_nth_root(m, d):
    """floor(m ** (1/d)) for m >= 0, exact integer arithmetic."""
    if m < 0 or d < 1:
        raise ValueError("int_nth_root needs m >= 0 and d >= 1")
    if d == 1 or m in (0, 1):
        return m
    x = 1 << ((m.bit_length() + d - 1) // d)
    while True:
        y = ((d - 1) * x + m // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def nth_root_fraction(x, d):
    """Exact rational d-th root of x, or None; an int when integral.

    Even d requires x >= 0 and returns the positive root.
    """
    x = Fraction(x)
    if x < 0:
        if d % 2 == 0:
            return None
        r = nth_root_fraction(-x, d)
        return None if r is None else -r
    rn = int_nth_root(x.numerator, d)
    rd = int_nth_root(x.denominator, d)
    if rn**d == x.numerator and rd**d == x.denominator:
        return rn if rd == 1 else Fraction(rn, rd)
    return None
