import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriclg import intlinalg as la


def random_matrix(rng, m, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def leibniz_det(A):
    """Determinant as the signed sum over permutations; 1 for a 0x0 matrix."""
    n = len(A)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        term = (-1) ** inversions
        for i in range(n):
            term *= A[i][perm[i]]
        total += term
    return total


def minor_rank(A, n):
    """Order of the largest nonzero minor of the m x n matrix A."""
    for k in range(min(len(A), n), 0, -1):
        for rows in combinations(range(len(A)), k):
            for cols in combinations(range(n), k):
                if leibniz_det([[A[i][j] for j in cols] for i in rows]):
                    return k
    return 0


@st.composite
def small_matrices(draw, square=False, min_rows=0):
    """(A, n): an integer m x n matrix, m and n from 0 to 4 (or m = n).

    Later rows are often combinations of earlier ones, so singular and
    rank-deficient inputs are common; m = 0 or n = 0 gives the empty
    shapes."""
    m = draw(st.integers(min_rows, 4))
    n = m if square else draw(st.integers(0, 4))
    A = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):
            j = draw(st.integers(0, i - 1))
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            A[i] = [a * x + b * y for x, y in zip(A[j], A[i - 1])]
    return A, n


def test_det_examples():
    assert la.det([[1, 0], [0, 1]]) == 1
    assert la.det([[2, 1], [1, 1]]) == 1
    assert la.det([[1, 2], [2, 4]]) == 0
    assert la.det([[0, 1, 0], [1, 0, 0], [0, 0, -1]]) == 1


def test_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = random_matrix(rng, n, n)
        if la.det(A) == 0:
            continue
        inv = la.matrix_inverse(A)
        assert la.mat_mul(A, inv) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        D, U, V = la.smith_normal_form(A)
        assert la.mat_mul(la.mat_mul(U, A), V) == D
        assert abs(la.det(U)) == 1
        assert abs(la.det(V)) == 1
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0


def test_integer_kernel_basis():
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = random_matrix(rng, m, n, bound=4)
        basis = la.integer_kernel_basis(A)
        assert len(basis) == n - la.rank(A)
        for vec in basis:
            assert la.mat_vec(A, vec) == (0,) * m


def test_saturation_basis_is_saturated_and_spans():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        U, U_inv, r = la.lattice_frame(vectors)
        assert abs(la.det(U)) == 1
        assert la.mat_mul(U, U_inv) == la.identity(n)
        assert r == la.rank(vectors)
        basis = [tuple(row[j] for row in U_inv) for j in range(r)]
        for v in vectors:
            image = la.mat_vec(U, v)
            # U*v vanishes past row r, and its first r entries rebuild v
            assert image[r:] == (0,) * (n - r)
            rebuilt = tuple(sum(image[j] * basis[j][i] for j in range(r)) for i in range(n))
            assert rebuilt == v
        if not basis:
            assert all(all(x == 0 for x in v) for v in vectors)
            continue
        # the basis extends to a basis of Z^n: all SNF diagonal entries are 1
        D, _, _ = la.smith_normal_form(basis)
        for i in range(len(basis)):
            assert abs(D[i][i]) == 1


def test_unimodular_with_last_row():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 4)
        g = tuple(rng.randint(-5, 5) for _ in range(n))
        g = la.primitive_vector(g)
        if all(x == 0 for x in g):
            continue
        V = la.unimodular_with_last_row(g)
        assert tuple(V[-1]) == g
        assert abs(la.det(V)) == 1


def test_primitive_vector():
    assert la.primitive_vector((2, 4, -6)) == (1, 2, -3)
    assert la.primitive_vector((0, 0)) == (0, 0)
    assert la.rational_ray_to_primitive((Fraction(1, 2), Fraction(1, 2), -1)) == (1, 1, -2)
    assert la.rational_ray_to_primitive((Fraction(-1, 3), 1, 0)) == (-1, 3, 0)


def test_nth_roots():
    assert la.int_nth_root(0, 3) == 0
    assert la.int_nth_root(26, 3) == 2
    assert la.int_nth_root(27, 3) == 3
    assert la.int_nth_root(10**12, 2) == 10**6
    assert la.nth_root_fraction(Fraction(8, 27), 3) == Fraction(2, 3)
    assert la.nth_root_fraction(Fraction(-8), 3) == -2
    assert la.nth_root_fraction(Fraction(2), 2) is None
    assert la.nth_root_fraction(Fraction(-4), 2) is None
    assert la.nth_root_fraction(Fraction(4), 2) == 2
    # an integral root is an int, any other a Fraction
    assert type(la.nth_root_fraction(Fraction(-8), 3)) is int
    assert type(la.nth_root_fraction(Fraction(8, 27), 3)) is Fraction


def test_rational_reads_exactly_and_is_int_when_integral():
    for x, want in [(3, 3), (Fraction(6, 3), 2), ("4/2", 2), (2.0, 2), (True, 1), ("-1/2", Fraction(-1, 2)), (0.5, Fraction(1, 2))]:
        got = la.rational(x)
        assert got == want and type(got) is type(want)
    for x, k, want in [(2, -1, Fraction(1, 2)), (Fraction(1, 2), -2, 4), (-1, -3, -1), (Fraction(2, 3), 2, Fraction(4, 9)), (3, 0, 1)]:
        got = la.rational_power(x, k)
        assert got == want and type(got) is type(want)


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_rref_is_reduced_with_the_same_row_space(case):
    A, n = case
    rows, pivot_cols = la.rref(A)
    assert len(rows) == len(pivot_cols) == minor_rank(A, n)
    assert list(pivot_cols) == sorted(set(pivot_cols))
    for i, c in enumerate(pivot_cols):
        assert [row[c] for row in rows] == [int(k == i) for k in range(len(rows))]
        assert not any(rows[i][:c])
    # every row of A is a combination of the reduced rows, read off at the pivots
    for row in A:
        combination = [sum(r[c] * row[pc] for r, pc in zip(rows, pivot_cols)) for c in range(n)]
        assert combination == list(row)


@settings(max_examples=100, deadline=None)
@given(small_matrices(square=True))
def test_det_matches_leibniz_expansion(case):
    A, _n = case
    assert la.det(A) == leibniz_det(A)


@settings(max_examples=100, deadline=None)
@given(small_matrices(square=True, min_rows=1))
def test_inverse_or_value_error_on_singular(case):
    A, n = case
    if leibniz_det(A) == 0:
        with pytest.raises(ValueError):
            la.matrix_inverse(A)
        return
    inv = la.matrix_inverse(A)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert la.mat_mul(A, inv) == identity
    assert la.mat_mul(inv, A) == identity


def rational_kernel_basis(A, n):
    """Reference basis of {x in Q^n : A x = 0}, one vector per free column
    of the reduced form (1 there, 0 at the other free columns); A may have
    no rows."""
    rows, pivot_cols = la.rref(A)
    basis = []
    for fc in range(n):
        if fc in pivot_cols:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivot_cols):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_rank_plus_kernel_dimension_is_column_count(case):
    A, n = case
    kernel = rational_kernel_basis(A, n)
    assert la.rank(A) == minor_rank(A, n)
    assert la.rank(A) + len(kernel) == n
    for vec in kernel:
        assert len(vec) == n
        assert la.mat_vec(A, vec) == (0,) * len(A)
    assert minor_rank(kernel, n) == len(kernel)


@st.composite
def padded_matrices(draw):
    """(A, n): small_matrices with an optional zero row and zero column
    spliced in, and entries optionally divided by small denominators."""
    A, n = draw(small_matrices())
    if draw(st.booleans()):
        c = draw(st.integers(0, n))
        A = [row[:c] + [0] + row[c:] for row in A]
        n += 1
    if draw(st.booleans()):
        A.insert(draw(st.integers(0, len(A))), [0] * n)
    if draw(st.booleans()):
        A = [[Fraction(x, draw(st.sampled_from((1, 2, 3, 6)))) for x in row] for row in A]
    return A, n


@settings(max_examples=150, deadline=None)
@given(padded_matrices())
def test_kernel_rays_are_primitive_multiples_of_the_rational_kernel(case):
    A, n = case
    rays = la.kernel_rays(A, n)
    basis = rational_kernel_basis(A, n)
    assert len(rays) == len(basis)
    for ray, vec in zip(rays, basis):
        assert all(type(x) is int for x in ray)
        assert la.primitive_vector(ray) == ray
        assert la.mat_vec(A, ray) == (0,) * len(A)
        # a positive multiple: the same primitive ray
        assert la.rational_ray_to_primitive(vec) == ray


@settings(max_examples=150, deadline=None)
@given(padded_matrices())
def test_rank_and_pivots_agree_with_rref(case):
    A, n = case
    pivot_cols = la.rref(A)[1]
    assert la.pivot_columns(A) == pivot_cols
    assert la.rank(A) == len(pivot_cols) == minor_rank(A, n)


def test_kernel_rays_on_empty_and_zero_matrices():
    assert la.kernel_rays([], 0) == []
    assert la.kernel_rays([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert la.kernel_rays([[0, 0], [0, 0]], 2) == [(1, 0), (0, 1)]
    assert la.kernel_rays([[2, 4]], 2) == [(-2, 1)]
    assert la.kernel_rays([[Fraction(1, 2), Fraction(1, 3), 0]], 3) == [(-2, 3, 0), (0, 0, 1)]
    assert la.rank([]) == la.rank([[0, 0]]) == 0 and la.pivot_columns([[0, 3, 1]]) == [1]
