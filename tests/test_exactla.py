import random
from fractions import Fraction as F

import pytest

from bggkit import exactla
from bggkit.errors import DomainError
from bggkit.liealg import build_chevalley
from bggkit.rootdata import cached_root_system


def naive_rank(matrix):
    """Reference rank via plain Fraction Gauss elimination."""
    rows = [[F(x) for x in row] for row in matrix]
    rank = 0
    col = 0
    n = len(rows)
    m = len(rows[0]) if rows else 0
    while rank < n and col < m:
        piv = next((i for i in range(rank, n) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, n):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_rank_examples():
    assert exactla.rank([[1, 0], [0, 1]]) == 2
    assert exactla.rank([[1, 2], [2, 4]]) == 1
    assert exactla.rank([[0, 0], [0, 0]]) == 0
    assert exactla.rank([[F(1, 2), F(1, 3)]]) == 1
    assert exactla.rank([]) == 0


def test_rank_matches_naive_on_random_matrices():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
               for _ in range(n)]
        assert exactla.rank(mat) == naive_rank(mat)


def test_nullspace_is_exact_kernel():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        mat = [[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        basis = exactla.nullspace(mat)
        assert len(basis) == m - exactla.rank(mat)
        for vec in basis:
            assert all(sum(row[j] * vec[j] for j in range(m)) == 0
                       for row in mat)


def test_nullspace_empty_matrix_needs_width():
    assert len(exactla.nullspace([], width=3)) == 3
    with pytest.raises(DomainError):
        exactla.nullspace([])


def test_invert_roundtrip():
    mat = [[2, -1], [-1, 2]]
    inv = exactla.invert(mat)
    prod = [[sum(mat[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(DomainError):
        exactla.invert([[1, 2], [2, 4]])


# -- the reduced echelon form against a naive Gauss-Jordan --------------------

def naive_rref(matrix, width):
    """Pivot columns and nonzero rows of the reduced echelon form, in Fractions."""
    rows = [[F(x) for x in row] for row in matrix]
    pivots = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots, rows[:len(pivots)]


def naive_nullspace(matrix, width):
    pivots, rows = naive_rref(matrix, width)
    out = []
    for fc in range(width):
        if fc in pivots:
            continue
        vec = [F(0)] * width
        vec[fc] = F(1)
        for pc, row in zip(pivots, rows):
            vec[pc] = -row[fc]
        out.append(vec)
    return out


def naive_inverse(matrix):
    """The inverse, or None when the matrix is singular."""
    n = len(matrix)
    augmented = [list(row) + [int(i == j) for j in range(n)]
                 for i, row in enumerate(matrix)]
    pivots, rows = naive_rref(augmented, 2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows]


def _random_matrix(rng, n, m):
    """Rational n x m matrix; about half are made singular by a dependent row."""
    mat = [[F(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.75 else F(0)
            for _ in range(m)] for _ in range(n)]
    if n >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(n), 2)
        k = F(rng.randint(-3, 3), rng.randint(1, 4))
        mat[b] = [k * x for x in mat[a]]
        if n >= 3:
            c = next(i for i in range(n) if i not in (a, b))
            mat[c] = [x + y for x, y in zip(mat[a], mat[c])]
    return mat


def _assert_invert_matches(mat):
    expected = naive_inverse(mat)
    if expected is None:
        with pytest.raises(DomainError):
            exactla.invert(mat)
    else:
        got = exactla.invert(mat)
        assert got == expected
        assert all(type(x) is F for row in got for x in row)


def test_nullspace_equals_naive_gauss_jordan():
    rng = random.Random(9)
    for _ in range(400):
        n = rng.randint(0, 6)
        m = rng.randint(1, 7)
        mat = _random_matrix(rng, n, m)
        got = exactla.nullspace(mat, width=m)
        assert got == naive_nullspace(mat, m)
        assert all(type(x) is F for vec in got for x in vec)


def test_invert_equals_naive_gauss_jordan():
    rng = random.Random(10)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        mat = _random_matrix(rng, n, n)
        singular += naive_inverse(mat) is None
        _assert_invert_matches(mat)
    assert 50 < singular < 350


def _adjoint_matrices(alg):
    """ad(b_i) as dense matrices, read straight off the bracket table."""
    d = alg.d
    ad = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (hi, lo), entries in alg._table.items():
        for k, c in entries:
            ad[hi][k][lo] = c
            ad[lo][k][hi] = -c
    return ad


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_killing_form_inverse_and_ad_kernels_equal_naive(label):
    alg = build_chevalley(cached_root_system(label))
    d = alg.d
    ad = _adjoint_matrices(alg)
    killing = [[sum(ad[i][p][q] * ad[j][q][p] for p in range(d) for q in range(d))
                for j in range(d)] for i in range(d)]
    _assert_invert_matches(killing)
    for mat in ad:  # each ad(x) is singular: x is in its own kernel
        assert exactla.nullspace(mat) == naive_nullspace(mat, d)
        _assert_invert_matches(mat)
