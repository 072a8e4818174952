import random
from fractions import Fraction as F

import pytest

from bggkit import exactla
from bggkit.errors import DomainError


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
