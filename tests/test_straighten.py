"""Kernel-level tests of PBW straightening."""

import random

import pytest

from bggkit.pbw import StraightenKernel


# sl2 in the ordered basis (y, h, x): [h, y] = -2y, [x, y] = h, [x, h] = -2x
A1_TABLE = {(1, 0): ((0, -2),), (2, 0): ((1, 1),), (2, 1): ((2, -2),)}


def test_sl2_relations():
    kernel = StraightenKernel(3, A1_TABLE)
    # x*y = y*x + h
    assert kernel.multiply_monomials((0, 0, 1), (1, 0, 0)) == {
        (1, 0, 1): 1, (0, 1, 0): 1}
    # x*y^2 = y^2 x + 2 y h - 2 y
    assert kernel.multiply_monomials((0, 0, 1), (2, 0, 0)) == {
        (2, 0, 1): 1, (1, 1, 0): 2, (1, 0, 0): -2}
    # already ordered words pass through
    assert kernel.multiply_monomials((1, 0, 0), (0, 0, 1)) == {(1, 0, 1): 1}
    assert kernel.multiply_monomials((0, 0, 0), (1, 2, 3)) == {(1, 2, 3): 1}


def test_kernel_is_associative_on_words():
    kernel = StraightenKernel(3, A1_TABLE)
    rng = random.Random(5)
    for _ in range(50):
        monos = []
        for _ in range(3):
            e = [0, 0, 0]
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(3)] += 1
            monos.append(tuple(e))
        a, b, c = monos

        def mul(terms, mono):
            out = {}
            for m1, c1 in terms.items():
                for m2, c2 in kernel.multiply_monomials(m1, mono).items():
                    out[m2] = out.get(m2, 0) + c1 * c2
            return {m: v for m, v in out.items() if v}

        left = mul(kernel.multiply_monomials(a, b), c)
        right = {}
        for m1, c1 in kernel.multiply_monomials(b, c).items():
            for m2, c2 in kernel.multiply_monomials(a, m1).items():
                right[m2] = right.get(m2, 0) + c1 * c2
        right = {m: v for m, v in right.items() if v}
        assert left == right


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in a]


def _sl2_irrep(m):
    """Integer matrices of y, h, x on V(m) in the basis v_0, ..., v_m."""
    dim = m + 1
    y = [[0] * dim for _ in range(dim)]
    h = [[0] * dim for _ in range(dim)]
    x = [[0] * dim for _ in range(dim)]
    for j in range(dim):
        h[j][j] = m - 2 * j
        if j + 1 < dim:
            y[j + 1][j] = 1
        if j:
            x[j - 1][j] = j * (m - j + 1)
    return y, h, x


@pytest.mark.parametrize("n", [8, 12, 14])
def test_high_powers_agree_with_sl2_representation(n):
    # x^n y^n acts nonzero on V(2n), so every normal-form term is tested
    terms = StraightenKernel(3, A1_TABLE).multiply_monomials((0, 0, n), (n, 0, 0))
    gens = _sl2_irrep(2 * n)
    dim = 2 * n + 1
    powers = [[[[int(i == j) for j in range(dim)] for i in range(dim)]]
              for _ in gens]
    for g, mat in zip(powers, gens):
        for _ in range(n):
            g.append(_matmul(g[-1], mat))
    ys, hs, xs = powers
    total = [[0] * dim for _ in range(dim)]
    for (a, b, c), coef in terms.items():
        term = _matmul(_matmul(ys[a], hs[b]), xs[c])
        for i in range(dim):
            for j in range(dim):
                total[i][j] += coef * term[i][j]
    assert total == _matmul(xs[n], ys[n])
