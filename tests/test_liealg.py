import itertools
import random
from fractions import Fraction as F

import pytest

from bggkit.errors import DomainError
from bggkit.liealg import (UEAElement, bracket, build_chevalley, casimir,
                           evaluate_at, h_substitute, hc_project, transpose)
from bggkit.rootdata import Weight, cached_root_system


def random_element(alg, rng, max_degree=3, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * alg.d
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(alg.d)] += 1
        coef = F(rng.randint(-9, 9), rng.randint(1, 5))
        key = tuple(exps)
        terms[key] = terms.get(key, F(0)) + coef
    return UEAElement(alg, terms)


def random_weight_zero(alg, rng):
    """Product of x_beta y_beta pairs and h's: lands in the commutant of h."""
    out = alg.one()
    for _ in range(rng.randint(1, 2)):
        pos = rng.randrange(alg.m)
        out = out * (alg.x(pos) * alg.y(pos))
    if rng.random() < 0.5:
        out = out * alg.h(rng.randrange(alg.l))
    return out


# -- structure constants ------------------------------------------------------

def test_a1_chevalley_relations(a1):
    x, y, h = a1.x(0), a1.y(0), a1.h(0)
    assert bracket(x, y) == h
    assert bracket(h, x) == 2 * x
    assert bracket(h, y) == (-2) * y
    assert bracket(x, x).is_zero()


def test_a2_extraspecial_coefficient(a2):
    x1 = a2.x_of_root((1, 0))
    x2 = a2.x_of_root((0, 1))
    br = bracket(x1, x2)
    ((exps, coef),) = br.terms.items()
    assert abs(coef) == 1
    assert exps[a2.x_index(a2.root_position((1, 1)))] == 1


def test_cartan_abelian():
    for label in ("A2", "B2", "G2"):
        alg = build_chevalley(cached_root_system(label))
        for i in range(alg.l):
            for j in range(alg.l):
                assert bracket(alg.h(i), alg.h(j)).is_zero()


def test_h_acts_by_root_values(b2):
    rs = b2.rs
    for pos, beta in enumerate(rs.positive_roots):
        wt = rs.root_to_weight(beta)
        for i in range(b2.l):
            assert bracket(b2.h(i), b2.x(pos)) == wt.coords[i] * b2.x(pos)
            assert bracket(b2.h(i), b2.y(pos)) == (-wt.coords[i]) * b2.y(pos)


def test_xy_bracket_gives_coroot(b2):
    rs = b2.rs
    for pos, beta in enumerate(rs.positive_roots):
        expected = b2.zero()
        for i, c in enumerate(rs.coroot(beta)):
            if c:
                expected = expected + c * b2.h(i)
        assert bracket(b2.x(pos), b2.y(pos)) == expected


def test_structure_constants_are_integers(b2):
    for entries in b2._table.values():
        for _, c in entries:
            assert isinstance(c, int)


def test_g2_has_magnitude_three_constant():
    g2 = build_chevalley(cached_root_system("G2"))
    magnitudes = {abs(c) for entries in g2._table.values() for _, c in entries
                  if not isinstance(c, tuple)}
    assert 3 in magnitudes  # the long root string in G2


def test_bracket_rejects_higher_degree(a1):
    with pytest.raises(DomainError):
        bracket(a1.x(0) * a1.y(0), a1.h(0))


# -- PBW multiplication ----------------------------------------------------------

def test_multiply_examples(a1):
    x, y, h = a1.x(0), a1.y(0), a1.h(0)
    assert x * y == y * x + h
    assert x * (y * y) == (y * y) * x + 2 * (y * h) - 2 * y
    u = x * y * h + 3 * y
    assert a1.one() * u == u
    assert u * a1.one() == u


def test_multiply_associative_random():
    rng = random.Random(23)
    for label in ("A1", "A2", "B2"):
        alg = build_chevalley(cached_root_system(label))
        for _ in range(12):
            u = random_element(alg, rng)
            v = random_element(alg, rng)
            w = random_element(alg, rng)
            assert (u * v) * w == u * (v * w)


def test_uh_is_commutative(a2):
    rng = random.Random(3)
    for _ in range(10):
        exps1 = tuple(0 if i < a2.m or i >= a2.m + a2.l else rng.randint(0, 3)
                      for i in range(a2.d))
        exps2 = tuple(0 if i < a2.m or i >= a2.m + a2.l else rng.randint(0, 3)
                      for i in range(a2.d))
        u, v = a2.monomial(exps1), a2.monomial(exps2)
        assert u * v == v * u


def test_weight_additivity(a2):
    rng = random.Random(17)
    for _ in range(15):
        e1 = [0] * a2.d
        e2 = [0] * a2.d
        for _ in range(rng.randint(1, 3)):
            e1[rng.randrange(a2.d)] += 1
        for _ in range(rng.randint(1, 3)):
            e2[rng.randrange(a2.d)] += 1
        u, v = a2.monomial(e1), a2.monomial(e2)
        wu = u.homogeneous_weight()
        wv = v.homogeneous_weight()
        prod = u * v
        if prod.is_zero():
            continue
        expected = tuple(a + b for a, b in zip(wu, wv))
        assert prod.homogeneous_weight() == expected


def test_scalar_and_additive_structure(a1):
    x, y = a1.x(0), a1.y(0)
    u = 3 * x - F(1, 2) * y
    assert u + (-u) == a1.zero()
    assert (u - u).is_zero()
    assert 0 * u == a1.zero()
    assert u * 2 == 2 * u
    assert (x + y) ** 2 == x * x + x * y + y * x + y * y


def test_mixed_algebra_rejected(a1, a2):
    with pytest.raises(DomainError):
        a1.x(0) * a2.x(0)


# -- transpose ---------------------------------------------------------------------

def test_transpose_examples(a1):
    x, y, h = a1.x(0), a1.y(0), a1.h(0)
    assert transpose(x) == y
    assert transpose(y) == x
    assert transpose(h) == h
    assert transpose(x * y) == transpose(y) * transpose(x)


def test_transpose_involution_and_antiautomorphism():
    rng = random.Random(29)
    for label in ("A1", "A2", "B2"):
        alg = build_chevalley(cached_root_system(label))
        for _ in range(10):
            u = random_element(alg, rng)
            v = random_element(alg, rng)
            assert transpose(transpose(u)) == u
            assert transpose(u * v) == transpose(v) * transpose(u)


# -- Harish-Chandra projection -------------------------------------------------------

def test_hc_project_examples(a1):
    x, y, h = a1.x(0), a1.y(0), a1.h(0)
    assert hc_project(x * y) == h
    assert hc_project(y * x).is_zero()
    p = h * h + 2 * h
    assert hc_project(p) == p


def test_hc_project_multiplicative_on_weight_zero():
    rng = random.Random(31)
    for label in ("A1", "A2"):
        alg = build_chevalley(cached_root_system(label))
        for _ in range(8):
            u = random_weight_zero(alg, rng)
            v = random_weight_zero(alg, rng)
            assert hc_project(u * v) == hc_project(u) * hc_project(v)


def test_evaluate_examples(a1):
    h = a1.h(0)
    assert evaluate_at(h, a1.rs.rho()) == 1
    assert evaluate_at(h * h + 2 * h, Weight([3])) == 15
    assert evaluate_at(a1.one(), Weight([3])) == 1
    with pytest.raises(DomainError):
        evaluate_at(a1.x(0), Weight([3]))


def test_h_substitute_shifts(a2):
    h1, h2 = a2.h(0), a2.h(1)
    p = h1 * h2 + h1
    shifted = h_substitute(p, [1, -1])
    expected = (h1 + a2.one()) * (h2 - a2.one()) + h1 + a2.one()
    assert shifted == expected


# -- Casimir ------------------------------------------------------------------------

def test_casimir_a1_value(a1):
    omega = casimir(a1)
    x, y, h = a1.x(0), a1.y(0), a1.h(0)
    assert 8 * omega == h * h + 2 * h + 4 * (y * x)


def test_casimir_central_and_weight_zero():
    for label in ("A1", "A2", "B2"):
        alg = build_chevalley(cached_root_system(label))
        omega = casimir(alg)
        assert omega.is_weight_zero()
        for pos in range(alg.m):
            xb = alg.x(pos)
            assert omega * xb == xb * omega


def test_element_presentation(a1):
    x, y, h = a1.x(0), a1.y(0), a1.h(0)
    assert str(a1.zero()) == "0"
    assert str(x * y) == "h1 + y(1)*x(1)"
    assert str(-2 * h) == "-2*h1"


def test_monomial_validation(a1):
    with pytest.raises(DomainError):
        a1.monomial((1, 2))
    with pytest.raises(DomainError):
        a1.monomial((-1, 0, 0))
    with pytest.raises(DomainError):
        a1.x_of_root((2,))
