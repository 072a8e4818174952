import collections
import copy
import itertools
import json
import pickle
import random
from fractions import Fraction as F

import pytest

from bggkit import category, cli, exactla, harish, rootdata, selftest
from bggkit.category import (VermaModule, VermaSlice, VermaVector, block_report,
                             cartan_matrix, decomposition_matrix,
                             maximal_vectors, projective_filtration_matrix,
                             raising_matrix, shapovalov_matrix,
                             simple_weight_mult, verma_is_simple)
from bggkit.errors import ConsistencyError, DepthOverflowError, DomainError
from bggkit.liealg import LieAlgebraData, UEAElement, build_chevalley, casimir
from bggkit.rootdata import Weight, build_root_system, cached_root_system


def _alg(label):
    return build_chevalley(cached_root_system(label))


# -- Verma slices and the action ------------------------------------------------

def test_weight_space_basis_refuses_nu_of_the_wrong_rank(a2):
    with pytest.raises(DomainError, match="wrong rank"):
        category.weight_space_basis(a2, (1,))
    with pytest.raises(DomainError, match="wrong rank"):
        category.weight_space_basis(a2, (1, 1, 0))


def test_weight_space_basis_dimensions(a1, a2):
    for k in range(7):
        assert category.weight_space_basis(a1, (k,)) == ((k,),)
    assert len(category.weight_space_basis(a2, (1, 1))) == 2
    assert len(category.weight_space_basis(a2, (2, 1))) == 2
    assert len(category.weight_space_basis(a2, (5, 5))) == 6
    assert category.weight_space_basis(a2, (-1, 5)) == ()
    for nu in category.gamma_elements(a2, 6):
        assert len(category.weight_space_basis(a2, nu)) == a2.rs.kostant_p(nu)


def test_act_examples(a1):
    lam = Weight([3])
    s = VermaSlice(a1, lam, 4)
    v = VermaVector(a1, {(0,) * a1.m: 1})
    assert s.act(a1.h(0), v).terms == {(0,): F(3)}
    assert s.act(a1.x(0), v).is_zero()
    yv = s.act(a1.y(0), v)
    assert s.act(a1.x(0), yv).terms == {(0,): F(3)}


def test_act_is_linear_and_compatible(a2):
    lam = Weight([1, 2])
    s = VermaSlice(a2, lam, 4)
    v = VermaVector(a2, {(0,) * a2.m: 1})
    y1, y2 = (a2.y(a2.root_position(r)) for r in a2.rs.simple_roots())
    u1 = y1 * y2
    u2 = y2 * y1
    left = s.act(u1, v)
    right = s.act(y1, s.act(y2, v))
    assert left == right
    assert s.act(u1 + u2, v).terms == {
        k: left.terms.get(k, F(0)) + s.act(u2, v).terms.get(k, F(0))
        for k in set(left.terms) | set(s.act(u2, v).terms)}


@pytest.mark.parametrize("key", [(-1,), (1, 0), (), (1.5,), (F(1),), ("1",)],
                         ids=["negative", "long", "empty", "float", "fraction", "string"])
def test_verma_vector_refuses_malformed_monomials(a1, key):
    # on A1 with lam = 3, x(0) acting on {(-1,): 1} or {(1, 0): 1} gave 3*1.v,
    # and {(1.5,): 1} printed as 1*y(1)^1.5.v
    for coef in (1, 0):
        with pytest.raises(DomainError, match="bad exponent vector"):
            VermaVector(a1, {key: coef})


def test_verma_vector_keeps_well_formed_monomials(a1, a2):
    assert VermaVector(a1, {(2,): 3, (300,): F(1, 2), (1,): 0}).terms == {
        (2,): F(3), (300,): F(1, 2)}
    v = VermaVector(a2, {(0, 1, 0): 1})
    assert v.terms == {(0, 1, 0): F(1)} and repr(v) == "1*y(1,0).v"


def test_act_depth_overflow(a1):
    s = VermaSlice(a1, Weight([0]), 2)
    v = VermaVector(a1, {(0,) * a1.m: 1})
    deep = a1.monomial((3, 0, 0))
    with pytest.raises(DepthOverflowError):
        s.act(deep, v)


@pytest.mark.parametrize("depth", [-1, 2.5, True])
@pytest.mark.parametrize("call", [
    lambda alg, depth: VermaSlice(alg, Weight([0, 0]), depth),
    lambda alg, depth: maximal_vectors(alg, Weight([0, 0]), (1, 0), depth),
    lambda alg, depth: maximal_vectors(alg, Weight([0, 0]), (-1, 0), depth),
], ids=["VermaSlice", "maximal_vectors", "maximal_vectors-off-gamma"])
def test_a_depth_that_is_not_a_nonnegative_int_is_refused(a2, call, depth):
    with pytest.raises(DomainError, match="depth must be a nonnegative integer"):
        call(a2, depth)


@pytest.mark.parametrize("depth", [-1, 2.5, True])
@pytest.mark.parametrize("call", [decomposition_matrix, block_report])
def test_a_block_refuses_a_depth_that_is_not_a_nonnegative_int(a1, call, depth):
    with pytest.raises(DomainError, match="depth must be a nonnegative integer"):
        call(a1, Weight([-1]), depth)


@pytest.mark.parametrize("call", [decomposition_matrix, block_report])
def test_a_block_takes_no_depth_or_a_nonnegative_int(a1, call):
    """The block of 1 reaches depth 2 = 1 - (-3); a larger depth is kept."""
    assert [call(a1, Weight([1]), depth).depth for depth in (None, 0, 2, 3)] == [2, 2, 2, 3]


# -- maximal vectors --------------------------------------------------------------

def test_maximal_vector_examples(a1):
    # lam with <lam, alpha-check> = n in Z_{>=0}: y^(n+1) v is maximal
    for n in range(4):
        lam = Weight([n])
        found = maximal_vectors(a1, lam, ((n + 1),))
        assert len(found) == 1
        ((mono, coef),) = found[0].terms.items()
        assert mono == (n + 1,)
    # antidominant: no maximal vectors anywhere
    for nu in range(1, 5):
        assert maximal_vectors(a1, Weight([-1]), (nu,)) == []
        assert maximal_vectors(a1, Weight([F(1, 2)]), (nu,)) == []
    # nu landing off the linkage class: empty
    assert maximal_vectors(a1, Weight([3]), (2,)) == []


def test_maximal_vectors_off_gamma_is_empty(a1, a2):
    # the weight space is zero; no depth was given, so none is refused
    assert maximal_vectors(a1, Weight([0]), (-1,)) == []
    assert maximal_vectors(a1, Weight([0]), (-1,), depth=0) == []
    assert maximal_vectors(a2, Weight([0, 0]), (-2, 1)) == []


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_maximal_vectors_at_nu_zero_is_the_top_vector(label, capsys):
    # no x_i applies at nu = 0: the kernel of no rows is the whole space
    alg = _alg(label)
    zero = (0,) * alg.l
    for coords in ([0] * alg.l, [1] + [-2] * (alg.l - 1), [F(1, 2)] * alg.l):
        (top,) = maximal_vectors(alg, Weight(coords), zero)
        assert top.terms == {(0,) * alg.m: 1}
    zeros = ",".join(["0"] * alg.l)
    argv = ["maximal-vectors", "--type", label, "--weight=" + zeros, "--nu=" + zeros]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (f"1 maximal vector(s) at nu={zeros}\n  1*1.v\n", "")
    assert cli.main(argv + ["--json"]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out), err) == ({"count": 1, "nu": list(zero),
                                       "weight": list(zero),
                                       "vectors": [[{"coef": 1,
                                                     "exps": [0] * alg.m}]]}, "")


def test_maximal_vector_a2_nontrivial(a2):
    # lam = 0: maximal vector in depth alpha1 + alpha2? None (only at
    # reflection positions alpha_i and the w0 position)
    assert maximal_vectors(a2, Weight([0, 0]), (1, 0)) != []
    assert maximal_vectors(a2, Weight([0, 0]), (0, 1)) != []
    assert maximal_vectors(a2, Weight([0, 0]), (1, 1)) == []
    assert maximal_vectors(a2, Weight([0, 0]), (2, 1)) != []


def test_maximal_vectors_builds_no_space_below_nu(monkeypatch):
    alg = _alg("A3")
    nu = (1, 1, 1)
    build = category.weight_space_basis

    def spy(alg_, mu):
        assert sum(mu) <= sum(nu), f"built the weight space at {mu}"
        return build(alg_, mu)

    monkeypatch.setattr(category, "weight_space_basis", spy)
    deep = maximal_vectors(alg, Weight([0, 0, 0]), nu, depth=40)
    assert deep == maximal_vectors(alg, Weight([0, 0, 0]), nu)
    with pytest.raises(DomainError, match="below the requested truncation"):
        maximal_vectors(alg, Weight([0, 0, 0]), nu, depth=2)


# -- Shapovalov oracle ------------------------------------------------------------

def test_shapovalov_examples(a1):
    assert shapovalov_matrix(a1, Weight([5]), (0,)) == [[F(1)]]
    for lam in (0, 1, 3, -2):
        assert shapovalov_matrix(a1, Weight([lam]), (1,)) == [[F(lam)]]
        expected = 2 * F(lam) * (F(lam) - 1)
        assert shapovalov_matrix(a1, Weight([lam]), (2,)) == [[expected]]


def _oracle_polynomials(alg, nu):
    """Shapovalov polynomials by the full U(g) product: the U(h) part of
    sigma(y^A) * y^B."""
    pad = (0,) * (alg.l + alg.m)
    elements = [alg.monomial(mono + pad) for mono in category.weight_space_basis(alg, nu)]
    return [[(e.transpose() * f).hc_project() for f in elements] for e in elements]


def _windowed_polynomials(alg, nu):
    """Shapovalov polynomials word by word: each entry is the one word
    sigma(y^A) y^B, the x's of sigma(y^A) followed by the y's of y^B,
    straightened with the kernel's U(h) window, which drops a word that
    starts with a y or ends with an x as soon as it appears."""
    basis = category.weight_space_basis(alg, nu)
    window = (alg.m, alg.m + alg.l)  # the h's
    ys = [tuple((k, e) for k, e in enumerate(mono) if e) for mono in basis]
    # sigma reverses y^A and swaps each y for the x of its root
    xs = [tuple((alg.transpose_index(k), e) for k, e in reversed(y)) for y in ys]
    return [[UEAElement(alg, alg.kernel.normal_order_word(x + y, window)) for y in ys]
            for x in xs]


def test_shapovalov_symmetric(a2, b2):
    rng = random.Random(37)
    for alg in (a2, b2):
        for _ in range(6):
            lam = Weight([F(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(alg.l)])
            nu = tuple(rng.randint(0, 2) for _ in range(alg.l))
            full = [[p.evaluate_at(lam) for p in row]
                    for row in _oracle_polynomials(alg, nu)]
            n = len(full)
            assert all(full[i][j] == full[j][i]
                       for i in range(n) for j in range(n))
            assert shapovalov_matrix(alg, lam, nu) == full


@pytest.mark.parametrize("label, height", [("A1", 5), ("A2", 5), ("B2", 5), ("G2", 5),
                                           ("A3", 4), ("B3", 3)])
def test_shapovalov_window_matches_full_product(label, height):
    """Every entry, in both triangles, against the full-product oracle.
    Each route runs on its own fresh algebra, so neither reads pair
    products or levels that the other left in a cache."""
    alg = LieAlgebraData(build_root_system(label))
    ref = LieAlgebraData(build_root_system(label))
    for nu in category.gamma_elements(alg, height):
        basis, polys = category.shapovalov_polynomial_matrix(alg, nu)
        assert basis == category.weight_space_basis(ref, nu)
        expected = _oracle_polynomials(ref, nu)
        assert [[p.terms for p in row] for row in polys] == \
            [[p.terms for p in row] for row in expected], (label, nu)


@pytest.mark.parametrize("label, nu", [("A3", (3, 3, 3)), ("G2", (4, 3))] + [
    ("B3", nu) for nu in itertools.product(range(4), repeat=3) if sum(nu) <= 3],
    ids=lambda value: ",".join(map(str, value)) if isinstance(value, tuple) else value)
def test_shapovalov_recursion_matches_the_windowed_words(label, nu):
    """Every entry, in both triangles, against the windowed words, each
    route cold on its own fresh algebra: the recursion builds every level
    below nu that its first factors reach, the words none."""
    alg = LieAlgebraData(build_root_system(label))
    ref = LieAlgebraData(build_root_system(label))
    _, polys = category.shapovalov_polynomial_matrix(alg, nu)
    assert [[p.terms for p in row] for row in polys] == \
        [[p.terms for p in row] for row in _windowed_polynomials(ref, nu)]


@pytest.mark.parametrize("label, nu", [("A2", (3, 2)), ("B2", (2, 4)), ("G2", (3, 2)),
                                       ("A3", (1, 2, 1))])
def test_a_cold_shapovalov_call_keeps_only_levels_below_nu(label, nu):
    """A cold call keeps nu and levels nu' with nu - nu' in Gamma, the
    zero level among them, and reads them again when warm."""
    alg = LieAlgebraData(build_root_system(label))
    cold = category.shapovalov_polynomial_matrix(alg, nu)
    kept = alg.cache["shapovalov_polynomial_matrix"]
    assert nu in kept and (0,) * alg.l in kept
    assert all(min(a - b for a, b in zip(nu, level)) >= 0 for level in kept), sorted(kept)
    before = dict(kept)
    warm = category.shapovalov_polynomial_matrix(alg, nu)
    assert warm == cold and dict(kept) == before
    for level in kept:  # a stored level is the one a cold call there builds
        fresh = LieAlgebraData(build_root_system(label))
        _, polys = category.shapovalov_polynomial_matrix(fresh, level)
        assert [[p.terms for p in row] for row in kept[level][1]] == \
            [[p.terms for p in row] for row in polys]


def test_shapovalov_refuses_a_height_past_its_packing():
    alg = LieAlgebraData(build_root_system("A1"))
    with pytest.raises(DomainError, match="too high"):
        category.shapovalov_polynomial_matrix(alg, (1 << 16,))
    assert "weight_space_basis" not in alg.cache  # refused before any level


def _wall_vectors(rs, lam):
    """The walls n*beta of lam, n = <lam+rho, beta-check> a positive
    integer, through Fraction pairings."""
    shifted = lam + rs.rho()
    return [tuple(int(n) * b for b in beta) for beta in rs.positive_roots
            for n in (rs.pairing_root(shifted, beta),) if n.denominator == 1 and n > 0]


def _walls_reaching(walls, nu):
    """How many of the walls reach nu: nu - wall >= 0."""
    return sum(all(c >= w for c, w in zip(nu, wall)) for wall in walls)


@pytest.mark.parametrize("label, depth", [("A1", 8), ("A2", 4), ("B2", 4), ("G2", 3),
                                          ("A3", 4), ("G2", 4)])
def test_verma_module_matches_shapovalov_rank(monkeypatch, label, depth):
    """The radical recursion against the rank of the contravariant form,
    through both entry points: the audit, which reads the rank where one
    wall reaches nu and eliminates where walls meet, and simple_mult,
    which fills one box [0, nu] at a time, here in reverse height order.
    Where the audit built a quotient map, simple_mult built the same one.
    The weights reach one-wall nu, and multi-wall nu wherever there are
    two positive roots."""
    alg = _alg(label)
    rs = alg.rs
    audits = []

    class Audited(VermaModule):
        def __init__(self, *args):
            super().__init__(*args)
            audits.append(self)

    monkeypatch.setattr(category, "VermaModule", Audited)
    nus = category.gamma_elements(alg, depth)
    rng = random.Random(1152)
    weights = [Weight([F(rng.randint(-4 * den, 4 * den), den) for _ in range(alg.l)])
               for den in (1, 2, 3) for _ in range(4)]
    # omega_1: its walls 2*alpha_1 and alpha_2 meet at height 3
    weights.append(Weight([1] + [0] * (alg.l - 1)))
    reaching = collections.Counter()
    for lam in weights:
        expected = {nu: exactla.rank(shapovalov_matrix(alg, lam, nu)) if any(nu) else 1
                    for nu in nus}
        report = verma_is_simple(alg, lam, depth)
        assert report.ranks == tuple((nu, expected[nu], rs.kostant_p(nu))
                                     for nu in nus[1:]), lam
        module = VermaModule(alg, lam)
        for nu in reversed(nus):
            assert module.simple_mult(nu) == expected[nu], (lam, nu)
        audited = audits[-1]._quotients
        assert {nu: module._quotients[nu] for nu in audited} == audited, lam
        walls = _wall_vectors(rs, lam)
        reaching.update(min(_walls_reaching(walls, nu), 2) for nu in nus[1:])
    assert reaching[1]
    assert reaching[2] or rs.num_positive == 1


@pytest.mark.parametrize("label, coords", [
    ("A2", (F(1, 2), F(1, 3))), ("A3", (-1, -1, -1)), ("A2", (0, 0)),
    ("A2", (0, F(1, 2))), ("B2", (1, F(-3, 2))),
], ids=["A2-wall-free", "A3-minus-rho", "A2-0,0", "A2-one-wall", "B2-mixed"])
def test_rank_work_only_on_walls(monkeypatch, label, coords):
    """The audit reduces a stacked matrix once at each nu where two walls
    meet and at each wall-reached nu above one (nu <= it), which such a
    stack reads, and builds x_i matrices nowhere else; simple_mult on
    the box [0, nu] reduces once at each nu that a wall reaches.  (A
    stack can be empty, with no x_i matrix, when every quotient above it
    is zero.)"""
    alg = _alg(label)
    lam = Weight(list(coords))
    reduced = []
    raised = set()
    row_basis = exactla.row_basis
    build = category.raising_matrix

    def count_row_basis(rows):
        reduced.append(rows)
        return row_basis(rows)

    def record_raising(alg_, i, nu):
        raised.add(tuple(nu))
        return build(alg_, i, nu)

    monkeypatch.setattr(exactla, "row_basis", count_row_basis)
    monkeypatch.setattr(category, "raising_matrix", record_raising)
    report = verma_is_simple(alg, lam, 5)
    # selftest's reading of the Shapovalov determinant's support
    on_walls = {nu for nu, _, _ in report.ranks
                if not selftest._degeneracy_prediction(alg, lam, nu)}
    walls = _wall_vectors(alg.rs, lam)
    meets = {nu for nu in on_walls if _walls_reaching(walls, nu) > 1}
    above = {nu for nu in on_walls if any(all(a <= b for a, b in zip(nu, top)) for top in meets)}
    assert raised <= above
    assert len(reduced) == len(above)
    assert report.nondegenerate == (not on_walls)
    reduced.clear()
    raised.clear()
    VermaModule(alg, lam).simple_mult((2,) * alg.l)
    in_box = {nu for nu in itertools.product(range(3), repeat=alg.l)
              if not selftest._degeneracy_prediction(alg, lam, nu)}
    assert raised <= in_box
    assert len(reduced) == len(in_box)


@pytest.mark.parametrize("label, coords", [
    ("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 0)), ("A3", (0, F(1, 2), 0)),
], ids=["A2", "B2", "G2", "A3-rational"])
def test_the_audit_checks_its_one_wall_ranks(monkeypatch, label, coords):
    """A one-wall nu that the audit eliminates at, because a nu where
    walls meet stacks on it, must give P(nu) - P(nu - n*beta): a row
    basis one pivot too long raises there."""
    alg = _alg(label)
    row_basis = exactla.row_basis

    def one_pivot_too_many(rows):
        basis = row_basis(rows)
        return basis + basis[:1]

    monkeypatch.setattr(exactla, "row_basis", one_pivot_too_many)
    with pytest.raises(ConsistencyError, match="breaks the Jantzen bounds"):
        verma_is_simple(alg, Weight(list(coords)), 4)


@pytest.mark.parametrize("rows", [
    lambda n: [[int(i == j) for j in range(n)] for i in range(n)], lambda n: [],
], ids=["full-rank", "zero-rank"])
def test_the_audit_checks_its_ranks_where_walls_meet(monkeypatch, rows):
    """On A2 (1,1) the walls 2*alpha_1 and 2*alpha_2 meet at nu = (2,2),
    where P(nu) = 3 and the rank is 1.  A full rank there breaks the lower
    Jantzen bound 1 <= P(nu) - rank, a zero rank the upper bound
    P(nu) - rank <= P(nu - 2*alpha_1) + P(nu - 2*alpha_2) = 2."""
    alg = _alg("A2")
    stacked = VermaModule._stacked

    def corrupted_at_the_meet(self, nu):
        return rows(3) if nu == (2, 2) else stacked(self, nu)

    lam = Weight([1, 1])
    assert dict((nu, rank) for nu, rank, _ in verma_is_simple(alg, lam, 4).ranks)[2, 2] == 1
    monkeypatch.setattr(VermaModule, "_stacked", corrupted_at_the_meet)
    with pytest.raises(ConsistencyError, match=r"at \(2, 2\) breaks the Jantzen bounds"):
        verma_is_simple(alg, lam, 4)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_jantzen_sum_formula_bounds(label):
    """dim of the maximal submodule at nu against the Jantzen sum formula.

    With T the positive roots beta whose n = <lam+rho, beta-check> is a
    positive integer, M(s_beta . lam) = M(lam - n beta) embeds in the
    maximal submodule M^1 for each beta in T, and the Jantzen filtration
    M^1 > M^2 > ... has sum_i ch M^i = sum_{beta in T} ch M(lam - n beta).
    So P(nu - n beta) <= dim M^1_{lam-nu} <= sum_beta P(nu - n beta).
    """
    alg = _alg(label)
    rs = alg.rs
    rng = random.Random(label)
    reached = 0
    for den in (1, 1, 1, 2, 3):
        lam = Weight([F(rng.randint(-3 * den, 3 * den), den) for _ in range(alg.l)])
        values = [(beta, rs.pairing_root(lam + rs.rho(), beta))
                  for beta in rs.positive_roots]
        walls = [(beta, int(n)) for beta, n in values if n.denominator == 1 and n > 0]
        module = VermaModule(alg, lam)
        for nu in category.gamma_elements(alg, 4):
            below = [rs.kostant_p(tuple(c - n * b for c, b in zip(nu, beta)))
                     for beta, n in walls]
            radical = rs.kostant_p(nu) - module.simple_mult(nu)
            assert max(below, default=0) <= radical <= sum(below), (lam, nu)
            reached += radical > 0
    assert reached


_OFF_GAMMA = (F(5, 2), 1)  # int() per coordinate would read (2, 1)
_NON_FINITE = ((float("nan"), 0), (float("inf"), 0), (0, float("-inf")))


@pytest.mark.parametrize("call, empty", [
    (lambda alg, nu: category.weight_space_basis(alg, nu), ()),
    (lambda alg, nu: maximal_vectors(alg, Weight([0, 0]), nu), []),
    (lambda alg, nu: category.shapovalov_polynomial_matrix(alg, nu), ((), ())),
    (lambda alg, nu: shapovalov_matrix(alg, Weight([0, 0]), nu), []),
    (lambda alg, nu: simple_weight_mult(alg, Weight([0, 0]), nu), 0),
], ids=["weight_space_basis", "maximal_vectors", "shapovalov_polynomial_matrix",
        "shapovalov_matrix", "simple_weight_mult"])
def test_non_integral_nu_is_off_gamma(a2, call, empty):
    for nu in (_OFF_GAMMA,) + _NON_FINITE:
        assert call(a2, nu) == empty


def test_raising_matrix_rejects_non_integral_nu(a2):
    with pytest.raises(DomainError):
        raising_matrix(a2, 0, _OFF_GAMMA)


def test_nu_of_the_wrong_rank_is_refused(a2):
    with pytest.raises(DomainError, match="wrong rank"):
        maximal_vectors(a2, Weight([0, 0]), (1,))
    with pytest.raises(DomainError, match="wrong rank"):
        VermaModule(a2, Weight([0, 0])).simple_mult((1,))


def test_the_verma_audit_reads_the_raising_memo_first(monkeypatch):
    alg = build_chevalley(build_root_system("A2"))
    lam = Weight([0, 0])
    built = []
    build = category.raising_matrix

    def record(alg_, i, nu):
        built.append((i, nu))
        return build(alg_, i, nu)

    monkeypatch.setattr(category, "raising_matrix", record)
    cold = VermaModule(alg, lam).simple_mult((2, 2))
    assert built  # a miss builds the matrix through raising_matrix
    built.clear()
    assert VermaModule(alg, lam).simple_mult((2, 2)) == cold
    assert built == []  # every x_i matrix is a memo hit


def test_raising_matrix_rejects_h_degree_above_one():
    alg = LieAlgebraData(build_root_system("A1"))

    class SquaredH:
        def multiply_monomials(self, a, b, window=None):
            return {(0, 2, 0): 1}  # h^2: impossible for x_i . y^A

    alg.kernel = SquaredH()
    with pytest.raises(ConsistencyError):
        raising_matrix(alg, 0, (1,))


def _brute_force_basis(rs, nu):
    """Every y-exponent vector in the box that nu's coordinates bound, of
    weight -nu, sorted; slot k is the y of positive root m-1-k."""
    roots = rs.positive_roots[::-1]
    box = [range(min(n // b for n, b in zip(nu, beta) if b) + 1) for beta in roots]
    return sorted(exps for exps in itertools.product(*box)
                  if all(sum(e * beta[i] for e, beta in zip(exps, roots)) == n
                         for i, n in enumerate(nu)))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_weight_space_basis_matches_brute_force(label):
    alg = LieAlgebraData(build_root_system(label))
    for nu in category.gamma_elements(alg, 6):
        basis = category.weight_space_basis(alg, nu)
        assert list(basis) == _brute_force_basis(alg.rs, nu), nu
        assert len(basis) == alg.rs.kostant_p(nu)
        assert all(a < b for a, b in zip(basis, basis[1:]))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_raising_window_drops_exactly_the_x_ending_terms(label):
    """x_i y^A with the window of the y's and h's against the full
    product with its x-containing monomials filtered out, each on a fresh
    algebra so that neither route reads the other's pair products."""
    alg = LieAlgebraData(build_root_system(label))
    ref = LieAlgebraData(build_root_system(label))
    m, l = alg.m, alg.l
    pad = (0,) * (l + m)
    compared = dropped = 0
    for i, alpha in enumerate(alg.rs.simple_roots()):
        x_exps = [0] * alg.d
        x_exps[alg.x_index(alg.root_position(alpha))] = 1
        x_exps = tuple(x_exps)
        for nu in category.gamma_elements(alg, 5):
            for mono in category.weight_space_basis(alg, nu):
                full = ref.kernel.multiply_monomials(x_exps, mono + pad)
                kept = {e: c for e, c in full.items() if not any(e[m + l:])}
                got = alg.kernel.multiply_monomials(x_exps, mono + pad, (0, m + l))
                assert got == kept, (i, mono)
                compared += 1
                dropped += len(full) - len(kept)
    assert compared and dropped


def test_simple_weight_mult_examples(a1):
    assert simple_weight_mult(a1, Weight([3]), (0,)) == 1
    assert simple_weight_mult(a1, Weight([3]), (3,)) == 1
    assert simple_weight_mult(a1, Weight([3]), (4,)) == 0
    assert simple_weight_mult(a1, Weight([3]), (7,)) == 0
    # off Gamma, not truncated to (1,) or (2,)
    assert simple_weight_mult(a1, Weight([3]), (F(3, 2),)) == 0
    assert simple_weight_mult(a1, Weight([3]), (2.5,)) == 0
    assert simple_weight_mult(a1, Weight([3]), (F(2),)) == 1
    # antidominant weights keep full rank
    for k in range(1, 7):
        assert simple_weight_mult(a1, Weight([-1]), (k,)) == 1


def test_simple_weight_mult_sums_to_weyl_dimension(a2):
    lam = Weight([1, 1])
    total = sum(simple_weight_mult(a2, lam, nu)
                for nu in category.gamma_elements(a2, 4))
    assert total == 8


# -- simplicity -------------------------------------------------------------------

def test_verma_is_simple_examples(a1):
    rep = verma_is_simple(a1, Weight([-1]), 6)
    assert rep.verdict and rep.nondegenerate
    rep0 = verma_is_simple(a1, Weight([0]), 6)
    assert not rep0.verdict
    assert rep0.first_degenerate() == (1,)
    rep_rho = verma_is_simple(a1, Weight([-1]), 4)
    assert rep_rho.verdict  # -rho is singular antidominant


def test_verma_is_simple_rank_profile(a2):
    # L(0) is the trivial module, so every positive depth has rank 0
    rep = verma_is_simple(a2, Weight([0, 0]), 3)
    ranks = dict((nu, (rank, dim)) for nu, rank, dim in rep.ranks)
    assert ranks[(1, 0)] == (0, 1)
    assert ranks[(0, 1)] == (0, 1)
    assert ranks[(1, 1)] == (0, 2)
    # the adjoint module: simple-root weights have multiplicity 1, the
    # zero weight multiplicity 2, and nothing degenerates this shallow
    rep2 = verma_is_simple(a2, Weight([1, 1]), 2)
    ranks2 = dict((nu, (rank, dim)) for nu, rank, dim in rep2.ranks)
    assert ranks2[(1, 0)] == (1, 1)
    assert ranks2[(1, 1)] == (2, 2)
    assert ranks2[(2, 0)] == (0, 1)  # rho - 2*alpha1 is not an adjoint weight


@pytest.mark.parametrize("depth", [-1, 2.5, True])
def test_verma_is_simple_refuses_a_depth_that_is_not_a_nonnegative_int(depth):
    alg = build_chevalley(build_root_system("A2"))
    with pytest.raises(DomainError, match="depth must be a nonnegative integer"):
        verma_is_simple(alg, Weight([0, 0]), depth)
    assert "audit_plan" not in alg.cache  # refused before the plan is read


def test_a_cold_audit_fills_kostant_numbers_only_up_to_its_depth():
    """The audit plan takes P one nu at a time, so a cold E8 audit at depth 3
    leaves the 165 nu of height <= 3 in the Kostant memo, not a cube."""
    rs = build_root_system("E8")
    alg = build_chevalley(rs)
    report = verma_is_simple(alg, Weight([1, 0, 0, 0, 0, 0, 0, 0]), 3)
    nus = category.gamma_elements(alg, 3)
    assert len(nus) == 165 and len(report.ranks) == 164
    assert set(rs.cache["kostant_p"]) == set(nus)


# -- blocks -----------------------------------------------------------------------

def test_decomposition_a1(a1):
    dec = decomposition_matrix(a1, Weight([0]))
    assert [w.coords for w in dec.class_weights] == [(0,), (-2,)]
    assert dec.entries == ((1, 1), (0, 1))
    assert cartan_matrix(dec) == ((1, 1), (1, 2))
    assert projective_filtration_matrix(dec) == ((1, 0), (1, 1))
    sing = decomposition_matrix(a1, Weight([-1]))
    assert sing.entries == ((1,),)
    assert cartan_matrix(sing) == ((1,),)
    assert projective_filtration_matrix(sing) == ((1,),)


def _kl_values_at_one(weyl):
    """P_{x,w}(1) for x <= w, by the Kazhdan-Lusztig recursion.

    For a left descent s of w and v = sw:
    P_{x,w} = q^(1-c) P_{sx,v} + q^c P_{x,v}
              - sum over z < v with sz < z of mu(z,v) q^((l(w)-l(z))/2) P_{x,z},
    with c = 1 if sx < x and 0 otherwise, and mu(z,v) the coefficient of
    q^((l(v)-l(z)-1)/2) in P_{z,v}.  Polynomials are {degree: coefficient}.
    """
    gens = [weyl.simple_reflection(i) for i in range(weyl.rs.rank)]
    poly = {}

    def get(x, w):
        return poly.get((x, w), {})

    def mu(z, v):
        gap = v.length - z.length
        return get(z, v).get((gap - 1) // 2, 0) if gap % 2 else 0

    for w in weyl:  # by length, so every shorter P is known
        if w.length == 0:
            poly[(w, w)] = {0: 1}
            continue
        s = next(g for g in gens if (g * w).length < w.length)
        v = s * w
        corrections = [(z, mu(z, v)) for z in weyl
                       if (s * z).length < z.length and mu(z, v)]
        for x in weyl:
            if not weyl.bruhat_leq(x, w):
                continue
            c = 1 if (s * x).length < x.length else 0
            p = {}
            for shift, term in ((1 - c, get(s * x, v)), (c, get(x, v))):
                for d, a in term.items():
                    p[d + shift] = p.get(d + shift, 0) + a
            for z, m in corrections:
                shift = (w.length - z.length) // 2
                for d, a in get(x, z).items():
                    p[d + shift] = p.get(d + shift, 0) - m * a
            poly[(x, w)] = {d: a for d, a in p.items() if a}
    return {key: sum(p.values()) for key, p in poly.items()}


@pytest.mark.parametrize("label, weight, twos", [
    ("A2", (0, 0), 0), ("A2", (3, 2), 0), ("B2", (1, 1), 0), ("G2", (0, 0), 0),
    ("A3", (0, 0, 0), 6),
], ids=["A2-0,0", "A2-3,2", "B2-1,1", "G2-0,0", "A3-0,0,0"])
def test_decomposition_bruhat(label, weight, twos):
    """Regular integral blocks: [M(u.lam) : L(v.lam)] = P_{u,v}(1).

    P comes from the Kazhdan-Lusztig recursion over the enumerated group.
    Every dihedral Kazhdan-Lusztig polynomial is 1, so in rank 2 D is the
    Bruhat incidence matrix; in S4 exactly six pairs have P = 1 + q.
    """
    alg = _alg(label)
    lam = Weight(list(weight))
    dec = decomposition_matrix(alg, lam)
    weyl = alg.rs.weyl_group()
    by_weight = {alg.rs.dot_action(w, lam).coords: w for w in weyl}
    elements = [by_weight[w.coords] for w in dec.class_weights]
    assert dec.size == len(by_weight)
    kl = _kl_values_at_one(weyl)
    for i in range(dec.size):
        for j in range(dec.size):
            assert (dec.entries[i][j] != 0) == weyl.bruhat_leq(elements[i], elements[j])
            assert dec.entries[i][j] == kl.get((elements[i], elements[j]), 0)
    support = [x for row in dec.entries for x in row if x]
    assert set(support) <= {1, 2}
    assert support.count(2) == twos


def test_decomposition_rejects_non_integral(a2):
    with pytest.raises(DomainError):
        decomposition_matrix(a2, Weight([F(1, 2), 0]))


def test_antidominant_row_is_unit(a2):
    dec = decomposition_matrix(a2, Weight([0, 0]))
    last = dec.entries[-1]
    assert last == (0,) * (dec.size - 1) + (1,)
    # every simple occurs in its own Verma: column sums are positive
    for j in range(dec.size):
        assert sum(dec.entries[i][j] for i in range(dec.size)) >= 1


def test_block_report_assembly(a1, a2):
    rep = block_report(a1, Weight([0]))
    assert rep.decomposition == ((1, 1), (0, 1))
    assert rep.cartan == ((1, 1), (1, 2))
    assert rep.projective_filtration == ((1, 0), (1, 1))
    assert rep.finite_dimensional == (True, False)
    assert rep.weyl_dimension_checks == ((0, 1, 1),)
    for i in range(2):
        for j in range(2):
            assert rep.projective_filtration[j][i] == rep.decomposition[i][j]

    rep2 = block_report(a2, Weight([1, 1]))
    assert len(rep2.class_weights) == 6
    k, dim, total = rep2.weyl_dimension_checks[0]
    assert rep2.class_weights[k] == Weight([1, 1])
    assert dim == 8 and total == 8


@pytest.mark.parametrize("label, weight", [
    ("A1", (0,)), ("A2", (0, 0)), ("B2", (0, 0)), ("G2", (0, 0)), ("A3", (0, 0, 0)),
    ("B2", (0, -1)), ("G2", (0, -1)), ("A3", (-1, 0, 0)),
])
def test_block_tables_match_radical_recursion(label, weight):
    """Tables and Weyl rank sums read off D^-1 against the radical recursion."""
    alg = _alg(label)
    rep = block_report(alg, Weight(list(weight)))
    modules = [VermaModule(alg, w) for w in rep.class_weights]
    for nu, dims in rep.simple_weight_tables:
        assert list(dims) == [module.simple_mult(nu) for module in modules], nu
    w0 = alg.rs.weyl_group().longest_element
    for k, dim, total in rep.weyl_dimension_checks:
        w = rep.class_weights[k]
        span = alg.rs.gamma_coords(w - w0.act(w))
        assert total == dim == sum(modules[k].simple_mult(nu)
                                   for nu in category.gamma_elements(alg, sum(span)))
    assert rep.weyl_dimension_checks or not any(rep.finite_dimensional)


@pytest.mark.parametrize("i, j, delta", [(0, 1, 1), (0, 3, -1), (2, 4, -1), (4, 5, 1)])
def test_block_report_catches_a_corrupted_d(monkeypatch, i, j, delta):
    """G2 (0,-1) has no finite-dimensional member, so no Weyl-dimension
    check sees D; the Jantzen bounds catch an entry changed by one."""
    alg = _alg("G2")
    lam = Weight([0, -1])
    solve = category.decomposition_matrix

    def corrupted(*args):
        dec = solve(*args)
        entries = [list(row) for row in dec.entries]
        entries[i][j] += delta
        return category.DecompositionMatrix(dec.class_weights, tuple(map(tuple, entries)),
                                            dec.depth, dec.diffs, dec.walls)

    assert not any(block_report(alg, lam).finite_dimensional)
    monkeypatch.setattr(category, "decomposition_matrix", corrupted)
    with pytest.raises(ConsistencyError, match="Jantzen bounds"):
        block_report(alg, lam)


def test_block_report_trivial(a1):
    rep = block_report(a1, Weight([-1]))
    assert rep.decomposition == ((1,),)
    assert rep.cartan == ((1,),)
    assert rep.finite_dimensional == (False,)


def test_depth_override_extends(a1):
    dec = decomposition_matrix(a1, Weight([0]), depth=5)
    assert dec.depth == 5
    assert dec.entries == ((1, 1), (0, 1))


def test_unitriangular_solve_matches_the_inverse():
    """row * U^-1 against exactla.invert, the fraction-free elimination on
    [U | I], on seeded upper unitriangular matrices up to 12 x 12, the size
    of G2's regular block."""
    rng = random.Random(12)
    for n in list(range(1, 13)) * 3:
        upper = [[int(i == j) if j <= i else rng.choice([0, 0, 1, 2, -1, -3, 5])
                  for j in range(n)] for i in range(n)]
        inverse = exactla.invert(upper)
        for k in range(n):
            unit = [int(j == k) for j in range(n)]
            assert category._over_unitriangular(unit, upper) == tuple(inverse[k])
        row = [rng.randint(-20, 20) for _ in range(n)]
        expected = tuple(sum(row[k] * inverse[k][j] for k in range(n)) for j in range(n))
        assert category._over_unitriangular(row, upper) == expected


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_unitriangular_solve_inverts_d(label):
    alg = _alg(label)
    d = decomposition_matrix(alg, Weight([0] * alg.l)).entries
    s = len(d)
    inv = [category._over_unitriangular([int(j == k) for j in range(s)], d)
           for k in range(s)]
    assert [[sum(d[i][k] * inv[k][j] for k in range(s)) for j in range(s)]
            for i in range(s)] == [[int(i == j) for j in range(s)] for i in range(s)]


@pytest.mark.parametrize("label, coords", [
    ("A2", (0, 0)), ("B2", (0, 0)), ("G2", (0, 0)), ("G2", (0, -1)), ("A3", (0, 0, 0)),
], ids=["A2", "B2", "G2", "G2-singular", "A3"])
def test_decomposition_matrix_fills_each_module_once(monkeypatch, label, coords):
    fills = []
    fill = VermaModule._fill

    def counted(module, *args):
        fills.append(module.lam)
        return fill(module, *args)

    monkeypatch.setattr(VermaModule, "_fill", counted)
    dec = decomposition_matrix(_alg(label), Weight(coords))
    assert sorted(fills, key=repr) == sorted(dec.class_weights, key=repr)


@pytest.mark.parametrize("label, coords", [
    ("A2", (0, 0)), ("B2", (0, 0)), ("G2", (0, -1)), ("A3", (-1, 0, 0)),
], ids=["A2", "B2", "G2-singular", "A3-singular"])
def test_the_fill_order_does_not_matter(monkeypatch, label, coords):
    """Each member's row of differences asked of simple_mult in height
    order, in reverse and shuffled: the same answers, the same quotient
    maps wherever two orders both built one, and no stack reduced twice
    at one nu of one module."""
    alg = _alg(label)
    dec = decomposition_matrix(alg, Weight(list(coords)))
    stacked = VermaModule._stacked
    reduced = collections.Counter()

    def counted(module, nu):
        reduced[module, nu] += 1
        return stacked(module, nu)

    monkeypatch.setattr(VermaModule, "_stacked", counted)
    rng = random.Random(2740)
    for k, member in enumerate(dec.class_weights):
        row = sorted({d for d in dec.diffs[k] if d is not None}, key=lambda v: (sum(v), v))
        shuffled = row[:]
        rng.shuffle(shuffled)
        modules = []
        for order in (row, row[::-1], shuffled):
            module = VermaModule(alg, member)
            modules.append(module)
            assert {nu: module.simple_mult(nu) for nu in order} == \
                {nu: modules[0].simple_mult(nu) for nu in order}, (member, order)
        for a, b in itertools.combinations(modules, 2):
            both = a._quotients.keys() & b._quotients.keys()
            assert {nu: a._quotients[nu] for nu in both} == \
                {nu: b._quotients[nu] for nu in both}, member
    assert reduced and max(reduced.values()) == 1


def test_block_data_survives_pickle_and_deepcopy(b2):
    lam = Weight([0, 0])
    for value in (decomposition_matrix(b2, lam), block_report(b2, lam)):
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert back == value and back is not value


@pytest.mark.parametrize("label, coords", [
    ("A2", (0, 0)), ("B2", (0, 0)), ("G2", (0, -1)),
], ids=["A2", "B2", "G2-singular"])
def test_block_report_finds_each_members_walls_once(monkeypatch, label, coords):
    calls = []
    pairings = rootdata.RootSystem.integral_pairings

    def counted(rs, lam):
        calls.append(lam)
        return pairings(rs, lam)

    monkeypatch.setattr(rootdata.RootSystem, "integral_pairings", counted)
    alg = _alg(label)
    rep = block_report(alg, Weight(list(coords)))
    assert len(calls) == len(rep.class_weights)
    # the walls kept for the Jantzen check are those of the modules
    monkeypatch.undo()
    dec = decomposition_matrix(alg, Weight(list(coords)))
    assert dec.walls == tuple(tuple(VermaModule(alg, w)._walls) for w in dec.class_weights)


@pytest.mark.parametrize("label, coords", [
    ("A3", (-1, 0, 0)), ("A3", (1, 0, 1)), ("A2", (4, 4)),
], ids=["A3-(-1,0,0)", "A3-(1,0,1)", "A2-(4,4)"])
def test_block_report_memoizes_kostant_numbers_only_in_gamma(label, coords):
    # a difference nu - d with a negative coordinate reads as 0 and leaves
    # no entry: the memo holds the filled boxes and nothing else
    rs = build_root_system(label)
    block_report(build_chevalley(rs), Weight(list(coords)))
    table = rs.cache["kostant_p"]
    assert table and all(rs.gamma_point(nu) == nu for nu in table)


@pytest.mark.parametrize("label", ["B2", "A3"])
def test_block_walks_only_its_orbit(monkeypatch, label):
    # W has 8 and 24 elements, the dot orbit of -rho one
    monkeypatch.setattr(rootdata, "WEYL_ENUMERATION_CAP", 5)
    rs = build_root_system(label)
    rep = block_report(build_chevalley(rs), -rs.rho())
    assert rep.decomposition == rep.cartan == ((1,),)
    assert "weyl_group" not in rs.cache


def test_the_engine_checks_its_y_bases(monkeypatch, capsys):
    # (1, 2) = mu_1 - mu_5 is the corner of the box that M(-2,1) fills in
    # the A2 block of (0,0): no x_i maps into it, and its basis is read
    # only to build the x_i matrices there
    corner = (1, 2)
    slot_tails = category._slot_tails

    def short(cache, alg, rest, slot):
        got = slot_tails(cache, alg, rest, slot)
        return got[1:] if (rest, slot) == (corner, 0) else got

    monkeypatch.setattr(category, "_slot_tails", short)
    message = r"weight space at \(1, 2\) has size 1, expected P = 2"
    with pytest.raises(ConsistencyError, match=message):
        simple_weight_mult(build_chevalley(build_root_system("A2")), Weight([-2, 1]), corner)
    with pytest.raises(ConsistencyError, match=message):
        block_report(build_chevalley(build_root_system("A2")), Weight([0, 0]))
    monkeypatch.setattr(cli, "cached_root_system", build_root_system)
    assert cli.main(["block", "--type", "A2", "--weight", "0,0"]) == cli.EXIT_CONSISTENCY
    assert capsys.readouterr().err == (
        "internal consistency error: weight space at (1, 2) has size 1, expected P = 2\n")


# -- cache ownership --------------------------------------------------------------

def _block(alg):
    return block_report(alg, Weight([0, 0]))


def _central_char(alg):
    omega = casimir(alg)
    lam = Weight([F(1, 2), -3])
    return harish.central_character(lam, omega), str(harish.hc_psi(omega))


def _shapovalov(alg):
    lam = Weight([1, 0])
    return (shapovalov_matrix(alg, lam, (1, 1)),
            simple_weight_mult(alg, lam, (1, 1)))


def _simplicity(alg):
    # (0, 0) has the walls alpha_1 and alpha_2 below depth 4, (1, 0) the
    # walls 2 alpha_1 and alpha_2, so both run the radical recursion where
    # the walls meet; (1/2, 0) has one wall there, alpha_2
    return [verma_is_simple(alg, Weight(coords), 4)
            for coords in ((0, 0), (1, 0), (F(1, 2), 0))]


@pytest.mark.parametrize("label, run, rs_tables, alg_tables", [
    ("A2", _block, {"build_chevalley", "kostant_p"},
     {"weight_space_basis", "raising_matrix", "gamma_elements"}),
    ("B2", _central_char, {"build_chevalley"}, {"casimir", "is_central"}),
    ("A2", _shapovalov, {"build_chevalley", "kostant_p"},
     {"weight_space_basis", "raising_matrix", "shapovalov_polynomial_matrix"}),
    ("B2", _simplicity, {"build_chevalley", "kostant_p"},
     {"audit_plan", "gamma_elements", "weight_space_basis", "raising_matrix"}),
], ids=["block", "central-char", "shapovalov", "simplicity"])
def test_memo_tables_live_in_one_cache_per_owner(label, run, rs_tables, alg_tables):
    rs = build_root_system(label)
    rs_attributes = set(vars(rs))
    alg = build_chevalley(rs)
    alg_attributes = set(vars(alg))
    assert rs.cache == {"build_chevalley": alg} and alg.cache == {}
    cold = run(alg)
    assert set(vars(rs)) == rs_attributes and set(vars(alg)) == alg_attributes
    assert set(rs.cache) == rs_tables and set(alg.cache) == alg_tables
    assert run(alg) == cold  # warm
    assert alg.kernel._pair_cache  # the PBW pair products live on the kernel
    rs.cache.pop("kostant_p", None)  # alg's memos read only cells they stored
    assert run(alg) == cold
    alg.cache.clear()
    alg.kernel._pair_cache.clear()
    assert run(alg) == cold
    rs.cache.clear()
    assert build_chevalley(rs) is not alg
    assert run(build_chevalley(rs)) == cold
    assert run(build_chevalley(build_root_system(label))) == cold
