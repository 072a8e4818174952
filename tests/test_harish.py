import random
from fractions import Fraction as F

import pytest

from bggkit import harish, liealg
from bggkit.category import VermaSlice, VermaVector, shapovalov_matrix
from bggkit.errors import DomainError
from bggkit.harish import (CentralCharacter, central_character, gamma_twist,
                           hc_psi, is_central)
from bggkit.liealg import LieAlgebraData, casimir
from bggkit.pbw import StraightenKernel
from bggkit.rootdata import RootSystem, Weight, cached_root_system


def test_gamma_twist_examples(a1, a2):
    h = a1.h(0)
    assert gamma_twist(h) == h - a1.one()
    assert gamma_twist(3 * a1.one()) == 3 * a1.one()
    assert gamma_twist(h * h + 2 * h) == h * h - a1.one()
    h1 = a2.h(0)
    assert gamma_twist(h1) == h1 - a2.one()


def test_hc_psi_examples(a1):
    h = a1.h(0)
    z = h * h + 2 * h + 4 * (a1.y(0) * a1.x(0))  # normalized Casimir
    assert hc_psi(z) == h * h - a1.one()
    p = h * h - 3 * h
    assert hc_psi(p) == gamma_twist(p)
    assert hc_psi(a1.one()) == a1.one()
    with pytest.raises(DomainError):
        hc_psi(a1.x(0))


def test_central_character_examples(a1):
    h = a1.h(0)
    z = h * h + 2 * h + 4 * (a1.y(0) * a1.x(0))
    assert central_character(Weight([3]), z) == 15
    assert central_character(Weight([3]), a1.one()) == 1
    # twist identity at -rho: chi_{-rho}(z) equals psi(z) at the origin
    assert central_character(Weight([-1]), z) == \
        hc_psi(z).evaluate_at(Weight([0]))
    with pytest.raises(DomainError):
        central_character(Weight([3]), a1.x(0))


_A2_WRONG_RANK_WEIGHTS = {
    "central_character-short": lambda a2: central_character(Weight([2]), casimir(a2)),
    "central_character-long": lambda a2: central_character(Weight([2, 0, 5]), casimir(a2)),
    "evaluate_at-constant": lambda a2: a2.one().evaluate_at(Weight([1])),
    "shapovalov_matrix": lambda a2: shapovalov_matrix(a2, Weight([1]), (1, 1)),
    "weight_add": lambda a2: Weight([1]) + Weight([1, 2]),
    "weight_sub": lambda a2: Weight([1, 2]) - Weight([1]),
}


@pytest.mark.parametrize("call", sorted(_A2_WRONG_RANK_WEIGHTS))
def test_weights_of_the_wrong_rank_are_a_domain_error(a2, call):
    # each used to drop or ignore coordinates: on A2, chi at (2) read as
    # 16/9, chi at (2,0,5) as its value at (2,0), and (1) + (1,2) as (2)
    with pytest.raises(DomainError, match="rank"):
        _A2_WRONG_RANK_WEIGHTS[call](a2)


def test_is_central(a1):
    assert is_central(casimir(a1))
    assert is_central(a1.one())
    assert not is_central(a1.x(0))
    assert not is_central(a1.h(0))


def test_casimir_centrality_is_checked_once(monkeypatch):
    assert harish.is_central is liealg.is_central
    alg = LieAlgebraData(cached_root_system("A2"))  # fresh verdict cache
    omega = casimir(alg)
    calls = []
    multiply = StraightenKernel.multiply_monomials

    def counted(self, *args):
        calls.append(args)
        return multiply(self, *args)

    monkeypatch.setattr(StraightenKernel, "multiply_monomials", counted)
    lam = Weight([1, 2])
    assert central_character(lam, omega) == omega.hc_project().evaluate_at(lam)
    assert calls == []


def test_repeated_central_character_does_not_hash_the_element(monkeypatch):
    alg = LieAlgebraData(cached_root_system("B2"))  # fresh verdict cache
    omega = casimir(alg)
    lam = Weight([F(1, 2), -3])
    expected = central_character(lam, omega)
    hashed = []
    original = liealg.UEAElement.__hash__

    def spy(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(liealg.UEAElement, "__hash__", spy)
    assert central_character(lam, omega) == expected
    assert hashed == []


def test_identity_memo_never_reads_a_stale_verdict():
    alg = LieAlgebraData(cached_root_system("A1"))  # fresh verdict cache
    # short-lived elements, alternately central and not: a memo keyed by a
    # reused id would hand one of them the other's verdict
    for k in range(1, 40):
        assert is_central(k * alg.one())
        assert not is_central(k * alg.h(0))
    omega = casimir(alg)
    twin = omega + alg.zero()  # equal, not identical: its own verdict
    assert twin == omega and twin is not omega
    assert is_central(twin)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_highest_root_vectors_are_not_central(label):
    alg = LieAlgebraData(cached_root_system(label))  # fresh verdict cache
    top = alg.root_position(max(alg.rs.positive_roots, key=sum))
    x, y = alg.x(top), alg.y(top)
    # x_theta passes every x_i and y_theta every y_i: only the other half
    # of the generators shows that neither is central
    for root in alg.rs.simple_roots():
        pos = alg.root_position(root)
        assert x * alg.x(pos) == alg.x(pos) * x
        assert y * alg.y(pos) == alg.y(pos) * y
    assert not is_central(x)
    assert not is_central(y)


def _commutes_with_basis(z):
    """Reference check: z commutes with all d basis vectors."""
    alg = z.alg
    return all(z * b == b * z
               for b in (alg.basis_element(i) for i in range(alg.d)))


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_is_central_matches_all_basis_check(label):
    alg = LieAlgebraData(cached_root_system(label))  # fresh verdict cache
    omega = casimir(alg)
    samples = [omega, omega * omega, omega + alg.h(0)]
    rng = random.Random(29)
    coefs = (0, 0, 1, -2, F(1, 3))
    for _ in range(12):
        pos = rng.randrange(alg.m)
        i, j = rng.randrange(alg.l), rng.randrange(alg.l)
        samples.append(rng.choice(coefs[2:]) * omega
                       + rng.choice(coefs) * (alg.x(pos) * alg.y(pos))
                       + rng.choice(coefs) * (alg.h(i) * alg.h(j))
                       + rng.choice(coefs) * alg.one())
    verdicts = []
    for z in samples:
        assert z.is_weight_zero()
        verdicts.append(is_central(z))
        assert verdicts[-1] == _commutes_with_basis(z)
    assert set(verdicts) == {True, False}


def test_linkage_examples(a1):
    rs = a1.rs
    assert rs.is_linked(Weight([3]), Weight([3]))
    assert rs.is_linked(Weight([3]), Weight([-5]))
    assert not rs.is_linked(Weight([3]), Weight([-4]))


def test_linkage_is_equivalence(a2):
    rs = a2.rs
    rng = random.Random(13)
    sample = [Weight([F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(2)])
              for _ in range(8)]
    for u in sample:
        assert rs.is_linked(u, u)
        for v in sample:
            assert rs.is_linked(u, v) == rs.is_linked(v, u)
            for w in sample:
                if rs.is_linked(u, v) and rs.is_linked(v, w):
                    assert rs.is_linked(u, w)


def test_character_invariance_small(b2):
    omega = casimir(b2)
    rng = random.Random(19)
    weyl = b2.rs.weyl_group()
    for _ in range(5):
        lam = Weight([F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(2)])
        base = central_character(lam, omega)
        for w in weyl:
            assert central_character(b2.rs.dot_action(w, lam), omega) == base


def test_psi_invariant_under_plain_action(a2):
    omega = casimir(a2)
    psi = hc_psi(omega)
    rng = random.Random(21)
    weyl = a2.rs.weyl_group()
    for _ in range(10):
        mu = Weight([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)])
        base = psi.evaluate_at(mu)
        for w in weyl:
            assert psi.evaluate_at(w.act(mu)) == base


def test_casimir_acts_by_central_character(a2):
    """z . v_lambda = chi_lambda(z) v_lambda on the canonical generator."""
    omega = casimir(a2)
    for coords in ((0, 0), (2, 1), (-1, 3)):
        lam = Weight(coords)
        vslice = VermaSlice(a2, lam, 2)
        action = vslice.act(omega, VermaVector(a2, {(0,) * a2.m: 1}))
        scalar = central_character(lam, omega)
        expected = {} if scalar == 0 else {(0,) * a2.m: scalar}
        assert action.terms == expected


def test_central_character_objects(a1):
    c1 = CentralCharacter(a1, Weight([3]))
    c2 = CentralCharacter(a1, Weight([-5]))
    c3 = CentralCharacter(a1, Weight([-4]))
    assert c1 == c2
    assert hash(c1) == hash(c2)
    assert c1 != c3
    assert c1.casimir_value == c2.casimir_value
    assert c1.canonical_representative == Weight([3])


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3"])
def test_central_character_equality_is_orbit_membership(label):
    """Equality (by linkage) and the hash against membership in the
    representative's dot orbit, on linked and unlinked pairs with
    rational weights among them."""
    alg = liealg.build_chevalley(cached_root_system(label))
    rng = random.Random(label)
    answers = set()
    for _ in range(8):
        den = rng.choice((1, 1, 2, 3))
        chi = CentralCharacter(alg, Weight([F(rng.randint(-5 * den, 5 * den), den)
                                            for _ in range(alg.l)]))
        orbit = chi.orbit
        # an orbit member, a near miss, and a weight of another denominator
        mu = rng.choice(orbit)
        near = mu + Weight([int(i == 0) for i in range(alg.l)])
        other = Weight([F(rng.randint(-10, 10), rng.choice((1, 2))) for _ in range(alg.l)])
        for nu in (mu, near, other):
            psi = CentralCharacter(alg, nu)
            assert (chi == psi) == (nu in orbit) == (psi == chi), (chi, nu)
            if nu in orbit:
                assert hash(chi) == hash(psi)
                assert psi.canonical_representative == chi.canonical_representative
            answers.add(nu in orbit)
    assert answers == {True, False}


def test_central_characters_walk_their_orbit_only_when_asked(monkeypatch, a2):
    """Constructing, comparing and hashing read the linkage key; only
    reading ``orbit`` or ``canonical_representative`` walks the orbit."""
    calls = []
    dot_orbit = RootSystem.dot_orbit

    def counted(self, lam):
        calls.append(lam)
        return dot_orbit(self, lam)

    monkeypatch.setattr(RootSystem, "dot_orbit", counted)
    chis = [CentralCharacter(a2, Weight(c))
            for c in ((0, 0), (-2, 1), (1, 0), (F(1, 2), 0), (F(-5, 2), F(3, 2)))]
    assert chis[0] == chis[1] and chis[3] == chis[4]
    assert chis[0] != chis[2] and chis[0] != chis[3] and chis[2] != chis[3]
    assert len(set(chis)) == 3 and hash(chis[0]) == hash(chis[1])
    assert calls == []
    assert chis[1].canonical_representative == Weight([0, 0])
    assert len(chis[3].orbit) == 6
    assert calls == [Weight([-2, 1]), Weight([F(1, 2), 0])]


def test_central_character_past_the_enumeration_cap():
    """|W(E7)| = 2,903,040 is past the cap: 0 and s_1 . 0 = (-2,0,1,0,0,0,0)
    construct, compare and hash as one character, with one Casimir value,
    and reading the orbit is refused."""
    alg = liealg.build_chevalley(cached_root_system("E7"))
    zero = CentralCharacter(alg, Weight([0] * 7))
    image = CentralCharacter(alg, Weight([-2, 0, 1, 0, 0, 0, 0]))
    omega_1 = CentralCharacter(alg, Weight([1, 0, 0, 0, 0, 0, 0]))
    assert zero == image and hash(zero) == hash(image) and zero != omega_1
    assert zero.casimir_value == image.casimir_value == 0
    with pytest.raises(DomainError, match="Weyl group too large to enumerate"):
        zero.orbit
