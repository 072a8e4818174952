import copy
import hashlib
import itertools
import pickle
import random
from fractions import Fraction as F
from math import lcm, prod

import pytest
from hypothesis import given, strategies as st

from bggkit import cli, rootdata, selftest
from bggkit.errors import (ConsistencyError, DomainError, NotARootError,
                           NotFiniteTypeError)
from bggkit.rootdata import (STRICT, WIDE, CartanMatrixInput, Weight,
                             build_root_system, cached_root_system)

# -- construction -------------------------------------------------------------

def test_closure_counts_and_highest_roots():
    assert build_root_system("A1").num_positive == 1
    a2 = build_root_system("A2")
    assert a2.num_positive == 3
    assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    g2 = build_root_system("G2")
    assert g2.num_positive == 6
    assert g2.positive_roots[-1] == (3, 2)


def test_roots_come_in_opposite_pairs(rs_b2):
    for r in rs_b2.roots:
        assert tuple(-c for c in r) in rs_b2.roots
    positives = set(rs_b2.positive_roots)
    negatives = {tuple(-c for c in r) for r in positives}
    assert positives | negatives == set(rs_b2.roots)
    assert not positives & negatives


def test_coroot_pairing_is_two_on_own_root():
    for label in ("A2", "B2", "G2"):
        rs = cached_root_system(label)
        for alpha in rs.positive_roots:
            assert rs.pairing_root(rs.root_to_weight(alpha), alpha) == 2


def test_non_finite_type_rejected():
    with pytest.raises(NotFiniteTypeError):
        build_root_system([[2, -2], [-2, 2]])
    with pytest.raises(NotFiniteTypeError):
        build_root_system([[2, -1, 0], [-1, 2, -2], [0, -2, 2]])


def test_cartan_validation():
    with pytest.raises(DomainError):
        CartanMatrixInput(((1, 0), (0, 2)))
    with pytest.raises(DomainError):
        CartanMatrixInput(((2, 1), (1, 2)))
    with pytest.raises(DomainError):
        CartanMatrixInput(((2, -1), (0, 2)))
    with pytest.raises(DomainError):
        CartanMatrixInput.from_label("Z9")


@pytest.mark.parametrize("entries", [((2.9, -1), (-1, 2)), ((2, -1.5), (-1, 2)),
                                     ((2, "x"), (-1, 2)), ((2, None), (-1, 2))],
                         ids=["float-diagonal", "float", "string", "none"])
def test_cartan_entries_must_be_integers(entries):
    # a float is refused, not truncated to an integer
    with pytest.raises(DomainError):
        CartanMatrixInput(entries)


def test_custom_cartan_matrix_equals_label():
    via_label = build_root_system("B2")
    via_matrix = build_root_system([[2, -1], [-2, 2]])
    assert via_matrix.positive_roots == via_label.positive_roots


# -- rho and pairings ----------------------------------------------------------

def test_rho_examples():
    for label, rank in (("A1", 1), ("A2", 2), ("B2", 2)):
        rs = cached_root_system(label)
        assert rs.rho() == Weight([1] * rank)


def test_rho_is_half_sum_of_positive_roots():
    for label in ("A2", "B2", "G2"):
        rs = cached_root_system(label)
        total = Weight([0] * rs.rank)
        for alpha in rs.positive_roots:
            total = total + rs.root_to_weight(alpha)
        assert F(1, 2) * total == rs.rho()


def test_pairing_examples(rs_a2):
    rho = rs_a2.rho()
    assert rs_a2.pairing_root(rho, (1, 0)) == 1
    assert rs_a2.pairing_root(rho, (1, 1)) == 2
    assert rs_a2.pairing_root(Weight([0, 0]), (1, 1)) == 0
    with pytest.raises(NotARootError):
        rs_a2.pairing_root(rho, (2, 0))


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "F4"])
def test_coroot_of_negative_root_is_negated(label):
    rs = cached_root_system(label)
    for alpha in rs.roots:
        negated = tuple(-c for c in alpha)
        assert rs.coroot(negated) == tuple(-c for c in rs.coroot(alpha))
    with pytest.raises(NotARootError):
        rs.coroot((0,) * rs.rank)


# -- Weyl group and the dot action ---------------------------------------------

def test_dot_action_examples(rs_a1):
    w = rs_a1.weyl_group()
    s = w.simple_reflection(0)
    assert rs_a1.dot_action(w.identity, Weight([3])) == Weight([3])
    assert rs_a1.dot_action(s, Weight([3])) == Weight([-5])
    assert rs_a1.dot_action(s, Weight([-1])) == Weight([-1])


def test_dot_orbit_examples(rs_a1, rs_a2):
    assert [w.coords for w in rs_a1.dot_orbit(Weight([0]))] == [(0,), (-2,)]
    assert [w.coords for w in rs_a1.dot_orbit(Weight([-1]))] == [(-1,)]
    assert len(rs_a2.dot_orbit(Weight([0, 0]))) == 6


def test_dot_orbit_sizes(rs_a2, rs_b2):
    # regular integral weights get the full group, -rho is a fixed point
    assert len(rs_a2.dot_orbit(Weight([1, 2]))) == len(rs_a2.weyl_group())
    assert len(rs_b2.dot_orbit(Weight([-1, -1]))) == 1
    assert rs_b2.dot_orbit(Weight([-1, -1]))[0] == Weight([-1, -1])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.lists(st.fractions(F(-9), F(9), max_denominator=4),
                min_size=2, max_size=2))
def test_dot_action_respects_composition(word, coords):
    rs = cached_root_system("A2")
    weyl = rs.weyl_group()
    lam = Weight(coords)
    step = lam
    for i in word:
        step = rs.dot_action(weyl.simple_reflection(i), step)
    combined = weyl.identity
    for i in word:  # later reflections act on the left
        combined = weyl.simple_reflection(i) * combined
    assert rs.dot_action(combined, lam) == step


@given(st.lists(st.integers(0, 1), min_size=0, max_size=6),
       st.lists(st.fractions(F(-9), F(9), max_denominator=4),
                min_size=2, max_size=2))
def test_dot_action_inverse(word, coords):
    rs = cached_root_system("A2")
    weyl = rs.weyl_group()
    w = weyl.identity
    for i in word:
        w = w * weyl.simple_reflection(i)
    lam = Weight(coords)
    assert rs.dot_action(w, rs.dot_action(w.inverse(), lam)) == lam


def test_simple_reflection_permutes_other_positives():
    for label in ("A2", "B2", "G2"):
        rs = cached_root_system(label)
        weyl = rs.weyl_group()
        for i in range(rs.rank):
            s = weyl.simple_reflection(i)
            alpha_i = rs.simple_roots()[i]
            others = {rs.root_to_weight(r) for r in rs.positive_roots if r != alpha_i}
            images = set()
            for r in others:
                img = s.act(r)
                assert img in others
                images.add(img)
            assert images == others
            img_i = s.act(rs.root_to_weight(alpha_i))
            assert img_i == rs.root_to_weight(tuple(-c for c in alpha_i))


def test_weyl_group_sizes():
    assert len(cached_root_system("A1").weyl_group()) == 2
    assert len(cached_root_system("A2").weyl_group()) == 6
    assert len(cached_root_system("B2").weyl_group()) == 8
    assert len(cached_root_system("G2").weyl_group()) == 12


def test_bruhat_order_on_a2(rs_a2):
    weyl = rs_a2.weyl_group()
    w0 = weyl.longest_element
    assert w0.length == 3
    for u in weyl:
        assert weyl.bruhat_leq(weyl.identity, u)
        assert weyl.bruhat_leq(u, w0)
        assert weyl.bruhat_leq(u, u)
    s0, s1 = weyl.simple_reflection(0), weyl.simple_reflection(1)
    assert not weyl.bruhat_leq(s0, s1)
    assert not weyl.bruhat_leq(s1, s0)
    assert weyl.bruhat_leq(s0, s0 * s1)
    assert weyl.bruhat_leq(s1, s0 * s1)


def _subword_leq(rs, u, w):
    """Reference Bruhat order: some subword of w's reduced word is a word for u.

    Elements are compared by their action on rho, computed here from the
    Cartan matrix: a word of length l(u) that acts like u is reduced.
    """
    cart = rs.cartan.entries

    def acts_on_rho(word):
        v = [1] * rs.rank
        for i in reversed(word):
            vi = v[i]
            v = [x - cart[j][i] * vi for j, x in enumerate(v)]
        return tuple(v)

    target = acts_on_rho(u.word)
    return any(acts_on_rho(sub) == target
               for sub in itertools.combinations(w.word, u.length))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_bruhat_lifting_matches_subword_definition(label):
    rs = build_root_system(label)
    weyl = rs.weyl_group()
    for u in weyl:
        for w in weyl:
            assert weyl.bruhat_leq(u, w) == _subword_leq(rs, u, w), (u, w)


# sha256 of the reduced words, one "i,j,..." line per element in group order
WORD_DIGESTS = {
    "A1": "c7757c0896cbfe6182d8ea2bda4a8bf94addc428980eedab8609c57ca7ff1763",
    "A2": "d920d6f79dfc349df7b933fd08eef76009b40537742deea07646f4149d4e6ffe",
    "A3": "aa028b59dc6bd377029facba5790d51fbc3c8e3cf6253d04f0347e886fb63f36",
    "A4": "f8f430f0ca0e15903ae064d3b36b29b7fb62e24b8caebbddac608aeb7184df1e",
    "B2": "12fc614d609f7c9ad71f728ea11a58c1b59b279df75312b761cc97ece736e7ed",
    "B3": "280309092363fbfe409a5cb32104209e1b7b9f005dc50447e94e90d15d89bbce",
    "C3": "280309092363fbfe409a5cb32104209e1b7b9f005dc50447e94e90d15d89bbce",
    "D4": "0f557c5e886141f476a5b821551eea5b8a45441a88c4906ef0caefe5d432d4b6",
    "F4": "90f285954803f4dd90984f01c0488ef95cc1b331852cc81e4cba1cb85f01c81b",
    "G2": "ed1b087277304659f38d8cb76f7490d04bc55b5c2a654bfaeca313a82b27fc22",
}


@pytest.mark.parametrize("label", sorted(WORD_DIGESTS))
def test_weyl_words_match_recorded_digests(label):
    weyl = build_root_system(label).weyl_group()
    text = "\n".join(",".join(map(str, e.word)) for e in weyl)
    assert hashlib.sha256(text.encode()).hexdigest() == WORD_DIGESTS[label]


# sha256 of the concatenated `weyl-orbit --json` outputs: an integral, a
# singular, a denominator-2 and a denominator-3 weight
ORBIT_DIGESTS = {
    "A2": (("0,0", "-1,0", "1/2,-1/2", "1/3,2/3"),
           "7a604649d80a282ccb18e97dc9f1a16ad2886849eaa3e4434de139e0a2227e14"),
    "B2": (("0,0", "0,-1", "1/2,1/2", "2/3,-1/3"),
           "04a2c794a0dc5aa428ae96358601d399f96a3f39b55431f2fd7c6c442d8bd26d"),
    "G2": (("0,0", "-1,1", "1/2,0", "1/3,-1/3"),
           "f0f897edb09caeafb64bf6bc5417e2b97344747d1c898012b5a4e6e2610b05a3"),
    "A3": (("0,0,0", "-1,0,2", "1/2,0,-1/2", "1/3,-2/3,0"),
           "3ecfb1ec0460e0af0d645c7c1994be61b1612dc5f1b1d3515ebcc9019229c8cb"),
}


@pytest.mark.parametrize("label", sorted(ORBIT_DIGESTS))
def test_weyl_orbit_json_matches_recorded_digests(label, capsys):
    weights, digest = ORBIT_DIGESTS[label]
    out = ""
    for w in weights:
        assert cli.main(["weyl-orbit", "--type", label, "--weight=" + w,
                         "--json"]) == 0
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- orders ---------------------------------------------------------------------

def leq(rs, mu, lam):
    """mu <= lam in the dominance order: lam - mu lies in Gamma."""
    return rs.gamma_coords(lam - mu) is not None


def test_leq_examples(rs_a1, rs_a2):
    lam = Weight([2, -3])
    assert leq(rs_a2, lam, lam)
    assert leq(rs_a1, Weight([-5]), Weight([3]))
    assert not leq(rs_a2, Weight([1, -1]), Weight([0, 0]))


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
       st.lists(st.integers(-6, 6), min_size=2, max_size=2),
       st.lists(st.integers(-6, 6), min_size=2, max_size=2))
def test_leq_partial_order(a, b, c):
    rs = cached_root_system("A2")
    wa, wb, wc = Weight(a), Weight(b), Weight(c)
    assert leq(rs, wa, wa)
    if leq(rs, wa, wb) and leq(rs, wb, wa):
        assert wa == wb
    if leq(rs, wa, wb) and leq(rs, wb, wc):
        assert leq(rs, wa, wc)


def _fraction_root_coords(rs, lam):
    """Solve C x = lam over the rationals by Gauss-Jordan elimination."""
    l = rs.rank
    rows = [[F(x) for x in rs.cartan.entries[i]] + [lam.coords[i]] for i in range(l)]
    for col in range(l):
        piv = next(i for i in range(col, l) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(l):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [row[l] for row in rows]


GAMMA_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "F4", "G2",
               "E6", "E7", "E8")


@pytest.mark.parametrize("label", GAMMA_TYPES)
def test_gamma_coords_matches_fraction_solve(label):
    rs = cached_root_system(label)
    l = rs.rank
    rng = random.Random(label)
    for _ in range(40):
        lam = Weight([F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(l)])
        low = rng.choice((0, -3))
        c = [rng.randint(low, 3) for _ in range(l)]
        mu = lam - rs.root_to_weight(c)
        integral = Weight([rng.randint(-6, 6) for _ in range(l)])
        for weight in (lam, lam - mu, mu - lam, integral):
            x = _fraction_root_coords(rs, weight)
            inside = all(v.denominator == 1 and v >= 0 for v in x)
            expected = tuple(int(v) for v in x) if inside else None
            assert rs.gamma_coords(weight) == expected
        assert rs.gamma_coords(lam - mu) == (tuple(c) if min(c) >= 0 else None)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2"])
def test_dot_orbit_order_matches_fraction_heights(label):
    rs = cached_root_system(label)
    rng = random.Random(label)
    for _ in range(4):
        lam = Weight([F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs.rank)])
        orbit = rs.dot_orbit(lam)
        assert len(set(orbit)) == len(orbit)
        expected = sorted(orbit, key=lambda w: (-sum(_fraction_root_coords(rs, w)),
                                                w.coords))
        assert orbit == expected


def _regular_and_singular(rs, rng):
    """An integral weight with lam + rho regular, and one with a zero in
    lam + rho."""
    while True:
        regular = Weight([rng.randint(-6, 6) for _ in range(rs.rank)])
        if all(rs.pairing_root(regular + rs.rho(), b) for b in rs.positive_roots):
            break
    singular = [rng.randint(-6, 6) for _ in range(rs.rank)]
    singular[rng.randrange(rs.rank)] = -1
    return [regular, Weight(singular)]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3",
                                   "D4", "G2", "F4"])
def test_dot_orbit_is_the_weyl_group_image(label):
    """The orbit, walked as a tree from its dominant point, against
    w . lam over the breadth-first words of the Weyl group: each weight
    once, in the order of Fraction heights, and the cap refusing exactly
    past the orbit's size, where linkage, which walks no orbit, still
    answers.  Its weights keep the Weight contract (Fraction coordinates,
    hash, eq, integrality, ``scaled()``)."""
    rs = cached_root_system(label)
    weyl = rs.weyl_group()
    rng = random.Random(label)
    weights = [Weight([F(rng.randint(-5 * den, 5 * den), den) for _ in range(rs.rank)])
               for den in (1, 1, 2, 3)]
    for lam in weights + _regular_and_singular(rs, rng):
        orbit = rs.dot_orbit(lam)
        assert len(set(orbit)) == len(orbit)
        assert set(orbit) == {rs.dot_action(w, lam) for w in weyl}
        heights = {mu: sum(_fraction_root_coords(rs, mu)) for mu in orbit}
        assert orbit == sorted(orbit, key=lambda mu: (-heights[mu], mu.coords))
        for mu in orbit:
            assert all(type(c) is F for c in mu.coords)
            assert mu == Weight(mu.coords) and hash(mu) == hash(Weight(mu.coords))
            scale = lcm(*(c.denominator for c in mu.coords))
            assert mu.scaled() == (scale, tuple(int(c * scale) for c in mu.coords))
            assert mu.is_integral == lam.is_integral
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rootdata, "WEYL_ENUMERATION_CAP", len(orbit))
            assert rs.dot_orbit(lam) == orbit and rs.is_linked(lam, orbit[-1])
            patch.setattr(rootdata, "WEYL_ENUMERATION_CAP", len(orbit) - 1)
            with pytest.raises(DomainError, match="Weyl group too large"):
                rs.dot_orbit(lam)
            assert rs.is_linked(lam, lam) and rs.is_linked(lam, orbit[-1])


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "G2", "C3"])
def test_is_linked_agrees_with_orbit_membership(label):
    rs = cached_root_system(label)
    rng = random.Random(label)
    linked = 0
    for _ in range(12):
        den = rng.choice((1, 1, 2, 3))
        lam = Weight([F(rng.randint(-5 * den, 5 * den), den) for _ in range(rs.rank)])
        orbit = rs.dot_orbit(lam)
        # an orbit member, a near miss, and a weight of another denominator
        mu = rng.choice(orbit)
        near = mu + Weight([int(i == 0) for i in range(rs.rank)])
        other = Weight([F(rng.randint(-10, 10), rng.choice((1, 2))) for _ in range(rs.rank)])
        for nu in (mu, near, other):
            assert rs.is_linked(lam, nu) == (nu in orbit) == rs.is_linked(nu, lam)
            linked += nu in orbit
    assert 12 <= linked < 36  # both answers are exercised


def test_orbits_past_the_cap_are_refused_before_any_walk():
    # |W(E8)| = 696,729,600: the refusal costs no enumeration, and linkage,
    # which walks no orbit, is not refused
    rs = build_root_system("E8")
    lam = Weight([0] * 8)
    for refused in (rs.dot_orbit, lambda mu: rs.weyl_group()):
        with pytest.raises(DomainError, match="Weyl group too large to enumerate"):
            refused(lam)
    assert rs.is_linked(lam, lam)
    assert rs.dot_orbit(Weight([-1] * 8)) == [Weight([-1] * 8)]


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_is_linked_answers_past_the_cap(label):
    """|W(E7)| = 2,903,040 and |W(E8)| = 696,729,600 are past the cap: a
    weight and its image under a word of simple reflections (dot action)
    are linked, and a near miss of that image is not."""
    rs = build_root_system(label)
    rng = random.Random(label)
    lam = Weight([rng.randint(-3, 3) for _ in range(rs.rank)])
    word = [rng.randrange(rs.rank) for _ in range(12)]
    image = Weight(rs.reflect(tuple(c + 1 for c in lam.coords), *word)) - rs.rho()
    near = image + Weight([int(i == 0) for i in range(rs.rank)])
    assert image != lam
    assert rs.is_linked(lam, image) and rs.is_linked(image, lam)
    assert not rs.is_linked(lam, near) and not rs.is_linked(near, lam)


_A2_WRONG_RANK = {
    "weyl_dimension": lambda rs, v: rs.weyl_dimension(Weight(v)),
    "pairing_root": lambda rs, v: rs.pairing_root(Weight(v), (1, 0)),
    "root_to_weight": lambda rs, v: rs.root_to_weight(v),
    "is_antidominant": lambda rs, v: rs.is_antidominant(Weight(v)),
    "integral_pairings": lambda rs, v: rs.integral_pairings(Weight(v)),
    "dot_orbit": lambda rs, v: rs.dot_orbit(Weight(v)),
    "is_linked": lambda rs, v: rs.is_linked(Weight(v), Weight([0, 0])),
    "is_linked_second": lambda rs, v: rs.is_linked(Weight([0, 0]), Weight(v)),
    "linkage_key": lambda rs, v: rs.linkage_key(Weight(v)),
    "act_s1": lambda rs, v: rs.weyl_group().simple_reflection(0).act(Weight(v)),
    "act_s2": lambda rs, v: rs.weyl_group().simple_reflection(1).act(Weight(v)),
}


@pytest.mark.parametrize("call", sorted(_A2_WRONG_RANK))
def test_wrong_rank_is_a_domain_error(rs_a2, call):
    # each used to truncate, or to fail with an IndexError
    for v in ([1], [-5], [1, 1, 7], [0, 0, -1]):
        with pytest.raises(DomainError, match="wrong rank"):
            _A2_WRONG_RANK[call](rs_a2, v)


def test_block_ordering_examples(rs_a1, rs_a2):
    out = rs_a1.dot_orbit(Weight([-2]))
    assert [w.coords for w in out] == [(0,), (-2,)]
    assert rs_a1.dot_orbit(Weight([-1])) == [Weight([-1])]
    orbit = rs_a2.dot_orbit(Weight([1, 0]))
    assert orbit[0] == Weight([1, 0])  # dominant first
    w0 = rs_a2.weyl_group().longest_element
    assert orbit[-1] == rs_a2.dot_action(w0, Weight([1, 0]))


def test_block_ordering_refines_reverse_leq(rs_b2):
    weights = [Weight([a, b]) for a in range(-2, 3) for b in range(-2, 3)]
    weights += [Weight([F(a, 2), F(b, 3)]) for a in (-1, 1) for b in (-2, 1)]
    for lam in weights:
        out = rs_b2.dot_orbit(lam)
        for i, wi in enumerate(out):
            for j in range(i + 1, len(out)):
                assert not (leq(rs_b2, wi, out[j]) and wi != out[j])


# -- antidominance ----------------------------------------------------------------

def test_antidominance_examples(rs_a1):
    assert rs_a1.is_antidominant(Weight([-1]), STRICT)
    assert not rs_a1.is_antidominant(Weight([-1]), WIDE)
    assert rs_a1.is_antidominant(Weight([-5]), STRICT)
    assert rs_a1.is_antidominant(Weight([-5]), WIDE)
    assert not rs_a1.is_antidominant(Weight([0]), STRICT)
    assert rs_a1.is_antidominant(Weight([F(-1, 2)]), STRICT)
    with pytest.raises(DomainError):
        rs_a1.is_antidominant(Weight([0]), "other")


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2"])
def test_antidominance_matches_fraction_pairings(label):
    """The integer test against <lam+rho, alpha-check> taken in Fractions."""
    rs = cached_root_system(label)
    rng = random.Random(label)
    seen = set()
    for _ in range(60):
        lam = Weight([F(rng.randint(-6, 3), rng.randint(1, 3)) for _ in range(rs.rank)])
        values = [rs.pairing_root(lam + rs.rho(), alpha) for alpha in rs.positive_roots]
        for convention, floor in ((STRICT, 1), (WIDE, 0)):
            expected = not any(v.denominator == 1 and v >= floor for v in values)
            assert rs.is_antidominant(lam, convention) == expected, (lam, convention)
            seen.add((convention, expected))
    assert len(seen) == 4


# -- Kostant function and Weyl dimension -------------------------------------------

def test_kostant_examples(rs_a2):
    assert rs_a2.kostant_p((0, 0)) == 1
    assert rs_a2.kostant_p((1, 1)) == 2
    assert rs_a2.kostant_p((2, 2)) == 3
    assert rs_a2.kostant_p((-1, 0)) == 0
    # off the support, not truncated to (1, 1)
    assert rs_a2.kostant_p((F(3, 2), 1)) == 0
    assert rs_a2.kostant_p((1.7, 1)) == 0
    assert rs_a2.kostant_p((F(2), 2.0)) == 3


def test_kostant_brute_force_small():
    for label in ("A1", "A2", "B2"):
        rs = cached_root_system(label)
        l = rs.rank
        for nu in itertools.product(range(6), repeat=l):
            if sum(nu) > 5:
                continue
            count = 0
            bounds = [min(nu[i] // b[i] for i in range(l) if b[i])
                      for b in rs.positive_roots]
            for combo in itertools.product(*(range(x + 1) for x in bounds)):
                total = [0] * l
                for c, beta in zip(combo, rs.positive_roots):
                    for i in range(l):
                        total[i] += c * beta[i]
                if tuple(total) == nu:
                    count += 1
            assert rs.kostant_p(nu) == count


@pytest.mark.parametrize("nu, point", [
    ((0, 0), (0, 0)),
    ((2, 1), (2, 1)),
    ([1, 0], (1, 0)),
    ((-1, 0), None),
    ((3, -2), None),
    ((F(3, 2), 1), None),
    ((1.7, 1), None),
    ((F(2), 2.0), (2, 2)),
    ((F(0), 1.0), (0, 1)),
    ((float("nan"), 0), None),
    ((float("inf"), 0), None),
    ((0, float("-inf")), None),
], ids=["zero", "ints", "list", "negative", "negative-second", "fraction",
        "float", "integral-fraction-and-float", "integral-zero-fraction",
        "nan", "inf", "minus-inf"])
def test_gamma_point_contract(rs_a2, nu, point):
    got = rs_a2.gamma_point(nu)
    assert got == point
    if point is None:
        assert rs_a2.kostant_p(nu) == 0
    if got is not None:
        assert type(got) is tuple and all(type(c) is int for c in got)


@pytest.mark.parametrize("nu", [(), (1,), (1, 0, 0), (F(1, 2), -1, 0)])
def test_gamma_point_and_kostant_p_reject_wrong_rank(rs_a2, nu):
    with pytest.raises(DomainError, match="coordinate vector has wrong rank"):
        rs_a2.gamma_point(nu)
    with pytest.raises(DomainError, match="coordinate vector has wrong rank"):
        rs_a2.kostant_p(nu)


def test_kostant_p_stores_no_entry_for_a_nan():
    # off Gamma, P is 0 and the memo keeps only the filled box: no entry
    # for a negative, fractional, nan or infinite nu
    rs = build_root_system("A2")
    rs.kostant_p((2, 2))
    box = dict(rs.cache["kostant_p"])
    assert set(box) == set(itertools.product(range(3), repeat=2))
    for nu in ((-1, 3), (3, -2), (F(3, 2), 1), (1.5, 0), (float("nan"), 0),
               (1, float("nan")), (float("inf"), 0), (0, float("-inf"))):
        assert [rs.kostant_p(nu) for _ in range(2)] == [0, 0]
    assert rs.cache["kostant_p"] == box


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_kostant_p_cold_warm_and_cleared_match_brute_force(label, monkeypatch):
    rs = build_root_system(label)
    box = list(itertools.product(range(-2, 7), repeat=rs.rank))
    expected = {nu: selftest._kostant_brute_force(rs, nu) for nu in box}
    assert expected[(0,) * rs.rank] == 1 and expected[(-1,) + (0,) * (rs.rank - 1)] == 0
    assert [rs.kostant_p(nu) for nu in box] == list(expected.values())  # cold
    in_gamma = [nu for nu in box if min(nu) >= 0]
    with monkeypatch.context() as patch:
        # warm: every answer in Gamma, P(0) included, is a memo hit
        def no_validation(nu):
            raise AssertionError(f"kostant_p missed its memo at {nu}")
        patch.setattr(rs, "gamma_point", no_validation)
        assert [rs.kostant_p(nu) for nu in in_gamma] == [expected[nu] for nu in in_gamma]
        assert rs.kostant_p([F(2)] + [0] * (rs.rank - 1)) == 1  # equal key, any spelling
    # off Gamma: 0 through gamma_point, warm as cold
    assert [rs.kostant_p(nu) for nu in box] == list(expected.values())
    rs.cache.clear()
    assert [rs.kostant_p(nu) for nu in reversed(box)] == list(reversed(expected.values()))


def _staged_kostant(rs, nu, k=0, memo=None):
    """P(nu) by the staged recursion over the root order, the oracle of
    ``kostant_p``: P_k(nu) = sum_{j>=0} P_{k+1}(nu - j*beta_k), with
    P_m(nu) = [nu == 0] and a memo keyed by (nu, k)."""
    memo = {} if memo is None else memo
    if not any(nu):
        return 1
    if k == rs.num_positive:
        return 0
    got = memo.get((nu, k))
    if got is None:
        beta, got, rest = rs.positive_roots[k], 0, nu
        while min(rest) >= 0:
            got += _staged_kostant(rs, rest, k + 1, memo)
            rest = tuple(a - b for a, b in zip(rest, beta))
        memo[(nu, k)] = got
    return got


# one box [0, top] per type: about 100-700 cells
KOSTANT_BOXES = {
    "A1": (12,), "A2": (7, 7), "A3": (4, 4, 4), "A4": (3, 3, 3, 3),
    "B2": (7, 7), "B3": (4, 4, 4), "B4": (3, 3, 3, 3), "C3": (4, 4, 4),
    "C4": (3, 3, 3, 3), "D4": (3, 3, 3, 3), "G2": (9, 9), "F4": (3, 3, 3, 3),
    "E6": (2, 1, 2, 2, 1, 1),
}


@pytest.mark.parametrize("label", sorted(KOSTANT_BOXES))
def test_kostant_p_matches_the_staged_recursion(label):
    """Cold at the corner of the box, then warm at every cell; cold in
    height order; cold in reverse lex order: the same numbers as the
    staged recursion at every cell."""
    top = KOSTANT_BOXES[label]
    box = list(itertools.product(*(range(t + 1) for t in top)))
    memo = {}
    rs = build_root_system(label)
    expected = [_staged_kostant(rs, nu, 0, memo) for nu in box]
    assert rs.kostant_p(top) == expected[-1]  # cold: one fill of the whole box
    assert len(rs.cache["kostant_p"]) == len(box)
    assert [rs.kostant_p(nu) for nu in box] == expected  # warm
    assert len(rs.cache["kostant_p"]) == len(box)
    by_height = sorted(range(len(box)), key=lambda i: (sum(box[i]), box[i]))
    rs.cache.clear()
    assert [rs.kostant_p(box[i]) for i in by_height] == [expected[i] for i in by_height]
    rs.cache.clear()
    assert [rs.kostant_p(nu) for nu in reversed(box)] == expected[::-1]


@pytest.mark.parametrize("label, nu", [("G2", (40, 25)), ("A4", (8, 8, 8, 8))])
def test_kostant_p_matches_the_staged_recursion_on_a_deep_box(label, nu):
    rs = build_root_system(label)
    assert rs.kostant_p(nu) == _staged_kostant(rs, nu)
    assert len(rs.cache["kostant_p"]) == prod(c + 1 for c in nu)


def test_kostant_memo_holds_one_entry_per_cell_of_the_box():
    # the staged recursion kept 12,636 (nu, k) entries for this one nu
    rs = build_root_system("F4")
    assert rs.kostant_p((4, 4, 4, 4)) == 875
    table = rs.cache["kostant_p"]
    assert len(table) <= 625
    assert set(table) == set(itertools.product(range(5), repeat=4))


def test_kostant_fill_refuses_an_inexact_division(monkeypatch):
    rs = build_root_system("A2")
    monkeypatch.setattr(rootdata, "_height", lambda root: 2 * sum(root) - 1)
    with pytest.raises(ConsistencyError, match="height recurrence is not exact"):
        rs.kostant_p((2, 1))


def test_weyl_enumeration_cap_bounds_group_and_orbits(monkeypatch):
    monkeypatch.setattr(rootdata, "WEYL_ENUMERATION_CAP", 5)
    rs = build_root_system("A2")
    with pytest.raises(DomainError, match="Weyl group too large to enumerate"):
        rs.dot_orbit(Weight([0, 0]))  # regular: 6 weights
    with pytest.raises(DomainError, match="Weyl group too large to enumerate"):
        rs.weyl_group()
    # singular: lam + rho = (0, 1) is fixed by s_1, so 3 weights
    assert rs.dot_orbit(Weight([-1, 0])) == [Weight([-1, 0]), Weight([0, -2]),
                                              Weight([-2, -1])]


def test_weyl_dimension_examples(rs_a1, rs_a2):
    assert rs_a1.weyl_dimension(Weight([0])) == 1
    assert rs_a1.weyl_dimension(Weight([3])) == 4
    assert rs_a2.weyl_dimension(Weight([1, 1])) == 8
    with pytest.raises(DomainError):
        rs_a1.weyl_dimension(Weight([-2]))
    with pytest.raises(DomainError):
        rs_a2.weyl_dimension(Weight([F(1, 2), 0]))


def _weyl_dimension_by_fractions(rs, lam):
    """Reference: Weyl's formula in Fractions through pairing_root."""
    rho = rs.rho()
    num = den = F(1)
    for alpha in rs.positive_roots:
        num *= rs.pairing_root(lam + rho, alpha)
        den *= rs.pairing_root(rho, alpha)
    return num / den


_FEW_WEIGHTS = {"F4": [(0, 0, 0, 1), (1, 0, 0, 0), (1, 2, 0, 3), (2, 1, 1, 0)],
                "E6": [(0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0), (1, 0, 2, 0, 1, 3)]}


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2", "F4", "E6"])
def test_weyl_dimension_matches_fraction_formula(label):
    rs = cached_root_system(label)
    weights = _FEW_WEIGHTS.get(label) or itertools.product(range(4), repeat=rs.rank)
    for coords in weights:
        lam = Weight(coords)
        got = rs.weyl_dimension(lam)
        assert type(got) is int
        assert got == _weyl_dimension_by_fractions(rs, lam)
    with pytest.raises(DomainError, match="not dominant integral"):
        rs.weyl_dimension(Weight([-1] + [0] * (rs.rank - 1)))
    with pytest.raises(DomainError, match="not dominant integral"):
        rs.weyl_dimension(Weight([F(1, 2)] + [0] * (rs.rank - 1)))


# -- the root-weight table ---------------------------------------------------------

_TABLE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2",
                "F4", "E6", "E7", "E8"]


def _reflect_root(cart, r, i):
    """s_i r = r - r(h_i) alpha_i in simple-root coordinates, with
    r(h_i) = sum_j C[i][j] r_j read off the Cartan matrix here."""
    pair = sum(c * x for c, x in zip(cart[i], r))
    return tuple(x - pair if j == i else x for j, x in enumerate(r))


@pytest.mark.parametrize("label", _TABLE_TYPES)
def test_root_weight_table_is_w_equivariant(label):
    """weight(s_i r) == reflect(weight(r), i): reflect acts on weights
    through the Cartan columns, a route other than the table's C . r."""
    rs = cached_root_system(label)
    cart, table = rs.cartan.entries, rs._root_weight
    assert set(table) == rs.roots
    for i, alpha in enumerate(rs.simple_roots()):
        assert table[alpha] == tuple(row[i] for row in cart)
    for r, w in table.items():
        assert all(type(x) is int for x in w)
        assert rs.root_to_weight(r) == Weight(w)
        for i in range(rs.rank):
            assert table[_reflect_root(cart, r, i)] == rs.reflect(w, i)
    for alpha in rs.positive_roots:
        assert rs.pairing_root(Weight(table[alpha]), alpha) == 2


def test_root_to_weight_keeps_its_exceptions(rs_a2):
    assert rs_a2.root_to_weight([1, 1]) == Weight([1, 1])
    for short_or_long in ((1,), (1, 1, 9)):
        with pytest.raises(DomainError, match="wrong rank"):
            rs_a2.root_to_weight(short_or_long)
    with pytest.raises(TypeError):
        rs_a2.root_to_weight(1)


def test_weight_arithmetic():
    a = Weight([1, F(1, 2)])
    b = Weight([0, F(3, 2)])
    assert (a + b).coords == (F(1), F(2))
    assert (a - b).coords == (F(1), F(-1))
    assert (2 * a).coords == (F(2), F(1))
    assert (-a).coords == (F(-1), F(-1, 2))
    assert a.is_integral is False
    assert Weight([2, 0]).is_dominant_integral
    with pytest.raises(AttributeError):
        a.coords = (F(0),)


@pytest.mark.parametrize("coords", [(0,), (0, 0), (F(1, 2), -3), (F(-7, 6), F(5, 2), 0)])
def test_weight_copies_and_pickles_keep_value_and_hash(coords):
    """A copy keeps value and hash; so does a weight whose ``scaled()`` pair,
    kept after the first call, has been read, and its pickle is unchanged."""
    w = Weight(coords)
    before = pickle.dumps(w)
    pair = w.scaled()
    assert w.scaled() is pair and pickle.dumps(w) == before
    for back in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert back == w and hash(back) == hash(w) and back.scaled() == pair
        for name in ("coords", "_scaled"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(back, name, ())
    with pytest.raises(AttributeError, match="immutable"):
        w._scaled = ()
