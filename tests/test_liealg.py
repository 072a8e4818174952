import copy
import hashlib
import itertools
import math
import operator
import pickle
import random
import re
from fractions import Fraction as F
from math import lcm

import pytest

from bggkit import exactla, liealg
from bggkit.errors import ConsistencyError, DomainError
from bggkit.liealg import (LieAlgebraData, UEAElement, bracket, build_chevalley,
                           casimir, h_substitute)
from bggkit.rootdata import Weight, build_root_system, cached_root_system


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
    x1 = a2.x(a2.root_position((1, 0)))
    x2 = a2.x(a2.root_position((0, 1)))
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


# sha256 of repr(sorted(alg._table.items())), recorded from the earlier
# solver that fixed the signs by propagating Jacobi identities
TABLE_DIGESTS = {
    "A1": "fff2127b852c3a1be9de4db84a11bfa0b3229c75a35caf0a7355abb483e560f1",
    "A2": "9bbb968926874c28c9218dce23098671e6266c8f45939306a0ce5d702e1645fd",
    "B2": "98cda2fbf41adf7ca1513c2d28f51f158ab21ec0fa2f65f49667cae2b013494b",
    "C2": "f1f7ce4248c987807b7f2f12333fd8ac96c9da1ceb3eac75bfe8d6f22b3d3a9e",
    "G2": "dd8e0d4114f7c4d22ed251e93d5fa25a02d1df308dcb32d42ab149af99d01802",
    "A3": "b3b7b5c45113143b4c2e2682870f0a4f6767c1e3fba8648f2371515091b402c1",
    "B3": "56e46dfbe1b1270bafc996d8658a26fba5503ca5673339dbcf101daed94156c2",
    "C3": "b20449567930015fb2fff22836c2938e4993c02d7dc41b748901f627a0fd2892",
    "D4": "174b9ecdfbae95a3533506266991e363ced6fa79293e04d8b537a54c6d7e4f5f",
    "F4": "95691718ec983d05f00377072fd4ce06b13f0575c59c491363963c52134f2ef5",
    "E6": "d90debba55c809113ec4f190faa57d5e22896fd0960a8ea69f2a5d6e9990e2ca",
    "B4": "4d7da34318c4b4729977348d2a9ea172e8a1fea488d989c62e47df39dbed070d",
    "C4": "e91a599ac8271912e7660bd96e824d84b46a6376dc0d8cb69198ce90c7bd91df",
    "D5": "a358771e56726cf21561471f7fb1a7f6fccb5a68b469ea784c1b88248098bf4f",
    # recorded from the closed form with the all-triples Jacobi check
    "E7": "dee8a25a9bb3d42215b26da371cb7e2b78381797ee584ab0b10523d3b49e213a",
    # recorded from the closed form with root lengths from the symmetrizer
    "E8": "6ec33327d6bb96acd27a8d5fe011b824a72a9c0a8eed22e2108404f0201f327a",
    "A1xA1": "9e773a4fb1889a22a34093052177f47010c4792bf937cf8c24b1eefbb2d0be87",
    "B2xA1": "1d9d8ab82064e1187651a7c924390b09f3d848866acebafeb44580464f2387a5",
    "G2xA2": "92c3a90bf50f21d18e6ad5c3ddef4b2c23f293a09dbb110436f7a412cf51665f",
    "B2xG2": "25451e2161c2b237ca2b7e01a909d61fcd2b1580df4387973d938a30e38a3a8c",
}


def _block_diagonal(*blocks):
    n = sum(map(len, blocks))
    out = [[0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[start + i][start:start + len(row)] = row
        start += len(block)
    return tuple(map(tuple, out))


# block-diagonal Cartan matrices, one component per block; here B2 is
# [[2,-2],[-1,2]] and G2 is [[2,-1],[-3,2]]
_A1, _A2 = ((2,),), ((2, -1), (-1, 2))
_B2, _G2 = ((2, -2), (-1, 2)), ((2, -1), (-3, 2))
_BLOCK_SUMS = {"A1xA1": _block_diagonal(_A1, _A1),
               "B2xA1": _block_diagonal(_B2, _A1),
               "G2xA2": _block_diagonal(_G2, _A2),
               "B2xG2": _block_diagonal(_B2, _G2)}


def _system(label):
    if label in _BLOCK_SUMS:
        return build_root_system(_BLOCK_SUMS[label])
    return cached_root_system(label)


@pytest.mark.parametrize("label", sorted(TABLE_DIGESTS))
def test_structure_constants_match_recorded_tables(label):
    alg = build_chevalley(_system(label))
    digest = hashlib.sha256(repr(sorted(alg._table.items())).encode()).hexdigest()
    assert digest == TABLE_DIGESTS[label]
    rs = alg.rs
    for xi in rs.positive_roots[alg.l:]:
        r = next(r for r in rs.positive_roots
                 if tuple(a - b for a, b in zip(xi, r)) in rs._root_index)
        s = tuple(a - b for a, b in zip(xi, r))
        p = 0
        while tuple(a - (p + 1) * b for a, b in zip(s, r)) in rs.roots:
            p += 1
        x = alg.x
        pos = alg.root_position
        assert bracket(x(pos(r)), x(pos(s))) == (p + 1) * x(pos(xi))


def _swap_long_and_short(lengths, rs):
    lo, hi = min(lengths.values()), max(lengths.values())
    return {r: lo + hi - v for r, v in lengths.items()}


def _double_highest(lengths, rs):
    return {**lengths, rs.positive_roots[-1]: 2 * lengths[rs.positive_roots[-1]]}


def _halve_highest(lengths, rs):
    return {**lengths, rs.positive_roots[-1]: lengths[rs.positive_roots[-1]] / 2}


@pytest.mark.parametrize("label, corrupt, message", [
    ("G2", _swap_long_and_short, "not an integer"),
    ("A3", _double_highest, r"not \+-\(p\+1\)"),
    ("A3", _halve_highest, r"gets -1/2, not \+-\(p\+1\)"),
], ids=["G2-rotated", "A3-special", "A3-special-inexact"])
def test_closed_form_rejects_inconsistent_root_lengths(monkeypatch, label, corrupt,
                                                       message):
    lengths = liealg._root_lengths
    monkeypatch.setattr(liealg, "_root_lengths", lambda rs: corrupt(lengths(rs), rs))
    with pytest.raises(ConsistencyError, match=message):
        liealg.LieAlgebraData(build_root_system(label))


def _carter_reference(rs):
    """N_{a,b} keyed by root tuples: the closed form of
    ``liealg._structure_constants`` on tuples and Fractions, without codes."""
    roots, order, norm = rs.roots, rs._root_index, liealg._root_lengths(rs)
    n = {}

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(a):
        return tuple(-x for x in a)

    def string_p(r, s):
        p = 0
        while sub(s, r) in roots:
            s = sub(s, r)
            p += 1
        return p

    def term(u, v, w, z, diff):
        if diff not in roots:
            return 0
        return F(n[(u, v)] * n[(w, z)]) / norm[diff]

    def record(a, b, value):
        c = sub(neg(a), b)
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            rotated = value * norm[w] / norm[c]
            assert rotated.denominator == 1
            rotated = int(rotated)
            n[(u, v)], n[(v, u)] = rotated, -rotated
            n[(neg(u), neg(v))], n[(neg(v), neg(u))] = -rotated, rotated

    for xi in rs.positive_roots:
        special = [(r, sub(xi, r)) for r in rs.positive_roots
                   if order.get(sub(xi, r), -1) > order[r]]
        if not special:
            continue
        (r1, s1), others = special[0], special[1:]
        first = string_p(r1, s1) + 1
        record(r1, s1, F(first))
        for r, s in others:
            value = norm[xi] / first * (term(s, neg(r1), r, neg(s1), sub(s, r1))
                                        + term(neg(r1), r, s, neg(s1), sub(r, r1)))
            assert abs(value) == string_p(r, s) + 1
            record(r, s, value)
    return n


def _by_root_tuples(rs):
    """``liealg._structure_constants`` with its root codes read back as tuples."""
    _, code = liealg._root_codes(rs)
    root = {c: r for r, c in code.items()}
    return {(root[a], root[b]): c
            for (a, b), c in liealg._structure_constants(rs).items()}


@pytest.mark.parametrize("label", sorted(TABLE_DIGESTS))
def test_structure_constants_match_the_tuple_reference(label):
    rs = _system(label)
    assert _by_root_tuples(rs) == _carter_reference(rs)


@pytest.mark.parametrize("label", sorted(TABLE_DIGESTS))
def test_structure_constants_obey_the_chevalley_basis_theorem(label):
    """Every pair of roots a, b, without the closed form: N_{a,b} is given
    exactly when a + b is a root, and then |N_{a,b}| = p + 1, p the largest
    integer with b - p a a root; N_{b,a} = N_{-a,-b} = -N_{a,b}."""
    rs = _system(label)
    n, roots = _by_root_tuples(rs), rs.roots
    given = set()
    for a, b in itertools.product(roots, repeat=2):
        if tuple(map(operator.add, a, b)) not in roots:
            continue
        given.add((a, b))
        p = 0
        while tuple(y - (p + 1) * x for x, y in zip(a, b)) in roots:
            p += 1
        minus_a, minus_b = tuple(-x for x in a), tuple(-x for x in b)
        assert abs(n[(a, b)]) == p + 1
        assert n[(b, a)] == n[(minus_a, minus_b)] == -n[(a, b)]
    assert set(n) == given


@pytest.mark.parametrize("label", sorted(TABLE_DIGESTS))
def test_root_codes_tell_sums_and_differences_of_roots_apart(label):
    """Each root's code is sum_j r_j B^j, and no two distinct vectors a + b
    or a - b of roots a, b share the code that sum gives them."""
    rs = _system(label)
    base, code = liealg._root_codes(rs)
    assert set(code) == rs.roots

    def encode(v):
        return sum(x * base ** j for j, x in enumerate(v))

    assert all(code[r] == encode(r) for r in rs.roots)
    vectors = {tuple(map(f, a, b)) for a, b in itertools.product(rs.roots, repeat=2)
               for f in (operator.add, operator.sub)}
    assert len({encode(v) for v in vectors}) == len(vectors)


def _symmetrizer_lengths(rs):
    """Reference (r, r) from the symmetrized Cartan matrix d_i C[i][j].

    d_i = (alpha_i, alpha_i)/2 is fixed along the Dynkin diagram from
    d = 1 on one node of each component.
    """
    cart, l = rs.cartan.entries, rs.rank
    half = [None] * l
    for start in range(l):
        if half[start] is not None:
            continue
        half[start] = F(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(l):
                if half[j] is None and cart[i][j]:
                    half[j] = half[i] * cart[i][j] / cart[j][i]
                    stack.append(j)
    for i, j in itertools.product(range(l), repeat=2):
        assert half[i] * cart[i][j] == half[j] * cart[j][i]
    return {r: sum(r[i] * r[j] * half[i] * cart[i][j]
                   for i in range(l) for j in range(l))
            for r in rs.roots}


def _dynkin_components(rs):
    """Component number of each simple root."""
    cart, l = rs.cartan.entries, rs.rank
    component = [None] * l
    for start in range(l):
        if component[start] is None:
            stack = [start]
            component[start] = start
            while stack:
                i = stack.pop()
                for j in range(l):
                    if component[j] is None and cart[i][j]:
                        component[j] = start
                        stack.append(j)
    return component


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3",
                                   "C4", "D4", "D5", "E6", "E7", "E8", "F4", "G2",
                                   *_BLOCK_SUMS])
def test_root_lengths_are_the_symmetrizer_form_per_component(label):
    """One positive factor per simple component relates the two forms."""
    rs = _system(label)
    lengths, reference = liealg._root_lengths(rs), _symmetrizer_lengths(rs)
    component = _dynkin_components(rs)
    factors = {}
    for r in rs.roots:
        (c,) = {component[i] for i, x in enumerate(r) if x}
        factors.setdefault(c, set()).add(lengths[r] / reference[r])
    assert len(factors) == len(set(component))
    for ratios in factors.values():
        (factor,) = ratios
        assert factor > 0


def _gram_lengths(rs):
    """Reference (r, r) = r^T (C^T F C) r / den, F = den K_h^-1, with K_h
    and the Gram matrix read off the Cartan matrix here."""
    cart, l = rs.cartan.entries, rs.rank
    weights = [[sum(c * x for c, x in zip(row, r)) for row in cart]
               for r in rs.positive_roots]
    killing = [[2 * sum(w[i] * w[j] for w in weights) for j in range(l)]
               for i in range(l)]
    inv = exactla.invert(killing)
    den = lcm(*(x.denominator for row in inv for x in row))
    pairs = list(itertools.product(range(l), repeat=2))
    gram = {(i, j): sum(cart[k][i] * inv[k][m] * den * cart[m][j] for k, m in pairs)
            for i, j in pairs}
    return {r: F(sum(r[i] * g * r[j] for (i, j), g in gram.items()), den)
            for r in rs.roots}


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3",
                                   "C4", "D4", "G2", "F4", "E6", "E7", "E8",
                                   *_BLOCK_SUMS])
def test_root_lengths_match_the_gram_matrix_route(label):
    rs = _system(label)
    assert liealg._root_lengths(rs) == _gram_lengths(rs)


class _UnreadableCartan:
    """Stands in for a root system's Cartan matrix; reading it fails."""

    label = "unreadable"

    @property
    def entries(self):
        raise AssertionError("the Cartan matrix was read outside rootdata")


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3"])
def test_algebra_reads_no_cartan_matrix(label):
    rs = build_root_system(label)
    rs.cartan = _UnreadableCartan()
    alg = LieAlgebraData(rs)
    assert alg._table == build_chevalley(cached_root_system(label))._table
    assert casimir(alg) == _dense_casimir(alg)


def _dense_jacobi_failure(d, table):
    """Reference check: every one of the C(d,3) basis triples, in order."""
    def br(a, b):
        if a > b:
            return dict(table.get((a, b), ()))
        return {k: -c for k, c in table.get((b, a), ())}

    for i, j, k in itertools.combinations(range(d), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for mid, c1 in br(a, b).items():
                for out, c2 in br(mid, c).items():
                    acc[out] = acc.get(out, 0) + c1 * c2
        if any(acc.values()):
            return i, j, k
    return None


def _single_entry_perturbations(table):
    """Each table entry plus 1 or minus 2; an entry that becomes 0 is dropped."""
    for key, entries in sorted(table.items()):
        for pos, (k, c) in enumerate(entries):
            for delta in (1, -2):
                kept = ((k, c + delta),) if c + delta else ()
                changed = entries[:pos] + kept + entries[pos + 1:]
                perturbed = {**table, key: changed}
                if not changed:
                    del perturbed[key]
                yield perturbed


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_jacobi_check_agrees_with_dense_reference(monkeypatch, label):
    alg = build_chevalley(cached_root_system(label))
    assert liealg._jacobi_failure(alg.d, alg._table) is None
    assert _dense_jacobi_failure(alg.d, alg._table) is None
    perturbations = list(_single_entry_perturbations(alg._table))
    assert len(perturbations) == 2 * sum(map(len, alg._table.values()))
    for table in perturbations:
        expected = _dense_jacobi_failure(alg.d, table)
        assert expected is not None
        assert liealg._jacobi_failure(alg.d, table) == expected
        monkeypatch.setattr(LieAlgebraData, "_build_table",
                            lambda self, n, table=table: table)
        message = "Jacobi identity fails on basis triple (%d,%d,%d)" % expected
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            LieAlgebraData(alg.rs)


def _generators(alg):
    """Basis indices of the x_i and y_i."""
    return {f(pos) for pos in alg.simple_positions for f in (alg.x_index, alg.y_index)}


def _perturbed(table, key, pos, delta):
    """table with the pos-th term of [b_hi, b_lo] moved by delta; a term
    that becomes 0 is dropped, and so is a bracket left empty."""
    entries = table[key]
    k, c = entries[pos]
    changed = entries[:pos] + (((k, c + delta),) if c + delta else ()) + entries[pos + 1:]
    out = {**table, key: changed}
    if not changed:
        del out[key]
    return out


class _Spy:
    """Wraps a function of liealg and records each call's result."""

    def __init__(self, monkeypatch, name):
        self.real, self.results = getattr(liealg, name), []
        monkeypatch.setattr(liealg, name, self)

    def __call__(self, *args):
        self.results.append(self.real(*args))
        return self.results[-1]


@pytest.mark.parametrize("label", sorted(set(TABLE_DIGESTS) - {"E8"}))
def test_generator_verdict_matches_the_exhaustive_search(label):
    alg = build_chevalley(_system(label))
    exhaustive = liealg._jacobi_failure(alg.d, alg._table) is None
    assert liealg._jacobi_by_generators(alg, alg._table) == exhaustive
    assert exhaustive


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3",
                                   "A1xA1", "B2xA1"])
def test_generator_check_flags_every_single_entry_perturbation(label):
    alg = build_chevalley(_system(label))
    for table in _single_entry_perturbations(alg._table):
        assert not liealg._jacobi_by_generators(alg, table)


@pytest.mark.parametrize("label", ["A1", "B2", "G2xA2"])
def test_generator_check_takes_every_x_i_and_y_i(monkeypatch, label):
    alg = build_chevalley(_system(label))
    seen = []
    holds_on = liealg._jacobi_holds_on
    monkeypatch.setattr(liealg, "_jacobi_holds_on", lambda d, table, generators: (
        seen.append(sorted(generators)) or holds_on(d, table, generators)))
    assert liealg._jacobi_by_generators(alg, alg._table)
    assert seen == [sorted(_generators(alg))]


def test_table_keys_run_in_hi_lo_order():
    for label in TABLE_DIGESTS:
        keys = list(build_chevalley(_system(label))._table)
        assert keys == sorted(keys) and all(hi > lo for hi, lo in keys)


@pytest.mark.parametrize("label", ["F4", "E6"])
def test_generator_check_flags_perturbations_off_the_generators(monkeypatch, label):
    """30 seeded single-entry perturbations, half on a bracket of two
    basis elements that are neither an x_i nor a y_i: the generator check
    flags each table by a nonzero Jacobiator, and the error names the
    exhaustive search's first triple."""
    alg = build_chevalley(cached_root_system(label))
    generators = _generators(alg)
    rng = random.Random(32)
    keys = sorted(alg._table)
    off = [key for key in keys if not generators & set(key)]
    on = [key for key in keys if generators & set(key)]
    monkeypatch.setattr(liealg, "_structure_constants", lambda rs: None)
    spies = flags, on_generators, search = [
        _Spy(monkeypatch, name)
        for name in ("_jacobi_by_generators", "_jacobi_holds_on", "_jacobi_failure")]
    for key in rng.sample(off, 15) + rng.sample(on, 15):
        table = _perturbed(alg._table, key, rng.randrange(len(alg._table[key])),
                           rng.choice((1, -2)))
        monkeypatch.setattr(LieAlgebraData, "_build_table",
                            lambda self, n, table=table: table)
        for spy in spies:
            spy.results.clear()
        with pytest.raises(ConsistencyError) as caught:
            LieAlgebraData(alg.rs)
        assert flags.results == [False]
        if key in off:  # the generators still span: Jacobi itself flagged it
            assert on_generators.results == [False]
        [expected] = search.results
        assert expected is not None
        assert str(caught.value) == ("Jacobi identity fails on basis triple "
                                     "(%d,%d,%d)" % expected)


def _a2_without_x1_x2(alg):
    """A2 with [x_{alpha_1}, x_{alpha_2}] = 0: x_{alpha_1+alpha_2} is no
    longer generated."""
    x1, x2 = (alg.x_index(pos) for pos in alg.simple_positions)
    table = dict(alg._table)
    del table[(max(x1, x2), min(x1, x2))]
    return table


def _b2_with_2h1(alg):
    """B2 with [x_1, y_1] = 2 h_1."""
    pos = alg.simple_positions[0]
    key = (alg.x_index(pos), alg.y_index(pos))
    return {**alg._table, key: ((alg.h_index(0), 2),)}


@pytest.mark.parametrize("label, corrupt", [("A2", _a2_without_x1_x2),
                                            ("B2", _b2_with_2h1)])
def test_tables_the_generators_do_not_span_go_to_the_search(monkeypatch, label, corrupt):
    alg = build_chevalley(cached_root_system(label))
    table = corrupt(alg)
    expected = _dense_jacobi_failure(alg.d, table)
    assert expected is not None
    monkeypatch.setattr(LieAlgebraData, "_build_table", lambda self, n: table)
    on_generators = _Spy(monkeypatch, "_jacobi_holds_on")
    message = "Jacobi identity fails on basis triple (%d,%d,%d)" % expected
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        LieAlgebraData(alg.rs)
    assert on_generators.results == []  # the spanning check sent it on


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


def _pairwise_product(u, v):
    """u * v one pair of terms at a time, in Fractions, through
    ``multiply_monomials``: the oracle of the one-pass integer product.
    Returns the sum with its zero entries, which mark cancelled terms."""
    kernel = u.alg.kernel
    out = {}
    for ea, ca in u.terms.items():
        for eb, cb in v.terms.items():
            scale = ca * cb
            for mono, c in kernel.multiply_monomials(ea, eb).items():
                x = scale * c
                out[mono] = out[mono] + x if mono in out else x
    return out


def _sharing_element(alg, rng, max_degree=3):
    """1 to 4 terms, signs mixed, over denominators built from 2, 3 and 5,
    so that the denominators of two elements share factors."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * alg.d
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(alg.d)] += 1
        den = rng.choice([1, 2, 3, 4, 6, 9, 10, 12, 25, 30])
        terms[tuple(exps)] = F(rng.choice([-1, 1]) * rng.randint(1, 40), den)
    return UEAElement(alg, terms)


def _cancelling_pair(alg, rng):
    """(a + b)(a - b) = a^2 - b^2 - [a, b]: the top terms of ab and ba cancel."""
    a = alg.basis_element(rng.randrange(alg.d)) * alg.basis_element(rng.randrange(alg.d))
    b = F(rng.randint(1, 5), rng.randint(1, 4)) * alg.basis_element(rng.randrange(alg.d))
    return a + b, a - b


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "F4", "E6"])
def test_product_matches_pairwise_fraction_oracle(label):
    alg = build_chevalley(cached_root_system(label))
    rng = random.Random(41)
    zero, one = alg.zero(), alg.one()
    u = _sharing_element(alg, rng)
    pairs = [(zero, u), (u, zero), (zero, zero), (one, u), (u, one), (one, one)]
    pairs += [(_sharing_element(alg, rng), _sharing_element(alg, rng)) for _ in range(10)]
    pairs += [_cancelling_pair(alg, rng) for _ in range(3)]
    cancelled = shared = 0
    for u, v in pairs:
        got = (u * v).terms
        expected = _pairwise_product(u, v)
        cancelled += F(0) in expected.values()
        assert got == {e: c for e, c in expected.items() if c}, (label, u, v)
        for c in got.values():
            assert type(c) is F and c and c.denominator > 0
            assert math.gcd(c.numerator, c.denominator) == 1
        dens = [lcm(*(c.denominator for c in w.terms.values())) for w in (u, v)]
        shared += math.gcd(*dens) > 1
    assert (one * u).terms == u.terms and (u * one).terms == u.terms
    assert (zero * u).is_zero() and (u * zero).is_zero()
    assert cancelled >= 3 and shared >= 3


def _read_off(u):
    """The term profile read off ``terms``: (sum(exps), n, m) per term."""
    return tuple(x for exps, c in u.terms.items()
                 for x in (sum(exps), c.numerator, c.denominator))


def _has_profile(u):
    return hasattr(u, "_profile")


@pytest.mark.parametrize("label", ["A2", "G2", "F4"])
def test_term_profile_matches_the_terms(label):
    alg = build_chevalley(cached_root_system(label))
    rng = random.Random(43)
    lo, hi = alg.m, alg.m + alg.l
    uh = UEAElement(alg, {tuple(rng.randint(0, 2) if lo <= i < hi else 0
                                for i in range(alg.d)): F(rng.randint(1, 9), 4)
                          for _ in range(3)})
    for _ in range(4):
        u, v = _sharing_element(alg, rng), _sharing_element(alg, rng)
        w = u * v
        assert _has_profile(w)  # filled by the product
        w._term_profile()
        lazy = [u + v, u - v, -u, F(2, 3) * u, 3 * u, F(-6, 35) * w, -w, w * F(-1, 3),
                0 * w, w.transpose(), w.hc_project(),
                h_substitute(uh, [F(1, 2), -1][:alg.l] + [0] * (alg.l - 2)),
                pickle.loads(pickle.dumps(w)), copy.deepcopy((alg, w))[1]]
        assert not any(map(_has_profile, lazy))
        for x in [w, w * 0, alg.zero() * w] + lazy:
            assert x._term_profile() == _read_off(x), (label, x)
        assert copy.copy(w)._term_profile() == _read_off(w)


def test_term_profile_is_not_part_of_the_value(b2):
    rng = random.Random(47)
    u, v = random_element(b2, rng), random_element(b2, rng)
    w = u * v
    bare = UEAElement._exact(b2, w.terms)
    assert not _has_profile(bare) and _has_profile(w)
    assert w == bare and hash(w) == hash(bare) and repr(w) == repr(bare)
    assert pickle.dumps(w) == pickle.dumps(bare)
    assert not _has_profile(pickle.loads(pickle.dumps(w)))
    with pytest.raises(AttributeError):
        w._profile = ()
    with pytest.raises(AttributeError):
        bare._profile = _read_off(bare)
    assert not _has_profile(bare)


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
        wu = a2.monomial_weight(tuple(e1))
        wv = a2.monomial_weight(tuple(e2))
        prod = u * v
        if prod.is_zero():
            continue
        expected = tuple(a + b for a, b in zip(wu, wv))
        assert {a2.monomial_weight(e) for e in prod.terms} == {expected}


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
    assert x.transpose() == y
    assert y.transpose() == x
    assert h.transpose() == h
    assert (x * y).transpose() == y.transpose() * x.transpose()


def test_transpose_involution_and_antiautomorphism():
    rng = random.Random(29)
    for label in ("A1", "A2", "B2"):
        alg = build_chevalley(cached_root_system(label))
        for _ in range(10):
            u = random_element(alg, rng)
            v = random_element(alg, rng)
            assert u.transpose().transpose() == u
            assert (u * v).transpose() == v.transpose() * u.transpose()


# -- Harish-Chandra projection -------------------------------------------------------

def test_hc_project_examples(a1):
    x, y, h = a1.x(0), a1.y(0), a1.h(0)
    assert (x * y).hc_project() == h
    assert (y * x).hc_project().is_zero()
    p = h * h + 2 * h
    assert p.hc_project() == p


def test_hc_project_multiplicative_on_weight_zero():
    rng = random.Random(31)
    for label in ("A1", "A2"):
        alg = build_chevalley(cached_root_system(label))
        for _ in range(8):
            u = random_weight_zero(alg, rng)
            v = random_weight_zero(alg, rng)
            assert (u * v).hc_project() == u.hc_project() * v.hc_project()


def test_evaluate_examples(a1):
    h = a1.h(0)
    assert h.evaluate_at(a1.rs.rho()) == 1
    assert (h * h + 2 * h).evaluate_at(Weight([3])) == 15
    assert a1.one().evaluate_at(Weight([3])) == 1
    with pytest.raises(DomainError):
        a1.x(0).evaluate_at(Weight([3]))


def test_evaluate_refuses_every_term_off_u_h(a1, b2):
    """A term with an x or a y beside h's of any degree is refused, also
    when the other terms lie in U(h)."""
    for alg in (a1, b2):
        lam = Weight([3] * alg.l)
        h = alg.h(0)
        for idx in list(range(alg.m)) + list(range(alg.m + alg.l, alg.d)):
            b = alg.basis_element(idx)
            for u in (b, h * h + b, h * b, b * h + alg.one()):
                with pytest.raises(DomainError, match="not in U"):
                    u.evaluate_at(lam)
        assert (h * h + alg.one()).evaluate_at(lam) == 10


def test_h_substitute_shifts(a2):
    h1, h2 = a2.h(0), a2.h(1)
    p = h1 * h2 + h1
    shifted = h_substitute(p, [1, -1])
    expected = (h1 + a2.one()) * (h2 - a2.one()) + h1 + a2.one()
    assert shifted == expected


def _cartan_element(alg, rng):
    """Up to 4 terms of degree <= 4 in U(h), Fraction coefficients; may be 0."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = [0] * alg.d
        for _ in range(rng.randint(0, 4)):
            exps[alg.h_index(rng.randrange(alg.l))] += 1
        terms[tuple(exps)] = F(rng.randint(-9, 9), rng.randint(1, 5))
    return UEAElement(alg, terms)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_h_substitute_matches_shifted_evaluation(label):
    """Substituting s and evaluating at lam is evaluating at lam + s; the
    right side never multiplies in U(g), so it checks the ring product."""
    alg = build_chevalley(cached_root_system(label))
    rng = random.Random(23)
    pool = [F(0), F(-2), F(3), F(1, 2), F(-5, 3)]
    shift_lists = [[F(0)] * alg.l, [F(-1)] * alg.l, [F(-7, 4)] * alg.l]
    shift_lists += [[rng.choice(pool) + F(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in range(alg.l)] for _ in range(5)]
    elements = [alg.zero(), alg.one()] + [_cartan_element(alg, rng) for _ in range(25)]
    for p in elements:
        for shifts in shift_lists:
            shifted = h_substitute(p, shifts)
            for _ in range(3):
                lam = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.l)]
                moved = Weight([a + b for a, b in zip(lam, shifts)])
                assert shifted.evaluate_at(Weight(lam)) == p.evaluate_at(moved), (p, shifts)


def test_h_substitute_errors(a2):
    h1 = a2.h(0)
    for p in (a2.x(0), a2.y(1), h1 + a2.x(0), a2.x(0) + h1):
        with pytest.raises(DomainError, match="element of U\\(h\\)"):
            h_substitute(p, [1, 1])
    # a short shift list is read only when a term is
    assert h_substitute(a2.zero(), []) == a2.zero()
    assert h_substitute(a2.zero(), [1]) == a2.zero()
    for p in (h1, a2.one(), a2.h(1) * h1):
        with pytest.raises(IndexError):
            h_substitute(p, [1])
    # entries past the rank are ignored, but every shift is read first
    assert h_substitute(h1, [1, 0, 5]) == h1 + a2.one()
    with pytest.raises(ValueError):
        h_substitute(a2.x(0), ["one", 1])
    with pytest.raises(TypeError):
        h_substitute(a2.zero(), [1, 1, None])


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


def _dense_casimir(alg):
    """Reference Casimir: dense ad matrices, inverted Killing form, dual basis."""
    d = alg.d
    ad = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (hi, lo), entries in alg._table.items():
        for k, c in entries:
            ad[hi][k][lo] = c
            ad[lo][k][hi] = -c
    killing = [[sum(ad[i][p][q] * ad[j][q][p] for p in range(d) for q in range(d))
                for j in range(d)] for i in range(d)]
    inv = exactla.invert(killing)
    omega = alg.zero()
    for j in range(d):
        dual = alg.zero()
        for k in range(d):
            dual = dual + inv[k][j] * alg.basis_element(k)
        omega = omega + alg.basis_element(j) * dual
    return omega


# products whose simple factors carry differently scaled Killing forms
_PRODUCTS = {"A1xA1": ((2, 0), (0, 2)),
             "B2xA1": ((2, -1, 0), (-2, 2, 0), (0, 0, 2))}


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2",
                                   "A1xA1", "B2xA1"])
def test_casimir_matches_dense_killing_form(label):
    rs = (build_root_system(_PRODUCTS[label]) if label in _PRODUCTS
          else cached_root_system(label))
    alg = build_chevalley(rs)
    assert casimir(alg) == _dense_casimir(alg)


@pytest.mark.parametrize("label", ["B3", "E6"])
def test_casimir_inverts_only_the_cartan_block(monkeypatch, label):
    alg = LieAlgebraData(cached_root_system(label))  # no Casimir cached yet
    shapes = []
    invert = exactla.invert

    def spy(matrix):
        shapes.append((len(matrix), {len(row) for row in matrix}))
        return invert(matrix)

    monkeypatch.setattr(exactla, "invert", spy)
    omega = casimir(alg)
    assert shapes == [(alg.l, {alg.l})]

    products = []
    multiply = UEAElement.__mul__

    def counted(self, other):
        if isinstance(other, UEAElement):
            products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(UEAElement, "__mul__", counted)
    assert liealg.is_central(omega + alg.one())  # central, so no early exit
    assert 0 < len(products) <= 4 * alg.l


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
    for exps in ([0.5, 0, 1.9], ["2", 0, 0], [0, 0, F(1)]):
        with pytest.raises(DomainError, match="bad exponent vector"):
            a1.monomial(exps)
    with pytest.raises(DomainError):
        a1.x(a1.root_position((2,)))


@pytest.mark.parametrize("label, key", [
    ("A1", (-1, 0, 0)), ("A1", (1,)), ("A1", (0, 0, 0, 1)), ("A2", (1,)),
    ("A1", (0.5, 0, 1)), ("A1", (0, F(1), 0)), ("A1", ("1", 0, 0)),
], ids=["negative", "short", "long", "short-A2", "float", "fraction", "string"])
def test_element_refuses_malformed_exponent_keys(label, key):
    # on A1, {(-1, 0, 0): 1} used to print as y(1) and multiply as y
    alg = build_chevalley(cached_root_system(label))
    with pytest.raises(DomainError, match="bad exponent vector"):
        UEAElement(alg, {key: 1})
    with pytest.raises(DomainError, match="bad exponent vector"):
        UEAElement(alg, {key: 0})


def test_exponents_read_through_index_are_exact_ints(a1):
    for exps in ([True, 0, 0], (True, 0, 300)):
        (key,) = a1.monomial(exps).terms
        assert key == tuple(map(int, exps)) and set(map(type, key)) == {int}


def test_element_keeps_exponents_past_a_byte(a1):
    u = UEAElement(a1, {(0, 300, 0): 2, (1, 0, 0): 1})
    assert u == 2 * a1.h(0) ** 300 + a1.y(0)


def test_monomial_weight_refuses_the_wrong_length(a2):
    # on A2, (1,) used to read as y of the highest root, weight (-1, -1)
    assert a2.monomial_weight((1,) + (0,) * 7) == (-1, -1)
    for exps in ((1,), (0,) * 9):
        with pytest.raises(DomainError, match="bad exponent vector"):
            a2.monomial_weight(exps)


@pytest.mark.parametrize("call, arg", [
    ("x", -1), ("x", 3), ("y", -1), ("y", 3), ("h", -1), ("h", 2),
    ("basis_element", -1), ("basis_element", 8),
])
def test_basis_accessors_refuse_out_of_range_indices(a2, call, arg):
    # A2: m = 3 positive roots, rank l = 2, dimension d = 8
    with pytest.raises(DomainError, match="outside"):
        getattr(a2, call)(arg)


@pytest.mark.parametrize("call, arg", [
    ("x", 0.5), ("x", True), ("y", 1.0), ("h", True), ("basis_element", "0"),
])
def test_basis_accessors_refuse_indices_that_are_not_integers(a2, call, arg):
    # a bool is refused although True == 1: x(True) would read as x(1)
    with pytest.raises(DomainError, match="is not an integer"):
        getattr(a2, call)(arg)


def test_simple_positions_name_the_simple_roots():
    for label in ("A2", "B3", "G2"):
        alg = LieAlgebraData(build_root_system(label))
        roots = alg.rs.positive_roots
        assert [roots[p] for p in alg.simple_positions] == list(alg.rs.simple_roots())


def test_deep_copied_algebra_holds_its_own_elements():
    alg = LieAlgebraData(build_root_system("A1"))
    omega = casimir(alg)  # kept in alg.cache, so the algebra holds an element
    alg2 = copy.deepcopy(alg)
    omega2 = casimir(alg2)
    assert alg2 is not alg and omega2.alg is alg2 and omega2.terms == omega.terms
    assert (omega2 * alg2.x(0)).terms == (omega * alg.x(0)).terms
    # copied together, the element follows its algebra into the copy
    alg3, omega3 = copy.deepcopy((alg, omega))
    assert omega3.alg is alg3 and casimir(alg3) is omega3
    # on its own, an element is its own deep copy
    assert copy.deepcopy(omega) is omega


def test_element_copies_and_pickles_keep_value_and_hash(b2):
    u = random_element(b2, random.Random(71))
    assert copy.copy(u) is u and copy.deepcopy(u) is u
    back = pickle.loads(pickle.dumps(u))
    assert back.terms == u.terms and hash(back) == hash(u)


def test_element_pickled_with_its_algebra_belongs_to_it():
    alg = LieAlgebraData(build_root_system("B2"))
    omega = casimir(alg)  # kept in alg.cache, so the algebra holds an element
    u = random_element(alg, random.Random(72))
    alg2, omega2, u2 = pickle.loads(pickle.dumps((alg, omega, u)))
    assert alg2 is not alg
    assert omega2.alg is alg2 and u2.alg is alg2 and casimir(alg2) is omega2
    assert omega2.terms == omega.terms and u2.terms == u.terms
    assert (u2 * omega2).terms == (u * omega).terms
