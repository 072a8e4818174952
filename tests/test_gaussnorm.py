import dataclasses
import itertools
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

import pytest

from bggkit.errors import DomainError
from bggkit.gaussnorm import (MILLER_RABIN_BOUND, LogNorm, NormParam,
                              check_submultiplicative, check_ultrametric,
                              is_prime, log_norm, vp)
from bggkit.liealg import UEAElement, build_chevalley
from bggkit.rootdata import cached_root_system


def test_vp_examples():
    assert vp(5, 5) == 1
    assert vp(F(1, 25), 5) == -2
    assert vp(6, 3) == 1
    assert vp(6, 2) == 1
    assert vp(F(7, 10), 5) == -1
    with pytest.raises(DomainError):
        vp(0, 5)
    with pytest.raises(DomainError):
        vp(3, 4)


def test_norm_param_validation():
    NormParam(2, F(1, 2))
    with pytest.raises(DomainError):
        NormParam(4, F(1))
    with pytest.raises(DomainError):
        NormParam(5, F(0))
    with pytest.raises(DomainError):
        NormParam(5, F(-1, 2))


@pytest.mark.parametrize("p", [5.0, F(5), F(5, 2), 2.5, "5", None])
def test_norm_param_rejects_non_integer_prime(p):
    with pytest.raises(DomainError):
        NormParam(p, F(1))
    with pytest.raises(DomainError):
        vp(25, p)


def _trial_division(n):
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-5, 20000) if is_prime(n)] == \
        [n for n in range(-5, 20000) if _trial_division(n)]


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051],
                         ids=["carmichael", "spsp-2-3-5-7", "spsp-2-to-23"])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_accepts_large_primes():
    assert is_prime(2 ** 61 - 1)
    assert is_prime(100000000000031)
    assert not is_prime((2 ** 61 - 1) * 1000003)
    assert NormParam(2 ** 61 - 1, F(1)).p == 2 ** 61 - 1


def test_is_prime_refuses_at_the_bound():
    # the bound itself is a strong pseudoprime to all thirteen bases,
    # 1287836182261 * 2575672364521; bound + 6 has no factor up to 41
    for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 6):
        with pytest.raises(DomainError, match=str(MILLER_RABIN_BOUND)):
            is_prime(n)
    # a factor among the bases still decides: 2, 3, 17 and 41
    for n in (MILLER_RABIN_BOUND + 1, MILLER_RABIN_BOUND + 2,
              MILLER_RABIN_BOUND - 2, 41 * MILLER_RABIN_BOUND):
        assert not is_prime(n)
    # just below the bound: the largest prime there, and a composite
    # (bound - 8) with no factor up to 41
    assert is_prime(MILLER_RABIN_BOUND - 168)
    assert not is_prime(MILLER_RABIN_BOUND - 8)


def test_log_norm_examples(a1):
    np = NormParam(5, F(1, 2))
    assert log_norm(a1.one(), np) == LogNorm.of(0)
    assert log_norm(5 * a1.x(0), np) == LogNorm.of(F(-1, 2))  # -1 + s
    assert log_norm(a1.zero(), np).is_bottom
    # normal ordering first: x*y = yx + h, degree 2 term dominates at s=1
    np1 = NormParam(5, F(1))
    assert log_norm(a1.x(0) * a1.y(0), np1) == LogNorm.of(2)


def test_submultiplicative_examples(a1):
    np = NormParam(5, F(1))
    assert check_submultiplicative(a1.one(), a1.x(0), np)
    assert check_submultiplicative(a1.x(0), a1.y(0), np)
    assert check_submultiplicative(a1.zero(), a1.x(0), np)


def test_bottom_ordering():
    bot = LogNorm.bottom()
    assert bot <= LogNorm.of(-100)
    assert bot <= bot
    assert not LogNorm.of(0) <= bot
    assert bot.plus(LogNorm.of(3)).is_bottom
    assert str(bot) == "-inf"
    assert str(LogNorm.of(F(3, 2))) == "3/2"


def test_scaling_identity(a2):
    rng = random.Random(4)
    np = NormParam(2, F(2))
    for _ in range(40):
        exps = [0] * a2.d
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(a2.d)] += 1
        u = a2.monomial(exps, F(rng.randint(1, 40), rng.randint(1, 40)))
        c = F(rng.randint(1, 64), rng.randint(1, 64))
        assert log_norm(c * u, np) == log_norm(u, np).shift(-vp(c, 2))


def test_ultrametric_random(b2):
    rng = random.Random(6)
    np = NormParam(2, F(1, 2))
    for _ in range(60):
        terms_u = {}
        terms_v = {}
        for terms in (terms_u, terms_v):
            for _ in range(rng.randint(1, 3)):
                exps = [0] * b2.d
                for _ in range(rng.randint(0, 3)):
                    exps[rng.randrange(b2.d)] += 1
                terms[tuple(exps)] = F(rng.randint(-20, 20), rng.randint(1, 8))
        u = UEAElement(b2, terms_u)
        v = UEAElement(b2, terms_v)
        assert check_ultrametric(u, v, np)


def test_monotone_in_s(a1):
    # all coefficients have the same valuation, so the norm grows with s
    u = a1.x(0) * a1.y(0) + a1.h(0)
    values = []
    for s in (F(1, 2), F(1), F(2)):
        values.append(log_norm(u, NormParam(3, s)).value)
    assert values == sorted(values)


def _valuation_by_division(c, p):
    """v_p(c) by dividing (or multiplying) the Fraction c by p."""
    v = 0
    while (c / p).denominator % p:  # c / p is still p-integral
        c /= p
        v += 1
    while c.denominator % p == 0:
        c *= p
        v -= 1
    return v


def _random_element(alg, rng, p):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = [0] * alg.d
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(alg.d)] += 1
        num = rng.choice([-1, 1]) * rng.randint(0, 40) * p ** rng.randint(0, 3)
        terms[tuple(exps)] = F(num, rng.randint(1, 30) * p ** rng.randint(0, 2))
    return UEAElement(alg, terms)


def _denominator_only_element(alg, rng, p):
    """1 to 3 terms whose coefficients hold p in the denominator only."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * alg.d
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(alg.d)] += 1
        num = 0
        while num % p == 0:
            num = rng.choice([-1, 1]) * rng.randint(1, 40)
        terms[tuple(exps)] = F(num, rng.randint(1, 9) * p ** rng.randint(1, 3))
    return UEAElement(alg, terms)


@pytest.mark.parametrize("label", ["A1", "B2", "G2"])
def test_log_norm_matches_division_oracle(label):
    alg = build_chevalley(cached_root_system(label))
    rng = random.Random(17)
    cases = denominator_only = 0
    for p in (2, 3, 5, 7):
        elements = [alg.zero()]
        elements += [_random_element(alg, rng, p) for _ in range(12)]
        elements.append(elements[-1] * elements[-2])
        elements += [_denominator_only_element(alg, rng, p) for _ in range(6)]
        for s in (F(1, 3), F(1, 2), F(1), F(5, 2), F(7)):
            np = NormParam(p, s)
            for u in elements:
                got = log_norm(u, np)
                if u.is_zero():
                    assert got.is_bottom
                    continue
                expected = max(-_valuation_by_division(c, p) + sum(e) * s
                               for e, c in u.terms.items())
                assert got == LogNorm.of(expected), (label, p, s, u)
                cases += 1
                denominator_only += all(c.numerator % p and not c.denominator % p
                                        for c in u.terms.values())
    assert cases > 150
    assert denominator_only > 100


def _ultrametric_reference(u, v, np):
    """The documented rule, read off log_norm(u + v)."""
    nu, nv, ns = log_norm(u, np), log_norm(v, np), log_norm(u + v, np)
    top = nu if nv <= nu else nv
    return ns <= top and (nu == nv or ns == top)


def _overlapping_pair(alg, rng, p):
    """u and a v that shares some of u's keys, some with opposite coefficients."""
    u = _random_element(alg, rng, p)
    terms = {}
    for exps, c in u.terms.items():
        pick = rng.randrange(4)
        if pick == 0:
            terms[exps] = -c
        elif pick == 1:
            terms[exps] = c * F(rng.choice([-1, 1]) * p ** rng.randint(0, 2),
                                p ** rng.randint(0, 2))
        elif pick == 2:
            terms[exps] = F(rng.randint(-30, 30), rng.randint(1, 9))
    terms.update(_random_element(alg, rng, p).terms)
    return u, UEAElement(alg, terms)


@pytest.mark.parametrize("label", ["A1", "B2", "G2"])
def test_ultrametric_matches_reference(label):
    alg = build_chevalley(cached_root_system(label))
    rng = random.Random(29)
    x, y, h = alg.x(0), alg.y(0), alg.h(0)
    named = [
        (4 * (x * x * y) + y, -4 * (x * x * y) + h),  # the top term cancels
        (F(1, 2) * (x * y) + 3 * h, F(-1, 2) * (x * y)),
        (x * y + F(2, 5) * h, -(x * y + F(2, 5) * h)),  # u = -v
        (alg.zero(), x + 10 * y),  # u = 0
        (alg.zero(), alg.zero()),
        (20 * (x * h), 20 * (x * h)),  # u = v
    ]
    cancelling = 0
    for p in (2, 3, 5):
        pairs = named + [_overlapping_pair(alg, rng, p) for _ in range(25)]
        cancelling += sum(any(v.terms.get(e) == -c for e, c in u.terms.items())
                          for u, v in pairs)
        for s in (F(1, 3), F(1, 2), F(1), F(2)):
            np = NormParam(p, s)
            for u, v in pairs:
                assert check_ultrametric(u, v, np) == _ultrametric_reference(u, v, np), \
                    (label, p, s, u, v)
    assert cancelling > 30
    # p in the denominators only, on shared keys and apart
    for p in (2, 3, 5, 7):
        pairs = []
        for _ in range(10):
            u = _denominator_only_element(alg, rng, p)
            w = _denominator_only_element(alg, rng, p)
            pairs += [(u, w), (u, u), (u, u + w), (u, w - u)]
        for s in (F(1, 3), F(5, 2)):
            np = NormParam(p, s)
            for u, v in pairs:
                assert check_ultrametric(u, v, np) == _ultrametric_reference(u, v, np), \
                    (label, p, s, u, v)


def test_ultrametric_rejects_elements_of_different_algebras(a1, b2):
    with pytest.raises(DomainError):
        check_ultrametric(a1.x(0), b2.x(0), NormParam(2, F(1)))
    with pytest.raises(DomainError):
        check_ultrametric(a1.zero(), b2.zero(), NormParam(2, F(1)))


# -- LogNorm against the Fraction-valued dataclass it replaced ------------------

@dataclass(frozen=True, order=False)
class _FractionLogNorm:
    """The earlier LogNorm, a frozen dataclass over a Fraction."""

    value: Optional[F]

    @classmethod
    def bottom(cls):
        return cls(None)

    @classmethod
    def of(cls, value):
        return cls(F(value))

    @property
    def is_bottom(self):
        return self.value is None

    def _key(self):
        return (0,) if self.is_bottom else (1, self.value)

    def __le__(self, other):
        return self._key() <= other._key()

    def __lt__(self, other):
        return self._key() < other._key()

    def plus(self, other):
        if self.is_bottom or other.is_bottom:
            return _FractionLogNorm.bottom()
        return _FractionLogNorm(self.value + other.value)

    def shift(self, delta):
        if self.is_bottom:
            return self
        return _FractionLogNorm(self.value + F(delta))

    def __str__(self):
        return "-inf" if self.is_bottom else str(self.value)


_FractionLogNorm.__qualname__ = "LogNorm"  # the repr names the class


def _same(got, ref):
    """got (a LogNorm) shows the reference's value, hash, repr and str."""
    assert type(got) is LogNorm
    assert got.value == ref.value and type(got.value) is type(ref.value)
    assert got.is_bottom == ref.is_bottom
    assert hash(got) == hash(ref) == hash((ref.value,))
    assert repr(got) == repr(ref)
    assert str(got) == str(ref)


def test_log_norm_values_match_the_fraction_dataclass():
    rng = random.Random(31)
    values = [F(rng.randint(-60, 60), rng.choice([1, 1, 2, 3, 4, 6, 9, 10, 12, 35]))
              for _ in range(40)]
    values += [F(0), F(-7), F(1, 10 ** 20), F(-10 ** 20, 3)]
    pairs = [(LogNorm.of(v), _FractionLogNorm.of(v)) for v in values]
    pairs.append((LogNorm.bottom(), _FractionLogNorm.bottom()))
    pairs.append((LogNorm(None), _FractionLogNorm(None)))
    for got, ref in pairs:
        _same(got, ref)
        _same(LogNorm(ref.value), ref)
    deltas = [0, 3, -5, True, False, F(1, 2), F(-7, 6), F(5, 4), F(9, 3), 2 ** 70]
    for (a, ra), (b, rb) in itertools.product(pairs, repeat=2):
        _same(a.plus(b), ra.plus(rb))
        assert (a <= b) == (ra <= rb) and (a < b) == (ra < rb), (ra, rb)
        assert (a >= b) == (ra >= rb) and (a > b) == (ra > rb), (ra, rb)
        assert (a == b) == (ra == rb) and (a != b) == (ra != rb), (ra, rb)
    for (got, ref), delta in itertools.product(pairs, deltas):
        _same(got.shift(delta), ref.shift(delta))


def test_log_norm_equality_hash_and_immutability():
    assert LogNorm(F(4, 2)) == LogNorm.of(2)
    assert hash(LogNorm(F(4, 2))) == hash(LogNorm.of(2)) == hash((F(2),))
    assert LogNorm.of(F(1, 2)) != LogNorm.bottom()
    assert LogNorm.of(0) != LogNorm.bottom()
    assert LogNorm.of(1) != F(1) and LogNorm.of(1) != _FractionLogNorm.of(1)
    assert len({LogNorm.of(F(6, 4)), LogNorm(F(3, 2)), LogNorm.bottom(),
                LogNorm(None)}) == 2
    norm = LogNorm.of(F(3, 2))
    for name in ("value", "_num", "_den", "other"):
        with pytest.raises(AttributeError):
            setattr(norm, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        norm.value = F(1)
    assert norm == LogNorm.of(F(3, 2))
    for original in (norm, LogNorm.bottom()):
        assert pickle.loads(pickle.dumps(original)) == original
