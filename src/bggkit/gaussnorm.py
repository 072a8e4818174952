"""Gauss norms on the enveloping algebra, tracked in log_p coordinates.

For a prime p and radius r = p^s with s > 0, the norm of an element
sum_A d_A X^A is sup_A |d_A| r^{|A|}.  Everything is kept exact by
working with log_p of the norm: the value is max_A(-v_p(d_A) + |A| s),
a rational number, with a bottom element standing in for the norm 0 of
the zero element.  Radii with s <= 0 are rejected; submultiplicativity
only holds for r > 1.

The norm checks work on integers, in units of 1/b for s = a/b: a term
with coefficient n/m and degree |A| scores |A| a - b (v_p(n) - v_p(m)).
Both checks read |A|, n and m from the element's term profile
(``UEAElement._term_profile``), which is computed once per element (a
product fills it as it builds its terms), so no check sums an exponent
tuple or reads a Fraction's numerator, apart from the coefficients of v
on keys that u shares.  ``log_norm`` reduces the best score over b with
one gcd, and ``check_ultrametric`` scores u, v and u+v in one pass over
the union of the two supports without building u+v or any LogNorm.  A
LogNorm is an exact integer pair in lowest terms: its sums, shifts and
comparisons work in integers, and a Fraction is built only when its value
is read.  The prime is checked once, when the NormParam (a frozen
``record.Record``) is made.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import DomainError
from .liealg import UEAElement
from .record import Record


#: the first 13 primes; as Miller-Rabin bases they decide primality
#: exactly below MILLER_RABIN_BOUND (Sorenson-Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; DomainError when it cannot decide n.

    Multiples of a base are settled first, so only a number at or above
    MILLER_RABIN_BOUND with no factor up to 41 is refused.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= MILLER_RABIN_BOUND:
        raise DomainError(f"cannot decide whether {n} is prime: primality is "
                          f"only decided below {MILLER_RABIN_BOUND}")
    r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _checked_prime(p) -> int:
    """p as an int, or DomainError unless it is an integer and prime."""
    try:
        n = operator.index(p)
    except TypeError:
        raise DomainError(f"{p!r} is not an integer prime") from None
    if not is_prime(n):
        raise DomainError(f"{n} is not prime")
    return n


def _vp_int(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(c, p: int) -> int:
    """p-adic valuation of a nonzero rational; |c| = p^(-vp(c))."""
    if not isinstance(c, Fraction):
        c = Fraction(c)
    if c == 0:
        raise DomainError("valuation of zero is undefined")
    p = _checked_prime(p)
    return _vp_int(c.numerator, p) - _vp_int(c.denominator, p)


class NormParam(Record):
    """Prime p and log-radius s = log_p r, with r > 1 enforced."""

    p: int
    s: Fraction

    def __init__(self, p, s):
        p, s = _checked_prime(p), Fraction(s)
        if s <= 0:
            raise DomainError("log-radius must be positive (r > 1)")
        super().__init__(p, s)


#: the score of the zero element, below every integer term score
_BOTTOM = float("-inf")


class LogNorm:
    """log_p of a Gauss norm; value None encodes the norm of zero.

    The value is kept exact as an integer pair (num, den) in lowest terms
    with den > 0, and den = 0 at the bottom.  Sums, shifts and
    comparisons work on the pair (a/b <= c/d iff ad <= cb); ``value``
    builds its Fraction only when read.  Instances are immutable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, value: Optional[Fraction]):
        if value is None:
            num, den = 0, 0
        else:
            value = Fraction(value)
            num, den = value.numerator, value.denominator
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def bottom(cls) -> "LogNorm":
        return cls(None)

    @classmethod
    def of(cls, value) -> "LogNorm":
        return cls(Fraction(value))

    @property
    def value(self) -> Optional[Fraction]:
        den = self._den
        if not den:
            return None
        return Fraction(self._num, den)

    @property
    def is_bottom(self) -> bool:
        return not self._den

    __setattr__ = Record.__setattr__  # FrozenInstanceError, as a record gives
    __delattr__ = Record.__delattr__

    def __reduce__(self):
        return type(self), (self.value,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self.value,))

    def __le__(self, other: "LogNorm") -> bool:
        den = self._den
        if not den:
            return True
        oden = other._den
        return bool(oden) and self._num * oden <= other._num * den

    def __lt__(self, other: "LogNorm") -> bool:
        oden = other._den
        if not oden:
            return False
        den = self._den
        return not den or self._num * oden < other._num * den

    def plus(self, other: "LogNorm") -> "LogNorm":
        """Sum in log scale (product of norms); bottom is absorbing."""
        if not self._den or not other._den:
            return _BOTTOM_NORM
        return _sum(self._num, self._den, other._num, other._den)

    def shift(self, delta) -> "LogNorm":
        if not self._den:
            return self
        if isinstance(delta, int):  # num + delta*den stays coprime to den
            return _pair(self._num + delta * self._den, self._den)
        delta = Fraction(delta)
        return _sum(self._num, self._den, delta.numerator, delta.denominator)

    def __repr__(self):
        return f"LogNorm(value={self.value!r})"

    def __str__(self):
        return "-inf" if not self._den else str(self.value)


_set_num = LogNorm._num.__set__
_set_den = LogNorm._den.__set__


def _pair(num: int, den: int) -> LogNorm:
    """The LogNorm num/den, for coprime num and den > 0; no check."""
    norm = object.__new__(LogNorm)
    _set_num(norm, num)
    _set_den(norm, den)
    return norm


def _sum(a: int, b: int, c: int, d: int) -> LogNorm:
    """a/b + c/d for reduced pairs, reduced through gcd(b, d) rather than
    a gcd of the full sum (Knuth, TAOCP vol. 2, 4.5.1)."""
    g = gcd(b, d)
    if g == 1:
        return _pair(a * d + b * c, b * d)
    q = b // g
    t = a * (d // g) + c * q
    g = gcd(t, g)
    return _pair(t // g, q * (d // g))


_BOTTOM_NORM = LogNorm(None)


def _score(deg: int, num: int, den: int, p: int, a: int, b: int) -> int:
    """deg * a - b * v_p(num/den): b times the log norm of one term of
    degree deg and coefficient num/den in lowest terms, for s = a/b.

    num and den are coprime, so p divides at most one of them, and a term
    where it divides neither scores deg * a.
    """
    if not num % p:
        return deg * a - b * _vp_int(num, p)
    if den % p:
        return deg * a
    return deg * a + b * _vp_int(den, p)


def log_norm(u: UEAElement, np: NormParam) -> LogNorm:
    """max over the support of (-vp(coefficient) + degree * s)."""
    profile = u._term_profile()
    if not profile:
        return _BOTTOM_NORM
    p, a, b = np.p, np.s.numerator, np.s.denominator
    best = _BOTTOM
    it = iter(profile)
    for deg, num, den in zip(it, it, it):
        score = _score(deg, num, den, p, a, b)
        if score > best:
            best = score
    g = gcd(best, b)
    return _pair(best // g, b // g)


def check_submultiplicative(u: UEAElement, v: UEAElement, np: NormParam) -> bool:
    """True iff log|uv| <= log|u| + log|v| (bottom absorbing)."""
    return log_norm(u * v, np) <= log_norm(u, np).plus(log_norm(v, np))


def check_ultrametric(u: UEAElement, v: UEAElement, np: NormParam) -> bool:
    """log|u+v| <= max of the two, with equality when the maxima differ.

    One pass over the union of the two supports keeps the best integer
    term score of u, of v and of u+v, with -inf for the norm of zero.  A
    shared key is scored from the unreduced integer sum of its two
    coefficients, and is dropped when they cancel.  Neither u+v nor any
    LogNorm is built.
    """
    if u.alg is not v.alg:
        raise DomainError("elements belong to different algebras")
    p, a, b = np.p, np.s.numerator, np.s.denominator
    uterms, vterms = u.terms, v.terms
    nu = nv = ns = _BOTTOM
    it = iter(u._term_profile())
    for exps, deg, num, den in zip(uterms, it, it, it):
        su = _score(deg, num, den, p, a, b)
        if su > nu:
            nu = su
        cv = vterms.get(exps)
        if cv is None:
            if su > ns:
                ns = su
            continue
        vnum, vden = cv.numerator, cv.denominator
        sv = _score(deg, vnum, vden, p, a, b)
        if sv > nv:
            nv = sv
        total = num * vden + vnum * den
        if total:
            ss = deg * a - b * (_vp_int(total, p) - _vp_int(den * vden, p))
            if ss > ns:
                ns = ss
    it = iter(v._term_profile())
    for exps, deg, num, den in zip(vterms, it, it, it):
        if exps not in uterms:
            sv = _score(deg, num, den, p, a, b)
            if sv > nv:
                nv = sv
            if sv > ns:
                ns = sv
    top = max(nu, nv)
    return ns <= top and (nu == nv or ns == top)
