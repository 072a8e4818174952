"""Chevalley basis and exact PBW arithmetic in the enveloping algebra.

The basis is ordered triangularly: negative root vectors first (descending
root order), then the coroot basis h_1..h_l, then positive root vectors in
ascending root order.  Index layout for dimension d = 2m + l:

    0 .. m-1        y's, index k holding the root at position m-1-k
    m .. m+l-1      h_1 .. h_l
    m+l .. d-1      x's, index m+l+p holding the root at position p

Structure constants follow the extraspecial-pair convention: the
earliest positive summand of each non-simple root gets coefficient
p+1 > 0, and every other N_{a,b} follows in closed form from those
(Carter, *Simple Groups of Lie Type*, 4.1-4.2), one height at a time.
The bracket table is read off the nonzero brackets alone: the root's
weight b(h_k) for [h_k, b], the coroot for [x_a, y_a], and N_{a,b} for
two roots whose sum is a root.  Root weights come from the root system's
integer table of them, which ``rootdata`` reads off the Cartan matrix;
this module never reads that matrix.  The finished table is re-verified
against the Jacobi identity before use, so a convention bug cannot escape
as silent wrong arithmetic.  The check reads the table only: it shows
that the x_i and y_i generate, and that ad of each is a derivation, which
then holds for every element (Humphreys, GTM 9, 1.3).  When either step
fails, the exhaustive search over basis triples names the first triple
that breaks the identity.

One invariant form, the Killing form's Cartan block K_h, gives the root
lengths that N_{a,b} reads (only their ratios inside a simple component)
and the Casimir's dual bases; the Casimir is checked central once, on
the 2l generators x_i, y_i.  Memo tables live in ``alg.cache``, one per
function name, and the algebra in its root system's ``cache``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from operator import add, index, mul, sub
from typing import Dict, Optional, Tuple

from . import exactla
from .errors import ConsistencyError, DomainError
from .pbw import StraightenKernel
from .rootdata import Root, RootSystem, Weight

Exps = Tuple[int, ...]


def _killing_cartan_block(rs: RootSystem):
    """K_h and its inverse, K(h_i, h_j) = sum over roots of alpha(h_i) alpha(h_j)."""
    l = rs.rank
    values = [rs._root_weight[r] for r in rs.positive_roots]
    killing = [[2 * sum(v[i] * v[j] for v in values) for j in range(l)]
               for i in range(l)]
    try:
        return killing, exactla.invert(killing)
    except DomainError:
        raise DomainError("Killing form is degenerate; algebra not semisimple")


def _root_lengths(rs: RootSystem) -> Dict[Root, Fraction]:
    """(r, r) = w_r^T K_h^-1 w_r for every root r, w_r = (r(h_1), ..., r(h_l))
    read from the root system's weight table.

    Read as w_r^T F w_r / den, F = den K_h^-1 an integer matrix.
    """
    _, inv = _killing_cartan_block(rs)
    den = lcm(*(x.denominator for row in inv for x in row))
    form = [[int(x * den) for x in row] for row in inv]
    return {r: Fraction(sum(map(mul, w, (sum(map(mul, row, w)) for row in form))), den)
            for r, w in rs._root_weight.items()}


def _structure_constants(rs: RootSystem) -> Dict[Tuple[Root, Root], int]:
    """N_{a,b} with [x_a, x_b] = N_{a,b} x_{a+b}, for all roots a, b, a+b.

    Closed form in the extraspecial-pair convention (Carter, *Simple
    Groups of Lie Type*, 4.1-4.2).  Positive roots xi are taken in the
    deterministic order; the special pairs of xi are the (r, s) with
    r < s positive and r + s = xi.  The first, (r1, s1), is extraspecial
    and gets p + 1, p the largest integer with s1 - p r1 a root.  Every
    other special pair follows from lower heights by

        N_{r,s} = (xi,xi)/N_{r1,s1} [N_{s,-r1} N_{r,-s1} / (s-r1, s-r1)
                                    + N_{-r1,r} N_{s,-s1} / (r-r1, r-r1)],

    a term being zero when its difference is not a root, and must come
    out as +-(p+1).  Each value then fixes the rest of its orbit under
    N_{b,a} = -N_{a,b}, N_{-a,-b} = -N_{a,b} and, for a + b + c = 0,
    N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b); those must be integers.
    """
    roots = rs.roots
    order = rs._root_index
    norm = _root_lengths(rs)
    n: Dict[Tuple[Root, Root], int] = {}

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
        """N_{u,v} N_{w,z} / (diff, diff), zero when diff is not a root."""
        if diff not in roots:
            return 0
        return Fraction(n[(u, v)] * n[(w, z)]) / norm[diff]

    def record(a, b, value):
        c = sub(neg(a), b)
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            rotated = value * norm[w] / norm[c]
            if rotated.denominator != 1:
                raise ConsistencyError(
                    f"structure constant N_{{{u},{v}}} = {rotated} is not an integer")
            rotated = int(rotated)
            n[(u, v)] = rotated
            n[(v, u)] = -rotated
            n[(neg(u), neg(v))] = -rotated
            n[(neg(v), neg(u))] = rotated

    for xi in rs.positive_roots:
        special = [(r, sub(xi, r)) for r in rs.positive_roots
                   if order.get(sub(xi, r), -1) > order[r]]
        if not special:
            continue
        (r1, s1), others = special[0], special[1:]
        first = string_p(r1, s1) + 1
        record(r1, s1, Fraction(first))
        for r, s in others:
            value = norm[xi] / first * (term(s, neg(r1), r, neg(s1), sub(s, r1))
                                        + term(neg(r1), r, s, neg(s1), sub(r, r1)))
            if abs(value) != string_p(r, s) + 1:
                raise ConsistencyError(
                    f"special pair {r},{s} gets {value}, not +-(p+1)")
            record(r, s, value)
    return n


def _jacobi_failure(d: int, table) -> Optional[Tuple[int, int, int]]:
    """First basis triple i < j < k with a nonzero Jacobiator, or None.

    Exhaustive, read off the nonzero [b_hi, b_lo] (hi > lo) in table: only
    triples {a, b, c} with a term m of [a, b] and [m, c] != 0 are evaluated.
    ``LieAlgebraData`` runs it only when ``_jacobi_by_generators`` cannot
    vouch for the table, so that its error names this first triple; the
    selftest runs it as the independent route.
    """
    rows = [{} for _ in range(d)]
    for (hi, lo), entries in table.items():
        rows[hi][lo] = entries
        rows[lo][hi] = tuple((k, -c) for k, c in entries)
    candidates = {tuple(sorted((a, b, c))) for (a, b), entries in table.items()
                  for m, _ in entries for c in rows[m] if c not in (a, b)}
    for i, j, k in sorted(candidates):
        acc: Dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for mid, c1 in rows[a].get(b, ()):
                for out, c2 in rows[mid].get(c, ()):
                    acc[out] = acc.get(out, 0) + c1 * c2
        if any(acc.values()):
            return i, j, k
    return None


def _jacobi_holds_on(d: int, table, generators) -> bool:
    """True when no triple holding an index in generators has a nonzero
    Jacobiator.

    For each generator g, ad g must be a derivation: for every b > c,
    J(g, b, c) = [[g, b], c] - [[g, c], b] - [g, [b, c]] = 0, summed over
    the nonzero products only.  A triple holding an earlier generator
    was checked with it and is skipped.
    """
    rows = [{} for _ in range(d)]
    makers = [[] for _ in range(d)]  # makers[m]: (b, c, N) with N b_m in [b_b, b_c]
    for (hi, lo), entries in table.items():
        rows[hi][lo] = entries
        rows[lo][hi] = tuple([(k, -c) for k, c in entries])
        for m, c in entries:
            makers[m].append((hi, lo, c))
    done = set()
    for g in generators:
        done.add(g)
        if len(done) > d - 2:  # no pair b, c is left to check
            break
        row = rows[g]
        acc: Dict[int, int] = {}  # J(g, b, c) at out, keyed (b d + c) d + out
        get = acc.get
        for mid, terms in row.items():  # - [g, [b, c]]
            for b, c, c1 in makers[mid]:
                if b not in done and c not in done:
                    key = (b * d + c) * d
                    for out, c2 in terms:
                        acc[key + out] = get(key + out, 0) - c1 * c2
        for u, terms in row.items():  # [[g, u], v], for b = u or for c = u
            if u in done:
                continue
            for mid, c1 in terms:
                for v, products in rows[mid].items():
                    if v in done or v == u:
                        continue
                    if u > v:
                        key, sign = (u * d + v) * d, c1
                    else:
                        key, sign = (v * d + u) * d, -c1
                    for out, c2 in products:
                        acc[key + out] = get(key + out, 0) + sign * c2
        if any(acc.values()):
            return False
    return True


def _jacobi_by_generators(alg: "LieAlgebraData", table) -> bool:
    """True when table satisfies Jacobi, shown from the generators alone.

    The a whose ad is a derivation of the table's bracket form a
    subalgebra, since ad[a, b] = [ad a, ad b] once ad a is one
    (Humphreys, GTM 9, 1.3); so Jacobi holds on every triple once it
    holds on every triple with an x_i or y_i and those generate.  They
    generate when, in table, [x_i, y_i] = h_i and each non-simple x_beta
    (y_beta) is the one nonzero term of [x_{alpha_i}, x_{beta - alpha_i}]
    (of the y's) for some i.  False when either fails.
    """
    m, l = alg.m, alg.l
    generators = []
    for i, pos in enumerate(alg.simple_positions):
        x, y = m + l + pos, m - 1 - pos  # x_index(pos), y_index(pos)
        if table.get((x, y)) != ((m + i, 1),):
            return False
        generators += (x, y)
    roots, index = alg.rs.positive_roots, alg.rs._root_index
    for pos in range(l, m):  # the non-simple roots: by height, the simple come first
        splits = [(p, index[rest]) for p in range(l)
                  for rest in [tuple(map(sub, roots[pos], roots[p]))] if rest in index]
        for basis in (alg.x_index, alg.y_index):
            made = ([k for k, c in table.get((max(i, j), min(i, j)), ()) if c]
                    for i, j in ((basis(p), basis(q)) for p, q in splits))
            if [basis(pos)] not in made:  # one nonzero term, on basis(pos)
                return False
    return _jacobi_holds_on(alg.d, table, generators)


def _exponents(exps, d: int) -> Exps:
    """exps as a tuple of d nonnegative ints; else DomainError.

    A tuple of d ints in 0..255, the usual key, is returned as it is,
    checked by one bytearray() pass at C speed; any other input is read
    through operator.index, which gives exact ints.  A bool (or another
    int type) in such a tuple stays, equal and hash-equal to its int:
    making every key exact would cost a second pass and a new tuple per
    key, and ``jsonio.element_to_json`` writes ints."""
    if type(exps) is tuple and len(exps) == d:
        try:
            bytearray(exps)
            return exps
        except (TypeError, ValueError):
            pass
    try:
        exps = tuple(map(index, exps))
    except TypeError:
        raise DomainError("bad exponent vector") from None
    if len(exps) != d or min(exps) < 0:
        raise DomainError("bad exponent vector")
    return exps


def _in_range(value: int, size: int, what: str) -> int:
    """value as an int, if it is an integer (a bool is not) with
    0 <= value < size; else DomainError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = index(value)
    except TypeError:
        raise DomainError(f"{what} {value!r} is not an integer") from None
    if not 0 <= value < size:
        raise DomainError(f"{what} {value} is outside 0..{size - 1}")
    return value


class LieAlgebraData:
    """Split semisimple Lie algebra with verified integer structure constants."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.m = rs.num_positive
        self.l = rs.rank
        self.d = 2 * self.m + self.l
        positives = rs.positive_roots

        # basis-index weights, in simple-root coordinates
        weights = []
        for k in range(self.m):
            beta = positives[self.m - 1 - k]
            weights.append(tuple(-c for c in beta))
        weights.extend((0,) * self.l for _ in range(self.l))
        weights.extend(positives)
        self.index_weights: Tuple[Exps, ...] = tuple(weights)
        # positions of the simple roots alpha_1..alpha_l in the root order
        self.simple_positions = tuple(map(self.root_position, rs.simple_roots()))

        self._table = self._build_table(_structure_constants(rs))
        if not _jacobi_by_generators(self, self._table):
            failure = _jacobi_failure(self.d, self._table)
            if failure is not None:
                raise ConsistencyError(
                    "Jacobi identity fails on basis triple (%d,%d,%d)" % failure)
        self.kernel = StraightenKernel(self.d, self._table)
        self._one_exps = (0,) * self.d
        self.cache = {}

    # -- index bookkeeping ------------------------------------------------

    def y_index(self, pos: int) -> int:
        """Basis index of y for the positive root at position pos."""
        return self.m - 1 - pos

    def h_index(self, i: int) -> int:
        return self.m + i

    def x_index(self, pos: int) -> int:
        return self.m + self.l + pos

    def basis_label(self, idx: int) -> str:
        if idx < self.m:
            beta = self.rs.positive_roots[self.m - 1 - idx]
            return "y(%s)" % ",".join(map(str, beta))
        if idx < self.m + self.l:
            return "h%d" % (idx - self.m + 1)
        beta = self.rs.positive_roots[idx - self.m - self.l]
        return "x(%s)" % ",".join(map(str, beta))

    def monomial_weight(self, exps: Exps) -> Tuple[int, ...]:
        """Weight of a PBW monomial in simple-root coordinates; DomainError
        unless exps has d entries."""
        if len(exps) != self.d:
            raise DomainError("bad exponent vector")
        acc = [0] * self.l
        for e, wvec in zip(exps, self.index_weights):
            if e:
                for i, c in enumerate(wvec):
                    acc[i] += e * c
        return tuple(acc)

    # -- structure constants ----------------------------------------------

    def _build_table(self, n):
        """Nonzero [b_hi, b_lo] for hi > lo, in (hi, lo) order, read off
        the nonzero brackets: [h_k, b] = <beta, h_k> b for b of root beta,
        [x_a, y_a] = h_a, and [b_a, b_b] = N_{a,b} b_{a+b} for (a, b) in n.
        """
        basis_of = {w: k for k, w in enumerate(self.index_weights) if any(w)}
        table = {}
        for beta, k in basis_of.items():
            for i, c in enumerate(self.rs._root_weight[beta]):  # beta(h_i)
                h = self.h_index(i)
                if c and k < h:
                    table[(h, k)] = ((k, c),)
                elif c:
                    table[(k, h)] = ((k, -c),)
        for pos, beta in enumerate(self.rs.positive_roots):
            table[(self.x_index(pos), self.y_index(pos))] = tuple(
                (self.h_index(i), c) for i, c in enumerate(self.rs.coroot(beta)) if c)
        for (a, b), c in n.items():
            hi, lo = basis_of[a], basis_of[b]
            if hi > lo:
                table[(hi, lo)] = ((basis_of[tuple(map(add, a, b))], c),)
        return dict(sorted(table.items()))

    # -- elements -----------------------------------------------------------

    def zero(self) -> "UEAElement":
        return UEAElement._exact(self, {})

    def one(self) -> "UEAElement":
        return UEAElement._exact(self, {self._one_exps: Fraction(1)})

    def monomial(self, exps, coef=1) -> "UEAElement":
        return UEAElement._exact(self, {_exponents(exps, self.d): Fraction(coef)})

    def basis_element(self, idx: int) -> "UEAElement":
        exps = [0] * self.d
        exps[_in_range(idx, self.d, "basis index")] = 1
        return self.monomial(exps)

    def x(self, pos: int) -> "UEAElement":
        return self.basis_element(self.x_index(_in_range(pos, self.m, "root position")))

    def y(self, pos: int) -> "UEAElement":
        return self.basis_element(self.y_index(_in_range(pos, self.m, "root position")))

    def h(self, i: int) -> "UEAElement":
        return self.basis_element(self.h_index(_in_range(i, self.l, "Cartan index")))

    def root_position(self, root) -> int:
        """Position of a positive root in the deterministic root order."""
        try:
            return self.rs._root_index[tuple(root)]
        except KeyError:
            raise DomainError(f"{tuple(root)} is not a positive root") from None

    def transpose_index(self, idx: int) -> int:
        """sigma on basis indices: swaps x and y of the same root."""
        if idx < self.m:
            return self.x_index(self.m - 1 - idx)
        if idx < self.m + self.l:
            return idx
        return self.y_index(idx - self.m - self.l)

    def __repr__(self):
        return f"LieAlgebraData({self.rs!r}, d={self.d})"


def build_chevalley(rs: RootSystem) -> LieAlgebraData:
    """Chevalley basis for a root system, kept in the root system's cache."""
    if "build_chevalley" not in rs.cache:
        rs.cache["build_chevalley"] = LieAlgebraData(rs)
    return rs.cache["build_chevalley"]


class UEAElement:
    """Element of U(g) in canonical normal-ordered PBW form.

    Immutable; ``terms`` maps exponent tuples to nonzero Fractions.  Each
    key given to the constructor must be d nonnegative integers, else
    DomainError; elements built from keys already checked (products,
    sums, copies, unpickling) skip that through ``_exact``.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieAlgebraData, terms):
        d = alg.d
        clean = {}
        for exps, coef in terms.items():
            exps = _exponents(exps, d)
            if type(coef) is not Fraction:
                coef = Fraction(coef)
            if coef:
                clean[exps] = coef
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _exact(cls, alg: LieAlgebraData, terms) -> "UEAElement":
        """An element from checked exponent tuples and Fraction
        coefficients, taken as they are but for the zeros."""
        u = object.__new__(cls)
        object.__setattr__(u, "alg", alg)
        object.__setattr__(u, "terms", {exps: coef for exps, coef in terms.items() if coef})
        return u

    def __setattr__(self, name, value):
        raise AttributeError("UEAElement is immutable")

    def __reduce__(self):  # alg may not be set up yet while it is unpickled
        return UEAElement._exact, (self.alg, self.terms)

    # an element stays in its algebra, unless that algebra is being deep
    # copied: then the copy is an element of the algebra's copy
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        alg = memo.get(id(self.alg))
        return self if alg is None else UEAElement._exact(alg, self.terms)

    # -- ring structure -------------------------------------------------

    def _check_same(self, other):
        if self.alg is not other.alg:
            raise DomainError("elements belong to different algebras")

    def __add__(self, other: "UEAElement") -> "UEAElement":
        self._check_same(other)
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            out[exps] = out[exps] + coef if exps in out else coef
        return UEAElement._exact(self.alg, out)

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return self + (-other)

    def __neg__(self) -> "UEAElement":
        return UEAElement._exact(self.alg, {e: -c for e, c in self.terms.items()})

    def __rmul__(self, scalar) -> "UEAElement":
        scalar = Fraction(scalar)
        return UEAElement._exact(self.alg, {e: scalar * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, UEAElement):
            return self.__rmul__(other)
        self._check_same(other)
        kernel = self.alg.kernel
        out: Dict[Exps, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                scale = ca * cb
                for mono, c in kernel.multiply_monomials(ea, eb).items():
                    x = scale * c
                    out[mono] = out[mono] + x if mono in out else x
        return UEAElement._exact(self.alg, out)

    def __pow__(self, n: int) -> "UEAElement":
        if n < 0:
            raise DomainError("negative powers are not defined in U(g)")
        out = self.alg.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, UEAElement) and self.alg is other.alg
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- weights ----------------------------------------------------------

    def is_weight_zero(self) -> bool:
        zero = (0,) * self.alg.l
        return all(self.alg.monomial_weight(e) == zero for e in self.terms)

    # -- structural operations ---------------------------------------------

    def transpose(self) -> "UEAElement":
        """The antiautomorphism swapping x and y, fixing h."""
        alg = self.alg
        kernel = alg.kernel
        out: Dict[Exps, Fraction] = {}
        for exps, coef in self.terms.items():
            word = tuple((alg.transpose_index(i), e)
                         for i, e in reversed(list(enumerate(exps))) if e)
            for mono, c in kernel.normal_order_word(word).items():
                out[mono] = out.get(mono, Fraction(0)) + coef * c
        return UEAElement._exact(alg, out)

    def hc_project(self) -> "UEAElement":
        """Component in U(h): keep monomials with no x and no y factors."""
        alg = self.alg
        lo, hi = alg.m, alg.m + alg.l
        kept = {e: c for e, c in self.terms.items()
                if not any(e[:lo]) and not any(e[hi:])}
        return UEAElement._exact(alg, kept)

    def evaluate_at(self, lam: Weight) -> Fraction:
        """Evaluate an element of U(h) at a weight; h_i goes to lam(h_i).

        A term c h^e of degree k is c v^e / s^k, v = s lam in integers.
        DomainError off U(h) or at a weight of another rank: exponents are
        nonnegative, so a term lies in U(h) exactly when its h's carry its
        whole degree.
        """
        alg = self.alg
        if len(lam) != alg.l:
            raise DomainError("weight has wrong rank")
        lo, hi = alg.m, alg.m + alg.l
        scale, v = lam.scaled()
        num, den = 0, 1
        for exps, coef in self.terms.items():
            h = exps[lo:hi]
            degree = sum(h)
            if sum(exps) != degree:
                raise DomainError("element is not in U(h)")
            d = coef.denominator * scale ** degree
            num = num * d + coef.numerator * prod(map(pow, v, h)) * den
            den *= d
        return Fraction(num, den)

    # -- presentation -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        alg = self.alg
        parts = []
        for exps, coef in self.sorted_terms():
            factors = [alg.basis_label(i) + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(exps) if e]
            body = "*".join(factors)
            if not body:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{coef}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__


# -- module-level operation surface ----------------------------------------

def bracket(u: UEAElement, v: UEAElement) -> UEAElement:
    """Lie bracket of two degree-one elements: u v - v u in normal form."""
    for elt in (u, v):
        if any(sum(e) != 1 for e in elt.terms):
            raise DomainError("bracket arguments must be Lie algebra elements")
    return u * v - v * u


def h_substitute(p: UEAElement, shifts) -> UEAElement:
    """Substitute h_i -> h_i + shift_i in an element of U(h), exactly.

    The substitution is a ring map of U(h) = S(h), so each term c h^e goes
    to c prod_i (h_i + shift_i)^{e_i}, multiplied out with U(g)'s product.
    """
    alg, one = p.alg, p.alg.one()
    lo, hi = alg.m, alg.m + alg.l
    shifts = [Fraction(s) for s in shifts]
    linear = [alg.h(i) + s * one for i, s in zip(range(alg.l), shifts)]
    out = alg.zero()
    for exps, coef in p.terms.items():
        if any(exps[:lo]) or any(exps[hi:]):
            raise DomainError("substitution requires an element of U(h)")
        out = out + prod((linear[i] ** exps[lo + i] for i in range(alg.l)),
                         start=coef * one)
    return out


def is_central(z: UEAElement) -> bool:
    """Commutes with every x_i and y_i, hence with all of U(g).

    The simple x_i, y_i generate g and the commutant of z is a subalgebra,
    so 4l products decide.  Verdicts are kept in the algebra's cache,
    keyed by identity so that a lookup does not hash every term; each
    entry holds z itself, so its id cannot be reused while it is cached.
    """
    alg = z.alg
    cache = alg.cache.setdefault("is_central", {})
    cached = cache.get(id(z))
    if cached is not None and cached[0] is z:
        return cached[1]
    verdict = all(z * b == b * z for p in alg.simple_positions
                  for b in (alg.x(p), alg.y(p)))
    cache[id(z)] = (z, verdict)
    return verdict


def casimir(alg: LieAlgebraData) -> UEAElement:
    """Casimir element from the Killing form's Cartan block, verified central.

    The Killing form pairs only opposite weight spaces: K(h_i, h_j) is the
    sum over roots of alpha(h_i) alpha(h_j), and by invariance
    K(x_a, y_a) = K(h_a, h_a)/2 with h_a = [x_a, y_a].  So Omega is
    sum (K_h^-1)_ij h_i h_j + sum_a (x_a y_a + y_a x_a) / K(x_a, y_a).
    """
    if "casimir" in alg.cache:
        return alg.cache["casimir"]
    rs, pairs = alg.rs, list(itertools.product(range(alg.l), repeat=2))
    killing, inv = _killing_cartan_block(rs)
    omega = alg.zero()
    for i, j in pairs:
        omega = omega + inv[i][j] * (alg.h(i) * alg.h(j))
    for pos, root in enumerate(rs.positive_roots):
        h = rs.coroot(root)
        k_xy = Fraction(sum(h[i] * killing[i][j] * h[j] for i, j in pairs), 2)
        x, y = alg.x(pos), alg.y(pos)
        omega = omega + (x * y + y * x) * (1 / k_xy)
    if not is_central(omega):
        raise ConsistencyError("constructed Casimir is not central")
    alg.cache["casimir"] = omega
    return omega
