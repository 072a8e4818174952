"""Chevalley basis and exact PBW arithmetic in the enveloping algebra.

The basis is ordered triangularly: negative root vectors first (descending
root order), then the coroot basis h_1..h_l, then positive root vectors in
ascending root order.  Index layout for dimension d = 2m + l:

    0 .. m-1        y's, index k holding the root at position m-1-k
    m .. m+l-1      h_1 .. h_l
    m+l .. d-1      x's, index m+l+p holding the root at position p

Structure constants are determined by the extraspecial-pair convention
(the earliest positive summand of each non-simple root gets coefficient
p+1 > 0) and sign propagation through Jacobi identities; the finished
table is re-verified exhaustively before use, so a convention bug cannot
escape as silent wrong arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, Optional, Tuple

from . import exactla
from .errors import ConsistencyError, DomainError
from .pbw import StraightenKernel
from .rootdata import RootSystem, Weight

Exps = Tuple[int, ...]


def _root_key(r):
    return (sum(r), r)


class _SignSolver:
    """Resolve the signs of all structure constants N_{a,b}.

    Unknowns are one sign per unordered root pair {a,b} with a+b a root,
    stored on the canonical orientation (the one whose sum is positive,
    ordered by the deterministic root order).  Extraspecial pairs seed
    the system with +1; every Jacobi identity over a root triple then
    becomes a relation between at most a few signs with known integer
    magnitudes, and repeated propagation (with a tiny branching fallback)
    fixes the rest.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.roots = sorted(rs.roots, key=_root_key)
        self.root_set = rs.roots
        self.mag = {}
        self.sign = {}
        self.keys = []
        for a, b in itertools.combinations(self.roots, 2):
            s = tuple(x + y for x, y in zip(a, b))
            if s not in self.root_set or all(c == 0 for c in s):
                continue
            if not all(c >= 0 for c in s):
                continue  # canonical orientation has positive sum
            p = self._string_p(a, b)
            q = self._string_p(b, a)
            if p != q:
                raise ConsistencyError(f"asymmetric root string for {a},{b}")
            self.mag[(a, b)] = p + 1
            self.keys.append((a, b))
        self._seed_extraspecial()
        self.equations = self._jacobi_equations()

    def _string_p(self, a, b):
        """Largest k with b - k*a a root."""
        k = 0
        cur = b
        while True:
            cur = tuple(x - y for x, y in zip(cur, a))
            if cur in self.root_set:
                k += 1
            else:
                return k

    def _seed_extraspecial(self):
        positives = self.rs.positive_roots
        pos_set = set(positives)
        for gamma in positives:
            if sum(gamma) == 1:
                continue
            for alpha in positives:
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if beta in pos_set:
                    key = (alpha, beta) if _root_key(alpha) < _root_key(beta) else (beta, alpha)
                    self.sign[key] = 1
                    break

    def n_symbol(self, a, b):
        """Symbolic N_{a,b} as (rational coefficient, unknown key or None)."""
        s = tuple(x + y for x, y in zip(a, b))
        coeff = 1
        if not all(c >= 0 for c in s):
            a, b = tuple(-c for c in a), tuple(-c for c in b)
            coeff = -coeff
        if _root_key(a) > _root_key(b):
            a, b = b, a
            coeff = -coeff
        key = (a, b)
        coeff *= self.mag[key]
        known = self.sign.get(key)
        if known is not None:
            return (coeff * known, None)
        return (coeff, key)

    def _bracket_symbolic(self, a, b):
        """[x_a, x_b] as ('h', coroot coeffs, scalar) or ('x', root, symbol)."""
        s = tuple(x + y for x, y in zip(a, b))
        if all(c == 0 for c in s):
            if all(c >= 0 for c in a) and any(a):
                return ("h", self.rs.coroot(a), 1)
            return ("h", self.rs.coroot(tuple(-c for c in a)), -1)
        if s in self.root_set:
            return ("x", s, self.n_symbol(a, b))
        return None

    def _root_pairing(self, r, hvec):
        """r(h) for h given by integer coroot coefficients."""
        cart = self.rs.cartan.entries
        l = self.rs.rank
        return sum(hvec[i] * sum(cart[i][j] * r[j] for j in range(l))
                   for i in range(l))

    def _jacobi_equations(self):
        """One symbolic identity per root triple, grouped by target.

        Each equation is a list of terms (coeff, keys) with keys a tuple
        of 0..2 unknown pair-keys; the identity asserts the sum is zero.
        """
        equations = []
        for a, b, c in itertools.combinations(self.roots, 3):
            targets = {}

            def add(target, coeff, keys):
                if coeff == 0:
                    return
                keys = tuple(k for k in keys if k is not None)
                if len(keys) == 2 and keys[0] == keys[1]:
                    keys = ()  # sign squared is 1
                targets.setdefault(target, []).append((coeff, keys))

            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                inner = self._bracket_symbolic(u, v)
                if inner is None:
                    continue
                if inner[0] == "h":
                    _, hvec, sgn = inner
                    add(("x", w), sgn * self._root_pairing(w, hvec), ())
                    continue
                _, mid, (co1, k1) = inner
                out = self._bracket_symbolic(mid, w)
                if out is None:
                    continue
                if out[0] == "h":
                    _, hvec, sgn = out
                    for i, hv in enumerate(hvec):
                        add(("h", i), co1 * sgn * hv, (k1,))
                else:
                    _, tgt, (co2, k2) = out
                    add(("x", tgt), co1 * co2, (k1, k2))

            for terms in targets.values():
                if any(keys for _, keys in terms):
                    equations.append(terms)
                else:
                    if sum(coeff for coeff, _ in terms) != 0:
                        raise ConsistencyError("Jacobi fails on known constants")
        return equations

    def _try_equation(self, terms, sign):
        """Return set of determined assignments, None if no info, or raise."""
        known = 0
        by_key = {}
        for coeff, keys in terms:
            val = coeff
            unknown = None
            for k in keys:
                s = sign.get(k)
                if s is None:
                    if unknown is not None:
                        return None  # two unknowns in one term: defer
                    unknown = k
                else:
                    val *= s
            if unknown is None:
                known += val
            else:
                by_key[unknown] = by_key.get(unknown, 0) + val
        by_key = {k: v for k, v in by_key.items() if v != 0}
        if not by_key:
            if known != 0:
                raise ConsistencyError("inconsistent sign system")
            return None
        if len(by_key) > 1:
            return None
        (key, coeff), = by_key.items()
        fits = [s for s in (1, -1) if known + coeff * s == 0]
        if not fits:
            raise ConsistencyError("no sign satisfies a Jacobi relation")
        if len(fits) == 2:
            return None
        return {key: fits[0]}

    def solve(self):
        sign = dict(self.sign)
        self._propagate(sign)
        if len(sign) < len(self.keys):
            sign = self._branch(sign)
        self.sign = sign
        return {key: sign[key] * self.mag[key] for key in self.keys}

    def _propagate(self, sign):
        progress = True
        while progress:
            progress = False
            for terms in self.equations:
                got = self._try_equation(terms, sign)
                if got:
                    for k, v in got.items():
                        if sign.setdefault(k, v) != v:
                            raise ConsistencyError("conflicting sign assignment")
                    progress = True

    def _branch(self, sign):
        missing = next(k for k in self.keys if k not in sign)
        for guess in (1, -1):
            trial = dict(sign)
            trial[missing] = guess
            try:
                self._propagate(trial)
                if len(trial) < len(self.keys):
                    trial = self._branch(trial)
                return trial
            except ConsistencyError:
                continue
        raise ConsistencyError("sign system has no consistent completion")


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

        solver = _SignSolver(rs)
        constants = solver.solve()
        self._n_sign = solver  # retains the resolved orientation logic
        self._constants = constants

        self._table = self._build_table()
        self._verify_jacobi()
        self.kernel = StraightenKernel(self.d, self._table)

        one = (0,) * self.d
        self._one_exps = one

    # -- index bookkeeping ------------------------------------------------

    def y_index(self, pos: int) -> int:
        """Basis index of y for the positive root at position pos."""
        return self.m - 1 - pos

    def h_index(self, i: int) -> int:
        return self.m + i

    def x_index(self, pos: int) -> int:
        return self.m + self.l + pos

    def index_root(self, idx: int) -> Optional[Tuple[int, ...]]:
        """Signed root of a basis index, None for Cartan indices."""
        if idx < self.m:
            return self.index_weights[idx]
        if idx < self.m + self.l:
            return None
        return self.index_weights[idx]

    def basis_label(self, idx: int) -> str:
        if idx < self.m:
            beta = self.rs.positive_roots[self.m - 1 - idx]
            return "y(%s)" % ",".join(map(str, beta))
        if idx < self.m + self.l:
            return "h%d" % (idx - self.m + 1)
        beta = self.rs.positive_roots[idx - self.m - self.l]
        return "x(%s)" % ",".join(map(str, beta))

    def monomial_weight(self, exps: Exps) -> Tuple[int, ...]:
        """Weight of a PBW monomial in simple-root coordinates."""
        acc = [0] * self.l
        for e, wvec in zip(exps, self.index_weights):
            if e:
                for i, c in enumerate(wvec):
                    acc[i] += e * c
        return tuple(acc)

    # -- structure constants ----------------------------------------------

    def _basis_of_root(self, r) -> int:
        if all(c >= 0 for c in r):
            return self.x_index(self.rs._root_index[tuple(r)])
        neg = tuple(-c for c in r)
        return self.y_index(self.rs._root_index[neg])

    def _n_value(self, a, b) -> int:
        coeff, key = self._n_sign.n_symbol(a, b)
        if key is not None:
            raise ConsistencyError("unresolved structure constant")
        return coeff

    def _root_bracket(self, a, b) -> Dict[int, int]:
        """[x_a, x_b] over basis indices, for roots a, b."""
        s = tuple(x + y for x, y in zip(a, b))
        if all(c == 0 for c in s):
            pos = a if all(c >= 0 for c in a) else b
            sgn = 1 if pos is a else -1
            return {self.h_index(i): sgn * c
                    for i, c in enumerate(self.rs.coroot(pos)) if c}
        if s in self.rs.roots:
            return {self._basis_of_root(s): self._n_value(a, b)}
        return {}

    def _pair_bracket(self, i, j) -> Dict[int, int]:
        """[b_i, b_j] over basis indices, any i != j."""
        ri, rj = self.index_root(i), self.index_root(j)
        if ri is None and rj is None:
            return {}
        if ri is None:
            pair = self._root_pairing_h(rj, i - self.m)
            return {j: pair} if pair else {}
        if rj is None:
            pair = self._root_pairing_h(ri, j - self.m)
            return {i: -pair} if pair else {}
        return self._root_bracket(ri, rj)

    def _root_pairing_h(self, r, i) -> int:
        cart = self.rs.cartan.entries
        return sum(cart[i][j] * r[j] for j in range(self.l))

    def _build_table(self):
        table = {}
        for i in range(self.d):
            for j in range(i):
                entries = self._pair_bracket(i, j)
                if entries:
                    table[(i, j)] = tuple(sorted(entries.items()))
        return table

    def bracket_basis(self, i: int, j: int) -> Dict[int, int]:
        """[b_i, b_j] as a sparse integer vector over basis indices."""
        if i == j:
            return {}
        if i > j:
            return dict(self._table.get((i, j), ()))
        return {k: -c for k, c in self._table.get((j, i), ())}

    def _verify_jacobi(self):
        """Exhaustive Jacobi check over basis triples; raises on failure."""
        for i, j, k in itertools.combinations(range(self.d), 3):
            acc: Dict[int, int] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for mid, c1 in self.bracket_basis(a, b).items():
                    for out, c2 in self.bracket_basis(mid, c).items():
                        acc[out] = acc.get(out, 0) + c1 * c2
            if any(v != 0 for v in acc.values()):
                raise ConsistencyError(
                    f"Jacobi identity fails on basis triple ({i},{j},{k})")

    # -- elements -----------------------------------------------------------

    def zero(self) -> "UEAElement":
        return UEAElement(self, {})

    def one(self) -> "UEAElement":
        return UEAElement(self, {self._one_exps: Fraction(1)})

    def monomial(self, exps, coef=1) -> "UEAElement":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.d or any(e < 0 for e in exps):
            raise DomainError("bad exponent vector")
        return UEAElement(self, {exps: Fraction(coef)})

    def basis_element(self, idx: int) -> "UEAElement":
        exps = [0] * self.d
        exps[idx] = 1
        return self.monomial(exps)

    def x(self, pos: int) -> "UEAElement":
        return self.basis_element(self.x_index(pos))

    def y(self, pos: int) -> "UEAElement":
        return self.basis_element(self.y_index(pos))

    def h(self, i: int) -> "UEAElement":
        return self.basis_element(self.h_index(i))

    def root_position(self, root) -> int:
        """Position of a positive root in the deterministic root order."""
        try:
            return self.rs._root_index[tuple(root)]
        except KeyError:
            raise DomainError(f"{tuple(root)} is not a positive root") from None

    def x_of_root(self, root) -> "UEAElement":
        return self.x(self.root_position(root))

    def y_of_root(self, root) -> "UEAElement":
        return self.y(self.root_position(root))

    def simple_x(self, i: int) -> "UEAElement":
        """Raising generator of the i-th simple root (careful: the
        positive-root order does not list simple roots by index)."""
        return self.x_of_root(self.rs.simple_roots()[i])

    def simple_y(self, i: int) -> "UEAElement":
        return self.y_of_root(self.rs.simple_roots()[i])

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
    """Chevalley basis for a root system, cached on the root system."""
    cached = getattr(rs, "_chevalley", None)
    if cached is None:
        cached = LieAlgebraData(rs)
        rs._chevalley = cached
    return cached


class UEAElement:
    """Element of U(g) in canonical normal-ordered PBW form.

    Immutable; ``terms`` maps exponent tuples to nonzero Fractions.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieAlgebraData, terms):
        clean = {}
        for exps, coef in terms.items():
            coef = Fraction(coef)
            if coef:
                clean[tuple(exps)] = coef
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("UEAElement is immutable")

    # -- ring structure -------------------------------------------------

    def _check_same(self, other):
        if self.alg is not other.alg:
            raise DomainError("elements belong to different algebras")

    def __add__(self, other: "UEAElement") -> "UEAElement":
        self._check_same(other)
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coef
        return UEAElement(self.alg, out)

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return self + (-other)

    def __neg__(self) -> "UEAElement":
        return UEAElement(self.alg, {e: -c for e, c in self.terms.items()})

    def __rmul__(self, scalar) -> "UEAElement":
        scalar = Fraction(scalar)
        return UEAElement(self.alg, {e: scalar * c for e, c in self.terms.items()})

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
                    out[mono] = out.get(mono, Fraction(0)) + scale * c
        return UEAElement(self.alg, out)

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

    @property
    def degree(self) -> int:
        """Maximal total PBW degree over the support; -1 for zero."""
        return max((sum(e) for e in self.terms), default=-1)

    # -- weights ----------------------------------------------------------

    def homogeneous_weight(self) -> Optional[Tuple[int, ...]]:
        """Common weight of all monomials (simple-root coords), or None."""
        weights = {self.alg.monomial_weight(e) for e in self.terms}
        if len(weights) == 1:
            return next(iter(weights))
        return None

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
        return UEAElement(alg, out)

    def hc_project(self) -> "UEAElement":
        """Component in U(h): keep monomials with no x and no y factors."""
        alg = self.alg
        lo, hi = alg.m, alg.m + alg.l
        kept = {e: c for e, c in self.terms.items()
                if not any(e[:lo]) and not any(e[hi:])}
        return UEAElement(alg, kept)

    def evaluate_at(self, lam: Weight) -> Fraction:
        """Evaluate an element of U(h) at a weight; h_i goes to lam(h_i)."""
        alg = self.alg
        lo, hi = alg.m, alg.m + alg.l
        total = Fraction(0)
        for exps, coef in self.terms.items():
            if any(exps[:lo]) or any(exps[hi:]):
                raise DomainError("element is not in U(h)")
            val = coef
            for i in range(alg.l):
                e = exps[lo + i]
                if e:
                    val *= lam.coords[i] ** e
            total += val
        return total

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
    """Lie bracket of two degree-one elements, via the structure table."""
    u._check_same(v)
    alg = u.alg
    for elt in (u, v):
        if any(sum(e) != 1 for e in elt.terms):
            raise DomainError("bracket arguments must be Lie algebra elements")
    out: Dict[Exps, Fraction] = {}
    for ea, ca in u.terms.items():
        i = next(k for k, e in enumerate(ea) if e)
        for eb, cb in v.terms.items():
            j = next(k for k, e in enumerate(eb) if e)
            for idx, c in alg.bracket_basis(i, j).items():
                exps = [0] * alg.d
                exps[idx] = 1
                key = tuple(exps)
                out[key] = out.get(key, Fraction(0)) + ca * cb * c
    return UEAElement(alg, out)


def transpose(u: UEAElement) -> UEAElement:
    return u.transpose()


def hc_project(u: UEAElement) -> UEAElement:
    return u.hc_project()


def evaluate_at(p: UEAElement, lam: Weight) -> Fraction:
    return p.evaluate_at(lam)


def h_substitute(p: UEAElement, shifts) -> UEAElement:
    """Substitute h_i -> h_i + shift_i in an element of U(h), exactly."""
    alg = p.alg
    lo = alg.m
    shifts = [Fraction(s) for s in shifts]
    out: Dict[Exps, Fraction] = {}
    for exps, coef in p.terms.items():
        if any(exps[:lo]) or any(exps[alg.m + alg.l:]):
            raise DomainError("substitution requires an element of U(h)")
        # expand prod_i (h_i + s_i)^{e_i} by binomials
        expansion = {(): coef}
        for i in range(alg.l):
            e = exps[lo + i]
            nxt: Dict[Tuple[int, ...], Fraction] = {}
            for prefix, c in expansion.items():
                for k in range(e + 1):
                    term = c * comb(e, k) * shifts[i] ** (e - k)
                    if term:
                        key = prefix + (k,)
                        nxt[key] = nxt.get(key, Fraction(0)) + term
            expansion = nxt
        for hexps, c in expansion.items():
            full = (0,) * lo + hexps + (0,) * alg.m
            out[full] = out.get(full, Fraction(0)) + c
    return UEAElement(alg, out)


def casimir(alg: LieAlgebraData) -> UEAElement:
    """Casimir element from Killing-form dual bases, verified central."""
    cached = getattr(alg, "_casimir", None)
    if cached is not None:
        return cached
    d = alg.d
    ad = []
    for i in range(d):
        mat = [[0] * d for _ in range(d)]
        for j in range(d):
            for k, c in alg.bracket_basis(i, j).items():
                mat[k][j] = c
        ad.append(mat)
    killing = [[sum(ad[i][p][q] * ad[j][q][p] for p in range(d) for q in range(d))
                for j in range(d)] for i in range(d)]
    try:
        inv = exactla.invert(killing)
    except DomainError:
        raise DomainError("Killing form is degenerate; algebra not semisimple")
    omega = alg.zero()
    for j in range(d):
        dual = UEAElement(alg, {
            tuple(int(r == k) for r in range(d)): inv[k][j]
            for k in range(d) if inv[k][j]})
        omega = omega + alg.basis_element(j) * dual
    for i in range(d):
        b = alg.basis_element(i)
        if omega * b != b * omega:
            raise ConsistencyError("constructed Casimir is not central")
    alg._casimir = omega
    return omega
