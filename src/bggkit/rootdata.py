"""Root systems, weights and Weyl combinatorics over exact rationals.

Conventions used throughout bggkit:

* the Cartan matrix is read as ``C[i][j] = alpha_j(h_i)`` (Humphreys),
* roots are integer vectors in simple-root coordinates,
* weights are tuples of rationals ``(lambda(h_1), ..., lambda(h_l))``,
* the deterministic root order is (height, lexicographic), and every
  downstream matrix inherits its reproducibility from this order.

Roots convert to weights through the Cartan matrix: the weight
coordinates of ``alpha = sum_j c_j alpha_j`` are ``C . c``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

from .errors import ConsistencyError, DomainError, NotARootError, NotFiniteTypeError
from . import exactla

Root = Tuple[int, ...]

#: closure aborts once any root reaches this height (non-finite input)
HEIGHT_BOUND = 1000

#: largest Weyl group bggkit will enumerate element-by-element
WEYL_ENUMERATION_CAP = 1_000_000

STRICT = "strict"
WIDE = "wide"


def _series_cartan(label: str):
    """Cartan matrix for a series label like "A2", "B3", "G2"."""
    series = label[:1].upper()
    try:
        l = int(label[1:])
    except ValueError:
        raise DomainError(f"cannot parse series label {label!r}") from None
    if l < 1:
        raise DomainError(f"rank must be positive in {label!r}")
    c = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def chain(i, j):
        c[i][j] = -1
        c[j][i] = -1

    if series == "A":
        for i in range(l - 1):
            chain(i, i + 1)
    elif series == "B":
        if l < 2:
            raise DomainError("B-series needs rank >= 2")
        for i in range(l - 1):
            chain(i, i + 1)
        # alpha_l short: alpha_{l-1}(h_l) = -2
        c[l - 1][l - 2] = -2
    elif series == "C":
        if l < 2:
            raise DomainError("C-series needs rank >= 2")
        for i in range(l - 1):
            chain(i, i + 1)
        # alpha_l long: alpha_l(h_{l-1}) = -2
        c[l - 2][l - 1] = -2
    elif series == "D":
        if l < 3:
            raise DomainError("D-series needs rank >= 3")
        for i in range(l - 2):
            chain(i, i + 1)
        chain(l - 3, l - 1)
    elif series == "E":
        if l not in (6, 7, 8):
            raise DomainError("E-series needs rank 6, 7 or 8")
        # Bourbaki numbering: node 2 hangs off node 4 of the A-chain 1-3-4-5-...
        chain(0, 2)
        chain(2, 3)
        chain(1, 3)
        for i in range(3, l - 1):
            chain(i, i + 1)
    elif series == "F":
        if l != 4:
            raise DomainError("F-series needs rank 4")
        chain(0, 1)
        chain(2, 3)
        c[1][2] = -1
        c[2][1] = -2
    elif series == "G":
        if l != 2:
            raise DomainError("G-series needs rank 2")
        # alpha_1 short, highest root 3*alpha_1 + 2*alpha_2
        c[0][1] = -3
        c[1][0] = -1
    else:
        raise DomainError(f"unknown series {series!r} in label {label!r}")
    return c


@dataclass(frozen=True)
class CartanMatrixInput:
    """Validated integer Cartan matrix, optionally tagged with a series label."""

    entries: Tuple[Tuple[int, ...], ...]
    label: Optional[str] = None

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        l = len(rows)
        if l == 0 or any(len(row) != l for row in rows):
            raise DomainError("Cartan matrix must be square and nonempty")
        for i in range(l):
            if rows[i][i] != 2:
                raise DomainError(f"diagonal entry C[{i}][{i}] must be 2")
            for j in range(l):
                if i != j and rows[i][j] > 0:
                    raise DomainError(f"off-diagonal C[{i}][{j}] must be <= 0")
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise DomainError(f"zero pattern must be symmetric at ({i},{j})")

    @property
    def rank(self) -> int:
        return len(self.entries)

    @classmethod
    def from_label(cls, label: str) -> "CartanMatrixInput":
        return cls(tuple(tuple(r) for r in _series_cartan(label)), label=label)


class Weight:
    """Point of h* given by its exact values on the coroot basis H."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(a - b for a, b in zip(self.coords, other.coords))

    def __rmul__(self, scalar) -> "Weight":
        return Weight(Fraction(scalar) * c for c in self.coords)

    def __neg__(self) -> "Weight":
        return Weight(-c for c in self.coords)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    @property
    def is_dominant_integral(self) -> bool:
        return self.is_integral and all(c >= 0 for c in self.coords)

    def __repr__(self):
        return "Weight(%s)" % ",".join(str(c) for c in self.coords)


def _height(root: Root) -> int:
    return sum(root)


class RootSystem:
    """Finite root system with positive roots and coroots precomputed.

    Built by :func:`build_root_system`; instances are immutable and safe
    to share between threads.
    """

    def __init__(self, cartan: CartanMatrixInput, roots, coroots):
        self.cartan = cartan
        self.rank = cartan.rank
        # deterministic positive-root order: height, then lexicographic
        positives = sorted((r for r in roots if all(c >= 0 for c in r)),
                           key=lambda r: (_height(r), r))
        self.positive_roots: Tuple[Root, ...] = tuple(positives)
        self.num_positive = len(positives)
        self.roots = frozenset(roots)
        self._coroot = dict(coroots)
        self._root_index = {r: i for i, r in enumerate(self.positive_roots)}
        self._cartan_inv = exactla.invert(cartan.entries)
        self._kostant_cache = {(0,) * self.rank: 1}
        self._weyl = None
        for alpha in self.positive_roots:
            if self.pairing_root(self.root_to_weight(alpha), alpha) != 2:
                raise ConsistencyError(f"alpha(h_alpha) != 2 for {alpha}")

    # -- basic data ----------------------------------------------------

    def simple_roots(self) -> Tuple[Root, ...]:
        l = self.rank
        return tuple(tuple(int(i == j) for j in range(l)) for i in range(l))

    def is_root(self, vec) -> bool:
        return tuple(vec) in self.roots

    def coroot(self, alpha) -> Tuple[int, ...]:
        """h_alpha in the basis H, as integer coefficients."""
        alpha = tuple(alpha)
        if alpha in self._coroot:
            return self._coroot[alpha]
        neg = tuple(-c for c in alpha)
        if neg in self._coroot:
            return tuple(-c for c in self._coroot[neg])
        raise NotARootError(f"{alpha} is not a root")

    def root_to_weight(self, alpha) -> Weight:
        """View a root (simple-root coordinates) as a Weight (H-coordinates)."""
        c = tuple(alpha)
        cart = self.cartan.entries
        return Weight(sum(cart[i][j] * c[j] for j in range(self.rank))
                      for i in range(self.rank))

    def weight_root_coords(self, lam: Weight) -> Tuple[Fraction, ...]:
        """Coordinates of a weight in the simple-root basis (rational)."""
        return tuple(exactla.mat_vec(self._cartan_inv, list(lam.coords)))

    def weight_height(self, lam: Weight) -> Fraction:
        return sum(self.weight_root_coords(lam), Fraction(0))

    def rho(self) -> Weight:
        """Half-sum of positive roots; equals (1,...,1) in H-coordinates."""
        return Weight([1] * self.rank)

    # -- pairings and orders --------------------------------------------

    def pairing_root(self, lam: Weight, alpha) -> Fraction:
        """<lambda, alpha-check> = lambda(h_alpha)."""
        h = self.coroot(alpha)
        return sum(c * x for c, x in zip(h, lam.coords))

    def leq(self, mu: Weight, lam: Weight) -> bool:
        """mu <= lambda iff lambda - mu is a nonnegative-integer root combination."""
        diff = self.weight_root_coords(lam - mu)
        return all(c.denominator == 1 and c >= 0 for c in diff)

    def block_ordering(self, weights: Sequence[Weight]):
        """Total order refining the reverse of <=; higher weights first.

        mu < lam forces lam before mu because the height of lam - mu is
        then positive; ties are broken lexicographically on coordinates.
        """
        return sorted(weights,
                      key=lambda w: (-self.weight_height(w), w.coords))

    # -- Weyl group -----------------------------------------------------

    def simple_reflection_matrix(self, i: int):
        """Matrix of s_i on H-coordinates: (s_i lam)_j = lam_j - C[j][i] lam_i."""
        cart = self.cartan.entries
        l = self.rank
        return tuple(tuple((1 if j == k else 0) - (cart[j][i] if k == i else 0)
                           for k in range(l)) for j in range(l))

    def weyl_group(self) -> "WeylGroup":
        if self._weyl is None:
            self._weyl = WeylGroup(self)
        return self._weyl

    def dot_action(self, w: "WeylElement", lam: Weight) -> Weight:
        rho = self.rho()
        return w.act(lam + rho) - rho

    def dot_orbit(self, lam: Weight):
        """{w . lam : w in W}, deduplicated, in block ordering."""
        rho = self.rho()
        shifted = lam + rho
        seen = {shifted.coords}
        frontier = [shifted]
        mats = [self.simple_reflection_matrix(i) for i in range(self.rank)]
        while frontier:
            nxt = []
            for v in frontier:
                for mat in mats:
                    img = Weight(exactla.mat_vec(mat, list(v.coords)))
                    if img.coords not in seen:
                        seen.add(img.coords)
                        nxt.append(img)
            frontier = nxt
        orbit = [Weight(c) - rho for c in sorted(seen)]
        return self.block_ordering(orbit)

    def is_linked(self, lam: Weight, mu: Weight) -> bool:
        """True iff mu lies in the dot orbit of lam (same fiber of pi)."""
        return any(mu == nu for nu in self.dot_orbit(lam))

    def is_antidominant(self, lam: Weight, convention: str = STRICT) -> bool:
        """No positive root pairs (lam+rho) into the forbidden integers.

        STRICT forbids values in Z_{>0} (the convention under which the
        Verma module at -rho is simple); WIDE also forbids the value 0.
        """
        if convention not in (STRICT, WIDE):
            raise DomainError(f"unknown antidominance convention {convention!r}")
        shifted = lam + self.rho()
        floor = 1 if convention == STRICT else 0
        for alpha in self.positive_roots:
            v = self.pairing_root(shifted, alpha)
            if v.denominator == 1 and v >= floor:
                return False
        return True

    # -- Kostant function and dimensions ---------------------------------

    def kostant_p(self, nu) -> int:
        """Number of ways to write nu as a nonnegative sum of positive roots.

        Memoized recursion over the deterministic root order; returns 0
        off the support (any negative coordinate).
        """
        nu = tuple(int(c) for c in nu)
        if len(nu) != self.rank:
            raise DomainError("coordinate vector has wrong rank")
        if any(c < 0 for c in nu):
            return 0
        return self._kostant(nu, 0)

    def _kostant(self, nu, k):
        if not any(nu):
            return 1
        if k == self.num_positive:
            return 0
        key = (nu, k)
        cached = self._kostant_cache.get(key)
        if cached is not None:
            return cached
        alpha = self.positive_roots[k]
        total = 0
        rest = nu
        while True:
            total += self._kostant(rest, k + 1)
            rest = tuple(a - b for a, b in zip(rest, alpha))
            if any(c < 0 for c in rest):
                break
        self._kostant_cache[key] = total
        return total

    def weyl_dimension(self, lam: Weight) -> int:
        """dim of the simple module at a dominant integral weight."""
        if not lam.is_dominant_integral:
            raise DomainError(f"{lam!r} is not dominant integral")
        rho = self.rho()
        num = Fraction(1)
        den = Fraction(1)
        for alpha in self.positive_roots:
            num *= self.pairing_root(lam + rho, alpha)
            den *= self.pairing_root(rho, alpha)
        value = num / den
        if value.denominator != 1:
            raise ConsistencyError("Weyl dimension did not come out integral")
        return int(value)

    def __repr__(self):
        tag = self.cartan.label or f"rank {self.rank}"
        return f"RootSystem({tag}, m={self.num_positive})"


def build_root_system(source) -> RootSystem:
    """Reflection-closure of the simple roots, with coroot bookkeeping.

    ``source`` may be a CartanMatrixInput, a series label, or a raw
    integer matrix.  Raises NotFiniteTypeError when some root exceeds
    HEIGHT_BOUND, which certifies the input is not of finite type.
    """
    if isinstance(source, str):
        cm = CartanMatrixInput.from_label(source)
    elif isinstance(source, CartanMatrixInput):
        cm = source
    else:
        cm = CartanMatrixInput(tuple(tuple(row) for row in source))

    l = cm.rank
    cart = cm.entries
    roots = {}
    frontier = []
    for i in range(l):
        alpha = tuple(int(i == j) for j in range(l))
        coroot = alpha
        roots[alpha] = coroot
        roots[tuple(-c for c in alpha)] = tuple(-c for c in coroot)
        frontier.append(alpha)

    while frontier:
        nxt = []
        for alpha in frontier:
            d = roots[alpha]
            for i in range(l):
                # s_i(alpha) = alpha - alpha(h_i) alpha_i, with
                # alpha(h_i) = sum_j C[i][j] alpha_j-coords
                pair = sum(cart[i][j] * alpha[j] for j in range(l))
                beta = tuple(c - (pair if j == i else 0) for j, c in enumerate(alpha))
                if beta in roots:
                    continue
                if abs(_height(beta)) > HEIGHT_BOUND:
                    raise NotFiniteTypeError(
                        "root closure exceeded height bound "
                        f"{HEIGHT_BOUND}; Cartan matrix is not of finite type")
                # coroot transforms the same way: h_beta = s_i(h_alpha)
                cpair = sum(d[j] * cart[j][i] for j in range(l))
                dbeta = tuple(c - (cpair if j == i else 0) for j, c in enumerate(d))
                roots[beta] = dbeta
                roots[tuple(-c for c in beta)] = tuple(-c for c in dbeta)
                nxt.append(beta)
        frontier = nxt

    return RootSystem(cm, list(roots), roots)


class WeylElement:
    """Group element stored as a reduced word plus its action matrix."""

    __slots__ = ("group", "word", "matrix")

    def __init__(self, group: "WeylGroup", word: Tuple[int, ...], matrix):
        self.group = group
        self.word = word
        self.matrix = matrix

    @property
    def length(self) -> int:
        return len(self.word)

    def act(self, lam: Weight) -> Weight:
        """Ordinary linear action on H-coordinates."""
        return Weight(exactla.mat_vec(self.matrix, list(lam.coords)))

    def dot(self, lam: Weight) -> Weight:
        return self.group.rs.dot_action(self, lam)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        mat = tuple(tuple(r) for r in exactla.mat_mul(self.matrix, other.matrix))
        return self.group.element_by_matrix(mat)

    def inverse(self) -> "WeylElement":
        mat = tuple(tuple(r) for r in exactla.invert(self.matrix))
        return self.group.element_by_matrix(mat)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "W[%s]" % ("".join(f"s{i + 1}" for i in self.word) or "e")


class WeylGroup:
    """Full enumeration of W by breadth-first search over reduced words.

    Only sensible for small-rank systems (the enumeration cap guards
    against accidental use on huge groups).  Elements come out ordered
    by length, then lexicographically on the word, so iteration order is
    reproducible.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        l = rs.rank
        gens = [rs.simple_reflection_matrix(i) for i in range(l)]
        identity = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
        found = {identity: ()}
        frontier = [identity]
        while frontier:
            nxt = []
            for mat in frontier:
                word = found[mat]
                for i in range(l):
                    prod = tuple(tuple(r) for r in exactla.mat_mul(mat, gens[i]))
                    if prod not in found:
                        found[prod] = word + (i,)
                        nxt.append(prod)
                        if len(found) > WEYL_ENUMERATION_CAP:
                            raise DomainError("Weyl group too large to enumerate")
            frontier = nxt
        ordered = sorted(found.items(), key=lambda kv: (len(kv[1]), kv[1]))
        self.elements = tuple(WeylElement(self, w, m) for m, w in ordered)
        self._by_matrix = {e.matrix: e for e in self.elements}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def simple_reflection(self, i: int) -> WeylElement:
        mat = self.rs.simple_reflection_matrix(i)
        return self._by_matrix[tuple(tuple(r) for r in mat)]

    @property
    def longest_element(self) -> WeylElement:
        return self.elements[-1]

    def element_by_matrix(self, mat) -> WeylElement:
        try:
            return self._by_matrix[mat]
        except KeyError:
            raise DomainError("matrix is not a Weyl group element") from None

    def from_word(self, word: Iterable[int]) -> WeylElement:
        elt = self.identity
        for i in word:
            elt = elt * self.simple_reflection(i)
        return elt

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """Subword characterization: u <= w iff some subword of a reduced
        word of w is a reduced word for u."""
        if u.length > w.length:
            return False
        word = w.word
        target = u.matrix
        for k in range(len(word) + 1):
            if k != u.length:
                continue
            for sub in itertools.combinations(word, k):
                elt = self.from_word(sub)
                if elt.length == k and elt.matrix == target:
                    return True
        return False


@lru_cache(maxsize=None)
def cached_root_system(label: str) -> RootSystem:
    """Shared per-label root systems for the CLI and test suites."""
    return build_root_system(label)
