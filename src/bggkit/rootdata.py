"""Root systems, weights and Weyl combinatorics over exact rationals.

Conventions used throughout bggkit:

* the Cartan matrix is read as ``C[i][j] = alpha_j(h_i)`` (Humphreys),
* roots are integer vectors in simple-root coordinates,
* weights are tuples of rationals ``(lambda(h_1), ..., lambda(h_l))``,
* the deterministic root order is (height, lexicographic), and every
  downstream matrix inherits its reproducibility from this order.

A Cartan matrix comes in as a ``CartanMatrixInput``, a frozen
``record.Record`` that checks and normalizes its entries when it is made.

Roots convert to weights through the Cartan matrix: the weight
coordinates of ``alpha = sum_j c_j alpha_j`` are ``C . c``, one private
formula that the root closure, ``RootSystem.root_to_weight`` and the
integer table of every root's weight all use; the Lie algebra reads
root weights from that table and never the Cartan matrix.  The way
back is one integer root-lattice map M = D C^{-1}, D the lcm of the
denominators of C^{-1}: an integral weight v has simple-root coordinates
M v / D.  ``RootSystem.gamma_coords`` is the one test of mu <= lam, that is
of lam - mu lying in Gamma, the nonnegative integer span of the simple
roots; ``RootSystem.gamma_point`` is the one test of a vector nu given in
simple-root coordinates.  ``kostant_p`` is 0 off Gamma and memoizes P(nu)
in Gamma, where a miss fills the whole box [0, nu] by one height
recurrence (``_kostant_fill``), so the memo is exactly the union of the
boxes filled; ``category`` fills a block's box once and reads P off the
returned table.  Dot orbits come in block ordering: by decreasing height,
then by coordinates.

The Weyl group rests on one primitive, the simple reflection of a
coordinate tuple (``RootSystem.reflect``).  An element w is a reduced
word plus its key w^{-1} rho, an integer tuple that determines w because
rho is regular; the key of w s_i is s_i of the key of w, and s_i is a
right descent of w exactly when the i-th entry of the key is negative.
The group (the orbit of rho) comes from a breadth-first closure under
the simple reflections, which gives each element a shortest word.  A dot
orbit needs no words: it is walked as a tree hanging from its one
dominant point.  The linkage key of lam is (s, the dominant point of
s(lam + rho)), s the lcm of lam's denominators; two weights are linked
exactly when their keys agree, and every linkage question (``is_linked``,
central characters, ``bggkit linked``) compares keys.  An orbit's size
is read off the positive roots before any walk, so a group or orbit past
WEYL_ENUMERATION_CAP elements is refused at once; linkage walks no orbit
and has no cap.
The Bruhat order uses the lifting property (Bjorner-Brenti, GTM 231,
2.2.7): for a right descent s of w, u <= w iff us <= ws when s is also a
right descent of u, and iff u <= ws when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import lcm, prod
from operator import add, index, le, mul, neg, sub
from typing import Iterable, Optional, Tuple

from .errors import ConsistencyError, DomainError, NotARootError, NotFiniteTypeError
from . import exactla
from .record import Record

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


class CartanMatrixInput(Record):
    """Validated integer Cartan matrix, optionally tagged with a series label."""

    entries: Tuple[Tuple[int, ...], ...]
    label: Optional[str]

    def __init__(self, entries, label: Optional[str] = None):
        try:
            rows = tuple(tuple(index(x) for x in row) for row in entries)
        except TypeError:
            raise DomainError("Cartan matrix entries must be integers") from None
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
        super().__init__(rows, label)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @classmethod
    def from_label(cls, label: str) -> "CartanMatrixInput":
        return cls(tuple(tuple(r) for r in _series_cartan(label)), label=label)


class Weight:
    """Point of h* given by its exact values on the coroot basis H.

    ``_scaled`` holds the pair of ``scaled()`` once it has been read; it
    takes no part in equality, hashing or pickling.
    """

    __slots__ = ("coords", "_scaled")

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))

    @classmethod
    def _exact(cls, coords: Tuple[Fraction, ...]) -> "Weight":
        """A Weight from a tuple of Fractions, taken as it is."""
        w = object.__new__(cls)
        object.__setattr__(w, "coords", coords)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    def __reduce__(self):
        return Weight, (self.coords,)

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def _paired(self, other: "Weight") -> tuple:
        """other's coordinates; DomainError unless it has this weight's rank."""
        if len(other.coords) != len(self.coords):
            raise DomainError("weights of different ranks")
        return other.coords

    def __add__(self, other: "Weight") -> "Weight":
        return Weight._exact(tuple(map(add, self.coords, self._paired(other))))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight._exact(tuple(map(sub, self.coords, self._paired(other))))

    def __rmul__(self, scalar) -> "Weight":
        return Weight._exact(tuple(Fraction(scalar) * c for c in self.coords))

    def __neg__(self) -> "Weight":
        return Weight._exact(tuple(map(neg, self.coords)))

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    @property
    def is_dominant_integral(self) -> bool:
        return self.is_integral and all(c >= 0 for c in self.coords)

    def scaled(self) -> Tuple[int, Tuple[int, ...]]:
        """(s, s * coords) for s the lcm of the denominators: all integers.
        Computed on the first call and kept."""
        try:
            return self._scaled
        except AttributeError:
            pass
        s = lcm(*(c.denominator for c in self.coords))
        pair = s, tuple(c.numerator * (s // c.denominator) for c in self.coords)
        object.__setattr__(self, "_scaled", pair)
        return pair

    def __repr__(self):
        return "Weight(%s)" % ",".join(str(c) for c in self.coords)


class _OrbitValues(dict):
    """x -> the Fraction (x - s) / s, made the first time x is looked up:
    one Fraction per distinct orbit value.  At s = 1 it is Fraction(x - 1),
    the one-int fast path."""

    __slots__ = ("scale",)

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, x: int) -> Fraction:
        s = self.scale
        got = self[x] = Fraction(x - 1) if s == 1 else Fraction(x - s, s)
        return got


def _height(root: Root) -> int:
    return sum(root)


def _weight_of(cart, v) -> tuple:
    """C . v = (v(h_1), ..., v(h_l)) for v in simple-root coordinates."""
    l = len(cart)
    return tuple(sum(cart[i][j] * v[j] for j in range(l)) for i in range(l))


class RootSystem:
    """Finite root system with positive roots and coroots precomputed.

    Built by :func:`build_root_system`.  The root data is immutable; memo
    tables live in ``cache``, keyed by function name, and die with it.
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
        self._root_weight = {r: _weight_of(cartan.entries, r) for r in self.roots}
        inverse = exactla.invert(cartan.entries)  # the root-lattice map
        self._root_denominator = lcm(*(x.denominator for row in inverse for x in row))
        self._root_map = tuple(tuple(int(x * self._root_denominator) for x in row)
                               for row in inverse)
        self._cartan_columns = tuple(zip(*cartan.entries))
        self.cache = {}
        for alpha in self.positive_roots:
            if sum(map(mul, self._coroot[alpha], self._root_weight[alpha])) != 2:
                raise ConsistencyError(f"alpha(h_alpha) != 2 for {alpha}")

    # -- basic data ----------------------------------------------------

    def simple_roots(self) -> Tuple[Root, ...]:
        l = self.rank
        return tuple(tuple(int(i == j) for j in range(l)) for i in range(l))

    def coroot(self, alpha) -> Tuple[int, ...]:
        """h_alpha in the basis H, as integer coefficients."""
        try:
            return self._coroot[tuple(alpha)]
        except KeyError:
            raise NotARootError(f"{tuple(alpha)} is not a root") from None

    def _ranked(self, coords) -> tuple:
        """coords as a tuple; DomainError unless it has this system's rank."""
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise DomainError("coordinate vector has wrong rank")
        return coords

    def root_to_weight(self, alpha) -> Weight:
        """View a root (simple-root coordinates) as a Weight (H-coordinates)."""
        return Weight(_weight_of(self.cartan.entries, self._ranked(alpha)))

    def gamma_coords(self, lam: Weight) -> Optional[Tuple[int, ...]]:
        """Simple-root coordinates of lam if it lies in Gamma, else None.

        mu <= lam exactly when lam - mu has coordinates here.  A weight
        with a non-integral H-coordinate is outside the root lattice.
        """
        if not lam.is_integral:
            return None
        v = [c.numerator for c in lam.coords]
        den = self._root_denominator
        coords = [sum(map(mul, row, v)) for row in self._root_map]
        if any(n < 0 or n % den for n in coords):
            return None
        return tuple(n // den for n in coords)

    def gamma_point(self, nu) -> Optional[Tuple[int, ...]]:
        """nu as an int tuple if it lies in Gamma, else None.

        The one test of a coordinate vector nu (simple-root coordinates):
        DomainError on the wrong rank, None on a negative or non-integral
        coordinate, nan and the infinities included.
        """
        given = self._ranked(nu)
        try:
            point = tuple(map(int, given))
        except (ValueError, OverflowError):  # int() of nan, of an infinity
            return None
        return point if point == given and min(point) >= 0 else None

    def rho(self) -> Weight:
        """Half-sum of positive roots; equals (1,...,1) in H-coordinates."""
        return Weight([1] * self.rank)

    # -- pairings and orders --------------------------------------------

    def pairing_root(self, lam: Weight, alpha) -> Fraction:
        """<lambda, alpha-check> = lambda(h_alpha)."""
        h = self.coroot(alpha)
        return sum(map(mul, h, self._ranked(lam.coords)))

    # -- Weyl group -----------------------------------------------------

    def reflect(self, v, *indices) -> tuple:
        """s_i for each i in turn on H-coordinates: (s_i v)_j = v_j - C[j][i] v_i."""
        for i in indices:
            vi = v[i]
            v = tuple(x - c * vi for x, c in zip(v, self._cartan_columns[i]))
        return v

    def weyl_group(self) -> "WeylGroup":
        if "weyl_group" not in self.cache:
            self.cache["weyl_group"] = WeylGroup(self)
        return self.cache["weyl_group"]

    def dot_action(self, w: "WeylElement", lam: Weight) -> Weight:
        rho = self.rho()
        return w.act(lam + rho) - rho

    def _dominant(self, v) -> tuple:
        """The one dominant point of v's W-orbit (Humphreys, Reflection
        Groups and Coxeter Groups, 1.12): s_i v for the first i with
        v_i < 0, until there is none.  Each step adds -v_i alpha_i, so the
        walk ends."""
        while min(v) < 0:
            v = self.reflect(v, next(i for i, x in enumerate(v) if x < 0))
        return v

    def _orbit_size(self, top) -> int:
        """|W . top| for a dominant integer tuple top; DomainError past
        WEYL_ENUMERATION_CAP.  |W| is the product of (ht beta + 1) / ht beta
        over the positive roots (Macdonald's product for the Poincare
        polynomial at t = 1), and the stabilizer of top is the parabolic
        subgroup of the simple reflections fixing it, whose positive roots
        are the beta with <top, beta-check> = 0, heights unchanged."""
        num = den = 1
        for beta in self.positive_roots:
            if any(map(mul, self._coroot[beta], top)):  # nonnegative terms
                height = _height(beta)
                num *= height + 1
                den *= height
        size = num // den
        if size > WEYL_ENUMERATION_CAP:
            raise DomainError("Weyl group too large to enumerate")
        return size

    def linkage_key(self, lam: Weight) -> Tuple[int, tuple]:
        """(s, the dominant point of s(lam + rho)), s the lcm of lam's
        denominators.  W acts by integer matrices with integer inverses, so
        linked weights share s, and they are linked exactly when their keys
        agree (Harish-Chandra: chi_lam = chi_mu iff mu in W . lam).  No orbit
        is walked, so WEYL_ENUMERATION_CAP does not apply."""
        scale, v = lam.scaled()
        return scale, self._dominant(self._ranked(x + scale for x in v))

    def dot_orbit(self, lam: Weight):
        """{w . lam : w in W}, each weight once, in block ordering.

        The walk starts from lam's linkage key: lam + rho scaled to an
        integer tuple and reflected to the dominant point of its orbit.  The
        orbit is the tree that hangs from that point (Bjorner-Brenti, GTM
        231, 2.4): the parent of u is s_i u for i its first negative
        coordinate, so from u the child s_i u is taken when u_i > 0 and
        u_j >= C[j][i] u_i for every j < i.  A child sits u_i lower than
        its parent (s_i u = u - u_i alpha_i), so sorting by (depth below
        the top, v) sorts the weights v / scale - rho by (-height,
        coordinates), as that map is increasing in v; mu < lam puts lam
        first.  The walk visits at most ``_orbit_size`` nodes and must find
        exactly that many weights, else ConsistencyError.  A member's
        coordinates are the values (x - scale) / scale of its node's
        entries x, one Fraction per distinct x.
        """
        scale, top = self.linkage_key(lam)
        size = self._orbit_size(top)
        columns = self._cartan_columns
        splits = [(i, columns[i], range(i)) for i in range(self.rank)]
        nodes = [(0, top)]
        for depth, u in islice(nodes, size):  # appended children in turn
            for i, column, before in splits:
                ui = u[i]
                if ui > 0:
                    for j in before:
                        if u[j] < column[j] * ui:
                            break
                    else:
                        nodes.append((depth + ui,
                                      tuple([x - c * ui for x, c in zip(u, column)])))
        if len(nodes) != size:
            raise ConsistencyError(f"dot orbit walk found {len(nodes)} weights, "
                                   f"the product formula {size}")
        nodes.sort()
        value = _OrbitValues(scale).__getitem__
        new, set_coords = object.__new__, Weight.coords.__set__
        orbit = []
        for _, u in nodes:  # Weight._exact inlined: a call per member shows here
            w = new(Weight)
            set_coords(w, tuple(map(value, u)))
            orbit.append(w)
        return orbit

    def is_linked(self, lam: Weight, mu: Weight) -> bool:
        """True iff mu lies in the dot orbit of lam: their linkage keys agree."""
        return self.linkage_key(lam) == self.linkage_key(mu)

    def integral_pairings(self, lam: Weight):
        """(beta, n) for each positive beta with n = <lam+rho, beta-check> in Z,
        read off h_beta . (s lam + s) for s the lcm of lam's denominators."""
        scale, v = lam.scaled()
        shifted = self._ranked(x + scale for x in v)
        pairs = ((beta, divmod(sum(map(mul, self._coroot[beta], shifted)), scale))
                 for beta in self.positive_roots)
        return [(beta, n) for beta, (n, rest) in pairs if not rest]

    def is_antidominant(self, lam: Weight, convention: str = STRICT) -> bool:
        """No positive root pairs (lam+rho) into the forbidden integers.

        STRICT forbids values in Z_{>0} (the convention under which the
        Verma module at -rho is simple); WIDE also forbids the value 0.
        """
        if convention not in (STRICT, WIDE):
            raise DomainError(f"unknown antidominance convention {convention!r}")
        floor = 1 if convention == STRICT else 0
        return all(n < floor for _, n in self.integral_pairings(lam))

    # -- Kostant function and dimensions ---------------------------------

    def kostant_p(self, nu) -> int:
        """Number of ways to write nu as a nonnegative sum of positive roots.

        Memo first: ``cache["kostant_p"]`` holds P at the cells of the boxes
        ``_kostant_fill`` has filled, so a repeated nu in Gamma costs one
        lookup; a miss goes through ``gamma_point``, which gives 0 off Gamma
        without a memo entry and, in Gamma, fills the box [0, nu].
        """
        key = tuple(nu)
        table = self.cache.get("kostant_p")  # not setdefault: no new dict per hit
        got = None if table is None else table.get(key)
        if got is None:
            point = self.gamma_point(key)
            got = 0 if point is None else self._kostant_fill(point)[point]
        return got

    def _kostant_fill(self, top) -> dict:
        """The memo of ``kostant_p``, once it holds P on the box [0, top]: each
        missing nu, in lex order, by ht(nu) P(nu) = sum_beta ht(beta) sum_{k>=1}
        P(nu - k*beta), the height derivation of prod_beta (1 - e^-beta)^-1 as
        in Euler's n p(n) = sum sigma(k) p(n-k) (Andrews, 1976), divided exactly
        or ConsistencyError.  The box is one row-major list: nu - k*beta sits
        k*offset(beta) cells before nu, earlier in lex order."""
        table = self.cache.setdefault("kostant_p", {})
        strides = [prod(t + 1 for t in top[i + 1:]) for i in range(self.rank)]
        roots = [(_height(beta), sum(map(mul, beta, strides)),
                  [(i, b) for i, b in enumerate(beta) if b])
                 for beta in self.positive_roots if all(map(le, beta, top))]
        flat = []
        for here, nu in enumerate(product(*(range(t + 1) for t in top))):
            got = table.get(nu)
            if got is None:
                total = sum(height * sum(flat[here - k * offset:here:offset])
                            for height, offset, support in roots
                            for k in [min(nu[i] // b for i, b in support)])
                got, rest = divmod(total, sum(nu)) if any(nu) else (1, 0)
                if rest:
                    raise ConsistencyError(f"height recurrence is not exact at {nu}")
                table[nu] = got
            flat.append(got)
        return table

    def weyl_dimension(self, lam: Weight) -> int:
        """dim of the simple module at a dominant integral weight, by
        Weyl's formula prod <lam + rho, beta-check> / prod <rho, beta-check>
        over the positive roots, in integers."""
        coords = self._ranked(lam.coords)
        if not lam.is_dominant_integral:
            raise DomainError(f"{lam!r} is not dominant integral")
        shifted = tuple(c.numerator + 1 for c in coords)  # lam + rho
        coroots = [self._coroot[beta] for beta in self.positive_roots]
        value, rest = divmod(prod(sum(map(mul, h, shifted)) for h in coroots),
                             prod(map(sum, coroots)))  # <rho, h> = sum(h)
        if rest:
            raise ConsistencyError("Weyl dimension did not come out integral")
        return value

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
            w = _weight_of(cart, alpha)
            for i in range(l):
                # s_i(alpha) = alpha - alpha(h_i) alpha_i, alpha(h_i) = w[i]
                beta = tuple(c - (w[i] if j == i else 0) for j, c in enumerate(alpha))
                if beta in roots:
                    continue
                if abs(_height(beta)) > HEIGHT_BOUND:
                    raise NotFiniteTypeError(
                        "root closure exceeded height bound "
                        f"{HEIGHT_BOUND}; Cartan matrix is not of finite type")
                # coroot transforms the same way: h_beta = s_i(h_alpha), with
                # alpha_i(h_alpha) = sum_j d_j C[j][i]
                cpair = sum(d[j] * cart[j][i] for j in range(l))
                dbeta = tuple(c - (cpair if j == i else 0) for j, c in enumerate(d))
                roots[beta] = dbeta
                roots[tuple(-c for c in beta)] = tuple(-c for c in dbeta)
                nxt.append(beta)
        frontier = nxt

    return RootSystem(cm, list(roots), roots)


class WeylElement:
    """Group element stored as a reduced word plus its key w^{-1} rho."""

    __slots__ = ("group", "word", "key")

    def __init__(self, group: "WeylGroup", word: Tuple[int, ...], key):
        self.group = group
        self.word = word
        self.key = key

    @property
    def length(self) -> int:
        return len(self.word)

    def act(self, lam: Weight) -> Weight:
        """Ordinary linear action on H-coordinates; DomainError on the wrong rank."""
        rs = self.group.rs
        return Weight(rs.reflect(rs._ranked(lam.coords), *reversed(self.word)))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (u v)^{-1} rho = v^{-1} (u^{-1} rho): the word of v, left to right
        return self.group._by_key[self.group.rs.reflect(self.key, *other.word)]

    def inverse(self) -> "WeylElement":
        rho = self.group.identity.key
        return self.group._by_key[self.group.rs.reflect(rho, *reversed(self.word))]

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "W[%s]" % ("".join(f"s{i + 1}" for i in self.word) or "e")


class WeylGroup:
    """Full enumeration of W by breadth-first search over the keys w^{-1} rho.

    Only sensible for small-rank systems (the enumeration cap guards
    against accidental use on huge groups).  Elements come out ordered
    by length, then lexicographically on the word, so iteration order is
    reproducible.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        rho = (1,) * rs.rank
        rs._orbit_size(rho)  # |W|, refused past the cap before any walk
        found = {rho: ()}  # key -> shortest word, by breadth-first search
        frontier = [rho]
        while frontier:
            nxt = []
            for v in frontier:
                word = found[v]
                for i in range(rs.rank):
                    img = rs.reflect(v, i)
                    if img not in found:
                        found[img] = word + (i,)
                        nxt.append(img)
            frontier = nxt
        ordered = sorted(found.items(), key=lambda kv: (len(kv[1]), kv[1]))
        self.elements = tuple(WeylElement(self, w, k) for k, w in ordered)
        self._by_key = {e.key: e for e in self.elements}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def simple_reflection(self, i: int) -> WeylElement:
        return self._by_key[self.rs.reflect(self.identity.key, i)]

    @property
    def longest_element(self) -> WeylElement:
        return self.elements[-1]

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """u <= w in the Bruhat order, by the lifting property in ell(w) steps."""
        reflect = self.rs.reflect
        ku, kw = u.key, w.key
        lu, lw = u.length, w.length
        while lu <= lw:
            if lw == 0:
                return True
            i = next(j for j, x in enumerate(kw) if x < 0)
            kw = reflect(kw, i)
            lw -= 1
            if ku[i] < 0:
                ku = reflect(ku, i)
                lu -= 1
        return False


@lru_cache(maxsize=None)
def cached_root_system(label: str) -> RootSystem:
    """Shared per-label root systems for the CLI and test suites."""
    return build_root_system(label)
