"""Verma modules, simple multiplicities, the Shapovalov form, and block data.

Simple multiplicities come from the radical recursion: for nu != 0, a
vector of M(lambda)_{lambda-nu} lies in the maximal submodule exactly
when every simple x_i sends it there, so dim L(lambda)_{lambda-nu} is
the rank of the x_i matrices composed with the quotient maps one level
up (``VermaModule``), built in height order at the nu a caller names
and at the nu their stacks read.  By the Shapovalov determinant formula
the maximal submodule meets M(lambda)_{lambda-nu} only when nu lies on
a wall of lambda, nu - n*beta in Gamma for a positive root beta with
n = <lambda+rho, beta-check> a positive integer; off the walls the
quotient map is the identity and costs no rank, on them it is a
primitive row basis.  The depth audit of ``verma_is_simple`` goes
further: where exactly one wall n*beta reaches nu, the embedding
M(s_beta . lambda) in M(lambda) and Jantzen's sum formula both give the
maximal submodule dimension P(nu - n*beta), so the rank there is read,
not eliminated, and row bases are taken only where walls meet and at
the wall-reached nu that those stacks read; every rank eliminated there
is checked against Jantzen's bounds.  What an audit reads that does not
depend on lambda, P at every nu up to the depth and the off-wall rows
(nu, P(nu), P(nu)), is one plan per depth (``audit_plan``), so an audit
copies the rows and visits only the nu a wall reaches.  The x_i matrices
are affine in lambda.  Block decomposition matrices are then
solved from the unitriangular character system

    dim M(lam_i)_{mu_j} = sum_k D[i][k] * dim L(mu_k)_{mu_j}

in the deterministic block ordering, and the projective/Cartan data
follows by reciprocity: (P(mu) : M(lam)) = D[lam][mu] and C = D^T D.

The Shapovalov form (whose radical is the same maximal submodule) is
kept for the ``shapovalov`` subcommand and as an independent oracle;
its entries are polynomials in U(h), read level by level through the
first PBW factor y_beta of y^A: S_nu is S_{nu-beta} times the x_beta
matrix, whose entries are affine in h.  One routine (``_raising``)
builds the x_beta matrix for every positive root beta; ``raising_matrix``
is that routine at a simple root.  Weight-space bases, x_i matrices and
Shapovalov levels are memoized in ``alg.cache``, one table per function
name, and are freed with the algebra.  Every entry point reads nu through
``RootSystem.gamma_point``.  A block works in integer coordinates: each
member's depth below the top of the block is taken once, the pairwise
differences are differences of depths, and the box [0, max depth] of
Kostant numbers is filled once (``RootSystem._kostant_fill``), where the
Kostant matrix is read; ``block_report`` fills one box that holds every
nu >= 0 its tables, Jantzen bounds and Weyl-dimension sums read, and
reads P(nu - d) there after one sign test (a negative coordinate is 0).
``SimplicityReport``, ``DecompositionMatrix`` and ``BlockReport`` are
frozen ``record.Record`` classes, compared and printed by their fields.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, ge, mul, neg, sub
from typing import Dict, Iterable, List, Optional, Tuple, Union

from . import exactla
from .errors import ConsistencyError, DepthOverflowError, DomainError
from .liealg import LieAlgebraData, UEAElement, _exponents
from .record import Record
from .rootdata import Weight

RootVec = Tuple[int, ...]
YMono = Tuple[int, ...]


def weight_space_basis(alg: LieAlgebraData, nu: RootVec) -> Tuple[YMono, ...]:
    """Monomials y^A of weight -nu in lex order, memoized; empty off Gamma.

    A basis is checked against the Kostant number P(nu) when it is first
    built, and only a checked basis is kept, so every reader of a y-basis
    reads a checked one.
    """
    nu = alg.rs.gamma_point(nu)
    if nu is None:
        return ()
    cache = alg.cache.setdefault("weight_space_basis", {})
    got = cache.get((nu, 0))
    if got is None:
        got = _slot_tails(cache, alg, nu, 0)
        expected = alg.rs.kostant_p(nu)
        if len(got) != expected:
            raise ConsistencyError(
                f"weight space at {nu} has size {len(got)}, expected P = {expected}")
        cache[(nu, 0)] = got
    return got


def _slot_tails(cache, alg: LieAlgebraData, rest: RootVec, slot: int) -> Tuple[tuple, ...]:
    """The exponent tails (e_slot, ..., e_{m-1}) of y-monomials of weight
    -rest, in lex order, each y stepping by its index weight.  Memoized
    by (rest, slot) for slot > 0, so the weight spaces of one algebra
    share their sub-problems; the basis at nu, the entry (nu, 0), is
    stored by ``weight_space_basis`` once checked."""
    key = (rest, slot)
    got = cache.get(key)
    if got is not None:
        return got
    if slot == alg.m:
        got = () if any(rest) else ((),)
    else:
        step = alg.index_weights[slot]  # -beta for the y of root beta
        out = []
        e = 0
        while min(rest) >= 0:
            out.extend((e,) + tail for tail in _slot_tails(cache, alg, rest, slot + 1))
            e += 1
            rest = tuple(map(add, rest, step))
        got = tuple(out)
    if slot:
        cache[key] = got
    return got


class VermaVector:
    """Element of M(lambda): map from y-monomials to scalars.

    Each key must be alg.m nonnegative integers (the y-exponents), else
    DomainError."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieAlgebraData, terms):
        clean = {}
        for mono, c in terms.items():
            mono = _exponents(mono, alg.m)
            if c:
                clean[mono] = Fraction(c)
        self.alg = alg
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, VermaVector) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        alg = self.alg
        bits = []
        for mono, c in sorted(self.terms.items()):
            body = "*".join(alg.basis_label(i) + (f"^{e}" if e > 1 else "")
                            for i, e in enumerate(mono) if e) or "1"
            bits.append(f"{c}*{body}.v")
        return " + ".join(bits)


def _check_depth(depth) -> None:
    """DomainError unless depth is a nonnegative int (a bool is refused)."""
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        raise DomainError(f"depth must be a nonnegative integer, not {depth!r}")


class VermaSlice:
    """The action of U(g) on the Verma module at lambda down to depth N."""

    def __init__(self, alg: LieAlgebraData, lam: Weight, depth: int):
        _check_depth(depth)
        self.alg = alg
        self.lam = lam
        self.depth = depth

    def act(self, u: UEAElement, vec: VermaVector) -> VermaVector:
        """u . vec through the quotient presentation: x kills the top
        vector, h acts by lambda there, y's multiply.  Raises on depth
        overflow past the truncation."""
        if u.alg is not self.alg:
            raise DomainError("element belongs to a different algebra")
        alg = self.alg
        m, l = alg.m, alg.l
        lam = self.lam
        kernel = alg.kernel
        window = (0, m + l)  # words ending in an x kill the top vector
        out: Dict[YMono, Fraction] = {}
        for ymono, cv in vec.terms.items():
            vec_exps = ymono + (0,) * (l + m)
            for ea, ca in u.terms.items():
                scale = ca * cv
                for mono, c in kernel.multiply_monomials(ea, vec_exps, window).items():
                    val = scale * c
                    for i in range(l):
                        e = mono[m + i]
                        if e:
                            val *= lam.coords[i] ** e
                    if not val:
                        continue
                    # the window left no x: the weight is minus the depth
                    if -sum(alg.monomial_weight(mono)) > self.depth:
                        raise DepthOverflowError(
                            "action leaves the truncated slice; extend depth")
                    ypart = mono[:m]
                    out[ypart] = out.get(ypart, Fraction(0)) + val
        return VermaVector(alg, out)


def gamma_elements(alg: LieAlgebraData, max_height: int) -> Tuple[RootVec, ...]:
    """All nu in Gamma with 0 <= height(nu) <= max_height, by height then
    lex; memoized by max_height."""
    cache = alg.cache.setdefault("gamma_elements", {})
    got = cache.get(max_height)
    if got is not None:
        return got

    def level(l, h):  # the l-tuples of height h, lexicographically
        if l == 1:
            return [(h,)]
        return [(c,) + rest for c in range(h + 1) for rest in level(l - 1, h - c)]

    got = cache[max_height] = tuple(nu for h in range(max_height + 1)
                                    for nu in level(alg.l, h))
    return got


def maximal_vectors(alg: LieAlgebraData, lam: Weight, nu, depth: Optional[int] = None
                    ) -> List[VermaVector]:
    """Basis of {v in M(lam)_{lam-nu} : n . v = 0} by exact linear algebra.

    Killing the simple generators x_i suffices since they generate n, so
    this is the nullspace of the stacked x_i matrices at nu.  Empty off
    Gamma, whatever the depth; DomainError for a depth below height(nu)
    or one that is not a nonnegative int.
    """
    if depth is not None:
        _check_depth(depth)
    nu = alg.rs.gamma_point(nu)
    if nu is None:
        return []
    if depth is not None and sum(nu) > depth:
        raise DomainError("nu lies below the requested truncation depth")
    basis = weight_space_basis(alg, nu)
    module = VermaModule(alg, lam)
    rows = [row for i in range(alg.l) if _lower(nu, i) is not None
            for row in module.raising_rows(i, nu)]
    kernel = exactla.nullspace(rows, width=len(basis))
    return [VermaVector(alg, {mono: coef for mono, coef in zip(basis, vec)})
            for vec in kernel]


# -- the simple quotient -------------------------------------------------------


def _lower(nu: RootVec, i: int) -> Optional[RootVec]:
    """nu - alpha_i when it lies in Gamma, else None.

    Simple roots are the unit vectors of the simple-root coordinates.
    """
    if not nu[i]:
        return None
    return nu[:i] + (nu[i] - 1,) + nu[i + 1:]


def _raising(alg: LieAlgebraData, pos: int, nu: RootVec, target: RootVec,
             start: int = 0):
    """The x of the positive root beta at position pos, from M_{lam-nu} to
    M_{lam-nu+beta}, for every lam; target = nu - beta lies in Gamma.
    Only the columns from ``start`` on are built; those before it are
    empty.

    Column c is the pair (rows, forms) of the nonzero entries of
    x_beta . y^{A_c} v on the PBW y-bases of ``weight_space_basis``.  Each
    entry is an affine integer form (f_0, f_1, ..., f_l) standing for
    f_0 + sum_j f_j lam(h_j).  Affine suffices: x_beta y^A is the sum,
    over the factors y of y^A, of y^A with that factor replaced by
    [x_beta, y], plus y^A x_beta, and a bracket that is an x goes on
    through the factors after it, so the U(h) part of a term has degree
    at most one; a higher degree raises ConsistencyError.
    """
    m, l = alg.m, alg.l
    index = {mono: r for r, mono in enumerate(weight_space_basis(alg, target))}
    x_exps = [0] * alg.d
    x_exps[alg.x_index(pos)] = 1
    x_exps = tuple(x_exps)
    pad = (0,) * (l + m)
    window = (0, m + l)  # words ending in an x kill the top vector
    kernel = alg.kernel
    basis = weight_space_basis(alg, nu)
    columns = [((), ())] * start
    for mono in basis[start:]:
        col: Dict[int, List[int]] = {}
        for exps, c in kernel.multiply_monomials(x_exps, mono + pad, window).items():
            h_part = exps[m:m + l]
            degree = sum(h_part)
            if degree > 1:
                raise ConsistencyError(f"{alg.basis_label(alg.x_index(pos))} . y^A "
                                       f"has U(h) degree {degree} > 1 at {nu}")
            row = index.get(exps[:m])
            if row is None:
                raise ConsistencyError("action left the expected weight space")
            form = col.setdefault(row, [0] * (l + 1))
            form[h_part.index(1) + 1 if degree else 0] += c
        entries = [(row, tuple(form)) for row, form in sorted(col.items())
                   if any(form)]
        columns.append((tuple(row for row, _ in entries),
                        tuple(form for _, form in entries)))
    return tuple(columns)


def raising_matrix(alg: LieAlgebraData, i: int, nu: RootVec):
    """The simple x_i from M_{lam-nu} to M_{lam-nu+alpha_i}, for every lam,
    as ``_raising`` builds it at the position of alpha_i.  Memoized by
    (i, nu).  DomainError when nu - alpha_i is not in Gamma.
    """
    cache = alg.cache.setdefault("raising_matrix", {})
    nu = alg.rs.gamma_point(nu)
    key = (i, nu)
    got = cache.get(key)
    if got is not None:
        return got
    target = None if nu is None else _lower(nu, i)
    if target is None:
        raise DomainError(f"nu - alpha_{i + 1} is not in Gamma")
    result = cache[key] = _raising(alg, alg.simple_positions[i], nu, target)
    return result


class VermaModule:
    """M(lam) with its quotient maps onto the simple module L(lam).

    The walls of lam, the vectors n*beta with n = <lam+rho, beta-check>
    a positive integer, are found once.  Where no wall reaches nu (no
    n*beta <= nu) the Shapovalov determinant at nu is nonzero
    (Shapovalov 1972; Jantzen, LNM 750), so the quotient map at nu is
    the identity and is kept as its dimension P(nu).  On a wall, v in
    M_{lam-nu} (nu != 0) lies in the maximal submodule exactly when
    x_i . v does for every simple i.  So dim L(lam)_{lam-nu} is the rank
    of the stacked map M_{lam-nu} -> sum_i L_{lam-nu+alpha_i}: the x_i
    matrices followed by the quotient maps one level up, kept as a
    primitive integer row basis (``exactla.row_basis``).  A caller names
    the nu it needs (``verma_is_simple`` only those where walls meet,
    since it reads a one-wall rank as P(nu) - P(nu - n*beta)), and
    ``_fill`` adds the nu their stacks read.  lam is scaled by the lcm
    of its denominators, which leaves every rank as it is, so the
    recursion never builds a Fraction.
    """

    def __init__(self, alg: LieAlgebraData, lam: Weight):
        self.alg = alg
        self.lam = lam
        scale, coords = lam.scaled()
        # homogeneous coordinates: form . point = scale * form(lam)
        self._point = (scale,) + coords
        self._walls = [tuple(n * b for b in beta)
                       for beta, n in alg.rs.integral_pairings(lam) if n > 0]
        # an int is an identity quotient of that dimension, a list a
        # primitive row basis
        self._quotients: Dict[RootVec, Union[int, List[List[int]]]] = {}

    def _columns(self, i: int, nu: RootVec):
        """The x_i matrix at nu evaluated at lam (scaled), as sparse
        columns (rows, values)."""
        point = self._point
        matrix = self.alg.cache.get("raising_matrix", {}).get((i, nu))
        if matrix is None:  # a miss validates nu and builds the matrix
            matrix = raising_matrix(self.alg, i, nu)
        return [(targets, [sum(map(mul, form, point)) for form in forms])
                for targets, forms in matrix]

    def raising_rows(self, i: int, nu: RootVec) -> List[List[int]]:
        """The x_i matrix at nu evaluated at lam (scaled), as dense rows."""
        columns = self._columns(i, nu)
        size = len(weight_space_basis(self.alg, _lower(nu, i)))
        rows = [[0] * len(columns) for _ in range(size)]
        for c, (targets, values) in enumerate(columns):
            for r, value in zip(targets, values):
                rows[r][c] = value
        return rows

    def _stacked(self, nu: RootVec) -> List[List[int]]:
        """Rows of the map M_{lam-nu} -> sum_i L_{lam-nu+alpha_i}."""
        out = []
        for i in range(self.alg.l):
            target = _lower(nu, i)
            quotient = self._quotients[target] if target is not None else None
            if not quotient:
                continue
            if isinstance(quotient, int):
                out.extend(self.raising_rows(i, nu))
                continue
            columns = self._columns(i, nu)
            for q in quotient:
                pick = q.__getitem__
                out.append([sum(map(mul, map(pick, targets), values))
                            for targets, values in columns])
        return out

    def _fill(self, wanted: Iterable[RootVec]) -> Dict[RootVec, int]:
        """Build the quotient maps M_{lam-nu} -> L(lam)_{lam-nu} at each
        wanted nu not yet known and, in turn, at the nu - alpha_i that a
        wall-reached one stacks on, in height order: a row basis where a
        wall n*beta <= nu reaches nu, else the identity, kept as P(nu).
        Returns dim L(lam)_{lam-nu} at each nu built."""
        quotients = self._quotients
        built: Dict[RootVec, int] = {}  # nu -> a wall reaches it, then its rank
        todo = list(wanted)
        while todo:
            nu = todo.pop()
            if nu in built or nu in quotients:
                continue
            built[nu] = False
            for wall in self._walls:
                if all(map(ge, nu, wall)):
                    built[nu] = True
                    todo.extend(_lower(nu, i) for i in range(len(nu)) if nu[i])
                    break
        for nu in sorted(built, key=sum):
            if built[nu]:
                quotients[nu] = exactla.row_basis(self._stacked(nu))
                built[nu] = len(quotients[nu])
            else:
                built[nu] = quotients[nu] = self.alg.rs.kostant_p(nu)
        return built

    def simple_mult(self, nu) -> int:
        """dim L(lam)_{lam-nu}; 0 off Gamma, as at a non-integral nu."""
        nu = self.alg.rs.gamma_point(nu)
        if nu is None:
            return 0
        if nu not in self._quotients:
            self._fill([nu])
        quotient = self._quotients[nu]
        return quotient if isinstance(quotient, int) else len(quotient)


# -- Shapovalov form ---------------------------------------------------------


def _symmetric(size: int, entry) -> List[list]:
    """The symmetric size x size matrix of entry(a, b), called for a <= b."""
    rows = [[None] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            rows[a][b] = rows[b][a] = entry(a, b)
    return rows


#: bits of one h_j exponent in a packed U(h) monomial sum_j e_j << (16 j);
#: an entry at nu has degree at most height(nu)
_H_BITS = 16


def shapovalov_polynomial_matrix(alg: LieAlgebraData, nu: RootVec):
    """Entries <y^A v, y^B v> as elements of U(h).

    Entry (A, B) is the Harish-Chandra projection of sigma(y^A) y^B; its
    evaluation at lambda is the contravariant form on M(lambda).  The
    matrix at nu is read off a lower level (Shapovalov 1972; Humphreys,
    GSM 94, 3.14-3.15; Jantzen, LNM 750).  Write y^A = y_beta y^A', with
    y_beta the first PBW factor of y^A: its lowest y index, so beta is
    the highest root in A.  Then sigma(y^A) = sigma(y^A') x_beta, and
    x_beta y^B = sum_C y^C f_C(h) modulo the left ideal U(g) n+, where
    hc(u f(h)) = hc(u) f(h).  So

        S_nu[A][B] = sum_C S_{nu-beta}[A'][C] R_beta(nu)[C][B],

    R_beta(nu) the x_beta matrix of affine forms in h from ``_raising``
    (``raising_matrix`` for a simple beta).  sigma fixes U(h), so the form
    is symmetric and only A <= B is computed.  The levels are memoized in
    ``alg.cache`` by nu, with the packed integer entries that the next
    level reads; a cold call at nu builds and keeps nu and the levels
    nu - beta it reads, in turn, so only levels nu' with nu - nu' in
    Gamma.  Empty off Gamma; DomainError at a height of 2**16 or more.
    """
    nu = alg.rs.gamma_point(nu)
    if nu is None:
        return (), ()
    cache = alg.cache.setdefault("shapovalov_polynomial_matrix", {})
    got = cache.get(nu)
    if got is None:
        if sum(nu) >> _H_BITS:
            raise DomainError(f"nu of height {sum(nu)} is too high for the Shapovalov form")
        _shapovalov_levels(alg, cache, nu)
        got = cache[nu]
    return got[:2]


def _shapovalov_levels(alg: LieAlgebraData, cache, nu: RootVec) -> None:
    """Store (basis, polys, packed rows) at nu and at every level below
    it that the recursion reads and ``cache`` lacks, in height order.  A
    packed entry maps sum_j e_j << (_H_BITS j) to the integer coefficient
    of h^e."""
    m, l = alg.m, alg.l
    roots = alg.rs.positive_roots
    simple = {pos: i for i, pos in enumerate(alg.simple_positions)}
    plan = {}  # level -> (basis, first y slot of each monomial)
    todo = [nu]
    while todo:
        mu = todo.pop()
        if mu in cache or mu in plan:
            continue
        basis = weight_space_basis(alg, mu)
        if not any(mu):
            cache[mu] = (basis, ((alg.one(),),), (({0: 1},),))
            continue
        firsts = [next(k for k, e in enumerate(mono) if e) for mono in basis]
        plan[mu] = (basis, firsts)
        todo.extend(tuple(map(sub, mu, roots[m - 1 - k])) for k in set(firsts))
    steps = (0,) + tuple(1 << (_H_BITS * j) for j in range(l))  # 1, h_1, ..., h_l
    zeros = (0,) * m
    mask = (1 << _H_BITS) - 1
    keys: Dict[int, tuple] = {}  # packed -> exponent tuple, shared by the levels
    coefs: Dict[int, Fraction] = {}

    def element(entry):
        terms = {}
        for key, c in entry.items():
            exps = keys.get(key)
            if exps is None:
                exps = keys[key] = zeros + tuple(
                    (key >> (_H_BITS * j)) & mask for j in range(l)) + zeros
            coef = coefs.get(c)
            if coef is None:
                coef = coefs[c] = Fraction(c)
            terms[exps] = coef
        return UEAElement._exact(alg, terms)

    for mu in sorted(plan, key=sum):
        basis, firsts = plan[mu]
        size = len(basis)
        rows = [[None] * size for _ in range(size)]
        for k in set(firsts):
            pos = m - 1 - k
            below = tuple(map(sub, mu, roots[pos]))
            lower_basis, _, lower = cache[below]
            index = {mono: r for r, mono in enumerate(lower_basis)}
            first = firsts.index(k)  # rows A <= B read columns B >= A only
            matrix = (raising_matrix(alg, simple[pos], mu) if pos in simple
                      else _raising(alg, pos, mu, below, first))
            # column B as (C, ((packed h_j, f_j) for f_j != 0)) per nonzero R[C][B]
            columns = [[(c, tuple((step, f) for step, f in zip(steps, form) if f))
                        for c, form in zip(*column)] for column in matrix]
            for a, mono in enumerate(basis):
                if firsts[a] != k:
                    continue
                upper = lower[index[mono[:k] + (mono[k] - 1,) + mono[k + 1:]]]
                row = rows[a]
                for b in range(a, size):
                    acc: Dict[int, int] = {}
                    get = acc.get
                    for c, parts in columns[b]:
                        poly = upper[c]
                        for step, f in parts:
                            for key, coef in poly.items():
                                key += step
                                acc[key] = get(key, 0) + f * coef
                    row[b] = rows[b][a] = {key: c for key, c in acc.items() if c}
        polys = _symmetric(size, lambda a, b: element(rows[a][b]))
        cache[mu] = (basis, tuple(map(tuple, polys)), tuple(map(tuple, rows)))


def shapovalov_matrix(alg: LieAlgebraData, lam: Weight, nu) -> List[List[Fraction]]:
    """The contravariant form at depth nu, evaluated once per pair; empty
    off Gamma."""
    _, polys = shapovalov_polynomial_matrix(alg, nu)
    return _symmetric(len(polys), lambda a, b: polys[a][b].evaluate_at(lam))


def simple_weight_mult(alg: LieAlgebraData, lam: Weight, nu) -> int:
    """dim L(lam)_{lam-nu}, by the radical recursion of ``VermaModule``."""
    return VermaModule(alg, lam).simple_mult(nu)


class SimplicityReport(Record):
    verdict: bool
    depth: int
    ranks: Tuple[Tuple[RootVec, int, int], ...]  # (nu, rank, full dimension)

    # one per verma_is_simple call: faster than Record's generic constructor
    def __init__(self, verdict, depth, ranks):
        set_field = object.__setattr__
        set_field(self, "verdict", verdict)
        set_field(self, "depth", depth)
        set_field(self, "ranks", ranks)

    @property
    def nondegenerate(self) -> bool:
        return all(rank == dim for _, rank, dim in self.ranks)

    def first_degenerate(self) -> Optional[RootVec]:
        for nu, rank, dim in self.ranks:
            if rank < dim:
                return nu
        return None


def audit_plan(alg: LieAlgebraData, depth: int
               ) -> Tuple[List[Tuple[RootVec, int, int]], Dict[RootVec, int],
                          Dict[RootVec, int]]:
    """The lam-free part of a depth audit, memoized by depth: the triples
    (nu, P(nu), P(nu)) over the nonzero nu of ``gamma_elements``, each
    triple's position, and P at every nu of height <= depth.  P is taken
    from ``kostant_p`` one nu at a time in height order, so every cell the
    plan adds to that memo has height <= depth; one box [0, (depth,)*l]
    would fill (depth+1)^l cells."""
    cache = alg.cache.setdefault("audit_plan", {})
    got = cache.get(depth)
    if got is None:
        nus = gamma_elements(alg, depth)
        kostant = dict(zip(nus, map(alg.rs.kostant_p, nus)))
        triples = [(nu, kostant[nu], kostant[nu]) for nu in nus[1:]]  # nus[0] is 0
        position = {nu: i for i, (nu, _, _) in enumerate(triples)}
        got = cache[depth] = (triples, position, kostant)
    return got


def verma_is_simple(alg: LieAlgebraData, lam: Weight, depth: int) -> SimplicityReport:
    """Antidominance verdict plus a depth-limited nondegeneracy audit.

    The verdict is STRICT antidominance: lam has no wall exactly when no
    <lam+rho, beta-check> is a positive integer.  The audit records
    dim L(lam)_{lam-nu} (the rank of the contravariant form) at every nu
    up to the depth.  Where no wall reaches nu the rank is P(nu).  Where
    one wall n*beta reaches nu it is P(nu) - P(nu - n*beta), read, not
    eliminated: M(s_beta . lam) embeds in the maximal submodule
    (Humphreys, GSM 94, 4.6), and Jantzen's sum formula bounds that
    submodule's dimension by the sum of P(nu - n*beta) over the walls
    (Jantzen, LNM 750; Humphreys 5.3), the one term here.  The radical
    recursion runs only where two walls meet and at the wall-reached nu
    that such a nu stacks on, above it; each rank it gives must satisfy
    max P(nu - n*beta) <= P(nu) - rank <= sum P(nu - n*beta) over the
    walls that reach nu (on one wall, the read rank), else
    ConsistencyError.  P is read off the depth's ``audit_plan``, whose
    rows are the report at a lam with no wall; only the rows of the nu a
    wall reaches are replaced.  DomainError unless the depth is a
    nonnegative int (a bool is refused).  An antidominant verdict with a
    rank drop is impossible and raises ConsistencyError.  A strictly antidominant lam
    has no walls, so every audited rank is P(nu) and the drop cannot
    happen by construction; the check stays, and selftest criterion 6
    and the Shapovalov-rank test cross-check the walls by other routes.
    """
    _check_depth(depth)
    module = VermaModule(alg, lam)
    verdict = not module._walls
    # nu -> [nu - wall for each wall that reaches nu], one region per wall
    reach: Dict[RootVec, List[RootVec]] = {}
    for wall in module._walls:
        height = sum(wall)
        if height <= depth:
            for d in gamma_elements(alg, depth - height):
                reach.setdefault(tuple(map(add, wall, d)), []).append(d)
    built = module._fill([nu for nu, below in reach.items() if len(below) > 1])
    triples, position, kostant = audit_plan(alg, depth)
    ranks = triples.copy()  # off the walls the rank is P(nu)
    checked = []
    for nu, below in reach.items():
        if nu in built:
            checked.append((position[nu], nu, below))
        else:
            dim = kostant[nu]
            ranks[position[nu]] = (nu, dim - kostant[below[0]], dim)
    for i, nu, below in sorted(checked):  # the first broken bound in audit order
        dim, rank = kostant[nu], built[nu]
        bounds = [kostant[d] for d in below]  # P(nu - n*beta) per wall
        if not max(bounds) <= dim - rank <= sum(bounds):
            raise ConsistencyError(f"rank {rank} at {nu} breaks the Jantzen bounds")
        ranks[i] = (nu, rank, dim)
    report = SimplicityReport(verdict, depth, tuple(ranks))
    if verdict and not report.nondegenerate:
        raise ConsistencyError(
            "antidominant weight with degenerate contravariant form at "
            f"{report.first_degenerate()}")
    return report


# -- blocks ------------------------------------------------------------------


class DecompositionMatrix(Record):
    """[M(lam) : L(mu)] over a linkage class, rows and columns in block order.

    ``diffs`` holds the table of mu_k - mu_j in simple-root coordinates
    (None off Gamma) and ``walls`` the walls n*beta of each mu_k;
    ``block_report`` reuses both, and they take no part in equality.
    """

    class_weights: Tuple[Weight, ...]
    entries: Tuple[Tuple[int, ...], ...]
    depth: int
    diffs: Tuple[tuple, ...] = ()
    walls: Tuple[tuple, ...] = ()
    _hidden = ("diffs", "walls")

    @property
    def size(self) -> int:
        return len(self.class_weights)


def _over_unitriangular(row, upper) -> Tuple[int, ...]:
    """row * upper^-1 for an upper unitriangular matrix, by forward
    substitution: x_j = row_j - sum_{k<j} x_k upper[k][j], skipping zero x_k."""
    x = []
    for j, acc in enumerate(row):
        for k, xk in enumerate(x):
            if xk:
                acc -= xk * upper[k][j]
        x.append(acc)
    return tuple(x)


def decomposition_matrix(alg: LieAlgebraData, lam: Weight,
                         depth: Optional[int] = None) -> DecompositionMatrix:
    """Solve the block's character system for [M(lam_i) : L(mu_j)].

    Only integral weights are accepted: comparability inside a
    non-integral orbit is not resolved here, so D is refused (the orbit
    itself is still available through the linkage operations).
    """
    if not lam.is_integral:
        raise DomainError("decomposition matrices are computed for integral "
                          "weights only; use linkage/orbit reporting instead")
    rs = alg.rs
    cls = tuple(rs.dot_orbit(lam))
    s = len(cls)
    depths = [rs.gamma_coords(cls[0] - w) for w in cls]  # mu_0 - mu_k
    # diffs[k][j]: mu_k - mu_j = depths[j] - depths[k] in simple-root
    # coordinates, None off Gamma
    diffs = tuple(tuple(d if min(d) >= 0 else None for d in
                        (tuple(map(sub, cj, ck)) for cj in depths)) for ck in depths)
    auto_depth = sum(depths[-1])
    n = auto_depth if depth is None else max(depth, auto_depth)
    table = rs._kostant_fill(tuple(map(max, zip(*depths))))  # P at every diff

    # dim L(mu_k)_{mu_j} and dim M(mu_k)_{mu_j} at the pairwise differences
    sm, walls = [], []
    for k, row in enumerate(diffs):
        module = VermaModule(alg, cls[k])
        dims = module._fill([d for d in row if d is not None])
        sm.append([0 if d is None else dims[d] for d in row])
        walls.append(tuple(module._walls))
    kostant = [[0 if d is None else table[d] for d in row] for row in diffs]

    rows = [_over_unitriangular(row, sm) for row in kostant]

    for i in range(s):
        if rows[i][i] != 1:
            raise ConsistencyError("decomposition matrix is not unitriangular")
        for j in range(s):
            if rows[i][j] < 0 or (j < i and rows[i][j] != 0):
                raise ConsistencyError("decomposition matrix violates the order")
    # re-check the defining character identity after the solve
    for i in range(s):
        for j in range(s):
            lhs = kostant[i][j]
            rhs = sum(rows[i][k] * sm[k][j] for k in range(s))
            if lhs != rhs:
                raise ConsistencyError("character identity fails after solve")

    return DecompositionMatrix(cls, tuple(rows), n, diffs, tuple(walls))


def projective_filtration_matrix(dec: DecompositionMatrix) -> Tuple[Tuple[int, ...], ...]:
    """(P(mu) : M(lam)) = D[lam][mu] by reciprocity; returned as the
    matrix indexed [mu][lam], i.e. the transpose of D."""
    s = dec.size
    out = tuple(tuple(dec.entries[i][j] for i in range(s)) for j in range(s))
    for j in range(s):
        if out[j][j] != 1:
            raise ConsistencyError("reciprocity matrix is not unitriangular")
        for i in range(s):
            if out[j][i] != 0 and i > j:
                raise ConsistencyError("projective filtration violates the order")
    return out


def cartan_matrix(dec: DecompositionMatrix) -> Tuple[Tuple[int, ...], ...]:
    """C = D^T D: composition multiplicities of the projectives."""
    s = dec.size
    d = dec.entries
    c = tuple(tuple(sum(d[k][i] * d[k][j] for k in range(s)) for j in range(s))
              for i in range(s))
    for i in range(s):
        if c[i][i] <= 0:
            raise ConsistencyError("Cartan matrix has nonpositive diagonal")
        for j in range(s):
            if c[i][j] != c[j][i]:
                raise ConsistencyError("Cartan matrix is not symmetric")
    return c


class BlockReport(Record):
    """Everything finitely checkable about one block."""

    representative: Weight
    class_weights: Tuple[Weight, ...]
    depth: int
    decomposition: Tuple[Tuple[int, ...], ...]
    projective_filtration: Tuple[Tuple[int, ...], ...]
    cartan: Tuple[Tuple[int, ...], ...]
    simple_weight_tables: Tuple[Tuple[RootVec, Tuple[int, ...]], ...]
    finite_dimensional: Tuple[bool, ...]
    weyl_dimension_checks: Tuple[Tuple[int, int, int], ...]  # (index, dim, rank sum)


def block_report(alg: LieAlgebraData, lam: Weight,
                 depth: Optional[int] = None) -> BlockReport:
    """Assemble the full per-block report for an integral weight: tables
    and Weyl-dimension sums are read off ch L = D^-1 ch M, and each table
    entry is checked against Jantzen's bounds, which do not use D."""
    dec = decomposition_matrix(alg, lam, depth)
    cls = dec.class_weights
    s = len(cls)
    proj = projective_filtration_matrix(dec)
    cart = cartan_matrix(dec)
    for i in range(s):
        for j in range(s):
            if proj[j][i] != dec.entries[i][j]:
                raise ConsistencyError("reciprocity identity broken in report")

    inv = [_over_unitriangular([int(j == k) for j in range(s)], dec.entries)
           for k in range(s)]
    # ch L(mu_k) = sum_j D^-1[k][j] ch M(mu_j), as (D^-1[k][j], mu_k - mu_j)
    terms = [[(c, diff) for c, diff in zip(inv[k], dec.diffs[k]) if c] for k in range(s)]
    if any(diff is None for row in terms for _, diff in row):
        raise ConsistencyError("inverse decomposition matrix leaves the order")
    rs = alg.rs
    findim = tuple(w.is_dominant_integral for w in cls)
    # a finite-dimensional L(w) spans w - w0 w; -w0 w is -w's dominant point
    spans = {k: rs.gamma_coords(w + Weight(rs._dominant(tuple(map(neg, w.coords)))))
             for k, w in enumerate(cls) if findim[k]}
    if None in spans.values():
        raise ConsistencyError("support of a finite-dimensional simple "
                               "is not in the root lattice")
    # table rows: for each nu among the pairwise differences,
    # dim L(mu_k)_{mu_k - nu} for every class member k
    nus = sorted({d for row in dec.diffs for d in row if d is not None},
                 key=lambda v: (sum(v), v))
    # one box holds every nu >= 0 read below, the Weyl sums' nu included
    box = rs._kostant_fill(tuple(max((*column, *map(sum, spans.values())))
                                 for column in zip(*nus)))

    def kostant_below(nu, d):  # P(nu - d), 0 off Gamma
        point = tuple(map(sub, nu, d))
        return box[point] if min(point) >= 0 else 0

    def simple_dim(k, nu):  # dim L(mu_k)_{mu_k - nu}
        return sum(c * kostant_below(nu, diff) for c, diff in terms[k])

    columns = [[simple_dim(k, nu) for nu in nus] for k in range(s)]
    for k, (walls, column) in enumerate(zip(dec.walls, columns)):
        for nu, dim in zip(nus, column):
            # dim of M(mu_k)'s maximal submodule at nu (Jantzen, LNM 750)
            below = [kostant_below(nu, wall) for wall in walls]
            if not max(below, default=0) <= box[nu] - dim <= sum(below):
                raise ConsistencyError(f"dim L_{k} at {nu} breaks the Jantzen bounds")
    tables = tuple(zip(nus, zip(*columns)))

    checks = []
    for k, span in spans.items():
        total = sum(simple_dim(k, nu) for nu in gamma_elements(alg, sum(span)))
        expected = rs.weyl_dimension(cls[k])
        if total != expected:
            raise ConsistencyError(
                f"rank sum {total} disagrees with Weyl dimension {expected}")
        checks.append((k, expected, total))

    return BlockReport(
        representative=lam,
        class_weights=cls,
        depth=dec.depth,
        decomposition=dec.entries,
        projective_filtration=proj,
        cartan=cart,
        simple_weight_tables=tables,
        finite_dimensional=findim,
        weyl_dimension_checks=tuple(checks),
    )
