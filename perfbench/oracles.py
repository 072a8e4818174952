"""Independent checks of the workloads' outputs.

Nothing here calls the library code path that produced the output being
checked.  Root data (positive roots, coroots, the Cartan matrix) and, for
the Bruhat check, ``WeylGroup.bruhat_leq`` are taken from bggkit; every
rule applied to them is written out here.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


# -- blocks ------------------------------------------------------------------

def block_digest(report):
    """sha256 of a block's JSON without the ``representative`` field.

    Every member of a linkage class gives the same block, so this is the
    same for whichever member the seed passed.
    """
    body = {k: v for k, v in report.items() if k != "representative"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def block_problems(lib, key, label, member, report, reference):
    """Problems with one ``bggkit block --json`` report; empty when none."""
    found = []
    passed = [Fraction(x) for x in member.split(",")]
    if [Fraction(x) for x in report.get("representative", ())] != passed:
        found.append("representative is not the weight passed")
    if block_digest(report) != reference["digest"]:
        found.append("block differs from the reference digest")
    d, c = report.get("D"), report.get("C")
    if not _is_square(d) or not _is_square(c) or len(c) != len(d):
        found.append("D or C is not a square matrix of the class size")
        return found
    n = len(d)
    if any(c[i][j] != sum(d[k][i] * d[k][j] for k in range(n))
           for i in range(n) for j in range(n)):
        found.append("C is not D^T D")
    if reference.get("bruhat"):
        found.extend(bruhat_problems(lib, label, report["class"], d))
    return found


def _is_square(m):
    return isinstance(m, list) and all(isinstance(r, list) and len(r) == len(m)
                                       for r in m)


def bruhat_problems(lib, label, class_weights, d):
    """Regular rank-2 block: D is the Bruhat incidence matrix.

    Every dihedral Kazhdan-Lusztig polynomial is 1, so for the dominant
    class member lam, [M(u.lam) : L(v.lam)] = 1 iff u <= v in the Bruhat
    order, and 0 otherwise.
    """
    rs = lib.rootdata.build_root_system(label)
    weyl = rs.weyl_group()
    weights = [lib.Weight([Fraction(x) for x in w]) for w in class_weights]
    top = weights[0]
    if any(x + 1 <= 0 for x in top.coords) or len(weights) != len(weyl):
        return ["block is not regular with its dominant weight first"]
    by_weight = {rs.dot_action(w, top).coords: w for w in weyl}
    try:
        elements = [by_weight[w.coords] for w in weights]
    except KeyError:
        return ["class is not the dot orbit of its first weight"]
    n = len(elements)
    wrong = sum(d[i][j] != int(weyl.bruhat_leq(elements[i], elements[j]))
                for i in range(n) for j in range(n))
    return [f"{wrong} entries of D differ from the Bruhat order"] if wrong else []


# -- weights -----------------------------------------------------------------

def _pairing(rs, coords, alpha):
    """<lam, alpha-check> for lam in coroot coordinates."""
    return sum(h * x for h, x in zip(rs.coroot(alpha), coords))


def _shifted(coords):
    return [Fraction(x) + 1 for x in coords]  # lam + rho, rho = (1, ..., 1)


def strictly_antidominant(rs, coords):
    """No positive root pairs lam + rho to a positive integer."""
    shifted = _shifted(coords)
    for alpha in rs.positive_roots:
        v = _pairing(rs, shifted, alpha)
        if v.denominator == 1 and v >= 1:
            return False
    return True


def shapovalov_degenerate(rs, coords, nu):
    """Shapovalov-determinant support (Jantzen, LNM 750).

    det at nu is, up to a nonzero scalar, the product over alpha > 0 and
    k >= 1 of (<lam + rho, alpha-check> - k)^P(nu - k alpha).  It vanishes
    iff some factor is zero with nu - k alpha in Gamma, i.e. iff
    <lam + rho, alpha-check> = k is a positive integer and nu - k alpha
    has no negative coordinate.
    """
    shifted = _shifted(coords)
    for alpha in rs.positive_roots:
        v = _pairing(rs, shifted, alpha)
        if v.denominator != 1 or v <= 0:
            continue
        k = int(v)
        if all(n - k * a >= 0 for n, a in zip(nu, alpha)):
            return True
    return False


def casimir_eigenvalue(rs, coords):
    """(lam, lam + 2 rho) for the form dual to the Killing form on h.

    kappa(h_i, h_j) = sum over all roots of alpha(h_i) alpha(h_j), with
    alpha(h_i) = sum_j C[i][j] alpha_j; then (lam, mu) = lam^T K^-1 mu.
    """
    cart = rs.cartan.entries
    l = rs.rank
    values = [[sum(cart[i][j] * a[j] for j in range(l)) for i in range(l)]
              for a in rs.positive_roots]
    killing = [[2 * sum(v[i] * v[j] for v in values) for j in range(l)]
               for i in range(l)]
    lam = [Fraction(x) for x in coords]
    mu = _solve(killing, [x + 2 for x in lam])
    return sum(a * b for a, b in zip(lam, mu))


def _solve(matrix, rhs):
    """x with matrix x = rhs, by Gauss-Jordan over Fraction."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(b)]
            for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def dot_orbit(rs, coords):
    """{w . lam}, by closing lam + rho under the simple reflections."""
    cart = rs.cartan.entries
    l = rs.rank
    start = tuple(_shifted(coords))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(l):
                img = tuple(v[j] - cart[j][i] * v[i] for j in range(l))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return {tuple(x - 1 for x in v) for v in seen}


def audited_nus(rank, depth):
    """Every nonzero nu in Gamma of height at most ``depth``, sorted."""
    out = [()]
    for _ in range(rank):
        out = [v + (c,) for v in out for c in range(depth + 1)]
    return sorted(v for v in out if 0 < sum(v) <= depth)


# -- norms -------------------------------------------------------------------

def valuation(c, p):
    """p-adic valuation of a nonzero rational."""
    v = 0
    num, den = c.numerator, c.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def log_norm_exact(terms, p, s):
    """max over the support of (-v_p(coefficient) + degree * s); None if 0."""
    if not terms:
        return None
    return max(-valuation(c, p) + sum(exps) * s for exps, c in terms.items())


def element_problems(u, v, product):
    """The PBW symbol of u*v is the commutative product of the symbols.

    gr U(g) is the symmetric algebra, so uv has degree deg u + deg v and
    its top-degree part is sum c_A c_B X^(A+B) over the top-degree terms.
    """
    du = max(sum(e) for e in u)
    dv = max(sum(e) for e in v)
    expected = {}
    for ea, ca in u.items():
        if sum(ea) != du:
            continue
        for eb, cb in v.items():
            if sum(eb) == dv:
                key = tuple(a + b for a, b in zip(ea, eb))
                expected[key] = expected.get(key, Fraction(0)) + ca * cb
    expected = {k: c for k, c in expected.items() if c}
    if any(sum(e) > du + dv for e in product):
        return ["product exceeds the degree of the factors"]
    top = {e: c for e, c in product.items() if sum(e) == du + dv}
    return [] if top == expected else ["product symbol is not the symbol product"]


def norm_digest(rows_per_op):
    """sha256 over every (log|u|, log|v|, log|uv|) value, in order."""
    h = hashlib.sha256()
    for rows in rows_per_op:
        for row in rows:
            h.update(repr(tuple(str(x) for x in row[:3])).encode())
    return h.hexdigest()
