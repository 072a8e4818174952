"""The acceptance suite: ten exact criteria, shared by CLI and pytest.

Every check is exact (no tolerances exist anywhere in the package); a
criterion fails only when an identity that should hold on the nose does
not.  Random samples are drawn from seeded generators, so two runs with
the same seed produce identical output bytes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import category, gaussnorm, harish, liealg
from .errors import ConsistencyError
from .liealg import UEAElement, build_chevalley, casimir
from .rootdata import Weight, cached_root_system

DEFAULT_SEED = 0

#: per-criterion default type lists (criteria 6..10 are rank-specific)
CRITERION_TYPES = {
    1: ("A1", "A2", "B2", "G2"),
    2: ("A1", "A2", "B2"),
    3: ("A1", "A2", "B2"),
    4: ("A1", "A2", "B2"),
    5: ("A1", "A2", "B2"),
    6: ("A1", "A2"),
    7: ("A1",),
    8: ("A2",),
    9: ("A1", "A2"),
    10: ("A1", "A2"),
}

CRITERION_NAMES = {
    1: "structure-constants-jacobi",
    2: "kostant-brute-force",
    3: "verma-weight-dimensions",
    4: "gauss-norm-submultiplicativity",
    5: "central-character-invariance",
    6: "simplicity-vs-shapovalov",
    7: "sl2-blocks",
    8: "a2-regular-block-bruhat",
    9: "weyl-dimension-cross-check",
    10: "maximal-vector-positions",
}

#: criteria 1 and 2 are structure-level and run for any requested type
TYPE_GENERIC = (1, 2, 3, 4, 5)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"{status} criterion-{self.number:02d} {self.name}: {self.detail}"


def _alg(label: str) -> liealg.LieAlgebraData:
    return build_chevalley(cached_root_system(label))


def _random_integral_weight(rng: random.Random, rank: int) -> Weight:
    return Weight([rng.randint(-5, 5) for _ in range(rank)])


def _random_rational_weight(rng: random.Random, rank: int) -> Weight:
    return Weight([Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                   for _ in range(rank)])


def _random_element(alg, rng: random.Random) -> UEAElement:
    """Small random element: up to 3 terms of degree up to 3."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * alg.d
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(alg.d)] += 1
        num = 0
        while num == 0:
            num = rng.randint(-40, 40)
        coef = Fraction(num, rng.randint(1, 24))
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coef
    return UEAElement(alg, terms)


# -- criteria ----------------------------------------------------------------


def criterion_1(types: Sequence[str], seed: int) -> CriterionResult:
    """Integer constants; Jacobi over all d^3 basis triples, off the table."""
    triples = 0
    for label in types:
        alg = _alg(label)
        for pair, entries in alg._table.items():
            for _, c in entries:
                if not isinstance(c, int):
                    return CriterionResult(1, CRITERION_NAMES[1], False,
                                           f"non-integer constant in {label}")
        failure = liealg._jacobi_failure(alg.d, alg._table)
        if failure is not None:
            return CriterionResult(1, CRITERION_NAMES[1], False,
                                   f"Jacobi fails in {label} at {failure}")
        triples += alg.d ** 3
    return CriterionResult(1, CRITERION_NAMES[1], True,
                           f"{triples} basis triples exact over {','.join(types)}")


def _kostant_brute_force(rs, nu) -> int:
    """Count the partitions of nu into positive roots by plain backtracking.

    Each root in turn is subtracted as often as the remainder stays in
    Gamma; no count is cached, so this stays independent of the
    memoized ``RootSystem.kostant_p``.
    """
    roots = rs.positive_roots

    def count(k, rest):
        if not any(rest):
            return 1
        if k == len(roots):
            return 0
        total = 0
        beta = roots[k]
        while all(c >= 0 for c in rest):
            total += count(k + 1, rest)
            rest = tuple(c - b for c, b in zip(rest, beta))
        return total

    return count(0, tuple(nu))


def criterion_2(types: Sequence[str], seed: int) -> CriterionResult:
    """Kostant DP equals naive enumeration for all nu of height <= 8."""
    checked = 0
    for label in types:
        rs = cached_root_system(label)
        l = rs.rank
        for nu in itertools.product(range(9), repeat=l):
            if sum(nu) > 8:
                continue
            if rs.kostant_p(nu) != _kostant_brute_force(rs, nu):
                return CriterionResult(2, CRITERION_NAMES[2], False,
                                       f"mismatch at {nu} in {label}")
            checked += 1
    return CriterionResult(2, CRITERION_NAMES[2], True,
                           f"{checked} vectors exact over {','.join(types)}")


def criterion_3(types: Sequence[str], seed: int) -> CriterionResult:
    """Verma slice weight-space dimensions equal the Kostant numbers."""
    rng = random.Random(seed * 1000 + 3)
    spaces = 0
    for label in types:
        alg = _alg(label)
        for _ in range(20):
            lam = _random_integral_weight(rng, alg.l)
            vslice = category.verma_slice(alg, lam, 6)
            for nu in category.gamma_elements(alg, 6):
                if vslice.dimension(nu) != alg.rs.kostant_p(nu):
                    return CriterionResult(3, CRITERION_NAMES[3], False,
                                           f"dimension mismatch at {nu} in {label}")
                spaces += 1
    return CriterionResult(3, CRITERION_NAMES[3], True,
                           f"{spaces} weight spaces over {','.join(types)}")


def criterion_4(types: Sequence[str], seed: int) -> CriterionResult:
    """Gauss norms: submultiplicative, ultrametric, scaling; zero violations."""
    rng = random.Random(seed * 1000 + 4)
    params = [gaussnorm.NormParam(p, Fraction(s))
              for p in (2, 5) for s in (Fraction(1, 2), Fraction(1), Fraction(2))]
    pairs = 0
    for label in types:
        alg = _alg(label)
        for _ in range(1000):
            u = _random_element(alg, rng)
            v = _random_element(alg, rng)
            w = u * v
            total = u + v
            num = 0
            while num == 0:
                num = rng.randint(-50, 50)
            c = Fraction(num, rng.randint(1, 20))
            cu = c * u
            for np in params:
                nu_, nv_ = gaussnorm.log_norm(u, np), gaussnorm.log_norm(v, np)
                if not gaussnorm.log_norm(w, np) <= nu_.plus(nv_):
                    return CriterionResult(4, CRITERION_NAMES[4], False,
                                           f"submultiplicativity fails in {label}")
                if not gaussnorm.check_ultrametric(u, v, np):
                    return CriterionResult(4, CRITERION_NAMES[4], False,
                                           f"ultrametric fails in {label}")
                expected = nu_.shift(-gaussnorm.vp(c, np.p))
                if gaussnorm.log_norm(cu, np) != expected:
                    return CriterionResult(4, CRITERION_NAMES[4], False,
                                           f"scaling fails in {label}")
            pairs += 1
    return CriterionResult(4, CRITERION_NAMES[4], True,
                           f"{pairs} pairs x 6 norm params, zero violations")


def criterion_5(types: Sequence[str], seed: int) -> CriterionResult:
    """chi_lambda constant on dot orbits; psi(Omega) W-invariant."""
    rng = random.Random(seed * 1000 + 5)
    checks = 0
    for label in types:
        alg = _alg(label)
        omega = casimir(alg)
        weyl = alg.rs.weyl_group()
        for _ in range(50):
            lam = _random_rational_weight(rng, alg.l)
            base = harish.central_character(lam, omega)
            for w in weyl:
                if harish.central_character(alg.rs.dot_action(w, lam), omega) != base:
                    return CriterionResult(5, CRITERION_NAMES[5], False,
                                           f"chi not orbit-constant in {label}")
                checks += 1
        psi = harish.hc_psi(omega)
        for _ in range(100):
            mu = _random_rational_weight(rng, alg.l)
            base = psi.evaluate_at(mu)
            for w in weyl:
                if psi.evaluate_at(w.act(mu)) != base:
                    return CriterionResult(5, CRITERION_NAMES[5], False,
                                           f"psi not W-invariant in {label}")
                checks += 1
    return CriterionResult(5, CRITERION_NAMES[5], True,
                           f"{checks} exact evaluations over {','.join(types)}")


def _degeneracy_prediction(alg, lam: Weight, nu) -> bool:
    """Shapovalov-determinant support: the form at nu is nonsingular iff
    no positive root alpha with <lam+rho, alpha-check> = k in Z_{>0} has
    nu - k*alpha still in Gamma."""
    rs = alg.rs
    shifted = lam + rs.rho()
    for alpha in rs.positive_roots:
        val = rs.pairing_root(shifted, alpha)
        if val.denominator != 1 or val <= 0:
            continue
        k = int(val)
        rest = tuple(n - k * a for n, a in zip(nu, alpha))
        if all(c >= 0 for c in rest):
            return False
    return True


def criterion_6(types: Sequence[str], seed: int) -> CriterionResult:
    """verma_is_simple verdicts and depth-6 ranks vs the Shapovalov
    determinant support, zero mismatches.

    Rank drops deeper than the audit cannot be seen at depth 6; the
    determinant-support prediction says exactly which nu (if any) must
    degenerate within reach, and every audited nu is compared to it.
    """
    rng = random.Random(seed * 1000 + 6)
    depth = 6
    audited = 0
    for label in types:
        alg = _alg(label)
        l = alg.l
        grid = [Weight(c) for c in itertools.product(range(-4, 5), repeat=l)]
        extra = []
        while len(extra) < 20:
            lam = Weight([Fraction(rng.randint(-8, 8), rng.choice((2, 3, 4)))
                          for _ in range(l)])
            if not lam.is_integral:
                extra.append(lam)
        for lam in grid + extra:
            report = category.verma_is_simple(alg, lam, depth)
            if report.verdict and not report.nondegenerate:
                return CriterionResult(6, CRITERION_NAMES[6], False,
                                       f"simple verdict with rank drop in {label}")
            for nu, rank, dim in report.ranks:
                predicted = _degeneracy_prediction(alg, lam, nu)
                if (rank == dim) != predicted:
                    return CriterionResult(
                        6, CRITERION_NAMES[6], False,
                        f"rank/prediction mismatch at {nu} in {label}")
                audited += 1
            if report.verdict != alg.rs.is_antidominant(lam):
                return CriterionResult(6, CRITERION_NAMES[6], False,
                                       "verdict disagrees with antidominance")
    return CriterionResult(6, CRITERION_NAMES[6], True,
                           f"{audited} weight-space audits, zero mismatches")


def criterion_7(types: Sequence[str], seed: int) -> CriterionResult:
    """sl2: regular block matrices and the singular point."""
    alg = _alg("A1")
    dec = category.decomposition_matrix(alg, Weight([0]))
    if dec.entries != ((1, 1), (0, 1)):
        return CriterionResult(7, CRITERION_NAMES[7], False,
                               f"D(0) = {dec.entries}")
    if category.cartan_matrix(dec) != ((1, 1), (1, 2)):
        return CriterionResult(7, CRITERION_NAMES[7], False, "C(0) wrong")
    proj = category.projective_filtration_matrix(dec)
    for i in range(2):
        for j in range(2):
            if proj[j][i] != dec.entries[i][j]:
                return CriterionResult(7, CRITERION_NAMES[7], False,
                                       "reciprocity violated")
    sing = category.decomposition_matrix(alg, Weight([-1]))
    if sing.entries != ((1,),) or category.cartan_matrix(sing) != ((1,),):
        return CriterionResult(7, CRITERION_NAMES[7], False, "singular block wrong")
    return CriterionResult(7, CRITERION_NAMES[7], True,
                           "D(0)=[[1,1],[0,1]], C(0)=[[1,1],[1,2]], D(-1)=[1]")


def criterion_8(types: Sequence[str], seed: int) -> CriterionResult:
    """A2 regular block: Bruhat pattern, symmetry, character identity."""
    alg = _alg("A2")
    lam = Weight([0, 0])
    dec = category.decomposition_matrix(alg, lam)
    cls = dec.class_weights
    if len(cls) != 6:
        return CriterionResult(8, CRITERION_NAMES[8], False,
                               f"class size {len(cls)}")
    weyl = alg.rs.weyl_group()
    by_weight = {alg.rs.dot_action(w, lam).coords: w for w in weyl}
    elements = [by_weight[w.coords] for w in cls]
    for i in range(6):
        for j in range(6):
            entry = dec.entries[i][j]
            if entry not in (0, 1):
                return CriterionResult(8, CRITERION_NAMES[8], False,
                                       "entry outside {0,1}")
            expected = 1 if weyl.bruhat_leq(elements[i], elements[j]) else 0
            if entry != expected:
                return CriterionResult(8, CRITERION_NAMES[8], False,
                                       f"Bruhat mismatch at ({i},{j})")
    cart = category.cartan_matrix(dec)
    if any(cart[i][j] != cart[j][i] for i in range(6) for j in range(6)):
        return CriterionResult(8, CRITERION_NAMES[8], False, "C not symmetric")
    # character identity re-check, off the solve path: fresh modules
    modules = [category.VermaModule(alg, w) for w in cls]
    for i in range(6):
        for j in range(6):
            diff = alg.rs.gamma_coords(cls[i] - cls[j])
            lhs = alg.rs.kostant_p(diff) if diff is not None else 0
            rhs = 0
            for k in range(6):
                dk = alg.rs.gamma_coords(cls[k] - cls[j])
                if dk is not None:
                    rhs += dec.entries[i][k] * modules[k].simple_mult(dk)
            if lhs != rhs:
                return CriterionResult(8, CRITERION_NAMES[8], False,
                                       f"character identity fails at ({i},{j})")
    return CriterionResult(8, CRITERION_NAMES[8], True,
                           "6x6 block matches the independent Bruhat order")


def criterion_9(types: Sequence[str], seed: int) -> CriterionResult:
    """Sum of simple multiplicities over the support = Weyl dimension."""
    grids = {
        "A1": [Weight([n]) for n in range(5)],
        "A2": [Weight(c) for c in
               ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))],
    }
    checked = 0
    for label in types:
        alg = _alg(label)
        w0 = alg.rs.weyl_group().longest_element
        for lam in grids.get(label, []):
            height = sum(alg.rs.gamma_coords(lam - w0.act(lam)))
            module = category.VermaModule(alg, lam)
            total = sum(module.simple_mult(nu)
                        for nu in category.gamma_elements(alg, height))
            if total != alg.rs.weyl_dimension(lam):
                return CriterionResult(9, CRITERION_NAMES[9], False,
                                       f"rank sum mismatch at {lam} in {label}")
            checked += 1
    return CriterionResult(9, CRITERION_NAMES[9], True,
                           f"{checked} dominant weights, both oracles agree")


def criterion_10(types: Sequence[str], seed: int) -> CriterionResult:
    """Maximal vectors at (n+1)alpha exist exactly when <lam, alpha-check> = n."""
    checked = 0
    for label in types:
        alg = _alg(label)
        l = alg.l
        grid = [Weight(c) for c in itertools.product(range(-2, 6), repeat=l)]
        simples = alg.rs.simple_roots()
        for lam in grid:
            for i in range(l):
                pair = alg.rs.pairing_root(lam, simples[i])
                for n in range(5):
                    nu = tuple((n + 1) * c for c in simples[i])
                    found = category.maximal_vectors(alg, lam, nu)
                    expected = pair == n
                    if bool(found) != expected:
                        return CriterionResult(
                            10, CRITERION_NAMES[10], False,
                            f"mismatch at lam={lam}, root {i}, n={n} in {label}")
                    checked += 1
    return CriterionResult(10, CRITERION_NAMES[10], True,
                           f"{checked} (weight, root, n) positions exact")


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_selftest(types: Optional[Sequence[str]] = None, fast: bool = False,
                 seed: int = DEFAULT_SEED) -> List[CriterionResult]:
    """Run the acceptance criteria; returns one result per criterion.

    ``types`` restricts the root systems: structure-level criteria (1-5)
    run on exactly the requested types, rank-specific ones (6-10) run on
    the intersection with their defaults and are skipped when empty.
    ``fast`` runs only the structure-constant and Kostant suites.
    """
    numbers = (1, 2) if fast else tuple(range(1, 11))
    results = []
    for num in numbers:
        defaults = CRITERION_TYPES[num]
        if types is None:
            chosen: Tuple[str, ...] = defaults
        elif num in TYPE_GENERIC:
            chosen = tuple(types)
        else:
            chosen = tuple(t for t in defaults if t in types)
        if not chosen:
            results.append(CriterionResult(num, CRITERION_NAMES[num], True,
                                           "no applicable types", skipped=True))
            continue
        try:
            results.append(CRITERIA[num](chosen, seed))
        except ConsistencyError as exc:
            results.append(CriterionResult(num, CRITERION_NAMES[num], False,
                                           f"consistency error: {exc}"))
    return results
