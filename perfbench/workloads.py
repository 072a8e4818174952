"""The three seeded workloads.

Each workload makes its inputs from the seed with ``random.Random`` and
nothing else; the library only ever receives those inputs.  A workload
has three phases:

* ``setup(lib)`` builds what the workload declares as set-up on a freshly
  imported ``bggkit`` package ``lib``;
* ``ops()`` returns the timed operations, each a callable returning the
  output that the oracles check;
* ``check(outputs, lib)`` returns one problem string (or None) per
  operation.

Why these three (see README.md for the predictions per layer):

* blocks_cold: ``bggkit block --json`` from a cold process, where the PBW
  kernel and the Shapovalov products dominate;
* scan_warm: many highest weights on one warmed algebra, where
  evaluation and exact rank dominate and the kernel is idle;
* norms: Gauss norms of small products in wide algebras, which never
  reach category or exactla.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from oracles import (audited_nus, block_problems, casimir_eigenvalue,
                     dot_orbit, element_problems, log_norm_exact, norm_digest,
                     shapovalov_degenerate, strictly_antidominant)

# the eight blocks of blocks_cold, as "type:weight" of one class member;
# reference.json holds each whole linkage class and its block digest
BLOCKS = ("A1:10", "A2:0,0", "A2:1,1", "A2:2,1", "B2:0,0", "B2:0,-1",
          "G2:0,-1", "A3:-1,0,0")

# basis dimension d = 2m + l, so inputs can be drawn without the library
ALGEBRA_DIM = {"B2": 10, "G2": 14, "F4": 52, "E6": 78}

PRIMES = (2, 5)
LOG_RADII = (Fraction(1, 2), Fraction(1), Fraction(2))

SIZES = {
    "full": {
        "blocks": BLOCKS,
        "scan": (("B2", 6), ("A3", 5)),
        "scan_weights": 200,
        "norm_types": ("B2", "G2", "F4", "E6"),
        "norm_pairs": 1000,
    },
    # for the benchmark's own tests: seconds, not minutes
    "tiny": {
        "blocks": ("A2:0,0", "B2:0,-1"),
        "scan": (("B2", 3),),
        "scan_weights": 12,
        "norm_types": ("B2", "G2"),
        "norm_pairs": 15,
    },
}


class Raised:
    """Output of an operation that raised instead of returning."""

    def __init__(self, exc):
        self.message = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.message == self.message


def _rank_of(label):
    return int(label[1:])


def run_block(lib, label, member):
    """``bggkit block --json`` in this process, from a cold root-system cache.

    Returns (exit code, stdout, stderr).
    """
    lib.rootdata.cached_root_system.cache_clear()
    # "--weight=-1,0": argparse would read "--weight -1,0" as a flag
    argv = ["block", "--type", label, f"--weight={member}", "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class BlocksCold:
    """Eight ``bggkit block --json`` calls through ``bggkit.cli.main``.

    The seed picks the member of each linkage class that is passed and
    the order of the blocks.  The root-system cache of the CLI is cleared
    before every call, as a new process would have it.
    """

    name = "blocks_cold"

    def __init__(self, seed, size, reference):
        rng = random.Random(seed)
        self.reference = reference["blocks"]
        chosen = []
        for key in SIZES[size]["blocks"]:
            label = key.split(":", 1)[0]
            member = rng.choice(self.reference[key]["class"])
            chosen.append((key, label, member))
        rng.shuffle(chosen)
        self.inputs = chosen
        self.lib = None

    def setup(self, lib):
        self.lib = lib

    def release(self):
        self.lib = None

    def ops(self):
        return [lambda label=label, member=member: run_block(self.lib, label, member)
                for _, label, member in self.inputs]

    def check(self, outputs, lib):
        problems = []
        for (key, label, member), out in zip(self.inputs, outputs):
            if isinstance(out, Raised):
                problems.append(f"{key}: {out.message}")
                continue
            code, text, err = out
            if code != 0:
                problems.append(f"{key}: exit {code}: {err.strip()}")
                continue
            try:
                report = json.loads(text)
            except json.JSONDecodeError as exc:
                problems.append(f"{key}: output is not JSON ({exc})")
                continue
            found = block_problems(lib, key, label, member, report,
                                   self.reference[key])
            problems.append(f"{key}: {'; '.join(found)}" if found else None)
        return problems


class ScanWarm:
    """``verma_is_simple`` and ``CentralCharacter`` over many weights.

    Set-up builds every Shapovalov polynomial matrix up to the depth and
    the verified Casimir with its centrality verdict, so the timed phase
    is evaluation, exact rank and the dot orbit.  Operation i scans the
    i-th weight of every type, so that operation times are not split in
    one cluster per type with the median between them.
    """

    name = "scan_warm"
    RATIONAL_SHARE = 0.2

    def __init__(self, seed, size, reference):
        rng = random.Random(seed)
        spec = SIZES[size]
        n = spec["scan_weights"]
        per_type = []
        for label, depth in spec["scan"]:
            rank = _rank_of(label)
            rational = set(rng.sample(range(n), round(n * self.RATIONAL_SHARE)))
            weights = []
            for i in range(n):
                if i in rational:
                    coords = tuple(Fraction(rng.randint(-36, 36), rng.choice((2, 3)))
                                   for _ in range(rank))
                else:
                    coords = tuple(Fraction(rng.randint(-12, 12)) for _ in range(rank))
                weights.append((label, depth, coords))
            per_type.append(weights)
        self.inputs = list(zip(*per_type))
        self.types = spec["scan"]
        self.lib = None

    def setup(self, lib):
        self.lib = lib
        self.algs = {}
        for label, depth in self.types:
            alg = lib.liealg.build_chevalley(lib.rootdata.build_root_system(label))
            for nu in lib.category.gamma_elements(alg, depth):
                if any(nu):
                    lib.category.shapovalov_polynomial_matrix(alg, nu)
            lib.harish.is_central(lib.liealg.casimir(alg))
            self.algs[label] = alg
        self.weights = [[lib.Weight(coords) for _, _, coords in op]
                        for op in self.inputs]

    def release(self):
        self.lib = self.algs = self.weights = None

    def ops(self):
        return [lambda i=i: self._scan(i) for i in range(len(self.inputs))]

    def _scan(self, i):
        lib = self.lib
        out = []
        for (label, depth, _), lam in zip(self.inputs[i], self.weights[i]):
            alg = self.algs[label]
            report = lib.category.verma_is_simple(alg, lam, depth)
            chi = lib.harish.CentralCharacter(alg, lam)
            out.append((report.verdict, tuple(report.ranks), chi.casimir_value,
                        tuple(w.coords for w in chi.orbit)))
        return tuple(out)

    def check(self, outputs, lib):
        problems = []
        systems = {label: lib.rootdata.build_root_system(label)
                   for label, _ in self.types}
        for op, out in zip(self.inputs, outputs):
            if isinstance(out, Raised):
                problems.append(out.message)
                continue
            found = []
            for (label, depth, coords), scan in zip(op, out):
                found.extend(f"{label} {coords}: {p}" for p in
                             _scan_problems(systems[label], depth, coords, scan))
            problems.append("; ".join(found) or None)
        return problems


def _scan_problems(rs, depth, coords, scan):
    verdict, ranks, casimir_value, orbit = scan
    found = []
    if verdict != strictly_antidominant(rs, coords):
        found.append("verdict disagrees with strict antidominance")
    if sorted(nu for nu, _, _ in ranks) != audited_nus(rs.rank, depth):
        found.append("audit does not cover every nu up to the depth")
    for nu, rank, dim in ranks:
        if not 0 <= rank <= dim:
            found.append(f"rank {rank} outside [0, {dim}] at {nu}")
        elif (rank < dim) != shapovalov_degenerate(rs, coords, nu):
            found.append(f"rank drop at {nu} contradicts the "
                         "Shapovalov determinant support")
    if casimir_value != casimir_eigenvalue(rs, coords):
        found.append("Casimir eigenvalue is not (lam, lam + 2 rho)")
    if set(orbit) != dot_orbit(rs, coords):
        found.append("central character orbit is not the dot orbit")
    return found


def _coefficient(rng):
    """A rational rich in powers of 2 and 5."""
    num = rng.choice((1, 3, 7, 9, 11, 13)) * 2 ** rng.randint(0, 3) \
        * 5 ** rng.randint(0, 3)
    den = rng.choice((1, 3, 7)) * 2 ** rng.randint(0, 3) * 5 ** rng.randint(0, 2)
    return Fraction(rng.choice((1, -1)) * num, den)


def _element_terms(rng, dim):
    """At most 3 terms of degree at most 3; never zero."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 3)):
            exps = [0] * dim
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(dim)] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + _coefficient(rng)
        terms = {k: c for k, c in terms.items() if c}
    return terms


class Norms:
    """Products of small elements checked under six Gauss norms.

    Each operation forms u*v, the log norms of u, v and uv, and the
    submultiplicativity, ultrametric and scaling verdicts, for p in
    {2, 5} and log-radius s in {1/2, 1, 2}.
    """

    name = "norms"

    def __init__(self, seed, size, reference):
        rng = random.Random(seed)
        spec = SIZES[size]
        self.types = spec["norm_types"]
        self.inputs = []
        for label in self.types:
            dim = ALGEBRA_DIM[label]
            for _ in range(spec["norm_pairs"]):
                self.inputs.append((label, _element_terms(rng, dim),
                                    _element_terms(rng, dim), _coefficient(rng)))
        self.expected_digest = reference["norms_digest"].get(f"{size}:{seed}")
        self.lib = None

    def setup(self, lib):
        self.lib = lib
        algs = {}
        for label in self.types:
            alg = lib.liealg.build_chevalley(lib.rootdata.cached_root_system(label))
            if alg.d != ALGEBRA_DIM[label]:
                raise RuntimeError(f"{label} has dimension {alg.d}")
            algs[label] = alg
        self.params = [lib.NormParam(p, s) for p in PRIMES for s in LOG_RADII]
        self.pairs = [(lib.UEAElement(algs[label], u), lib.UEAElement(algs[label], v), c)
                      for label, u, v, c in self.inputs]

    def release(self):
        self.lib = self.params = self.pairs = None

    def ops(self):
        return [lambda i=i: self._norms(i) for i in range(len(self.pairs))]

    def _norms(self, i):
        gaussnorm = self.lib.gaussnorm
        u, v, c = self.pairs[i]
        w = u * v
        cu = c * u
        rows = []
        for np in self.params:
            nu, nv = gaussnorm.log_norm(u, np), gaussnorm.log_norm(v, np)
            nw = gaussnorm.log_norm(w, np)
            rows.append((nu.value, nv.value, nw.value,
                         nw <= nu.plus(nv),
                         gaussnorm.check_ultrametric(u, v, np),
                         gaussnorm.log_norm(cu, np)
                         == nu.shift(-gaussnorm.vp(c, np.p))))
        return w.terms, tuple(rows)

    def check(self, outputs, lib):
        problems = []
        for (label, u, v, c), out in zip(self.inputs, outputs):
            if isinstance(out, Raised):
                problems.append(out.message)
                continue
            product, rows = out
            found = element_problems(u, v, product)
            for (p, s), row in zip(((p, s) for p in PRIMES for s in LOG_RADII), rows):
                nu, nv, nw, sub, ultra, scaling = row
                if not (sub and ultra and scaling):
                    found.append(f"identity fails at p={p}, s={s}")
                exact = [log_norm_exact(terms, p, s) for terms in (u, v, product)]
                if [nu, nv, nw] != exact:
                    found.append(f"log norms differ from the oracle at p={p}, s={s}")
            problems.append("; ".join(found) or None)
        digest = norm_digest(() if isinstance(out, Raised) else out[1]
                             for out in outputs)
        if self.expected_digest is not None and digest != self.expected_digest:
            # the digest cannot say which operation is wrong: fail them all
            problems = [p or "digest of all norm values differs from "
                        "reference.json" for p in problems]
        return problems


WORKLOADS = {cls.name: cls for cls in (BlocksCold, ScanWarm, Norms)}
