"""Command-line front end.

Exit codes: 0 success, 1 domain error (valid syntax, bad mathematics),
2 usage error, 3 internal consistency failure.  All output is
deterministic: rationals print exactly, JSON rationals follow the
integer-or-"p/q" convention, and random suites are seeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import category, gaussnorm, harish, jsonio, liealg, selftest
from .errors import BGGKitError, ConsistencyError, DomainError, UsageError
from .pbw import KERNEL_IMPL
from .rootdata import (STRICT, WIDE, CartanMatrixInput, RootSystem, Weight,
                       build_root_system, cached_root_system)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_CONSISTENCY = 3


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    type_label: Optional[str] = None
    cartan_file: Optional[str] = None
    prime: int = 2
    log_radius: Fraction = Fraction(1)
    depth: Optional[int] = None
    convention: str = STRICT
    json_output: bool = False
    seed: int = selftest.DEFAULT_SEED

    def root_system(self) -> RootSystem:
        if (self.type_label is None) == (self.cartan_file is None):
            raise UsageError("give exactly one of --type or --cartan-file")
        if self.type_label is not None:
            return cached_root_system(self.type_label)
        try:
            with open(self.cartan_file) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read {self.cartan_file}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad JSON in {self.cartan_file}: {exc}") from None
        if not isinstance(data, dict) or "cartan" not in data:
            raise UsageError('Cartan file must be {"cartan": [[...], ...]}')
        rows = data["cartan"]
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(type(x) is int for x in row)
                for row in rows):
            raise UsageError("Cartan matrix must be an array of arrays of "
                             f"integers, got {rows!r}")
        return build_root_system(CartanMatrixInput(tuple(map(tuple, rows))))

    def algebra(self) -> liealg.LieAlgebraData:
        return liealg.build_chevalley(self.root_system())


def _add_system_args(sub):
    sub.add_argument("--type", dest="type_label", metavar="LABEL",
                     help="series label such as A1, A2, B2, G2")
    sub.add_argument("--cartan-file", metavar="PATH",
                     help='JSON file {"cartan": [[2,-1],[-1,2]]}')
    sub.add_argument("--json", action="store_true", help="emit JSON")


def _config_from(args) -> RunConfig:
    cfg = RunConfig()
    for field in ("type_label", "cartan_file", "depth", "seed"):
        if hasattr(args, field) and getattr(args, field) is not None:
            setattr(cfg, field, getattr(args, field))
    if getattr(args, "json", False):
        cfg.json_output = True
    if getattr(args, "prime", None) is not None:
        cfg.prime = args.prime
    if getattr(args, "log_radius", None) is not None:
        try:
            cfg.log_radius = Fraction(args.log_radius)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse log-radius {args.log_radius!r}") from None
    if getattr(args, "antidominance", None):
        cfg.convention = args.antidominance
    return cfg


def _emit(obj):
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# -- subcommand implementations ---------------------------------------------


def _check_rank(rs: RootSystem, option: str, text: str, coords) -> None:
    if len(coords) != rs.rank:
        raise DomainError(f"{option} {text} has wrong rank: expected "
                          f"{rs.rank} coordinates, got {len(coords)}")


def _weight(rs: RootSystem, text: str, option: str = "--weight") -> Weight:
    """Parse a weight and check it against the rank."""
    lam = jsonio.parse_weight(text)
    _check_rank(rs, option, text, lam.coords)
    return lam


def _nu(rs: RootSystem, text: str):
    """Parse an integer vector and check it against the rank."""
    vec = jsonio.parse_int_vector(text)
    _check_rank(rs, "--nu", text, vec)
    return vec


def cmd_roots(cfg: RunConfig) -> int:
    rs = cfg.root_system()
    if cfg.json_output:
        _emit({
            "rank": rs.rank,
            "num_positive": rs.num_positive,
            "positive_roots": [list(r) for r in rs.positive_roots],
            "coroots": [list(rs.coroot(r)) for r in rs.positive_roots],
        })
        return EXIT_OK
    print(f"rank {rs.rank}, {rs.num_positive} positive roots")
    for r in rs.positive_roots:
        print("  root %-12s coroot %s" % (",".join(map(str, r)),
                                          ",".join(map(str, rs.coroot(r)))))
    return EXIT_OK


def cmd_weyl_orbit(cfg: RunConfig, weight: str) -> int:
    rs = cfg.root_system()
    lam = _weight(rs, weight)
    orbit = rs.dot_orbit(lam)
    anti = rs.is_antidominant(lam, cfg.convention)
    if cfg.json_output:
        _emit({
            "weight": jsonio.weight_to_json(lam),
            "antidominant": anti,
            "convention": cfg.convention,
            "orbit": [jsonio.weight_to_json(w) for w in orbit],
        })
        return EXIT_OK
    print(f"dot orbit size {len(orbit)}; antidominant ({cfg.convention}): {anti}")
    for w in orbit:
        print("  " + ",".join(str(c) for c in w.coords))
    return EXIT_OK


def cmd_kostant(cfg: RunConfig, nu: str) -> int:
    rs = cfg.root_system()
    vec = _nu(rs, nu)
    value = rs.kostant_p(vec)
    if cfg.json_output:
        _emit({"nu": list(vec), "kostant": value})
    else:
        print(value)
    return EXIT_OK


def cmd_verma_mult(cfg: RunConfig, weight: str, nu: Optional[str]) -> int:
    alg = cfg.algebra()
    lam = _weight(alg.rs, weight)
    if nu is not None:
        vec = _nu(alg.rs, nu)
        depth = max(sum(vec), cfg.depth or 0)
        vslice = category.verma_slice(alg, lam, depth)
        dim = vslice.dimension(vec)
        if cfg.json_output:
            _emit({"weight": jsonio.weight_to_json(lam), "nu": list(vec),
                   "dimension": dim})
        else:
            print(dim)
        return EXIT_OK
    # dim M(lambda)_(lambda-nu) is the Kostant number P(nu)
    depth = cfg.depth if cfg.depth is not None else 4
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    rows = [{"nu": list(v), "dimension": alg.rs.kostant_p(v)}
            for v in category.gamma_elements(alg, depth)]
    if cfg.json_output:
        _emit({"weight": jsonio.weight_to_json(lam), "depth": depth,
               "dimensions": rows})
    else:
        print(f"dim M(lambda)_(lambda-nu) up to depth {depth}")
        for row in rows:
            print("  nu=%-10s dim %d" % (",".join(map(str, row["nu"])),
                                         row["dimension"]))
    return EXIT_OK


def cmd_central_char(cfg: RunConfig, weight: str) -> int:
    alg = cfg.algebra()
    lam = _weight(alg.rs, weight)
    omega = liealg.casimir(alg)
    chi = harish.central_character(lam, omega)
    psi = harish.hc_psi(omega)
    if cfg.json_output:
        _emit({
            "weight": jsonio.weight_to_json(lam),
            "chi_of_casimir": jsonio.frac_to_json(chi),
            "psi_of_casimir": jsonio.element_to_json(psi),
        })
        return EXIT_OK
    print(f"chi_lambda(Omega) = {chi}")
    print(f"psi(Omega) = {psi}")
    return EXIT_OK


def cmd_linked(cfg: RunConfig, weights: str) -> int:
    rs = cfg.root_system()
    items = [_weight(rs, part, "--weights member") for part in weights.split(";")
             if part]
    if not items:
        raise UsageError("no weights given")
    classes = []
    for lam in items:
        for cls in classes:
            if rs.is_linked(cls[0], lam):
                cls.append(lam)
                break
        else:
            classes.append([lam])
    _emit([[jsonio.weight_to_json(w) for w in cls] for cls in classes])
    return EXIT_OK


def cmd_norm(cfg: RunConfig, elements: Sequence[str]) -> int:
    alg = cfg.algebra()
    np = gaussnorm.NormParam(cfg.prime, cfg.log_radius)
    parsed = []
    for text in elements:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad element JSON: {exc}") from None
        parsed.append(jsonio.element_from_json(alg, obj))
    out = []
    for u in parsed:
        ln = gaussnorm.log_norm(u, np)
        display = "0" if ln.is_bottom else f"{np.p}^({ln.value})"
        try:
            approx = 0.0 if ln.is_bottom else float(np.p) ** float(ln.value)
        except OverflowError:
            approx = None  # p^value is past the float range; log_norm is exact
        out.append({"log_norm": None if ln.is_bottom else
                    jsonio.frac_to_json(ln.value),
                    "norm": display, "norm_decimal": approx})
    result = {"prime": np.p, "log_radius": jsonio.frac_to_json(np.s),
              "norms": out}
    if len(parsed) == 2:
        result["submultiplicative"] = gaussnorm.check_submultiplicative(
            parsed[0], parsed[1], np)
    if cfg.json_output:
        _emit(result)
        return EXIT_OK
    for row in out:
        approx = row["norm_decimal"]
        if approx is None:
            approx = math.inf
        print(f"log_{np.p}|u| = {row['log_norm']}  "
              f"(|u| = {row['norm']} ~ {approx:.6g})")
    if "submultiplicative" in result:
        print(f"submultiplicative: {result['submultiplicative']}")
    return EXIT_OK


def cmd_shapovalov(cfg: RunConfig, weight: str, nu: str) -> int:
    alg = cfg.algebra()
    lam = _weight(alg.rs, weight)
    vec = _nu(alg.rs, nu)
    matrix = category.shapovalov_matrix(alg, lam, vec)
    rank = category.simple_weight_mult(alg, lam, vec)
    if cfg.json_output:
        _emit({
            "weight": jsonio.weight_to_json(lam),
            "nu": list(vec),
            "matrix": [[jsonio.frac_to_json(x) for x in row] for row in matrix],
            "rank": rank,
        })
        return EXIT_OK
    print(f"Shapovalov form at nu={nu}, size {len(matrix)}, rank {rank}")
    for row in matrix:
        print("  [" + ", ".join(str(x) for x in row) + "]")
    return EXIT_OK


def cmd_maximal_vectors(cfg: RunConfig, weight: str, nu: str) -> int:
    alg = cfg.algebra()
    lam = _weight(alg.rs, weight)
    vec = _nu(alg.rs, nu)
    found = category.maximal_vectors(alg, lam, vec, cfg.depth)
    rows = [[{"exps": list(mono), "coef": jsonio.frac_to_json(c)}
             for mono, c in sorted(v.terms.items())] for v in found]
    if cfg.json_output:
        _emit({"weight": jsonio.weight_to_json(lam), "nu": list(vec),
               "count": len(found), "vectors": rows})
        return EXIT_OK
    print(f"{len(found)} maximal vector(s) at nu={nu}")
    for v in found:
        print("  " + repr(v))
    return EXIT_OK


def _decomposition_json(dec: category.DecompositionMatrix):
    return {
        "class": [jsonio.weight_to_json(w) for w in dec.class_weights],
        "depth": dec.depth,
        "D": [list(row) for row in dec.entries],
    }


def cmd_decomp(cfg: RunConfig, weight: str) -> int:
    alg = cfg.algebra()
    lam = _weight(alg.rs, weight)
    dec = category.decomposition_matrix(alg, lam, cfg.depth)
    if cfg.json_output:
        _emit(_decomposition_json(dec))
        return EXIT_OK
    print(f"linkage class ({dec.size} weights), block ordering:")
    for w in dec.class_weights:
        print("  " + ",".join(str(c) for c in w.coords))
    print("D = [M(row) : L(col)]:")
    for row in dec.entries:
        print("  " + " ".join(f"{x:2d}" for x in row))
    return EXIT_OK


def cmd_block(cfg: RunConfig, weight: str) -> int:
    alg = cfg.algebra()
    lam = _weight(alg.rs, weight)
    report = category.block_report(alg, lam, cfg.depth)
    if cfg.json_output:
        _emit({
            "representative": jsonio.weight_to_json(report.representative),
            "class": [jsonio.weight_to_json(w) for w in report.class_weights],
            "depth": report.depth,
            "D": [list(row) for row in report.decomposition],
            "projective_filtration": [list(r) for r in report.projective_filtration],
            "C": [list(row) for row in report.cartan],
            "simple_weight_tables": [
                {"nu": list(nu), "ranks": list(ranks)}
                for nu, ranks in report.simple_weight_tables],
            "finite_dimensional": list(report.finite_dimensional),
            "weyl_dimension_checks": [
                {"index": i, "weyl_dimension": d, "rank_sum": s}
                for i, d, s in report.weyl_dimension_checks],
        })
        return EXIT_OK
    print(f"block of {','.join(str(c) for c in lam.coords)}: "
          f"{len(report.class_weights)} simples, depth {report.depth}")
    print("class (block ordering):")
    for w, fd in zip(report.class_weights, report.finite_dimensional):
        tag = "  [finite-dimensional simple]" if fd else ""
        print("  " + ",".join(str(c) for c in w.coords) + tag)
    print("D = [M(row) : L(col)]  (reciprocity: (P(col):M(row)) equals D):")
    for row in report.decomposition:
        print("  " + " ".join(f"{x:2d}" for x in row))
    print("C = D^T D:")
    for row in report.cartan:
        print("  " + " ".join(f"{x:2d}" for x in row))
    for i, dim, total in report.weyl_dimension_checks:
        print(f"Weyl dimension check at index {i}: {dim} == {total}")
    return EXIT_OK


def cmd_selftest(cfg: RunConfig, types: Optional[Sequence[str]], fast: bool) -> int:
    results = selftest.run_selftest(types, fast, cfg.seed)
    print(f"kernel: {KERNEL_IMPL}; seed: {cfg.seed}")
    failed = False
    for res in results:
        print(res.line())
        if not res.passed and not res.skipped:
            failed = True
    if failed:
        print("SELFTEST FAILED")
        return EXIT_CONSISTENCY
    print("selftest passed")
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bggkit",
        description="Exact block data for highest-weight module categories: "
                    "roots, PBW arithmetic, Gauss norms, Shapovalov ranks, "
                    "decomposition and Cartan matrices.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("roots", help="positive roots and coroots")
    _add_system_args(sub)

    sub = subs.add_parser("weyl-orbit", help="dot orbit in block ordering")
    _add_system_args(sub)
    sub.add_argument("--weight", required=True, metavar="W")
    sub.add_argument("--antidominance", choices=(STRICT, WIDE), default=STRICT)

    sub = subs.add_parser("kostant", help="Kostant partition number")
    _add_system_args(sub)
    sub.add_argument("--nu", required=True, metavar="V",
                     help="integer vector in simple-root coordinates")

    sub = subs.add_parser("verma-mult", help="Verma weight multiplicities")
    _add_system_args(sub)
    sub.add_argument("--weight", required=True, metavar="W")
    sub.add_argument("--nu", metavar="V")
    sub.add_argument("--depth", type=int)

    sub = subs.add_parser("central-char", help="central character data")
    _add_system_args(sub)
    sub.add_argument("--weight", required=True, metavar="W")

    sub = subs.add_parser("linked", help="partition weights into linkage classes")
    _add_system_args(sub)
    sub.add_argument("--weights", required=True, metavar="W1;W2;...")

    sub = subs.add_parser("norm", help="Gauss norm of one or two elements")
    _add_system_args(sub)
    sub.add_argument("--prime", type=int, default=2)
    sub.add_argument("--log-radius", default="1", metavar="S",
                     help="rational s = log_p r, must be positive")
    sub.add_argument("--element", action="append", required=True,
                     metavar="JSON", help="element as JSON (repeatable; "
                     "with two elements the product norm is checked)")

    sub = subs.add_parser("shapovalov", help="contravariant form on a weight space")
    _add_system_args(sub)
    sub.add_argument("--weight", required=True, metavar="W")
    sub.add_argument("--nu", required=True, metavar="V")

    sub = subs.add_parser("maximal-vectors", help="kernel of the raising action")
    _add_system_args(sub)
    sub.add_argument("--weight", required=True, metavar="W")
    sub.add_argument("--nu", required=True, metavar="V")
    sub.add_argument("--depth", type=int)

    sub = subs.add_parser("decomp", help="block decomposition matrix")
    _add_system_args(sub)
    sub.add_argument("--weight", required=True, metavar="W")
    sub.add_argument("--depth", type=int)

    sub = subs.add_parser("block", help="full block report")
    _add_system_args(sub)
    sub.add_argument("--weight", required=True, metavar="W")
    sub.add_argument("--depth", type=int)

    sub = subs.add_parser("selftest", help="run the acceptance suite")
    sub.add_argument("--type", dest="types", action="append", metavar="LABEL",
                     help="restrict to specific root systems (repeatable)")
    sub.add_argument("--fast", action="store_true",
                     help="structure-constant and Kostant suites only")
    sub.add_argument("--seed", type=int, default=selftest.DEFAULT_SEED)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from(args)
    command = args.command
    if command == "roots":
        return cmd_roots(cfg)
    if command == "weyl-orbit":
        return cmd_weyl_orbit(cfg, args.weight)
    if command == "kostant":
        return cmd_kostant(cfg, args.nu)
    if command == "verma-mult":
        return cmd_verma_mult(cfg, args.weight, args.nu)
    if command == "central-char":
        return cmd_central_char(cfg, args.weight)
    if command == "linked":
        return cmd_linked(cfg, args.weights)
    if command == "norm":
        return cmd_norm(cfg, args.element)
    if command == "shapovalov":
        return cmd_shapovalov(cfg, args.weight, args.nu)
    if command == "maximal-vectors":
        return cmd_maximal_vectors(cfg, args.weight, args.nu)
    if command == "decomp":
        return cmd_decomp(cfg, args.weight)
    if command == "block":
        return cmd_block(cfg, args.weight)
    if command == "selftest":
        return cmd_selftest(cfg, args.types, args.fast)
    raise UsageError(f"unknown command {command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BGGKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
