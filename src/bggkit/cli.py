"""Command-line front end.

Exit codes: 0 success, 1 domain error (valid syntax, bad mathematics),
2 usage error, 3 internal consistency failure.  A reader that closes
stdout early (``bggkit ... | head``) ends the command with 1 and nothing
on stderr.  All output is deterministic: rationals print exactly, JSON
rationals follow the integer-or-"p/q" convention, and random suites are
seeded.

Each subcommand is one row of ``COMMANDS``: its name, handler, help line
and options, so every option and its default is stated once, in that
table.  The handler is bound on the subcommand's parser
(``set_defaults(run=...)``) and reads the parsed namespace directly.  A
call builds the parser of its own subcommand only, or of all of them
when its first argument names none (help, no arguments, a mistyped
command).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import category, exactla, gaussnorm, harish, jsonio, liealg
from .errors import BGGKitError, ConsistencyError, DomainError, UsageError
from .pbw import KERNEL_IMPL
from .rootdata import (STRICT, WIDE, CartanMatrixInput, RootSystem, Weight,
                       build_root_system, cached_root_system)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_CONSISTENCY = 3


def _root_system(args) -> RootSystem:
    if (args.type_label is None) == (args.cartan_file is None):
        raise UsageError("give exactly one of --type or --cartan-file")
    if args.type_label is not None:
        return cached_root_system(args.type_label)
    try:
        with open(args.cartan_file) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.cartan_file}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad JSON in {args.cartan_file}: {exc}") from None
    if not isinstance(data, dict) or "cartan" not in data:
        raise UsageError('Cartan file must be {"cartan": [[...], ...]}')
    rows = data["cartan"]
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row)
            for row in rows):
        raise UsageError("Cartan matrix must be an array of arrays of "
                         f"integers, got {rows!r}")
    return build_root_system(CartanMatrixInput(tuple(map(tuple, rows))))


def _algebra(args) -> liealg.LieAlgebraData:
    return liealg.build_chevalley(_root_system(args))


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


def cmd_roots(args) -> int:
    rs = _root_system(args)
    if args.json:
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


def cmd_weyl_orbit(args) -> int:
    rs = _root_system(args)
    lam = _weight(rs, args.weight)
    orbit = rs.dot_orbit(lam)
    anti = rs.is_antidominant(lam, args.antidominance)
    if args.json:
        _emit({
            "weight": jsonio.weight_to_json(lam),
            "antidominant": anti,
            "convention": args.antidominance,
            "orbit": [jsonio.weight_to_json(w) for w in orbit],
        })
        return EXIT_OK
    print(f"dot orbit size {len(orbit)}; "
          f"antidominant ({args.antidominance}): {anti}")
    for w in orbit:
        print("  " + ",".join(str(c) for c in w.coords))
    return EXIT_OK


def cmd_kostant(args) -> int:
    rs = _root_system(args)
    vec = _nu(rs, args.nu)
    value = rs.kostant_p(vec)
    if args.json:
        _emit({"nu": list(vec), "kostant": value})
    else:
        print(value)
    return EXIT_OK


def cmd_verma_mult(args) -> int:
    alg = _algebra(args)
    lam = _weight(alg.rs, args.weight)
    if args.nu is not None:
        vec = _nu(alg.rs, args.nu)
        # the answer is P(nu) whatever --depth says, but a negative --depth
        # with a negative height(nu) stays a domain error (exit 1)
        if max(sum(vec), args.depth or 0) < 0:
            raise DomainError("depth must be nonnegative")
        dim = len(category.weight_space_basis(alg, vec))
        if args.json:
            _emit({"weight": jsonio.weight_to_json(lam), "nu": list(vec),
                   "dimension": dim})
        else:
            print(dim)
        return EXIT_OK
    # dim M(lambda)_(lambda-nu) is the Kostant number P(nu)
    depth = args.depth if args.depth is not None else 4
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    rows = [{"nu": list(v), "dimension": alg.rs.kostant_p(v)}
            for v in category.gamma_elements(alg, depth)]
    if args.json:
        _emit({"weight": jsonio.weight_to_json(lam), "depth": depth,
               "dimensions": rows})
    else:
        print(f"dim M(lambda)_(lambda-nu) up to depth {depth}")
        for row in rows:
            print("  nu=%-10s dim %d" % (",".join(map(str, row["nu"])),
                                         row["dimension"]))
    return EXIT_OK


def cmd_central_char(args) -> int:
    alg = _algebra(args)
    lam = _weight(alg.rs, args.weight)
    omega = liealg.casimir(alg)
    chi = harish.central_character(lam, omega)
    psi = harish.hc_psi(omega)
    if args.json:
        _emit({
            "weight": jsonio.weight_to_json(lam),
            "chi_of_casimir": jsonio.frac_to_json(chi),
            "psi_of_casimir": jsonio.element_to_json(psi),
        })
        return EXIT_OK
    print(f"chi_lambda(Omega) = {chi}")
    print(f"psi(Omega) = {psi}")
    return EXIT_OK


def cmd_linked(args) -> int:
    rs = _root_system(args)
    items = [_weight(rs, part, "--weights member") for part in args.weights.split(";")
             if part]
    if not items:
        raise UsageError("no weights given")
    classes = {}  # linkage key -> members, in order of first appearance
    for lam in items:
        classes.setdefault(rs.linkage_key(lam), []).append(lam)
    _emit([[jsonio.weight_to_json(w) for w in cls] for cls in classes.values()])
    return EXIT_OK


def cmd_norm(args) -> int:
    try:
        log_radius = Fraction(args.log_radius)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse log-radius {args.log_radius!r}") from None
    alg = _algebra(args)
    np = gaussnorm.NormParam(args.prime, log_radius)
    parsed = []
    for text in args.element:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad element JSON: {exc}") from None
        parsed.append(jsonio.element_from_json(alg, obj))
    norms = [gaussnorm.log_norm(u, np) for u in parsed]
    out = []
    for ln in norms:
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
    if args.json:
        _emit(result)
        return EXIT_OK
    for ln, row in zip(norms, out):
        approx = row["norm_decimal"]
        if approx is None:
            approx = math.inf
        print(f"log_{np.p}|u| = {ln}  (|u| = {row['norm']} ~ {approx:.6g})")
    if "submultiplicative" in result:
        print(f"submultiplicative: {result['submultiplicative']}")
    return EXIT_OK


def cmd_shapovalov(args) -> int:
    alg = _algebra(args)
    lam = _weight(alg.rs, args.weight)
    vec = _nu(alg.rs, args.nu)
    matrix = category.shapovalov_matrix(alg, lam, vec)
    rank = category.simple_weight_mult(alg, lam, vec)
    # the form's radical is the maximal submodule: two engines, one rank
    form_rank = exactla.rank(matrix)
    if form_rank != rank:
        raise ConsistencyError(f"Shapovalov matrix has rank {form_rank}, "
                               f"the radical recursion gives {rank}")
    if args.json:
        _emit({
            "weight": jsonio.weight_to_json(lam),
            "nu": list(vec),
            "matrix": [[jsonio.frac_to_json(x) for x in row] for row in matrix],
            "rank": rank,
        })
        return EXIT_OK
    print(f"Shapovalov form at nu={args.nu}, size {len(matrix)}, rank {rank}")
    for row in matrix:
        print("  [" + ", ".join(str(x) for x in row) + "]")
    return EXIT_OK


def cmd_maximal_vectors(args) -> int:
    alg = _algebra(args)
    lam = _weight(alg.rs, args.weight)
    vec = _nu(alg.rs, args.nu)
    found = category.maximal_vectors(alg, lam, vec, args.depth)
    rows = [[{"exps": list(mono), "coef": jsonio.frac_to_json(c)}
             for mono, c in sorted(v.terms.items())] for v in found]
    if args.json:
        _emit({"weight": jsonio.weight_to_json(lam), "nu": list(vec),
               "count": len(found), "vectors": rows})
        return EXIT_OK
    print(f"{len(found)} maximal vector(s) at nu={args.nu}")
    for v in found:
        print("  " + repr(v))
    return EXIT_OK


def _decomposition_json(dec: category.DecompositionMatrix):
    return {
        "class": [jsonio.weight_to_json(w) for w in dec.class_weights],
        "depth": dec.depth,
        "D": [list(row) for row in dec.entries],
    }


def cmd_decomp(args) -> int:
    alg = _algebra(args)
    lam = _weight(alg.rs, args.weight)
    dec = category.decomposition_matrix(alg, lam, args.depth)
    if args.json:
        _emit(_decomposition_json(dec))
        return EXIT_OK
    print(f"linkage class ({dec.size} weights), block ordering:")
    for w in dec.class_weights:
        print("  " + ",".join(str(c) for c in w.coords))
    print("D = [M(row) : L(col)]:")
    for row in dec.entries:
        print("  " + " ".join(f"{x:2d}" for x in row))
    return EXIT_OK


def cmd_block(args) -> int:
    alg = _algebra(args)
    lam = _weight(alg.rs, args.weight)
    report = category.block_report(alg, lam, args.depth)
    if args.json:
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


def cmd_selftest(args) -> int:
    from . import selftest  # only this command pays for the suite's import
    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    results = selftest.run_selftest(args.types, args.fast, seed)
    print(f"kernel: {KERNEL_IMPL}; seed: {seed}")
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


_SYSTEM = (
    ("--type", dict(dest="type_label", metavar="LABEL",
                    help="series label such as A1, A2, B2, G2")),
    ("--cartan-file", dict(metavar="PATH",
                           help='JSON file {"cartan": [[2,-1],[-1,2]]}')),
    ("--json", dict(action="store_true", help="emit JSON")),
)
_WEIGHT = ("--weight", dict(required=True, metavar="W"))
_DEPTH = ("--depth", dict(type=int))

#: one row per subcommand: name, handler, help line and options, each
#: option as (flag, keyword arguments of ``add_argument``)
COMMANDS = (
    ("roots", cmd_roots, "positive roots and coroots", _SYSTEM),
    ("weyl-orbit", cmd_weyl_orbit, "dot orbit in block ordering", _SYSTEM + (
        _WEIGHT,
        ("--antidominance", dict(choices=(STRICT, WIDE), default=STRICT)))),
    ("kostant", cmd_kostant, "Kostant partition number", _SYSTEM + (
        ("--nu", dict(required=True, metavar="V",
                      help="integer vector in simple-root coordinates")),)),
    ("verma-mult", cmd_verma_mult, "Verma weight multiplicities", _SYSTEM + (
        _WEIGHT, ("--nu", dict(metavar="V")), _DEPTH)),
    ("central-char", cmd_central_char, "central character data",
     _SYSTEM + (_WEIGHT,)),
    ("linked", cmd_linked, "partition weights into linkage classes", _SYSTEM + (
        ("--weights", dict(required=True, metavar="W1;W2;...")),)),
    ("norm", cmd_norm, "Gauss norm of one or two elements", _SYSTEM + (
        ("--prime", dict(type=int, default=2)),
        ("--log-radius", dict(default="1", metavar="S",
                              help="rational s = log_p r, must be positive")),
        ("--element", dict(action="append", required=True, metavar="JSON",
                           help="element as JSON (repeatable; with two "
                                "elements the product norm is checked)")))),
    ("shapovalov", cmd_shapovalov, "contravariant form on a weight space",
     _SYSTEM + (_WEIGHT, ("--nu", dict(required=True, metavar="V")))),
    ("maximal-vectors", cmd_maximal_vectors, "kernel of the raising action",
     _SYSTEM + (_WEIGHT, ("--nu", dict(required=True, metavar="V")), _DEPTH)),
    ("decomp", cmd_decomp, "block decomposition matrix", _SYSTEM + (_WEIGHT, _DEPTH)),
    ("block", cmd_block, "full block report", _SYSTEM + (_WEIGHT, _DEPTH)),
    ("selftest", cmd_selftest, "run the acceptance suite", (
        ("--type", dict(dest="types", action="append", metavar="LABEL",
                        help="restrict to specific root systems (repeatable)")),
        ("--fast", dict(action="store_true",
                        help="structure-constant and Kostant suites only")),
        ("--seed", dict(type=int)))),  # None: selftest.DEFAULT_SEED
)

# the subcommand choices as argparse spells them in usage lines
_CHOICES = "{" + ",".join(row[0] for row in COMMANDS) + "}"


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with only the subcommand ``command`` when that names
    one, else with all of them.  Usage lines list every subcommand
    either way, so output does not depend on which were built."""
    parser = argparse.ArgumentParser(
        prog="bggkit",
        description="Exact block data for highest-weight module categories: "
                    "roots, PBW arithmetic, Gauss norms, Shapovalov ranks, "
                    "decomposition and Cartan matrices.")
    chosen = [row for row in COMMANDS if row[0] == command]
    # argparse spells the choices it holds; with one, name all of them
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar=_CHOICES if chosen else None)
    for name, handler, help_line, options in chosen or COMMANDS:
        sub = subs.add_parser(name, help=help_line)
        sub.set_defaults(run=handler)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value like "-1,0" for an option: pass it as "--weight=-1,0"
    for k in range(len(argv) - 1, 0, -1):
        option, value = argv[k - 1:k + 1]
        if option in ("--weight", "--weights", "--nu") and re.match(r"-\d", value):
            argv[k - 1:k + 1] = [f"{option}={value}"]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    return args.run(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = run(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout becomes /dev/null, so the flush at exit writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except BGGKitError as exc:  # DomainError and its subclasses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
