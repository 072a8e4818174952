"""JSON encoding conventions shared by the CLI and file formats.

Integers are emitted bare; other rationals as "p/q" strings so no
precision is ever lost.  Weights are arrays of such values; elements of
U(g) are arrays of {"exps": [...], "coef": ...} rows in canonical term
order (degree, then exponent vector).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError
from .liealg import LieAlgebraData, UEAElement
from .rootdata import Weight


def frac_to_json(value):
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def frac_from_json(obj) -> Fraction:
    if isinstance(obj, bool):
        raise UsageError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse rational {obj!r}") from None
    raise UsageError(f"not a rational: {obj!r}")


def weight_to_json(w: Weight):
    return [frac_to_json(c) for c in w.coords]


def parse_weight(text: str) -> Weight:
    """Comma-separated rationals in H-coordinates, e.g. "1,-1/2"."""
    try:
        return Weight([Fraction(part) for part in text.split(",")])
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse weight {text!r}") from None


def parse_int_vector(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse integer vector {text!r}") from None


def element_to_json(u: UEAElement):
    # an exponent may be a bool or another int type, equal to its int
    return [{"exps": list(map(int, exps)), "coef": frac_to_json(coef)}
            for exps, coef in u.sorted_terms()]


def element_from_json(alg: LieAlgebraData, obj) -> UEAElement:
    if not isinstance(obj, list):
        raise UsageError("element must be an array of {exps, coef} rows")
    terms = {}
    for row in obj:
        if not isinstance(row, dict) or "exps" not in row or "coef" not in row:
            raise UsageError("element rows need 'exps' and 'coef' fields")
        exps = row["exps"]
        if not isinstance(exps, list) or not all(
                isinstance(e, int) and not isinstance(e, bool) for e in exps):
            raise UsageError(f"exponent vector must be an array of integers, "
                             f"got {exps!r}")
        exps = tuple(exps)
        if len(exps) != alg.d or any(e < 0 for e in exps):
            raise UsageError(f"exponent vector must have length {alg.d} "
                             "with nonnegative entries")
        coef = frac_from_json(row["coef"])
        terms[exps] = terms.get(exps, Fraction(0)) + coef
    return UEAElement(alg, terms)
