"""Exact linear algebra over the rationals, computed in integers.

Inputs are lists of lists of Fraction (or int); no floating point.  There
is one elimination: rows scaled to integers are reduced to a primitive
echelon basis (``row_basis``) and then to reduced echelon form
(``_reduced``), both by fraction-free cross-multiplication (Bareiss,
Math. Comp. 22, 1968).  Ranks, kernels and inverses are read off these
forms; Fractions appear only in the returned kernel and inverse entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError


def _integer_rows(matrix):
    """Scale each row by the lcm of its denominators; rank is unchanged."""
    rows = []
    for row in matrix:
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    return rows


def row_basis(rows):
    """Echelon basis of the row space of an integer matrix, fraction-free.

    Each row is reduced at its leading column against the basis row with
    that pivot, by integer cross-multiplication, until its leading column
    is a new pivot; it is then divided by the gcd of its entries.  The
    result is a list of primitive integer rows with distinct pivots, in
    ascending pivot order, each with a positive pivot entry; no Fraction
    is created.
    """
    by_pivot = {}
    width = None
    for row in rows:
        if width is None:
            width = len(row)
        lead = next((j for j, x in enumerate(row) if x), None)
        while lead in by_pivot:
            b = by_pivot[lead]
            g = gcd(row[lead], b[lead])
            sa, sb = b[lead] // g, row[lead] // g
            # both rows vanish before lead, and the difference vanishes at it
            row = [0] * (lead + 1) + [sa * x - sb * y
                                      for x, y in zip(row[lead + 1:], b[lead + 1:])]
            lead = next((j for j in range(lead + 1, width) if row[j]), None)
        if lead is None:
            continue
        g = gcd(*row)
        if row[lead] < 0:
            g = -g
        by_pivot[lead] = [x // g for x in row]
        if len(by_pivot) == width:
            break  # full rank: the remaining rows add nothing
    return [by_pivot[j] for j in sorted(by_pivot)]


def _reduced(basis):
    """Back-eliminate a ``row_basis`` output to reduced echelon form.

    From the bottom up, each row is cleared at every later pivot column
    by integer cross-multiplication with that (reduced) row, then divided
    by the gcd of its entries.  Row i is then its pivot entry times row i
    of the unique rational reduced echelon form.  Returns (pivots, rows).
    """
    rows = [list(row) for row in basis]
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    for i in range(len(rows) - 2, -1, -1):
        row = rows[i]
        for k in range(i + 1, len(rows)):
            c = row[pivots[k]]
            if c:
                b = rows[k]
                g = gcd(c, b[pivots[k]])
                sa, sb = b[pivots[k]] // g, c // g
                row = [sa * x - sb * y for x, y in zip(row, b)]
        g = gcd(*row)
        rows[i] = [x // g for x in row]
    return pivots, rows


def rank(matrix) -> int:
    """Rank of a rational matrix: the length of its fraction-free row basis."""
    return len(row_basis(_integer_rows(matrix)))


def nullspace(matrix, width=None):
    """Basis of the right kernel of a rational matrix.

    Returns a list of vectors (lists of Fraction) spanning {v : Mv = 0},
    one per free column of the reduced echelon form, read off that form;
    the result is therefore deterministic.  ``width`` must be given when
    ``matrix`` has no rows.
    """
    if not matrix and width is None:
        raise DomainError("nullspace of empty matrix needs explicit width")
    m = len(matrix[0]) if matrix else width
    pivots, rows = _reduced(row_basis(_integer_rows(matrix)))
    basis = []
    for fc in sorted(set(range(m)) - set(pivots)):
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for pc, row in zip(pivots, rows):
            vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(vec)
    return basis


def invert(matrix):
    """Exact inverse of a square rational matrix; DomainError if singular.

    The reduced echelon form of [M | I] is [I | M^{-1}] exactly when M is
    invertible, that is when every pivot lies in the left half.
    """
    n = len(matrix)
    augmented = [list(row) + [int(i == j) for j in range(n)]
                 for i, row in enumerate(matrix)]
    pivots, rows = _reduced(row_basis(_integer_rows(augmented)))
    if pivots != list(range(n)):
        raise DomainError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]
