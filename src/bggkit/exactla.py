"""Exact linear algebra over the rationals.

Everything here works on lists of lists of Fraction (or int) and never
touches floating point: row bases and ranks use fraction-free elimination
on integer-scaled rows, kernels and inverses use plain Gauss-Jordan with
exact division.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError


def _integer_rows(matrix):
    """Scale each row by the lcm of its denominators; rank is unchanged."""
    rows = []
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        rows.append([int(f * scale) for f in fracs])
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


def rank(matrix) -> int:
    """Rank of a rational matrix: the length of its fraction-free row basis."""
    return len(row_basis(_integer_rows(matrix)))


def nullspace(matrix, width=None):
    """Basis of the right kernel of a rational matrix.

    Returns a list of vectors (lists of Fraction) spanning {v : Mv = 0},
    echelon-normalized so the result is deterministic.  ``width`` must be
    given when ``matrix`` has no rows.
    """
    n = len(matrix)
    if n == 0:
        if width is None:
            raise DomainError("nullspace of empty matrix needs explicit width")
        m = width
        rows = []
    else:
        m = len(matrix[0])
        rows = [[Fraction(x) for x in row] for row in matrix]

    pivots = []
    r = 0
    for col in range(m):
        pivot_row = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break

    free_cols = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


def invert(matrix):
    """Exact inverse of a square rational matrix; DomainError if singular."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot_row is None:
            raise DomainError("matrix is singular")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]
