"""Exact rational linear algebra over fractions.Fraction.

Small dense systems only (dictionary sizes are single digits), so plain
row-echelon over Python Fractions is both exact and fast.  Pivoting is by
lowest row index — the conventions here fix which feature rows the learners
probe, so they are part of the observable behavior, not a numerical detail.
A square system A x = b is solved as `mat_vec(invert(A), b)`.  The learners'
hot path does not call `mat_vec`: `RepresentationMatrix` turns `invert`'s
result into integer rows over one denominator once per representation
change, and lifts with Python-int mat-vecs (see monomials.py).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError, UsageError


def _frac_rows(columns, n_rows):
    for col in columns:
        if len(col) != n_rows:
            raise UsageError("columns must share the same length")
    return [[Fraction(col[r]) for col in columns] for r in range(n_rows)]


def independent_rows(columns, n_rows: int) -> list:
    """Greedy lowest-index choice of rows spanning the column space.

    Returns row indices I, |I| = rank of the matrix whose columns are given;
    scanning rows top-down, a row joins I iff it is independent of the rows
    already chosen.
    """
    rows = _frac_rows(columns, n_rows)
    basis = []  # (pivot position, reduced row vector)
    chosen = []
    width = len(columns)
    for r, vec in enumerate(rows):
        v = list(vec)
        for pivot, b in basis:
            if v[pivot] != 0:
                factor = v[pivot] / b[pivot]
                v = [a - factor * c for a, c in zip(v, b)]
        pivot = next((j for j in range(width) if v[j] != 0), None)
        if pivot is not None:
            basis.append((pivot, v))
            chosen.append(r)
            if len(chosen) == width:
                break
    return chosen


def invert(matrix) -> list:
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    k = len(matrix)
    aug = [[Fraction(matrix[r][c]) for c in range(k)] + [Fraction(int(r == c)) for c in range(k)]
           for r in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            raise InternalError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [a / scale for a in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def mat_vec(matrix, vec) -> list:
    """A v, entries multiplied as given (not re-wrapped in Fraction): exact
    whenever every product has a Fraction or Python int factor."""
    return [sum(a * b for a, b in zip(row, vec)) for row in matrix]
