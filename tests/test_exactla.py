"""Exact rational elimination: row selection, inversion, solving."""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from probelearn import (InternalError, UsageError, independent_rows, invert,
                        mat_vec)


def test_single_column_rows():
    e3 = [0, 0, 0, 1, 0]
    assert independent_rows([e3], 5) == [3]


def test_two_columns_lowest_index_pivoting():
    cols = [[1, 1, 0], [0, 1, 1]]
    assert independent_rows(cols, 3) == [0, 1]


def test_identity_takes_all_rows():
    cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert independent_rows(cols, 3) == [0, 1, 2]


def test_dependent_row_skipped():
    # row 1 equals row 0, so the greedy scan must jump to row 2
    cols = [[1, 1, 0], [2, 2, 1]]
    assert independent_rows(cols, 3) == [0, 2]


def test_column_length_mismatch():
    with pytest.raises(UsageError):
        independent_rows([[1, 0], [1, 0, 0]], 2)


def test_rank_matches_sympy():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        cols = [list(rng.integers(0, 3, n)) for _ in range(k)]
        chosen = independent_rows(cols, n)
        rank = sympy.Matrix([[c[r] for c in cols] for r in range(n)]).rank()
        assert len(chosen) == rank
        if rank == k:
            # the selected square submatrix must be invertible
            invert([[cols[c][r] for c in range(k)] for r in chosen])


def test_invert_hand_case():
    inv = invert([[1, 2], [3, 5]])
    assert inv == [[Fraction(-5), Fraction(2)], [Fraction(3), Fraction(-1)]]


def test_invert_singular():
    with pytest.raises(InternalError):
        invert([[1, 2], [2, 4]])


def test_solve_round_trips():
    rng = np.random.default_rng(4)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        a = [[int(v) for v in rng.integers(-3, 4, k)] for _ in range(k)]
        if sympy.Matrix(a).det() == 0:
            continue
        b = [Fraction(int(v)) for v in rng.integers(-5, 6, k)]
        x = mat_vec(invert(a), b)
        back = mat_vec(a, x)
        assert back == b  # exact, not approximate


def test_mat_vec():
    assert mat_vec([[1, 2], [0, 3]], [Fraction(1, 2), Fraction(1, 3)]) == [
        Fraction(7, 6), Fraction(1)]
