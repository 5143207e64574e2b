"""Deterministic exact linear algebra."""

import random
from fractions import Fraction as Q

import pytest

from bruteforce import sympy_rank
from vertexbound.errors import InputShapeError
from vertexbound.linalg import ExactMatrix, RowSpan


def random_matrix(rng, rows, cols, density=0.6):
    return [
        [Q(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Q(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]


# membership of a vector in the span of others: the spanning vectors are
# the columns of the matrix, and ``solve`` gives the coefficients


def test_membership_example():
    # columns (1, 1) and (1, -1)
    mat = ExactMatrix.from_rows([[1, 1], [1, -1]])
    assert mat.solve((2, 0)) == (Q(1), Q(1))


def test_membership_failure_and_empty():
    # columns (1, 0) and (2, 0) miss (0, 1)
    assert ExactMatrix.from_rows([[1, 2], [0, 0]]).solve((0, 1)) is None
    no_columns = ExactMatrix(2, 0)
    assert no_columns.solve((0, 0)) == ()
    assert no_columns.solve((1, 0)) is None


def test_membership_shape_errors():
    # one column of length 3 against a right-hand side of length 2
    with pytest.raises(InputShapeError):
        ExactMatrix.from_rows([[1], [2], [3]]).solve((1, 2))


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    mat = ExactMatrix.from_rows(rows)
    assert mat.rank() == sympy_rank(rows)


def test_rref_is_canonical_and_idempotent():
    mat = ExactMatrix.from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reduced, pivots = mat.rref()
    assert [c for _, c in pivots] == [0, 1]
    again, pivots2 = reduced.rref()
    assert again == reduced and pivots2 == pivots
    # leading entries normalized to 1, pivot columns cleared elsewhere
    for row_index, col in pivots:
        assert reduced.entry(row_index, col) == 1
        for other in range(mat.rows):
            if other != row_index:
                assert reduced.entry(other, col) == 0


@pytest.mark.parametrize("seed", range(10))
def test_nullspace_annihilates_and_has_right_dimension(seed):
    rng = random.Random(200 + seed)
    rows = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
    mat = ExactMatrix.from_rows(rows)
    basis = mat.nullspace()
    assert len(basis) == mat.cols - mat.rank()
    for vec in basis:
        assert not any(mat.matvec(vec))
    # canonical: one basis vector per free column with unit coordinate
    free_cols = [j for j in range(mat.cols)
                 if j not in {c for _, c in mat.rref()[1]}]
    for vec, col in zip(basis, free_cols):
        assert vec[col] == 1


@pytest.mark.parametrize("seed", range(10))
def test_solve_recovers_consistent_systems(seed):
    rng = random.Random(300 + seed)
    rows = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    mat = ExactMatrix.from_rows(rows)
    x = [Q(rng.randint(-3, 3)) for _ in range(mat.cols)]
    rhs = mat.matvec(x)
    solution = mat.solve(rhs)
    assert solution is not None
    assert mat.matvec(solution) == rhs


def test_solve_detects_inconsistency():
    mat = ExactMatrix.from_rows([[1, 1], [1, 1]])
    assert mat.solve([1, 2]) is None
    assert mat.solve([1, 1]) == (Q(1), Q(0))


def test_matmul_and_transpose():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert a.matmul(b).to_lists() == [[Q(2), Q(1)], [Q(4), Q(3)]]
    assert ExactMatrix.identity(3).matmul(ExactMatrix.identity(3)) == ExactMatrix.identity(3)


@pytest.mark.parametrize("seed", range(6))
def test_rowspan_matches_batch_rank(seed):
    rng = random.Random(400 + seed)
    vectors = [tuple(row) for row in random_matrix(rng, 7, 5, density=0.5)]
    span = RowSpan(5)
    for vec in vectors:
        span.add(vec)
    assert span.rank == sympy_rank(vectors)
    for vec in vectors:
        assert span.contains(vec)
    # residuals of contained combinations vanish exactly
    combo = tuple(a + b for a, b in zip(vectors[0], vectors[1]))
    assert span.contains(combo)


def test_rowspan_pivots_are_sorted_and_membership_is_exact():
    span = RowSpan(3)
    assert span.add((0, 1, 1))
    assert span.add((1, 0, 0))
    assert not span.add((1, 1, 1))
    assert span.pivot_columns() == (0, 1)
    assert not span.contains((0, 0, 1))
