"""Deterministic exact linear algebra."""

import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bruteforce import (
    FractionRowSpan,
    dense,
    dense_matmul,
    dense_matvec,
    fraction_gauss_jordan,
    sparse,
    sympy_rank,
)
from vertexbound.errors import InputShapeError
from vertexbound.linalg import ExactMatrix, RowSpan


def exact(rows, cols):
    """The matrix of the dense ``rows``, built from their sparse rows."""
    return ExactMatrix(len(rows), cols, [sparse(row) for row in rows])


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
    mat = ExactMatrix(2, 2, [{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert mat.solve((2, 0)) == (Q(1), Q(1))


def test_membership_failure_and_empty():
    # columns (1, 0) and (2, 0) miss (0, 1)
    assert ExactMatrix(2, 2, [{0: 1, 1: 2}, {}]).solve((0, 1)) is None
    no_columns = ExactMatrix(2, 0)
    assert no_columns.solve((0, 0)) == ()
    assert no_columns.solve((1, 0)) is None


def test_membership_shape_errors():
    # one column of length 3 against a right-hand side of length 2
    with pytest.raises(InputShapeError):
        ExactMatrix(3, 1, [{0: 1}, {0: 2}, {0: 3}]).solve((1, 2))


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    mat = exact(rows, len(rows[0]))
    assert mat.rank() == sympy_rank(rows)


def test_rref_is_canonical_and_idempotent():
    mat = exact([[0, 2, 4], [1, 1, 1], [1, 3, 5]], 3)
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
    mat = exact(rows, len(rows[0]))
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
    mat = exact(rows, len(rows[0]))
    x = [Q(rng.randint(-3, 3)) for _ in range(mat.cols)]
    rhs = mat.matvec(x)
    solution = mat.solve(rhs)
    assert solution is not None
    assert mat.matvec(solution) == rhs


def test_solve_detects_inconsistency():
    mat = ExactMatrix(2, 2, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    assert mat.solve([1, 2]) is None
    assert mat.solve([1, 1]) == (Q(1), Q(0))


def test_matmul_and_transpose():
    a = ExactMatrix(2, 2, [{0: 1, 1: 2}, {0: 3, 1: 4}])
    b = ExactMatrix(2, 2, [{1: 1}, {0: 1}])
    assert [dense(row, 2) for row in a.matmul(b).data] == [(Q(2), Q(1)), (Q(4), Q(3))]
    assert ExactMatrix.identity(3).matmul(ExactMatrix.identity(3)) == ExactMatrix.identity(3)


@pytest.mark.parametrize("seed", range(6))
def test_rowspan_matches_batch_rank(seed):
    rng = random.Random(400 + seed)
    vectors = [tuple(row) for row in random_matrix(rng, 7, 5, density=0.5)]
    span = RowSpan(5)
    for vec in vectors:
        span.add(sparse(vec))
    assert span.rank == sympy_rank(vectors)
    for vec in vectors:
        assert span.contains(sparse(vec))
    # residuals of contained combinations vanish exactly
    combo = tuple(a + b for a, b in zip(vectors[0], vectors[1]))
    assert span.contains(sparse(combo))


@pytest.mark.parametrize("call", ["add", "contains", "reduce"])
def test_rowspan_refuses_columns_outside_its_width_and_inexact_values(call):
    span = RowSpan(3)
    span.add({0: 1, 2: Q(1, 2)})
    method = getattr(span, call)
    for row in ({-1: 1}, {3: 1}, {"0": 1}, {0: 1, 3: 0}):
        with pytest.raises(InputShapeError, match="outside"):
            method(row)
    for bad in (0.5, 1e-3, "1/2", None, 0.1, "1/3"):
        with pytest.raises(InputShapeError, match="int or a Fraction"):
            method({1: 2, 2: bad})
    assert span.rank == 1 and span.rows() == [{0: 1, 2: Q(1, 2)}]
    assert method({0: 2, 2: 1}) == {"add": False, "contains": True, "reduce": {}}[call]


def test_rowspan_pivots_are_sorted_and_membership_is_exact():
    span = RowSpan(3)
    assert span.add({1: 1, 2: 1})
    assert span.add({0: 1})
    assert not span.add({0: 1, 1: 1, 2: 1})
    assert span.pivot_columns() == (0, 1)
    assert not span.contains({2: 1})


# ----------------------------------------------------------------------
# the integer kernel against rational Gauss-Jordan elimination

NEAR_1E30 = st.integers(10**30 - 10**6, 10**30 + 10**6)
small_rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))
rationals = st.one_of(
    st.just(Q(0)),
    small_rationals,
    st.builds(lambda n, d, sign: Q(sign * n, d), NEAR_1E30, NEAR_1E30, st.sampled_from([-1, 1])),
    st.builds(lambda n, d: Q(n, d), st.integers(-10**6, 10**6), NEAR_1E30),
)


def _with_derived_rows(draw, rows, cols, scalars):
    """Insert zero rows, copies and multiples of drawn rows."""
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "copy", "multiple"]))
        if kind == "zero" or not rows:
            new = [Q(0)] * cols
        else:
            source = rows[draw(st.integers(0, len(rows) - 1))]
            scale = Q(1) if kind == "copy" else draw(scalars.filter(bool))
            new = [scale * c for c in source]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@st.composite
def rational_matrices(draw, scalars=rationals, max_rows=7, max_cols=7):
    nrows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    rows = [[draw(scalars) for _ in range(cols)] for _ in range(nrows)]
    return _with_derived_rows(draw, rows, cols, scalars), cols


@st.composite
def tall_matrices(draw):
    """Many rows over a few generators, like an order-witness level block."""
    cols = draw(st.integers(1, 14))
    generators = [[draw(st.one_of(st.just(Q(0)), small_rationals)) for _ in range(cols)]
                  for _ in range(draw(st.integers(1, 6)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    nrows = draw(st.sampled_from([40, 120, 361]))
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-3, 3) for _ in generators]
        rows.append([sum((c * g[j] for c, g in zip(coeffs, generators)), Q(0))
                     for j in range(cols)])
    return _with_derived_rows(draw, rows, cols, rationals), cols


def oracle_rref(rows, cols):
    work = [sparse(row) for row in rows]
    pivots = fraction_gauss_jordan(work, cols)
    return [dense(row, cols) for row in work], pivots


def oracle_solve(rows, cols, rhs):
    reduced, pivots = oracle_rref([list(row) + [b] for row, b in zip(rows, rhs)], cols + 1)
    if any(col == cols for _, col in pivots):
        return None
    solution = [Q(0)] * cols
    for i, col in pivots:
        solution[col] = reduced[i][cols]
    return tuple(solution)


def oracle_nullspace(rows, cols):
    reduced, pivots = oracle_rref(rows, cols)
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in (j for j in range(cols) if j not in pivot_cols):
        vec = [Q(0)] * cols
        vec[free] = Q(1)
        for i, col in pivots:
            vec[col] = -reduced[i][free]
        basis.append(tuple(vec))
    return basis


def check_against_oracle(rows, cols, data):
    mat = exact(rows, cols)
    reduced, pivots = mat.rref()
    expected, expected_pivots = oracle_rref(rows, cols)
    assert pivots == expected_pivots
    assert [dense(row, cols) for row in reduced.data] == expected
    assert mat.rank() == len(expected_pivots)
    assert mat.nullspace() == oracle_nullspace(rows, cols)
    consistent = mat.matvec([data.draw(rationals) for _ in range(cols)])
    arbitrary = [data.draw(rationals) for _ in range(len(rows))]
    for rhs in (consistent, arbitrary):
        assert mat.solve(rhs) == oracle_solve(rows, cols, rhs)
    assert mat.solve(consistent) is not None


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.data())
def test_kernel_matches_rational_elimination(matrix, data):
    check_against_oracle(*matrix, data)


# no shrinking: each step re-runs rational elimination on hundreds of rows
@settings(max_examples=8, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(tall_matrices(), st.data())
def test_kernel_matches_rational_elimination_on_tall_blocks(matrix, data):
    assert exact(*matrix).rank() <= 6  # at most one pivot per generator
    check_against_oracle(*matrix, data)


def test_kernel_handles_empty_shapes():
    for rows, cols in (([], 0), ([], 4), ([[], [], []], 0)):
        mat = exact(rows, cols)
        reduced, pivots = mat.rref()
        assert (reduced, pivots) == (mat, [])
        assert mat.rank() == 0
        assert mat.nullspace() == oracle_nullspace(rows, cols)
        assert mat.solve([Q(0)] * len(rows)) == (Q(0),) * cols
    assert ExactMatrix(2, 0, [{}, {}]).solve([Q(0), Q(1)]) is None


@settings(max_examples=40, deadline=None)
@given(rational_matrices(scalars=st.one_of(st.just(Q(0)), small_rationals), max_rows=5, max_cols=5))
def test_rref_matches_sympy(matrix):
    rows, cols = matrix
    if not rows or not cols:
        return
    expected, expected_pivots = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
    ).rref()
    reduced, pivots = exact(rows, cols).rref()
    assert tuple(col for _, col in pivots) == expected_pivots
    assert [[sympy.Rational(c.numerator, c.denominator) for c in dense(row, cols)]
            for row in reduced.data] == expected.tolist()


# ----------------------------------------------------------------------
# the integer RowSpan against the Fraction one it replaced

stream_scalars = st.one_of(
    rationals,
    st.integers(-9, 9),
    st.builds(lambda n, sign: sign * n, NEAR_1E30, st.sampled_from([-1, 1])),
)


def _mixed(row):
    """The sparse row with integral entries at odd columns as ``int``, so
    derived (dependent) rows mix both types too."""
    return {j: c.numerator if type(c) is Q and c.denominator == 1 and j % 2 else c
            for j, c in sparse(row).items()}


@settings(max_examples=150, deadline=None)
@given(rational_matrices(scalars=stream_scalars), st.data())
def test_rowspan_matches_the_fraction_rowspan(matrix, data):
    rows, cols = matrix
    span, oracle = RowSpan(cols), FractionRowSpan(cols)
    probes = [[data.draw(stream_scalars) for _ in range(cols)] for _ in range(2)]
    for row in rows + probes:
        for probe in [row] + probes:
            assert span.reduce(_mixed(probe)) == oracle.reduce(_mixed(probe))
        assert span.add(_mixed(row)) == oracle.add(_mixed(row))
        assert span.rank == oracle.rank
        assert span.pivot_columns() == oracle.pivot_columns()
        assert span.rows() == oracle.rows()
        assert all(type(c) is Q for kept in span.rows() for c in kept.values())
        assert span.contains(_mixed(row))


# ----------------------------------------------------------------------
# exactness: every value leaving the kernel is a Fraction


def _all_fractions(values) -> bool:
    return all(type(v) is Q for v in values)


def _stored(mat) -> list:
    """The values a matrix holds, row by row."""
    return [c for row in mat.data for c in row.values()]


def test_eliminating_methods_return_only_fractions():
    rows = [[2, 4, -6, 1], [1, 2, -3, 5], [0, 3, 9, -12], [4, 8, -12, 2]]
    mat = exact(rows, 4)
    reduced, _ = mat.rref()
    assert _all_fractions(_stored(reduced))
    assert _all_fractions(c for row in reduced.data for c in dense(row, 4))
    solution = mat.solve([3, 6, 0, 6])
    assert solution is not None and _all_fractions(solution)
    basis = mat.nullspace()
    assert basis and all(_all_fractions(vec) for vec in basis)


# raw mode-engine coefficients reach the kernel as ``int`` while they are
# integral; the kernel is the boundary where they must become Fractions
int_rows = st.integers(1, 5).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(-6, 6), min_size=width, max_size=width),
        min_size=1, max_size=6,
    )
)


@settings(max_examples=60, deadline=None)
@given(int_rows, st.data())
def test_int_input_leaves_the_kernel_as_fractions(rows, data):
    nrows, width = len(rows), len(rows[0])
    int_rows = [sparse(row) for row in rows]
    assert all(type(c) is int for row in int_rows for c in row.values())
    # the constructor keeps the int rows as they are; the same matrix over Fractions
    direct = ExactMatrix(nrows, width, int_rows)
    fractions = ExactMatrix(nrows, width, [{j: Q(c) for j, c in row.items()} for row in int_rows])
    assert direct == fractions
    assert direct.data is int_rows
    assert _all_fractions(_stored(direct.matmul(ExactMatrix.identity(width))))
    rhs = data.draw(st.lists(st.integers(-6, 6), min_size=nrows, max_size=nrows))
    for mat in (direct, fractions):
        reduced, _ = mat.rref()
        assert _all_fractions(c for row in reduced.data for c in dense(row, width))
        solution = mat.solve(rhs)
        assert solution is None or _all_fractions(solution)
        assert all(_all_fractions(vec) for vec in mat.nullspace())
    # the kernel takes the int rows unconverted and hands back Fractions
    reduced, pivots = direct.rref()
    assert (reduced, pivots) == fractions.rref()
    assert _all_fractions(_stored(reduced))
    assert direct.rank() == fractions.rank() == len(pivots)
    solution = direct.solve(rhs)
    assert solution == fractions.solve(rhs)
    assert solution is None or _all_fractions(solution)
    basis = direct.nullspace()
    assert basis == fractions.nullspace()
    assert all(_all_fractions(vec) for vec in basis)
    span = RowSpan(width)
    for row in int_rows:
        assert _all_fractions(span.reduce(row).values())
        span.add(row)
        assert all(_all_fractions(kept.values()) for kept in span.rows())
    probe = data.draw(st.lists(st.integers(-6, 6), min_size=width, max_size=width))
    assert _all_fractions(span.reduce(sparse(probe)).values())


# the constructor stores every entry, a Fraction or an int, as the given
# object; eliminating converts the rest
mixed_scalars = st.one_of(st.integers(-6, 6), small_rationals)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(scalars=mixed_scalars, max_rows=5, max_cols=5), st.data())
def test_constructors_keep_given_fractions_and_convert_the_rest(matrix, data):
    rows, cols = matrix
    entries = {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if c}
    as_fractions = [[Q(c) for c in row] for row in rows]
    rhs = data.draw(st.lists(mixed_scalars, min_size=len(rows), max_size=len(rows)))
    mat = exact(rows, cols)
    stored = {(i, j): c for i, row in enumerate(mat.data) for j, c in row.items()}
    assert stored == {key: Q(c) for key, c in entries.items()}
    for key, c in entries.items():
        assert stored[key] is c
    reduced, pivots = mat.rref()
    assert ([dense(row, cols) for row in reduced.data], pivots) == oracle_rref(as_fractions, cols)
    assert _all_fractions(_stored(reduced))
    assert mat.solve(rhs) == oracle_solve(as_fractions, cols, [Q(b) for b in rhs])


# ----------------------------------------------------------------------
# arithmetic against dense Fraction products


@st.composite
def matrix_pairs(draw):
    """Two matrices of mixed int and Fraction entries with a shared inner size."""
    nrows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    a = [[draw(mixed_scalars) for _ in range(inner)] for _ in range(nrows)]
    b = [[draw(mixed_scalars) for _ in range(cols)] for _ in range(inner)]
    return a, b, inner, cols


@settings(max_examples=80, deadline=None)
@given(matrix_pairs(), st.data())
def test_matmul_and_matvec_match_dense_products(pair, data):
    a, b, inner, cols = pair
    left = exact(a, inner)
    product = left.matmul(exact(b, cols))
    assert (product.rows, product.cols) == (len(a), cols)
    assert [list(dense(row, cols)) for row in product.data] == dense_matmul(a, b, inner, cols)
    assert _all_fractions(_stored(product))
    vec = data.draw(st.lists(mixed_scalars, min_size=inner, max_size=inner))
    assert left.matvec(vec) == dense_matvec(a, vec)
    assert _all_fractions(left.matvec(vec))


@settings(max_examples=80, deadline=None)
@given(rational_matrices(scalars=mixed_scalars, max_rows=5, max_cols=5), st.data())
def test_equality_matches_dense_equality(matrix, data):
    rows, cols = matrix
    mat = exact(rows, cols)
    values = [[Q(c) for c in row] for row in rows]
    # the same values, built another way and with each row's columns reversed
    reversed_rows = [dict(reversed([(j, c) for j, c in enumerate(row) if c])) for row in rows]
    assert mat == ExactMatrix(len(rows), cols, reversed_rows)
    assert mat == mat.matmul(ExactMatrix.identity(cols))
    assert mat != ExactMatrix(len(rows), cols + 1)
    assert mat != ExactMatrix(len(rows) + 1, cols)
    if rows and cols:
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, cols - 1))
        changed = [list(row) for row in rows]
        changed[i][j] = data.draw(mixed_scalars)
        other = exact(changed, cols)
        assert (mat == other) == (values == [[Q(c) for c in row] for row in changed])
