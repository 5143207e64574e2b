"""Exact linear algebra over the rationals.

One kernel does all the elimination: :class:`RowSpan` keeps a row space
in reduced echelon form as rows stream in, and :class:`ExactMatrix`
reduces a matrix by adding its rows, in order, to one ``RowSpan``.  Rank,
reduced row echelon form, nullspace bases and solutions are reproducible
because the reduced row echelon form of a matrix is unique, whatever the
order of elimination.

Both classes take the same rows: one sparse ``{col: value}`` dict of
nonzero entries per row.  The span stores primitive integer rows and
clears a column with one fraction-free step, :func:`_clear`.  Entries
become ``Fraction`` values only on the way out, where a finished row is
divided by its pivot or a residual by its denominator.  Dense tuples
are only vectors: the arguments of ``matvec`` and ``solve`` and the
vectors they and ``nullspace`` return.  Both classes accept ``int``
entries (raw mode-engine coefficients), which an ``ExactMatrix`` keeps as
given until it is eliminated or multiplied, hand out only ``Fraction``
values, and refuse a column outside the width or any other value (a
``float``, a string) with :class:`InputShapeError` rather than reading it
as the rational it happens to round to.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InputShapeError
from .laurent import Q, QONE, QZERO, as_rational


class ExactMatrix:
    """A rows-by-cols matrix of exact rationals.

    ``data`` holds one sparse ``{col: value}`` dict of nonzero entries per
    row; it is read, never changed.  The constructor takes those rows as
    they are, ``int`` values unconverted, and refuses any other value or
    a column outside ``range(cols)``.  Every matrix a method hands out
    holds ``Fraction`` values only.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        if rows < 0 or cols < 0:
            raise InputShapeError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self.data = [{} for _ in range(rows)] if data is None else data
        if len(self.data) != rows:
            raise InputShapeError("row count does not match the given rows")
        if outside := set().union(*self.data).difference(range(cols)):
            raise InputShapeError(f"columns {sorted(outside, key=repr)} outside {rows}x{cols}")
        for row in self.data:
            for c in row.values():
                if type(c) is not Q and type(c) is not int:
                    as_rational(c, "a matrix entry")

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def _checked(cls, rows: int, cols: int, data: list) -> "ExactMatrix":
        """A matrix over row dicts whose columns and values are already known good."""
        matrix = object.__new__(cls)
        matrix.rows, matrix.cols, matrix.data = rows, cols, data
        return matrix

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [{i: QONE} for i in range(n)])

    # ------------------------------------------------------------------
    # access

    def entry(self, i: int, j: int) -> Q:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InputShapeError(f"index {(i, j)} outside {self.rows}x{self.cols}")
        return self.data[i].get(j, QZERO)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    # ------------------------------------------------------------------
    # arithmetic

    def matvec(self, vec) -> tuple:
        vec = [c if type(c) is Q else as_rational(c, "a vector entry") for c in vec]
        if len(vec) != self.cols:
            raise InputShapeError("vector length does not match column count")
        return tuple(sum((c * vec[j] for j, c in row.items() if vec[j]), QZERO)
                     for row in self.data)

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise InputShapeError("inner dimensions do not match")
        out = []
        for row in self.data:
            acc = {}
            for k, a in row.items():
                for j, b in other.data[k].items():
                    acc[j] = acc.get(j, QZERO) + a * b
            out.append({j: c for j, c in acc.items() if c})
        return ExactMatrix._checked(self.rows, other.cols, out)

    # ------------------------------------------------------------------
    # reduction

    def rref(self):
        """Reduced row echelon form.

        Returns ``(matrix, pivots)``: the nonzero reduced rows, ascending
        by pivot column and followed by empty rows up to ``self.rows``,
        and ``pivots`` as ``[(row, col), ...]`` in the same order.  The
        reduced row echelon form of a matrix is unique, so the output is
        canonical however the rows are eliminated.
        """
        span = _span_of(self.data, self.cols)
        reduced = span.rows() + [{} for _ in range(self.rows - span.rank)]
        pivots = list(enumerate(span.pivot_columns()))
        return ExactMatrix._checked(self.rows, self.cols, reduced), pivots

    def rank(self) -> int:
        return _span_of(self.data, self.cols).rank

    def nullspace(self) -> list:
        """Canonical basis of the right kernel.

        One vector per free column, in ascending column order; the free
        coordinate is 1 and earlier free coordinates are 0.
        """
        reduced, pivots = self.rref()
        pivot_cols = [c for _, c in pivots]
        pivot_set = set(pivot_cols)
        free_cols = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for free in free_cols:
            vec = [QZERO] * self.cols
            vec[free] = QONE
            for row_index, col in pivots:
                vec[col] = -reduced.entry(row_index, free)
            basis.append(tuple(vec))
        return basis

    def solve(self, rhs):
        """One exact solution of ``A x = rhs``, or None if inconsistent.

        Free variables are set to zero, so the answer is canonical.
        """
        rhs = [c if type(c) is Q else as_rational(c, "a right-hand side entry") for c in rhs]
        if len(rhs) != self.rows:
            raise InputShapeError("right-hand side length does not match row count")
        augmented = [{**row, self.cols: b} if b else row for row, b in zip(self.data, rhs)]
        span = _span_of(augmented, self.cols + 1)
        solution = [QZERO] * self.cols
        for col, row in zip(span.pivot_columns(), span.rows()):
            if col == self.cols:
                return None
            solution[col] = row.get(self.cols, QZERO)
        return tuple(solution)


def _span_of(rows: list, width: int) -> "RowSpan":
    """The :class:`RowSpan` of ``rows``, each added in order."""
    span = RowSpan(width)
    for row in rows:
        span.add(row)
    return span


def _clear(target: dict, f: int, pivot: dict, p: int) -> tuple:
    """``((p/g) target - (f/g) pivot, p/g)``, g = gcd(p, f), for the entries
    f of the integer row ``target`` and p of ``pivot`` in one column; when
    p/g is 1, ``target`` itself is updated."""
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        target = {j: v * a for j, v in target.items()}
    for j, c in pivot.items():
        s = target.get(j, 0) - b * c
        if s:
            target[j] = s
        else:
            del target[j]
    return target, a


def _integer_row(row: dict) -> tuple:
    """A sparse rational row as ``(nums, den)``: ``int`` numerators over one
    denominator, zero entries dropped; a value that is not an ``int`` or a
    ``Fraction`` is refused."""
    if all(type(c) is int for c in row.values()):
        return {j: c for j, c in row.items() if c}, 1
    for c in row.values():
        if type(c) is not Q and type(c) is not int:
            as_rational(c, "a span entry")
    den = lcm(*(c.denominator for c in row.values()))
    return {j: c.numerator * (den // c.denominator) for j, c in row.items() if c}, den


def primitive_row(row: dict) -> dict:
    """A sparse rational row as coprime integers, sign and support kept.

    The row is multiplied by the lcm of its denominators and divided by
    the gcd of the results; zero entries are dropped.  An all-``int`` row,
    as ``compare`` and ``join`` hand over, only loses its content.
    """
    return _without_content(_integer_row(row)[0])


def _without_content(row: dict) -> dict:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


class RowSpan:
    """An incrementally maintained row space in reduced echelon form.

    The one elimination kernel: spanning-set and complement computations
    stream rows into it and query membership and rank as they go, and
    every :class:`ExactMatrix` reduction is one span fed all of the
    matrix's rows.  It takes the rows an :class:`ExactMatrix` stores,
    ``{col: value}`` dicts, and refuses a column outside ``range(width)``
    or a value that is not an ``int`` or a ``Fraction``.  It stores
    primitive integer rows, each zero at the other rows' pivot columns.
    A row entering the span is cleared against the stored rows and then
    clears its own pivot column from them, each with :func:`_clear` and
    removal of the row's content: fraction-free elimination in the sense
    of Bareiss (Math. Comp. 22, 1968), with content removal in place of
    his exact divisions, so entries stay as small as the row space
    allows.  ``rows`` and ``reduce`` hand out ``Fraction`` values.
    """

    def __init__(self, width: int):
        self.width = width
        self._columns = frozenset(range(width))
        self._rows = []  # (pivot_col, primitive int row dict), by pivot column

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivot_columns(self) -> tuple:
        """Leading columns of the reduced rows, ascending."""
        return tuple(col for col, _ in self._rows)

    def _residual(self, row: dict) -> tuple:
        """``row`` eliminated against the span as ``(nums, den)``, integers
        over one denominator."""
        if not self._columns.issuperset(row):
            raise InputShapeError(f"a row has columns outside range({self.width})")
        nums, den = _integer_row(row)
        for pivot_col, pivot in self._rows:
            f = nums.get(pivot_col)
            if f:
                nums, a = _clear(nums, f, pivot, pivot[pivot_col])
                den *= a
        return nums, den

    def reduce(self, row: dict) -> dict:
        """Residual of the row ``row`` after elimination against the span."""
        nums, den = self._residual(row)
        return {j: Q(v, den) for j, v in nums.items()}

    def contains(self, row: dict) -> bool:
        return not self._residual(row)[0]

    def add(self, row: dict) -> bool:
        """Add a row; returns True when it enlarged the span."""
        new = _without_content(self._residual(row)[0])
        if not new:
            return False
        pivot_col = min(new)
        p = new[pivot_col]
        for i, (col, existing) in enumerate(self._rows):
            f = existing.get(pivot_col)
            if f:
                self._rows[i] = col, _without_content(_clear(existing, f, new, p)[0])
        self._rows.append((pivot_col, new))
        self._rows.sort(key=lambda item: item[0])
        return True

    def row(self, i: int) -> dict:
        """The reduced row with the i-th pivot column, as ``{col: Fraction}``."""
        col, row = self._rows[i]
        p = row[col]
        return {j: Q(v, p) for j, v in row.items()}

    def rows(self) -> list:
        """The reduced rows as sparse ``{col: value}`` dicts, by pivot column.

        They are new dicts, so a caller may add to the span while it walks them.
        """
        return [self.row(i) for i in range(self.rank)]
