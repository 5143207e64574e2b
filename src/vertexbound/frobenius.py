"""Local analysis of ``d/dz A = B(z) A`` at the regular singular point 0.

The residue matrix ``B_{-1}`` drives everything: its exact eigenvalues
are the indicial exponents, and truncated series solutions

    A(z) = z^rho sum_{k=0..depth} sum_{l=0..max_log} A_{k,l} z^k log^l z

are found as the nullspace of the exact linear system

    [(rho+k) I - B_{-1}] A_{k,l} = -(l+1) A_{k,l+1}
                                   + sum_{j>=0} B_j A_{k-1-j, l}.

Resonances (exponents differing by integers, repeated exponents) are
handled by the log tower rather than by special-casing; when the tower
is too short the solver refuses instead of returning a thin space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cofinite import log_power_bound
from .errors import (
    InputShapeError,
    InternalInvariantViolation,
    IrregularSingularity,
    LogDepthExceeded,
)
from .laurent import Q, QONE, QZERO, as_rational, format_rational
from .linalg import ExactMatrix, primitive_row
from .reduction import OdeSystem


# ----------------------------------------------------------------------
# exact characteristic polynomial and rational eigenvalues

def _char_poly(matrix: ExactMatrix) -> list:
    """Coefficients of det(tI - M), descending powers, leading 1.

    Faddeev-LeVerrier over exact rationals: M_1 = M, c_k = -tr(M M_{k-1}
    + c_{k-1} ...) accumulated stepwise; no determinants, no floats.
    """
    n = matrix.rows
    coeffs = [QONE]
    aux = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        aux = matrix.matmul(aux)
        trace = sum((aux.entry(i, i) for i in range(n)), QZERO)
        c = -trace / k
        coeffs.append(c)
        if k < n:
            aux = _add_scalar(aux, c)
    return coeffs


def _add_scalar(matrix: ExactMatrix, scalar: Q) -> ExactMatrix:
    rows = [{**row, i: row.get(i, QZERO) + scalar} for i, row in enumerate(matrix.data)]
    return ExactMatrix(matrix.rows, matrix.cols,
                       [{j: c for j, c in row.items() if c} for row in rows])


def _poly_eval(coeffs: list, x: Q) -> Q:
    acc = QZERO
    for c in coeffs:
        acc = acc * x + c
    return acc


def _synthetic_division(coeffs: list, root: Q) -> list:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(out[-1] * root + c)
    return out


def _poly_divmod(num: list, den: list):
    """Quotient and remainder of descending coefficient lists.

    ``den`` has a nonzero leading coefficient; the zero polynomial is
    the empty list.
    """
    rem = list(num)
    quot = []
    for i in range(len(num) - len(den) + 1):
        c = rem[i] / den[0]
        quot.append(c)
        if c:
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    rem = rem[len(quot):]
    while rem and not rem[0]:
        rem.pop(0)
    return quot, rem


def _derivative(coeffs: list) -> list:
    degree = len(coeffs) - 1
    return [c * (degree - k) for k, c in enumerate(coeffs[:-1])]


def _square_free_part(coeffs: list) -> list:
    """``f / gcd(f, f')``: the same roots, each simple."""
    a, b = coeffs, _derivative(coeffs)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return _poly_divmod(coeffs, a)[0]


def _primitive(coeffs: list) -> list:
    """The coprime integer polynomial that is a positive multiple of ``coeffs``."""
    row = primitive_row(dict(enumerate(coeffs)))
    return [row.get(i, 0) for i in range(len(coeffs))]


def _scaled_value(ints: list, x: Q) -> int:
    """``den(x)^deg * f(x)`` for integer ``f``: exact, with the sign of ``f(x)``."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    for c in ints:
        acc = acc * num + c * power
        power *= den
    return acc


def _sign_variations(chain: list, x: Q) -> int:
    signs = [v > 0 for v in (_scaled_value(p, x) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _distinct_rational_roots(coeffs: list) -> list:
    """Rational roots of a square-free polynomial, by Sturm bisection.

    Scaled to primitive integer coefficients with leading coefficient
    ``L``, a rational root ``p/q`` has ``q | L``, so two of them lie at
    least ``1/L^2`` apart.  Sturm's theorem counts the real roots in a
    half-open interval ``(lo, hi]``; bisecting from the Cauchy bound
    until an interval holds one root and is narrower than ``1/L^2``
    leaves one candidate, the best approximation of its midpoint with
    denominator at most ``L``, which is checked exactly.  The number of
    steps is polynomial in the degree and the coefficient sizes; no
    integer is ever factored.
    """
    if len(coeffs) < 2:
        return []
    chain = [coeffs, _derivative(coeffs)]
    while True:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    chain = [_primitive(p) for p in chain]
    lead = abs(chain[0][0])
    width = Q(1, lead * lead)
    bound = Q(2 + max(abs(c) for c in chain[0][1:]) // lead)
    found = []
    stack = [(-bound, bound, _sign_variations(chain, -bound), _sign_variations(chain, bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1 and hi - lo < width:
            candidate = ((lo + hi) / 2).limit_denominator(lead)
            if not _scaled_value(chain[0], candidate):
                found.append(candidate)
        elif v_lo > v_hi:
            mid = (lo + hi) / 2
            v_mid = _sign_variations(chain, mid)
            stack.append((lo, mid, v_lo, v_mid))
            stack.append((mid, hi, v_mid, v_hi))
    return found


def _rational_roots(coeffs: list):
    """All rational roots with multiplicity, plus the rootless remainder."""
    remaining = list(coeffs)
    roots = {}
    for root in _distinct_rational_roots(_square_free_part(coeffs)):
        while len(remaining) > 1 and not _poly_eval(remaining, root):
            roots[root] = roots.get(root, 0) + 1
            remaining = _synthetic_division(remaining, root)
    return roots, remaining


@dataclass
class IndicialData:
    """Exact eigen-data of the residue matrix ``B_{-1}``.

    ``exponents`` lists rational eigenvalues with algebraic multiplicity;
    anything irrational stays inside ``irreducible_factors`` as exact
    polynomial factors over Q rather than as decimal approximations.
    """

    dimension: int
    residue: ExactMatrix
    exponents: list
    irreducible_factors: list

    def multiplicity(self, value: Q) -> int:
        for root, mult in self.exponents:
            if root == value:
                return mult
        return 0

    def nilpotency_index(self, value: Q) -> int:
        """Least t with ker (B_{-1} - value)^t of full multiplicity."""
        mult = self.multiplicity(value)
        if mult == 0:
            return 0
        shifted = _add_scalar(self.residue, -value)
        power = shifted
        t = 1
        while self.dimension - power.rank() < mult:
            power = power.matmul(shifted)
            t += 1
            if t > self.dimension:
                raise InternalInvariantViolation("eigenspace never saturated")
        return t

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "exponents": [
                {"value": format_rational(root), "multiplicity": mult}
                for root, mult in self.exponents
            ],
            "irreducible_factors": [
                {"coefficients": [format_rational(c) for c in factor], "multiplicity": mult}
                for factor, mult in self.irreducible_factors
            ],
        }


def indicial_exponents(system: OdeSystem) -> IndicialData:
    """Eigenvalues of the residue matrix, exactly.

    Rational roots come from Sturm bisection on the exact characteristic
    polynomial, in time polynomial in its size; a rootless remainder is
    factored over Q and reported symbolically.
    """
    order = system.pole_order
    if order > 1:
        raise IrregularSingularity(
            f"pole of order {order} at z = 0; only simple poles admit indicial analysis"
        )
    n = system.dimension
    residue = system.series_blocks().get(-1, ExactMatrix(n, n))
    coeffs = _char_poly(residue)
    roots, remainder = _rational_roots(coeffs)
    factors = []
    if len(remainder) > 1:
        import sympy

        t = sympy.Symbol("t")
        poly = sum(sympy.Rational(c.numerator, c.denominator) * t ** e
                   for e, c in enumerate(reversed(remainder)))
        _, factor_list = sympy.factor_list(poly)
        for factor, mult in factor_list:
            fc = [Q(sympy.Rational(c).p, sympy.Rational(c).q)
                  for c in sympy.Poly(factor, t).all_coeffs()]
            factors.append((tuple(fc), int(mult)))
        factors.sort()
    return IndicialData(
        dimension=n,
        residue=residue,
        exponents=sorted(roots.items()),
        irreducible_factors=factors,
    )


# ----------------------------------------------------------------------
# truncated Frobenius solutions

@dataclass
class FrobeniusSolution:
    """One truncated series solution ``z^rho sum A_{k,l} z^k log^l z``."""

    exponent: Q
    depth: int
    max_log: int
    terms: dict

    def coefficient(self, k: int, log_power: int) -> tuple:
        return self.terms.get((k, log_power))

    def to_json(self) -> dict:
        return {
            "exponent": format_rational(self.exponent),
            "depth": self.depth,
            "terms": [
                {
                    "k": k,
                    "log_power": log_power,
                    "vector": [format_rational(c) for c in vec],
                }
                for (k, log_power), vec in sorted(self.terms.items())
            ],
        }


def _series_residuals(blocks: dict, n: int, sol: FrobeniusSolution):
    """Coefficients of d/dz A - B A per (k, log_power, component), from
    the matrix coefficients ``blocks`` of the n-by-n ``B``."""
    rho = sol.exponent
    bad = []
    for k in range(sol.depth + 1):
        for log_power in range(sol.max_log + 1):
            current = sol.terms.get((k, log_power), (QZERO,) * n)
            upper = sol.terms.get((k, log_power + 1), (QZERO,) * n)
            residual = [
                (rho + k) * current[i] + (log_power + 1) * upper[i]
                for i in range(n)
            ]
            for j, block in blocks.items():
                source = sol.terms.get((k - 1 - j, log_power))
                if source is None:
                    continue
                image = block.matvec(list(source))
                residual = [r - image[i] for i, r in enumerate(residual)]
            for i, r in enumerate(residual):
                if r:
                    bad.append((k, log_power, i, r))
    return bad


def frobenius_series(system: OdeSystem, exponent, depth: int,
                     max_log: int | None = None) -> list:
    """All truncated solutions with leading exponent in ``rho + Z>=0``.

    Returns the canonical nullspace basis of the exact truncated
    recursion, one :class:`FrobeniusSolution` per independent solution.
    The count must equal the total multiplicity of the eigenvalues
    ``rho + k`` (k = 0..depth) of the residue matrix: fewer means the
    log tower was capped too low (``LogDepthExceeded``), more would mean
    the recursion itself is broken.
    """
    if depth < 0:
        raise InputShapeError("depth must be non-negative")
    rho = as_rational(exponent, "the exponent")
    data = indicial_exponents(system)
    expected = sum(data.multiplicity(rho + k) for k in range(depth + 1))
    if expected == 0:
        raise InputShapeError(
            f"{format_rational(rho)} is not an indicial exponent modulo nonnegative integers"
        )
    if max_log is None:
        index = max(
            (data.nilpotency_index(rho + k) for k in range(depth + 1)),
            default=1,
        )
        index = max(index, 1)
        # the coarse log bound for a single tower of this nilpotency order
        max_log = log_power_bound(index, index, index).coarse_bound
    n = system.dimension
    blocks = system.series_blocks()
    width = n * (depth + 1) * (max_log + 1)

    def var(k: int, log_power: int, comp: int) -> int:
        return (k * (max_log + 1) + log_power) * n + comp

    data = []
    for k in range(depth + 1):
        for log_power in range(max_log + 1):
            # (rho+k) A_{k,l} + (l+1) A_{k,l+1} - B_{-1} A_{k,l}
            #   - sum_{j>=0} B_j A_{k-1-j,l} = 0, one row per component
            rows = [{var(k, log_power, i): rho + k} for i in range(n)]
            if log_power < max_log:
                for i, row in enumerate(rows):
                    row[var(k, log_power + 1, i)] = Q(log_power + 1)
            for j, block in blocks.items():
                source_k = k - 1 - j if j >= 0 else k
                if source_k < 0 or source_k > depth:
                    continue
                for row, block_row in zip(rows, block.data):
                    for col, value in block_row.items():
                        key = var(source_k, log_power, col)
                        row[key] = row.get(key, QZERO) - value
            data += [{j: c for j, c in row.items() if c} for row in rows]
    matrix = ExactMatrix(len(data), width, data)
    solutions = []
    for vec in matrix.nullspace():
        terms = {}
        for k in range(depth + 1):
            for log_power in range(max_log + 1):
                coeffs = tuple(vec[var(k, log_power, i)] for i in range(n))
                if any(coeffs):
                    terms[(k, log_power)] = coeffs
        # normalize the leading coefficient (lowest power of z first) to 1
        lead = next(c for key in sorted(terms) for c in terms[key] if c)
        if lead != 1:
            terms = {
                key: tuple(c / lead for c in coeffs)
                for key, coeffs in terms.items()
            }
        solutions.append(FrobeniusSolution(
            exponent=rho, depth=depth, max_log=max_log, terms=terms,
        ))
    if len(solutions) < expected:
        raise LogDepthExceeded(
            f"found {len(solutions)} solutions but the residue matrix promises "
            f"{expected}; raise max_log above {max_log}"
        )
    if len(solutions) > expected:
        raise InternalInvariantViolation(
            f"{len(solutions)} solutions exceed the multiplicity count {expected}"
        )
    for sol in solutions:
        bad = _series_residuals(blocks, n, sol)
        if bad:
            raise InternalInvariantViolation(
                f"substitution check failed at (k, log, comp, value) = {bad[0]}"
            )
    return solutions
