"""Tests for the local solver at the regular singular point."""

import json
import random
import signal
import textwrap
from contextlib import contextmanager
from fractions import Fraction as Q

import pytest
import sympy

from bruteforce import fock_top_correlator, sparse
from vertexbound.cli import main
from vertexbound.cofinite import choose_complement
from vertexbound.errors import (
    InputShapeError,
    IrregularSingularity,
    LogDepthExceeded,
)
from vertexbound.frobenius import (
    FrobeniusSolution,
    _char_poly,
    _rational_roots,
    frobenius_series,
    indicial_exponents,
)
from vertexbound.laurent import LaurentPoly
from vertexbound.linalg import ExactMatrix
from vertexbound.reduction import OdeSystem, assemble_ode
from vertexbound.voa import (
    DirectSumModule,
    FockModule,
    HeisenbergVoa,
    QuotientModule,
    VermaModule,
    VirasoroVoa,
    level2_singular_vector,
)


def manual_system(dimension, entries):
    entries = {key: poly for key, poly in entries.items() if not poly.is_zero()}
    return OdeSystem(
        left="manual", right="manual", dimension=dimension,
        labels=[(i, 0) for i in range(dimension)], entries=entries,
    )


def fock_system(lam=1, mu=2, depth=6):
    voa = HeisenbergVoa(depth)
    lbasis = choose_complement(FockModule(voa, Q(lam)), depth - 1)
    rbasis = choose_complement(FockModule(voa, Q(mu)), depth - 1)
    return assemble_ode(lbasis, rbasis)


@contextmanager
def time_limit(seconds):
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# pole order and characteristic data

def test_pole_orders():
    assert fock_system().pole_order == 1
    assert manual_system(1, {}).pole_order == 0
    irregular = manual_system(1, {(0, 0): LaurentPoly({-2: Q(1), -1: Q(1)})})
    assert irregular.pole_order == 2
    with pytest.raises(IrregularSingularity):
        indicial_exponents(irregular)


def test_char_poly_matches_sympy():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        rows = [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(n)] for i in range(n)]
        matrix = ExactMatrix(n, n, [sparse(row) for row in rows])
        coeffs = _char_poly(matrix)
        sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(
            rows[i][j].numerator, rows[i][j].denominator))
        expected = sympy.Poly(sm.charpoly().as_expr(), sm.charpoly().gen).all_coeffs()
        assert [sympy.Rational(c.numerator, c.denominator) for c in coeffs] == expected


def test_rational_root_extraction():
    # (t - 2)(t + 2)
    roots, remainder = _rational_roots([Q(1), Q(0), Q(-4)])
    assert roots == {Q(2): 1, Q(-2): 1}
    assert remainder == [Q(1)]
    # (t - 1/2)^2 (t^2 + 1)
    poly = [Q(1), Q(-1), Q(5, 4), Q(-1), Q(1, 4)]
    roots, remainder = _rational_roots(poly)
    assert roots == {Q(1, 2): 2}
    assert remainder == [Q(1), Q(0), Q(1)]
    # zero roots strip cleanly
    roots, remainder = _rational_roots([Q(1), Q(-1), Q(0), Q(0)])
    assert roots == {Q(0): 2, Q(1): 1}


def test_rational_roots_match_sympy_on_random_products():
    # products of linear factors with large numerators and denominators
    # and of irreducible quadratics; sympy's factorization is the oracle
    rng = random.Random(11)
    t = sympy.Symbol("t")
    for _ in range(40):
        poly = sympy.Integer(1)
        for _ in range(rng.randint(0, 4)):
            poly *= t - sympy.Rational(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 6))
        for _ in range(rng.randint(0, 2)):
            poly *= t ** 2 + rng.randint(-10 ** 6, 10 ** 6) * t + rng.randint(1, 10 ** 9) * 7 + 3
        coeffs = [Q(int(c.p), int(c.q)) for c in sympy.Poly(poly, t).all_coeffs()]
        expected = {}
        for factor, mult in sympy.factor_list(poly)[1]:
            if sympy.Poly(factor, t).degree() == 1:
                a, b = sympy.Poly(factor, t).all_coeffs()
                root = -b / a
                expected[Q(int(root.p), int(root.q))] = int(mult)
        with time_limit(5):
            roots, remainder = _rational_roots(coeffs)
        assert roots == expected
        assert len(remainder) - 1 == len(coeffs) - 1 - sum(expected.values())


def test_indicial_exponents_fock():
    data = indicial_exponents(fock_system())
    assert data.dimension == 1
    assert data.exponents == [(Q(2), 1)]  # the fusion exponent lam*mu
    assert data.irreducible_factors == []
    assert data.multiplicity(Q(2)) == 1 and data.multiplicity(Q(1)) == 0


def test_indicial_exponents_zero_system():
    data = indicial_exponents(manual_system(1, {}))
    assert data.exponents == [(Q(0), 1)]


def test_indicial_exponents_direct_sum():
    voa = HeisenbergVoa(6)
    total = DirectSumModule([FockModule(voa, 1), FockModule(voa, -1)])
    lbasis = choose_complement(total, 5)
    rbasis = choose_complement(FockModule(voa, 2), 5)
    data = indicial_exponents(assemble_ode(lbasis, rbasis))
    assert data.exponents == [(Q(-2), 1), (Q(2), 1)]


def test_indicial_irrational_reported_symbolically():
    system = manual_system(2, {
        (0, 1): LaurentPoly.monomial(-1, Q(2)),
        (1, 0): LaurentPoly.monomial(-1, Q(1)),
    })
    data = indicial_exponents(system)
    assert data.exponents == []
    assert data.irreducible_factors == [((Q(1), Q(0), Q(-2)), 1)]


def test_quotient_square_system_has_a_double_pole():
    # correlators of descendants sit at shifted powers, so the assembled
    # matrix picks up z^{-2}; the solver refuses it honestly
    voa = VirasoroVoa(Q(1, 2), 8)
    verma = VermaModule(voa, Q(1, 2))
    quot = QuotientModule(verma, [level2_singular_vector(Q(1, 2), Q(1, 2))])
    basis = choose_complement(quot, 4)
    system = assemble_ode(basis, basis)
    assert system.pole_order == 3
    with pytest.raises(IrregularSingularity):
        indicial_exponents(system)


# ----------------------------------------------------------------------
# series solutions

def test_frobenius_fock_matches_oracle():
    system = fock_system()
    solutions = frobenius_series(system, Q(2), 8)
    assert len(solutions) == 1
    sol = solutions[0]
    # the unique solution is exactly z^2 with no corrections, matching
    # the top matrix element <top|Y(|1>,z)|2> = z^2 after normalization
    assert sol.terms == {(0, 0): (Q(1),)}
    oracle = fock_top_correlator({(): Q(1)}, Q(1), {(): Q(1)}, Q(2))
    assert oracle == {0: Q(1)}
    lead = sol.terms[(0, 0)][0]
    for k in range(1, 9):
        assert sol.coefficient(k, 0) is None
        assert oracle.get(k, Q(0)) / lead == Q(0)


def test_frobenius_constant_solution():
    solutions = frobenius_series(manual_system(1, {}), Q(0), 3)
    assert len(solutions) == 1
    assert solutions[0].terms == {(0, 0): (Q(1),)}


def test_frobenius_exponential_recursion():
    # d/dz A = (1/z + 1) A has A = z e^z; coefficients 1/k!
    system = manual_system(1, {(0, 0): LaurentPoly({-1: Q(1), 0: Q(1)})})
    (sol,) = frobenius_series(system, Q(1), 4)
    assert sol.terms == {
        (0, 0): (Q(1),),
        (1, 0): (Q(1),),
        (2, 0): (Q(1, 2),),
        (3, 0): (Q(1, 6),),
        (4, 0): (Q(1, 24),),
    }


def test_frobenius_nilpotent_log_pair():
    # B = [[0, 1/z],[0, 0]]: solutions (1,0) and (log z, 1)
    system = manual_system(2, {(0, 1): LaurentPoly.monomial(-1, Q(1))})
    solutions = frobenius_series(system, Q(0), 3, max_log=1)
    assert len(solutions) == 2
    plain = [s for s in solutions if all(l == 0 for _, l in s.terms)]
    logged = [s for s in solutions if any(l > 0 for _, l in s.terms)]
    assert len(plain) == 1 and len(logged) == 1
    assert plain[0].terms == {(0, 0): (Q(1), Q(0))}
    assert logged[0].terms == {(0, 0): (Q(0), Q(1)), (0, 1): (Q(1), Q(0))}


def test_frobenius_log_tower_too_short():
    system = manual_system(2, {(0, 1): LaurentPoly.monomial(-1, Q(1))})
    with pytest.raises(LogDepthExceeded):
        frobenius_series(system, Q(0), 3, max_log=0)


def test_frobenius_default_log_bound_is_enough():
    system = manual_system(2, {(0, 1): LaurentPoly.monomial(-1, Q(1))})
    solutions = frobenius_series(system, Q(0), 2)
    assert len(solutions) == 2


def test_frobenius_resonant_shift_produces_log():
    # A_1' = 0, A_2' = A_2/z + A_1: solutions (1, z log z) and (0, z)
    system = manual_system(2, {
        (1, 1): LaurentPoly.monomial(-1, Q(1)),
        (1, 0): LaurentPoly.monomial(0, Q(1)),
    })
    solutions = frobenius_series(system, Q(0), 2, max_log=1)
    assert len(solutions) == 2
    by_shape = {frozenset(s.terms): s for s in solutions}
    log_key = frozenset({(0, 0), (1, 1)})
    plain_key = frozenset({(1, 0)})
    assert log_key in by_shape and plain_key in by_shape
    assert by_shape[log_key].terms == {(0, 0): (Q(1), Q(0)), (1, 1): (Q(0), Q(1))}
    assert by_shape[plain_key].terms == {(1, 0): (Q(0), Q(1))}
    with pytest.raises(LogDepthExceeded):
        frobenius_series(system, Q(0), 2, max_log=0)


def test_frobenius_integer_separated_exponents():
    # B = diag(0, 1/z): exponents 0 and 1; the rho=0 family holds both
    system = manual_system(2, {(1, 1): LaurentPoly.monomial(-1, Q(1))})
    solutions = frobenius_series(system, Q(0), 2)
    shapes = sorted(sorted(s.terms) for s in solutions)
    assert shapes == [[(0, 0)], [(1, 0)]]
    upper = frobenius_series(system, Q(1), 2)
    assert len(upper) == 1
    assert upper[0].terms == {(0, 0): (Q(0), Q(1))}


def test_frobenius_rejects_non_exponent():
    with pytest.raises(InputShapeError):
        frobenius_series(fock_system(), Q(1, 3), 4)


def test_solution_space_dim():
    assert fock_system().dimension == 1
    assert manual_system(4, {}).dimension == 4


def test_solution_json_schema():
    (sol,) = frobenius_series(fock_system(), Q(2), 3)
    payload = sol.to_json()
    assert payload["exponent"] == "2"
    assert payload["depth"] == 3
    assert payload["terms"] == [{"k": 0, "log_power": 0, "vector": ["1"]}]


# ----------------------------------------------------------------------
# huge exponents: root finding is bounded in time

HUGE_LAM, HUGE_MU = 1000000007, 1000000009


def test_huge_charge_exponent_is_found_in_bounded_time():
    # residue lam*mu ~ 10^18: trial division up to its square root hung
    with time_limit(5):
        data = indicial_exponents(fock_system(HUGE_LAM, HUGE_MU, depth=5))
    assert data.exponents == [(Q(HUGE_LAM * HUGE_MU), 1)]
    assert data.irreducible_factors == []


def test_huge_charge_frobenius_cli_in_bounded_time(tmp_path, capsys):
    config = tmp_path / "huge.ini"
    config.write_text(textwrap.dedent(f"""
        [run]
        depth = 4

        [voa]
        kind = heisenberg

        [module.f1]
        kind = fock
        charge = {HUGE_LAM}

        [module.f2]
        kind = fock
        charge = {HUGE_MU}

        [command]
        left = f1
        right = f2
    """), encoding="utf-8")
    with time_limit(5):
        code = main(["frobenius", "--config", str(config)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    exponent = str(HUGE_LAM * HUGE_MU)
    assert exponent == "1000000016000000063"
    assert payload["indicial"]["exponents"] == [{"value": exponent, "multiplicity": 1}]
    assert payload["series"][0]["solutions"][0]["exponent"] == exponent
