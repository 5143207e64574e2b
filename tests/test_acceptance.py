"""End-to-end acceptance checks, one per published claim of the package.

Each test prints a single ``criterion N (...): PASS/FAIL`` line on the
terminal (bypassing capture) so a full run yields a compact scoreboard.
The checks are oracle-based: engine results are compared against
independently coded brute-force computations (tests/bruteforce.py,
sympy ranks, closed-form matrix elements), never against the engine
itself.
"""

import json
import random
import textwrap
import time
from contextlib import contextmanager
from fractions import Fraction as Q

import pytest

from bruteforce import apply_witness, correlator, fock_top_correlator, surjective, sympy_rank, witness_holds
from vertexbound.cli import main as cli_main
from vertexbound.cofinite import (
    build_cm,
    choose_complement,
    cm_quotient_dims,
    log_power_bound,
    log_recursion_state,
)
from vertexbound.frobenius import frobenius_series, indicial_exponents
from vertexbound.fusion import compare, heisenberg_intertwiner, join
from vertexbound.laurent import LaurentPoly
from vertexbound.linalg import ExactMatrix
from vertexbound.modes import GradedVector, basis_vectors, mode_action, run_identity_suite
from vertexbound.reduction import assemble_ode, fusion_bound, reduce
from vertexbound.voa import (
    FockModule,
    HeisenbergVoa,
    QuotientModule,
    VermaModule,
    VirasoroVoa,
    level2_singular_vector,
)


@pytest.fixture
def announce(capsys):
    def _print(line):
        with capsys.disabled():
            print(line)
    return _print


@contextmanager
def criterion(announce, number, title):
    ok = False
    try:
        yield
        ok = True
    finally:
        announce(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")


# ----------------------------------------------------------------------
# 1. the commutator and iterate identities across realizations

def test_criterion_1_identity_suite(announce):
    with criterion(announce, 1, "identity suite"):
        started = time.monotonic()
        for module in (
            HeisenbergVoa(depth=6),
            VirasoroVoa(Q(1, 2), depth=6),
            VirasoroVoa(Q(-22, 5), depth=6),
        ):
            report = run_identity_suite(module)
            assert report.failures == [], (module.describe(), report.failures[:5])
            assert report.all_passed
            assert report.commutator_checked > 0
            assert report.associativity_checked > 0
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"identity suites took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 2. C_1 quotient dimensions against a brute-force span oracle

def brute_quotient_dims(module, depth):
    """dim M_(t) - rank span{v_{-1} u} by direct enumeration.

    Rows come from single mode actions over all homogeneous (v, u)
    pairs; the rank is taken by sympy, so no package linear algebra is
    involved in the reference value.
    """
    voa = module.voa
    out = []
    for t in range(depth + 1):
        rows = []
        for lv in range(1, t + 1):
            for v in basis_vectors(voa, lv):
                for u in basis_vectors(module, t - lv):
                    image = mode_action(v, -1, u)
                    assert not image.truncated
                    row = image.coords_at(t)
                    if any(row):
                        rows.append(row)
        out.append(module.dim(t) - sympy_rank(rows))
    return out


def test_criterion_2_c1_quotients(announce):
    with criterion(announce, 2, "C1 quotients"):
        cases = []
        for c in (Q(1, 2), Q(-22, 5)):
            cases.append((VirasoroVoa(c, depth=6), [1, 0, 0, 0, 0]))
        cases.append((FockModule(HeisenbergVoa(5), Q(1)), [1, 0, 0, 0, 0]))
        vir = VirasoroVoa(Q(1, 2), depth=6)
        cases.append((VermaModule(vir, Q(1, 16)), [1, 1, 1, 1, 1]))
        cases.append((
            QuotientModule(VermaModule(vir, Q(1, 2)),
                           [level2_singular_vector(Q(1, 2), Q(1, 2))]),
            [1, 1, 0, 0, 0],
        ))
        for module, expected in cases:
            got = cm_quotient_dims(module, 1, 4)
            assert got == expected, (module.describe(), got)
            assert brute_quotient_dims(module, 4) == expected, module.describe()


# ----------------------------------------------------------------------
# 3. the rewrite identity instantiated on the free-boson intertwiner

def c1_perp_functionals(module, depth):
    """Per-level dual functionals vanishing on C_1 within the window."""
    cm = build_cm(module, 1, depth)
    out = []
    for t in range(depth + 1):
        rows = cm.levels[t].span.rows()
        dim_t = module.dim(t)
        if not rows:
            for i in range(dim_t):
                unit = [Q(0)] * dim_t
                unit[i] = Q(1)
                out.append((t, tuple(unit)))
            continue
        for vec in ExactMatrix(len(rows), dim_t, rows).nullspace():
            out.append((t, tuple(vec)))
    return out


def test_criterion_3_reduction_soundness(announce):
    with criterion(announce, 3, "reduction soundness"):
        depth = 5
        voa = HeisenbergVoa(depth + 1)
        left = FockModule(voa, Q(1))
        right = FockModule(voa, Q(2))
        target = FockModule(voa, Q(3))
        left_basis = choose_complement(left, depth)
        right_basis = choose_complement(right, depth)
        datum = heisenberg_intertwiner(Q(1), Q(2), depth, voa=voa)
        functionals = c1_perp_functionals(target, depth)
        assert functionals, "no C1-perp functionals found"
        comp_left = [key for _, key in left_basis.labels]
        comp_right = [key for _, key in right_basis.labels]
        checked = 0
        for lp in range(0, depth + 1):
            for lq in range(0, depth + 1 - lp):
                for p_key in left.keys(lp):
                    for q_key in right.keys(lq):
                        comb = reduce(
                            GradedVector.basis_vector(left, p_key),
                            GradedVector.basis_vector(right, q_key),
                            left_basis, right_basis,
                        )
                        for t, coords in functionals:
                            theta = {t: coords}
                            lhs = LaurentPoly(correlator(datum, theta, p_key, q_key))
                            rhs = LaurentPoly({})
                            for (i, j), poly in comb.items():
                                ref = LaurentPoly(correlator(
                                    datum, theta, comp_left[i], comp_right[j]))
                                rhs = rhs + poly * ref
                            assert lhs == rhs, (p_key, q_key, t)
                            checked += 1
        assert checked >= 74


# ----------------------------------------------------------------------
# 4. the induced ODE, its exponent, and the series solution

def test_criterion_4_ode_and_exponent(announce):
    with criterion(announce, 4, "ODE and exponent"):
        voa = HeisenbergVoa(3)
        left_basis = choose_complement(FockModule(voa, Q(1)), 2)
        right_basis = choose_complement(FockModule(voa, Q(2)), 2)
        system = assemble_ode(left_basis, right_basis)
        assert system.dimension == 1
        assert {k: p.terms for k, p in system.entries.items()} == \
            {(0, 0): {-1: Q(2)}}
        data = indicial_exponents(system)
        assert data.exponents == [(Q(2), 1)]  # = lam * mu
        solutions = frobenius_series(system, Q(2), 8)
        assert len(solutions) == 1
        sol = solutions[0]
        oracle = fock_top_correlator({(): Q(1)}, Q(1), {(): Q(1)}, Q(2))
        lead = sol.terms[(0, 0)][0]
        assert lead
        for k in range(0, 9):
            vec = sol.terms.get((k, 0), (Q(0),))
            assert vec[0] / lead == oracle.get(k, Q(0)) / oracle[0], k


# ----------------------------------------------------------------------
# 5. quotient of every realized target stays under the fusion bound

FUSION_PAIRS = [
    (Q(1), Q(1)), (Q(1), Q(2)), (Q(2), Q(3)), (Q(1, 2), Q(1, 2)),
    (Q(1, 2), Q(3, 2)), (Q(-1), Q(2)), (Q(-1, 2), Q(-3, 2)), (Q(3), Q(1)),
    (Q(5, 2), Q(1, 2)), (Q(2), Q(2)), (Q(1), Q(-3)), (Q(4), Q(3)),
]


def test_criterion_5_fusion_bound(announce):
    with criterion(announce, 5, "fusion bound"):
        assert len(FUSION_PAIRS) >= 10
        rng = random.Random(53)
        for lam, mu in FUSION_PAIRS:
            voa = HeisenbergVoa(4)
            base = heisenberg_intertwiner(lam, mu, 4, voa=voa)
            scale_a = Q(rng.randint(1, 6), rng.randint(1, 4))
            scale_b = Q(-rng.randint(1, 6), rng.randint(1, 4))
            joined2 = join(base, base.scale(scale_a))
            joined3 = join(joined2, base.scale(scale_b))
            bound = fusion_bound(
                choose_complement(base.source_left, 3),
                choose_complement(base.source_right, 3),
            ).value
            for datum in (base, joined2, joined3):
                assert surjective(datum)
                dims = cm_quotient_dims(datum.target, 1, 3)
                assert sum(dims) <= bound, (lam, mu, dims, bound)


# ----------------------------------------------------------------------
# 6. directed-set laws over randomized scalar twists

def test_criterion_6_directed_set_laws(announce):
    with criterion(announce, 6, "directed-set laws"):
        rng = random.Random(20260825)
        pool = [(Q(1), Q(2)), (Q(1, 2), Q(3, 2)), (Q(-1), Q(3)),
                (Q(2), Q(2)), (Q(1, 2), Q(-5, 2))]
        bases = {}
        cases = 0
        while cases < 100:
            lam, mu = pool[rng.randrange(len(pool))]
            if (lam, mu) not in bases:
                voa = HeisenbergVoa(3)
                bases[(lam, mu)] = heisenberg_intertwiner(lam, mu, 3, voa=voa)
            base = bases[(lam, mu)]
            c1 = Q(rng.choice([n for n in range(-6, 7) if n]), rng.randint(1, 4))
            c2 = Q(rng.choice([n for n in range(-6, 7) if n]), rng.randint(1, 4))
            first = base.scale(c1)
            second = base.scale(c2)
            joined = join(first, second)
            # join is an upper bound for both factors
            up1 = compare(first, joined)
            up2 = compare(second, joined)
            assert up1.relation in ("less_eq", "equivalent")
            assert up2.relation in ("less_eq", "equivalent")
            assert up1.witness is not None and witness_holds(up1.witness)
            assert up2.witness is not None and witness_holds(up2.witness)
            # join with oneself stays equivalent
            self_joined = join(first, first)
            idem = compare(self_joined, first)
            assert idem.relation == "equivalent"
            assert witness_holds(idem.witness) and witness_holds(idem.reverse_witness)
            # the order witness is the unique module map; for scalar
            # twists of one datum it must be exactly (c1/c2) * identity
            rel = compare(first, second)
            assert rel.relation == "equivalent"
            assert witness_holds(rel.witness) and witness_holds(rel.reverse_witness)
            top = GradedVector.basis_vector(base.target, ())
            assert apply_witness(rel.witness, top) == top.scale(c1 / c2)
            assert apply_witness(rel.reverse_witness, top) == top.scale(c2 / c1)
            cases += 1
        assert cases >= 100


# ----------------------------------------------------------------------
# 7. vanishing of log-mode coefficients at both predicted cutoffs

def test_criterion_7_log_bound(announce):
    with criterion(announce, 7, "log bound"):
        for n_u in (1, 2, 3):
            for n_w in (1, 2, 3):
                for n_t in (1, 2, 3):
                    orders = (n_u, n_w, n_t)
                    bound = log_power_bound(n_u, n_w, n_t)
                    sharp = n_u + n_w + n_t - 2
                    coarse = 3 * max(orders)
                    assert bound.sharp_bound == sharp
                    assert bound.coarse_bound == coarse
                    assert sharp <= coarse
                    for k in range(sharp, coarse + 3):
                        assert log_recursion_state(orders, k) == {}, (orders, k)
                    if sharp >= 1:
                        assert log_recursion_state(orders, sharp - 1), orders
                        assert bound.attained


# ----------------------------------------------------------------------
# 8. byte-identical reports for every command at 1 and 8 workers

ACCEPTANCE_INI = """
[run]
depth = 3
m = 1

[voa]
kind = heisenberg

[module.f1]
kind = fock
charge = 1

[module.f2]
kind = fock
charge = 2

[intertwiner.Y]
lam = 1
mu = 2

[intertwiner.Yhalf]
lam = 1
mu = 2
scale = 1/2

[command]
module = f1
left = f1
right = f2
intertwiners = Y Yhalf
first = Y
second = Yhalf
orders = 2,2,2
"""

ALL_COMMANDS = (
    "graded-dims", "cm-quotient", "complement", "reduce", "ode", "bound",
    "frobenius", "join", "compare", "log-bound", "identity-suite",
)


def test_criterion_8_deterministic_reports(announce, tmp_path, monkeypatch):
    with criterion(announce, 8, "deterministic reports"):
        # a command writes nothing but its report: neither where the
        # cache variable points nor under HOME
        cache_dir = tmp_path / "cache"
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("VERTEXBOUND_CACHE", str(cache_dir))
        monkeypatch.setenv("HOME", str(home))
        config = tmp_path / "run.ini"
        config.write_text(textwrap.dedent(ACCEPTANCE_INI), encoding="utf-8")
        for command in ALL_COMMANDS:
            single = tmp_path / f"{command}-1.json"
            many = tmp_path / f"{command}-8.json"
            code1 = cli_main([command, "--config", str(config),
                              "--out", str(single), "--threads", "1"])
            code8 = cli_main([command, "--config", str(config),
                              "--out", str(many), "--threads", "8"])
            assert code1 == 0 and code8 == 0, command
            assert single.read_bytes() == many.read_bytes(), command
            # sanity: the payload is a populated report, not an error
            report = json.loads(single.read_text(encoding="utf-8"))
            assert report["command"] == command
            assert "payload" in report
        for directory in (cache_dir, home):
            assert [p for p in directory.rglob("*") if p.is_file()] == [], directory
