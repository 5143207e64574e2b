"""Tests for correlator rewriting, the induced ODE, and fusion bounds."""

import gc
import json
import random
import weakref
from fractions import Fraction as Q

import pytest

from bruteforce import basis_vectors, fock_top_correlator, full_column_solve, plain_correlator_reduction
from vertexbound import cofinite, reduction
from vertexbound.cofinite import choose_complement
from vertexbound.errors import InputShapeError, TruncationError
from vertexbound.laurent import LaurentPoly
from vertexbound.modes import GradedVector, mode_action, omega_vector
from vertexbound.reduction import (
    CorrelatorCombination,
    assemble_ode,
    fusion_bound,
    reduce,
)
from vertexbound.voa import (
    DirectSumModule,
    FockModule,
    HeisenbergVoa,
    QuotientModule,
    VermaModule,
    VirasoroQuotientVoa,
    VirasoroVoa,
    level2_singular_vector,
    singular_vectors_at,
)


def fock_pair(lam=1, mu=2, depth=6):
    voa = HeisenbergVoa(depth)
    left = FockModule(voa, Q(lam))
    right = FockModule(voa, Q(mu))
    return left, right, choose_complement(left, depth - 1), choose_complement(right, depth - 1)


def quotient_self_pair(depth=4):
    voa = VirasoroVoa(Q(1, 2), 8)
    verma = VermaModule(voa, Q(1, 2))
    quot = QuotientModule(verma, [level2_singular_vector(Q(1, 2), Q(1, 2))])
    basis = choose_complement(quot, depth)
    return quot, basis


def express(u, basis):
    """Write ``u = sum_k v^k_{-1} a^k + e`` with ``e`` in the complement.

    Returns ``(pairs, e)``: each pair is a ``(v, a)`` of graded vectors,
    read off the spanning solver that ``reduce`` decomposes with.
    """
    module = u.module
    if u.is_zero():
        return [], GradedVector.zero(module)
    raw_pairs, complement = reduction._solver_for(basis).decompose(u)
    pairs = [(GradedVector.basis_vector(module.voa, v_key).scale(coeff),
              GradedVector.basis_vector(module, a_key))
             for v_key, a_key, coeff in raw_pairs]
    e = GradedVector(module, {basis.labels[idx][1]: alpha for idx, alpha in complement})
    return pairs, e


def recombine(pairs, e):
    """Evaluate ``sum v_{-1} a + e`` back into a graded vector."""
    total = e
    for v, a in pairs:
        total = total + mode_action(v, -1, a)
    return total


# ----------------------------------------------------------------------
# the decomposition

def test_express_lowest_vector_is_pure_complement():
    left, _, basis, _ = fock_pair()
    u = GradedVector.basis_vector(left, ())
    pairs, e = express(u, basis)
    assert pairs == []
    assert e == u


def test_express_level_one_and_two():
    left, _, basis, _ = fock_pair()
    for key in [(1,), (2,), (1, 1)]:
        u = GradedVector.basis_vector(left, key)
        pairs, e = express(u, basis)
        assert e.is_zero()  # C_1 swallows every positive level of a Fock module
        assert pairs
        for v, a in pairs:
            assert v.module is left.voa
            assert v.homogeneous_level() >= 1
        assert recombine(pairs, e) == u


def test_express_is_exact_on_all_low_monomials():
    left, right, lbasis, rbasis = fock_pair()
    quot, qbasis = quotient_self_pair()
    for module, basis in [(left, lbasis), (right, rbasis), (quot, qbasis)]:
        for level in range(0, 4):
            for u in basis_vectors(module, level):
                pairs, e = express(u, basis)
                assert recombine(pairs, e) == u


def full_span_oracle(module, basis, level):
    """Old-style decomposition data: every ``v_{-1} a`` at the level, then the complement."""
    voa = module.voa
    pair_keys = [
        (v_key, a_key)
        for wt in range(1, level + 1)
        for v_key in voa.keys(wt)
        for a_key in module.keys(level - wt)
    ]
    columns = [
        mode_action(GradedVector.basis_vector(voa, v_key), -1,
                    GradedVector.basis_vector(module, a_key)).coords_at(level)
        for v_key, a_key in pair_keys
    ]
    comp = [(i, key) for i, (lv, key) in enumerate(basis.labels) if lv == level]
    columns += [basis.vectors[i].coords_at(level) for i, _ in comp]
    return pair_keys, comp, columns


@pytest.mark.parametrize("name", ["fock-1", "fock-minus-2", "ising-sigma", "ising-eps",
                                  "fock-1-plus-fock-2"])
def test_express_matches_full_column_solve(name):
    # the solver's pivot-pair columns give the particular solution over
    # every v_{-1} a column, pair by pair and in the same order
    if name.startswith("ising"):
        left, right, lbasis, rbasis = ising_sigma_eps(6)
        module, basis = (left, lbasis) if name == "ising-sigma" else (right, rbasis)
    else:
        voa = HeisenbergVoa(7)
        module = {
            "fock-1": lambda: FockModule(voa, Q(1)),
            "fock-minus-2": lambda: FockModule(voa, Q(-2)),
            "fock-1-plus-fock-2": lambda: DirectSumModule(
                [FockModule(voa, Q(1)), FockModule(voa, Q(2))]),
        }[name]()
        basis = choose_complement(module, 6)
    assert_matches_full_column_solve(module, basis)


def assert_matches_full_column_solve(module, basis):
    for level in range(0, basis.depth + 1):
        pair_keys, comp, columns = full_span_oracle(module, basis, level)
        for u in basis_vectors(module, level):
            solution = full_column_solve(columns, u.coords_at(level))
            assert solution is not None
            expected_pairs = [
                (GradedVector.basis_vector(module.voa, v_key).scale(c),
                 GradedVector.basis_vector(module, a_key))
                for (v_key, a_key), c in zip(pair_keys, solution)
                if c
            ]
            expected_comp = solution[len(pair_keys):]
            pairs, e = express(u, basis)
            assert pairs == expected_pairs, (module.describe(), level)
            coords = e.coords_at(level)
            assert [coords[module.index(key)] for _, key in comp] == expected_comp
            assert recombine(pairs, e) == u


@pytest.mark.parametrize("summed, m", [
    pytest.param(False, 1, id="1"),
    pytest.param(False, 2, id="2"),
    pytest.param(True, 1, id="direct-sum-1"),
    pytest.param(True, 2, id="direct-sum-2"),
])
def test_solver_rebuilds_c1_pairs_only_for_an_m2_complement(monkeypatch, summed, m):
    # an m = 1 complement keeps the C_1 pairs it built and the solver
    # reads them; an m = 2 one built C_2, so the solver builds C_1 itself;
    # the decompositions are the full column solve's either way, and a
    # direct sum V + V behaves as any module
    c = Q(1, 2)
    module = VirasoroQuotientVoa(c, singular_vectors_at(VirasoroVoa(c, 10), 6), depth=10)
    if summed:
        module = DirectSumModule([module, module])
    basis = choose_complement(module, 7, m)
    assert (basis.c1_pairs is None) == (m == 2)
    built = []

    def counting_cm_level(module, m, n):
        built.append(n)
        return cofinite.cm_level(module, m, n)

    monkeypatch.setattr(reduction, "cm_level", counting_cm_level)
    assert_matches_full_column_solve(module, basis)
    assert built == ([] if m == 1 else [n for n in range(8) if module.dim(n)])


def test_express_quotient_singular_relation():
    # L(-1)^2 |h> collapses onto (4/3) L(-2)|h> in the level-two quotient,
    # so its decomposition is pure C_1 with no complement part
    quot, basis = quotient_self_pair()
    u = GradedVector.basis_vector(quot, (2,)).scale(Q(4, 3))
    pairs, e = express(u, basis)
    assert e.is_zero()
    assert recombine(pairs, e) == u


def test_express_guards():
    left, right, basis, rbasis = fock_pair()
    beyond = GradedVector.basis_vector(left, (6,))
    with pytest.raises(TruncationError):
        express(beyond, basis)
    flagged = GradedVector(left, {(1,): Q(1)}, truncated=True)
    with pytest.raises(TruncationError):
        express(flagged, basis)
    other = GradedVector.basis_vector(left.voa, (1,))
    with pytest.raises(InputShapeError, match="left basis module"):
        reduce(other, GradedVector.basis_vector(right, ()), basis, rbasis)
    mixed = GradedVector.basis_vector(left, ()) + GradedVector.basis_vector(left, (1,))
    with pytest.raises(InputShapeError):
        express(mixed, basis)


# ----------------------------------------------------------------------
# frozen rewrite values on the free boson

def test_reduce_basis_pair_is_the_unit():
    left, right, lbasis, rbasis = fock_pair()
    comb = reduce(
        GradedVector.basis_vector(left, ()),
        GradedVector.basis_vector(right, ()),
        lbasis, rbasis,
    )
    assert comb == CorrelatorCombination.unit(lbasis, rbasis, 0, 0)


def test_reduce_left_oscillator():
    # <theta, Y(a(-1)|1>, z)|2>> = mu z^{-1} <theta, Y(|1>,z)|2>>
    left, right, lbasis, rbasis = fock_pair()
    comb = reduce(
        GradedVector.basis_vector(left, (1,)),
        GradedVector.basis_vector(right, ()),
        lbasis, rbasis,
    )
    assert comb.items() == [((0, 0), LaurentPoly.monomial(-1, Q(2)))]


def test_reduce_right_oscillator_sign():
    # the commutator tail flips the sign: -lam z^{-1}, not +lam z^{-1};
    # the matrix-element oracle below independently fixes this value
    left, right, lbasis, rbasis = fock_pair()
    comb = reduce(
        GradedVector.basis_vector(left, ()),
        GradedVector.basis_vector(right, (1,)),
        lbasis, rbasis,
    )
    assert comb.items() == [((0, 0), LaurentPoly.monomial(-1, Q(-1)))]


def test_reduce_mixed_level_two():
    # hand value: reduce(a(-1)|lam>, a(-1)|mu>) = (1 - lam*mu) z^{-2}
    left, right, lbasis, rbasis = fock_pair()
    comb = reduce(
        GradedVector.basis_vector(left, (1,)),
        GradedVector.basis_vector(right, (1,)),
        lbasis, rbasis,
    )
    assert comb.items() == [((0, 0), LaurentPoly.monomial(-2, Q(-1)))]


def test_reduce_matches_matrix_element_oracle():
    # the central soundness check: the rewrite coefficient c_00 must equal
    # the exactly computable top matrix element of the charged vertex
    # operator Fock(1) x Fock(2) -> Fock(3), for every homogeneous pair
    left, right, lbasis, rbasis = fock_pair()
    lam, mu = Q(1), Q(2)
    for lp in range(0, 5):
        for lq in range(0, 5 - lp):
            for p in basis_vectors(left, lp):
                for q in basis_vectors(right, lq):
                    comb = reduce(p, q, lbasis, rbasis)
                    expected = fock_top_correlator(p.to_raw(), lam, q.to_raw(), mu)
                    assert comb.entry(0, 0).terms == expected
                    assert all(key == (0, 0) for key, _ in comb.items())


def test_reduce_oracle_on_random_combinations():
    left, right, lbasis, rbasis = fock_pair()
    rng = random.Random(7)
    for _ in range(6):
        lp = rng.randint(1, 3)
        lq = rng.randint(0, 4 - lp)
        p = GradedVector.zero(left)
        for vec in basis_vectors(left, lp):
            p = p + vec.scale(Q(rng.randint(-3, 3)))
        q = GradedVector.zero(right)
        for vec in basis_vectors(right, lq):
            q = q + vec.scale(Q(rng.randint(-3, 3)))
        if p.is_zero() or q.is_zero():
            continue
        comb = reduce(p, q, lbasis, rbasis)
        expected = fock_top_correlator(p.to_raw(), Q(1), q.to_raw(), Q(2))
        assert comb.entry(0, 0).terms == expected


def test_reduce_is_linear():
    left, right, lbasis, rbasis = fock_pair()
    p1, p2 = basis_vectors(left, 2)
    q = GradedVector.basis_vector(right, (1,))
    combined = reduce(p1.scale(3) + p2.scale(-5), q, lbasis, rbasis)
    separate = reduce(p1, q, lbasis, rbasis).scale(3) + \
        reduce(p2, q, lbasis, rbasis).scale(-5)
    assert combined == separate


def test_reduce_virasoro_quotient_values():
    # reduce(L(-2)|h>, |h>) = h z^{-2} A_00 + z^{-1} A_01 at h = 1/2
    quot, basis = quotient_self_pair()
    comb = reduce(
        GradedVector.basis_vector(quot, (2,)),
        GradedVector.basis_vector(quot, ()),
        basis, basis,
    )
    assert comb.items() == [
        ((0, 0), LaurentPoly.monomial(-2, Q(1, 2))),
        ((0, 1), LaurentPoly.monomial(-1)),
    ]
    # complement vectors pass through untouched
    unit = reduce(
        GradedVector.basis_vector(quot, (1,)),
        GradedVector.basis_vector(quot, ()),
        basis, basis,
    )
    assert unit == CorrelatorCombination.unit(basis, basis, 1, 0)


def test_reduce_window_guard():
    left, right, lbasis, rbasis = fock_pair()
    with pytest.raises(TruncationError):
        reduce(
            GradedVector.basis_vector(left, (3,)),
            GradedVector.basis_vector(right, (3,)),
            lbasis, rbasis,
        )


# ----------------------------------------------------------------------
# the basis-pair table

def ising_sigma_eps(depth=5):
    c = Q(1, 2)
    voa = VirasoroVoa(c, depth + 2)

    def quotient(h):
        return QuotientModule(VermaModule(voa, h), [level2_singular_vector(c, h)])

    left, right = quotient(Q(1, 16)), quotient(Q(1, 2))
    return left, right, choose_complement(left, depth), choose_complement(right, depth)


def basis_pairs(left, right, top):
    return [
        (p_key, q_key)
        for total in range(top + 1)
        for a in range(total + 1)
        for p_key in left.keys(a)
        for q_key in right.keys(total - a)
    ]


def plain(comb):
    return {key: poly.terms for key, poly in comb.items()}


def reduce_keys(p_key, q_key, lbasis, rbasis):
    return reduce(GradedVector.basis_vector(lbasis.module, p_key),
                  GradedVector.basis_vector(rbasis.module, q_key), lbasis, rbasis)


def oracle_reduction(p_key, q_key, lbasis, rbasis):
    def splitter(basis):
        def split(x):
            pairs, e = express(x, basis)
            complement = []
            for i, (level, key) in enumerate(basis.labels):
                alpha = e.coords_at(level)[basis.module.index(key)]
                if alpha:
                    complement.append((i, alpha, basis.vectors[i]))
            return pairs, complement
        return split

    def act(v, n, w):
        out = mode_action(v, n, w)
        assert not out.truncated
        return None if out.is_zero() else out

    return plain_correlator_reduction(
        GradedVector.basis_vector(lbasis.module, p_key),
        GradedVector.basis_vector(rbasis.module, q_key),
        splitter(lbasis), splitter(rbasis), act, lambda x: x.homogeneous_level(),
    )


def test_bases_are_freed_without_the_cycle_collector():
    # neither the solver nor the pair table refers back to the basis
    # that owns it, so deleting the bases frees them at once
    left, right, lbasis, rbasis = fock_pair(depth=5)
    self_basis = choose_complement(left, 4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        reduce(GradedVector.basis_vector(left, (2,)), GradedVector.basis_vector(right, (1,)),
               lbasis, rbasis)
        assemble_ode(lbasis, rbasis)
        assemble_ode(self_basis, self_basis)
        refs = [weakref.ref(b) for b in (lbasis, rbasis, self_basis)]
        del lbasis, rbasis, self_basis
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def fock_sum_pair(depth):
    voa = HeisenbergVoa(depth)
    left = DirectSumModule([FockModule(voa, 1), FockModule(voa, Q(-1, 2))])
    right = DirectSumModule([FockModule(voa, 2), FockModule(voa, 0)])
    return left, right, choose_complement(left, depth - 1), choose_complement(right, depth - 1)


@pytest.mark.parametrize("make, top", [
    (ising_sigma_eps, 5),
    (lambda depth: fock_pair(depth=depth + 1), 6),
    (lambda depth: fock_sum_pair(depth + 2), 5),
], ids=["ising-sigma-eps", "fock-1-2", "fock-sums"])
def test_table_matches_plain_recursion(make, top):
    left, right, lbasis, rbasis = make(top)
    pairs = basis_pairs(left, right, top)
    rng = random.Random(top)
    rng.shuffle(pairs)
    expected = {pair: oracle_reduction(*pair, lbasis, rbasis) for pair in pairs}
    for pair in pairs:
        assert plain(reduce_keys(*pair, lbasis, rbasis)) == expected[pair], pair
    # fresh bases, another order: the labels are deterministic
    _, _, fresh_left, fresh_right = make(top)
    rng.shuffle(pairs)
    for pair in pairs:
        assert plain(reduce_keys(*pair, fresh_left, fresh_right)) == expected[pair], pair


def test_mutating_a_result_leaves_the_table_alone():
    left, right, lbasis, rbasis = fock_pair()
    low = reduce_keys((1,), (1,), lbasis, rbasis)
    high = reduce_keys((2, 1), (1,), lbasis, rbasis)
    before = (low.to_json(), high.to_json())
    low.accumulate(low, LaurentPoly.monomial(3, Q(5)))
    high.accumulate(CorrelatorCombination.unit(lbasis, rbasis, 0, 0), LaurentPoly.one())
    assert low.to_json() != before[0] and high.to_json() != before[1]
    again = (reduce_keys((1,), (1,), lbasis, rbasis), reduce_keys((2, 1), (1,), lbasis, rbasis))
    assert tuple(c.to_json() for c in again) == before
    _, _, fresh_left, fresh_right = fock_pair()
    assert reduce_keys((3, 1), (1,), lbasis, rbasis).to_json() == \
        reduce_keys((3, 1), (1,), fresh_left, fresh_right).to_json()


def test_window_refusal_leaves_later_results_unchanged():
    left, right, lbasis, rbasis = ising_sigma_eps(4)
    pairs = basis_pairs(left, right, 4)
    before = [plain(reduce_keys(*pair, lbasis, rbasis)) for pair in pairs]
    with pytest.raises(TruncationError):
        reduce_keys((3,), (2,), lbasis, rbasis)
    assert [plain(reduce_keys(*pair, lbasis, rbasis)) for pair in pairs] == before
    _, _, fresh_left, fresh_right = ising_sigma_eps(4)
    assert [plain(reduce_keys(*pair, fresh_left, fresh_right)) for pair in pairs] == before


def fock_level_sweep(lbasis, rbasis, level):
    left, right = lbasis.module, rbasis.module
    for a in range(level + 1):
        for p_key in left.keys(a):
            for q_key in right.keys(level - a):
                reduce_keys(p_key, q_key, lbasis, rbasis)


def test_ode_after_a_full_sweep_matches_fresh_bases():
    _, _, lbasis, rbasis = fock_pair(depth=8)
    fock_level_sweep(lbasis, rbasis, 7)
    swept = json.dumps(assemble_ode(lbasis, rbasis).to_json(), sort_keys=True)
    _, _, fresh_left, fresh_right = fock_pair(depth=8)
    assert swept == json.dumps(assemble_ode(fresh_left, fresh_right).to_json(), sort_keys=True)


def test_each_basis_pair_is_computed_at_most_once(monkeypatch):
    left, right, lbasis, rbasis = fock_pair(depth=8)
    computed = []
    entry = reduction._pair_entry

    def counting(p_key, q_key, *bases):
        computed.append((p_key, q_key))
        return entry(p_key, q_key, *bases)

    monkeypatch.setattr(reduction, "_pair_entry", counting)
    fock_level_sweep(lbasis, rbasis, 7)
    assert computed
    assert len(computed) <= len(basis_pairs(left, right, 7))


# ----------------------------------------------------------------------
# the assembled system

def test_ode_fock_pair():
    left, right, lbasis, rbasis = fock_pair()
    system = assemble_ode(lbasis, rbasis)
    assert system.dimension == 1
    assert system.labels == [(0, 0)]
    assert system.entry(0, 0) == LaurentPoly.monomial(-1, Q(2))
    assert system.pole_order == 1
    blocks = system.series_blocks()
    assert sorted(blocks) == [-1]
    assert blocks[-1].entry(0, 0) == Q(2)


def test_ode_vanishing_charge():
    left, right, lbasis, rbasis = fock_pair(lam=0, mu=2)
    system = assemble_ode(lbasis, rbasis)
    assert system.dimension == 1
    assert system.entries == {}
    assert system.pole_order == 0


def test_ode_direct_sum_is_block_diagonal():
    voa = HeisenbergVoa(6)
    total = DirectSumModule([FockModule(voa, 1), FockModule(voa, -1)])
    lbasis = choose_complement(total, 5)
    rbasis = choose_complement(FockModule(voa, 2), 5)
    system = assemble_ode(lbasis, rbasis)
    assert system.dimension == 2
    assert system.entry(0, 0) == LaurentPoly.monomial(-1, Q(2))
    assert system.entry(1, 1) == LaurentPoly.monomial(-1, Q(-2))
    assert system.entry(0, 1).is_zero() and system.entry(1, 0).is_zero()


def test_ode_quotient_square():
    quot, basis = quotient_self_pair()
    system = assemble_ode(basis, basis)
    assert system.dimension == 4
    assert system.labels == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # row (0,j): L(-1)p^0 is the complement vector p^1, so B is a
    # permutation-like unit onto the (1,j) label there
    index = {label: pos for pos, label in enumerate(system.labels)}
    for j in range(2):
        row = index[(0, j)]
        assert system.entry(row, index[(1, j)]) == LaurentPoly.one()
    assert system.pole_order >= 1


def test_ode_json_schema():
    left, right, lbasis, rbasis = fock_pair()
    payload = assemble_ode(lbasis, rbasis).to_json()
    assert payload["dimension"] == 1
    assert payload["labels"] == [[0, 0]]
    assert payload["pole_order"] == 1
    (entry,) = payload["entries"]
    assert entry["row"] == 0 and entry["col"] == 0
    assert entry["terms"] == [{"power": -1, "num": "2", "den": "1"}]


# ----------------------------------------------------------------------
# the bound

def test_fusion_bound_fock_pair():
    _, _, lbasis, rbasis = fock_pair()
    bound = fusion_bound(lbasis, rbasis)
    assert bound.value == 1
    assert len(bound.provenance) == 1
    assert bound.provenance[0]["product"] == 1


def test_fusion_bound_direct_sum_additivity():
    voa = HeisenbergVoa(6)
    total = DirectSumModule([FockModule(voa, 1), FockModule(voa, -1)])
    lbasis = choose_complement(total, 5)
    rbasis = choose_complement(FockModule(voa, 2), 5)
    bound = fusion_bound(lbasis, rbasis)
    assert bound.value == 2
    assert [p["product"] for p in bound.provenance] == [1, 1]


def test_fusion_bound_quotient_square():
    quot, basis = quotient_self_pair()
    bound = fusion_bound(basis, basis)
    assert bound.value == 4
    payload = bound.to_json()
    assert payload["value"] == 4
    assert "convention" in payload


def test_fusion_bound_empty_summand():
    voa = HeisenbergVoa(6)
    lbasis = choose_complement(DirectSumModule([]), 0)
    rbasis = choose_complement(FockModule(voa, 2), 5)
    assert fusion_bound(lbasis, rbasis).value == 0
