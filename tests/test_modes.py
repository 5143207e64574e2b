"""Composite mode actions, truncation semantics, and the identity suite."""

import gc
from fractions import Fraction as Q
from math import gcd

import pytest

from bruteforce import dense_coords, fraction_apply_word, identity_triple_failures, sugawara_L
from test_fusion import direct_sum_pair
from vertexbound import modes
from vertexbound.errors import InputShapeError, InternalInvariantViolation
from vertexbound.fusion import heisenberg_intertwiner, join
from vertexbound.modes import (
    GradedVector,
    engine_for,
    mode_action,
    omega_vector,
    run_identity_suite,
    vacuum_vector,
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


# ----------------------------------------------------------------------
# graded vectors

def test_graded_vector_basics():
    voa = HeisenbergVoa(depth=4)
    fock = FockModule(voa, Q(1))
    v = GradedVector.basis_vector(fock, (2, 1))
    assert v.levels() == (3,)
    assert v.weight() == Q(1, 2) + 3
    w = GradedVector(fock, {(1,): Q(2), (2, 1): Q(-1)})
    total = v + w
    assert total.coords_at(3)[fock.index((2, 1))] == 0
    assert total.components == {1: {(1,): 2}}
    assert (v - v).is_zero()
    assert v.scale(0).is_zero()


def test_constructor_drops_zeros_and_content_above_depth():
    voa = HeisenbergVoa(depth=2)
    fock = FockModule(voa, Q(1))
    v = GradedVector(fock, {(): Q(1), (1,): 0, (2,): Q(0), (3,): Q(1)})
    assert v.truncated
    assert v.components == {0: {(): 1}}
    assert all(type(c) is Q for c in v.components[0].values())
    assert not GradedVector(fock, {(1,): 0, (1, 1): Q(0)}).components
    # the flag is sticky through arithmetic
    clean = GradedVector.basis_vector(fock, (1,))
    assert (v + clean).truncated
    assert v.scale(5).truncated
    # but equality compares values only
    assert v == GradedVector(fock, {(): 1})


def _fock_1_at_depth_3():
    return FockModule(HeisenbergVoa(depth=3), Q(1))


def _ising_epsilon(depth):
    c, h = Q(1, 2), Q(1, 2)
    verma = VermaModule(VirasoroVoa(c, depth=depth), h)
    return QuotientModule(verma, (level2_singular_vector(c, h),))


def _quotient_pivot_monomial():
    quotient = _ising_epsilon(3)
    (pivot,) = set(quotient.parent.keys(2)) - set(quotient.keys(2))
    return quotient, {pivot: Q(1)}


@pytest.mark.parametrize("make", [
    lambda: (_fock_1_at_depth_3(), {(0,): Q(1)}),
    lambda: (VirasoroVoa(Q(1, 2), depth=3), {(1,): Q(1)}),
    lambda: (VirasoroVoa(Q(1, 2), depth=3), {(2, 1): Q(1)}),
    _quotient_pivot_monomial,
    lambda: (_fock_1_at_depth_3(), {(1,): 0.5}),
    lambda: (_fock_1_at_depth_3(), {(1,): "1/2"}),
    lambda: (_fock_1_at_depth_3(), {(1,): None}),
], ids=["fock-part-0", "vacuum-part-1", "vacuum-level-3-part-1", "quotient-pivot",
        "float", "str", "none"])
def test_constructor_refuses_non_basis_keys_and_non_rational_values(make):
    module, raw = make()
    with pytest.raises(InputShapeError):
        GradedVector(module, raw)


@pytest.mark.parametrize("name", [
    "fock-1", "verma-1/16", "epsilon", "direct-sum", "join-target"])
def test_coords_at_matches_the_dense_oracle(name):
    module = _oracle_modules()[name]
    for level in range(module.depth + 1):
        keys = module.keys(level)
        raw = {key: Q(i + 1, 3) if i % 2 else -i for i, key in enumerate(keys)}
        vec = GradedVector(module, raw)
        assert vec.coords_at(level) == dense_coords(module, raw, level)
        assert vec.to_raw() == {key: c for key, c in raw.items() if c}
        # an empty level reads as zeros
        assert GradedVector.zero(module).coords_at(level) == (0,) * len(keys)


def test_mode_action_requires_matching_algebra():
    h = HeisenbergVoa(depth=3)
    v = VirasoroVoa(Q(1), depth=3)
    w = GradedVector.basis_vector(FockModule(h, Q(1)), ())
    with pytest.raises(InputShapeError):
        mode_action(vacuum_vector(v), -1, w)


def test_mode_action_rejects_inhomogeneous_actor():
    voa = HeisenbergVoa(depth=3)
    mixed = GradedVector(voa, {(): Q(1), (1,): Q(1)})
    w = GradedVector.basis_vector(voa, ())
    with pytest.raises(InputShapeError):
        mode_action(mixed, -1, w)


# ----------------------------------------------------------------------
# generator and composite modes

def test_generator_modes_agree_with_base_action():
    voa = HeisenbergVoa(depth=5)
    fock = FockModule(voa, Q(3, 2))
    gen = GradedVector(voa, voa.generator_raw)
    for level in range(4):
        for key in fock.keys(level):
            w = GradedVector.basis_vector(fock, key)
            for k in range(-3, 4):
                expected = GradedVector(fock, fock.apply_gen(k, key))
                assert mode_action(gen, k, w) == expected


def test_derivative_state_modes():
    """(a(-2)|0>)_k = -k a(k-1) on any Fock vector."""
    voa = HeisenbergVoa(depth=6)
    fock = FockModule(voa, Q(2))
    v = GradedVector.basis_vector(voa, (2,))
    for key in [(), (1,), (3, 1)]:
        w = GradedVector.basis_vector(fock, key)
        for k in range(-2, 3):
            expected = GradedVector(
                fock, {k2: -k * c for k2, c in fock.apply_gen(k - 1, key).items()}
            )
            assert mode_action(v, k, w) == expected


@pytest.mark.parametrize("charge", [Q(0), Q(1), Q(-1, 2)])
def test_heisenberg_conformal_modes_match_sugawara(charge):
    """The engine's omega modes equal the independent quadratic formula."""
    voa = HeisenbergVoa(depth=7)
    module = FockModule(voa, charge) if charge else voa
    omega = omega_vector(voa)
    for level in range(5):
        for key in module.keys(level):
            w = GradedVector.basis_vector(module, key)
            for k in range(0, level + 4):
                # omega_k = L(k-1); stay below depth so nothing is flagged
                if level + 2 - k - 1 > module.depth:
                    continue
                got = mode_action(omega, k, w)
                assert not got.truncated
                expected = GradedVector(
                    module, sugawara_L(k - 1, {key: Q(1)}, charge)
                )
                assert got == expected, (key, k)


def test_fock_l0_eigenvalues():
    voa = HeisenbergVoa(depth=5)
    fock = FockModule(voa, Q(3))
    omega = omega_vector(voa)
    for level in range(5):
        for key in fock.keys(level):
            w = GradedVector.basis_vector(fock, key)
            assert mode_action(omega, 1, w) == w.scale(Q(9, 2) + level)


def test_virasoro_omega_modes_are_the_generator_action():
    voa = VirasoroVoa(Q(-22, 5), depth=5)
    verma = VermaModule(voa, Q(-1, 5))
    omega = omega_vector(voa)
    for level in range(4):
        for key in verma.keys(level):
            w = GradedVector.basis_vector(verma, key)
            for k in range(0, level + 3):
                expected = GradedVector(verma, verma.apply_gen(k, key))
                assert mode_action(omega, k, w) == expected


# ----------------------------------------------------------------------
# truncation semantics

def test_mode_action_flags_formal_overflow():
    voa = HeisenbergVoa(depth=2)
    fock = FockModule(voa, Q(1))
    gen = GradedVector(voa, voa.generator_raw)
    w = GradedVector.basis_vector(fock, (2,))
    out = mode_action(gen, -2, w)  # formal target level 4 > 2
    assert out.is_zero() and out.truncated
    # certified actions below depth carry no flag
    ok = mode_action(gen, 0, w)
    assert not ok.truncated and ok == w.scale(1)


def test_mode_action_keeps_integral_fock_data_on_ints(monkeypatch):
    # integral data reaches the constructor on ints; only a fractional
    # coefficient brings Fractions in before it
    voa = HeisenbergVoa(depth=4)
    fock = FockModule(voa, Q(1))
    seen = []
    init = GradedVector.__init__

    def recording(self, module, raw=None, truncated=False):
        seen.extend(type(c) for c in (raw or {}).values())
        init(self, module, raw, truncated)

    monkeypatch.setattr(GradedVector, "__init__", recording)
    gen = GradedVector(voa, voa.generator_raw)
    v = mode_action(gen, -2, gen).scale(3)
    w = GradedVector.basis_vector(fock, (2,)) - GradedVector.basis_vector(fock, (1, 1)).scale(2)
    seen.clear()
    out = mode_action(v, 1, w)
    assert seen and set(seen) == {int}
    assert all(type(c) is Q for coeffs in out.components.values() for c in coeffs.values())
    seen.clear()
    assert mode_action(v, 1, w.scale(Q(1, 2))) == out.scale(Q(1, 2))
    assert Q in seen


# ----------------------------------------------------------------------
# identities

@pytest.mark.parametrize(
    "make",
    [
        lambda: FockModule(HeisenbergVoa(depth=5), Q(2)),
        lambda: VermaModule(VirasoroVoa(Q(1, 2), depth=5), Q(1, 16)),
        lambda: QuotientModule(
            VermaModule(VirasoroVoa(Q(1, 2), depth=5), Q(1, 2)),
            (level2_singular_vector(Q(1, 2), Q(1, 2)),),
        ),
    ],
)
def test_spot_identities_on_modules(make):
    # the exhaustive suite on each module; its check plans are the one
    # checker, with the oracle kernels of tests/bruteforce.py beside them
    report = run_identity_suite(make())
    assert report.all_passed
    assert report.commutator_checked and report.associativity_checked


def test_l_minus_one_shift_examples():
    # (L(-1)v)_{-m} w = m v_{-m-1} w, with no side flagged
    heisenberg = HeisenbergVoa(depth=6)
    fock = FockModule(heisenberg, Q(1))
    vir = VirasoroVoa(Q(1, 2), depth=6)
    verma = VermaModule(vir, Q(1, 16))
    cases = [(GradedVector(heisenberg, heisenberg.generator_raw), GradedVector.basis_vector(fock, key))
             for key in [(), (1,), (2,)]]
    cases.append((GradedVector.basis_vector(vir, (2,)), GradedVector.basis_vector(verma, (1,))))
    for v, w in cases:
        omega = omega_vector(v.module)
        for m in range(0, 3):
            lhs = mode_action(mode_action(omega, 0, v), -m, w)
            rhs = mode_action(v, -m - 1, w).scale(m)
            assert not (lhs.truncated or rhs.truncated)
            assert lhs == rhs


def test_identity_suite_small_runs_clean():
    report = run_identity_suite(HeisenbergVoa(depth=3))
    assert report.all_passed
    assert report.commutator_checked > 100
    assert report.associativity_checked > 100
    assert report.vacuum_checked > 0
    vir_report = run_identity_suite(VermaModule(VirasoroVoa(Q(1, 2), depth=4), Q(1, 16)))
    assert vir_report.all_passed
    assert vir_report.total_checked > 100


def test_identity_checks_catch_a_wrong_central_charge():
    # the module straightens [L(m), L(-m)] with c = 3/2 while its algebra
    # keeps c = 1/2, so the commutator of L(-2)|0> with itself breaks
    voa = VirasoroVoa(Q(1, 2), depth=4)
    broken = VermaModule(voa, Q(1, 16))
    broken.central_charge = Q(3, 2)
    report = run_identity_suite(broken)
    assert not report.all_passed
    assert (report.commutator_checked, report.associativity_checked) == (2400, 1544)
    assert len(report.failures) == 18
    assert ("commutator", "L(-2)|0>", "L(-2)|0>", 3, -1, "L(-1)L(-1)|h=1/16>") in report.failures


def test_identity_suite_catches_a_doubled_oscillator_mode():
    fock = FockModule(HeisenbergVoa(depth=4), Q(1))
    action = fock.apply_gen

    def doubled(k, key):
        image = action(k, key)
        return {out: 2 * c for out, c in image.items()} if k == 1 else image

    fock.apply_gen = doubled
    report = run_identity_suite(fock)
    assert not report.all_passed
    assert len(report.failures) == 20  # the report keeps the first 20
    assert report.failures[0][:3] == ("associativity", "a(-1)|0>", "a(-1)|0>")


def _fock_1():
    return FockModule(HeisenbergVoa(depth=4), Q(1))


def _ising_sigma():
    c, h = Q(1, 2), Q(1, 16)
    return QuotientModule(VermaModule(VirasoroVoa(c, depth=5), h), [level2_singular_vector(c, h)])


def _ising_sigma_plus_epsilon():
    # one level of the sum holds keys of both summands, so every plan is
    # filled from the vectors of two different modules
    c = Q(1, 2)
    virasoro = VirasoroVoa(c, depth=5)
    return DirectSumModule([QuotientModule(VermaModule(virasoro, h), [level2_singular_vector(c, h)])
                            for h in (Q(1, 16), Q(1, 2))])


def _vacuum_quotient_adjoint():
    # the algebra as its own module, so the creation checks run too
    c = Q(1, 2)
    return VirasoroQuotientVoa(c, singular_vectors_at(VirasoroVoa(c, depth=6), 6), depth=6)


def _wrong_central_charge():
    broken = VermaModule(VirasoroVoa(Q(1, 2), depth=4), Q(1, 16))
    broken.central_charge = Q(3, 2)
    return broken


def _doubled_oscillator_mode():
    fock = _fock_1()
    action = fock.apply_gen
    fock.apply_gen = lambda k, key: (
        {out: 2 * c for out, c in action(k, key).items()} if k == 1 else action(k, key)
    )
    return fock


@pytest.mark.parametrize("make, counts, n_failures", [
    (_fock_1, (12000, 7732, 58), 0),
    (_ising_sigma, (6006, 3751, 65), 0),
    (_wrong_central_charge, (2400, 1544, 58), 18),
    (_doubled_oscillator_mode, (12000, 7732, 58), 3133),
    (_ising_sigma_plus_epsilon, (12012, 7502, 130), 0),
    (_vacuum_quotient_adjoint, (11305, 6714, 112), 0),
], ids=["fock-1", "ising-sigma", "wrong-central-charge", "doubled-oscillator-mode",
        "ising-sigma-plus-epsilon", "vacuum-quotient-adjoint"])
def test_identity_suite_matches_the_untabulated_defects(monkeypatch, make, counts, n_failures):
    # the whole failure list, before the report's cut, equals the one the
    # oracle kernels give when they build every composition afresh
    monkeypatch.setattr(modes, "MAX_FAILURES", 10 ** 9)
    report = run_identity_suite(make())
    assert (report.commutator_checked, report.associativity_checked,
            report.vacuum_checked) == counts
    assert len(report.failures) == n_failures
    failures, commutator, associativity = identity_triple_failures(make())
    assert (commutator, associativity) == counts[:2]
    assert report.failures == failures


def _doubled_creation_mode():
    # the algebra is its own module, so doubling a(-2) breaks the creation
    # axiom v_{-1}|0> = v as well as the triple identities
    voa = HeisenbergVoa(depth=3)
    action = voa.apply_gen
    voa.apply_gen = lambda k, key: (
        {out: 2 * c for out, c in action(k, key).items()} if k == -1 else action(k, key)
    )
    return voa


def test_identity_suite_keeps_creation_failures_ahead_of_triple_failures(monkeypatch):
    monkeypatch.setattr(modes, "MAX_FAILURES", 10 ** 9)
    failures = run_identity_suite(_doubled_creation_mode()).failures
    creation = [failure for failure in failures if failure[0] == "creation"]
    triples, _, _ = identity_triple_failures(_doubled_creation_mode())
    assert len(creation) == 4 and len(triples) == 459
    assert failures == creation + triples
    # the report's cut keeps the head of that order
    monkeypatch.setattr(modes, "MAX_FAILURES", 6)
    assert run_identity_suite(_doubled_creation_mode()).failures == failures[:6]


def test_engine_memo_is_reused():
    voa = HeisenbergVoa(depth=4)
    fock = FockModule(voa, Q(1))
    engine = engine_for(fock)
    assert engine is engine_for(fock)
    first = engine.apply_word((2, 1), 0, (1,))
    assert engine.apply_word((2, 1), 0, (1,)) is first


# ----------------------------------------------------------------------
# (nums, den) results against the Fraction iterate expansion

def _oracle_modules():
    heisenberg = HeisenbergVoa(depth=4)
    c = Q(1, 2)
    virasoro = VirasoroVoa(c, depth=6)
    h = heisenberg_intertwiner(1, 2, 3)
    return {
        "fock-1": FockModule(heisenberg, Q(1)),
        "fock-1/2": FockModule(heisenberg, Q(1, 2)),
        "fock-(-3/2)": FockModule(heisenberg, Q(-3, 2)),
        "verma-1/16": VermaModule(virasoro, Q(1, 16)),
        **{name: QuotientModule(VermaModule(virasoro, hw), [level2_singular_vector(c, hw)])
           for name, hw in (("sigma", Q(1, 16)), ("epsilon", Q(1, 2)))},
        "vacuum-quotient": VirasoroQuotientVoa(c, singular_vectors_at(virasoro, 6), depth=6),
        "direct-sum": DirectSumModule((FockModule(heisenberg, 1), FockModule(heisenberg, Q(-1, 2)))),
        "join-target": join(h, h.scale(Q(-3, 4))).target,
    }


@pytest.mark.parametrize("name", list(_oracle_modules()))
def test_engine_results_are_lowest_terms_and_match_the_fraction_expansion(name):
    module = _oracle_modules()[name]
    voa, depth = module.voa, module.depth
    engine = engine_for(module)
    for wt in range(voa.depth + 1):
        for word in voa.keys(wt):
            for n in range(depth + 1):
                for key in module.keys(n):
                    for k in range(n + wt - 1 - depth, n + wt):
                        engine.apply_word(word, k, key)
    oracle = {}
    for (word, k, key), (nums, den) in engine._memo.items():
        assert type(den) is int and den > 0
        assert all(type(c) is int and c for c in nums.values())
        assert gcd(den, *nums.values()) == 1
        assert {out: Q(c, den) for out, c in nums.items()} == \
            fraction_apply_word(module, word, k, key, oracle), (word, k, key)
    assert len(engine._memo) > 100
    # integral data stays over 1; the others need a denominator somewhere
    dens = {den for _, den in engine._memo.values()}
    assert (dens == {1}) == (name in ("fock-1", "join-target")), dens


def _closed_form_modules():
    modules = _oracle_modules()
    names = ("fock-1", "fock-(-3/2)", "verma-1/16", "sigma", "vacuum-quotient", "join-target")
    return {**{name: modules[name] for name in names},
            "direct-sum-pair": direct_sum_pair()[0].source_left}


@pytest.mark.parametrize("name", list(_closed_form_modules()))
def test_one_part_words_take_the_closed_form_of_their_derivative_state(name):
    """``(p,)`` is L(-1)^t g / t! with t = p - wt(g); its modes are
    ``(-1)^t C(k, t) g_{k-t}``, checked against the iterate expansion on
    every key and every k that keeps the target level in [0, depth]."""
    module = _closed_form_modules()[name]
    gen_weight, depth = module.voa.gen_weight, module.depth
    engine = engine_for(module)
    oracle = {}
    vanishing = 0
    for p in range(1, depth + gen_weight + 1):
        for n in range(depth + 1):
            for key in module.keys(n):
                for k in range(n + p - 1 - depth, n + p):
                    nums, den = engine.apply_word((p,), k, key)
                    assert type(den) is int and den > 0
                    assert all(type(c) is int and c for c in nums.values())
                    # so a vanishing result is ({}, 1)
                    assert gcd(den, *nums.values()) == 1
                    assert {out: Q(c, den) for out, c in nums.items()} == \
                        fraction_apply_word(module, (p,), k, key, oracle), (p, k, key)
                    if p < gen_weight:
                        # Virasoro's L(-1)|0> = 0
                        assert (nums, den) == ({}, 1)
                    vanishing += not nums
    assert vanishing


def test_an_engine_refuses_once_its_module_is_gone():
    fock = FockModule(HeisenbergVoa(depth=3), Q(1))
    engine = engine_for(fock)
    assert engine.apply_word((1,), -1, ()) == ({(1,): 1}, 1)
    del fock
    gc.collect()
    # a memoized result is still an answer; new work refuses
    assert engine.apply_word((1,), -1, ()) == ({(1,): 1}, 1)
    with pytest.raises(InternalInvariantViolation):
        engine.apply_word((2,), -1, ())
