"""Graded bases and generator mode actions of the realized algebras."""

import random
from fractions import Fraction as Q

import pytest

import sympy

from bruteforce import (
    _generator_matrix,
    dense,
    dense_coords,
    level2_singular_charge,
    osc_mode,
    partition_count,
    shapovalov_level2,
    sympy_rank,
    virasoro_frozen_cases,
    word_by_word_quotient_level,
)
from vertexbound.errors import InputShapeError
from vertexbound.fusion import heisenberg_intertwiner, join
from vertexbound.modes import engine_for
from vertexbound.voa import (
    DirectSumModule,
    FockModule,
    HeisenbergVoa,
    ModuleSpec,
    QuotientModule,
    VermaModule,
    VirasoroQuotientVoa,
    VirasoroVoa,
    VoaSpec,
    level2_singular_vector,
    mode_matrix,
    partitions_of,
    raw_combine,
    realize_module,
    realize_voa,
    singular_vectors_at,
)


def apply_raw(realization, k, raw):
    out = {}
    for key, coeff in raw.items():
        raw_combine(out, realization.apply_gen(k, key), coeff)
    return out


# ----------------------------------------------------------------------
# bases

def test_partition_order_is_graded_lex():
    assert partitions_of(4, 1) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    assert partitions_of(6, 2) == ((2, 2, 2), (3, 3), (4, 2), (6,))
    assert partitions_of(0, 1) == ((),)
    assert partitions_of(-1, 1) == ()


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("min_part", [1, 2])
def test_dimensions_match_partition_counts(n, min_part):
    assert len(partitions_of(n, min_part)) == partition_count(n, min_part)


def test_basis_indexing_roundtrip():
    voa = HeisenbergVoa(depth=5)
    for n in range(6):
        for i, key in enumerate(voa.keys(n)):
            assert voa.index(key) == i
            assert voa.level_of(key) == n
    with pytest.raises(InputShapeError):
        voa.index((1, 2))  # not descending, not a basis key


def test_weights_and_labels():
    voa = HeisenbergVoa(depth=4)
    fock = FockModule(voa, Q(3, 2))
    assert fock.lowest_weight == Q(9, 8)
    assert fock.weight_of((2, 1)) == Q(9, 8) + 3
    assert fock.label((2, 1)) == "a(-2)a(-1)|3/2>"
    vir = VirasoroVoa(Q(1, 2), depth=4)
    assert vir.label(()) == "|0>"
    assert vir.label((3, 2)) == "L(-3)L(-2)|0>"


# ----------------------------------------------------------------------
# oscillator action

@pytest.mark.parametrize("charge", [Q(0), Q(1), Q(-3, 2)])
def test_oscillator_action_matches_position_sum_oracle(charge):
    voa = HeisenbergVoa(depth=6)
    module = FockModule(voa, charge) if charge else voa
    for level in range(5):
        for key in module.keys(level):
            for k in range(-3, 4):
                got = module.apply_gen(k, key)
                assert got == osc_mode(k, {key: Q(1)}, charge)
                # the integer fast path: integral structure constants stay int
                expected_type = int if charge.denominator == 1 or k else Q
                assert all(type(c) is expected_type for c in got.values()), (k, key)


def test_oscillator_bracket_on_states():
    """[a(m), a(n)] = m delta_{m+n,0} on every tracked state."""
    voa = HeisenbergVoa(depth=6)
    fock = FockModule(voa, Q(2))
    for level in range(4):
        for key in fock.keys(level):
            state = {key: Q(1)}
            for m in range(-3, 4):
                for n in range(-3, 4):
                    lhs = apply_raw(fock, m, apply_raw(fock, n, state))
                    rhs = apply_raw(fock, n, apply_raw(fock, m, state))
                    diff = dict(lhs)
                    raw_combine(diff, rhs, Q(-1))
                    expected = {}
                    if m + n == 0:
                        expected = {key: Q(m)} if m else {}
                    assert diff == expected, (m, n, key)


# ----------------------------------------------------------------------
# Virasoro action

@pytest.mark.parametrize(
    "c,h", [(Q(1, 2), Q(1, 16)), (Q(-22, 5), Q(-1, 5)), (Q(1), Q(3))]
)
def test_virasoro_frozen_values(c, h):
    voa = VirasoroVoa(c, depth=6)
    verma = VermaModule(voa, h)
    for mode, key, expected in virasoro_frozen_cases(c, h):
        # apply_gen(k) is L(k-1)
        result = verma.apply_gen(mode + 1, key)
        assert result == {k: v for k, v in expected.items() if v}, (mode, key)


@pytest.mark.parametrize("c,h", [(Q(1, 2), Q(1, 2)), (Q(-22, 5), Q(0))])
def test_virasoro_bracket_on_states(c, h):
    """[L(m), L(n)] = (m-n) L(m+n) + c/12 (m^3-m) delta on Verma states."""
    voa = VirasoroVoa(c, depth=6)
    module = VermaModule(voa, h)
    for level in range(4):
        for key in module.keys(level):
            state = {key: Q(1)}
            for m in range(-3, 4):
                for n in range(-3, 4):
                    lhs = apply_raw(module, m + 1, apply_raw(module, n + 1, state))
                    raw_combine(lhs, apply_raw(module, n + 1, apply_raw(module, m + 1, state)), Q(-1))
                    rhs = apply_raw(module, m + n + 1, state)
                    rhs = {k: Q(m - n) * v for k, v in rhs.items()}
                    if m + n == 0:
                        central = c * Q(m ** 3 - m, 12)
                        if central:
                            raw_combine(rhs, state, central)
                    assert lhs == {k: v for k, v in rhs.items() if v}, (m, n, key)


def test_virasoro_vacuum_bracket_and_translation():
    voa = VirasoroVoa(Q(1, 2), depth=6)
    # L(-1)|0> = 0 but L(-1) L(-2)|0> = L(-3)|0> + ... is nonzero
    assert voa.apply_gen(0, ()) == {}
    assert voa.apply_gen(0, (2,)) == {(3,): Q(1)}
    assert voa.apply_gen(1, (2,)) == {(2,): Q(2)}  # L(0) grading
    for level in range(5):
        for key in voa.keys(level):
            assert voa.apply_gen(1, key) == ({key: Q(level)} if level else {})


def test_shapovalov_level2_from_action():
    c, h = Q(1, 2), Q(1, 16)
    voa = VirasoroVoa(c, depth=4)
    verma = VermaModule(voa, h)
    basis = [(1, 1), (2,)]
    gram = [[None, None], [None, None]]
    for i, left in enumerate(basis):
        for j, right in enumerate(basis):
            # <L(-a)...|h>, x> = coefficient of |h> in L(a)... x
            state = {right: Q(1)}
            for part in left:
                state = apply_raw(verma, part + 1, state)
            gram[i][j] = state.get((), Q(0))
    assert gram == shapovalov_level2(c, h)


# ----------------------------------------------------------------------
# quotients

def test_level2_singular_vector_is_on_curve():
    h = Q(1, 2)
    assert level2_singular_charge(h) == Q(1, 2)
    voa = VirasoroVoa(Q(1, 2), depth=6)
    verma = VermaModule(voa, h)
    sing = dict(level2_singular_vector(Q(1, 2), h))
    for positive_mode in (2, 3):
        assert apply_raw(verma, positive_mode, sing) == {}


def test_quotient_rejects_non_singular_vectors():
    voa = VirasoroVoa(Q(1), depth=5)
    verma = VermaModule(voa, Q(1, 2))
    with pytest.raises(InputShapeError):
        QuotientModule(verma, (level2_singular_vector(Q(1), Q(1, 2)),))
    with pytest.raises(InputShapeError):
        QuotientModule(verma, ((((1,), Q(1)), ((2, 1), Q(1))),))  # inhomogeneous


@pytest.mark.parametrize("h", [Q(1, 2), Q(1, 16)])
def test_quotient_dimensions_match_independent_rank(h):
    c = level2_singular_charge(h)
    voa = VirasoroVoa(c, depth=6)
    verma = VermaModule(voa, h)
    quotient = QuotientModule(verma, (level2_singular_vector(c, h),))
    sing = dict(level2_singular_vector(c, h))
    for n in range(0, 7):
        # independent spanning set: creation words on the singular vector
        span = []
        for word in partitions_of(n - 2, 1):
            vec = dict(sing)
            for part in reversed(word):
                vec = apply_raw(verma, 1 - part, vec)
            span.append(dense_coords(verma, vec, n))
        expected = partition_count(n, 1) - sympy_rank(span)
        assert quotient.dim(n) == expected, n


def test_quotient_map_is_a_module_map():
    c, h = Q(1, 2), Q(1, 2)
    voa = VirasoroVoa(c, depth=5)
    verma = VermaModule(voa, h)
    quotient = QuotientModule(verma, (level2_singular_vector(c, h),))
    rng = random.Random(7)
    for level in range(0, 5):
        for key in verma.keys(level):
            x = {key: Q(rng.randint(1, 5))}
            for k in range(0, 5):
                lhs = quotient.reduce_parent_raw(apply_raw(verma, k, x))
                rhs = {}
                for qkey, coeff in quotient.reduce_parent_raw(x).items():
                    raw_combine(rhs, quotient.apply_gen(k, qkey), coeff)
                assert lhs == rhs, (key, k)
    # the singular vector itself maps to zero
    assert quotient.reduce_parent_raw(dict(level2_singular_vector(c, h))) == {}


def test_vacuum_quotient_via_found_singular_vector():
    c = Q(1, 2)
    voa = VirasoroVoa(c, depth=8)
    assert singular_vectors_at(voa, 4) == []
    found = singular_vectors_at(voa, 6)
    assert len(found) == 1
    quotient = VirasoroQuotientVoa(c, (tuple(found[0].items()),), depth=8)
    for n in range(9):
        span = []
        for word in partitions_of(n - 6, 1):
            vec = dict(found[0])
            for part in reversed(word):
                vec = apply_raw(voa, 1 - part, vec)
            span.append(dense_coords(voa, vec, n))
        assert quotient.dim(n) == voa.dim(n) - sympy_rank(span), n
    assert quotient.dim(6) == voa.dim(6) - 1


def _memo_quotients():
    c = Q(1, 2)
    voa = VirasoroVoa(c, depth=7)
    return [
        *(QuotientModule(VermaModule(voa, h), [level2_singular_vector(c, h)])
          for h in (Q(1, 16), Q(1, 2))),
        VirasoroQuotientVoa(c, singular_vectors_at(voa, 6), depth=7),
    ]


@pytest.mark.parametrize("index", range(3), ids=["sigma", "epsilon", "vacuum-quotient"])
def test_memoized_quotient_generator_images_equal_fresh_reductions(index):
    # the mode engine's generator table holds each quotient image once
    quotient = _memo_quotients()[index]
    engine = engine_for(quotient)
    gw = quotient.voa.gen_weight
    for n in range(quotient.depth + 1):
        for key in quotient.keys(n):
            for k in range(n + gw - 1 - quotient.depth, n + gw):
                image = engine.gen_image(k, key)
                nums, den = image
                fresh = quotient.reduce_parent_raw(quotient.parent.apply_gen(k, key))
                assert {out: Q(c, den) for out, c in nums.items()} == fresh, (n, key, k)
                assert engine.gen_image(k, key) is image


QUOTIENT_DEPTH = 11


def _verma_quotient(c, h, next_level=None):
    """The Verma quotient by the level-two vector and, if given, the
    Fraction vector ``singular_vectors_at`` finds at ``next_level``."""
    verma = VermaModule(VirasoroVoa(c, depth=QUOTIENT_DEPTH), h)
    vectors = [dict(level2_singular_vector(c, h))]
    if next_level is not None:
        vectors += singular_vectors_at(verma, next_level)
    return QuotientModule(verma, vectors), vectors


def _vacuum_quotient():
    vectors = singular_vectors_at(VirasoroVoa(Q(1, 2), depth=6), 6)
    return VirasoroQuotientVoa(Q(1, 2), vectors, depth=QUOTIENT_DEPTH), vectors


ORACLE_QUOTIENTS = {
    "ising-sigma": lambda: _verma_quotient(Q(1, 2), Q(1, 16), 4),
    "ising-epsilon": lambda: _verma_quotient(Q(1, 2), Q(1, 2), 3),
    "lee-yang": lambda: _verma_quotient(Q(-22, 5), Q(-1, 5), 3),
    "tricritical": lambda: _verma_quotient(Q(7, 10), Q(1, 10)),
    "ising-sigma-level-two": lambda: _verma_quotient(Q(1, 2), Q(1, 16)),
    "vacuum-quotient": _vacuum_quotient,
}


@pytest.mark.parametrize("name", sorted(ORACLE_QUOTIENTS))
def test_tabulated_quotient_matches_the_word_by_word_build(name):
    # relations tabulated by prefix on integers give the keys and residuals
    # of the old build, which applies each creation word afresh in Fractions
    quotient, vectors = ORACLE_QUOTIENTS[name]()
    parent = quotient.parent
    rng = random.Random(29)
    for n in range(QUOTIENT_DEPTH + 1):
        keys, span, parent_keys = word_by_word_quotient_level(parent, vectors, n)
        assert quotient.keys(n) == keys, n
        elements = [{key: 1} for key in parent_keys]
        elements.append({key: Q(rng.randint(-9, 9), rng.randint(1, 5)) for key in parent_keys})
        for raw in elements:
            row = {parent_keys.index(key): c for key, c in raw.items() if c}
            expected = {parent_keys[col]: c for col, c in span.reduce(row).items()}
            got = quotient.reduce_parent_raw(raw)
            assert got == expected, (n, raw)
            assert all(type(c) is Q for c in got.values())


def test_quotients_take_singular_vectors_in_the_form_singular_vectors_at_returns():
    c, h = Q(1, 2), Q(1, 2)
    verma = VermaModule(VirasoroVoa(c, depth=6), h)
    # a nonzero multiple of the level-two vector, so the same quotient
    from_dicts = QuotientModule(verma, singular_vectors_at(verma, 2))
    from_pairs = QuotientModule(verma, (level2_singular_vector(c, h),))
    for n in range(7):
        assert from_dicts.keys(n) == from_pairs.keys(n), n
    vacuum = singular_vectors_at(VirasoroVoa(c, depth=6), 6)
    assert (VirasoroQuotientVoa(c, vacuum, depth=6).spec
            == VirasoroQuotientVoa(c, (tuple(vacuum[0].items()),), depth=6).spec)


# ----------------------------------------------------------------------
# generator mode matrices against the plain dict oracle

def _mode_matrix_modules():
    heisenberg = HeisenbergVoa(depth=4)
    c = Q(1, 2)
    verma = VermaModule(VirasoroVoa(c, depth=4), Q(1, 16))
    h = heisenberg_intertwiner(1, 2, 3)
    return {
        "fock": FockModule(heisenberg, Q(1, 2)),
        "verma": verma,
        "quotient": QuotientModule(verma, (level2_singular_vector(c, Q(1, 16)),)),
        "direct-sum": DirectSumModule((FockModule(heisenberg, 1), FockModule(heisenberg, Q(-1, 2)))),
        "join-target": join(h, h.scale(Q(-3, 4))).target,
    }


@pytest.mark.parametrize("name", ["fock", "verma", "quotient", "direct-sum", "join-target"])
def test_mode_matrix_matches_the_generator_matrix_oracle(name):
    module = _mode_matrix_modules()[name]
    gw = module.voa.gen_weight
    seen = set()
    for src in range(module.depth + 1):
        # every mode whose target level lies in [-1, depth]
        for k in range(src + gw - 1 - module.depth, src + gw + 1):
            dst = src + gw - 1 - k
            matrix = mode_matrix(module, k, src, dst)
            oracle = _generator_matrix(module, k, src, dst)
            rows, cols = module.dim(dst), module.dim(src)
            assert (matrix.rows, matrix.cols) == (rows, cols)
            assert [dense(row, cols) for row in matrix.data] == [
                tuple(oracle.get((r, c), 0) for c in range(cols)) for r in range(rows)], (k, src, dst)
            seen.add("lowering" if dst < src else "raising" if dst > src else "level")
            if dst < 0:
                seen.add("below zero")
    assert seen == {"lowering", "raising", "level", "below zero"}


@pytest.mark.parametrize("name", ["fock", "verma", "quotient", "direct-sum", "join-target"])
def test_coords_are_the_nonzero_entries_of_the_dense_oracle(name):
    module = _mode_matrix_modules()[name]
    gw = module.voa.gen_weight
    rng = random.Random(11)
    checked = 0
    for n in range(module.depth + 1):
        keys = module.keys(n)
        mixed = {key: rng.choice([0, 1, -2, Q(3, 5)]) for key in keys}
        # every generator mode image landing at level n
        images = [module.apply_gen(src + gw - 1 - n, key)
                  for src in range(module.depth + 1) for key in module.keys(src)]
        for raw in [mixed, *images]:
            row = module.coords(raw, n)
            assert type(row) is dict
            assert all(row.values()), (n, raw)
            assert dense(row, len(keys)) == dense_coords(module, raw, n), (n, raw)
            # values are kept as given, an int as an int
            assert all(row[keys.index(key)] is c for key, c in raw.items() if c)
            checked += 1
        above = module.keys(n + 1)
        if above:
            with pytest.raises(InputShapeError):
                module.coords({**mixed, above[0]: 1}, n)
    assert checked > module.depth + 1


def _oracle_singular_vectors(verma, level):
    gw = verma.voa.gen_weight
    rows = []
    for k in (2, 3):
        dst = level + gw - k - 1
        oracle = _generator_matrix(verma, k, level, dst)
        rows += [[oracle.get((r, c), 0) for c in range(verma.dim(level))]
                 for r in range(verma.dim(dst))]
    basis = sympy.Matrix(rows).nullspace() if rows else []
    keys = verma.keys(level)
    return [{keys[i]: Q(int(x.p), int(x.q)) for i, x in enumerate(vec) if x} for vec in basis]


@pytest.mark.parametrize("h, level, count", [
    (Q(1, 2), 2, 1),
    (Q(1, 2), 3, 1),
    (Q(5, 3), 3, 1),
    # (4r - 3s)^2 = 17 has no solution: no singular vector at c = 1/2
    (Q(1, 3), 2, 0),
    (Q(1, 3), 3, 0),
])
def test_singular_vectors_at_matches_the_sympy_nullspace(h, level, count):
    verma = VermaModule(VirasoroVoa(Q(1, 2), depth=level), h)
    found = singular_vectors_at(verma, level)
    assert found == _oracle_singular_vectors(verma, level)
    assert len(found) == count


# ----------------------------------------------------------------------
# direct sums and factories

def test_direct_sum_structure():
    voa = HeisenbergVoa(depth=4)
    a = FockModule(voa, Q(1))
    b = FockModule(voa, Q(2))
    total = DirectSumModule((a, b))
    for n in range(5):
        assert total.dim(n) == a.dim(n) + b.dim(n)
    key = (1, (2, 1))
    assert total.level_of(key) == 3
    assert total.weight_of(key) == Q(2) + 3
    assert total.apply_gen(1, key) == {(1, k): c for k, c in b.apply_gen(1, (2, 1)).items()}
    assert total.label(key) == "[1]a(-2)a(-1)|2>"


def test_empty_direct_sum_is_the_zero_module():
    zero = DirectSumModule((), depth=4)
    assert [zero.dim(n) for n in range(5)] == [0, 0, 0, 0, 0]


def test_direct_sum_rejects_mixed_algebras():
    h = HeisenbergVoa(depth=3)
    v = VirasoroVoa(Q(1), depth=3)
    with pytest.raises(InputShapeError):
        DirectSumModule((FockModule(h, 1), VermaModule(v, 0)))


def test_factories_roundtrip_specs():
    voa = realize_voa(VoaSpec(kind="heisenberg"), depth=5)
    assert isinstance(voa, HeisenbergVoa) and voa.depth == 5
    spec = ModuleSpec(
        kind="direct-sum",
        summands=(
            ModuleSpec(kind="fock", charge=Q(1)),
            ModuleSpec(kind="fock", charge=Q(-1, 2)),
        ),
    )
    total = realize_module(spec, voa)
    assert isinstance(total, DirectSumModule)
    assert total.spec == spec
    vir = realize_voa(VoaSpec(kind="virasoro", central_charge=Q(1, 2)), depth=4)
    quot = realize_module(
        ModuleSpec(
            kind="quotient",
            highest_weight=Q(1, 2),
            singular_vectors=(level2_singular_vector(Q(1, 2), Q(1, 2)),),
        ),
        vir,
    )
    assert isinstance(quot, QuotientModule)
    with pytest.raises(InputShapeError):
        realize_module(ModuleSpec(kind="fock", charge=Q(1)), vir)
