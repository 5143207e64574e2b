"""Tests for C_m subspaces, complements, weight support, and log bounds."""

from fractions import Fraction as Q
from math import factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import dense, partition_count, sympy_rank
from vertexbound import cofinite, linalg
from vertexbound.cofinite import (
    build_cm,
    choose_complement,
    cm_quotient_dims,
    graded_dims,
    log_power_bound,
    log_recursion_state,
    nilpotency_report,
)
from vertexbound.errors import (
    InputShapeError,
    NotCofiniteUpToDepth,
    TruncationError,
)
from vertexbound.modes import GradedVector, basis_vectors, mode_action
from vertexbound.voa import (
    DirectSumModule,
    FockModule,
    HeisenbergVoa,
    QuotientModule,
    VermaModule,
    VirasoroVoa,
    level2_singular_vector,
)


def heisenberg_setup(depth=6):
    voa = HeisenbergVoa(depth)
    return voa, FockModule(voa, 1)


def virasoro_setup(c, h, depth=8):
    voa = VirasoroVoa(Q(c), depth)
    return voa, VermaModule(voa, Q(h))


def level2_quotient(depth=8):
    # (c, h) = (1/2, 1/2) lies on the level-two singular curve
    voa = VirasoroVoa(Q(1, 2), depth)
    verma = VermaModule(voa, Q(1, 2))
    return voa, verma, QuotientModule(
        verma, [level2_singular_vector(Q(1, 2), Q(1, 2))]
    )


def cm_spanning_rows(module, m, level) -> list:
    """Every ``v_{-m} u`` landing at ``level``, through the public vector layer.

    Runs over all homogeneous pairs with ``wt(v) > 1 - m``, the vacuum
    included when ``m >= 2``, without any of the engine's level
    bookkeeping or early stopping.
    """
    rows = []
    for wt in range(max(0, 2 - m), level - m + 2):
        for v in basis_vectors(module.voa, wt):
            for u in basis_vectors(module, level - wt - m + 1):
                image = mode_action(v, -m, u)
                assert not image.truncated
                rows.append(image.coords_at(level))
    return rows


def c1_rank_oracle(module, level) -> int:
    """Exhaustive C_1 spanning rank, eliminated by sympy."""
    return sympy_rank(cm_spanning_rows(module, 1, level))


def cm_rref_oracle(module, m, level) -> list:
    """Nonzero rows of sympy's rref of the exhaustive C_m spanning set."""
    rows = cm_spanning_rows(module, m, level)
    if not rows:
        return []
    reduced, pivots = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
    ).rref()
    return [
        tuple(Q(int(c.p), int(c.q)) for c in reduced.row(i))
        for i in range(len(pivots))
    ]


# ----------------------------------------------------------------------
# quotient dimensions against the brute-force span oracle

def test_virasoro_voa_c1_quotient_dims():
    for c in (Q(1, 2), Q(-22, 5)):
        voa = VirasoroVoa(c, 8)
        dims = cm_quotient_dims(voa, 1, 4)
        assert dims == [1, 0, 0, 0, 0]
        for n in range(5):
            assert voa.dim(n) - c1_rank_oracle(voa, n) == dims[n]


def test_fock_c1_quotient_dims():
    voa, fock = heisenberg_setup()
    dims = cm_quotient_dims(fock, 1, 4)
    assert dims == [1, 0, 0, 0, 0]
    for n in range(5):
        assert fock.dim(n) - c1_rank_oracle(fock, n) == dims[n]


def test_verma_c1_quotient_dims():
    voa, verma = virasoro_setup(Q(1, 2), Q(1, 16))
    dims = cm_quotient_dims(verma, 1, 4)
    assert dims == [1, 1, 1, 1, 1]
    for n in range(5):
        assert verma.dim(n) - c1_rank_oracle(verma, n) == dims[n]


def test_level2_quotient_c1_dims():
    voa, verma, quot = level2_quotient()
    dims = cm_quotient_dims(quot, 1, 4)
    assert dims == [1, 1, 0, 0, 0]
    for n in range(5):
        assert quot.dim(n) - c1_rank_oracle(quot, n) == dims[n]


def test_negative_charge_fock_matches_oracle():
    voa = HeisenbergVoa(6)
    fock = FockModule(voa, Q(-3, 2))
    dims = cm_quotient_dims(fock, 1, 4)
    for n in range(5):
        assert fock.dim(n) - c1_rank_oracle(fock, n) == dims[n]


def oracle_modules():
    heis = HeisenbergVoa(9)
    vir = VirasoroVoa(Q(1, 2), 9)
    ising = [
        QuotientModule(VermaModule(vir, h), [level2_singular_vector(Q(1, 2), h)])
        for h in (Q(1, 16), Q(1, 2))
    ]
    return [
        ("heisenberg", heis, 6),
        ("fock(1)", FockModule(heis, 1), 6),
        ("fock(-2)", FockModule(heis, -2), 6),
        ("virasoro c=1/2", vir, 6),
        ("verma h=1/16", VermaModule(vir, Q(1, 16)), 6),
        ("ising sigma", ising[0], 6),
        ("ising epsilon", ising[1], 6),
    ]


@pytest.mark.parametrize("m", [1, 2])
def test_cm_spans_equal_the_exhaustive_rref(m):
    # the stop rule may skip images; the reduced rows must not notice
    for name, module, depth in oracle_modules():
        cm = build_cm(module, m, depth)
        for n in range(depth + 1):
            expected = cm_rref_oracle(module, m, n)
            rows = [dense(row, module.dim(n)) for row in cm.levels[n].span.rows()]
            assert rows == expected, (name, m, n)
            assert cm.levels[n].rank == len(expected), (name, m, n)


@pytest.mark.parametrize("m", [1, 2])
def test_cm_level_pairs_are_the_pivot_columns(m):
    # with every spanning image as a column, in enumeration order, the
    # pairs that grew a level are exactly the rref pivot columns
    for name, module, depth in oracle_modules():
        cm = build_cm(module, m, depth)
        for n in range(depth + 1):
            keys = [
                (v_key, u_key)
                for wt in range(max(0, 2 - m), n - m + 2)
                for v_key in module.voa.keys(wt)
                for u_key in module.keys(n - wt - m + 1)
            ]
            rows = cm_spanning_rows(module, m, n)
            pivots = ()
            if rows:
                pivots = sympy.Matrix(
                    [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
                ).T.rref()[1]
            assert cm.levels[n].pairs == [keys[j] for j in pivots], (name, m, n)


@pytest.mark.parametrize("which", ["fock", "sigma"])
def test_build_cm_never_feeds_a_full_span(monkeypatch, which):
    if which == "fock":
        module = FockModule(HeisenbergVoa(10), 1)
    else:
        vir = VirasoroVoa(Q(1, 2), 11)
        module = QuotientModule(
            VermaModule(vir, Q(1, 16)), [level2_singular_vector(Q(1, 2), Q(1, 16))]
        )
    full_adds = []
    original = linalg.RowSpan.add

    def counting_add(self, vec):
        full_adds.append(self.rank == self.width)
        return original(self, vec)

    monkeypatch.setattr(linalg.RowSpan, "add", counting_add)
    cm = build_cm(module, 1, 9)
    assert full_adds and not any(full_adds)
    assert cm.levels[9].rank == module.dim(9)


# ----------------------------------------------------------------------
# structural invariants

def standard_modules():
    voa_h, fock = heisenberg_setup()
    voa_v, verma = virasoro_setup(Q(1, 2), Q(1, 16))
    _, _, quot = level2_quotient()
    return [fock, verma, quot, voa_v]


def test_c2_is_contained_in_c1():
    for module in standard_modules():
        c1 = build_cm(module, 1, 3)
        c2 = build_cm(module, 2, 3)
        for n in range(4):
            for row in c2.levels[n].span.rows():
                assert c1.levels[n].span.contains(row)


def test_c1_meets_the_lowest_level_trivially():
    for module in standard_modules():
        cm = build_cm(module, 1, 3)
        assert cm.levels[0].rank == 0
        assert cm.quotient_dims[0] == module.dim(0)


def test_surjection_maps_c1_onto_c1():
    # the quotient map Verma -> Verma/<s> carries C_1 onto C_1 levelwise
    voa, verma, quot = level2_quotient()
    cm_parent = build_cm(verma, 1, 4)
    cm_quot = build_cm(quot, 1, 4)
    for n in range(5):
        image_rows = []
        for row in cm_parent.levels[n].span.rows():
            raw = {verma.keys(n)[j]: c for j, c in row.items()}
            image = quot.reduce_parent_raw(raw)
            if image:
                image_rows.append(quot.coords(image, n))
        for row in image_rows:
            assert cm_quot.levels[n].span.contains(row)
        assert sympy_rank([dense(row, quot.dim(n)) for row in image_rows]) == cm_quot.levels[n].rank


def test_membership_queries():
    voa, fock = heisenberg_setup()
    cm = build_cm(fock, 1, 4)
    assert cm.contains(GradedVector.basis_vector(fock, (1,)))
    assert not cm.contains(GradedVector.basis_vector(fock, ()))

    vvoa = VirasoroVoa(Q(1, 2), 8)
    cmv = build_cm(vvoa, 1, 4)
    assert cmv.contains(GradedVector.basis_vector(vvoa, (2,)))

    flagged = GradedVector.zero(fock, truncated=True)
    with pytest.raises(TruncationError):
        cm.contains(flagged)
    with pytest.raises(InputShapeError):
        cm.contains(GradedVector.basis_vector(vvoa, (2,)))


def test_depth_guards():
    voa, fock = heisenberg_setup(depth=4)
    with pytest.raises(TruncationError):
        cm_quotient_dims(fock, 1, 4)  # needs module depth >= 5
    with pytest.raises(InputShapeError):
        cm_quotient_dims(fock, 0, 2)
    with pytest.raises(InputShapeError):
        cm_quotient_dims(fock, 1, -1)
    vvoa = VirasoroVoa(Q(1, 2), 5)
    with pytest.raises(TruncationError):
        cm_quotient_dims(vvoa, 1, 4)  # needs algebra depth >= 6


# ----------------------------------------------------------------------
# complements

def test_complement_of_level2_quotient():
    _, _, quot = level2_quotient()
    basis = choose_complement(quot, 4)
    assert basis.window == 1
    assert basis.labels == [(0, ()), (1, (1,))]
    assert basis.lowest_weight == Q(1, 2)
    assert basis.vectors[1] == GradedVector.basis_vector(quot, (1,))


def test_complement_of_fock():
    _, fock = heisenberg_setup()
    basis = choose_complement(fock, 4)
    assert basis.window == 0
    assert basis.labels == [(0, ())]
    assert basis.describe_labels() == [{"level": 0, "monomial": "|1>"}]


def test_complement_of_virasoro_voa():
    voa = VirasoroVoa(Q(-22, 5), 8)
    basis = choose_complement(voa, 4)
    assert basis.window == 0
    assert basis.labels == [(0, ())]


def test_verma_is_not_cofinite_within_depth():
    _, verma = virasoro_setup(Q(1, 2), Q(1, 16))
    with pytest.raises(NotCofiniteUpToDepth):
        choose_complement(verma, 4)


def test_complement_of_direct_sum():
    voa = HeisenbergVoa(6)
    total = DirectSumModule([FockModule(voa, 1), FockModule(voa, 2)])
    basis = choose_complement(total, 4)
    assert basis.window == 0
    assert basis.labels == [(0, (0, ())), (0, (1, ()))]
    assert [v.to_raw() for v in basis.vectors] == [
        {(0, ()): Q(1)},
        {(1, ()): Q(1)},
    ]
    assert basis.summands is not None and len(basis.summands) == 2


def test_complement_of_empty_sum():
    total = DirectSumModule([])
    basis = choose_complement(total, 0)
    assert basis.window == -1
    assert basis.vectors == []


def test_complement_is_deterministic():
    first = choose_complement(level2_quotient()[2], 4)
    second = choose_complement(level2_quotient()[2], 4)
    assert first.labels == second.labels


def test_complement_plus_c1_spans_each_level():
    for module in standard_modules()[:3]:
        cm = build_cm(module, 1, 3)
        try:
            basis = choose_complement(module, 3)
        except NotCofiniteUpToDepth:
            continue
        for n in range(4):
            rows = [list(dense(row, module.dim(n))) for row in cm.levels[n].span.rows()]
            rows.extend(
                vec.coords_at(n)
                for vec, (level, _) in zip(basis.vectors, basis.labels)
                if level == n
            )
            assert sympy_rank(rows) == module.dim(n)


# ----------------------------------------------------------------------
# graded dimensions and certificates

def test_fock_dims_are_partition_numbers():
    _, fock = heisenberg_setup()
    report = graded_dims(fock, 5)
    assert report.dims == [partition_count(n) for n in range(6)]
    assert report.window == 0
    assert all(flag is True for flag in report.certified)
    assert report.quotient_dims == [1, 0, 0, 0, 0, 0]


def test_verma_dims_certified_without_window():
    _, verma = virasoro_setup(Q(1, 2), Q(1, 16))
    report = graded_dims(verma, 6)
    assert report.dims == [partition_count(n) for n in range(7)]
    assert report.window is None
    assert all(flag is True for flag in report.certified)
    assert report.quotient_dims == [1] * 7


def test_dims_beyond_the_certificate_window():
    _, fock = heisenberg_setup(depth=6)
    report = graded_dims(fock, 6)
    # certification stops one level short of the truncation depth
    assert report.dims == [partition_count(n) for n in range(7)]
    assert report.certified[:6] == [True] * 6
    assert report.certified[6] is None
    assert report.c1_ranks[6] is None


def test_dims_certified_only_up_to_the_algebra_depth():
    # a module realized deeper than its algebra: levels past the
    # algebra depth lack spanning weights, so they carry None
    fock = FockModule(HeisenbergVoa(2), 1, depth=8)
    report = graded_dims(fock, 6)
    assert report.certified == [True] * 3 + [None] * 4
    assert report.c1_ranks == [0, 1, 2, None, None, None, None]
    assert report.window == 0
    verma = VermaModule(VirasoroVoa(1, 3), 0, depth=9)
    report = graded_dims(verma, 7)
    assert report.certified == [True] * 4 + [None] * 4
    assert report.dims == [partition_count(n) for n in range(8)]


def test_direct_sum_dims_and_certificate():
    voa = HeisenbergVoa(6)
    total = DirectSumModule([FockModule(voa, 1), FockModule(voa, 2)])
    report = graded_dims(total, 4)
    assert report.dims == [2 * partition_count(n) for n in range(5)]
    assert report.quotient_dims[:1] == [2]
    assert report.window == 0
    assert all(flag is True for flag in report.certified)
    # and the sum's quotient dims agree with the summand-wise sums
    per_summand = [cm_quotient_dims(s, 1, 4) for s in total.summands]
    assert cm_quotient_dims(total, 1, 4) == [
        a + b for a, b in zip(*per_summand)
    ]


# ----------------------------------------------------------------------
# nilpotency of L(0) - wt

def test_realized_modules_are_semisimple():
    voa = HeisenbergVoa(5)
    summed = DirectSumModule([FockModule(voa, 1), FockModule(voa, Q(-1, 2))])
    targets = [FockModule(voa, Q(3, 2)), summed, level2_quotient()[2]]
    for module in targets:
        report = nilpotency_report(module, 4)
        assert report.global_order == 1
        for n in range(5):
            expected = 1 if module.dim(n) else 0
            assert report.per_level[n] == expected


def test_nilpotency_depth_guard():
    voa = HeisenbergVoa(3)
    with pytest.raises(TruncationError):
        nilpotency_report(FockModule(voa, 1), 5)


# ----------------------------------------------------------------------
# the log power bound

def multinomial_state(orders, k):
    """Closed form for the iterated state: surviving monomials of
    (-x + y + z)^k / k! modulo x^N_T, y^N_U, z^N_W."""
    n_u, n_w, n_t = orders
    out = {}
    for a in range(min(k, n_t - 1) + 1):
        for b in range(min(k - a, n_u - 1) + 1):
            c = k - a - b
            if 0 <= c < n_w:
                out[(a, b, c)] = Q((-1) ** a, factorial(a) * factorial(b) * factorial(c))
    return out


def test_log_power_bound_examples():
    cases = [
        ((1, 1, 1), 3, 1),
        ((2, 2, 2), 6, 4),
        ((1, 1, 2), 6, 2),
        ((3, 1, 2), 9, 4),
    ]
    for orders, coarse, sharp in cases:
        bound = log_power_bound(*orders)
        assert bound.coarse_bound == coarse
        assert bound.sharp_bound == sharp
        assert bound.attained
        assert bound.sharp_bound <= bound.coarse_bound


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_log_recursion_matches_multinomial_oracle(n_u, n_w, n_t):
    orders = (n_u, n_w, n_t)
    for k in range(n_u + n_w + n_t):
        assert log_recursion_state(orders, k) == multinomial_state(orders, k)
    bound = log_power_bound(n_u, n_w, n_t)
    assert bound.sharp_bound == n_u + n_w + n_t - 2
    assert bound.coarse_bound == 3 * max(orders)


@pytest.mark.parametrize("orders", [(1, 1, 1), (2, 2, 2), (3, 1, 2), (10, 10, 10)])
def test_log_recursion_is_walked_once(monkeypatch, orders):
    steps = []
    original = cofinite._log_step

    def counting(state, step, orders):
        steps.append(step)
        return original(state, step, orders)

    monkeypatch.setattr(cofinite, "_log_step", counting)
    bound = log_power_bound(*orders)
    # one step per log coefficient, up to the first that vanishes
    assert steps == list(range(bound.sharp_bound))
    for k in (0, 3, bound.sharp_bound + 2):
        steps.clear()
        log_recursion_state(orders, k)
        assert steps == list(range(min(k, bound.sharp_bound)))


def test_log_power_bound_rejects_bad_orders():
    with pytest.raises(InputShapeError):
        log_power_bound(0, 1, 1)
    with pytest.raises(InputShapeError):
        log_power_bound(1, -2, 1)
