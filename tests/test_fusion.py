"""Tests for intertwiner data, joins, and the pair order."""

import json
import random
from math import lcm
from fractions import Fraction as Q

import pytest

from bruteforce import (
    apply_witness,
    commutator_defect,
    correlator,
    dense,
    fock_top_correlator,
    fock_vertex_coefficients,
    fraction_gauss_jordan,
    materialized_twist,
    mode_image,
    per_direction_witness,
    scaled_join_series,
    series_vector,
    sparse,
    surjective,
    sympy_rank,
    witness_holds,
)
from vertexbound import fusion, linalg
from vertexbound.cofinite import choose_complement, cm_quotient_dims
from vertexbound.errors import InputShapeError, InternalInvariantViolation
from vertexbound.fusion import (
    IntertwinerData,
    compare,
    heisenberg_intertwiner,
    join,
    zero_intertwiner,
)
from vertexbound.laurent import format_rational
from vertexbound.modes import GradedVector, engine_for, mode_action
from vertexbound.reduction import fusion_bound
from vertexbound.voa import DirectSumModule, FockModule, HeisenbergVoa, LevelCapExceeded, mode_matrix


TOP_DUAL = {0: (Q(1),)}


def zero_coords(module, level):
    return tuple([Q(0)] * module.dim(level))


# ----------------------------------------------------------------------
# the free-boson vertex operator

def test_top_mode_takes_highest_weight_pairs_to_the_target_top():
    h = heisenberg_intertwiner(1, 2, 4)
    assert h.images(((), (), 0))[0] == (Q(1),)
    # the top coefficient is the mode of index -lam*mu - 1
    assert h.mode_index((), (), 0) == -3


def test_low_level_images_match_hand_computation():
    h = heisenberg_intertwiner(1, 2, 4)
    # exp(lam sum a(-t) z^t / t) alone feeds level 1 of Y(|1>, z)|2>
    assert h.images(((), (), 0))[1] == (Q(1),)
    # a(-1)|1> picks up the charge at leading order, then mixes
    assert h.images(((1,), (), 0))[0] == (Q(2),)
    assert h.images(((1,), (), 0))[1] == (Q(3),)  # 1 + lam*mu


def test_zero_charge_on_the_left_reduces_to_the_module_action():
    mu = Q(3, 2)
    h = heisenberg_intertwiner(0, mu, 3)
    eng = engine_for(h.target)
    for lu in range(4):
        for u_key in h.source_left.keys(lu):
            for lw in range(4):
                for w_key in h.source_right.keys(lw):
                    entry = h.images((u_key, w_key, 0))
                    for lt in range(4):
                        mode = lu + lw - 1 - lt
                        nums, den = eng.apply_word(u_key, mode, w_key)
                        raw = {key: Q(c, den) for key, c in nums.items()}
                        want = dense(h.target.coords(raw, lt), h.target.dim(lt))
                        got = entry.get(lt, zero_coords(h.target, lt))
                        assert tuple(got) == tuple(want)


@pytest.mark.parametrize("lam,mu", [(Q(1), Q(2)), (Q(1, 2), Q(-3, 2))])
def test_top_correlators_match_the_bruteforce_kernel(lam, mu):
    depth = 5
    h = heisenberg_intertwiner(lam, mu, depth)
    for lu in range(3):
        for u_key in h.source_left.keys(lu):
            for lw in range(3):
                for w_key in h.source_right.keys(lw):
                    oracle = fock_top_correlator({u_key: Q(1)}, lam, {w_key: Q(1)}, mu)
                    assert correlator(h, TOP_DUAL, u_key, w_key) == oracle


ORACLE_CASES = [
    (Q(1), Q(2), 4), (Q(1, 2), Q(3, 2), 4), (Q(0), Q(2), 4), (Q(-3, 7), Q(0), 4),
    (Q(2, 3), Q(-5, 2), 4),
    # denominators that differ, so the common denominator mixes them
    (Q(1, 6), Q(-5, 4), 4), (Q(0), Q(7, 3), 4), (Q(-4, 9), Q(1, 2), 4),
    (Q(1, 1000000007), Q(3, 1000000009), 3),
    # the charges and depth of the benchmark's ``order`` comparisons: the
    # merge lists index every partition up to the depth
    (Q(1, 2), Q(3, 2), 5),
]


@pytest.mark.parametrize("lam,mu,depth", ORACLE_CASES,
                         ids=[f"lam{i}-mu{i}" for i in range(len(ORACLE_CASES))])
def test_series_match_the_bruteforce_kernel_at_every_level(lam, mu, depth):
    h = heisenberg_intertwiner(lam, mu, depth)
    pairs = 0
    for lu in range(depth + 1):
        for u_key in h.source_left.keys(lu):
            for lw in range(depth + 1):
                for w_key in h.source_right.keys(lw):
                    oracle = fock_vertex_coefficients(u_key, w_key, lam, mu, depth)
                    entry = h.images((u_key, w_key, 0))
                    assert set(entry) == set(oracle)
                    for level, coords in entry.items():
                        keys = h.target.keys(level)
                        got = {k: c for k, c in zip(keys, coords) if c}
                        assert got == oracle[level]
                        assert all(type(c) is Q for c in coords)
                    pairs += 1
    basis = sum(len(h.source_left.keys(n)) for n in range(depth + 1))
    assert pairs == basis * basis


def test_correlator_is_linear_in_the_functional_and_the_datum():
    h = heisenberg_intertwiner(1, 1, 4)
    tripled = h.scale(3)
    theta = {0: (Q(1),), 1: (Q(2),)}
    base = correlator(h, theta, (1,), ())
    assert base and correlator(tripled, theta, (1,), ()) == {k: 3 * c for k, c in base.items()}
    doubled = {level: tuple(2 * c for c in coords) for level, coords in theta.items()}
    assert correlator(h, doubled, (1,), ()) == {k: 2 * c for k, c in base.items()}


@pytest.mark.parametrize("lam,mu", [(Q(1), Q(2)), (Q(1, 2), Q(1, 2))])
def test_transported_commutator_identities_hold_within_the_window(lam, mu):
    h = heisenberg_intertwiner(lam, mu, 4)
    checked = 0
    for u_key in [(), (1,), (2,), (1, 1)]:
        for w_key in [(), (1,), (2,)]:
            for mode in range(-2, 3):
                for final_level in range(5):
                    defect = commutator_defect(h, u_key, w_key, mode, final_level)
                    if defect is None:
                        continue
                    checked += 1
                    assert defect.is_zero()
    assert checked > 100


def test_mode_images_respect_bilinearity():
    # the commutator oracle reads the series through mode_image
    h = heisenberg_intertwiner(1, 2, 4)
    u = GradedVector.basis_vector(h.source_left, (1,)).scale(3)
    w = GradedVector.basis_vector(h.source_right, ())
    scaled = mode_image(h, u, w, 0, h.mode_index((1,), (), 0))
    assert not scaled.is_zero()
    assert scaled == series_vector(h, ((1,), (), 0), 0).scale(3)


def test_mode_images_flag_truncated_weight_slots():
    # the commutator oracle skips a case exactly when a slot is flagged
    h = heisenberg_intertwiner(1, 2, 2)
    top = GradedVector.basis_vector(h.source_left, ())
    w = GradedVector.basis_vector(h.source_right, ())
    # mode index below every stored slot lands past the cap
    image = mode_image(h, top, w, 0, h.mode_index((), (), 0) - 5)
    assert image.truncated
    assert image.is_zero()
    # non-integral slots are genuinely zero, not truncated
    off = mode_image(h, top, w, 0, h.mode_index((), (), 0) - Q(1, 2))
    assert off.is_zero() and not off.truncated


def test_surjectivity_certificate_is_full_for_the_fock_operator():
    h = heisenberg_intertwiner(1, 2, 4)
    cert = h.surjectivity_certificate()
    assert all(rank == dim for rank, dim in cert.values())
    assert surjective(h)
    zero = zero_intertwiner(h.source_left, h.source_right, 4)
    assert all(rank == dim == 0 for rank, dim in zero.surjectivity_certificate().values())
    assert surjective(zero)


def test_scaling_by_zero_is_rejected():
    h = heisenberg_intertwiner(1, 2, 3)
    with pytest.raises(InputShapeError):
        h.scale(0)


def test_truncation_depth_must_fit_inside_the_member_modules():
    voa = HeisenbergVoa(3)
    left = FockModule(voa, Q(1))
    right = FockModule(voa, Q(2))
    target = FockModule(voa, Q(3))
    with pytest.raises(InputShapeError):
        IntertwinerData(left, right, target, 5)


# ----------------------------------------------------------------------
# joins

def test_join_with_itself_is_a_diagonal_copy_of_the_target():
    h = heisenberg_intertwiner(1, 1, 4)
    jj = join(h, h)
    assert [jj.target.dim(n) for n in range(5)] == [h.target.dim(n) for n in range(5)]
    result = compare(jj, h)
    assert result.relation == "equivalent"
    assert witness_holds(result.witness)
    assert witness_holds(result.reverse_witness)


def test_join_with_a_scalar_twist_stays_equivalent_to_the_factor():
    h = heisenberg_intertwiner(1, 1, 4)
    mixed = join(h, h.scale(2))
    assert [mixed.target.dim(n) for n in range(5)] == [h.target.dim(n) for n in range(5)]
    assert compare(h, mixed).relation == "equivalent"


def test_join_with_the_zero_datum_recovers_the_factor():
    h = heisenberg_intertwiner(1, 1, 4)
    zero = zero_intertwiner(h.source_left, h.source_right, 4)
    recovered = join(h, zero)
    assert [recovered.target.dim(n) for n in range(5)] == [h.target.dim(n) for n in range(5)]
    assert compare(recovered, h).relation == "equivalent"
    assert join(zero, zero).target.dim(0) == 0


def test_join_never_feeds_a_full_level_span(monkeypatch):
    # only the joined targets' level spans count, not the spans that each
    # ExactMatrix elimination builds
    adds = []
    original = linalg.RowSpan.add

    def counting_add(self, vec):
        adds.append((self, self.rank == self.width))
        return original(self, vec)

    monkeypatch.setattr(linalg.RowSpan, "add", counting_add)
    h = heisenberg_intertwiner(1, 2, 4)
    zero = zero_intertwiner(h.source_left, h.source_right, 4)
    joined = [join(h, zero), join(h, h.scale(3))]
    # every recorded span is still alive, so ids identify spans
    level_spans = {id(span) for datum in joined for span in datum.target.spans.values()}
    full_adds = [full for span, full in adds if id(span) in level_spans]
    assert full_adds and not any(full_adds)


def test_join_offers_each_direction_once(monkeypatch):
    # the order workload's shape: three proportional twists, depth 4; only
    # the joined targets' level spans count, not the spans that each
    # ExactMatrix elimination builds
    offers = []
    original_add = linalg.RowSpan.add

    def recording_add(self, row):
        offers.append((self, dict(row)))
        return original_add(self, row)

    monkeypatch.setattr(linalg.RowSpan, "add", recording_add)
    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 4)
    inner = join(h.scale(Q(-3, 2)), h.scale(Q(5, 4)))
    joined = join(inner, h.scale(2))
    # every recorded span is still alive, so ids identify spans
    level_spans = {id(span) for datum in (inner, joined) for span in datum.target.spans.values()}
    keys = [(id(span), _direction(row)) for span, row in offers if id(span) in level_spans]
    assert keys and len(set(keys)) == len(keys)
    assert [joined.target.dim(n) for n in range(5)] == [h.target.dim(n) for n in range(5)]
    assert compare(joined, h).relation == "equivalent"


def _direction(row: dict) -> tuple:
    """The sparse row scaled to lead with 1, as sorted ``(col, value)`` pairs."""
    lead = Q(row[min(row)])
    return tuple(sorted((j, c / lead) for j, c in row.items()))


def test_join_rejects_mismatched_sources():
    with pytest.raises(InputShapeError):
        join(heisenberg_intertwiner(1, 2, 3), heisenberg_intertwiner(2, 1, 3))
    with pytest.raises(InputShapeError):
        join(heisenberg_intertwiner(1, 2, 3), heisenberg_intertwiner(1, 2, 4))


def test_join_is_an_upper_bound_of_both_factors():
    h = heisenberg_intertwiner(1, 2, 4)
    rng = random.Random(11)
    for _ in range(8):
        c1 = Q(rng.randint(1, 9), rng.randint(1, 9))
        c2 = -Q(rng.randint(1, 9), rng.randint(1, 9))
        p1, p2 = h.scale(c1), h.scale(c2)
        upper = join(p1, p2)
        for factor in (p1, p2):
            relation = compare(factor, upper).relation
            assert relation in {"less_eq", "equivalent"}


def test_join_is_idempotent_up_to_equivalence():
    h = heisenberg_intertwiner(1, 2, 3)
    twice = join(join(h, h.scale(2)), h)
    assert compare(twice, h).relation == "equivalent"


def gapped(h):
    """``h`` with every level-2 image dropped, a datum that is not surjective."""
    return IntertwinerData(h.source_left, h.source_right, h.target, h.depth, 0, {
        skey: {level: coords for level, coords in h.images(skey).items() if level != 2}
        for skey in h.series
    })


def direct_sum_pair(depth=4):
    """Y1, Y2 on U = Fock(1) + Fock(-2), W = Fock(1/2), one summand each.

    Each is the free-boson operator of its summand, re-keyed so its u
    keys name that summand, with its numerators and factor; the targets
    Fock(3/2) and Fock(-3/2) share the lowest weight 9/8.
    """
    voa = HeisenbergVoa(depth)
    parts = [heisenberg_intertwiner(lam, Q(1, 2), depth, voa) for lam in (Q(1), Q(-2))]
    left = DirectSumModule([p.source_left for p in parts], depth)
    right = parts[0].source_right
    return [
        IntertwinerData(left, right, p.target, depth, 0, {
            ((i, u_key), w_key, j): images for (u_key, w_key, j), images in p.series.items()
        }, p.factor)
        for i, p in enumerate(parts)
    ]


def test_direct_sum_sources_give_a_strict_order_and_an_incomparable_pair():
    y1, y2 = direct_sum_pair()
    modes = y1.to_json()["modes"]
    assert modes[0]["u"] == "[0]|1>" and len(modes) == len(y1.series)
    joined = join(y1, y2)
    assert [joined.target.dim(n) for n in range(5)] == [2, 2, 4, 6, 10]
    assert surjective(joined)
    assert compare(y1, y2).relation == "incomparable"
    below = compare(y1, joined)
    assert below.relation == "less_eq" and witness_holds(below.witness)
    above = compare(joined, y1)
    assert above.relation == "greater_eq" and witness_holds(above.witness)
    assert compare(y1, y1.scale(3)).relation == "equivalent"


def _spans_match_fraction_elimination(joined, factors):
    """Each level span of ``joined`` against rational Gauss-Jordan of its paired rows."""
    factors = [p for p in factors if any(p.target.dim(n) for n in range(p.depth + 1))]
    skeys = set().union(*(p.series for p in factors))
    for n in range(joined.depth + 1):
        width = sum(p.target.dim(n) for p in factors)
        rows = []
        for skey in skeys:
            row = []
            for p in factors:
                row.extend(p.images(skey).get(n) or zero_coords(p.target, n))
            rows.append(sparse(row))
        pivots = fraction_gauss_jordan(rows, width)
        expected = [dense(rows[i], width) for i, _ in pivots]
        assert [dense(row, width) for row in joined.target.spans[n].rows()] == expected, n


def test_join_spans_equal_rational_elimination_of_the_paired_rows():
    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 4)
    twists = [h.scale(Q(-3, 2)), h.scale(Q(5, 4)), h.scale(2)]
    inner = join(twists[0], twists[1])
    _spans_match_fraction_elimination(inner, twists[:2])
    _spans_match_fraction_elimination(join(inner, twists[2]), [inner, twists[2]])
    zero = zero_intertwiner(h.source_left, h.source_right, 4)
    _spans_match_fraction_elimination(join(h, zero), [h, zero])
    y1, y2 = direct_sum_pair()
    _spans_match_fraction_elimination(join(y1, y2), [y1, y2])


def _join_cases():
    """The factor lists of the joins this module builds, by shape."""
    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 4)
    twists = [h.scale(Q(-3, 2)), h.scale(Q(5, 4))]
    inner = join(*twists)
    h3 = heisenberg_intertwiner(1, 2, 3)
    zero = zero_intertwiner(h.source_left, h.source_right, 4)
    return {
        "twists": twists,
        "three-way": [inner, h.scale(2)],
        "with itself": [h, h],
        "negated": [h3, h3.scale(-1)],
        "twist of a join": [inner.scale(Q(5, 3)), h.scale(2)],
        "materialized twists": [materialized_twist(h, 2), materialized_twist(h, Q(-3, 4))],
        "zero datum": [h, zero],
        # the constructor takes a factor of zero: its block is all zeros
        "zero factor": [h.scale(2), IntertwinerData(
            h.source_left, h.source_right, h.target, 4, 0, h.series, 0)],
        "direct sums": direct_sum_pair(),
    }


@pytest.mark.parametrize("case", list(_join_cases()))
def test_join_series_equal_scaled_rows_reduced_against_the_span(case):
    factors = _join_cases()[case]
    joined = join(*factors)
    images = {skey: joined.images(skey) for skey in joined.series}
    assert images == scaled_join_series(joined, factors)
    # int numerators over one factor, 1 over the lcm of the denominators
    assert all(type(c) is int for levels in joined.series.values()
               for coords in levels.values() for c in coords)
    values = [c for levels in images.values() for coords in levels.values() for c in coords]
    assert joined.factor == Q(1, lcm(*(c.denominator for c in values)))
    assert all(type(c) is Q for c in values)


@pytest.mark.parametrize("case", list(_join_cases()))
def test_join_targets_are_closed_under_every_generator_mode(case):
    # the level spans are the paired coefficients alone; every generator
    # mode inside the window must map them into each other
    target = join(*_join_cases()[case]).target
    gw = target.voa.gen_weight
    for n in range(target.depth + 1):
        for k in range(n + gw - 1 - target.depth, n + gw):
            n2 = n + gw - 1 - k
            matrix = mode_matrix(target, k, n, n2)
            assert (matrix.rows, matrix.cols) == (target.dim(n2), target.dim(n))


def test_join_reads_each_level_span_once(monkeypatch):
    # the membership check divides a span's rows by their pivots once per
    # level, not once per free column
    cases = _join_cases()
    reads = []
    original = linalg.RowSpan.rows

    def counting_rows(self):
        reads.append(self)
        return original(self)

    monkeypatch.setattr(linalg.RowSpan, "rows", counting_rows)
    for case, factors in cases.items():
        reads.clear()
        joined = join(*factors)
        spans = joined.target.spans
        # eliminations read the spans they build; only the level spans count
        level_spans = {id(span) for span in spans.values()}
        level_reads = [span for span in reads if id(span) in level_spans]
        assert len(level_reads) == len(spans) == joined.depth + 1, case
        assert {id(span) for span in level_reads} == level_spans, case


def test_join_of_a_gapped_datum_leaves_its_gap_and_the_action_refuses_it():
    # no level-2 coefficient survives the gap, so the joined level 2 is
    # empty; the generator modes into it leave the target, and the first
    # one to run says so
    d = gapped(heisenberg_intertwiner(Q(1, 2), Q(3, 2), 4))
    joined = join(d, d.scale(2))
    assert [joined.target.dim(n) for n in range(5)] == [1, 1, 0, 3, 5]
    assert joined.surjectivity_certificate()[2] == (0, 0)
    g = GradedVector(joined.target.voa, joined.target.voa.generator_raw)
    top = GradedVector.basis_vector(joined.target, (0, 0))
    with pytest.raises(InternalInvariantViolation, match="span module is not closed"):
        mode_action(g, -2, top)


def test_join_refuses_a_paired_row_outside_its_span(monkeypatch):
    # a level span that lost a basis row
    original = fusion._reduced_basis
    monkeypatch.setattr(fusion, "_reduced_basis", lambda rows, parts: original(rows, parts)[:-1])
    h = heisenberg_intertwiner(1, 2, 3)
    with pytest.raises(InternalInvariantViolation, match="escaped its own span"):
        join(h, h.scale(2))


def test_report_mode_indices_are_the_mode_index_of_each_key():
    y1, y2 = direct_sum_pair()
    for datum in (y1, y2, join(y1, y2)):
        left, right = datum.source_left, datum.source_right
        u_keys = {left.label(k): k for n in range(datum.depth + 1) for k in left.keys(n)}
        w_keys = {right.label(k): k for n in range(datum.depth + 1) for k in right.keys(n)}
        seen = 0
        for mode in datum.to_json()["modes"]:
            u_key, w_key = u_keys[mode["u"]], w_keys[mode["w"]]
            for image in mode["images"]:
                want = datum.mode_index(u_key, w_key, image["level"])
                assert image["mode_index"] == format_rational(want)
                seen += 1
        assert seen


# ----------------------------------------------------------------------
# the order relation

def test_scalar_twists_are_equivalent_with_the_inverse_scalar_witness():
    h = heisenberg_intertwiner(1, 1, 4)
    result = compare(h, h.scale(2))
    assert result.relation == "equivalent"
    block = result.witness.blocks[0]
    assert block.entry(0, 0) == Q(1, 2)
    assert witness_holds(result.witness)
    top = GradedVector.basis_vector(h.target, ())
    assert apply_witness(result.witness, top) == top.scale(Q(1, 2))


def test_comparison_with_itself_yields_the_identity_witness():
    h = heisenberg_intertwiner(1, 2, 4)
    result = compare(h, h)
    assert result.relation == "equivalent"
    block = result.witness.blocks[2]
    dim = h.target.dim(2)
    for r in range(dim):
        for c in range(dim):
            assert block.entry(r, c) == (Q(1) if r == c else Q(0))


def test_the_zero_datum_is_the_bottom_of_the_order():
    h = heisenberg_intertwiner(1, 2, 4)
    zero = zero_intertwiner(h.source_left, h.source_right, 4)
    assert compare(zero, h).relation == "less_eq"
    assert compare(h, zero).relation == "greater_eq"
    other = zero_intertwiner(h.source_left, h.source_right, 4)
    assert compare(zero, other).relation == "equivalent"


def test_levelwise_inconsistent_twists_are_incomparable():
    h = heisenberg_intertwiner(1, 1, 4)
    twisted = {
        skey: {
            level: tuple((2 if level % 2 else 3) * c for c in coords)
            for level, coords in h.images(skey).items()
        }
        for skey in h.series
    }
    odd = IntertwinerData(
        h.source_left, h.source_right, h.target, h.depth, 0, twisted,
    )
    assert compare(odd, h).relation == "incomparable"


def test_non_unique_witness_is_an_invariant_violation():
    # with no series entries no level of f is pinned by the series, so the
    # witness is not unique (every scalar multiple of the identity on the
    # Fock target is a module map)
    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 3)
    empty = IntertwinerData(h.source_left, h.source_right, h.target, h.depth)
    with pytest.raises(InternalInvariantViolation):
        compare(empty, empty)


def test_compare_requires_surjective_data():
    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 3)
    # without level-2 images the series no longer fix f_2, although
    # commutation with the generator modes would
    d = gapped(h)
    assert not surjective(d)
    with pytest.raises(InternalInvariantViolation, match="level 2"):
        compare(d, d)
    assert compare(h, d).relation == "incomparable"
    assert compare(d, h).relation == "incomparable"


def _witness_cases():
    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 3)
    twist = h.scale(Q(-2, 3))
    joined = join(h, h.scale(2))
    deep = heisenberg_intertwiner(1, 1, 4)
    deep_join = join(deep, deep.scale(3))
    return [(h, twist), (twist, joined), (deep_join, deep)]


@pytest.mark.parametrize("case", range(3))
def test_witnesses_commute_with_the_generator_modes(case):
    # an oracle for the module-map check that goes through the mode
    # engine instead of the level matrices the solver multiplies
    p1, p2 = _witness_cases()[case]
    result = compare(p1, p2)
    witnesses = [w for w in (result.witness, result.reverse_witness) if w is not None]
    assert witnesses
    checked = 0
    for witness in witnesses:
        up = witness.upper.target
        g = GradedVector(up.voa, up.voa.generator_raw)
        gw = up.voa.gen_weight
        for n in range(up.depth + 1):
            for key in up.keys(n):
                v = GradedVector.basis_vector(up, key)
                image = apply_witness(witness, v)
                for k in range(n + gw - 1 - up.depth, n + gw):
                    left = apply_witness(witness, mode_action(g, k, v))
                    right = mode_action(g, k, image)
                    if left.truncated or right.truncated:
                        continue
                    assert left == right
                    checked += 1
    assert checked > 20


def test_compare_witness_blocks_are_fractions():
    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 3)
    joined = join(h.scale(2), h.scale(Q(-3, 4)))
    result = compare(h, joined)
    witnesses = [w for w in (result.witness, result.reverse_witness) if w is not None]
    assert len(witnesses) == 2
    for witness in witnesses:
        assert witness.blocks
        for block in witness.blocks.values():
            # no int or float may reach format_rational from the kernel
            values = [c for row in block.data for c in row.values()]
            values += [c for row in block.data for c in dense(row, block.cols)]
            assert all(type(c) is Q for c in values)


def test_compare_requires_a_common_source_pair():
    with pytest.raises(InputShapeError):
        compare(heisenberg_intertwiner(1, 2, 3), heisenberg_intertwiner(2, 1, 3))


def _outcome(solve, p1, p2):
    """The JSON of a comparison, or the type and message of its error."""
    try:
        return solve(p1, p2).to_json()
    except InternalInvariantViolation as exc:
        return type(exc), str(exc)


def _per_direction_compare(p1, p2):
    forward = per_direction_witness(p1, p2)
    backward = per_direction_witness(p2, p1)
    if forward is not None and backward is not None:
        return fusion.ComparisonResult("equivalent", forward, backward)
    if forward is not None:
        return fusion.ComparisonResult("less_eq", forward)
    if backward is not None:
        return fusion.ComparisonResult("greater_eq", backward)
    return fusion.ComparisonResult("incomparable")


def _retargeted(data, charge):
    """``data``'s series read on the Fock module of another charge."""
    target = FockModule(data.target.voa, charge, data.depth)
    return IntertwinerData(data.source_left, data.source_right, target, data.depth, 0,
                           data.series, data.factor)


def _two_levels_up(data):
    """A datum on Fock(0) whose level n + 2 images are a linear map of ``data``'s level n."""
    target = FockModule(data.target.voa, 0, data.depth)
    series = {}
    for skey in data.series:
        for n, coords in data.images(skey).items():
            t = n + 2
            if t <= data.depth and any(coords):
                vec = (sum(coords),) + tuple(coords)
                series.setdefault(skey, {})[t] = vec + (Q(0),) * (target.dim(t) - len(vec))
    return IntertwinerData(data.source_left, data.source_right, target, data.depth, 0, series)


def _order_cases():
    deep = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 5)
    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 3)
    factor = h.scale(2)
    joined = join(factor, h.scale(Q(-3, 4)))
    zero = zero_intertwiner(h.source_left, h.source_right, 3)
    level_2_gap = gapped(h)
    # a join target whose level 2 is empty (dims [1, 1, 0, 3, 5]) under a
    # datum with level-2 coefficients: no f exists, as the empty upper
    # level says before any rank deficiency is raised
    h4 = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 4)
    gapped_join = join(gapped(h4), gapped(h4).scale(2))
    # h's levels 0 and 1 read on Fock(0), two levels below h's Fock(2):
    # under h its only coefficients sit below the upper lowest weight
    shifted = _retargeted(h, 0)
    below_only = IntertwinerData(h.source_left, h.source_right, shifted.target, h.depth, 0, {
        skey: {level: coords for level, coords in shifted.images(skey).items() if level < 2}
        for skey in h.series
    })
    return {
        "depth-5 twists": (deep.scale(Q(-3, 2)), deep.scale(Q(5, 4))),
        "join over factor": (joined, factor),
        "factor under join": (factor, joined),
        "zero below": (zero, h),
        "zero above": (h, zero),
        "zero both": (zero, zero_intertwiner(h.source_left, h.source_right, 3)),
        "negated": (h, h.scale(-1)),
        "non-integral shift": (h, _retargeted(h, 1)),
        "integral shift": (h, _retargeted(h, 0)),
        "integral shift reversed": (_retargeted(h, 0), h),
        "level map two levels up": (_two_levels_up(h), h),
        "level map two levels down": (h, _two_levels_up(h)),
        "gapped with itself": (level_2_gap, level_2_gap),
        "gapped above": (h, level_2_gap),
        "gapped below": (level_2_gap, h),
        "under an empty upper level": (h4, gapped_join),
        "over an empty upper level": (gapped_join, h4),
        "only below the upper lowest weight": (below_only, h),
    }


def _direction_outcome(solve, lower, upper):
    """The JSON of one witness direction, None, or the type and message of its error."""
    try:
        witness = solve(lower, upper)
    except InternalInvariantViolation as exc:
        return type(exc), str(exc)
    return None if witness is None else witness.to_json()


@pytest.mark.parametrize("case", list(_order_cases()))
def test_compare_matches_per_direction_solves(case):
    p1, p2 = _order_cases()[case]
    assert _outcome(compare, p1, p2) == _outcome(_per_direction_compare, p1, p2)
    # each direction alone too: an error raised by the second direction
    # would hide the first one's verdict from the comparison
    spaces = fusion._AlignedRowSpaces(p1, p2)
    for lower, upper in ((p1, p2), (p2, p1)):
        shared = _direction_outcome(lambda a, b: fusion._solve_witness(a, b, spaces), lower, upper)
        assert shared == _direction_outcome(per_direction_witness, lower, upper)


def test_compare_eliminates_each_level_once(monkeypatch):
    # one tall elimination per aligned level pair; each direction then
    # reduces at most d1 + d2 basis rows
    shapes = []
    original = linalg.ExactMatrix.rref

    def counting_rref(self):
        shapes.append((self.rows, self.cols))
        return original(self)

    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 5)
    p1, p2 = h.scale(Q(-3, 2)), h.scale(Q(5, 4))
    monkeypatch.setattr(linalg.ExactMatrix, "rref", counting_rref)
    assert compare(p1, p2).relation == "equivalent"
    tall = [(rows, cols) for rows, cols in shapes if rows > cols]
    assert len(tall) == h.depth + 1
    assert len(shapes) == 3 * (h.depth + 1)


def test_scale_shares_the_tables_and_multiplies_the_factor(monkeypatch):
    h = heisenberg_intertwiner(Q(1, 2), Q(3, 2), 5)
    p1, p2 = h.scale(Q(-3, 2)), h.scale(Q(5, 4))
    for twist, c in ((p1, Q(-3, 2)), (p2, Q(5, 4))):
        assert twist.factor == c * h.factor
        assert twist.series.keys() == h.series.keys()
        assert all(twist.series[skey] is images for skey, images in h.series.items())
    # the tall eliminations of a comparison get the int numerators as they
    # are, and hand back Fractions
    tall, reduced = [], []
    original = linalg.ExactMatrix.rref

    def recording_rref(self):
        result = original(self)
        if self.rows > self.cols:
            tall.extend(c for row in self.data for c in row.values())
            reduced.extend(c for row in result[0].data for c in row.values())
        return result

    monkeypatch.setattr(linalg.ExactMatrix, "rref", recording_rref)
    assert compare(p1, p2).relation == "equivalent"
    assert tall and all(type(c) is int for c in tall)
    assert reduced and all(type(c) is Q for c in reduced)


def _report(outcome) -> str:
    """A join (its report and level span rows) or a comparison, as JSON text."""
    if isinstance(outcome, IntertwinerData):
        spans = [[[str(c) for c in dense(row, span.width)] for row in span.rows()]
                 for span in (outcome.target.spans[n] for n in range(outcome.depth + 1))]
        return json.dumps({"datum": outcome.to_json(), "spans": spans}, sort_keys=True)
    return json.dumps(outcome.to_json(), sort_keys=True)


def _twist_cases():
    """Join/compare outcomes built with ``twist(datum, c)`` for every scalar twist."""

    def base(depth):
        return heisenberg_intertwiner(Q(1, 2), Q(3, 2), depth)

    def order_join(twist):
        h = base(4)
        inner = join(twist(h, Q(-3, 2)), twist(h, Q(5, 4)))
        return [inner, join(inner, twist(h, 2))]

    def order_compare(twist):
        h = base(5)
        return [compare(twist(h, Q(-3, 2)), twist(h, Q(5, 4)))]

    def negated(twist):
        h = base(3)
        return [compare(twist(h, 1), twist(h, -1)), join(twist(h, 1), twist(h, -1))]

    def join_and_factor(twist):
        h = base(3)
        factor = twist(h, 2)
        joined = join(factor, twist(h, Q(-3, 4)))
        return [joined, compare(joined, factor), compare(factor, joined)]

    def twisted_join(twist):
        h = base(3)
        joined = twist(join(twist(h, 2), twist(h, Q(-3, 4))), Q(5, 3))
        return [compare(joined, twist(h, 1)), join(joined, twist(h, 2))]

    def direct_sums(twist):
        y1, y2 = direct_sum_pair()
        a, b = twist(y1, 1), twist(y2, Q(-2, 7))
        joined = join(a, b)
        return [joined, compare(a, b), compare(a, joined), compare(joined, b)]

    return {
        "order join": order_join,
        "order compare": order_compare,
        "negated": negated,
        "join and its factor": join_and_factor,
        "twist of a join": twisted_join,
        "direct sums": direct_sums,
    }


@pytest.mark.parametrize("case", list(_twist_cases()))
def test_factor_twists_report_like_materialized_ones(case):
    build = _twist_cases()[case]
    carried = [_report(outcome) for outcome in build(lambda data, c: data.scale(c))]
    materialized = [_report(outcome) for outcome in build(materialized_twist)]
    assert carried == materialized


# ----------------------------------------------------------------------
# span-realized targets

def test_join_targets_carry_a_working_module_action():
    h = heisenberg_intertwiner(1, 1, 4)
    target = join(h, h.scale(3)).target
    assert target.label((0, 0)) == "s0.0"
    assert target.describe().startswith("Span[")
    gen = target.voa.generator_raw
    vec = GradedVector.basis_vector(target, (0, 0))
    g = GradedVector(target.voa, gen)
    moved = mode_action(g, -2, vec)
    assert moved.levels() == (2,) and not moved.truncated
    with pytest.raises(LevelCapExceeded):
        target.apply_gen(-4, (2, 0))  # level 2 + 4 exceeds the cap


@pytest.mark.parametrize("lam,mu,depth", [(1, 2, 4), (Q(1, 2), Q(3, 2), 3)])
def test_span_levels_agree_with_direct_matrix_arithmetic(lam, mu, depth):
    h = heisenberg_intertwiner(lam, mu, depth)
    target = join(h.scale(Q(2, 3)), h.scale(Q(-5, 4))).target
    ambient = target.ambient
    rng = random.Random(23)
    for n in range(depth + 1):
        width = ambient.dim(n)
        rows = [dense(row, width) for row in target.spans[n].rows()]
        assert len(rows) == target.dim(n) and all(len(row) == width for row in rows)
        # a rational combination of the basis rows reads back its coefficients
        coeffs = tuple(Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in rows)
        vec = tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(width))
        assert target.coords_in_span(sparse(vec), n) == coeffs
        # adding a unit vector that raises the rank leaves the span
        for i in range(width):
            unit = tuple(Q(int(col == i)) for col in range(width))
            if sympy_rank(list(rows) + [unit]) > len(rows):
                off = tuple(a + b for a, b in zip(vec, unit))
                assert target.coords_in_span(sparse(off), n) is None
        # the span action, mapped back through the basis rows, is the
        # ambient action on the same row
        keys = ambient.keys(n)
        for i, row in enumerate(rows):
            for k in range(n + 1 - depth, n + 1):
                n2 = n - k  # the Heisenberg generator has weight 1
                want = [Q(0)] * ambient.dim(n2)
                for col, c in enumerate(row):
                    for key, value in ambient.apply_gen(k, keys[col]).items():
                        want[ambient.index(key)] += c * value
                have = [Q(0)] * ambient.dim(n2)
                for (_, j), c in target.apply_gen(k, (n, i)).items():
                    for col, r in target.spans[n2].rows()[j].items():
                        have[col] += c * r
                assert have == want, (n, i, k)


def test_join_target_quotients_respect_the_fusion_bound():
    pairs = [(Q(1), Q(1)), (Q(1), Q(2)), (Q(-1), Q(1)), (Q(1, 2), Q(1, 2)), (Q(2), Q(-3))]
    for lam, mu in pairs:
        h = heisenberg_intertwiner(lam, mu, 4)
        bound = fusion_bound(
            choose_complement(h.source_left, 3),
            choose_complement(h.source_right, 3),
        )
        for datum in (h, join(h, h.scale(2)), join(join(h, h.scale(2)), h.scale(Q(1, 3)))):
            dims = cm_quotient_dims(datum.target, 1, 3)
            assert sum(dims) <= bound.value


# ----------------------------------------------------------------------
# serialization

def test_intertwiner_reports_are_deterministic():
    first = heisenberg_intertwiner(1, 2, 2).to_json()
    second = heisenberg_intertwiner(1, 2, 2).to_json()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["sources"] == ["Fock(1)", "Fock(2)"]
    assert first["target"] == "Fock(3)"
    top = first["modes"][0]
    assert top["u"] == "|1>" or top["images"]


def test_witness_serialization_shape():
    h = heisenberg_intertwiner(1, 1, 3)
    result = compare(h, h.scale(2))
    report = result.to_json()
    assert report["relation"] == "equivalent"
    witness = report["witness"]
    assert witness["shift"] == 0
    level0 = witness["blocks"][0]
    assert level0 == {"level": 0, "matrix": [["1/2"]]}
