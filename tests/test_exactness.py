"""Exactness at the public boundary, and the integer fast path inside it.

Raw coefficient dicts inside the mode engine keep a value as ``int``
while it is integral; every public value (a ``GradedVector`` coordinate,
an ``ExactMatrix`` or ``RowSpan`` entry, a report scalar) is a
``Fraction``, and no ``float`` appears anywhere.  The first tests check
the boundary; the next ones check that the Fock(1) engine, and the spans
of C_1 and of quotient relations, really stay on ``int``, so a change
that brings ``Fraction`` back inside fails here instead of only running
slower (the generator action has the same guard beside its oracle in
``test_voa.py``).  The free-boson vertex kernel is
guarded the same way at its own boundary: its series tables keep int
numerators over one ``Fraction`` factor, every public reader hands out
``Fraction`` values, and a division by the common denominator that is
not exact, or a float charge or twist, is refused rather than rounded,
and so is a float or string entry at any linear algebra entry point.
"""

import contextlib
import importlib
import io
import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from bruteforce import dense, heisenberg_word_mode
from vertexbound import cli, fusion
from vertexbound.cofinite import build_cm
from vertexbound.errors import InputShapeError, InternalInvariantViolation
from vertexbound.frobenius import frobenius_series
from vertexbound.laurent import LaurentPoly
from vertexbound.linalg import ExactMatrix, RowSpan
from vertexbound.modes import GradedVector, engine_for, mode_action, omega_vector
from vertexbound.reduction import CorrelatorCombination, OdeSystem
from vertexbound.voa import (
    FockModule,
    HeisenbergVoa,
    QuotientModule,
    VermaModule,
    VirasoroQuotientVoa,
    VirasoroVoa,
    level2_singular_vector,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
DEPTH = 4


def _fock(charge):
    return FockModule(HeisenbergVoa(depth=DEPTH), charge)


def _ising_sigma():
    c, h = Q(1, 2), Q(1, 16)
    verma = VermaModule(VirasoroVoa(c, depth=DEPTH), h)
    return QuotientModule(verma, [level2_singular_vector(c, h)])


MODULES = {
    "fock(1)": lambda: _fock(Q(1)),
    "fock(1/2)": lambda: _fock(Q(1, 2)),
    "ising-sigma": _ising_sigma,
}


def _levels(module):
    return [(n, key) for n in range(DEPTH + 1) for key in module.keys(n)]


# ----------------------------------------------------------------------
# the public boundary: Fractions only


@pytest.mark.parametrize("name", sorted(MODULES))
def test_mode_action_outputs_are_fractions(name):
    module = MODULES[name]()
    voa = module.voa
    actors = [GradedVector.basis_vector(voa, key) for _, key in _levels(voa)]
    actors.append(omega_vector(voa))
    seen = 0
    for v in actors:
        wt = v.homogeneous_level()
        for n, key in _levels(module):
            w = GradedVector.basis_vector(module, key)
            for k in range(n + wt - 1 - DEPTH, n + wt):
                result = mode_action(v, k, w)
                for coeffs in result.components.values():
                    assert all(type(c) is Q for c in coeffs.values()), (v, k, key)
                seen += not result.is_zero()
    assert seen >= 150
    cm = build_cm(module, 1, 2)
    assert all(
        type(c) is Q
        for level in cm.levels.values()
        for row in level.span.rows()
        for c in dense(row, level.dim)
    )


def _no_float(text):
    raise AssertionError(f"float {text} in a report")


@pytest.fixture
def bench_configs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("HOME", str(tmp_path))
    workloads = importlib.import_module("workloads")
    configs = {}
    for name, text in (
        ("fock", workloads.PIPELINE_FOCK_INI),
        ("ising", workloads.PIPELINE_ISING_INI),
        ("order", workloads.order_ini([Q(1, 3), Q(-2), Q(5, 7)])),
    ):
        path = tmp_path / f"{name}.ini"
        path.write_text(text, encoding="utf-8")
        configs[name] = str(path)
    return configs, workloads


def test_cli_reports_hold_no_float(bench_configs):
    """Every command on the bench's configs, parsed with a raising float hook.

    The order config runs only the two commands the bench runs on it.
    """
    configs, workloads = bench_configs
    succeeded = {name: set() for name in configs}
    depths = {
        ("fock", "identity-suite"): workloads.PIPELINE_IDENTITY["fock"][0],
        ("ising", "identity-suite"): workloads.PIPELINE_IDENTITY["ising"][0],
        ("order", "join"): workloads.ORDER_JOIN_DEPTH,
    }
    for name, path in configs.items():
        for command in ("compare", "join") if name == "order" else sorted(cli._COMMANDS):
            argv = [command, "--config", path]
            if (name, command) in depths:
                argv += ["--depth", str(depths[name, command])]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            report = json.loads(buffer.getvalue(), parse_float=_no_float, parse_constant=_no_float)
            assert ("error" in report) == (code != 0), (name, command)
            if code == 0:
                succeeded[name].add(command)
    assert succeeded["fock"] >= set(workloads.PIPELINE_FOCK_COMMANDS) | {"identity-suite"}
    assert succeeded["ising"] >= set(workloads.PIPELINE_ISING_COMMANDS) | {"identity-suite"}
    assert succeeded["order"] == {"join", "compare"}


# ----------------------------------------------------------------------
# the fast path: Fock(1) stays on int inside the engine


def _all_ints(raw: dict) -> bool:
    return all(type(c) is int for c in raw.values())


def test_fock_engine_words_are_int_and_match_the_oracle():
    fock = _fock(Q(1))
    engine = engine_for(fock)
    words = [key for _, key in _levels(fock.voa)]
    checked = 0
    for word in words:
        for n, key in _levels(fock):
            for k in range(n + sum(word) - 1 - DEPTH, n + sum(word) + 1):
                got, den = engine.apply_word(word, k, key)
                assert den == 1 and _all_ints(got), (word, k, key)
                assert got == heisenberg_word_mode(word, k, key, Q(1)), (word, k, key)
                checked += bool(got)
    assert checked > 500
    # intermediate results of the iterate expansion as well
    assert all(den == 1 and _all_ints(raw) for raw, den in engine._memo.values())


def _stored_rows_are_ints(span) -> bool:
    return all(type(c) is int for _, row in span._rows for c in row.values())


@pytest.mark.parametrize("name", sorted(MODULES))
def test_spans_store_int_rows_and_hand_out_fractions(name):
    # C_1 spans and quotient relation spans keep primitive integer rows;
    # rows, row and reduce divide on the way out
    module = MODULES[name]()
    spans = [level.span for level in build_cm(module, 1, 2).levels.values()]
    if isinstance(module, QuotientModule):
        spans += [module._level_data(n)[1] for n in range(DEPTH + 1)]
        assert all(_all_ints(vector) for vector in module._descendants.values())
    assert sum(span.rank for span in spans) >= 3
    for span in spans:
        assert _stored_rows_are_ints(span)
        assert all(type(c) is Q for row in span.rows() for c in row.values())
        assert all(span.row(i) == row for i, row in enumerate(span.rows()))
        probe = {j: 2 * j + 1 for j in range(span.width)}
        assert all(type(c) is Q for c in span.reduce(probe).values())
    span = RowSpan(3)
    span.add({0: Q(1, 2), 1: Q(-3, 4)})
    span.add({1: 6, 2: Q(9, 10)})
    assert span._rows == [(0, {0: 40, 2: 9}), (1, {1: 20, 2: 3})]
    assert span.rows() == [{0: Q(1), 2: Q(9, 40)}, {1: Q(1), 2: Q(3, 20)}]
    assert _stored_rows_are_ints(span)


# ----------------------------------------------------------------------
# the free-boson vertex kernel: ints inside, Fraction series outside


@pytest.mark.parametrize("lam,mu", [
    (Q(1), Q(2)), (Q(0), Q(0)), (Q(1, 6), Q(-5, 4)), (Q(-10**9 - 7, 10**9 + 9), Q(3, 7)),
])
def test_heisenberg_series_coordinates_are_fractions(lam, mu, monkeypatch):
    h = fusion.heisenberg_intertwiner(lam, mu, 3)
    numerators = [c for images in h.series.values() for vec in images.values() for c in vec]
    assert numerators and all(type(c) is int for c in numerators)
    assert type(h.factor) is Q
    formatted = []
    original = fusion.format_rational

    def recording(value):
        formatted.append(value)
        return original(value)

    monkeypatch.setattr(fusion, "format_rational", recording)
    for datum in (h, h.scale(Q(-2, 3))):
        read = []
        for skey in datum.series:
            for coords in datum.images(skey).values():
                read.extend(coords)
        assert read and all(type(c) is Q for c in read)
        formatted.clear()
        datum.to_json()
        assert formatted and all(type(c) is Q for c in formatted)


@pytest.mark.parametrize("bad", [0.5, 1e-3, "1/2", None, 0.1, "1/3"])
def test_float_charges_and_twists_are_refused(bad):
    # a float would reach the tables or a matrix as its binary expansion,
    # e.g. 0.1 as 3602879701896397/36028797018963968, and a string would be
    # parsed; refuse both instead of guessing
    with pytest.raises(InputShapeError):
        fusion.heisenberg_intertwiner(bad, Q(3, 2), 2)
    with pytest.raises(InputShapeError):
        fusion.heisenberg_intertwiner(Q(1, 2), bad, 2)
    h = fusion.heisenberg_intertwiner(Q(1, 2), Q(3, 2), 2)
    with pytest.raises(InputShapeError):
        h.scale(bad)
    assert h.scale(2).factor == 2 * h.factor
    mat = ExactMatrix(2, 2, [{0: 1, 1: 2}, {0: 3, 1: 4}])
    span = RowSpan(2)
    for call in (
        lambda: ExactMatrix(1, 2, [{1: bad}]),
        lambda: ExactMatrix(1, 2, [{bad: 1}]),
        lambda: ExactMatrix(1, 2, [{2: Q(1)}]),
        lambda: mat.matvec([1, bad]),
        lambda: mat.solve([bad, 1]),
        lambda: span.add({0: bad, 1: 3}),
        lambda: span.contains({0: 3, 1: bad}),
    ):
        with pytest.raises(InputShapeError):
            call()
    for call in _scalar_entry_points(bad):
        with pytest.raises(InputShapeError):
            call()


def _scalar_entry_points(bad):
    """Every public entry point that takes a scalar, each handed ``bad``."""
    heisenberg, vir = HeisenbergVoa(2), VirasoroVoa(Q(1, 2), 2)
    system = OdeSystem(left="l", right="r", dimension=1, labels=[(0, 0)], entries={})
    return [
        lambda: FockModule(heisenberg, bad),
        lambda: VermaModule(vir, bad),
        lambda: VirasoroVoa(bad, 2),
        lambda: VirasoroQuotientVoa(bad, (), 2),
        # L(-1)|0> is singular in the Verma module of weight 0
        lambda: QuotientModule(VermaModule(vir, 0), [(((1,), bad),)]),
        lambda: level2_singular_vector(bad, Q(1, 2)),
        lambda: level2_singular_vector(Q(1, 2), bad),
        lambda: GradedVector(heisenberg, {(1,): bad}),
        lambda: GradedVector.basis_vector(heisenberg, (1,)).scale(bad),
        lambda: CorrelatorCombination(None, None).scale(bad),
        lambda: LaurentPoly({0: bad}),
        lambda: LaurentPoly.monomial(1, bad),
        lambda: frobenius_series(system, bad, 1),
    ]


def test_a_short_degree_bound_is_refused_not_floored(monkeypatch):
    # with one denominator p for both charges a depth-d term can carry
    # lam^(2d) mu^d, so q^(3d - 1) leaves some division by p inexact
    lam, mu = Q(1, 1000003), Q(2, 1000003)
    monkeypatch.setattr(fusion, "_degree_bound", lambda d: 3 * d - 1)
    with pytest.raises(InternalInvariantViolation, match="common denominator"):
        fusion.heisenberg_intertwiner(lam, mu, 2)
