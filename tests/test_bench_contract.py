"""The benchmark under ``bench/`` drives the engine from outside: its
tracer patches engine functions by name and its workloads check every
report against recorded digests.  These tests run both against the
current engine, so a renamed patch target or a changed report fails
here rather than in a benchmark run.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("HOME", str(tmp_path))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_tracer_finds_every_patch_target(bench):
    tracer_module, workloads = bench
    tracer = tracer_module.Tracer()
    try:
        tracer.install(workloads)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", ["order", "reduce", "pipeline"])
def test_one_pass_matches_the_reference(bench, tmp_path, workload):
    _tracer_module, workloads = bench
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    inputs = workloads.prepare(workload, 0, tmp_path)
    results = workloads.run_pass(inputs, reference["digests"][workload])
    assert results
    failed = [(name, problem) for name, _seconds, _digest, problem in results if problem is not None]
    assert failed == []
