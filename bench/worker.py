"""One benchmark process: set up one workload, run its passes, report.

``run.py`` starts this script in a fresh interpreter for every set-up
sample and for every workload run, one process at a time:

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE [--setup-only]

Set-up is timed from before ``import vertexbound`` to the end of input
preparation.  Then one warm-up pass fills the process-global caches and
the on-disk cache, and timed passes run until ``--seconds`` is spent.
With ``--trace 1`` the time is split between untraced passes and passes
under :class:`tracer.Tracer`.  The result is written as JSON to
``--result``; the engine's own output never reaches this process's
stdout.

Times are reported twice: as measured, and rescaled to a reference
machine speed.  The speed of a shared virtual machine drifts by tens of
percent, switching between a fast and a slow phase every few seconds,
and it drifts alike for the engine and for any other pure-Python work.
So while a timed pass runs, a timer samples a fixed piece of work
that never touches the engine (:func:`calibration_work`) every
``SAMPLE_INTERVAL_S``, and the pass's times are multiplied by
``CALIBRATION_REFERENCE_S`` over the mean sample time.  Set-up is
rescaled the same way, from calibration runs right after it.  A change
to the engine leaves the calibration alone, so it shows in full in the
rescaled times.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
MAX_REPORTED_FAILURES = 10
# calibration_work's time at the reference speed (the fast phase of a
# 2-vCPU Intel Xeon virtual machine under CPython 3.11); how often it is
# sampled while a pass runs; how many runs of it follow a set-up
CALIBRATION_REFERENCE_S = 0.0022
SAMPLE_INTERVAL_S = 0.05
SETUP_CALIBRATION_RUNS = 50


def import_engine() -> None:
    """Import the engine from this checkout's sources, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import vertexbound
    import vertexbound.cli  # noqa: F401  (its import cost belongs to set-up)

    if Path(vertexbound.__file__).resolve().parent != SRC / "vertexbound":
        raise SystemExit(f"vertexbound was imported from {vertexbound.__file__}, not {SRC}")


def calibration_work() -> int:
    """Fixed pure-Python work in the engine's style, independent of it.

    Fraction arithmetic into a tuple-keyed dict, then Gauss-Jordan
    elimination of a fixed 8 x 8 rational matrix; returns its rank.
    About 2 ms at the reference speed.
    """
    from fractions import Fraction  # here, so that its import stays in set-up time

    memo = {}
    acc = Fraction(0)
    for i in range(1, 150):
        x = Fraction(i % 13 - 6, i % 11 + 1)
        acc = acc / 2 + x
        key = tuple(sorted((i % 61, i % 7, i % 3)))
        memo[key] = memo.get(key, 0) + x
    n = 8
    rows = [[Fraction((3 * i + 7 * j) % 19 - 9, (i + 2 * j) % 5 + 1) for j in range(n)]
            for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        rows[rank] = [x * inverse for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def calibration_time() -> float:
    """Seconds of one :func:`calibration_work`, with the cyclic collector
    off so that the size of the engine's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        calibration_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scale(times: list) -> float:
    """Factor from measured seconds to seconds at the reference speed.

    The speed is the mean calibration time over the middle 80% of the
    samples: a mean, because the machine switches between a fast and a
    slow phase and the time a pass takes adds up over both; trimmed,
    because a sample that a context switch interrupted is not the speed.
    """
    times = sorted(times)
    cut = len(times) // 10
    kept = times[cut:len(times) - cut]
    return CALIBRATION_REFERENCE_S / (sum(kept) / len(kept))


class SpeedSampler:
    """Samples the machine's speed evenly over a pass.

    While active, a SIGALRM every ``SAMPLE_INTERVAL_S`` runs
    :func:`calibration_time` in the main thread, wherever the pass is.
    :meth:`clock` is ``perf_counter`` less the time spent in samples, so
    ops and spans timed with it leave the calibration out.
    """

    def __init__(self):
        self.spent = 0.0
        self.times = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        self.times.append(calibration_time())
        self.spent += perf_counter() - start

    def clock(self) -> float:
        return perf_counter() - self.spent

    def start(self) -> None:
        self.times = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the speed scale of the time since :meth:`start`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.times:
            self.times.append(calibration_time())
        return speed_scale(self.times)


def timed_passes(workloads, inputs, reference, seconds, sampler, tracer=None) -> list:
    """Run passes within ``seconds``: at least one, and none that would overrun.

    Returns ``(wall, scale, results, per_layer)`` per pass.  ``wall`` is
    the sum of the op times, so checking and digesting are not counted;
    ``scale`` rescales the pass's times to the reference speed.
    """
    passes = []
    begin = perf_counter()
    while True:
        start = perf_counter()
        if tracer is not None:
            tracer.begin_pass()
        sampler.start()
        results = workloads.run_pass(inputs, reference, tracer, f"p{len(passes)}:", sampler.clock)
        scale = sampler.stop()
        per_layer = tracer.pass_metrics() if tracer is not None else None
        passes.append((sum(r[1] for r in results), scale, results, per_layer))
        now = perf_counter()
        if now - begin + (now - start) > seconds:
            return passes


def p90(sorted_values: list):
    """Nearest-rank 90th percentile and how many samples lie beyond it."""
    value = sorted_values[-(-9 * len(sorted_values) // 10) - 1]
    return value, sum(1 for v in sorted_values if v > value)


def measure(args, workloads, inputs) -> dict:
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    reference = reference["digests"][args.workload]
    executed = list(workloads.run_pass(inputs, reference))  # warm-up, checked but untimed
    budget = args.seconds / 2 if args.trace else args.seconds
    sampler = SpeedSampler()
    untraced = timed_passes(workloads, inputs, reference, budget, sampler)
    for _wall, _scale, results, _ in untraced:
        executed.extend(results)
    rescaled = [wall * scale for wall, scale, _, _ in untraced]
    out = {
        "passes": len(untraced),
        "pass_walls": rescaled,
        "wall_s": statistics.median(rescaled),
        "measured_wall_s": statistics.median(wall for wall, _, _, _ in untraced),
        "calibration_s": CALIBRATION_REFERENCE_S / statistics.median(scale for _, scale, _, _ in untraced),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.workload in workloads.PER_OP_WORKLOADS:
        latencies = sorted(r[1] * scale for _, scale, results, _ in untraced for r in results)
        out["op_samples"] = len(latencies)
        out["op_s_p50"] = statistics.median(latencies)
        out["op_s_p90"], out["op_beyond_p90"] = p90(latencies)
    problems = []
    if args.trace:
        from tracer import PER_LAYER_UNITS, Tracer

        expected = {name: dig for name, _, dig, _ in untraced[0][2]}
        tracer = Tracer(clock=sampler.clock)
        tracer.install(workloads)
        try:
            traced = timed_passes(workloads, inputs, reference, args.seconds / 2, sampler, tracer)
        finally:
            tracer.uninstall()
        for _wall, _scale, results, _ in traced:
            for name, seconds, dig, problem in results:
                if problem is None and dig != expected.get(name):
                    problem = "traced report differs from the untraced one"
                executed.append((name, seconds, dig, problem))
        layers = [per_layer for _, _, _, per_layer in traced]
        per_layer = dict(layers[0])
        for metric, unit in PER_LAYER_UNITS.items():
            if unit == "s":
                per_layer[metric] = statistics.median(p[metric] for p in layers)
            elif metric in per_layer and any(p[metric] != per_layer[metric] for p in layers):
                problems.append(f"count {metric} differs between traced passes")
        per_layer["trace.overhead_ratio"] = (
            statistics.median(wall * scale for wall, scale, _, _ in traced) / out["wall_s"] - 1
        )
        out["per_layer"] = {
            metric: {"value": per_layer[metric], "unit": unit}
            for metric, unit in PER_LAYER_UNITS.items()
        }
        out["traced_passes"] = len(traced)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    failures = [f"{name}: {problem}" for name, _, _, problem in executed if problem is not None]
    out["attempted"] = len(executed)
    out["failed"] = len(failures)
    out["problems"] = problems + failures[:MAX_REPORTED_FAILURES]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    import_engine()
    import workloads

    inputs = workloads.prepare(args.workload, args.seed, Path(args.workdir))
    setup = perf_counter() - start
    scale = speed_scale([calibration_time() for _ in range(SETUP_CALIBRATION_RUNS)])
    result = {"measured_setup_s": setup, "setup_s": setup * scale, "seeded": inputs["seeded"]}
    if not args.setup_only:
        result.update(measure(args, workloads, inputs))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
