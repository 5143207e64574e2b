"""Benchmark of the vertexbound engine: four workloads, timed from outside.

    python3 bench/run.py [--workload identity|order|reduce|pipeline|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the engine is imported from its
``src/``.  Each workload runs in a fresh child process with its own
temporary cache directory under ``.bench_tmp/``, one child at a time.
Set-up time is the median over several fresh interpreters.  Times are
rescaled to a reference machine speed, measured alongside by a fixed
calibration (see ``worker.py``); the measured times are printed too.
The command prints one line per metric with its unit and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Spans of a traced run are written to ``.bench_out/``.  The exit code is
nonzero when any op failed its correctness check, and also when the
engine's sources are missing, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("identity", "order", "reduce", "pipeline")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_SAMPLES = 21  # fresh set-up-only interpreters per run
MAX_SECONDS = 60  # a run this long, with its warm-up pass, ends well within the timeout
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(workload, seed, seconds, trace, workdir: Path, setup_only=False) -> dict:
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    # the engine's on-disk cache, and anything else keyed on HOME, stays
    # inside this run's directory
    env["VERTEXBOUND_CACHE"] = str(workdir / "cache")
    env["HOME"] = str(workdir / "home")
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir), "--result", str(result),
    ]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload}: worker exceeded {CHILD_TIMEOUT_S} s") from err
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(workload, seed, seconds, trace) -> dict:
    """The measured child, then the set-up samples, in a private directory.

    Set-up samples run after the measured child, so bytecode is already
    compiled (where the interpreter writes it) and the processor is not
    coming out of idle; the measured child's own set-up is not a sample.
    """
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        (workdir / "home").mkdir()
        result = run_worker(workload, seed, seconds, trace, workdir)
        samples = [run_worker(workload, seed, seconds, trace, workdir, setup_only=True)
                   for _ in range(SETUP_SAMPLES)]
        for key in ("setup_s", "measured_setup_s"):
            result[key] = statistics.median(sample[key] for sample in samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return result


def end_to_end(result: dict) -> dict:
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def print_workload(workload, seed, trace, result) -> None:
    print(f"workload {workload}  seed {seed}  seeded: {result['seeded']}")
    walls = ", ".join(f"{w:.3f}" for w in result["pass_walls"])
    print(f"  wall_s        {result['wall_s']:.6f} s    at reference speed, median of "
          f"{result['passes']} warm passes: {walls}")
    print(f"                measured {result['measured_wall_s']:.6f} s; calibration "
          f"{1000 * result['calibration_s']:.1f} ms")
    print(f"  setup_s       {result['setup_s']:.6f} s    at reference speed; measured "
          f"{result['measured_setup_s']:.6f} s, median of {SETUP_SAMPLES} fresh interpreters")
    print(f"  peak_rss_mib  {result['peak_rss_mib']:.1f} MiB")
    if "op_s_p50" in result:
        n = result["op_samples"]
        print(f"  op_s_p50      {result['op_s_p50']:.6f} s    at reference speed, over {n} ops")
        if result["op_beyond_p90"] >= 10:
            print(f"  op_s_p90      {result['op_s_p90']:.6f} s    at reference speed, over {n} ops, "
                  f"{result['op_beyond_p90']} beyond")
        else:
            print(f"  op_s_p90      not reported: {result['op_beyond_p90']} of {n} ops "
                  "beyond it, fewer than 10")
    print(f"  fail_ratio    {result['failed']}/{result['attempted']} ops")
    for problem in result["problems"]:
        print(f"    FAILED {problem}")
    if trace:
        print(f"  traced passes {result['traced_passes']}, spans in {result['trace_file']}")
        for name, metric in result["per_layer"].items():
            print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")


def measured_seconds(text: str) -> float:
    value = float(text)
    if not 0 < value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"must lie in (0, {MAX_SECONDS}]")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=measured_seconds, default=None,
                        help="measured time per run; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "vertexbound" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(benchmark["run_seconds"])
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            print_workload(workload, args.seed, args.trace, results[workload])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    metrics = {}
    for workload, result in results.items():
        chosen_metrics = result["per_layer"] if args.trace else end_to_end(result)
        prefix = "" if len(results) == 1 else f"{workload}."
        metrics.update({prefix + name: m for name, m in chosen_metrics.items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    problems = sum(len(r["problems"]) for r in results.values())
    correct = failed == 0 and problems == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
