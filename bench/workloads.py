"""The four benchmark workloads: their inputs, operation lists and checks.

A workload is prepared once per process (:func:`prepare`) and then run
as passes.  A pass executes the workload's whole operation list on
fresh realizations; an operation ("op") is one CLI command, run
in-process through ``vertexbound.cli.main``, or one top-level call into
the public Python API.  Every op is checked twice: against closed forms
where the mathematics gives one, and against the SHA-256 digest that the
seed commit produced for the same report (``reference.json``).

Only two inputs depend on the seed: the scalar twists of the ``order``
workload and the order in which the ``reduce`` workload visits its basis
pairs.  Both are normalised away before digesting (reports of scalar
twists are untwisted back to the plain intertwiner, and reduce digests
are keyed by pair, not by position), so one reference serves every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from vertexbound import cli
from vertexbound.cofinite import choose_complement
from vertexbound.frobenius import frobenius_series, indicial_exponents
from vertexbound.modes import GradedVector
from vertexbound.reduction import assemble_ode, reduce
from vertexbound.voa import ModuleSpec, VoaSpec, level2_singular_vector, realize_module, realize_voa

WORKLOADS = ("identity", "order", "reduce", "pipeline")

# workloads whose op lists are long enough for per-op latency percentiles
PER_OP_WORKLOADS = ("reduce", "pipeline")

# the base intertwiner of the order workload: Fock(1/2) x Fock(3/2) -> Fock(2)
ORDER_LAM, ORDER_MU = Fraction(1, 2), Fraction(3, 2)
ORDER_JOIN_DEPTH = 4
ORDER_COMPARE_DEPTH = 5

# the reduce workload: every basis pair at this total level
REDUCE_LEVEL = 7
FOCK_LAM, FOCK_MU = Fraction(1), Fraction(2)
ISING_C = Fraction(1, 2)
SIGMA_H, EPS_H = Fraction(1, 16), Fraction(1, 2)

PIPELINE_DEPTH = 9
PIPELINE_FOCK_COMMANDS = (
    "graded-dims", "cm-quotient", "complement", "bound", "ode", "frobenius", "reduce",
)
PIPELINE_ISING_COMMANDS = (
    "graded-dims", "cm-quotient", "complement", "bound", "ode", "reduce",
)
# identity suites appended to each pipeline family: (depth, threads).  They
# keep the mode engine's checks and the thread pool on a gated workload.
PIPELINE_IDENTITY = {"fock": (4, 2), "ising": (5, 1)}

IDENTITY_FOCK_INI = """\
[run]
depth = 5

[voa]
kind = heisenberg

[module.f1]
kind = fock
charge = 1

[command]
module = f1
"""

IDENTITY_ISING_INI = """\
[run]
depth = 6

[voa]
kind = virasoro
central_charge = 1/2

[module.sigma]
kind = quotient
highest_weight = 1/16
singular_vectors = level2

[command]
module = sigma
"""

PIPELINE_FOCK_INI = f"""\
[run]
depth = {PIPELINE_DEPTH}
m = 1

[voa]
kind = heisenberg

[module.f1]
kind = fock
charge = 1

[module.f2]
kind = fock
charge = 2

[command]
module = f1
left = f1
right = f2
left_key = 2,1,1
right_key = 3,1
"""

PIPELINE_ISING_INI = f"""\
[run]
depth = {PIPELINE_DEPTH}
m = 1

[voa]
kind = virasoro
central_charge = 1/2

[module.sigma]
kind = quotient
highest_weight = 1/16
singular_vectors = level2

[module.eps]
kind = quotient
highest_weight = 1/2
singular_vectors = level2

[command]
module = sigma
left = sigma
right = eps
left_key = 2,2
right_key = 3,2
"""


# ----------------------------------------------------------------------
# independent closed forms

def partition_numbers(depth: int) -> list:
    """p(0..depth) by the coin-change recursion, independent of the engine."""
    counts = [1] + [0] * depth
    for part in range(1, depth + 1):
        for n in range(part, depth + 1):
            counts[n] += counts[n - part]
    return counts


def fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def single_pole_ode(residue: Fraction) -> dict:
    """The ODE payload ``B = [residue z^-1]`` on the single label (0, 0)."""
    return {
        "dimension": 1,
        "labels": [[0, 0]],
        "entries": [{"row": 0, "col": 0, "terms": [
            {"power": -1, "num": str(residue.numerator), "den": str(residue.denominator)},
        ]}],
        "pole_order": 1,
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# running and checking ops

class OpFailure(Exception):
    """A report that ran to completion but failed its correctness check."""


class Pass:
    """Runs one pass's ops in order, timing and checking each.

    ``results`` collects ``(name, seconds, digest, problem)`` per op;
    ``problem`` is None for an op that passed every check.  ``observed``
    holds the digests that the reference records.  A tracer,
    when given, is told which op is running so its spans carry the op.
    """

    def __init__(self, reference: dict, tracer=None, label: str = "", clock=perf_counter):
        self.reference = reference
        self.tracer = tracer
        self.label = label
        self.clock = clock
        self.results = []
        self.observed = {}  # op name -> digest of its (normalised) report

    def op(self, name, call, report=None, check=None, normalize=None):
        """Run ``call()``; ``report(value)`` gives the text that is digested.

        ``check(value, text)`` raises :class:`OpFailure` on a closed-form
        mismatch; ``normalize(text)`` maps a seeded report onto the
        seed-independent text whose digest the reference records.
        """
        if self.tracer is not None:
            self.tracer.op = f"{self.label}{len(self.results)}:{name}"
        start = self.clock()
        try:
            value = call()
        except SystemExit as err:  # argparse rejecting a CLI op's argv
            self.results.append((name, self.clock() - start, None, f"exited with code {err.code}"))
            return None
        except Exception as err:  # an op that raises counts as failed; the pass goes on
            self.results.append((name, self.clock() - start, None, f"raised {type(err).__name__}: {err}"))
            return None
        finally:
            if self.tracer is not None:
                self.tracer.op = None
        elapsed = self.clock() - start
        text = report(value) if report is not None else value
        problem = None
        try:
            if check is not None:
                check(value, text)
            expected = self.reference.get(name)
            normal = normalize(text) if normalize is not None else text
            self.observed[name] = digest(normal)
            if expected is None:
                raise OpFailure("no reference digest")
            if digest(normal) != expected:
                raise OpFailure("report differs from the seed commit's reference")
        except (OpFailure, KeyError, ValueError, TypeError) as err:
            problem = f"{type(err).__name__}: {err}"
        self.results.append((name, elapsed, digest(text), problem))
        return value


def run_cli(argv: list):
    """One in-process CLI invocation: ``(exit_code, stdout_text)``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def cli_report(value) -> str:
    return value[1]


def cli_payload(value) -> dict:
    code, text = value
    if code != 0:
        raise OpFailure(f"exit code {code}")
    return json.loads(text)["payload"]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailure(message)


# ----------------------------------------------------------------------
# workload inputs

def draw_twist(rng: random.Random) -> Fraction:
    """A nonzero scalar: numerator in +-1..6, denominator in 1..4."""
    return Fraction(rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]), rng.randint(1, 4))


def order_ini(twists) -> str:
    sections = [
        f"[intertwiner.t{i}]\nlam = {fmt(ORDER_LAM)}\nmu = {fmt(ORDER_MU)}\nscale = {fmt(c)}\n"
        for i, c in enumerate(twists, 1)
    ]
    return (
        f"[run]\ndepth = {ORDER_COMPARE_DEPTH}\n\n[voa]\nkind = heisenberg\n\n"
        + "\n".join(sections)
        + "\n[command]\nintertwiners = t1 t2 t3\nfirst = t1\nsecond = t2\n"
    )


def prepare(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's configs and draw its seeded inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    inputs = {"workload": workload, "seed": seed}
    configs = {}
    if workload == "identity":
        configs = {"fock": IDENTITY_FOCK_INI, "ising": IDENTITY_ISING_INI}
        inputs["seeded"] = "nothing: identity inputs are fixed"
    elif workload == "order":
        twists = [draw_twist(rng) for _ in range(3)]
        configs = {"order": order_ini(twists)}
        inputs["twists"] = twists
        inputs["seeded"] = "twists " + " ".join(fmt(c) for c in twists)
    elif workload == "reduce":
        inputs["order_seed"] = rng.getrandbits(64)
        inputs["seeded"] = f"reduce pair order (shuffle key {inputs['order_seed']})"
    else:
        configs = {"fock": PIPELINE_FOCK_INI, "ising": PIPELINE_ISING_INI}
        inputs["seeded"] = "nothing: pipeline inputs are fixed"
    for name, text in configs.items():
        path = workdir / f"{workload}-{name}.ini"
        path.write_text(text, encoding="utf-8")
        inputs[name] = str(path)
    return inputs


# ----------------------------------------------------------------------
# identity: the mode engine and Fraction arithmetic alone

def check_identity(value, _text):
    payload = cli_payload(value)
    expect(payload["all_passed"] is True and payload["failures"] == [], "identity suite failed")


def run_identity(inputs: dict, run: Pass) -> None:
    for name, threads in (("fock", "2"), ("ising", "1")):
        run.op(
            f"{name}:identity-suite",
            lambda: run_cli(["identity-suite", "--config", inputs[name], "--threads", threads]),
            report=cli_report, check=check_identity,
        )


# ----------------------------------------------------------------------
# order: elimination and the closed-form vertex images of fusion

def untwist_join(text: str, c1: Fraction) -> str:
    """A join report of twists (c1, c2, c3), mapped to the untwisted one.

    The join's images are coordinates over the saturated span of the
    first factor, so every coordinate carries the first twist alone.
    """
    report = json.loads(text)
    del report["config_hash"]
    for mode in report["payload"]["modes"]:
        for image in mode["images"]:
            image["vector"] = [fmt(Fraction(c) / c1) for c in image["vector"]]
    return canonical(report)


def untwist_compare(text: str, c1: Fraction, c2: Fraction) -> str:
    """A compare report of twists (c1, c2), mapped to the untwisted one."""
    report = json.loads(text)
    del report["config_hash"]
    payload = report["payload"]
    for key, factor in (("witness", c2 / c1), ("reverse_witness", c1 / c2)):
        for block in payload.get(key, {}).get("blocks", []):
            block["matrix"] = [[fmt(Fraction(c) * factor) for c in row] for row in block["matrix"]]
    return canonical(report)


def check_join(value, _text):
    payload = cli_payload(value)
    dims = partition_numbers(ORDER_JOIN_DEPTH)
    expect(payload["target_dims"] == dims, f"join target dims {payload['target_dims']} != {dims}")
    expect(
        [(s["level"], s["rank"], s["dim"]) for s in payload["surjectivity"]]
        == [(n, d, d) for n, d in enumerate(dims)],
        "join is not surjective at every level",
    )


def scalar_blocks(witness: dict, scalar: Fraction, dims: list) -> bool:
    """Whether a witness is ``scalar * Id`` on every level 0..len(dims)-1."""
    want = [
        [[fmt(scalar) if r == c else "0" for c in range(d)] for r in range(d)]
        for d in dims
    ]
    have = [block["matrix"] for block in witness["blocks"]]
    levels = [block["level"] for block in witness["blocks"]]
    return witness["shift"] == 0 and levels == list(range(len(dims))) and have == want


def check_compare(c1: Fraction, c2: Fraction):
    dims = partition_numbers(ORDER_COMPARE_DEPTH)

    def check(value, _text):
        payload = cli_payload(value)
        expect(payload["relation"] == "equivalent", f"relation {payload['relation']}")
        expect(scalar_blocks(payload["witness"], c1 / c2, dims), "witness is not (c1/c2) Id")
        expect(scalar_blocks(payload["reverse_witness"], c2 / c1, dims),
               "reverse witness is not (c2/c1) Id")
    return check


def run_order(inputs: dict, run: Pass) -> None:
    c1, c2, _c3 = inputs["twists"]
    config = inputs["order"]
    run.op(
        "join",
        lambda: run_cli(["join", "--config", config, "--depth", str(ORDER_JOIN_DEPTH)]),
        report=cli_report, check=check_join,
        normalize=lambda text: untwist_join(text, c1),
    )
    run.op(
        "compare",
        lambda: run_cli(["compare", "--config", config]),
        report=cli_report, check=check_compare(c1, c2),
        normalize=lambda text: untwist_compare(text, c1, c2),
    )


# ----------------------------------------------------------------------
# reduce: the correlator rewriting recursion through the Python API

def json_report(value) -> str:
    return canonical(value.to_json())


def complement_report(basis) -> str:
    return canonical({"window": basis.window, "labels": basis.describe_labels()})


def realize_pair(run: Pass, family: str, voa_spec, left_spec, right_spec):
    """Realize one module pair and its complements, one op per call.

    Realization depth carries the same ``gen_weight + m - 1`` pad as the
    CLI, so the complements are certified through the reduce level.
    """
    pad = {"heisenberg": 1, "virasoro": 2}[voa_spec.kind]
    voa = run.op(f"{family}:realize-voa", lambda: realize_voa(voa_spec, REDUCE_LEVEL + pad),
                 report=lambda v: v.describe())
    left = run.op(f"{family}:realize-left", lambda: realize_module(left_spec, voa),
                  report=lambda m: m.describe())
    right = run.op(f"{family}:realize-right", lambda: realize_module(right_spec, voa),
                   report=lambda m: m.describe())
    left_basis = run.op(f"{family}:complement-left",
                        lambda: choose_complement(left, REDUCE_LEVEL), report=complement_report)
    right_basis = run.op(f"{family}:complement-right",
                         lambda: choose_complement(right, REDUCE_LEVEL), report=complement_report)
    return left, right, left_basis, right_basis


def reduce_all_pairs(run: Pass, family: str, modules, order_seed: int) -> None:
    left, right, left_basis, right_basis = modules
    if left is None or right is None:
        return
    pairs = [
        (p_key, q_key)
        for a in range(REDUCE_LEVEL + 1)
        for p_key in left.keys(a)
        for q_key in right.keys(REDUCE_LEVEL - a)
    ]
    random.Random(f"{order_seed}:{family}").shuffle(pairs)
    for p_key, q_key in pairs:
        run.op(
            f"{family}:reduce {left.label(p_key)} {right.label(q_key)}",
            lambda: reduce(GradedVector.basis_vector(left, p_key),
                           GradedVector.basis_vector(right, q_key),
                           left_basis, right_basis),
            report=json_report,
        )


def check_fock_ode(system, _text):
    expect(system.to_json() == single_pole_ode(FOCK_LAM * FOCK_MU), "Fock ODE is not [lam mu z^-1]")


def check_fock_exponents(data, _text):
    expect(
        [(root, mult) for root, mult in data.exponents] == [(FOCK_LAM * FOCK_MU, 1)]
        and not data.irreducible_factors,
        f"indicial exponents {data.exponents} != [lam mu]",
    )


def run_reduce(inputs: dict, run: Pass) -> None:
    heisenberg = VoaSpec("heisenberg")
    fock = realize_pair(run, "fock", heisenberg,
                        ModuleSpec("fock", charge=FOCK_LAM), ModuleSpec("fock", charge=FOCK_MU))
    ising_voa = VoaSpec("virasoro", central_charge=ISING_C)
    ising = realize_pair(
        run, "ising", ising_voa,
        ModuleSpec("quotient", highest_weight=SIGMA_H,
                   singular_vectors=(level2_singular_vector(ISING_C, SIGMA_H),)),
        ModuleSpec("quotient", highest_weight=EPS_H,
                   singular_vectors=(level2_singular_vector(ISING_C, EPS_H),)),
    )
    reduce_all_pairs(run, "fock", fock, inputs["order_seed"])
    reduce_all_pairs(run, "ising", ising, inputs["order_seed"])
    _, _, left_basis, right_basis = fock
    system = run.op("fock:assemble-ode", lambda: assemble_ode(left_basis, right_basis),
                    report=json_report, check=check_fock_ode)
    run.op("fock:indicial-exponents", lambda: indicial_exponents(system),
           report=json_report, check=check_fock_exponents)
    run.op(
        "fock:frobenius-series",
        lambda: frobenius_series(system, FOCK_LAM * FOCK_MU, REDUCE_LEVEL),
        report=lambda sols: canonical([s.to_json() for s in sols]),
    )


# ----------------------------------------------------------------------
# pipeline: the paper's chain as CLI invocations

def check_pipeline(command: str, fock: bool):
    zeros = [1] + [0] * PIPELINE_DEPTH

    def check(value, _text):
        payload = cli_payload(value)
        if not fock:
            return
        if command in ("graded-dims", "cm-quotient"):
            expect(payload["quotient_dims"] == zeros, "Fock quotient dims are not [1, 0, ...]")
        elif command == "ode":
            ode = {k: payload[k] for k in ("dimension", "labels", "entries", "pole_order")}
            expect(ode == single_pole_ode(FOCK_LAM * FOCK_MU), "Fock ODE is not [lam mu z^-1]")
        elif command == "frobenius":
            exponents = payload["indicial"]["exponents"]
            expect(exponents == [{"value": fmt(FOCK_LAM * FOCK_MU), "multiplicity": 1}],
                   f"Fock exponents {exponents}")
    return check


def run_pipeline(inputs: dict, run: Pass) -> None:
    for family, commands in (("fock", PIPELINE_FOCK_COMMANDS), ("ising", PIPELINE_ISING_COMMANDS)):
        for command in commands:
            run.op(
                f"{family}:{command}",
                lambda: run_cli([command, "--config", inputs[family]]),
                report=cli_report, check=check_pipeline(command, family == "fock"),
            )
        depth, threads = PIPELINE_IDENTITY[family]
        run.op(
            f"{family}:identity-suite",
            lambda: run_cli(["identity-suite", "--config", inputs[family],
                             "--depth", str(depth), "--threads", str(threads)]),
            report=cli_report, check=check_identity,
        )


RUNNERS = {
    "identity": run_identity,
    "order": run_order,
    "reduce": run_reduce,
    "pipeline": run_pipeline,
}


def run_pass(inputs: dict, reference: dict, tracer=None, label: str = "", clock=perf_counter) -> list:
    """Execute one pass of the workload; returns its per-op results.

    Ops are timed by ``clock``, a ``perf_counter`` that may leave out
    time the benchmark spends on its own measurements.
    """
    run = Pass(reference, tracer, label, clock)
    RUNNERS[inputs["workload"]](inputs, run)
    return run.results
