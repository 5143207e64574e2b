import gc
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import textwrap
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from bruteforce import log_recursion_state
from vertexbound import cli
from vertexbound.cli import REPORT_SCHEMA, main


FOCK_INI = """
[run]
depth = 4
m = 1

[voa]
kind = heisenberg

[module.f1]
kind = fock
charge = 1

[module.f2]
kind = fock
charge = 2

[intertwiner.Y]
lam = 1
mu = 2

[intertwiner.Yhalf]
lam = 1
mu = 2
scale = 1/2

[command]
module = f1
left = f1
right = f2
intertwiners = Y Yhalf
first = Y
second = Yhalf
orders = 1,2,3
"""

ISING_INI = """
[run]
depth = 4

[voa]
kind = virasoro
central_charge = 1/2

[module.sigma]
kind = verma
highest_weight = 1/16

[module.eps]
kind = quotient
highest_weight = 1/2
singular_vectors = level2

[command]
module = eps
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


def test_cm_quotient_fock_example(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["cm-quotient", "--config", config], capsys)
    assert code == 0
    assert report["schema"] == "vertexbound-report/1"
    assert report["command"] == "cm-quotient"
    assert len(report["config_hash"]) == 64
    assert report["payload"]["quotient_dims"] == [1, 0, 0, 0, 0]
    assert report["certification"]["certified_depth"] == 4
    assert report["certification"]["truncation_warnings"] == []


def test_cm_quotient_virasoro_quotient(tmp_path, capsys):
    config = write_config(tmp_path, ISING_INI)
    code, report = run_json(["cm-quotient", "--config", config], capsys)
    assert code == 0
    assert report["payload"]["quotient_dims"] == [1, 1, 0, 0, 0]


def test_cm_quotient_verma(tmp_path, capsys):
    config = write_config(tmp_path, ISING_INI.replace("module = eps", "module = sigma"))
    code, report = run_json(["cm-quotient", "--config", config], capsys)
    assert code == 0
    assert report["payload"]["quotient_dims"] == [1, 1, 1, 1, 1]


def test_ode_example(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["ode", "--config", config], capsys)
    assert code == 0
    payload = report["payload"]
    assert payload["dimension"] == 1
    assert payload["pole_order"] == 1
    assert payload["entries"] == [
        {"row": 0, "col": 0, "terms": [{"power": -1, "num": "2", "den": "1"}]}
    ]


def test_graded_dims_certified(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["graded-dims", "--config", config], capsys)
    assert code == 0
    payload = report["payload"]
    assert payload["dims"] == [1, 1, 2, 3, 5]
    assert payload["certified"] == [True] * 5
    assert report["certification"]["certified_depth"] == 4


def test_complement_payload(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["complement", "--config", config], capsys)
    assert code == 0
    assert report["payload"]["labels"] == [{"level": 0, "monomial": "|1>"}]
    assert report["payload"]["lowest_weight"] == "1/2"


def test_reduce_echoes_inputs(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["reduce", "--config", config], capsys)
    assert code == 0
    payload = report["payload"]
    assert payload["p"] == "|1>"
    assert payload["q"] == "|2>"
    assert payload["entries"]
    assert payload["entries"][0]["terms"]


def test_bound_payload(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["bound", "--config", config], capsys)
    assert code == 0
    assert report["payload"]["value"] == 1
    assert report["payload"]["provenance"][0]["product"] == 1


def test_frobenius_payload(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["frobenius", "--config", config], capsys)
    assert code == 0
    payload = report["payload"]
    assert payload["indicial"]["exponents"] == [{"value": "2", "multiplicity": 1}]
    sols = payload["series"][0]["solutions"]
    assert sols[0]["exponent"] == "2"
    assert sols[0]["terms"][0]["vector"] == ["1"]


def test_join_is_surjective_onto_target(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["join", "--config", config], capsys)
    assert code == 0
    payload = report["payload"]
    assert payload["target_dims"] == [1, 1, 2, 3, 5]
    for row in payload["surjectivity"]:
        assert row["rank"] == row["dim"]


def test_compare_scalar_twist_equivalent(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["compare", "--config", config], capsys)
    assert code == 0
    payload = report["payload"]
    assert payload["relation"] == "equivalent"
    assert payload["witness"] is not None
    assert payload["reverse_witness"] is not None


@contextmanager
def time_limit(seconds):
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


MISMATCHED_SOURCES = """
[run]
depth = 7

[voa]
kind = heisenberg

[intertwiner.A]
lam = 1
mu = 2

[intertwiner.A2]
lam = 1
mu = 2
scale = 2

[intertwiner.B]
lam = 2
mu = 1

[command]
intertwiners = A A2 B
first = A
second = B
"""


@pytest.mark.parametrize("command", ["join", "compare"])
def test_mismatched_sources_are_refused_before_any_build(tmp_path, capsys, command):
    # building one depth-7 series alone takes seconds; the refusal needs none
    config = write_config(tmp_path, MISMATCHED_SOURCES)
    with time_limit(5):
        code, report = run_json([command, "--config", config], capsys)
    assert code == 2
    assert report == {
        "schema": REPORT_SCHEMA,
        "error": {
            "type": "InputShapeError",
            "message": "intertwiner data must share the source pair (U, W)",
            "exit_code": 2,
        },
    }


HUGE_CHARGES = """
[run]
depth = 4

[voa]
kind = heisenberg

[intertwiner.Y]
lam = 1000000007/1000000009
mu = -999999937/1000000021

[intertwiner.Ytwisted]
lam = 1000000007/1000000009
mu = -999999937/1000000021
scale = 1000000003/999999999

[command]
intertwiners = Y Ytwisted
first = Y
second = Ytwisted
"""


def test_join_and_compare_on_huge_charges_in_bounded_time(tmp_path, capsys):
    config = write_config(tmp_path, HUGE_CHARGES)
    with time_limit(5):
        code, joined = run_json(["join", "--config", config], capsys)
        assert code == 0
        code, compared = run_json(["compare", "--config", config], capsys)
        assert code == 0
    assert joined["payload"]["target_dims"] == [1, 1, 2, 3, 5]
    assert compared["payload"]["relation"] == "equivalent"


def test_each_command_builds_one_intertwiner(tmp_path, capsys, monkeypatch):
    builds = []
    real = cli.heisenberg_intertwiner

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "heisenberg_intertwiner", counting)
    text = FOCK_INI.replace("intertwiners = Y Yhalf", "intertwiners = Y Yhalf Y3")
    text += "\n[intertwiner.Y3]\nlam = 1\nmu = 2\nscale = 3\n"
    config = write_config(tmp_path, text)
    for _ in range(2):
        for command in ("join", "compare"):
            builds.clear()
            code, _ = run_cli([command, "--config", config, "--depth", "3"], capsys)
            assert code == 0
            assert len(builds) == 1


def test_log_bound_payload(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["log-bound", "--config", config], capsys)
    assert code == 0
    payload = report["payload"]
    assert payload["orders"] == [1, 2, 3]
    assert payload["coarse_bound"] == 9
    assert payload["sharp_bound"] == 4
    # the sharp bound is the first empty state of the log recursion
    assert log_recursion_state((1, 2, 3), payload["sharp_bound"] - 1)
    assert "attained" not in payload


def test_identity_suite_heisenberg(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(
        ["identity-suite", "--config", config, "--depth", "2"], capsys
    )
    assert code == 0
    payload = report["payload"]
    assert payload["all_passed"] is True
    assert payload["failures"] == []
    assert payload["commutator_checked"] > 0
    assert payload["associativity_checked"] > 0


def test_identity_suites_in_one_process_report_like_fresh_processes(tmp_path, capsys):
    # a suite's check plans live for one call: runs on other modules and
    # depths in the same process leave no trace in the next report
    fock = write_config(tmp_path, FOCK_INI, "fock.ini")
    ising = write_config(tmp_path, ISING_INI, "ising.ini")
    runs = [["identity-suite", "--config", fock, "--depth", "3"],
            ["identity-suite", "--config", ising, "--depth", "4"],
            ["identity-suite", "--config", fock, "--depth", "2"]]
    in_process = [run_cli(argv, capsys) for argv in runs]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv, (code, out) in zip(runs, in_process):
        fresh = subprocess.run([sys.executable, "-m", "vertexbound.cli", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert (fresh.returncode, fresh.stdout) == (code, out)
        assert code == 0 and json.loads(out)["payload"]["all_passed"] is True


def test_out_writes_report_file(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    target = tmp_path / "report.json"
    code, out = run_cli(
        ["cm-quotient", "--config", config, "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text(encoding="utf-8"))
    assert report["payload"]["quotient_dims"] == [1, 0, 0, 0, 0]


def test_depth_override_changes_hash(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    _, base = run_json(["cm-quotient", "--config", config], capsys)
    code, deeper = run_json(
        ["cm-quotient", "--config", config, "--depth", "3"], capsys
    )
    assert code == 0
    assert deeper["depth"] == 3
    assert deeper["payload"]["quotient_dims"] == [1, 0, 0, 0]
    assert deeper["config_hash"] != base["config_hash"]


def test_reports_byte_identical_across_threads(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    argv = ["identity-suite", "--config", config, "--depth", "2"]
    _, first = run_cli(argv + ["--threads", "1"], capsys)
    _, second = run_cli(argv + ["--threads", "8"], capsys)
    assert first == second


def test_threads_flag_is_accepted_and_has_no_effect(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    argv = ["identity-suite", "--config", config, "--depth", "2"]
    code, plain = run_cli(argv, capsys)
    assert code == 0
    assert run_cli(argv + ["--threads", "2"], capsys) == (0, plain)


def test_non_positive_threads_are_config_errors(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    code, report = run_json(["cm-quotient", "--config", config, "--threads", "0"], capsys)
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["exit_code"] == 2


@pytest.mark.parametrize("flag", ["--depth", "--threads"])
@pytest.mark.parametrize("text", ["1_0", "１０", "abc"])
def test_integer_flags_take_ascii_decimals_only(tmp_path, capsys, flag, text):
    # the flags follow the run-file rule: int() would read "1_0" and
    # full-width "10" as 10, and argparse would refuse "abc" on stderr
    config = write_config(tmp_path, FOCK_INI)
    assert run_cli(["graded-dims", "--config", config, flag, "2"], capsys)[0] == 0
    code, report = run_json(["graded-dims", "--config", config, flag, text], capsys)
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["exit_code"] == 2
    assert flag in report["error"]["message"]


def test_cache_dir_key_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI.replace("m = 1", "m = 1\ncache_dir = /tmp/x"))
    code, report = run_json(["graded-dims", "--config", config], capsys)
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["exit_code"] == 2
    assert "cache_dir" in report["error"]["message"]


@pytest.mark.parametrize("value", ["1", "0"])
def test_threads_key_is_a_config_error(tmp_path, capsys, value):
    # the [run] key is gone; the --threads flag is still accepted
    config = write_config(tmp_path, FOCK_INI.replace("m = 1", f"m = 1\nthreads = {value}"))
    code, report = run_json(["graded-dims", "--config", config], capsys)
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["exit_code"] == 2
    assert "threads" in report["error"]["message"]


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code, report = run_json(
        ["cm-quotient", "--config", str(tmp_path / "absent.ini")], capsys
    )
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["exit_code"] == 2


@pytest.mark.parametrize(
    "command,old,new",
    [
        ("cm-quotient", "charge = 2", "charge = 1.5"),
        ("frobenius", "orders = 1,2,3", "orders = 1,2,3\nexponent = 1e-3"),
    ],
)
def test_float_notation_is_a_config_error(tmp_path, capsys, command, old, new):
    config = write_config(tmp_path, FOCK_INI.replace(old, new))
    code, report = run_json([command, "--config", config], capsys)
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["exit_code"] == 2
    assert new.split(" = ")[-1] in report["error"]["message"]


def test_truncation_error_exit_code(tmp_path, capsys):
    text = FOCK_INI.replace("intertwiners = Y Yhalf",
                            "intertwiners = Y Yhalf\nleft_key = 9")
    config = write_config(tmp_path, text)
    code, report = run_json(["reduce", "--config", config], capsys)
    assert code == 3
    assert report["error"]["type"] == "TruncationError"


def test_missing_command_param_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, MINIMAL_HEISENBERG)
    code, report = run_json(["reduce", "--config", config], capsys)
    assert code == 2
    assert report["error"]["type"] == "ConfigError"


MINIMAL_HEISENBERG = """
[run]
depth = 3

[voa]
kind = heisenberg
"""


def test_unknown_command_rejected_by_parser(tmp_path, capsys):
    config = write_config(tmp_path, FOCK_INI)
    with pytest.raises(SystemExit):
        main(["conjure", "--config", config])


def test_run_section_defaults_feed_cli(tmp_path, capsys):
    # out from [run] is honored when the flag is absent
    target = tmp_path / "from_run.json"
    text = FOCK_INI.replace("m = 1", f"m = 1\nout = {target}")
    config = write_config(tmp_path, text)
    code, out = run_cli(["cm-quotient", "--config", config], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["payload"]["quotient_dims"] == [1, 0, 0, 0, 0]


# ----------------------------------------------------------------------
# lifetimes: a command's realizations go when it returns

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _cyclic_garbage(argv):
    """The exit code of one in-process run and the names of the vertexbound
    types it left for the cycle collector rather than reference counting."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with redirect_stdout(io.StringIO()):
            code = main(argv)
        gc.collect()
        leaked = sorted({type(obj).__qualname__ for obj in gc.garbage
                         if type(obj).__module__.startswith("vertexbound")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return code, leaked


@pytest.mark.parametrize("family", ["fock", "ising", "order"])
def test_commands_free_their_realizations_by_reference_counting(tmp_path, monkeypatch, family):
    # the benchmark's pipeline commands and its order config's join and compare
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("VERTEXBOUND_CACHE", str(tmp_path / "cache"))
    workloads = importlib.import_module("workloads")
    if family == "order":
        config = workloads.prepare("order", 77, tmp_path)["order"]
        runs = {"join": ["join", "--config", config, "--depth", str(workloads.ORDER_JOIN_DEPTH)],
                "compare": ["compare", "--config", config]}
    else:
        config = workloads.prepare("pipeline", 0, tmp_path)[family]
        commands = {"fock": workloads.PIPELINE_FOCK_COMMANDS,
                    "ising": workloads.PIPELINE_ISING_COMMANDS}[family]
        runs = {command: [command, "--config", config] for command in commands}
        depth, threads = workloads.PIPELINE_IDENTITY[family]
        runs["identity-suite"] = ["identity-suite", "--config", config,
                                  "--depth", str(depth), "--threads", str(threads)]
    results = {name: _cyclic_garbage(argv) for name, argv in runs.items()}
    assert results == {name: (0, []) for name in runs}
