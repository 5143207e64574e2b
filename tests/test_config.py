import json
import textwrap

import pytest

from vertexbound.cli import main
from vertexbound.config import (
    RunConfig,
    parse_integer,
    parse_partition,
    parse_rational,
    parse_singular_vectors,
)
from vertexbound.errors import ConfigError
from vertexbound.laurent import Q
from vertexbound.voa import level2_singular_vector


def load(text):
    return RunConfig.from_text(textwrap.dedent(text))


MINIMAL = """
    [run]
    depth = 3
"""


def test_minimal_defaults():
    config = load(MINIMAL)
    assert config.depth == 3
    assert config.m == 1
    assert not hasattr(config, "threads")
    assert config.out is None
    assert config.voa is None
    assert config.modules == {}
    assert config.intertwiners == {}


def test_run_section_required():
    with pytest.raises(ConfigError):
        load("[voa]\nkind = heisenberg\n")
    with pytest.raises(ConfigError):
        load("[run]\nm = 1\n")


def test_unknown_run_key_rejected():
    with pytest.raises(ConfigError):
        load("[run]\ndepth = 2\ncolour = blue\n")
    with pytest.raises(ConfigError):
        load("[run]\ndepth = 2\ncache_dir = /tmp/x\n")
    with pytest.raises(ConfigError):
        load("[run]\ndepth = 2\nthreads = 1\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        load(MINIMAL + "[mystery]\nx = 1\n")


def test_malformed_ini_rejected():
    with pytest.raises(ConfigError):
        load("depth = 3\n")  # option before any section header


def test_parse_rational():
    assert parse_rational("3/4", "t") == Q(3, 4)
    assert parse_rational(" -2 ", "t") == Q(-2)
    with pytest.raises(ConfigError):
        parse_rational("1/0", "t")
    with pytest.raises(ConfigError):
        parse_rational("about one", "t")


def test_parse_integer_minimum():
    assert parse_integer("5", "t") == 5
    with pytest.raises(ConfigError):
        parse_integer("0", "t", minimum=1)
    with pytest.raises(ConfigError):
        parse_integer("2.5", "t")


def test_parse_partition_sorts_and_validates():
    assert parse_partition("1,3,2", "t") == (3, 2, 1)
    assert parse_partition("", "t") == ()
    with pytest.raises(ConfigError):
        parse_partition("2,0", "t")


def test_virasoro_requires_central_charge():
    with pytest.raises(ConfigError):
        load(MINIMAL + "[voa]\nkind = virasoro\n")


def test_unknown_voa_kind_rejected():
    with pytest.raises(ConfigError):
        load(MINIMAL + "[voa]\nkind = sandworm\n")


def test_heisenberg_takes_no_singular_vectors():
    with pytest.raises(ConfigError):
        load(MINIMAL + "[voa]\nkind = heisenberg\nsingular_vectors = level2\n")


def test_fock_needs_heisenberg_voa():
    text = MINIMAL + """
    [voa]
    kind = virasoro
    central_charge = 1/2

    [module.f]
    kind = fock
    charge = 1
    """
    with pytest.raises(ConfigError):
        load(text)


def test_fock_parses_charge():
    text = MINIMAL + """
    [voa]
    kind = heisenberg

    [module.f]
    kind = fock
    charge = -3/2
    """
    spec = load(text).module_spec("f")
    assert spec.kind == "fock"
    assert spec.charge == Q(-3, 2)


def test_quotient_needs_singular_vectors():
    text = MINIMAL + """
    [voa]
    kind = virasoro
    central_charge = 1/2

    [module.q]
    kind = quotient
    highest_weight = 1/2
    """
    with pytest.raises(ConfigError):
        load(text)


def test_level2_shortcut_matches_direct_construction():
    text = MINIMAL + """
    [voa]
    kind = virasoro
    central_charge = 1/2

    [module.q]
    kind = quotient
    highest_weight = 1/16
    singular_vectors = level2
    """
    spec = load(text).module_spec("q")
    assert spec.singular_vectors == (level2_singular_vector(Q(1, 2), Q(1, 16)),)


def test_explicit_singular_vector_terms():
    vectors = parse_singular_vectors("(1,1):1 (2):-4/3", None, Q(0), "t")
    assert vectors == ((((1, 1), Q(1)), ((2,), Q(-4, 3))),)
    two = parse_singular_vectors("(1):1 | (2):1", None, Q(0), "t")
    assert len(two) == 2
    with pytest.raises(ConfigError):
        parse_singular_vectors("():1", None, Q(0), "t")
    with pytest.raises(ConfigError):
        parse_singular_vectors("nonsense", None, Q(0), "t")


def test_intertwiner_defaults_and_validation():
    text = MINIMAL + """
    [intertwiner.Y]
    lam = 1
    mu = -1/2
    """
    params = load(text).intertwiner_params("Y")
    assert params.lam == Q(1)
    assert params.mu == Q(-1, 2)
    assert params.scale == Q(1)
    with pytest.raises(ConfigError):
        load(MINIMAL + "[intertwiner.Y]\nlam = 1\n")
    with pytest.raises(ConfigError):
        load(MINIMAL + "[intertwiner.Y]\nlam = 1\nmu = 1\nscale = 0\n")


def test_missing_lookups_raise():
    config = load(MINIMAL)
    with pytest.raises(ConfigError):
        config.require_voa()
    with pytest.raises(ConfigError):
        config.module_spec("ghost")
    with pytest.raises(ConfigError):
        config.intertwiner_params("ghost")
    with pytest.raises(ConfigError):
        config.require_param("module")


def test_command_params_round_trip():
    config = load(MINIMAL + "[command]\nmodule = f1\nleft_key = 2,1\n")
    assert config.param("module") == "f1"
    assert config.param("absent", "dflt") == "dflt"
    assert config.require_param("left_key") == "2,1"


def test_volatile_keys_do_not_change_hash():
    base = load(MINIMAL)
    noisy = load("""
    [run]
    depth = 3
    out = /tmp/report.json
    """)
    assert base.config_hash() == noisy.config_hash()


def test_content_changes_do_change_hash():
    base = load(MINIMAL)
    assert base.config_hash() != load("[run]\ndepth = 4\n").config_hash()
    assert base.config_hash() != load(MINIMAL + "[command]\nmodule = f\n").config_hash()
    with_voa = load(MINIMAL + "[voa]\nkind = heisenberg\n")
    assert base.config_hash() != with_voa.config_hash()


def test_with_depth_rebuilds_hash():
    base = load(MINIMAL)
    deeper = base.with_depth(6)
    assert deeper.depth == 6
    assert deeper.config_hash() != base.config_hash()
    assert deeper.config_hash() == load("[run]\ndepth = 6\n").config_hash()
    with pytest.raises(ConfigError):
        base.with_depth(-1)


def test_duplicate_sections_rejected():
    with pytest.raises(ConfigError):
        load("[run]\ndepth = 1\n[run]\ndepth = 2\n")


RUN_FILE = """
    [run]
    depth = {depth}

    [voa]
    kind = virasoro
    central_charge = 1/2

    [module.q]
    kind = quotient
    highest_weight = 1/2
    singular_vectors = {singular}

    [command]
    module = q
    left = q
    right = q
    left_key = {left_key}
"""


@pytest.mark.parametrize("command,field,text", [
    ("graded-dims", "depth", "1_0"),
    ("graded-dims", "depth", "１０"),  # full-width digits
    ("reduce", "left_key", "2,1_1"),
    ("graded-dims", "singular", "(２):1"),
])
def test_integer_fields_take_ascii_decimals_only(tmp_path, capsys, command, field, text):
    # int() reads both "1_0" and full-width "10" as 10; run files, like
    # parse_rational, take ASCII decimal digits alone
    valid = {"depth": "2", "singular": "level2", "left_key": "1"}
    codes = []
    for values in (valid, {**valid, field: text}):
        path = tmp_path / "run.ini"
        path.write_text(textwrap.dedent(RUN_FILE.format(**values)), encoding="utf-8")
        codes.append(main([command, "--config", str(path)]))
        report = json.loads(capsys.readouterr().out)
    assert codes == [0, 2]
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["exit_code"] == 2
