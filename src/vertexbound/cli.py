"""Command-line front end: one command per run, one JSON report out.

Each invocation parses a single config file, realizes the requested
truncated structures, runs one command on them, and emits a
schema-versioned JSON report on stdout (or to ``--out``).  Reports are
deterministic: byte-identical across repeated runs.  ``--threads`` is
still accepted and checked to be positive, but has no effect; it and
the output path are excluded from the configuration hash echoed in the
report.  The ``[run] threads`` key is refused.  Failures are emitted as
machine-readable error objects with a distinct exit code per error
family (see :mod:`vertexbound.errors`).

``join`` and ``compare`` build the free-boson intertwiner once per
command: every name they read must share the source charges, which is
checked before anything is built, and each name is the one build times
its scale.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cofinite import choose_complement, cm_quotient_dims, graded_dims, log_power_bound
from .config import RunConfig, parse_integer, parse_partition, parse_rational
from .errors import ConfigError, InputShapeError, VertexboundError
from .frobenius import frobenius_series, indicial_exponents
from .fusion import SOURCE_MISMATCH, compare, heisenberg_intertwiner, join
from .laurent import QONE, format_rational
from .modes import GradedVector, run_identity_suite
from .reduction import assemble_ode, fusion_bound, reduce
from .voa import realize_module, realize_voa

REPORT_SCHEMA = "vertexbound-report/1"

_GEN_WEIGHT = {"heisenberg": 1, "virasoro": 2, "virasoro-quotient": 2}


def _padded_voa(config, m: int):
    """The algebra realized ``gen_weight + m - 1`` levels past the depth.

    That pad lets the C_m spanning sets, and so the complements, be
    certified through the configured depth.
    """
    voa_spec = config.require_voa()
    return realize_voa(voa_spec, config.depth + _GEN_WEIGHT[voa_spec.kind] + m - 1)


def _certification(depth: int, warnings=()) -> dict:
    return {"certified_depth": depth, "truncation_warnings": list(warnings)}


def _named_module(config, voa):
    """The module a single-module command acts on (``voa`` = adjoint)."""
    name = config.param("module", "voa")
    if name == "voa":
        return voa
    return realize_module(config.module_spec(name), voa)


def _complement_pair(config):
    """Left/right modules over one shared algebra, with complements."""
    voa = _padded_voa(config, config.m)
    left = realize_module(config.module_spec(config.require_param("left")), voa)
    right = realize_module(config.module_spec(config.require_param("right")), voa)
    left_basis = choose_complement(left, config.depth, m=config.m)
    right_basis = choose_complement(right, config.depth, m=config.m)
    return left, right, left_basis, right_basis


def _intertwiners(config, voa, names) -> list:
    """The named intertwiners, scaled copies of one free-boson build.

    ``join`` and ``compare`` need one source pair, so every name must
    carry the charges (lam, mu) of the first; a mismatch is refused
    before anything is built, with the error ``join``/``compare`` raise.
    ``names`` may be a lazy iterable; each is looked up as it comes.
    """
    params = []
    for name in names:
        params.append(config.intertwiner_params(name))
        if (params[-1].lam, params[-1].mu) != (params[0].lam, params[0].mu):
            raise InputShapeError(SOURCE_MISMATCH)
    base = heisenberg_intertwiner(params[0].lam, params[0].mu, config.depth, voa=voa)
    return [base if p.scale == QONE else base.scale(p.scale) for p in params]


# ----------------------------------------------------------------------
# command bodies: each returns (payload, certification)

def _cmd_graded_dims(config):
    module = _named_module(config, _padded_voa(config, 1))
    rep = graded_dims(module, config.depth)
    payload = {
        "module": rep.module,
        "depth": rep.depth,
        "dims": rep.dims,
        "c1_ranks": rep.c1_ranks,
        "quotient_dims": rep.quotient_dims,
        "certified": rep.certified,
        "window": rep.window,
    }
    good = rep.certified_depth
    warnings = []
    if good < config.depth:
        warnings.append(f"no spanning certificate above level {good}")
    return payload, _certification(good, warnings)


def _cmd_cm_quotient(config):
    module = _named_module(config, _padded_voa(config, config.m))
    dims = cm_quotient_dims(module, config.m, config.depth)
    payload = {
        "module": module.describe(),
        "m": config.m,
        "depth": config.depth,
        "quotient_dims": dims,
    }
    return payload, _certification(config.depth)


def _cmd_complement(config):
    module = _named_module(config, _padded_voa(config, config.m))
    basis = choose_complement(module, config.depth, m=config.m)
    payload = {
        "module": basis.module.describe(),
        "m": basis.m,
        "depth": basis.depth,
        "window": basis.window,
        "lowest_weight": format_rational(basis.lowest_weight),
        "labels": basis.describe_labels(),
    }
    return payload, _certification(config.depth)


def _cmd_reduce(config):
    left, right, left_basis, right_basis = _complement_pair(config)
    p_key = parse_partition(config.param("left_key", ""), "[command] left_key")
    q_key = parse_partition(config.param("right_key", ""), "[command] right_key")
    p = GradedVector.basis_vector(left, p_key)
    q = GradedVector.basis_vector(right, q_key)
    combination = reduce(p, q, left_basis, right_basis)
    payload = {
        "p": left.label(p_key),
        "q": right.label(q_key),
        **combination.to_json(),
    }
    return payload, _certification(config.depth)


def _cmd_ode(config):
    _left, _right, left_basis, right_basis = _complement_pair(config)
    system = assemble_ode(left_basis, right_basis)
    payload = {
        "left": left_basis.module.describe(),
        "right": right_basis.module.describe(),
        **system.to_json(),
    }
    return payload, _certification(config.depth)


def _cmd_bound(config):
    _left, _right, left_basis, right_basis = _complement_pair(config)
    return fusion_bound(left_basis, right_basis).to_json(), _certification(config.depth)


def _cmd_frobenius(config):
    _left, _right, left_basis, right_basis = _complement_pair(config)
    system = assemble_ode(left_basis, right_basis)
    data = indicial_exponents(system)
    series_depth = parse_integer(
        config.param("series_depth", str(config.depth)),
        "[command] series_depth", minimum=0,
    )
    max_log_text = config.param("max_log")
    max_log = None
    if max_log_text is not None:
        max_log = parse_integer(max_log_text, "[command] max_log", minimum=1)
    exponent_text = config.param("exponent")
    if exponent_text is not None:
        bases = [parse_rational(exponent_text, "[command] exponent")]
    else:
        # one base exponent per coset mod Z; the series for the larger
        # roots of a coset appear inside the base family
        cosets: dict = {}
        for root, _mult in data.exponents:
            frac = root - (root.numerator // root.denominator)
            cosets.setdefault(frac, []).append(root)
        bases = sorted(min(group) for group in cosets.values())
    series = []
    for base in bases:
        solutions = frobenius_series(system, base, series_depth, max_log=max_log)
        series.append({
            "exponent": format_rational(base),
            "solutions": [sol.to_json() for sol in solutions],
        })
    payload = {
        "left": left_basis.module.describe(),
        "right": right_basis.module.describe(),
        "pole_order": system.pole_order,
        "indicial": data.to_json(),
        "series": series,
    }
    return payload, _certification(config.depth)


def _cmd_join(config):
    names = config.require_param("intertwiners").split()
    voa = realize_voa(config.require_voa(), config.depth)
    joined, *rest = _intertwiners(config, voa, names)
    for datum in rest:
        joined = join(joined, datum)
    certificate = joined.surjectivity_certificate()
    payload = {
        **joined.to_json(),
        "target_dims": [joined.target.dim(n) for n in range(joined.depth + 1)],
        "surjectivity": [
            {"level": level, "rank": rank, "dim": dim}
            for level, (rank, dim) in sorted(certificate.items())
        ],
    }
    return payload, _certification(config.depth)


def _cmd_compare(config):
    voa = realize_voa(config.require_voa(), config.depth)
    names = (config.require_param(key) for key in ("first", "second"))
    first, second = _intertwiners(config, voa, names)
    return compare(first, second).to_json(), _certification(config.depth)


def _cmd_log_bound(config):
    text = config.require_param("orders")
    orders = [parse_integer(p, "[command] orders", minimum=1) for p in text.split(",")]
    if len(orders) != 3:
        raise ConfigError("[command]: orders takes three comma-separated integers")
    bound = log_power_bound(*orders)
    payload = {
        "orders": list(bound.orders),
        "coarse_bound": bound.coarse_bound,
        "sharp_bound": bound.sharp_bound,
    }
    return payload, _certification(config.depth)


def _cmd_identity_suite(config):
    voa = realize_voa(config.require_voa(), config.depth)
    module = _named_module(config, voa)
    report = run_identity_suite(module)
    return report.summary(), _certification(config.depth)


_COMMANDS = {
    "graded-dims": _cmd_graded_dims,
    "cm-quotient": _cmd_cm_quotient,
    "complement": _cmd_complement,
    "reduce": _cmd_reduce,
    "ode": _cmd_ode,
    "bound": _cmd_bound,
    "frobenius": _cmd_frobenius,
    "join": _cmd_join,
    "compare": _cmd_compare,
    "log-bound": _cmd_log_bound,
    "identity-suite": _cmd_identity_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertexbound",
        description="exact computations on truncated vertex algebra realizations",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True,
                        help="path of the INI-style run description")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--depth", type=int, default=None,
                        help="override the [run] depth")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility (must be >= 1); has no effect")
    return parser


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise ConfigError(f"cannot write report to {out_path}: {err}") from err
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config)
        if args.depth is not None:
            config = config.with_depth(args.depth)
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads must be a positive integer")
        payload, certification = _COMMANDS[args.command](config)
        report = {
            "schema": REPORT_SCHEMA,
            "command": args.command,
            "config_hash": config.config_hash(),
            "depth": config.depth,
            "payload": payload,
            "certification": certification,
        }
        _emit(report, args.out if args.out is not None else config.out)
    except VertexboundError as err:
        # error objects always go to stdout so they cannot be lost to
        # an unwritable --out target
        error = {
            "schema": REPORT_SCHEMA,
            "error": {
                "type": type(err).__name__,
                "message": str(err),
                "exit_code": err.exit_code,
            },
        }
        sys.stdout.write(json.dumps(error, sort_keys=True, indent=2) + "\n")
        return err.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
