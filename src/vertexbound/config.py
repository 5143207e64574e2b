"""Declarative run configuration: parsing, validation, canonical hashing.

A run is described by one INI-style text file; every parameter is
validated here, so the engine below never sees a malformed value.
Rationals are written ``p/q`` (or as plain integers), partitions as
comma-separated parts, and singular vectors either as the ``level2``
shortcut or as explicit ``(parts):coeff`` terms::

    [run]
    depth = 4
    m = 1

    [voa]
    kind = virasoro
    central_charge = 1/2

    [module.ising]
    kind = quotient
    highest_weight = 1/2
    singular_vectors = level2

    [intertwiner.Y]
    lam = 1
    mu = 2

    [command]
    module = ising

Module and intertwiner sections are named (``[module.NAME]``); the
``[command]`` section holds per-command parameters, while the command
itself is chosen on the command line.  The canonical form of a parsed
configuration excludes volatile plumbing (the output path), so its
hash identifies the mathematical content of a run and nothing else.
``[run]`` takes only ``depth``, ``m`` and ``out``; any other key, such
as the retired ``threads`` and ``cache_dir``, is refused with a
:class:`ConfigError`.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from . import laurent
from .errors import ConfigError, InputShapeError
from .laurent import Q, format_rational
from .voa import ModuleSpec, VoaSpec, level2_singular_vector

_TERM_RE = re.compile(r"^\(([\d,\s]*)\)\s*:\s*(\S+)$")


def parse_rational(text: str, context: str) -> Q:
    """Exact rational from ``p/q`` or integer text; anything else rejects."""
    try:
        return laurent.parse_rational(text)
    except InputShapeError as err:
        raise ConfigError(f"{context}: {text!r} is not an exact rational") from err


def parse_integer(text: str, context: str, minimum: int | None = None) -> int:
    try:
        value = int(text.strip())
    except ValueError as err:
        raise ConfigError(f"{context}: {text!r} is not an integer") from err
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}: {value} is below the minimum {minimum}")
    return value


def parse_partition(text: str, context: str) -> tuple:
    """Comma-separated parts to a descending partition tuple; '' is empty."""
    body = text.strip()
    if not body:
        return ()
    parts = []
    for piece in body.split(","):
        parts.append(parse_integer(piece, context, minimum=1))
    return tuple(sorted(parts, reverse=True))


def parse_singular_vectors(text: str, central_charge, highest_weight,
                           context: str) -> tuple:
    """Singular vector data: the ``level2`` shortcut or explicit terms.

    Explicit form: whitespace-separated ``(parts):coeff`` terms, several
    vectors separated by ``|``, e.g. ``(1,1):1 (2):-4/3``.
    """
    body = text.strip()
    if not body:
        return ()
    if body == "level2":
        if central_charge is None:
            raise ConfigError(f"{context}: the level2 shortcut needs a central charge")
        return (level2_singular_vector(central_charge, highest_weight),)
    vectors = []
    for chunk in body.split("|"):
        terms = []
        for token in chunk.split():
            match = _TERM_RE.match(token)
            if not match:
                raise ConfigError(
                    f"{context}: {token!r} is not a '(parts):coeff' term"
                )
            parts = parse_partition(match.group(1), context)
            coeff = parse_rational(match.group(2), context)
            if not parts:
                raise ConfigError(f"{context}: singular vector terms need parts")
            terms.append((parts, coeff))
        if not terms:
            raise ConfigError(f"{context}: empty singular vector")
        terms.sort(key=lambda item: item[0])
        vectors.append(tuple(terms))
    return tuple(vectors)


def _serialize_singular(vectors: tuple) -> list:
    return [
        [[list(parts), format_rational(coeff)] for parts, coeff in vector]
        for vector in vectors
    ]


@dataclass(frozen=True)
class IntertwinerParams:
    """Free-boson intertwiner description: charges and a scalar twist."""

    lam: Q
    mu: Q
    scale: Q


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description.

    ``canonical`` is a nested plain-data image of everything that can
    influence a result; :meth:`config_hash` digests it.  Plumbing that
    cannot (the output path) lives outside.
    """

    depth: int
    m: int
    out: str | None
    voa: VoaSpec | None
    modules: dict
    intertwiners: dict
    command_params: dict
    canonical: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    # -- construction --------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None, strict=True)
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as err:
            raise ConfigError(f"malformed config: {err}") from err

        if not parser.has_section("run"):
            raise ConfigError("config needs a [run] section with a depth")
        run = dict(parser.items("run"))
        known_run = {"depth", "m", "out"}
        for key in run:
            if key not in known_run:
                raise ConfigError(f"[run]: unknown key {key!r}")
        if "depth" not in run:
            raise ConfigError("[run]: depth is required")
        depth = parse_integer(run["depth"], "[run] depth", minimum=0)
        m = parse_integer(run.get("m", "1"), "[run] m", minimum=1)
        out = run.get("out") or None

        voa_spec = None
        if parser.has_section("voa"):
            voa_spec = cls._parse_voa(dict(parser.items("voa")))

        modules = {}
        intertwiners = {}
        command_params = {}
        for section in parser.sections():
            if section in ("run", "voa"):
                continue
            items = dict(parser.items(section))
            if section == "command":
                command_params = items
            elif section.startswith("module."):
                name = section[len("module."):]
                if not name:
                    raise ConfigError("module sections need a name: [module.NAME]")
                modules[name] = cls._parse_module(name, items, voa_spec)
            elif section.startswith("intertwiner."):
                name = section[len("intertwiner."):]
                if not name:
                    raise ConfigError("intertwiner sections need a name")
                intertwiners[name] = cls._parse_intertwiner(name, items)
            else:
                raise ConfigError(f"unknown section [{section}]")

        config = cls(
            depth=depth,
            m=m,
            out=out,
            voa=voa_spec,
            modules=modules,
            intertwiners=intertwiners,
            command_params=command_params,
        )
        return replace(config, canonical=config._build_canonical())

    @staticmethod
    def _parse_voa(items: dict) -> VoaSpec:
        kind = items.get("kind", "").strip()
        if kind not in ("heisenberg", "virasoro", "virasoro-quotient"):
            raise ConfigError(f"[voa]: unknown kind {kind!r}")
        charge = None
        singular = ()
        if kind in ("virasoro", "virasoro-quotient"):
            if "central_charge" not in items:
                raise ConfigError("[voa]: Virasoro algebras need central_charge")
            charge = parse_rational(items["central_charge"], "[voa] central_charge")
        if kind == "virasoro-quotient":
            if "singular_vectors" not in items:
                raise ConfigError("[voa]: quotients need singular_vectors")
            singular = parse_singular_vectors(
                items["singular_vectors"], charge, Q(0), "[voa] singular_vectors",
            )
        elif "singular_vectors" in items:
            raise ConfigError(f"[voa]: kind {kind!r} takes no singular vectors")
        return VoaSpec(kind=kind, central_charge=charge, singular_vectors=singular)

    @staticmethod
    def _parse_module(name: str, items: dict, voa_spec) -> ModuleSpec:
        context = f"[module.{name}]"
        kind = items.get("kind", "").strip()
        if kind == "fock":
            if voa_spec is None or voa_spec.kind != "heisenberg":
                raise ConfigError(f"{context}: Fock modules need a heisenberg [voa]")
            if "charge" not in items:
                raise ConfigError(f"{context}: Fock modules need a charge")
            return ModuleSpec(kind="fock",
                              charge=parse_rational(items["charge"], context))
        if kind in ("verma", "quotient"):
            if voa_spec is None or not voa_spec.kind.startswith("virasoro"):
                raise ConfigError(f"{context}: {kind} modules need a virasoro [voa]")
            if "highest_weight" not in items:
                raise ConfigError(f"{context}: {kind} modules need highest_weight")
            h = parse_rational(items["highest_weight"], context)
            if kind == "verma":
                return ModuleSpec(kind="verma", highest_weight=h)
            if "singular_vectors" not in items:
                raise ConfigError(f"{context}: quotients need singular_vectors")
            singular = parse_singular_vectors(
                items["singular_vectors"], voa_spec.central_charge, h,
                f"{context} singular_vectors",
            )
            if not singular:
                raise ConfigError(f"{context}: quotients need singular_vectors")
            return ModuleSpec(kind="quotient", highest_weight=h,
                              singular_vectors=singular)
        raise ConfigError(f"{context}: unknown module kind {kind!r}")

    @staticmethod
    def _parse_intertwiner(name: str, items: dict) -> IntertwinerParams:
        context = f"[intertwiner.{name}]"
        for key in ("lam", "mu"):
            if key not in items:
                raise ConfigError(f"{context}: {key} is required")
        scale = parse_rational(items.get("scale", "1"), f"{context} scale")
        if not scale:
            raise ConfigError(f"{context}: scale must be nonzero")
        return IntertwinerParams(
            lam=parse_rational(items["lam"], f"{context} lam"),
            mu=parse_rational(items["mu"], f"{context} mu"),
            scale=scale,
        )

    # -- canonical form and hashing ------------------------------------

    def _build_canonical(self) -> dict:
        canon: dict = {"run": {"depth": self.depth, "m": self.m}}
        if self.voa is not None:
            canon["voa"] = {
                "kind": self.voa.kind,
                "central_charge": (
                    format_rational(self.voa.central_charge)
                    if self.voa.central_charge is not None else None
                ),
                "singular_vectors": _serialize_singular(self.voa.singular_vectors),
            }
        canon["modules"] = {
            name: {
                "kind": spec.kind,
                "charge": (format_rational(spec.charge)
                           if spec.charge is not None else None),
                "highest_weight": (format_rational(spec.highest_weight)
                                   if spec.highest_weight is not None else None),
                "singular_vectors": _serialize_singular(spec.singular_vectors),
            }
            for name, spec in sorted(self.modules.items())
        }
        canon["intertwiners"] = {
            name: {
                "lam": format_rational(params.lam),
                "mu": format_rational(params.mu),
                "scale": format_rational(params.scale),
            }
            for name, params in sorted(self.intertwiners.items())
        }
        canon["command"] = dict(sorted(self.command_params.items()))
        return canon

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def with_depth(self, depth: int) -> "RunConfig":
        if depth < 0:
            raise ConfigError("depth override must be non-negative")
        out = replace(self, depth=depth)
        return replace(out, canonical=out._build_canonical())

    # -- lookups --------------------------------------------------------

    def require_voa(self) -> VoaSpec:
        if self.voa is None:
            raise ConfigError("this command needs a [voa] section")
        return self.voa

    def module_spec(self, name: str) -> ModuleSpec:
        try:
            return self.modules[name]
        except KeyError:
            raise ConfigError(f"no [module.{name}] section defined") from None

    def intertwiner_params(self, name: str) -> IntertwinerParams:
        try:
            return self.intertwiners[name]
        except KeyError:
            raise ConfigError(f"no [intertwiner.{name}] section defined") from None

    def param(self, key: str, default: str | None = None) -> str | None:
        return self.command_params.get(key, default)

    def require_param(self, key: str) -> str:
        value = self.command_params.get(key)
        if value is None or not value.strip():
            raise ConfigError(f"[command]: {key} is required for this command")
        return value
