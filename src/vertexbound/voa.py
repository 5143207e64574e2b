"""Concrete graded realizations of vertex algebras and their modules.

Two families are realized exactly:

* the rank-one Heisenberg (free boson) algebra with basis monomials
  ``a(-n_1)...a(-n_k)|q>`` indexed by partitions, acting on Fock modules
  of arbitrary rational charge, and
* the universal Virasoro algebra at rational central charge with basis
  ``L(-n_1)...L(-n_k)|0>`` (parts >= 2), acting on Verma modules and on
  quotients by verified singular vectors.

A realization carries a truncation depth ``D`` used by the public layer,
but its internal basis and generator action are exact at every level, so
no rounding or silent dropping happens here.  Elements at the raw level
are dicts mapping basis keys to nonzero rationals, kept as ``int`` while
integral and made ``Fraction`` at the public boundary; a basis key is a
partition tuple in descending order (possibly wrapped with a summand
index for direct sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputShapeError
from .laurent import Q, QONE, QZERO, as_rational, format_rational
from .linalg import ExactMatrix, RowSpan, primitive_row


# ----------------------------------------------------------------------
# partitions and raw element helpers

@lru_cache(maxsize=None)
def partitions_of(n: int, min_part: int = 1) -> tuple:
    """All partitions of ``n`` with parts >= ``min_part``.

    Each partition is a descending tuple; the list is in ascending
    lexicographic order, so ``(1, 1, 1)`` precedes ``(2, 1)`` precedes
    ``(3,)``.  This order is the tie-breaking order everywhere basis
    monomials are enumerated.
    """
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    out = []

    def _extend(prefix, remaining, largest):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), min_part - 1, -1):
            prefix.append(part)
            _extend(prefix, remaining - part, part)
            prefix.pop()

    _extend([], n, n)
    out.sort()
    return tuple(out)


def _insert_part(key: tuple, part: int) -> tuple:
    """Insert one part into a descending tuple, keeping it sorted."""
    for i, existing in enumerate(key):
        if part >= existing:
            return key[:i] + (part,) + key[i:]
    return key + (part,)


def _remove_part(key: tuple, part: int) -> tuple:
    i = key.index(part)
    return key[:i] + key[i + 1:]


def raw_acc(out: dict, key, coeff) -> None:
    """Accumulate ``coeff * key`` in place; ``int`` coefficients stay ``int``."""
    s = out.get(key)
    s = coeff if s is None else s + coeff
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def raw_combine(out: dict, other: dict, factor=1) -> None:
    if not factor:
        return
    for key, coeff in other.items():
        raw_acc(out, key, coeff * factor)


class LevelCapExceeded(Exception):
    """Internal signal: ``fusion.SpanModule.apply_gen`` was asked for a
    level above its computed basis.

    Never escapes the public layer: ``mode_action`` turns it into a
    truncation flag and the order-witness solve skips that mode.
    """


# ----------------------------------------------------------------------
# declarative specifications

@dataclass(frozen=True)
class VoaSpec:
    """Declarative description of a vertex algebra.

    ``kind`` is one of ``"heisenberg"``, ``"virasoro"``, or
    ``"virasoro-quotient"``; the latter two carry a central charge and a
    quotient additionally carries homogeneous singular vectors given as
    tuples of ``(partition, coefficient)`` pairs over the vacuum basis.
    """

    kind: str
    central_charge: Q | None = None
    singular_vectors: tuple = ()

    def describe(self) -> str:
        if self.kind == "heisenberg":
            return "Heisenberg"
        c = format_rational(self.central_charge)
        if self.kind == "virasoro":
            return f"Virasoro(c={c})"
        return f"VirasoroQuotient(c={c})"


@dataclass(frozen=True)
class ModuleSpec:
    """Declarative description of a graded module.

    Kinds: ``"fock"`` (rational ``charge``), ``"verma"`` (rational
    ``highest_weight``), ``"quotient"`` (Verma data plus singular
    vectors), and ``"direct-sum"`` (a tuple of summand specs).
    """

    kind: str
    charge: Q | None = None
    highest_weight: Q | None = None
    singular_vectors: tuple = ()
    summands: tuple = ()

    def describe(self) -> str:
        if self.kind == "fock":
            return f"Fock({format_rational(self.charge)})"
        if self.kind == "verma":
            return f"Verma(h={format_rational(self.highest_weight)})"
        if self.kind == "quotient":
            return f"Quotient(h={format_rational(self.highest_weight)})"
        inner = ", ".join(s.describe() for s in self.summands)
        return f"DirectSum({inner})"


def level2_singular_vector(central_charge, highest_weight) -> tuple:
    """The level-two singular vector data for a Verma module.

    Returns ``(L(-1)^2 - (2(2h+1)/3) L(-2))|h>`` as spec data.  The
    vector is singular precisely on the curve
    ``c = 2h(5 - 8h) / (2h + 1)``; constructing a quotient verifies that
    and rejects parameters off the curve.
    """
    as_rational(central_charge, "a central charge")
    h = as_rational(highest_weight, "a highest weight")
    return (((1, 1), QONE), ((2,), -Q(2) * (2 * h + 1) / 3))


# ----------------------------------------------------------------------
# realization machinery

class BaseRealization:
    """Shared bookkeeping for graded bases with a truncation depth."""

    is_voa = False

    def __init__(self, depth: int):
        if depth < 0:
            raise InputShapeError("truncation depth must be non-negative")
        self.depth = depth
        self._index_cache = {}

    # subclasses provide: keys(n), level_of(key), weight_of(key),
    # apply_gen(k, key), label(key), lowest_weight, voa, spec

    def dim(self, n: int) -> int:
        return len(self.keys(n))

    def _positions(self, level: int) -> dict:
        """``{key: position}`` over the ordered basis of one level."""
        table = self._index_cache.get(level)
        if table is None:
            table = {k: i for i, k in enumerate(self.keys(level))}
            self._index_cache[level] = table
        return table

    def index(self, key) -> int:
        """Position of ``key`` in the ordered basis of its level."""
        try:
            return self._positions(self.level_of(key))[key]
        except KeyError:
            raise InputShapeError(f"{key!r} is not a basis key of {self.describe()}")

    def coords(self, raw: dict, level: int) -> dict:
        """The sparse row ``{position: coeff}`` of a raw element over the level's
        ordered basis, nonzero coefficients kept as given; a key not at ``level``
        is refused."""
        table = self._positions(level)
        out = {}
        for key, coeff in raw.items():
            position = table.get(key)
            if position is None:
                raise InputShapeError(f"{key!r} is not a basis key at level {level}")
            if coeff:
                out[position] = coeff
        return out

    def describe(self) -> str:
        return self.spec.describe()

    def __repr__(self):
        return f"<{self.describe()} depth={self.depth}>"


class _VacuumAlgebra:
    """An algebra realization, which is also its own adjoint module.

    ``voa`` answers the realization itself without storing it, since a
    stored self-reference would keep every realization alive until a
    full garbage collection; modules keep ``voa`` as a plain attribute.
    """

    is_voa = True

    @property
    def voa(self):
        return self


class _PartitionBasis(BaseRealization):
    """Basis indexed by partitions with a fixed minimum part."""

    min_part = 1

    def keys(self, n: int) -> tuple:
        return partitions_of(n, self.min_part)

    def level_of(self, key) -> int:
        return sum(key)

    def weight_of(self, key) -> Q:
        return self.lowest_weight + self.level_of(key)


class _OscillatorAction:
    """Action of the Heisenberg generator modes on partition monomials.

    ``a(k)`` for ``k < 0`` inserts a part; ``a(0)`` is multiplication by
    the charge; ``a(k)`` for ``k > 0`` contracts against equal parts with
    the bracket ``[a(m), a(n)] = m delta_{m+n,0}``.
    """

    def apply_gen(self, k: int, key) -> dict:
        if k < 0:
            return {_insert_part(key, -k): 1}
        if k == 0:
            c = self.charge
            return {key: c.numerator if c.denominator == 1 else c} if c else {}
        count = key.count(k)
        if not count:
            return {}
        return {_remove_part(key, k): k * count}


class _VirasoroAction:
    """PBW straightening for Virasoro modes on partition monomials.

    ``apply_gen(k, key)`` is the mode ``L(k - 1)`` of the conformal
    vector.  Out-of-order products are straightened recursively with
    ``[L(m), L(n)] = (m - n) L(m+n) + c/12 (m^3 - m) delta_{m+n,0}``;
    results are memoized per realization.
    """

    def apply_gen(self, k: int, key) -> dict:
        return self._L(k - 1, key)

    def _L(self, n: int, key) -> dict:
        cache = self._L_cache
        found = cache.get((n, key))
        if found is None:
            found = self._compute_L(n, key)
            cache[(n, key)] = found
        return found

    def _compute_L(self, n: int, key) -> dict:
        if not key:
            return self._L_on_lowest(n)
        m1 = key[0]
        if n <= -m1:
            return {(-n,) + key: 1}
        rest = key[1:]
        out = {}
        for mid_key, mid_coeff in self._L(n, rest).items():
            for fin_key, fin_coeff in self._L(-m1, mid_key).items():
                raw_acc(out, fin_key, mid_coeff * fin_coeff)
        factor = n + m1
        if factor:
            raw_combine(out, self._L(n - m1, rest), factor)
        if n == m1:
            raw_acc(out, rest, self.central_charge * Q(n ** 3 - n, 12))
        return out


class HeisenbergVoa(_VacuumAlgebra, _OscillatorAction, _PartitionBasis):
    """Rank-one free boson vacuum algebra, truncated at ``depth``.

    The adjoint module has basis ``a(-n_1)...a(-n_k)|0>`` over partitions
    of each level; the conformal vector is ``a(-1)^2 |0> / 2`` with
    central charge 1, so the generator weight is 1.
    """

    gen_weight = 1
    min_part = 1

    def __init__(self, depth: int):
        super().__init__(depth)
        self.charge = QZERO
        self.lowest_weight = QZERO
        self.spec = VoaSpec(kind="heisenberg")
        self.vacuum_key = ()
        self.generator_raw = {(1,): QONE}
        self.omega_raw = {(1, 1): Q(1, 2)}
        self.central_charge = QONE

    def label(self, key) -> str:
        word = "".join(f"a(-{p})" for p in key)
        return word + "|0>" if word else "|0>"


class FockModule(_OscillatorAction, _PartitionBasis):
    """Irreducible Fock module of rational charge over the free boson.

    Lowest weight ``charge^2 / 2`` under the quadratic conformal vector.
    """

    min_part = 1

    def __init__(self, voa: HeisenbergVoa, charge, depth: int | None = None):
        if not isinstance(voa, HeisenbergVoa):
            raise InputShapeError("Fock modules require a Heisenberg algebra")
        super().__init__(voa.depth if depth is None else depth)
        self.voa = voa
        self.charge = as_rational(charge, "a Fock charge")
        self.lowest_weight = self.charge * self.charge / 2
        self.spec = ModuleSpec(kind="fock", charge=self.charge)

    def label(self, key) -> str:
        word = "".join(f"a(-{p})" for p in key)
        return word + f"|{format_rational(self.charge)}>"


class VirasoroVoa(_VacuumAlgebra, _VirasoroAction, _PartitionBasis):
    """Universal Virasoro vacuum algebra at rational central charge.

    Vacuum basis over partitions with parts >= 2; ``L(-1)|0> = 0`` and
    positive modes annihilate the vacuum.
    """

    gen_weight = 2
    min_part = 2

    def __init__(self, central_charge, depth: int):
        super().__init__(depth)
        self.central_charge = as_rational(central_charge, "a central charge")
        self.lowest_weight = QZERO
        self.spec = VoaSpec(kind="virasoro", central_charge=self.central_charge)
        self.vacuum_key = ()
        self.generator_raw = {(2,): QONE}
        self.omega_raw = {(2,): QONE}
        self._L_cache = {}

    def _L_on_lowest(self, n: int) -> dict:
        if n <= -2:
            return {(-n,): 1}
        return {}

    def label(self, key) -> str:
        word = "".join(f"L(-{p})" for p in key)
        return word + "|0>" if word else "|0>"


class VermaModule(_VirasoroAction, _PartitionBasis):
    """Verma module of highest weight ``h`` over the Virasoro algebra."""

    min_part = 1

    def __init__(self, voa: VirasoroVoa, highest_weight, depth: int | None = None):
        if not isinstance(voa, VirasoroVoa):
            raise InputShapeError("Verma modules require a Virasoro algebra")
        super().__init__(voa.depth if depth is None else depth)
        self.voa = voa
        self.central_charge = voa.central_charge
        self.highest_weight = as_rational(highest_weight, "a highest weight")
        self.lowest_weight = self.highest_weight
        self.spec = ModuleSpec(kind="verma", highest_weight=self.highest_weight)
        self._L_cache = {}

    def _L_on_lowest(self, n: int) -> dict:
        if n <= -1:
            return {(-n,): 1}
        if n == 0:
            return {(): self.highest_weight} if self.highest_weight else {}
        return {}

    def label(self, key) -> str:
        word = "".join(f"L(-{p})" for p in key)
        return word + f"|h={format_rational(self.highest_weight)}>"


class _QuotientBasis(BaseRealization):
    """Quotient of a partition-basis realization by singular vectors.

    The submodule spanned by creation words on the given vectors is row
    reduced level by level; the monomials at non-pivot columns form the
    canonical quotient basis, and every parent element reduces uniquely
    against the pivot rows.  Data is built lazily per level and is exact
    at any level, so the quotient inherits the parent's unbounded
    internal range.  A singular vector is given as ``(partition, coeff)``
    pairs or as the ``{partition: coeff}`` dict ``singular_vectors_at``
    returns.
    """

    def __init__(self, parent, singular_vectors, depth: int):
        super().__init__(depth)
        self.parent = parent
        self.lowest_weight = parent.lowest_weight
        self._levels = {}
        self._singular = []
        self._descendants = {}
        for vector in singular_vectors:
            raw = {tuple(partition): as_rational(coeff, "a singular-vector coefficient")
                   for partition, coeff in dict(vector).items()}
            self._validate_singular(raw)
            self._descendants[len(self._singular), ()] = primitive_row(raw)
            self._singular.append(raw)

    def _validate_singular(self, raw: dict) -> None:
        if not raw:
            raise InputShapeError("a singular vector must be nonzero")
        levels = {self.parent.level_of(key) for key in raw}
        if len(levels) != 1:
            raise InputShapeError("a singular vector must be homogeneous")
        (level,) = levels
        if level < 1:
            raise InputShapeError("a singular vector must sit at a positive level")
        # singularity under the positive half: L(1) and L(2) generate it
        for positive_mode in (2, 3):
            image = {}
            for key, coeff in raw.items():
                raw_combine(image, self.parent.apply_gen(positive_mode, key), coeff)
            if image:
                raise InputShapeError(
                    f"vector at level {level} is not singular: L({positive_mode - 1}) image is nonzero"
                )

    def _level_data(self, n: int):
        data = self._levels.get(n)
        if data is not None:
            return data
        parent_keys = self.parent.keys(n)
        span = RowSpan(len(parent_keys))
        for index, raw in enumerate(self._singular):
            s_level = self.parent.level_of(next(iter(raw)))
            for word in partitions_of(n - s_level, 1):
                span.add(self.parent.coords(self._descendant(index, word), n))
        # non-pivot columns survive: their monomials form the quotient basis
        pivot_cols = set(span.pivot_columns())
        quotient_keys = tuple(key for i, key in enumerate(parent_keys) if i not in pivot_cols)
        data = (quotient_keys, span, parent_keys)
        self._levels[n] = data
        return data

    def _descendant(self, index: int, word: tuple) -> dict:
        """L(-word[0]) ... L(-word[-1]) s, s singular vector ``index`` as primitive
        integers: one mode on the tabulated descendant of ``word[1:]``; raising
        modes have integer coefficients, so every descendant is ``int``."""
        vector = self._descendants.get((index, word))
        if vector is None:
            vector = {}
            for key, coeff in self._descendant(index, word[1:]).items():
                raw_combine(vector, self.parent.apply_gen(1 - word[0], key), coeff)
            self._descendants[index, word] = vector
        return vector

    def keys(self, n: int) -> tuple:
        return self._level_data(n)[0]

    def level_of(self, key) -> int:
        return self.parent.level_of(key)

    def weight_of(self, key) -> Q:
        return self.parent.weight_of(key)

    def reduce_parent_raw(self, raw: dict) -> dict:
        """Image of a parent raw element in the quotient basis."""
        out = {}
        by_level = {}
        for key, coeff in raw.items():
            by_level.setdefault(self.parent.level_of(key), {})[key] = coeff
        for level, part in by_level.items():
            quotient_keys, span, parent_keys = self._level_data(level)
            residual = span.reduce(self.parent.coords(part, level))
            for col, coeff in residual.items():
                raw_acc(out, parent_keys[col], coeff)
        return out

    def apply_gen(self, k: int, key) -> dict:
        return self.reduce_parent_raw(self.parent.apply_gen(k, key))

    def label(self, key) -> str:
        return self.parent.label(key)


class QuotientModule(_QuotientBasis):
    """Quotient of a Verma module by verified singular vectors."""

    def __init__(self, verma: VermaModule, singular_vectors, depth: int | None = None):
        if not isinstance(verma, VermaModule):
            raise InputShapeError("module quotients are built from Verma modules")
        super().__init__(verma, singular_vectors, verma.depth if depth is None else depth)
        self.voa = verma.voa
        self.highest_weight = verma.highest_weight
        self.central_charge = verma.central_charge
        self.spec = ModuleSpec(
            kind="quotient",
            highest_weight=verma.highest_weight,
            singular_vectors=tuple(
                tuple((key, coeff) for key, coeff in sorted(raw.items()))
                for raw in self._singular
            ),
        )


class VirasoroQuotientVoa(_VacuumAlgebra, _QuotientBasis):
    """Quotient of the universal Virasoro algebra by vacuum singular vectors."""

    gen_weight = 2

    def __init__(self, central_charge, singular_vectors, depth: int):
        parent = VirasoroVoa(central_charge, depth)
        super().__init__(parent, singular_vectors, depth)
        self.central_charge = parent.central_charge
        self.vacuum_key = ()
        self.generator_raw = {(2,): QONE}
        self.omega_raw = {(2,): QONE}
        self.spec = VoaSpec(
            kind="virasoro-quotient",
            central_charge=self.central_charge,
            singular_vectors=tuple(
                tuple((key, coeff) for key, coeff in sorted(raw.items()))
                for raw in self._singular
            ),
        )


class DirectSumModule(BaseRealization):
    """Finite direct sum of module realizations over one algebra.

    Keys are ``(summand_index, inner_key)``; a level of the sum is the
    concatenation of the summand levels in order.  The empty sum is the
    zero module.
    """

    def __init__(self, summands, depth: int | None = None):
        summands = tuple(summands)
        if summands:
            voa = summands[0].voa
            if any(s.voa is not voa for s in summands):
                raise InputShapeError("direct summands must share one algebra realization")
            if depth is None:
                depth = min(s.depth for s in summands)
        else:
            voa = None
            if depth is None:
                depth = 0
        super().__init__(depth)
        self.summands = summands
        self.voa = voa
        self.lowest_weight = min((s.lowest_weight for s in summands), default=QZERO)
        self.spec = ModuleSpec(kind="direct-sum", summands=tuple(s.spec for s in summands))

    def keys(self, n: int) -> tuple:
        return tuple(
            (i, key)
            for i, summand in enumerate(self.summands)
            for key in summand.keys(n)
        )

    def level_of(self, key) -> int:
        i, inner = key
        return self.summands[i].level_of(inner)

    def weight_of(self, key) -> Q:
        i, inner = key
        return self.summands[i].weight_of(inner)

    def apply_gen(self, k: int, key) -> dict:
        i, inner = key
        return {
            (i, result_key): coeff
            for result_key, coeff in self.summands[i].apply_gen(k, inner).items()
        }

    def label(self, key) -> str:
        i, inner = key
        return f"[{i}]{self.summands[i].label(inner)}"


def mode_matrix(module, k: int, src: int, dst: int) -> ExactMatrix:
    """Generator mode k from level ``src`` to level ``dst`` of ``module``.

    Column c holds the ``dst`` coordinates of the c-th ``src`` key's image,
    in sparse rows that keep the raw ``int`` or ``Fraction`` coefficients."""
    keys = module.keys(src)
    data = [{} for _ in range(module.dim(dst))]
    for c, key in enumerate(keys):
        for r, value in module.coords(module.apply_gen(k, key), dst).items():
            data[r][c] = value
    return ExactMatrix(len(data), len(keys), data)


def singular_vectors_at(realization, level: int) -> list:
    """Kernel of the positive-half action on one level, as raw elements.

    For Virasoro-type realizations the positive half is generated by
    L(1) and L(2), so a vector killed by both generator modes 2 and 3 is
    singular.  Returns the canonical nullspace basis; empty at a generic
    level.
    """
    keys = realization.keys(level)
    if not keys:
        return []
    gw = realization.voa.gen_weight
    data = [row for k in (2, 3)
            for row in mode_matrix(realization, k, level, level + gw - k - 1).data]
    return [
        {keys[i]: c for i, c in enumerate(vec) if c}
        for vec in ExactMatrix(len(data), len(keys), data).nullspace()
    ]


# ----------------------------------------------------------------------
# factories

def realize_voa(spec: VoaSpec, depth: int):
    """Build the realization of an algebra spec at the given depth."""
    if spec.kind == "heisenberg":
        return HeisenbergVoa(depth)
    if spec.kind == "virasoro":
        if spec.central_charge is None:
            raise InputShapeError("Virasoro algebras need a central charge")
        return VirasoroVoa(spec.central_charge, depth)
    if spec.kind == "virasoro-quotient":
        if spec.central_charge is None:
            raise InputShapeError("Virasoro quotients need a central charge")
        return VirasoroQuotientVoa(spec.central_charge, spec.singular_vectors, depth)
    raise InputShapeError(f"unknown algebra kind {spec.kind!r}")


def realize_module(spec: ModuleSpec, voa, depth: int | None = None):
    """Build the realization of a module spec over a realized algebra."""
    if spec.kind == "fock":
        return FockModule(voa, spec.charge, depth)
    if spec.kind == "verma":
        return VermaModule(voa, spec.highest_weight, depth)
    if spec.kind == "quotient":
        verma = VermaModule(voa, spec.highest_weight, depth)
        return QuotientModule(verma, spec.singular_vectors, depth)
    if spec.kind == "direct-sum":
        return DirectSumModule(
            tuple(realize_module(s, voa, depth) for s in spec.summands),
            depth if depth is not None else (voa.depth if voa is not None else 0),
        )
    raise InputShapeError(f"unknown module kind {spec.kind!r}")
