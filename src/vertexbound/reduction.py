"""Correlator rewriting against a complement basis, and the induced ODE.

Given modules ``U``, ``W`` over one algebra with chosen complement bases
``E = (p^i)`` of ``C_1(U)`` and ``F = (q^j)`` of ``C_1(W)``, any matrix
element ``<theta, Y(p,z) q>`` with ``theta`` annihilating ``C_1`` of the
target rewrites as a finite combination

    <theta, Y(p,z) q> = sum_{i,j} c_{ij}(z) <theta, Y(p^i,z) q^j>

with ``c_{ij}`` Laurent polynomials depending only on ``(p, q, E, F)``.
The two rewrite moves:

* left move, for ``p = v_{-1} a``: every coefficient of the creation
  half ``Y^-(v,z) Y(a,z) q`` lies in ``C_1`` of the target, so only

      <theta, Y(a,z) v_h q> * z^{-h-1},   h >= 0

  survives.  Weights strictly drop on both slots combined.
* right move, for ``q = v_{-1} b``: commuting ``v_{-1}`` across ``Y``
  leaves ``v_{-1}(...)`` in ``C_1`` plus the tail

      (-1)^{i+1} z^{-1-i} <theta, Y(v_i p, z) b>,   i >= 0.

  The sign carries the minus from moving the commutator to the other
  side; the free-boson matrix-element tests pin it down.

Iterating under a fixed decomposition order terminates and yields the
first-order system ``d/dz A = B A`` for ``A_{ij} = <theta, Y(p^i,z)q^j>``
by rewriting ``Y(L(-1)p^i, z) = d/dz Y(p^i,z)``.

The rewrite is bilinear in ``(p, q)``, so ``reduce`` expands both
arguments over their basis monomials and sums a table entry per pair of
monomials.  An entry holds the two moves run once on that pair, its
subterms read from the table in turn, as a plain ``{(i, j): LaurentPoly}``
map.  The pair table hangs off the left basis, keyed by the right basis,
and is freed with the bases; callers always receive a fresh
combination, never an entry.

The moves split basis monomials over ``cofinite.cm_level``'s pivot
pairs ``v_{-1} a`` plus the complement, read from one table per basis
and level, each built by one elimination of the level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cofinite import ComplementBasis, cm_level
from .errors import InputShapeError, InternalInvariantViolation, TruncationError
from .laurent import LaurentPoly, Q, as_rational
from .linalg import ExactMatrix, RowSpan
from .modes import GradedVector, engine_for, mode_action, omega_vector
from .voa import DirectSumModule


# ----------------------------------------------------------------------
# decomposition against the spanning set plus complement

def _decompositions(basis: ComplementBasis, n: int) -> dict:
    """``{key: (pairs, complement)}`` for every basis monomial at level n.

    A monomial is ``sum coeff * v_{-1} a + sum alpha_i p^i``: ``pairs``
    lists ``(v_key, a_key, coeff)`` and ``complement`` ``(i, alpha)``.
    The level's matrix M has as columns the images of the C_1 pivot
    pairs (``cm_level(module, 1, n).pairs``, kept by an m = 1 basis),
    then the complement monomials of the level.  The rows ``[M | I]``
    reduce in one ``RowSpan`` to ``[R | E]`` with ``E M = R``, so column
    k of E at the pivot columns solves ``M x = e_k`` with free variables
    zero, for a square M (m = 1) or a wider one alike.  One table per
    level hangs off the basis and holds keys and rationals only.
    """
    if n > basis.depth:
        raise TruncationError(
            f"level {n} lies outside the certified window (depth {basis.depth})"
        )
    tables = getattr(basis, "_decomposition_tables", None)
    if tables is None:
        tables = basis._decomposition_tables = {}
    if n in tables:
        return tables[n]
    module = basis.module
    pair_keys = (basis.c1_pairs or {}).get(n)
    if pair_keys is None:
        pair_keys = cm_level(module, 1, n).pairs
    keys = module.keys(n)
    rows = [{} for _ in keys]
    for j, (v_key, a_key) in enumerate(pair_keys):
        nums, den = engine_for(module).apply_word(v_key, -1, a_key)
        for i, c in module.coords(nums, n).items():
            rows[i][j] = c if den == 1 else Q(c, den)
    complement = [i for i, (level, _) in enumerate(basis.labels) if level == n]
    for j, i in enumerate(complement, start=len(pair_keys)):
        rows[module.index(basis.labels[i][1])][j] = 1
    width = len(pair_keys) + len(complement)
    span = RowSpan(width + len(keys))
    for k, row in enumerate(rows):
        span.add({**row, width + k: 1})
    table = {key: ([], []) for key in keys}
    for col, row in zip(span.pivot_columns(), span.rows()):
        if col >= width:
            raise InternalInvariantViolation(
                f"level {n} of {module.describe()} is not spanned by "
                "C_1 plus the complement; the basis certificate is broken"
            )
        for k, value in row.items():
            if k < width:
                continue
            pairs, comp = table[keys[k - width]]
            if col < len(pair_keys):
                pairs.append((*pair_keys[col], value))
            else:
                comp.append((complement[col - len(pair_keys)], value))
    tables[n] = table
    return table


# ----------------------------------------------------------------------
# correlator combinations

class CorrelatorCombination:
    """Finite combination ``sum c_{ij}(z) <theta, Y(p^i,z) q^j>``.

    The entries live over the complement-label pairs of the two bases;
    the semantics are modulo ``C_1`` of any target, for functionals
    annihilating it.
    """

    __slots__ = ("left_basis", "right_basis", "_entries")

    def __init__(self, left_basis: ComplementBasis, right_basis: ComplementBasis,
                 entries=None):
        self.left_basis = left_basis
        self.right_basis = right_basis
        self._entries = {}
        if entries:
            for key, poly in entries.items():
                if not poly.is_zero():
                    self._entries[key] = poly

    @classmethod
    def unit(cls, left_basis, right_basis, i: int, j: int) -> "CorrelatorCombination":
        return cls(left_basis, right_basis, {(i, j): LaurentPoly.one()})

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self._entries.get((i, j), LaurentPoly.zero())

    def items(self) -> list:
        return [(key, self._entries[key]) for key in sorted(self._entries)]

    def is_zero(self) -> bool:
        return not self._entries

    def accumulate(self, other: "CorrelatorCombination", factor: LaurentPoly) -> None:
        """In-place ``self += factor * other``."""
        if other.left_basis is not self.left_basis or other.right_basis is not self.right_basis:
            raise InputShapeError("combinations over different bases cannot be merged")
        self._add(other._entries, factor)

    def _add(self, entries: dict, factor) -> None:
        """In-place ``self += factor * entries``; ``factor`` is a LaurentPoly or a scalar."""
        for key, poly in entries.items():
            merged = self._entries.get(key, LaurentPoly.zero()) + poly * factor
            if merged.is_zero():
                self._entries.pop(key, None)
            else:
                self._entries[key] = merged

    def scale(self, factor) -> "CorrelatorCombination":
        factor = as_rational(factor, "a correlator scale")
        out = CorrelatorCombination(self.left_basis, self.right_basis)
        if factor:
            for key, poly in self._entries.items():
                out._entries[key] = poly * LaurentPoly.monomial(0, factor)
        return out

    def __add__(self, other):
        out = CorrelatorCombination(self.left_basis, self.right_basis, dict(self._entries))
        out.accumulate(other, LaurentPoly.one())
        return out

    def __eq__(self, other):
        if not isinstance(other, CorrelatorCombination):
            return NotImplemented
        return (
            self.left_basis is other.left_basis
            and self.right_basis is other.right_basis
            and self._entries == other._entries
        )

    def to_json(self) -> dict:
        return {
            "left": self.left_basis.module.describe(),
            "right": self.right_basis.module.describe(),
            "entries": [
                {"i": i, "j": j, "terms": poly.to_json_terms()}
                for (i, j), poly in self.items()
            ],
        }

    def __repr__(self):
        if self.is_zero():
            return "<0>"
        body = " + ".join(f"({poly!r})*A[{i},{j}]" for (i, j), poly in self.items())
        return f"<{body}>"


# ----------------------------------------------------------------------
# the rewrite engine

def _check_reduce_inputs(p, q, left_basis, right_basis):
    if left_basis.module is not p.module:
        raise InputShapeError("left argument does not live in the left basis module")
    if right_basis.module is not q.module:
        raise InputShapeError("right argument does not live in the right basis module")
    if left_basis.module.voa is not right_basis.module.voa:
        raise InputShapeError("both modules must share one algebra realization")
    if p.truncated or q.truncated:
        raise TruncationError("refusing to rewrite truncated vectors")
    if p.is_zero() or q.is_zero():
        return None
    lp, lq = p.homogeneous_level(), q.homogeneous_level()
    if lp is None or lq is None:
        raise InputShapeError("rewriting requires homogeneous arguments")
    total = lp + lq
    window = min(left_basis.depth, right_basis.depth)
    if total > window:
        raise TruncationError(
            f"total level {total} exceeds the certified window {window}"
        )
    return total


def reduce(p: GradedVector, q: GradedVector,
           left_basis: ComplementBasis, right_basis: ComplementBasis) -> CorrelatorCombination:
    """Rewrite ``<theta, Y(p,z)q>`` over the complement basis pairs.

    The coefficients depend only on ``(p, q)`` and the two bases; they
    are exact Laurent polynomials in ``z`` and ``z^{-1}``.  The result
    is a fresh combination the caller may mutate.
    """
    total = _check_reduce_inputs(p, q, left_basis, right_basis)
    if total is None:
        return CorrelatorCombination(left_basis, right_basis)
    return _reduce(p, q, left_basis, right_basis, total)


def _table_for(left_basis: ComplementBasis, right_basis: ComplementBasis) -> dict:
    """The ``(p_key, q_key) -> entries`` table of one basis pair.

    It hangs off the left basis beside its decomposition tables and holds
    the right basis, so the ``id`` key cannot be reused while it lives;
    it is freed with the left basis.  A basis paired with itself is not
    held again, which would make it a reference cycle.
    """
    tables = getattr(left_basis, "_pair_tables", None)
    if tables is None:
        tables = left_basis._pair_tables = {}
    slot = tables.get(id(right_basis))
    if slot is None:
        held = None if right_basis is left_basis else right_basis
        slot = tables[id(right_basis)] = (held, {})
    return slot[1]


def _reduce(p, q, left_basis, right_basis, budget) -> CorrelatorCombination:
    """Bilinear expansion of ``(p, q)`` over the basis-pair table."""
    out = CorrelatorCombination(left_basis, right_basis)
    if p.is_zero() or q.is_zero():
        return out
    lp, lq = p.homogeneous_level(), q.homogeneous_level()
    if lp + lq > budget:
        raise InternalInvariantViolation(
            "combined weight failed to decrease during rewriting"
        )
    table = _table_for(left_basis, right_basis)
    q_raw = q.to_raw()
    for p_key, a in p.to_raw().items():
        for q_key, b in q_raw.items():
            entry = table.get((p_key, q_key))
            if entry is None:
                entry = _pair_entry(p_key, q_key, left_basis, right_basis)
                table[(p_key, q_key)] = entry
            out._add(entry, a * b)
    return out


def _pair_entry(p_key, q_key, left_basis, right_basis) -> dict:
    """Both moves run once on the basis monomials ``p_key`` and ``q_key``."""
    left, right = left_basis.module, right_basis.module
    voa = left.voa
    lp, lq = left.level_of(p_key), right.level_of(q_key)
    q = GradedVector.basis_vector(right, q_key)
    out = CorrelatorCombination(left_basis, right_basis)
    pairs, complement = _decompositions(left_basis, lp)[p_key]
    for v_key, a_key, coeff in pairs:
        # left move: only Y(a,z) v_h q with h >= 0 survives theta
        wt_v = voa.level_of(v_key)
        v_vec = GradedVector.basis_vector(voa, v_key)
        a_vec = GradedVector.basis_vector(left, a_key)
        for h in range(0, lq + wt_v):
            vq = mode_action(v_vec, h, q)
            if vq.truncated:
                raise InternalInvariantViolation("left move escaped the window")
            if vq.is_zero():
                continue
            sub = _reduce(a_vec, vq, left_basis, right_basis, lp + lq - 1)
            out.accumulate(sub, LaurentPoly.monomial(-h - 1, coeff))
    for idx, alpha in complement:
        part = _reduce_complement_left(idx, q_key, left_basis, right_basis)
        out.accumulate(part, LaurentPoly.monomial(0, alpha))
    return out._entries


def _reduce_complement_left(i: int, q_key, left_basis, right_basis) -> CorrelatorCombination:
    """Rewrite with the left slot already the complement vector ``p^i``."""
    out = CorrelatorCombination(left_basis, right_basis)
    lp, p_key = left_basis.labels[i]
    p_vec = GradedVector.basis_vector(left_basis.module, p_key)
    right = right_basis.module
    voa = right.voa
    lq = right.level_of(q_key)
    pairs, complement = _decompositions(right_basis, lq)[q_key]
    for v_key, b_key, coeff in pairs:
        # right move: commuting v_{-1} across Y leaves the signed tail
        wt_v = voa.level_of(v_key)
        v_vec = GradedVector.basis_vector(voa, v_key)
        b_vec = GradedVector.basis_vector(right, b_key)
        for m in range(0, lp + wt_v):
            vp = mode_action(v_vec, m, p_vec)
            if vp.truncated:
                raise InternalInvariantViolation("right move escaped the window")
            if vp.is_zero():
                continue
            sub = _reduce(vp, b_vec, left_basis, right_basis, lp + lq - 1)
            sign = -coeff if m % 2 == 0 else coeff
            out.accumulate(sub, LaurentPoly.monomial(-1 - m, sign))
    for j, beta in complement:
        out.accumulate(
            CorrelatorCombination.unit(left_basis, right_basis, i, j),
            LaurentPoly.monomial(0, beta),
        )
    return out


# ----------------------------------------------------------------------
# the first-order system and the fusion bound

@dataclass
class OdeSystem:
    """First-order system ``d/dz A = B(z) A`` over complement-pair labels."""

    left: str
    right: str
    dimension: int
    labels: list
    entries: dict

    @property
    def pole_order(self) -> int:
        """Order of the pole of ``B`` at ``z = 0`` (0 means holomorphic)."""
        lows = (poly.min_exponent() for poly in self.entries.values())
        return max((-low for low in lows if low is not None and low < 0), default=0)

    def entry(self, row: int, col: int) -> LaurentPoly:
        return self.entries.get((row, col), LaurentPoly.zero())

    def series_blocks(self) -> dict:
        """Matrix coefficients ``B_k`` of ``B(z) = sum_k B_k z^k``."""
        powers = sorted({p for poly in self.entries.values() for p in poly.terms})
        blocks = {}
        for power in powers:
            data = [{} for _ in range(self.dimension)]
            for (r, c), poly in self.entries.items():
                if value := poly.coeff(power):
                    data[r][c] = value
            blocks[power] = ExactMatrix(self.dimension, self.dimension, data)
        return blocks

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "labels": [list(label) for label in self.labels],
            "entries": [
                {"row": row, "col": col, "terms": self.entries[(row, col)].to_json_terms()}
                for row, col in sorted(self.entries)
            ],
            "pole_order": self.pole_order,
        }


def assemble_ode(left_basis: ComplementBasis, right_basis: ComplementBasis) -> OdeSystem:
    """Build ``B`` with row ``(i,j)`` rewriting ``<theta, Y(L(-1)p^i,z) q^j>``.

    Uses ``d/dz Y(p,z) = Y(L(-1)p, z)``, so ``d/dz A = B A`` exactly on
    the span of the rewritten correlators.  For direct sums the system
    is block diagonal over summand pairs by construction.
    """
    if left_basis.module.voa is not right_basis.module.voa:
        raise InputShapeError("both modules must share one algebra realization")
    voa = left_basis.module.voa
    omega = omega_vector(voa)
    labels = [
        (i, j)
        for i in range(len(left_basis))
        for j in range(len(right_basis))
    ]
    index = {label: pos for pos, label in enumerate(labels)}
    entries = {}
    for row, (i, j) in enumerate(labels):
        p_i = GradedVector.basis_vector(left_basis.module, left_basis.labels[i][1])
        q_j = GradedVector.basis_vector(right_basis.module, right_basis.labels[j][1])
        shifted = mode_action(omega, 0, p_i)  # L(-1) p^i
        if shifted.truncated:
            raise TruncationError(
                "L(-1) pushed a complement vector past the realization depth"
            )
        comb = reduce(shifted, q_j, left_basis, right_basis)
        for (i2, j2), poly in comb.items():
            entries[(row, index[(i2, j2)])] = poly
    return OdeSystem(
        left=left_basis.module.describe(),
        right=right_basis.module.describe(),
        dimension=len(labels),
        labels=labels,
        entries=entries,
    )


@dataclass
class FusionBound:
    """Solution-space bound ``f_1(U,W)`` with per-summand provenance.

    Each summand pair contributes the dimension of its first-order
    system, ``|I_r| * |J_k|``; a first-order linear system of that size
    has at most that many independent solutions on a simply connected
    domain avoiding the singular point, logarithms included.
    """

    left: str
    right: str
    value: int
    provenance: list

    def to_json(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "value": self.value,
            "provenance": self.provenance,
            "convention": "dim T/C_1(T) <= value for every surjective target",
        }


def _complement_blocks(basis: ComplementBasis) -> list:
    """``(module, complement size)`` per summand of a direct sum, else one block."""
    if not isinstance(basis.module, DirectSumModule):
        return [(basis.module, len(basis))]
    sizes = Counter(key[0] for _, key in basis.labels)
    return [(summand, sizes[i]) for i, summand in enumerate(basis.module.summands)]


def fusion_bound(left_basis: ComplementBasis, right_basis: ComplementBasis) -> FusionBound:
    """Aggregate ``sum_{r,k} |I_r| * |J_k|`` over declared summand pairs."""
    provenance = []
    total = 0
    for lmodule, lsize in _complement_blocks(left_basis):
        for rmodule, rsize in _complement_blocks(right_basis):
            product = lsize * rsize
            total += product
            provenance.append({
                "left": lmodule.describe(),
                "right": rmodule.describe(),
                "left_dim": lsize,
                "right_dim": rsize,
                "product": product,
            })
    return FusionBound(
        left=left_basis.module.describe(),
        right=right_basis.module.describe(),
        value=total,
        provenance=provenance,
    )
