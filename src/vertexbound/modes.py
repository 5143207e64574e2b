"""Mode actions ``v_k`` of algebra elements on truncated graded modules.

The generator modes of a realization (oscillator or Virasoro) are exact
closed forms; the mode of a composite state ``v = g_j u`` is expanded
through the iterate identity

    (g_j u)_k w = sum_i binom(j, i) (-1)^i
                  [ g_{j-i} (u_{k+i} w) - (-1)^j u_{j+k-i} (g_i w) ],

whose sums terminate on any vector of a lower-truncated module.  All
intermediate arithmetic is exact at arbitrary internal level; truncation
happens only at the public boundary, where a result component above the
module's depth is dropped and a sticky ``truncated`` flag is raised on
the returned :class:`GradedVector`.  The identity suite enumerates only
combinations whose formal levels stay inside the truncation window, so a
reported identity is never an artifact of dropped terms.

Inside, the engine works on ``(nums, den)`` results (see
:class:`ModeEngine`); the identity suite stays on them, and
``mode_action`` divides by ``den`` once per output coefficient.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import product
from math import gcd, lcm

from .errors import InputShapeError, InternalInvariantViolation
from .laurent import Q, QONE, QZERO, as_rational, binomial
from .voa import LevelCapExceeded


class GradedVector:
    """An element of a truncated graded module, stored level by level.

    ``components`` maps a level to ``{basis key: Fraction}`` holding only
    the nonzero coefficients; a level without one is never stored.
    ``truncated`` records that some computation feeding this vector
    discarded content above the module depth; the flag is sticky under
    all arithmetic.
    """

    __slots__ = ("module", "components", "truncated")

    def __init__(self, module, raw=None, truncated=False):
        """The vector ``sum raw[key] * key`` of a raw key-to-coefficient dict.

        Content above the module depth is dropped and flagged.  A key that
        is not a basis key of ``module``, or a coefficient that is not an
        ``int`` or a ``Fraction``, is refused with ``InputShapeError``.
        """
        components = {}
        if raw:
            depth = module.depth
            for key, coeff in raw.items():
                if type(coeff) is not Q:
                    coeff = as_rational(coeff, "a coefficient")
                if not coeff:
                    continue
                level = module.level_of(key)
                if level > depth:
                    truncated = True
                    continue
                module.index(key)
                components.setdefault(level, {})[key] = coeff
        self.module = module
        self.components = components
        self.truncated = bool(truncated)

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, module, truncated=False) -> "GradedVector":
        return cls(module, None, truncated)

    @classmethod
    def basis_vector(cls, module, key) -> "GradedVector":
        return cls(module, {key: QONE})

    def to_raw(self) -> dict:
        return {key: c for coeffs in self.components.values() for key, c in coeffs.items()}

    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.components

    def levels(self) -> tuple:
        return tuple(sorted(self.components))

    def coords_at(self, level: int) -> tuple:
        """The coordinate tuple over the level's ordered basis."""
        coeffs = self.components.get(level, {})
        return tuple(coeffs.get(key, QZERO) for key in self.module.keys(level))

    def homogeneous_level(self):
        """The single occupied level, or None (zero or mixed)."""
        if len(self.components) == 1:
            return next(iter(self.components))
        return None

    def weight(self):
        """Conformal weight of a homogeneous vector."""
        level = self.homogeneous_level()
        if level is None:
            raise InputShapeError("weight is defined for nonzero homogeneous vectors only")
        return self.module.weight_of(next(iter(self.components[level])))

    # ------------------------------------------------------------------
    def _binary(self, other, sign) -> "GradedVector":
        if not isinstance(other, GradedVector):
            return NotImplemented
        if other.module is not self.module:
            raise InputShapeError("vectors live in different module realizations")
        raw = self.to_raw()
        for key, c in other.to_raw().items():
            raw[key] = raw.get(key, 0) + sign * c
        return GradedVector(self.module, raw, self.truncated or other.truncated)

    def __add__(self, other):
        return self._binary(other, 1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor) -> "GradedVector":
        factor = factor if type(factor) is Q else as_rational(factor, "a vector scale")
        return GradedVector(self.module, {key: factor * c for key, c in self.to_raw().items()},
                            self.truncated)

    def __mul__(self, factor):
        if isinstance(factor, (int, Q)):
            return self.scale(factor)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        """Value equality; the truncation flag is metadata, not value."""
        if not isinstance(other, GradedVector):
            return NotImplemented
        return self.module is other.module and self.components == other.components

    def __repr__(self):
        parts = [f"{c}*{self.module.label(key)}"
                 for level in self.levels() for key, c in self.components[level].items()]
        flag = ", truncated" if self.truncated else ""
        return f"<{' + '.join(parts) or '0'}{flag}>"


def basis_vectors(module, level: int) -> list:
    return [GradedVector.basis_vector(module, key) for key in module.keys(level)]


def vacuum_vector(voa) -> GradedVector:
    return GradedVector.basis_vector(voa, voa.vacuum_key)


def omega_vector(voa) -> GradedVector:
    return GradedVector(voa, voa.omega_raw)


# ----------------------------------------------------------------------
# the mode engine

def add_scaled(acc: dict, den: int, nums: dict, d: int, factor: int) -> int:
    """Add ``factor * nums / d`` to the numerators ``acc`` over ``den``.

    Returns the denominator ``acc`` is over afterwards: ``den``, or the
    lcm of ``den`` and ``d`` when ``d`` does not divide it, in which case
    ``acc`` is rescaled in place.  Keys whose sum is zero are dropped.
    """
    if d != den:
        if den % d:
            f = lcm(den, d) // den
            for key in acc:
                acc[key] *= f
            den *= f
        factor *= den // d
    for key, c in nums.items():
        s = acc.get(key)
        if s is None:
            acc[key] = c * factor
        elif s := s + c * factor:
            acc[key] = s
        else:
            del acc[key]
    return den


def lowest_terms(acc: dict, den: int) -> tuple:
    """``(nums, den)`` for the numerators ``acc`` over ``den``, its content
    stripped with one gcd; ``({}, 1)`` for an empty ``acc``."""
    if den == 1:
        return acc, 1
    g = gcd(den, *acc.values())
    if g == 1:
        return acc, den
    return {key: c // g for key, c in acc.items()}, den // g


class ModeEngine:
    """Memoized exact mode application for one module realization.

    ``apply_word(v_word, k, w_key)`` computes ``v_k w`` where ``v`` is
    the state built by the descending creation word ``v_word`` in the
    algebra and ``w_key`` is a basis key of the module.  Words need not
    be canonical basis keys; any descending tuple denotes the
    corresponding product of creation operators on the vacuum.

    Results are ``(nums, den)``: ``{key: int}`` numerators over one
    positive ``int`` denominator, in lowest terms (``den == 1`` on
    integral data); callers never change them.  Each generator image
    is read once into the same form and kept in a table.  The module is
    held weakly, so realizations are freed by reference counting when
    the command that built them returns.
    """

    def __init__(self, module):
        self._module = weakref.ref(module)
        self._gen_weight = module.voa.gen_weight
        self._memo = {}
        self._gens = {}

    @property
    def module(self):
        module = self._module()
        if module is None:
            raise InternalInvariantViolation("a mode engine outlived its module realization")
        return module

    def gen_image(self, k: int, key) -> tuple:
        """``module.apply_gen(k, key)`` as ``(nums, den)``; over the lcm of
        the image's denominators, the numerators are in lowest terms."""
        found = self._gens.get((k, key))
        if found is None:
            raw = self.module.apply_gen(k, key)
            den = lcm(*(c.denominator for c in raw.values()))
            found = self._gens[(k, key)] = (
                {out: c.numerator * (den // c.denominator) for out, c in raw.items() if c}, den)
        return found

    def apply_word(self, v_word: tuple, k: int, w_key) -> tuple:
        memo_key = (v_word, k, w_key)
        found = self._memo.get(memo_key)
        if found is not None:
            return found
        if not v_word:
            result = ({w_key: 1} if k == -1 else {}), 1
        else:
            result = self._expand(v_word, k, w_key)
        self._memo[memo_key] = result
        return result

    def _expand(self, v_word, k, w_key) -> tuple:
        part = v_word[0]
        rest = v_word[1:]
        gen_weight = self._gen_weight
        gens = self._gens
        j = -part if gen_weight == 1 else 1 - part
        wt_rest = sum(rest)
        w_level = self.module.level_of(w_key)
        sign_j = -1 if j % 2 else 1
        acc, den = {}, 1
        # first branch: g_{j-i} (u_{k+i} w); terms with u_{k+i} w at
        # negative formal level vanish identically
        for i in range(0, w_level + wt_rest - k):
            coeff = binomial(j, i)
            if not coeff:
                continue
            if i % 2:
                coeff = -coeff
            inner, d1 = self.apply_word(rest, k + i, w_key)
            for mid_key, mid_num in inner.items():
                gen, d2 = gens.get((j - i, mid_key)) or self.gen_image(j - i, mid_key)
                if gen:
                    den = add_scaled(acc, den, gen, d1 * d2, coeff * mid_num)
        # second branch: -(-1)^j u_{j+k-i} (g_i w); g_i w vanishes once i
        # exceeds the level plus generator weight
        for i in range(0, w_level + gen_weight):
            coeff = binomial(j, i)
            if not coeff:
                continue
            if i % 2:
                coeff = -coeff
            coeff = -sign_j * coeff
            gen, d1 = gens.get((i, w_key)) or self.gen_image(i, w_key)
            for mid_key, mid_num in gen.items():
                inner, d2 = self.apply_word(rest, j + k - i, mid_key)
                if inner:
                    den = add_scaled(acc, den, inner, d1 * d2, coeff * mid_num)
        return lowest_terms(acc, den)


def engine_for(module) -> ModeEngine:
    engine = getattr(module, "_mode_engine", None)
    if engine is None:
        engine = ModeEngine(module)
        module._mode_engine = engine
    return engine


def mode_action(v: GradedVector, k: int, w: GradedVector) -> GradedVector:
    """The exact truncated action ``v_k w``.

    ``v`` must be a homogeneous element of the algebra acting on ``w``'s
    module.  Components whose formal target level ``lvl(w) + wt(v) - k - 1``
    exceeds the module depth are dropped and flagged; input flags are
    inherited.
    """
    module = w.module
    voa = module.voa
    if v.module is not voa:
        raise InputShapeError("the acting element must belong to the module's algebra")
    truncated = v.truncated or w.truncated
    if v.is_zero() or w.is_zero():
        return GradedVector.zero(module, truncated)
    v_level = v.homogeneous_level()
    if v_level is None:
        raise InputShapeError("mode actions require a homogeneous acting element")
    engine = engine_for(module)
    v_coeffs = v.components[v_level]
    out = {}
    for w_level, w_coeffs in w.components.items():
        target = w_level + v_level - k - 1
        if target < 0:
            continue
        if target > module.depth:
            truncated = True
            continue
        acc, den = {}, 1
        try:
            for w_key, w_coeff in w_coeffs.items():
                for v_word, v_coeff in v_coeffs.items():
                    scale = v_coeff * w_coeff
                    nums, d = engine.apply_word(v_word, k, w_key)
                    if nums:
                        den = add_scaled(acc, den, nums, d * scale.denominator, scale.numerator)
        except LevelCapExceeded:
            truncated = True
            continue
        # the target levels of distinct w levels differ, so no key repeats
        nums, den = lowest_terms(acc, den)
        out.update(nums if den == 1 else {key: Q(c, den) for key, c in nums.items()})
    return GradedVector(module, out, truncated)


# ----------------------------------------------------------------------
# the quantified identity suite

@dataclass
class IdentitySuiteReport:
    """Outcome counts of the exhaustive guarded identity suite."""

    module: str
    depth: int
    commutator_checked: int = 0
    associativity_checked: int = 0
    vacuum_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def total_checked(self) -> int:
        return self.commutator_checked + self.associativity_checked + self.vacuum_checked

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            "module": self.module,
            "depth": self.depth,
            "commutator_checked": self.commutator_checked,
            "associativity_checked": self.associativity_checked,
            "vacuum_checked": self.vacuum_checked,
            "failures": list(self.failures),
            "all_passed": self.all_passed,
        }


def _raw_commutator_defect(adjoint, engine, composed, v1_word, v2_word, n, m, w_key, top):
    """lhs - rhs of the commutator identity as numerators over a common
    denominator; it holds when every numerator is zero."""
    nums, den = composed(v1_word, n, v2_word, m)
    defect = dict(nums)
    nums, d = composed(v2_word, m, v1_word, n)
    den = add_scaled(defect, den, nums, d, -1)
    for i in range(0, top):
        factor = binomial(n, i)
        if not factor:
            continue
        p_nums, p_den = adjoint.apply_word(v1_word, i, v2_word)
        for p_key, p_coeff in p_nums.items():
            nums, d = engine.apply_word(p_key, n + m - i, w_key)
            den = add_scaled(defect, den, nums, p_den * d, -factor * p_coeff)
    return defect


def _raw_associativity_defect(adjoint, engine, composed, v1_word, v2_word, n, m, w_key,
                              w_level, wt1, wt2):
    """lhs - rhs of the iterate identity as numerators over a common
    denominator; it holds when every numerator is zero."""
    defect, den = {}, 1
    p_nums, p_den = adjoint.apply_word(v1_word, n, v2_word)
    for p_key, p_coeff in p_nums.items():
        nums, d = engine.apply_word(p_key, m, w_key)
        den = add_scaled(defect, den, nums, p_den * d, p_coeff)
    sign_n = -1 if n % 2 else 1
    for i in range(0, w_level + wt2 - m):
        factor = binomial(n, i)
        if not factor:
            continue
        if i % 2:
            factor = -factor
        nums, d = composed(v1_word, n - i, v2_word, m + i)
        den = add_scaled(defect, den, nums, d, -factor)
    for i in range(0, w_level + wt1):
        factor = binomial(n, i)
        if not factor:
            continue
        if i % 2:
            factor = -factor
        factor = -sign_n * factor
        nums, d = composed(v2_word, n + m - i, v1_word, i)
        den = add_scaled(defect, den, nums, d, -factor)
    return defect


def _check_triple(module, engine, adjoint, v1_word, v2_word, w_key, report):
    """Both identities for one ``(v1, v2, w)`` at every guarded mode pair.

    Both identities read their two-mode terms ``a_p (b_q w)`` from one
    table, built on first use and dropped with the triple; a defect
    copies an entry before it accumulates into it.
    """
    voa = module.voa
    depth = module.depth
    voa_depth = voa.depth
    w1, w2 = voa.level_of(v1_word), voa.level_of(v2_word)
    w_level = module.level_of(w_key)
    table = {}

    def composed(a_word, p, b_word, q):
        key = (a_word, p, b_word, q)
        found = table.get(key)
        if found is None:
            inner, d = engine.apply_word(b_word, q, w_key)
            acc, den = {}, 1
            for mid_key, coeff in inner.items():
                nums, d2 = engine.apply_word(a_word, p, mid_key)
                den = add_scaled(acc, den, nums, d * d2, coeff)
            found = table[key] = acc, den
        return found

    # commutator: both one-mode intermediates and the final level inside
    # the window
    for m in range(w_level + w2 - 1 - depth, w_level + w2):
        for n in range(w_level + w1 - 1 - depth, w_level + w1):
            final = w_level + w1 + w2 - n - m - 2
            if not 0 <= final <= depth:
                continue
            defect = _raw_commutator_defect(
                adjoint, engine, composed, v1_word, v2_word, n, m, w_key, w1 + w2
            )
            report.commutator_checked += 1
            if defect:
                report.failures.append(
                    ("commutator", voa.label(v1_word), voa.label(v2_word),
                     n, m, module.label(w_key))
                )
    # associativity additionally composes v1 modes on w directly
    if w_level + w1 - 1 <= depth:
        for m in range(w_level + w2 - 1 - depth, w_level + w2):
            for n in range(w1 + w2 - 1 - voa_depth, w1 + w2):
                final = w_level + w1 + w2 - n - m - 2
                if not 0 <= final <= depth:
                    continue
                defect = _raw_associativity_defect(
                    adjoint, engine, composed, v1_word, v2_word, n, m, w_key, w_level, w1, w2
                )
                report.associativity_checked += 1
                if defect:
                    report.failures.append(
                        ("associativity", voa.label(v1_word), voa.label(v2_word),
                         n, m, module.label(w_key))
                    )


MAX_FAILURES = 20


def run_identity_suite(module) -> IdentitySuiteReport:
    """Check the commutator and iterate identities exhaustively.

    Quantifies over all pairs of homogeneous basis elements of the
    algebra with compatible weights, all module basis vectors up to the
    depth, and every mode pair whose formal intermediate levels stay in
    the truncation window.  Also checks the vacuum axioms.  Failures are
    collected (up to ``MAX_FAILURES``) rather than raising, so a report
    always comes back.
    """
    voa = module.voa
    report = IdentitySuiteReport(module=module.describe(), depth=module.depth)
    vac = vacuum_vector(voa)
    for level in range(0, module.depth + 1):
        for key in module.keys(level):
            w = GradedVector.basis_vector(module, key)
            for k in range(-1, level + 1):
                expected = w if k == -1 else GradedVector.zero(module)
                report.vacuum_checked += 1
                if mode_action(vac, k, w) != expected:
                    report.failures.append(("vacuum", k, module.label(key)))
    if getattr(module, "is_voa", False):
        # creation axiom on the adjoint module: v_{-1}|0> = v, v_k|0> = 0
        for level in range(0, module.depth + 1):
            for key in module.keys(level):
                v = GradedVector.basis_vector(module, key)
                report.vacuum_checked += 1
                if mode_action(v, -1, vac) != v:
                    report.failures.append(("creation", -1, module.label(key)))
                for k in range(0, level):
                    report.vacuum_checked += 1
                    if not mode_action(v, k, vac).is_zero():
                        report.failures.append(("creation", k, module.label(key)))
    # the guard keeps the formal level of every composition appearing in
    # either identity inside [0, depth] (compositions that vanish
    # identically because their formal level is negative are fine);
    # combinations outside it are not enumerated, so every enumerated
    # case is fully certified and nothing inside the guard is skipped
    engine, adjoint = engine_for(module), engine_for(voa)
    for w1 in range(voa.depth + 1):
        for w2 in range(min(voa.depth + 1, voa.depth + 2 - w1)):
            for v1_word, v2_word in product(voa.keys(w1), voa.keys(w2)):
                for w_level in range(module.depth + 1):
                    for w_key in module.keys(w_level):
                        _check_triple(module, engine, adjoint, v1_word, v2_word, w_key, report)
    del report.failures[MAX_FAILURES:]
    return report
