"""Exact scalars and Laurent polynomials in one formal variable.

Every public number in this package (vector coordinates, matrix and span
entries, report scalars) is a :class:`fractions.Fraction`; raw mode-engine
dicts may hold an ``int`` where a value is integral.  Floating point never
enters any computation.  A Laurent polynomial is a finite map
from integer exponents of ``z`` to nonzero rational coefficients, which is
exactly what truncated correlator coefficients and ODE entries need.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import InputShapeError

Q = Fraction

QZERO = Q(0)
QONE = Q(1)


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)\s*(?:/\s*([0-9]+)\s*)?")


def parse_rational(text: str) -> Q:
    """Parse ``"p/q"`` or ``"p"`` into an exact rational.

    ``p`` and ``q`` are ASCII decimal integers (only ``p`` may carry a
    sign) and whitespace around them is ignored.  Anything else,
    including floating-point notation and digit separators, is
    rejected: run files must stay exact.
    """
    match = _RATIONAL.fullmatch(text)
    if match is None or match.group(2) is not None and not int(match.group(2)):
        raise InputShapeError(f"not an exact rational: {text!r}")
    return Q(int(match.group(1)), int(match.group(2) or 1))


def as_rational(value, what: str) -> Q:
    """``value`` as a ``Fraction``; anything but an ``int`` or ``Fraction`` is refused."""
    if not isinstance(value, (int, Q)):
        raise InputShapeError(f"{what} must be an int or a Fraction, not {type(value).__name__}")
    return Q(value)


def format_rational(value: Q) -> str:
    """Inverse of :func:`parse_rational`; integers print without ``/1``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@lru_cache(maxsize=None)
def binomial(n: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper index.

    For ``k < 0`` the value is 0; otherwise it is the falling factorial
    ``n (n-1) ... (n-k+1) / k!``, always an integer.
    """
    if k < 0:
        return 0
    num = 1
    for t in range(k):
        num *= n - t
    den = 1
    for t in range(2, k + 1):
        den *= t
    return num // den


class LaurentPoly:
    """A finite rational linear combination of powers ``z^n``, ``n in Z``.

    Instances behave as immutable values: arithmetic returns new objects
    and zero coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for power, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(power, int):
                    raise InputShapeError(f"exponent must be an integer, got {power!r}")
                c = coeff if type(coeff) is Q else as_rational(coeff, "a Laurent coefficient")
                if c:
                    data[power] = data.get(power, QZERO) + c
                    if not data[power]:
                        del data[power]
        self._terms = data

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: QONE})

    @classmethod
    def monomial(cls, power: int, coeff=QONE) -> "LaurentPoly":
        return cls({power: coeff})

    @property
    def terms(self) -> dict:
        """Exponent-to-coefficient map (a defensive copy)."""
        return dict(self._terms)

    def coeff(self, power: int) -> Q:
        return self._terms.get(power, QZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def min_exponent(self):
        """Smallest exponent with nonzero coefficient, or None if zero."""
        return min(self._terms) if self._terms else None

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly({0: Q(other)})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: Q(other)})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for p, c in other._terms.items():
            s = out.get(p, QZERO) + c
            if s:
                out[p] = s
            else:
                out.pop(p, None)
        result = LaurentPoly()
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = LaurentPoly()
        result._terms = {p: -c for p, c in self._terms.items()}
        return result

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Q(other)
            if not c:
                return LaurentPoly()
            result = LaurentPoly()
            result._terms = {p: c * v for p, v in self._terms.items()}
            return result
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for p1, c1 in self._terms.items():
            for p2, c2 in other._terms.items():
                p = p1 + p2
                s = out.get(p, QZERO) + c1 * c2
                if s:
                    out[p] = s
                else:
                    out.pop(p, None)
        result = LaurentPoly()
        result._terms = out
        return result

    __rmul__ = __mul__

    def to_json_terms(self) -> list:
        """Sorted term list with rational coefficients split into strings."""
        return [
            {"power": p, "num": str(self._terms[p].numerator), "den": str(self._terms[p].denominator)}
            for p in sorted(self._terms)
        ]

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for p in sorted(self._terms):
            c = format_rational(self._terms[p])
            if p == 0:
                parts.append(c)
            elif p == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{p}")
        return " + ".join(parts)
