"""Truncated intertwining operators and the directed set they generate.

An intertwining operator of type (T; U, W) is recorded here through its
mode images: for homogeneous u in U and w in W the series

    Y(u, z) w = sum_{j <= J} sum_m u_{(j,m)} w  z^{-m-1} (log z)^j

has one coefficient per weight slot of T, and truncating everything at a
finite level leaves a finite table of exact rational vectors.  The table
is the whole object.  Joins pair two tables component-wise and span the
paired coefficients level by level, which is the two-factor case of the
product construction over all targets; the order relation "Y1 <= Y2" is
decided by solving for the unique module map f with f . Y2 = Y1.  Y2 must
be surjective: its coefficients at level n then fix the block f_n alone,
so f is solved one level at a time and its commutation with the
generator modes is checked afterwards on the solved blocks.  Both
operations build a paired row space the same way: the paired
coefficients of a level (pair), each block times one integer that
clears its datum's factor, stream into one ``RowSpan`` until it is
full.  A join takes that span as its target's level span; a comparison
reduces its rows again with each direction's own columns first.
The coefficient span of a genuine intertwining operator is already a
submodule, by the commutator formula (Frenkel-Huang-Lepowsky, Mem. AMS
494, 1993), so a join adds nothing to close it: a target that is not
closed is refused by its own action the first time a mode leaves it.

The concrete generator of examples is the free-boson vertex operator
Fock(lam) x Fock(mu) -> Fock(lam+mu) (Frenkel-Lepowsky-Meurman, ch. 4),
built by dynamic programming over basis pairs (u, w).  The pair of the
two lowest-weight vectors is the creating exponential; a pair with
w = |mu> follows from a shorter u by the normal-ordered product, and
any other pair from a shorter w by the Heisenberg commutator formula.
Each rule adds whole level lists of smaller pairs through index maps
on the target basis, so no partition is sorted or looked up per term.
It runs on ints over one common denominator D per build, q^(3 depth)
depth! for q = lcm(den lam, den mu), as lam/mu degrees stay <= 3 depth;
a division that leaves a remainder raises instead of flooring.  The
series keep those int numerators with ``factor`` 1/D, and a scalar
twist multiplies only the factor; joins and comparisons scale the
numerators by integers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import factorial, gcd, lcm

from .errors import InputShapeError, InternalInvariantViolation
from .laurent import Q, QONE, QZERO, as_rational, binomial, format_rational
from .linalg import ExactMatrix, RowSpan
from .voa import (
    BaseRealization,
    DirectSumModule,
    FockModule,
    HeisenbergVoa,
    LevelCapExceeded,
    _insert_part,
    _remove_part,
    mode_matrix,
    raw_acc,
)


# ----------------------------------------------------------------------
# free-boson vertex operator kernel
#
# A table entry {t: (X, ...)} holds, for one source pair (u, w), the int
# numerators X = x * D of the coefficients of Y(u, z) w at target level
# t <= depth, all-zero levels left out; it is the pair's series entry.

def _degree_bound(depth: int) -> int:
    """Largest lam/mu degree of a term at level t of a pair (u, w).

    The creating exponential gives lam^len(nu) with len(nu) <= t; each
    part of u adds at most one mu (the zero mode of the normal-ordered
    product) and each part of w at most one lam (the zero mode of the
    commutator formula), and no other step raises the degree.  So the
    degree is <= t + |u| + |w| <= 3 depth, and D = q^(3 depth) depth!
    clears every term.
    """
    return 3 * depth


def _exact(num: int, den: int) -> int:
    """num / den, which the common denominator makes an integer."""
    quot, rem = divmod(num, den)
    if rem:
        raise InternalInvariantViolation(f"kernel term {num}/{den} escapes the common denominator")
    return quot


def _creating_exponential(big_l: int, q: int, denom: int, target, depth: int) -> dict:
    """Table entry of (|lam>, |mu>): exp(lam sum_{t>=1} a(-t) z^t / t)|lam+mu>.

    The z^t term is sum_nu lam^len(nu) / z_nu a(-nu) over the partitions
    nu of t, where z_nu = prod_s s^{m_s} m_s! for m_s parts equal to s
    divides t!.
    """
    entry = {}
    for t in range(depth + 1):
        row = []
        for nu in target.keys(t):
            z_nu = 1
            for s in set(nu):
                m = nu.count(s)
                z_nu *= s ** m * factorial(m)
            row.append(_exact(denom * big_l ** len(nu), q ** len(nu) * z_nu))
        if any(row):
            entry[t] = tuple(row)
    return entry


def _add_grown(row: list, src: tuple, positions: list, c: int) -> None:
    """row += c a(-j) src, ``positions`` sending src's basis to row's."""
    for p, x in enumerate(src):
        if x:
            row[positions[p]] += c * x


# ----------------------------------------------------------------------
# intertwiner data

class IntertwinerData:
    """One truncated intertwining operator, stored as exact mode images.

    ``factor`` times ``series[(u_key, w_key, j)][t]`` gives the
    coordinates, over the target basis at level t, of the coefficient of
    ``z^{-m-1} (log z)^j`` in ``Y(u, z) w`` whose mode index is

        m = wt(u) + wt(w) - 1 - (lowest_weight(T) + t).

    The numerators may be ``int``s; value readers go through ``images``.
    Pairs absent from the table have all-zero images; the table is
    complete for source levels up to the truncation depth.  Surjectivity
    means the recorded coefficients span every target level.
    """

    def __init__(self, source_left, source_right, target, depth: int,
                 j_max: int = 0, series=None, factor=QONE):
        if depth < 0:
            raise InputShapeError("truncation depth must be non-negative")
        if j_max < 0:
            raise InputShapeError("the log-power cap must be non-negative")
        for mod in (source_left, source_right, target):
            if mod.depth < depth:
                raise InputShapeError(
                    f"{mod.describe()} truncates below the requested depth {depth}"
                )
        self.source_left = source_left
        self.source_right = source_right
        self.target = target
        self.depth = depth
        self.j_max = j_max
        self.series = dict(series or {})
        self.factor = as_rational(factor, "the series factor")

    def describe(self) -> str:
        return (
            f"{self.source_left.describe()} x {self.source_right.describe()}"
            f" -> {self.target.describe()}"
        )

    def __repr__(self):
        return f"<intertwiner {self.describe()} depth={self.depth}>"

    # -- mode bookkeeping ---------------------------------------------

    def mode_index(self, u_key, w_key, target_level: int) -> Q:
        wt_u = self.source_left.weight_of(u_key)
        wt_w = self.source_right.weight_of(w_key)
        return wt_u + wt_w - 1 - (self.target.lowest_weight + target_level)

    def images(self, skey) -> dict:
        """``{level: coordinates}`` of the series key ``skey``, times ``factor``."""
        return {level: tuple(self.factor * c for c in coords)
                for level, coords in self.series.get(skey, {}).items()}

    # -- algebraic certificates ---------------------------------------

    def surjectivity_certificate(self) -> dict:
        """Per level: (rank of the coefficient span, target dimension)."""
        out = {}
        for n in range(self.depth + 1):
            dim = self.target.dim(n)
            span = RowSpan(dim)
            for key in sorted(self.series):
                coords = self.series[key].get(n)
                if coords:
                    span.add({j: c for j, c in enumerate(coords) if c})
                if span.rank == dim:
                    break
            out[n] = (span.rank, dim)
        return out

    # -- derived data --------------------------------------------------

    def scale(self, c) -> "IntertwinerData":
        """c Y on the same series tables, ``factor`` times c; a float c is refused."""
        c = as_rational(c, "an intertwiner scale")
        if not c:
            raise InputShapeError("scaling an intertwiner by zero destroys surjectivity")
        return IntertwinerData(
            self.source_left, self.source_right, self.target,
            self.depth, self.j_max, self.series, self.factor * c,
        )

    def to_json(self) -> dict:
        modes = []
        left, right = self.source_left, self.source_right
        order = sorted(
            self.series,
            key=lambda t: (left.level_of(t[0]), t[0], right.level_of(t[1]), t[1], t[2]),
        )
        for u_key, w_key, j in order:
            images = self.images((u_key, w_key, j))
            rows = [
                {
                    "level": level,
                    "mode_index": format_rational(self.mode_index(u_key, w_key, level)),
                    "vector": [format_rational(c) for c in coords],
                }
                for level, coords in sorted(images.items())
                if any(coords)
            ]
            if rows:
                modes.append({
                    "u": self.source_left.label(u_key),
                    "w": self.source_right.label(w_key),
                    "log_power": j,
                    "images": rows,
                })
        return {
            "sources": [
                self.source_left.describe(),
                self.source_right.describe(),
            ],
            "target": self.target.describe(),
            "depth": self.depth,
            "log_cap": self.j_max,
            "modes": modes,
        }


# ----------------------------------------------------------------------
# constructors

def heisenberg_intertwiner(lam, mu, depth: int, voa=None) -> IntertwinerData:
    """The free-boson vertex operator Fock(lam) x Fock(mu) -> Fock(lam+mu).

    Built by dynamic programming over basis pairs (u, w): each pair's
    table entry comes from the entries of smaller pairs by one of three
    rules (Frenkel-Lepowsky-Meurman, ch. 4).

    * Base: Y(|lam>, z)|mu> = z^(lam mu) exp(lam sum_t a(-t) z^t / t)|lam+mu>
      (``_creating_exponential``).
    * Normal-ordered product on u, at w = |mu>: Y(a(-n)u', z) is
      :d^(n-1) a(z) / (n-1)! Y(u', z):.  Its creating half puts
      C(j-1, n-1) a(-j), j >= n, on level t of u' at level t + j; on
      |mu> only the zero mode of its annihilating half survives, which
      adds (-1)^(n-1) mu times level t at level t.
    * Commutator formula on w: Y(u, z) a(-n)w' = a(-n) Y(u, z) w' -
      sum_{i>=0} C(-n, i) z^(-n-i) Y(a(i)u, z) w', where a(0)u = lam u
      and a(i)u, i > 0, is i m_i(u) times u with one part i removed, for
      m_i(u) parts of u equal to i.

    Every rule draws level t from levels <= t, so the truncation at the
    depth is exact, and a(-j) moves a level onto the next through index
    maps on the target basis, built once per call.  A float charge is
    refused.

    The kernel runs on ints.  With q = lcm(den lam, den mu), each term
    of a coefficient at level t of (u, w) is c lam^a mu^b / z_nu for an
    integer c and z_nu | depth!.  Its degree a + b is at most t + |u| +
    |w| <= E = 3 depth (``_degree_bound``), so D = q^E depth! clears it:
    entries hold x * D, and every division by q is checked exact.  The
    series keep the int numerators X, and ``factor`` is 1/D.
    """
    lam = as_rational(lam, "the charge lam")
    mu = as_rational(mu, "the charge mu")
    if voa is None:
        voa = HeisenbergVoa(depth)
    elif not isinstance(voa, HeisenbergVoa):
        raise InputShapeError("the free-boson intertwiner runs over the rank-one Heisenberg algebra")
    elif voa.depth < depth:
        raise InputShapeError("the supplied algebra truncates below the requested depth")
    left = FockModule(voa, lam, depth)
    right = FockModule(voa, mu, depth)
    target = FockModule(voa, lam + mu, depth)
    q = lcm(lam.denominator, mu.denominator)
    big_l, big_m = int(lam * q), int(mu * q)
    denom = q ** _degree_bound(depth) * factorial(depth)
    levels = range(depth + 1)
    dims = [target.dim(t) for t in levels]
    # grow[j][s][p]: position at level s + j of a(-j) times basis monomial p of level s
    grow = [None] + [[[target.index(_insert_part(part, j)) for part in target.keys(s)]
                      for s in range(depth + 1 - j)] for j in range(1, depth + 1)]
    u_keys = [u for lu in levels for u in left.keys(lu)]
    w_keys = [w for lw in levels for w in right.keys(lw)]
    table = {((), ()): _creating_exponential(big_l, q, denom, target, depth)}
    # normal-ordered product on u = (n,) + u', at w = |mu>
    for u in u_keys[1:]:
        n, rest = u[0], table[(u[1:], ())]
        charge = big_m if n % 2 else -big_m
        entry = {}
        for t in levels:
            row = [0] * dims[t]
            for j in range(n, t + 1):
                src = rest.get(t - j)
                if src:
                    _add_grown(row, src, grow[j][t - j], binomial(j - 1, n - 1))
            for p, x in enumerate(rest.get(t, ())):
                row[p] += _exact(charge * x, q)
            if any(row):
                entry[t] = tuple(row)
        table[(u, ())] = entry
    # commutator formula on w = (n,) + w'
    for w in w_keys[1:]:
        n, w_rest = w[0], w[1:]
        for u in u_keys:
            rest = table[(u, w_rest)]
            lowered = [(-binomial(-n, i) * i * u.count(i), table[(_remove_part(u, i), w_rest)])
                       for i in set(u)]
            entry = {}
            for t in levels:
                row = [0] * dims[t]
                src = rest.get(t - n)
                if src:
                    _add_grown(row, src, grow[n][t - n], 1)
                for p, x in enumerate(rest.get(t, ())):
                    row[p] -= _exact(big_l * x, q)
                for c, lower in lowered:
                    for p, x in enumerate(lower.get(t, ())):
                        row[p] += c * x
                if any(row):
                    entry[t] = tuple(row)
            table[(u, w)] = entry
    series = {(u, w, 0): table[(u, w)] for u in u_keys for w in w_keys if table[(u, w)]}
    return IntertwinerData(left, right, target, depth, 0, series, Q(1, denom))


def zero_intertwiner(source_left, source_right, depth: int) -> IntertwinerData:
    """The trivial datum with empty target; the bottom of the order."""
    target = DirectSumModule((), depth)
    return IntertwinerData(source_left, source_right, target, depth, 0, {})


# ----------------------------------------------------------------------
# span-realized targets

@dataclass(frozen=True)
class SpanSpec:
    """Declarative tag for a subspace realization inside an ambient one."""

    ambient: object

    def describe(self) -> str:
        return f"Span[{self.ambient.describe()}]"


class SpanModule(BaseRealization):
    """A graded subspace of an ambient realization, closed under the action.

    Each level is read off a ``RowSpan`` over the ambient level basis:
    its rows are in reduced echelon form, so the coordinates of a member
    vector are its entries at the pivot columns.  Closure is checked, not
    assumed: a generator mode whose ambient image leaves the span raises
    ``InternalInvariantViolation``.  The cap is hard: asking the action
    for a level beyond the stored depth raises ``LevelCapExceeded``
    because the basis there was never computed.
    """

    def __init__(self, ambient, spans: dict, depth: int):
        super().__init__(depth)
        self.ambient = ambient
        self.voa = ambient.voa
        self.lowest_weight = ambient.lowest_weight
        self.spans = spans
        self.spec = SpanSpec(ambient=ambient.spec)

    def keys(self, n: int) -> tuple:
        if n < 0 or n > self.depth:
            return ()
        return tuple((n, i) for i in range(self.spans[n].rank))

    def level_of(self, key) -> int:
        return key[0]

    def weight_of(self, key) -> Q:
        return self.lowest_weight + key[0]

    def label(self, key) -> str:
        return f"s{key[0]}.{key[1]}"

    def coords_in_span(self, row: dict, level: int):
        """Span coordinates of an ambient ``{col: value}`` row, or None if outside."""
        span = self.spans.get(level)
        if span is None:
            raise InputShapeError(f"level {level} exceeds the span cap {self.depth}")
        if span.reduce(row):
            return None
        return tuple(row.get(p, QZERO) for p in span.pivot_columns())

    def apply_gen(self, k: int, key) -> dict:
        n, i = key
        # generator mode k sends level n to n + gen_weight - 1 - k
        n2 = n + self.voa.gen_weight - 1 - k
        if n2 < 0:
            return {}
        if n2 > self.depth:
            raise LevelCapExceeded(
                f"span basis is only stored up to level {self.depth}"
            )
        keys = self.ambient.keys(n)
        raw = {}
        for col, c in self.spans[n].row(i).items():
            for rk, rc in self.ambient.apply_gen(k, keys[col]).items():
                raw_acc(raw, rk, c * rc)
        coords = self.coords_in_span(self.ambient.coords(raw, n2), n2)
        if coords is None:
            raise InternalInvariantViolation(
                "span module is not closed under the algebra action"
            )
        return {(n2, idx): c for idx, c in enumerate(coords) if c}


def _paired_rows(parts: list):
    """``(skey, row)`` for each series key with a nonzero paired row.

    ``parts`` lists ``(datum, level)``; the sparse row of a key puts each
    datum's stored numerators at its level, times ``top * factor``, after
    the columns of the datums before it.  ``top`` is the lcm of the
    factors' denominators, so each block multiplier is an ``int`` and the
    rows are the paired coefficients times ``top``; a datum with factor 0
    contributes an empty block.
    """
    top = lcm(*(datum.factor.denominator for datum, _ in parts))
    offsets = accumulate((datum.target.dim(level) for datum, level in parts), initial=0)
    blocks = [(datum, level, offset, datum.factor.numerator * (top // datum.factor.denominator))
              for (datum, level), offset in zip(parts, offsets)]
    for skey in dict.fromkeys(k for datum, _ in parts for k in datum.series):
        row = {offset + j: scale * c
               for datum, level, offset, scale in blocks if scale
               for j, c in enumerate(datum.series.get(skey, {}).get(level, ())) if c}
        if row:
            yield skey, row


def _filled_span(width: int, rows) -> RowSpan:
    """The ``RowSpan`` of ``rows``, fed only until it is full."""
    span = RowSpan(width)
    for row in rows:
        if span.rank == width:
            break
        span.add(row)
    return span


def _has_content(data: IntertwinerData) -> bool:
    return any(data.target.dim(n) for n in range(data.depth + 1))


SOURCE_MISMATCH = "intertwiner data must share the source pair (U, W)"


def _require_matching_sources(p1: IntertwinerData, p2: IntertwinerData) -> None:
    if (p1.source_left.spec != p2.source_left.spec
            or p1.source_right.spec != p2.source_right.spec):
        raise InputShapeError(SOURCE_MISMATCH)
    if p1.depth != p2.depth:
        raise InputShapeError("intertwiner data must share one truncation depth")


def join(p1: IntertwinerData, p2: IntertwinerData) -> IntertwinerData:
    """The paired-coefficient join of two data over the same sources.

    The new target is the level-wise span of the paired coefficients
    (Y1(u, z) w, Y2(u, z) w) inside the direct sum of the two targets;
    both factors project back onto it, so the result dominates each in
    the order.  Each level's paired rows, times ``top`` (``_paired_rows``),
    stream into its level span until it is full, and nothing is added to
    close it under the action: for genuine intertwining operators it is
    closed already, and ``SpanModule.apply_gen`` refuses a mode that
    leaves it.  Every paired row is then checked against its level span
    at run time; a row outside it raises ``InternalInvariantViolation``.
    The span's rows are reduced, so a row's coordinates are its entries
    at the pivot columns, ints over ``top``.  The result keeps them as
    ``int`` numerators over the factor 1/D, D the lcm of their
    denominators, so a further join eliminates integers again.
    """
    _require_matching_sources(p1, p2)
    depth = p1.depth
    j_max = max(p1.j_max, p2.j_max)
    factors = [p for p in (p1, p2) if _has_content(p)]
    if not factors:
        return zero_intertwiner(p1.source_left, p1.source_right, depth)
    targets = [p.target for p in factors]
    voa = targets[0].voa
    if any(t.voa is not voa for t in targets):
        raise InputShapeError("join factors must be realized over one algebra instance")
    low = targets[0].lowest_weight
    if any(t.lowest_weight != low for t in targets):
        raise InputShapeError(
            "truncated joins need target modules with a common lowest weight"
        )
    ambient = DirectSumModule(targets, depth)
    top = lcm(*(p.factor.denominator for p in factors))
    spans, coords = {}, {}
    for n in range(depth + 1):
        rows = dict(_paired_rows([(p, n) for p in factors]))
        span = spans[n] = _filled_span(ambient.dim(n), rows.values())
        pivots = span.pivot_columns()
        for skey, row in rows.items():
            if not span.contains(row):
                raise InternalInvariantViolation("paired coefficient escaped its own span")
            expressed = tuple(row.get(p, 0) for p in pivots)
            if any(expressed):
                coords.setdefault(skey, {})[n] = expressed
    # extra clears the denominators of numerators a datum stores as Fractions
    extra = lcm(*(c.denominator for levels in coords.values() for v in levels.values() for c in v))
    if extra != 1:
        top *= extra
        coords = {skey: {n: tuple((c * extra).numerator for c in vec) for n, vec in levels.items()}
                  for skey, levels in coords.items()}
    g = gcd(top, *(c for levels in coords.values() for v in levels.values() for c in v))
    series = {skey: {n: tuple(c // g for c in vec) for n, vec in levels.items()}
              for skey, levels in coords.items()}
    target = SpanModule(ambient, spans, depth)
    return IntertwinerData(p1.source_left, p1.source_right, target, depth, j_max, series,
                           Q(1, top // g))


# ----------------------------------------------------------------------
# the order relation

@dataclass
class PairOrderWitness:
    """A module map f with f . Y_upper = Y_lower, as per-level blocks.

    ``blocks[n]`` sends level n of the upper target to level n + shift
    of the lower one; missing blocks are zero maps.  Each block is the
    unique solution of the series matching at its level; the blocks
    together commute with the generator modes.
    """

    lower: IntertwinerData
    upper: IntertwinerData
    shift: int | None
    blocks: dict

    def to_json(self) -> dict:
        return {
            "lower": self.lower.describe(),
            "upper": self.upper.describe(),
            "shift": self.shift,
            "blocks": [
                {
                    "level": n,
                    "matrix": [
                        [format_rational(block.entry(r, c)) for c in range(block.cols)]
                        for r in range(block.rows)
                    ],
                }
                for n, block in sorted(self.blocks.items())
            ],
        }


@dataclass
class ComparisonResult:
    """Outcome of the order comparison between two intertwiner data."""

    relation: str  # less_eq | greater_eq | equivalent | incomparable
    witness: PairOrderWitness | None = None
    reverse_witness: PairOrderWitness | None = None

    def to_json(self) -> dict:
        out = {"relation": self.relation}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.reverse_witness is not None:
            out["reverse_witness"] = self.reverse_witness.to_json()
        return out


def _vanishes(data: IntertwinerData) -> bool:
    """True when every recorded coefficient of ``data`` is zero."""
    return all(not any(coords) for images in data.series.values() for coords in images.values())


def _zero_witness_or_none(lower, upper):
    if _vanishes(lower):
        return PairOrderWitness(lower=lower, upper=upper, shift=None, blocks={})
    return None


class _AlignedRowSpaces:
    """One row space per aligned level pair of two data, for both witnesses.

    At level n of ``second``'s target and t of ``first``'s, the series
    keys with a nonzero coefficient on either side give the rows
    ``[c_second | c_first]``, each times one integer (``_paired_rows``).
    On first use a pair's rows stream into one ``RowSpan`` until it is
    full, and only the span's reduced rows (at most d1 + d2) are kept;
    a common scalar leaves the row space as it is.  Generator-mode matrices of
    the two targets are built once each, for both witnesses' commutation
    checks, and live as long as this object.
    """

    def __init__(self, first: IntertwinerData, second: IntertwinerData):
        self.first, self.second, self._bases, self._modes = first, second, {}, {}

    def mode_matrix(self, module, k: int, src: int, dst: int) -> ExactMatrix:
        """``voa.mode_matrix`` of one of the two targets, built on first use."""
        key = (module, k, src, dst)
        if key not in self._modes:
            self._modes[key] = mode_matrix(module, k, src, dst)
        return self._modes[key]

    def basis(self, upper: IntertwinerData, n: int, t: int) -> list:
        """Basis rows ``[c_up | c_low]`` at level n of ``upper`` and t of the other."""
        if upper is not self.second:
            d1, d2 = self.first.target.dim(n), self.second.target.dim(t)
            return [{j - d2 if j >= d2 else j + d1: c for j, c in row.items()}
                    for row in self.basis(self.second, t, n)]
        if (n, t) not in self._bases:
            rows = (row for _, row in _paired_rows([(self.second, n), (self.first, t)]))
            width = self.second.target.dim(n) + self.first.target.dim(t)
            self._bases[(n, t)] = _filled_span(width, rows).rows()
        return self._bases[(n, t)]


def _solve_witness(lower: IntertwinerData, upper: IntertwinerData, spaces: _AlignedRowSpaces):
    """The unique f with f . Y_upper = Y_lower, or None if none exists.

    The upper coefficients at level n fix the block f_n on their own:
    each series key gives one row ``[c_up | c_low]``, and the reduced
    echelon form of those rows is ``[I | f_n^T]`` exactly when a unique
    solution exists.  It is read off the level pair's basis in
    ``spaces``, reduced again with the upper columns first.  A key with
    ``c_low != 0`` but ``c_up = 0`` gives a row ``[0 | c_low]``, whose
    pivot past the upper columns means no f exists; the loop visits
    every level that a lower coefficient can sit on, empty upper levels
    and those below the upper lowest weight included, so that verdict
    comes before any rank deficiency is raised.  Commutation with the
    generator modes is then checked on the solved blocks.
    """
    low_t = lower.target
    up_t = upper.target
    if not _has_content(upper):
        return _zero_witness_or_none(lower, upper)
    shift_q = up_t.lowest_weight - low_t.lowest_weight
    if shift_q.denominator != 1:
        # no weight slot of the upper target meets one of the lower:
        # the only candidate is the zero map
        return _zero_witness_or_none(lower, upper)
    shift = int(shift_q)

    # series matching, one level at a time, from the upper level aligned
    # with the lower target's level 0 (negative, and empty, when shift > 0)
    blocks = {}
    deficient = None
    for n in range(min(0, -shift), upper.depth + 1):
        t = n + shift
        if not (0 <= t <= low_t.depth and low_t.dim(t)):
            continue
        d1, d2 = low_t.dim(t), up_t.dim(n)
        basis = spaces.basis(upper, n, t)
        reduced, pivots = ExactMatrix(len(basis), d1 + d2, basis).rref()
        if any(col >= d2 for _, col in pivots):
            return None
        if len(pivots) < d2:
            if deficient is None:
                deficient = (n, len(pivots), d2)
            continue
        # pivot row i reads [e_col | column col of f_n]
        rows = [{} for _ in range(d1)]
        for i, col in pivots:
            for j, value in reduced.data[i].items():
                if j >= d2:
                    rows[j - d2][col] = value
        if any(rows):
            blocks[n] = ExactMatrix(d1, d2, rows)
    if deficient is not None:
        n, rank, dim = deficient
        raise InternalInvariantViolation(
            f"order witness is not unique: the upper coefficients at level {n}"
            f" have rank {rank} < {dim}; the inputs are not surjective"
        )

    # module-map property: f_{n2} . M_up = M_low . f_n for every generator
    # mode that stays inside both truncations (missing blocks are zero)
    voa = up_t.voa
    if voa is not None:
        gw = voa.gen_weight
        for n in range(upper.depth + 1):
            for k in range(n + gw - 1 - upper.depth, n + gw):
                n2 = n + gw - 1 - k
                t, t2 = n + shift, n2 + shift
                if n not in blocks and n2 not in blocks:
                    continue
                if t > low_t.depth or t2 > low_t.depth or t2 < 0:
                    continue
                try:
                    m_up = spaces.mode_matrix(up_t, k, n, n2)
                except LevelCapExceeded:
                    continue
                zero = ExactMatrix(low_t.dim(t2), up_t.dim(n))
                lhs = blocks[n2].matmul(m_up) if n2 in blocks else zero
                rhs = spaces.mode_matrix(low_t, k, t, t2).matmul(blocks[n]) if n in blocks else zero
                if lhs != rhs:
                    return None
    return PairOrderWitness(lower=lower, upper=upper, shift=shift, blocks=blocks)


def compare(p1: IntertwinerData, p2: IntertwinerData) -> ComparisonResult:
    """Decide the order relation between two data over the same sources.

    ``less_eq`` means p1 <= p2, witnessed by the unique module map from
    the second target onto the first intertwining the series; both ways
    give ``equivalent``, neither gives ``incomparable``.

    Each witness is solved level by level from the series alone, so the
    upper datum must be surjective on every level the witness maps.  A
    level whose coefficients fall short of the target dimension raises
    ``InternalInvariantViolation`` (unless the series already rule the
    witness out); the module-map property is never used to pin it down.
    Both witnesses read one row space per aligned level pair, eliminated
    once per call (``_AlignedRowSpaces``).
    """
    _require_matching_sources(p1, p2)
    spaces = _AlignedRowSpaces(p1, p2)
    forward = _solve_witness(p1, p2, spaces)
    backward = _solve_witness(p2, p1, spaces)
    if forward is not None and backward is not None:
        return ComparisonResult("equivalent", forward, backward)
    if forward is not None:
        return ComparisonResult("less_eq", forward)
    if backward is not None:
        return ComparisonResult("greater_eq", backward)
    return ComparisonResult("incomparable")
