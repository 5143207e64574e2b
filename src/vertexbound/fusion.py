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
coefficients of a level (pair) are eliminated once, and only the reduced
basis rows are kept.  A join takes them as its target's level spans; a
comparison reduces them again with each direction's own columns first.
The coefficient span of a genuine intertwining operator is already a
submodule, by the commutator formula (Frenkel-Huang-Lepowsky, Mem. AMS
494, 1993), so a join adds nothing to close it: a target that is not
closed is refused by its own action the first time a mode leaves it.

The concrete generator of examples is the free-boson vertex operator
Fock(lam) x Fock(mu) -> Fock(lam+mu) (Frenkel-Lepowsky-Meurman, ch. 4),
assembled from the closed forms of its two oscillator exponentials:
the annihilating one is tabulated once per w, the creating one once per
build as merge lists on target-basis indices.  A pair (u, w) sums the
normal-ordered states of every splitting of u, then adds each state's
merge lists into one int list per target level, by position, so no
partition is sorted or looked up per term.  It runs on ints over one
common denominator D per build, q^(3 depth) depth! for q = lcm(den lam,
den mu), as lam/mu degrees stay <= 3 depth; a division that leaves a
remainder raises instead of flooring.  The series keep those int
numerators with ``factor`` 1/D, and a scalar twist multiplies only the
factor; joins and comparisons eliminate numerators and scale just the
reduced basis rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
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
    partitions_of,
    raw_acc,
)


# ----------------------------------------------------------------------
# free-boson vertex operator kernels
#
# States are {(partition, zoff): X} where zoff tracks the power of z
# relative to the overall z^(lam*mu); after all factors are applied the
# partition weight equals zoff + |u| + |w|.  A coeff X is the int x * D.

def _degree_bound(depth: int) -> int:
    """Largest lam/mu degree of a term: |w|, |u| and the cap, from the
    annihilating exponential, the zero modes and the creating one."""
    return 3 * depth


def _exact(num: int, den: int) -> int:
    """num / den, which the common denominator makes an integer."""
    quot, rem = divmod(num, den)
    if rem:
        raise InternalInvariantViolation(f"kernel term {num}/{den} escapes the common denominator")
    return quot


def _creation_merges(big_l: int, q: int, depth: int, target) -> dict:
    """exp(lam sum_{t>=1} a(-t) z^t / t) as merge lists on target indices.

    The z^s term is sum_nu lam^len(nu) / z_nu a(-nu) over the partitions
    nu of s, where z_nu = prod_t t^{m_t} m_t! for m_t parts equal to t
    divides s!.  ``merges[part][s]`` lists ``(j, L^len(nu) depth!/z_nu,
    q^len(nu) depth!)`` for every partition ``part`` of weight <= depth
    and s <= depth - |part|, where j is the position of the merged
    partition part + nu in the target basis at level |part| + s.
    """
    top = factorial(depth)
    terms = []
    for s in range(depth + 1):
        row = []
        for nu in partitions_of(s):
            z_nu = 1
            for t in set(nu):
                m = nu.count(t)
                z_nu *= t ** m * factorial(m)
            mult = big_l ** len(nu) * (top // z_nu)
            if mult:
                row.append((nu, mult, q ** len(nu) * top))
        terms.append(row)
    return {
        part: [
            [(target.index(tuple(sorted(part + nu, reverse=True))), mult, div)
             for nu, mult, div in terms[s]]
            for s in range(depth - n + 1)
        ]
        for n in range(depth + 1)
        for part in partitions_of(n)
    }


def _annihilation_states(w_key: tuple, big_l: int, q: int, denom: int) -> dict:
    """exp(-lam sum_{j>=1} a(j) z^-j / j) applied to denom * a(-w_key)|mu>.

    Removing k_t of the m_t parts equal to t has coefficient
    prod_t C(m_t, k_t) (-lam)^{k_t} and lowers the z-power by t k_t.
    """
    states = {(w_key, 0): denom}
    if not big_l:
        return states
    for t in sorted(set(w_key)):
        m = w_key.count(t)
        image = {}
        for (part, zoff), coeff in states.items():
            for k in range(m + 1):
                image[(part, zoff - t * k)] = _exact(coeff * binomial(m, k) * (-big_l) ** k, q ** k)
                if k < m:
                    part = _remove_part(part, t)
        states = image
    return states


def _ann_factor(states: dict, n: int, big_m: int, q: int) -> dict:
    """Annihilation half of the n-th derivative field.

    (d/dz)^{n-1} a(z)/(n-1)! contributes a(m) z^{-m-n} with coefficient
    (-1)^{n-1} C(m+n-1, n-1) for m >= 0; a(0) is the charge mu.
    """
    sign = 1 if n % 2 else -1
    out = {}
    for (part, zoff), coeff in states.items():
        base = sign * coeff
        if big_m:
            raw_acc(out, (part, zoff - n), _exact(base * big_m, q))
        for m in set(part):
            value = base * binomial(m + n - 1, n - 1) * m * part.count(m)
            raw_acc(out, (_remove_part(part, m), zoff - m - n), value)
    return out


def _cre_factor(states: dict, n: int, bound: int, inserted: dict) -> dict:
    """Creation half: a(-j) z^{j-n} with coefficient C(j-1, n-1), j >= n."""
    out = {}
    for (part, zoff), coeff in states.items():
        grown = inserted[part]
        for j in range(n, bound - zoff + n + 1):
            value = binomial(j - 1, n - 1) * coeff
            raw_acc(out, (grown[j], zoff + j - n), value)
    return out


def _annihilated(table: dict, chosen: tuple, big_m: int, q: int) -> dict:
    """Annihilation halves of the factors ``chosen`` applied to ``table[()]``.

    Annihilation halves commute, so one entry per multiset of factors
    serves every u that contains it; ``table`` memoises them.
    """
    states = table.get(chosen)
    if states is None:
        states = _ann_factor(_annihilated(table, chosen[:-1], big_m, q), chosen[-1], big_m, q)
        table[chosen] = states
    return states


def _fock_vertex_images(u_key: tuple, annihilated: dict, big_m: int, q: int,
                        inserted: dict, creation: dict, dims: list, lw: int,
                        cap: int) -> dict:
    """Coefficients of Y(u, z) w in Fock(lam + mu), by target level.

    Returns {t: (x * D, ...)}, int coordinates over the target basis at
    level t of the z^(lam*mu + t - |u| - |w|) part, for w at level
    ``lw``; all-zero levels are left out.  ``annihilated`` holds the
    annihilating exponential already applied to w (under the key
    ``()``), ``inserted[part][j]`` is ``part`` with one more part j, and
    ``creation`` the merge lists of ``_creation_merges``.

    The normal ordering splits each derivative field of u into creation
    and annihilation halves; annihilation halves act first, so the
    creation side can be truncated at the level cap without loss.  Equal
    parts of u give equal fields, so a splitting is fixed by how many
    copies of each part annihilate, weighted by the binomial count of
    the orderings that reach it.  Creation operators commute, so the
    normal-ordered states of all splittings are summed first, and each
    summed state adds its merge lists into the level lists by position.
    """
    lu = sum(u_key)
    bound = cap - lu - lw
    counts = [(n, u_key.count(n)) for n in sorted(set(u_key), reverse=True)]
    ordered = {}
    for split in product(*(range(m + 1) for _, m in counts)):
        chosen = tuple(n for (n, _), a in zip(counts, split) for _ in range(a))
        states = _annihilated(annihilated, chosen, big_m, q)
        if not states:
            continue
        weight = 1
        for (n, m), a in zip(counts, split):
            weight *= binomial(m, a)
            for _ in range(m - a):
                states = _cre_factor(states, n, bound, inserted)
        for key, coeff in states.items():
            if key[1] <= bound:
                raw_acc(ordered, key, weight * coeff)
    out = {}
    for (part, zoff), coeff in ordered.items():
        level = zoff + lu + lw
        if sum(part) != level:
            raise InternalInvariantViolation(
                "vertex kernel lost track of the z-grading"
            )
        for size, merges in enumerate(creation[part], level):
            row = out.get(size)
            if row is None:
                row = out[size] = [0] * dims[size]
            for j, mult, div in merges:
                row[j] += _exact(coeff * mult, div)
    return {level: tuple(row) for level, row in sorted(out.items()) if any(row)}


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

    Built from the oscillator exponentials: the zero mode contributes
    the charge and the overall z^(lam*mu), each oscillator factor of u
    becomes a derivative field split into normal-ordered halves, and the
    two exponentials of lam spread the answer across target levels.
    Both exponentials are closed forms, tabulated for this call only:
    the annihilating one once per w, the creating one once as merge
    lists on target indices, whose sums per target level are the series
    entries as they stand.  All images up to the truncation depth are
    exact rationals, and a float charge is refused.

    The kernel runs on ints.  With q = lcm(den lam, den mu), each term is
    P(L, M) / (q^d z_nu) for L = lam q, M = mu q, an integer polynomial P
    of degree d <= E = 3 depth (``_degree_bound``) and z_nu | depth!; so
    states hold x * D for D = q^E depth! and every division is checked
    exact.  The series keep the int numerators X, and ``factor`` is 1/D.
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
    dims = [target.dim(n) for n in range(depth + 1)]
    creation = _creation_merges(big_l, q, depth, target)
    inserted = {part: (None,) + tuple(_insert_part(part, j) for j in range(1, depth - n + 1))
                for n in range(depth + 1) for part in partitions_of(n)}
    w_keys = [w_key for lw in range(depth + 1) for w_key in right.keys(lw)]
    annihilated = {w: {(): _annihilation_states(w, big_l, q, denom)} for w in w_keys}
    series = {}
    for lu in range(depth + 1):
        for u_key in left.keys(lu):
            for w_key in w_keys:
                images = _fock_vertex_images(
                    u_key, annihilated[w_key], big_m, q,
                    inserted, creation, dims, sum(w_key), depth,
                )
                if images:
                    series[(u_key, w_key, 0)] = images
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
    datum's stored numerators at its level after the columns of the
    datums before it.
    """
    offsets = list(accumulate((datum.target.dim(level) for datum, level in parts), initial=0))
    for skey in dict.fromkeys(k for datum, _ in parts for k in datum.series):
        row = {offset + j: c
               for (datum, level), offset in zip(parts, offsets)
               for j, c in enumerate(datum.series.get(skey, {}).get(level, ())) if c}
        if row:
            yield skey, row


def _reduced_basis(rows: list, parts: list) -> list:
    """Rows spanning the paired coefficients of ``parts``, from one elimination
    of the sparse numerator ``rows``, handed to the kernel without
    conversion; a block scalar keeps the rank, so only the reduced rows
    are scaled, and callers reduce them again."""
    factors = [datum.factor for datum, level in parts for _ in range(datum.target.dim(level))]
    reduced, pivots = ExactMatrix(len(rows), len(factors), rows).rref()
    return [{j: factors[j] * c for j, c in reduced.data[i].items()} for i in range(len(pivots))]


def _numerator_coords(span: RowSpan, parts: list, rows: dict, top: int) -> dict:
    """Span coordinates of each paired numerator row of ``parts``, checked on
    integers, as numerators over ``top``, a common denominator of the
    data factors.

    With f_j the factor of column j's datum, the scaled row s = f r lies
    in the span, whose reduced rows B_i lead at the pivot columns p_i,
    exactly when f_j r_j = sum_i f_{p_i} r_{p_i} B_ij at every free column
    j; its coordinates are the s_{p_i} = (top f_{p_i}) r_{p_i} / top.  Over one
    common denominator den the check reads a_j r_j = sum_i r_{p_i} c_ij
    with a_j = den f_j and c_ij = den f_{p_i} B_ij integers, so no scaled
    row is built.  Rows of ``Fraction``s (a datum stored with factor 1)
    take the same exact route, and their numerators stay ``Fraction``s.
    """
    factors = [datum.factor for datum, level in parts for _ in range(datum.target.dim(level))]
    pivots = span.pivot_columns()
    pivot_set, reduced = set(pivots), span.rows()
    free = [j for j in range(span.width) if j not in pivot_set]
    weights = [[factors[p] * row.get(j, QZERO) for p, row in zip(pivots, reduced)] for j in free]
    den = lcm(*(f.denominator for f in factors), *(g.denominator for col in weights for g in col))
    checks = [(j, factors[j].numerator * (den // factors[j].denominator),
               [(p, g.numerator * (den // g.denominator)) for p, g in zip(pivots, col) if g])
              for j, col in zip(free, weights)]
    scales = [(p, factors[p].numerator * (top // factors[p].denominator)) for p in pivots]
    out = {}
    for skey, row in rows.items():
        if any(a * row.get(j, 0) != sum(row.get(p, 0) * c for p, c in terms)
               for j, a, terms in checks):
            raise InternalInvariantViolation("paired coefficient escaped its own span")
        out[skey] = tuple(b * row.get(p, 0) for p, b in scales)
    return out


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
    the order.  Each level's span is the reduced basis of its paired
    rows, eliminated once as numerators, and nothing is added to close
    it under the action: for genuine intertwining operators it is closed
    already, and ``SpanModule.apply_gen`` refuses a mode that leaves it.
    Every paired coefficient is then checked against its level span and
    expressed in it on its numerators (``_numerator_coords``): the
    membership check is made at run time, in integers, and a row outside
    the span raises ``InternalInvariantViolation``.  The result keeps the
    coordinates as
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
        parts = [(p, n) for p in factors]
        rows = dict(_paired_rows(parts))
        spans[n] = RowSpan(ambient.dim(n))
        for row in _reduced_basis(list(rows.values()), parts):
            spans[n].add(row)
        for skey, expressed in _numerator_coords(spans[n], parts, rows, top).items():
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
    ``[c_second | c_first]``.  A pair is eliminated once, on first use,
    on the stored numerators; only its basis rows (at most d1 + d2) are
    kept, each block times its datum's factor.  Generator-mode matrices of
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
            parts = [(self.second, n), (self.first, t)]
            self._bases[(n, t)] = _reduced_basis([row for _, row in _paired_rows(parts)], parts)
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
