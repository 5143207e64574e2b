"""C_m subspaces, quotient data, complements, and nilpotency bookkeeping.

For a graded module ``M`` over the algebra ``V``,

    C_m(M) = Span { v_{-m} u : v homogeneous, wt(v) > 1 - m, u in M },

computed level by level.  Within a truncation window the spanning set at
level ``n`` is provably complete once every contributing ``v_{-m} u``
with ``wt(v) <= n - m + 1`` is realizable, which is what the depth guard
below enforces; everything reported is then exact, not approximate.

The single nontrivial enumeration detail: our algebras have
``V_0 = Q|0>`` and no negative weights, and the vacuum contributes
``1_{-m} u = 0`` for ``m >= 2`` (and is excluded by ``wt > 0`` for
``m = 1``), so spanning generators always run over ``wt(v) >= 1``.

Assembly stops at a level once its span is the whole level: the rank is
bounded by ``dim M_(n)`` and the reduced echelon form of a full span is
the identity, so the images left over could change nothing.  Above the
cofiniteness window every level of ``C_1(M)`` is full, so this skips
most of the mode-engine work there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InputShapeError,
    InternalInvariantViolation,
    NotCofiniteUpToDepth,
    TruncationError,
)
from .laurent import Q, QONE, QZERO
from .linalg import ExactMatrix, RowSpan
from .modes import GradedVector, engine_for
from .voa import raw_acc, raw_combine


# ----------------------------------------------------------------------
# C_m subspaces

@dataclass
class CmLevel:
    """Reduced spanning data of one level of C_m(M).

    ``pairs`` lists the ``(v_key, u_key)`` whose image ``v_{-m} u`` grew
    the span, in enumeration order: they are the pivot columns of the
    matrix of all spanning images, so their images are a basis of the
    level.
    """

    level: int
    dim: int
    rank: int
    span: RowSpan
    pairs: list

    @property
    def quotient_dim(self) -> int:
        return self.dim - self.rank


class CmSubspace:
    """Level-by-level realization of C_m(M) up to a certified depth."""

    def __init__(self, module, m: int, depth: int, levels: dict):
        self.module = module
        self.m = m
        self.depth = depth
        self.levels = levels

    @property
    def quotient_dims(self) -> list:
        return [self.levels[n].quotient_dim for n in range(self.depth + 1)]


def _certified_window(module, m: int) -> tuple:
    """The two level bounds of the C_m guard on ``module``: the highest
    level whose spanning set is complete, and the highest whose
    spanning weights the algebra enumerates."""
    voa = module.voa
    return module.depth - (voa.gen_weight + m - 1), voa.depth + m - 1


def _check_cm_guard(module, m: int, depth: int) -> None:
    if m < 1:
        raise InputShapeError("the mode shift m must be a positive integer")
    if depth < 0:
        raise InputShapeError("depth must be non-negative")
    voa = module.voa
    if voa is None:
        return  # the zero module has no spanning generators at all
    max_certified, max_enumerated = _certified_window(module, m)
    if depth > max_certified:
        raise TruncationError(
            f"C_{m} spanning sets are only complete up to level {max_certified} "
            f"at module depth {module.depth}; requested {depth}"
        )
    if depth > max_enumerated:
        raise TruncationError(
            f"algebra depth {voa.depth} cannot enumerate spanning weights up to "
            f"{depth - m + 1}"
        )


def cm_level(module, m: int, n: int) -> CmLevel:
    """Level n of C_m(M) and the spanning pairs that build it.

    Pairs ``(v, u)`` run by ascending ``wt(v)`` (the cheap low-weight
    words fill the span first), then by basis position; an image joins
    ``pairs`` exactly when it is independent of the earlier ones.  The
    enumeration stops once the span has rank ``dim M_(n)``.  This is
    exact: the rank cannot exceed the dimension, and the reduced echelon
    form of a full span is the identity whatever vectors built it, so
    ranks and ``span.rows()`` are unchanged.  No depth guard runs here.
    """
    dim_n = module.dim(n)
    span = RowSpan(dim_n)
    grew = []
    voa = module.voa
    if voa is not None:
        engine = engine_for(module)
        candidates = (
            (v_key, u_key)
            for wt in range(1, n - m + 2)
            for v_key in voa.keys(wt)
            for u_key in module.keys(n - wt - m + 1)
        )
        for v_key, u_key in candidates:
            if span.rank == dim_n:
                break
            # a row's scale leaves the span and its growth unchanged
            nums, _ = engine.apply_word(v_key, -m, u_key)
            if nums and span.add(module.coords(nums, n)):
                grew.append((v_key, u_key))
    return CmLevel(level=n, dim=dim_n, rank=span.rank, span=span, pairs=grew)


def build_cm(module, m: int, depth: int) -> CmSubspace:
    """Assemble C_m(M) spanning sets and their exact ranks per level.

    Each level is one :func:`cm_level`; the depth guard runs first, so
    no refusal is skipped.
    """
    _check_cm_guard(module, m, depth)
    levels = {n: cm_level(module, m, n) for n in range(depth + 1)}
    return CmSubspace(module, m, depth, levels)


def cm_quotient_dims(module, m: int, depth: int) -> list:
    """Exact dimensions of ``M_(n) / C_m(M)_(n)`` for n = 0..depth."""
    return build_cm(module, m, depth).quotient_dims


# ----------------------------------------------------------------------
# complements

@dataclass
class ComplementBasis:
    """A homogeneous complement of C_m(M) inside M, levels 0..N.

    Each ``labels[i] == (level, key)`` names the basis monomial chosen
    at that level; selection is the graded-lex earliest monomial whose
    class is new in ``M / (C_m + already chosen)``.  ``vectors`` is
    derived from the labels.  For ``m == 1`` ``c1_pairs[n]`` keeps level
    n's C_1 spanning pairs (``CmLevel.pairs``) for the correlator
    reduction; otherwise it is None.
    """

    module: object
    m: int
    depth: int
    window: int
    lowest_weight: object
    labels: list = field(default_factory=list)
    c1_pairs: dict | None = field(default=None, compare=False, repr=False)

    @property
    def vectors(self) -> list:
        return [GradedVector.basis_vector(self.module, key) for _, key in self.labels]

    def __len__(self):
        return len(self.labels)

    def describe_labels(self) -> list:
        return [
            {"level": level, "monomial": self.module.label(key)}
            for level, key in self.labels
        ]


def _greedy_level_complement(module, span: RowSpan, level: int, needed: int) -> list:
    """Earliest basis monomials completing ``span`` to the full level, in place."""
    if not needed:
        return []
    chosen = []
    for index, key in enumerate(module.keys(level)):
        if len(chosen) == needed:
            break
        if span.add({index: 1}):
            chosen.append(key)
    if len(chosen) != needed:
        raise InternalInvariantViolation(
            f"could not complete level {level}: found {len(chosen)} of {needed}"
        )
    return chosen


def _last_nonzero(dims: list):
    """The cofiniteness window of quotient dimensions ``dims``.

    The last level with a nonzero quotient, or -1 when there is none;
    None when the last level itself is nonzero, since then no trailing
    zero level shows the window has closed.
    """
    nonzero = [n for n, d in enumerate(dims) if d]
    if not nonzero:
        return -1
    return nonzero[-1] if nonzero[-1] < len(dims) - 1 else None


def choose_complement(module, depth: int, m: int = 1) -> ComplementBasis:
    """Deterministic complement basis with a verified trailing window.

    Requires the quotient dimensions to vanish on ``(N, depth]`` for
    some ``N < depth``; otherwise the module may genuinely fail to be
    C_m-cofinite and :class:`NotCofiniteUpToDepth` is raised.

    A direct sum takes the same path: C_m of a sum is the sum of the
    summands' C_m, level by level, and the sum lists each summand's keys
    in turn, so the greedy choice is each summand's own complement,
    embedded.
    """
    cm = build_cm(module, m, depth)
    dims = cm.quotient_dims
    window = _last_nonzero(dims)
    if window is None:
        raise NotCofiniteUpToDepth(
            f"quotient dimensions {dims} show no trailing zero window within "
            f"depth {depth}; not certified C_{m}-cofinite at this truncation"
        )
    return ComplementBasis(
        module=module,
        m=m,
        depth=depth,
        window=window,
        lowest_weight=module.lowest_weight,
        labels=[
            (n, key)
            for n in range(window + 1)
            for key in _greedy_level_complement(module, cm.levels[n].span, n, dims[n])
        ],
        c1_pairs={n: level.pairs for n, level in cm.levels.items()} if m == 1 else None,
    )


# ----------------------------------------------------------------------
# graded dimensions with the spanning certificate

@dataclass
class GradedDimReport:
    """Exact graded dimensions plus the per-level spanning certificate.

    ``certified[n]`` is True where the C_1 spanning set at level ``n``
    is complete, that is where the depth guard of :func:`build_cm`
    admits the level, so ``c1_ranks[n]`` and ``quotient_dims[n]`` are
    exact; levels beyond that bound carry None instead of a claim.
    """

    module: str
    depth: int
    dims: list
    c1_ranks: list
    quotient_dims: list
    certified: list
    window: int | None

    @property
    def certified_depth(self) -> int:
        """The highest certified level, or -1 when none is."""
        return self.certified.count(True) - 1


def graded_dims(module, depth: int) -> GradedDimReport:
    """Dimensions ``dim M_(n)`` for n = 0..depth, with certificates.

    Levels are certified up to the depth bound that the C_1 guard
    enforces, never past ``depth``.
    """
    if depth < 0:
        raise InputShapeError("depth must be non-negative")
    dims = [module.dim(n) for n in range(depth + 1)]
    c1_ranks: list = []
    quotient: list = []
    window = None
    if module.voa is not None:
        cert_depth = min(depth, *_certified_window(module, 1))
        if cert_depth >= 0:
            cm = build_cm(module, 1, cert_depth)
            c1_ranks = [cm.levels[n].rank for n in range(cert_depth + 1)]
            quotient = cm.quotient_dims
            window = _last_nonzero(quotient)
    pad = [None] * (depth + 1 - len(c1_ranks))
    return GradedDimReport(
        module=module.describe(),
        depth=depth,
        dims=dims,
        c1_ranks=c1_ranks + pad,
        quotient_dims=quotient + pad,
        certified=[True] * len(c1_ranks) + pad,
        window=window,
    )


# ----------------------------------------------------------------------
# nilpotency of L(0) - wt

@dataclass
class NilpotencyReport:
    """Per-level nilpotency orders of ``L(0) - wt`` on a realized module."""

    module: str
    depth: int
    per_level: list
    global_order: int


def nilpotency_report(module, depth: int | None = None) -> NilpotencyReport:
    """Verify ``L(0) = wt + nilpotent`` and report the orders.

    The realized modules here are all L(0)-semisimple, so the expected
    order is 1 at every level; a non-nilpotent defect would mean the
    realization is broken and raises.
    """
    if depth is None:
        depth = module.depth
    if depth > module.depth:
        raise TruncationError("nilpotency report beyond the realized depth")
    engine = engine_for(module) if module.voa is not None else None
    omega_raw = module.voa.omega_raw if module.voa is not None else {}
    per_level = []
    for n in range(depth + 1):
        dim_n = module.dim(n)
        if dim_n == 0:
            per_level.append(0)
            continue
        data = [{} for _ in range(dim_n)]
        for col, key in enumerate(module.keys(n)):
            image = {}
            for word, coeff in omega_raw.items():
                nums, den = engine.apply_word(word, 1, key)
                raw_combine(image, nums, coeff / den)
            # L(0) - wt: the weight comes off the diagonal entry
            raw_acc(image, key, -module.weight_of(key))
            for row, coeff in module.coords(image, n).items():
                data[row][col] = coeff
        nil = ExactMatrix(dim_n, dim_n, data)
        order = 1
        power = nil
        while any(power.data):
            order += 1
            if order > dim_n + 1:
                raise InternalInvariantViolation(
                    f"L(0) - wt is not nilpotent at level {n}"
                )
            power = power.matmul(nil)
        per_level.append(order)
    return NilpotencyReport(
        module=module.describe(),
        depth=depth,
        per_level=per_level,
        global_order=max((o for o in per_level if o), default=1),
    )


# ----------------------------------------------------------------------
# the log-power bound

@dataclass
class LogPowerBound:
    """Vanishing bounds for log-mode coefficients ``u_{(k,n)} w``."""

    orders: tuple
    coarse_bound: int
    sharp_bound: int


def _log_step(state: dict, step: int, orders: tuple) -> dict:
    """The state of log coefficient ``step + 1`` from that of ``step``."""
    nu, nw, nt = orders
    new: dict = {}
    inv = Q(1, step + 1)
    for (a, b, c), coeff in state.items():
        for da, db, dc, sign in ((1, 0, 0, -1), (0, 1, 0, 1), (0, 0, 1, 1)):
            a2, b2, c2 = a + da, b + db, c + dc
            if a2 >= nt or b2 >= nu or c2 >= nw:
                continue
            key = (a2, b2, c2)
            value = new.get(key, QZERO) + sign * inv * coeff
            if value:
                new[key] = value
            else:
                new.pop(key, None)
    return new


def _log_states(orders: tuple):
    """The states of log coefficients 0, 1, ..., up to the first empty one.

    The walk models ``(i+1) u_{(i+1,n)} w = -Nil_T(u_{(i,n)} w) +
    (Nil_U u)_{(i,n)} w + u_{(i,n)} (Nil_W w)`` with three commuting
    nilpotent decorations of orders ``(N_U, N_W, N_T)``.  A state is
    ``{(a, b, c): coefficient}`` over the surviving monomials
    ``Nil_T^a Nil_U^b Nil_W^c``; the empty state means the coefficient
    vanishes identically for every such module triple.  Each step raises
    the monomial degree a + b + c by one and every exponent stays below
    its order, so the walk ends after at most ``N_U + N_W + N_T - 2``
    steps.
    """
    state = {(0, 0, 0): QONE}
    step = 0
    while state:
        yield state
        state = _log_step(state, step, orders)
        step += 1
    yield state


def log_power_bound(n_u: int, n_w: int, n_t: int) -> LogPowerBound:
    """Both vanishing bounds obtained by iterating the log recursion.

    ``coarse_bound = 3 max`` is the coarse estimate; the iteration itself
    yields the first k with ``u_{(k,n)} w = 0`` for all compatible
    modules, which comes out as ``N_U + N_W + N_T - 2``.  The recursion
    is walked once, up to that first empty state.
    """
    if n_u < 1 or n_w < 1 or n_t < 1:
        raise InputShapeError("nilpotency orders must be positive integers")
    orders = (n_u, n_w, n_t)
    bound_guess = n_u + n_w + n_t - 2
    vanish = next(step for step, state in enumerate(_log_states(orders)) if not state)
    if vanish != bound_guess:
        raise InternalInvariantViolation(
            f"log recursion vanished at {vanish}, expected {bound_guess}"
        )
    return LogPowerBound(
        orders=orders,
        coarse_bound=3 * max(orders),
        sharp_bound=vanish,
    )
