"""Independent reference computations used as oracles by the tests.

Everything here is deliberately written against the engine's grain:
different algorithms, different data layouts, no imports from the
package internals beyond plain data.  A correlated bug between the
engine and these helpers would have to be independently implemented
twice.
"""

import itertools
from fractions import Fraction as Q
from functools import lru_cache

import sympy


# ----------------------------------------------------------------------
# counting and linear algebra oracles

@lru_cache(maxsize=None)
def partition_count(n: int, min_part: int = 1, max_part: int | None = None) -> int:
    """Number of partitions of ``n`` into parts between min_part and max_part."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    if max_part is None:
        max_part = n
    total = 0
    for largest in range(min_part, min(max_part, n) + 1):
        total += partition_count(n - largest, min_part, largest)
    return total


def sympy_rank(vectors) -> int:
    """Rank of a list of rational coordinate vectors via sympy."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return 0
    mat = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                         if isinstance(c, Q) else sympy.Rational(c)
                         for c in row] for row in vectors])
    return mat.rank()


def sympy_nullity(vectors) -> int:
    vectors = [list(v) for v in vectors]
    if not vectors:
        return 0
    return len(vectors[0]) - sympy_rank(vectors)


def fraction_gauss_jordan(rows: list, width: int) -> list:
    """Gauss-Jordan elimination in ``Fraction`` arithmetic, in place.

    ``rows`` are sparse ``{col: Fraction}`` dicts.  Each pivot row is
    scaled to a leading 1 as soon as it is chosen and cleared from every
    other row, so all intermediate entries are rationals; this is the
    engine's elimination before it moved to integer rows, kept as the
    oracle for :func:`vertexbound.linalg._eliminate`.  Same pivot rule:
    leftmost column, then the smallest surviving row index.  Returns
    ``[(row, col), ...]`` in elimination order.
    """
    pivots = []
    next_row = 0
    nrows = len(rows)
    for col in range(width):
        pivot_row = None
        for i in range(next_row, nrows):
            if rows[i].get(col):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[next_row], rows[pivot_row] = rows[pivot_row], rows[next_row]
        pivot = rows[next_row]
        inv = 1 / Q(pivot[col])
        if inv != 1:
            for j in list(pivot):
                pivot[j] *= inv
        for i in range(nrows):
            if i == next_row:
                continue
            factor = rows[i].get(col)
            if not factor:
                continue
            target = rows[i]
            for j, c in pivot.items():
                s = target.get(j, Q(0)) - factor * c
                if s:
                    target[j] = s
                else:
                    target.pop(j, None)
        pivots.append((next_row, col))
        next_row += 1
        if next_row == nrows:
            break
    return pivots


def full_column_solve(columns: list, rhs) -> list | None:
    """Solution of ``sum_j x_j columns[j] = rhs`` with free variables zero.

    ``columns`` are coordinate sequences of one length; the augmented
    matrix goes through :func:`fraction_gauss_jordan`, so the solution
    is supported on the pivot columns (the earliest independent ones).
    Returns None when the system is inconsistent.
    """
    width = len(columns)
    rows = [{j: Q(col[i]) for j, col in enumerate(columns) if col[i]}
            for i in range(len(rhs))]
    for i, value in enumerate(rhs):
        if value:
            rows[i][width] = Q(value)
    solution = [Q(0)] * width
    for row, col in fraction_gauss_jordan(rows, width + 1):
        if col == width:
            return None
        solution[col] = rows[row].get(width, Q(0))
    return solution


def dense_matmul(a: list, b: list, inner: int, cols: int) -> list:
    """Product of two dense row lists by the textbook triple sum, in Fractions.

    ``inner`` and ``cols`` give the shape when a factor has no rows.
    """
    return [[sum((Q(row[k]) * Q(b[k][j]) for k in range(inner)), Q(0)) for j in range(cols)]
            for row in a]


def dense_matvec(a: list, vec) -> tuple:
    """A dense row list times a coordinate vector, in Fractions."""
    return tuple(sum((Q(x) * Q(v) for x, v in zip(row, vec)), Q(0)) for row in a)


def sparse(vec) -> dict:
    """A dense vector as the ``{col: value}`` row that ``ExactMatrix`` and
    ``RowSpan`` take: nonzero entries only, values kept as given."""
    return {j: c for j, c in enumerate(vec) if c}


def dense(row: dict, width: int) -> tuple:
    """A ``{col: value}`` row as a dense tuple, values kept as given, zeros ``Fraction(0)``."""
    return tuple(row.get(j, Q(0)) for j in range(width))


# ----------------------------------------------------------------------
# free boson oracle: position-sum mode action on partition states

def osc_mode(n: int, state: dict, charge: Q) -> dict:
    """Apply the oscillator mode a(n) to a dict of partition states.

    Implemented as an explicit sum over positions of the commutator
    ``[a(n), a(-m)] = n delta_{n,m}`` pushed through the monomial, which
    is a different formulation from the engine's closed form.
    """
    out = {}
    for key, coeff in state.items():
        if n < 0:
            new = tuple(sorted(key + (-n,), reverse=True))
            out[new] = out.get(new, Q(0)) + coeff
        elif n == 0:
            if charge:
                out[key] = out.get(key, Q(0)) + coeff * charge
        else:
            for pos, part in enumerate(key):
                if part == n:
                    new = key[:pos] + key[pos + 1:]
                    out[new] = out.get(new, Q(0)) + coeff * n
    return {k: c for k, c in out.items() if c}


def sugawara_L(n: int, state: dict, charge: Q) -> dict:
    """Virasoro mode from the quadratic free-boson construction.

    ``L(n) = 1/2 sum_j :a(j) a(n-j):``; on a state of level ``l`` only
    finitely many ``j`` contribute, and normal ordering puts the larger
    index to the right.  Composed from :func:`osc_mode` only.
    """
    max_level = max((sum(k) for k in state), default=0)
    out = {}

    def _acc(part, factor):
        for k, c in part.items():
            s = out.get(k, Q(0)) + c * factor
            if s:
                out[k] = s
            else:
                out.pop(k, None)

    # j ranges so that the right factor can act nonzero somewhere
    for j in range(-max_level - abs(n) - 2, max_level + abs(n) + 3):
        first, second = (j, n - j) if j <= n - j else (n - j, j)
        mid = osc_mode(second, state, charge)
        if not mid:
            continue
        _acc(osc_mode(first, mid, charge), Q(1, 2))
    return out


def heisenberg_word_mode(word: tuple, k: int, key: tuple, charge: Q) -> dict:
    """Mode ``k`` of the state ``a(-n_1)...a(-n_r)|0>`` on one partition state.

    The vertex operator of that state is the normal-ordered product
    ``:d^(n_1-1) a(z) ... d^(n_r-1) a(z):`` with ``d^(m) = (d/dz)^m / m!``,
    and ``d^(n-1) a(z) = sum_j C(-j-1, n-1) a(j) z^(-j-n)``.  Mode ``k`` is
    the coefficient of ``z^(-k-1)``: a sum over integer tuples ``j`` with
    ``sum(j_i + n_i) = k + 1``, where the annihilators ``a(j)``, ``j >= 0``,
    act before the creators.  Composed from :func:`osc_mode` only, so it
    shares nothing with the engine's iterate expansion.
    """
    level = sum(key)
    target = level + sum(word) - k - 1
    if target < 0:
        return {}
    if not word:
        return {key: Q(1)} if k == -1 else {}
    # a creator a(j) raises the level by -j <= target; an annihilator
    # lowers it by j <= level
    choices = range(-target, level + 1)
    out = {}
    for head in itertools.product(choices, repeat=len(word) - 1):
        js = head + (k + 1 - sum(word) - sum(head),)
        if not -target <= js[-1] <= level:
            continue
        coeff = Q(1)
        for j, n in zip(js, word):
            coeff *= _binom(-j - 1, n - 1)
        if not coeff:
            continue
        state = {key: coeff}
        for j in sorted(js, reverse=True):
            state = osc_mode(j, state, charge)
            if not state:
                break
        for new, c in state.items():
            _acc_state(out, new, c)
    return out


def free_boson_exponential_coefficients(lam: Q, level: int) -> dict:
    """Coefficient of ``z^level`` in ``exp(lam sum_{n>=1} a(-n) z^n / n)``.

    Returns a dict mapping the creation partition to its rational
    coefficient: ``lam^len(pi) / prod(parts) / prod(mult!)``.
    """
    out = {}
    for pi in _partitions(level):
        weight = Q(1)
        for part in pi:
            weight /= part
        mults = {}
        for part in pi:
            mults[part] = mults.get(part, 0) + 1
        for m in mults.values():
            for t in range(2, m + 1):
                weight /= t
        out[pi] = lam ** len(pi) * weight
    return out


@lru_cache(maxsize=None)
def _partitions(n: int, largest: int | None = None) -> tuple:
    if n == 0:
        return ((),)
    if largest is None:
        largest = n
    out = []
    for first in range(min(largest, n), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def _apply_e_plus(states: dict, lam: Q, mu: Q) -> dict:
    """Expand exp(-lam sum_{j>=1} a(j) z^{-j} / j) on weighted states.

    ``states`` maps ``(partition, z_power)`` to a coefficient; the
    exponential terminates because each application lowers the level.
    """
    out = dict(states)
    current = states
    t = 0
    while current:
        t += 1
        nxt = {}
        for (key, zpow), coeff in current.items():
            for j in range(1, sum(key) + 1):
                for k2, c2 in osc_mode(j, {key: Q(1)}, mu).items():
                    tgt = (k2, zpow - j)
                    s = nxt.get(tgt, Q(0)) + coeff * c2 * (-lam) / j
                    if s:
                        nxt[tgt] = s
                    else:
                        nxt.pop(tgt, None)
        current = {k: c / t for k, c in nxt.items()}
        for k, c in current.items():
            s = out.get(k, Q(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def fock_top_correlator(p_raw: dict, lam: Q, q_raw: dict, mu: Q) -> dict:
    """Top matrix element of the charged free-boson vertex operator.

    Computes ``<top| Y(p, z) q> * z^{-lam*mu}`` for ``p`` over Fock(lam)
    and ``q`` over Fock(mu), as a dict of integer z-powers.  Uses the
    normal-ordered product of derivative fields

        Y(a(-n_1)...a(-n_k)|lam>, z)
            = :prod_i d^{n_i-1}a(z)/(n_i-1)! * Y(|lam>, z):

    and projects onto the lowest vector, which kills every creation
    factor; the surviving annihilation-mode coefficients are
    ``(-1)^{n-1} C(m+n-1, n-1) a(m) z^{-m-n}``.  No package code is
    involved beyond plain partitions.
    """
    from math import comb

    total = {}
    for p_key, p_coeff in p_raw.items():
        states = {}
        for q_key, q_coeff in q_raw.items():
            tgt = (q_key, 0)
            states[tgt] = states.get(tgt, Q(0)) + q_coeff
        states = _apply_e_plus(states, lam, mu)
        for n in p_key:
            nxt = {}
            for (key, zpow), coeff in states.items():
                for m in range(0, sum(key) + 1):
                    factor = (-1) ** (n - 1) * comb(m + n - 1, n - 1)
                    if not factor:
                        continue
                    for k2, c2 in osc_mode(m, {key: Q(1)}, mu).items():
                        tgt = (k2, zpow - m - n)
                        s = nxt.get(tgt, Q(0)) + coeff * c2 * factor
                        if s:
                            nxt[tgt] = s
                        else:
                            nxt.pop(tgt, None)
            states = nxt
        for (key, zpow), coeff in states.items():
            if key == ():
                s = total.get(zpow, Q(0)) + p_coeff * coeff
                if s:
                    total[zpow] = s
                else:
                    total.pop(zpow, None)
    return total


def _binom(n: int, k: int) -> Q:
    """C(n, k) for any integer n, as the falling factorial over k!."""
    out = Q(1)
    for t in range(k):
        out = out * (n - t) / (t + 1)
    return out


def _sign(e: int) -> int:
    """(-1)^e for any integer e, as an int (``(-1) ** e`` is a float for e < 0)."""
    return -1 if e % 2 else 1


def _acc_state(out: dict, key, value) -> None:
    s = out.get(key, Q(0)) + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def fock_vertex_coefficients(u_key, w_key, lam: Q, mu: Q, cap: int) -> dict:
    """Every coefficient of the charged free-boson vertex operator up to ``cap``.

    Returns ``{level: {partition: coefficient}}`` for
    ``Y(a(-u)|lam>, z) a(-w)|mu>`` in Fock(lam + mu), the level-``t``
    part multiplying ``z^(lam*mu + t - |u| - |w|)``.  Expands the
    normal-ordered product

        exp(lam sum a(-t) z^t / t) :prod_i d^{n_i-1}a(z)/(n_i-1)!:
            exp(-lam sum a(j) z^-j / j)

    term by term.  Each factor of u is split into annihilating modes
    a(k), k >= 0, and creating modes a(k), k < 0, both with coefficient
    C(-k-1, n-1) z^(-k-n); for every choice of halves the annihilating
    modes act first, then the creating ones, then the creating
    exponential from :func:`free_boson_exponential_coefficients`.  No
    step removes a created part, so states above ``cap`` are dropped as
    soon as they appear.  Equal factors of u are not grouped.
    """
    from itertools import product

    lu, lw = sum(u_key), sum(w_key)
    creating = {s: free_boson_exponential_coefficients(lam, s) for s in range(cap + 1)}
    start = _apply_e_plus({(tuple(w_key), 0): Q(1)}, lam, mu)
    ordered = {}
    for halves in product((True, False), repeat=len(u_key)):
        states = start
        factors = [(n, True) for n, ann in zip(u_key, halves) if ann]
        factors += [(n, False) for n, ann in zip(u_key, halves) if not ann]
        for n, ann in factors:
            modes = range(0, lw + 1) if ann else range(-cap, 0)
            image = {}
            for (key, zpow), coeff in states.items():
                for k in modes:
                    factor = _binom(-k - 1, n - 1)
                    if not factor:
                        continue
                    for k2, c2 in osc_mode(k, {key: Q(1)}, mu).items():
                        if sum(k2) <= cap:
                            _acc_state(image, (k2, zpow - k - n), coeff * c2 * factor)
            states = image
        for state, coeff in states.items():
            _acc_state(ordered, state, coeff)
    total = {}
    for (key, zpow), coeff in ordered.items():
        for s, terms in creating.items():
            for pi, c in terms.items():
                merged = tuple(sorted(key + pi, reverse=True))
                level = sum(merged)
                if level > cap:
                    continue
                assert zpow + s == level - lu - lw, "z-grading lost"
                _acc_state(total.setdefault(level, {}), merged, coeff * c)
    return {level: raw for level, raw in total.items() if raw}


def commutator_defect(data, u_key, w_key, mode: int, final_level: int, j: int = 0):
    """Defect of the transported commutator identity, or None.

    Checks, at one output level of the intertwiner datum ``data``, that

        g_n (u_{(j,m)} w) - u_{(j,m)} (g_n w)
            = sum_i C(n, i) (g_i u)_{(j, n+m-i)} w

    for the algebra generator g.  Returns the difference as a vector in
    the target, or None when truncation clips any contributor.  Only the
    datum's ``images``/``mode_index`` (through :func:`series_vector` and
    :func:`mode_image`) and the engine's ``mode_action`` are used.
    """
    from vertexbound.modes import GradedVector, mode_action

    gw = data.target.voa.gen_weight
    inner_level = final_level + 1 + mode - gw
    if not (0 <= inner_level <= data.depth) or final_level > data.depth:
        return None
    u_vec = GradedVector.basis_vector(data.source_left, u_key)
    w_vec = GradedVector.basis_vector(data.source_right, w_key)
    m = data.mode_index(u_key, w_key, inner_level)
    g = GradedVector(data.target.voa, data.target.voa.generator_raw)
    lhs = mode_action(g, mode, series_vector(data, (u_key, w_key, j), inner_level))
    swapped = mode_image(data, u_vec, mode_action(g, mode, w_vec), j, m)
    rhs = GradedVector.zero(data.target)
    for i in range(0, data.source_left.level_of(u_key) + gw):
        c = _binom(mode, i)
        if not c:
            continue
        gu = mode_action(g, i, u_vec)
        if gu.truncated:
            return None
        if gu.is_zero():
            continue
        rhs = rhs + mode_image(data, gu, w_vec, j, mode + m - i).scale(c)
    defect = lhs - swapped - rhs
    if defect.truncated:
        return None
    return defect


# ----------------------------------------------------------------------
# intertwiner data read through ``images`` alone

def series_vector(data, skey, level: int):
    """The level-``level`` image of the series key ``skey``, as a target vector."""
    from vertexbound.modes import GradedVector

    coords = data.images(skey).get(level, ())
    return GradedVector(data.target, dict(zip(data.target.keys(level), coords)))


def mode_image(data, u, w, j: int, m):
    """The mode image ``u_{(j,m)} w`` for graded vectors u in U and w in W.

    Summed over the basis pairs of u and w: a pair's image sits at the
    weight slot ``mode_index(u_key, w_key, 0) - m`` of the target.  A slot
    past the truncation depth is dropped and flags the result; a negative
    or non-integral slot is genuinely zero.
    """
    from vertexbound.modes import GradedVector

    m = Q(m)
    truncated = u.truncated or w.truncated
    raw = {}
    for u_key, cu in u.to_raw().items():
        for w_key, cw in w.to_raw().items():
            slot = data.mode_index(u_key, w_key, 0) - m
            if slot.denominator != 1 or slot < 0:
                continue
            if slot > data.depth:
                truncated = True
                continue
            level = int(slot)
            coords = data.images((u_key, w_key, j)).get(level, ())
            for key, c in zip(data.target.keys(level), coords):
                raw[key] = raw.get(key, Q(0)) + cu * cw * c
    return GradedVector(data.target, raw, truncated)


def correlator(data, theta: dict, u_key, w_key, j: int = 0) -> dict:
    """``<theta, Y(u, z) w>`` for basis keys u, w, as ``{z-power: Fraction}``.

    ``theta`` maps a target level to one coefficient per basis vector.
    Powers are relative to z^(h_T - h_U - h_W): the level-t image of a
    pair at source levels (lu, lw) lands on z^(t - lu - lw).  Zero
    coefficients are left out, as in :func:`fock_top_correlator`.
    """
    base = data.source_left.level_of(u_key) + data.source_right.level_of(w_key)
    out = {}
    for level, coords in data.images((u_key, w_key, j)).items():
        value = sum((c * Q(d) for c, d in zip(coords, theta.get(level, ()))), Q(0))
        if value:
            out[level - base] = value
    return out


def surjective(data) -> bool:
    """True when the images of ``data`` span every target level up to its
    depth, each level's coordinate rows eliminated by
    :func:`fraction_gauss_jordan`."""
    for n in range(data.depth + 1):
        rows = [sparse(images[n]) for images in map(data.images, data.series) if n in images]
        if len(fraction_gauss_jordan(rows, data.target.dim(n))) != data.target.dim(n):
            return False
    return True


def _dense_block(block) -> list:
    """An ``ExactMatrix`` block read entry by entry into dense rows."""
    return [[block.entry(r, c) for c in range(block.cols)] for r in range(block.rows)]


def witness_holds(witness) -> bool:
    """Recheck f . Y_upper = Y_lower on every coefficient either datum records.

    A zero witness (``shift`` None) holds when every lower coefficient
    vanishes.  Otherwise the level-n images of each series key under the
    upper datum, mapped by block n, must equal its level n + shift images
    under the lower one, wherever both levels lie inside the truncations;
    a missing block is the zero map.
    """
    low, up, shift = witness.lower, witness.upper, witness.shift
    if shift is None:
        return all(not any(coords) for skey in low.series for coords in low.images(skey).values())
    blocks = {n: _dense_block(block) for n, block in witness.blocks.items()}
    for skey in set(up.series) | set(low.series):
        up_entry, low_entry = up.images(skey), low.images(skey)
        for t in {n + shift for n in up_entry} | set(low_entry):
            n = t - shift
            if not (0 <= t <= low.depth and 0 <= n <= up.depth):
                continue
            zero = (Q(0),) * low.target.dim(t)
            have = up_entry.get(n)
            image = dense_matvec(blocks[n], have) if have and n in blocks else zero
            if image != tuple(low_entry.get(t) or zero):
                return False
    return True


def apply_witness(witness, vec):
    """The witness map on a vector of the upper target, level by level.

    A level without a block maps to zero, and flags the result when
    level + shift lies past the lower target's depth.
    """
    from vertexbound.modes import GradedVector

    assert vec.module is witness.upper.target, "the witness maps the upper target"
    low = witness.lower.target
    truncated = vec.truncated
    raw = {}
    for n in vec.levels():
        block = witness.blocks.get(n)
        if block is None:
            if witness.shift is not None and n + witness.shift > low.depth:
                truncated = True
            continue
        image = dense_matvec(_dense_block(block), vec.coords_at(n))
        raw.update(zip(low.keys(n + witness.shift), image))
    return GradedVector(low, raw, truncated)


# ----------------------------------------------------------------------
# the mode engine's iterate expansion on Fraction values

def fraction_apply_word(module, v_word, k, w_key, memo: dict) -> dict:
    """``v_k w`` as ``{key: Fraction}``, by the iterate expansion

        (g_j u)_k w = sum_i C(j, i) (-1)^i [g_{j-i} (u_{k+i} w) - (-1)^j u_{j+k-i} (g_i w)]

    on the realization's own ``apply_gen`` images, read afresh at every
    use, with every sum in ``Fraction``s.  ``memo`` caches by
    ``(v_word, k, w_key)``, as the engine does.
    """
    found = memo.get((v_word, k, w_key))
    if found is not None:
        return found
    out = {}
    if not v_word:
        if k == -1:
            out[w_key] = Q(1)
    else:
        gw = module.voa.gen_weight
        rest = v_word[1:]
        j = -v_word[0] if gw == 1 else 1 - v_word[0]
        w_level = module.level_of(w_key)
        for i in range(w_level + sum(rest) - k):
            coeff = _sign(i) * _binom(j, i)
            for mid_key, mid in fraction_apply_word(module, rest, k + i, w_key, memo).items():
                _combine_state(out, module.apply_gen(j - i, mid_key), coeff * mid)
        for i in range(w_level + gw):
            coeff = -_sign(j + i) * _binom(j, i)
            for mid_key, mid in module.apply_gen(i, w_key).items():
                _combine_state(out, fraction_apply_word(module, rest, j + k - i, mid_key, memo),
                               coeff * mid)
    memo[(v_word, k, w_key)] = out
    return out


# ----------------------------------------------------------------------
# the identity suite's defects, every composition built afresh

def _combine_state(out: dict, raw: dict, factor) -> None:
    for key, value in raw.items():
        _acc_state(out, key, factor * value)


def word_values(engine, v_word, k, w_key) -> dict:
    """The engine's ``v_k w`` read as ``Fraction`` values: ``nums / den``."""
    nums, den = engine.apply_word(v_word, k, w_key)
    return {key: Q(c, den) for key, c in nums.items()}


def _compose(engine, a_word, p, b_word, q, w_key) -> dict:
    """``a_p (b_q w)`` through the engine's one-mode images, with no table."""
    out = {}
    for mid_key, mid_coeff in word_values(engine, b_word, q, w_key).items():
        _combine_state(out, word_values(engine, a_word, p, mid_key), mid_coeff)
    return out


def raw_commutator_defect(adjoint, engine, v1_word, v2_word, n, m, w_key) -> dict:
    """lhs - rhs of the commutator identity

        v1_n v2_m w - v2_m v1_n w = sum_i C(n, i) (v1_i v2)_{n+m-i} w

    with both compositions built afresh; {} means it holds.  ``engine``
    and ``adjoint`` are the mode engines of the module and the algebra.
    """
    defect = _compose(engine, v1_word, n, v2_word, m, w_key)
    _combine_state(defect, _compose(engine, v2_word, m, v1_word, n, w_key), -1)
    for i in range(sum(v1_word) + sum(v2_word)):
        for p_key, p_coeff in word_values(adjoint, v1_word, i, v2_word).items():
            _combine_state(defect, word_values(engine, p_key, n + m - i, w_key),
                           -_binom(n, i) * p_coeff)
    return defect


def raw_associativity_defect(adjoint, engine, v1_word, v2_word, n, m, w_key, w_level) -> dict:
    """lhs - rhs of the iterate identity

        (v1_n v2)_m w = sum_i (-1)^i C(n, i) (v1_{n-i} v2_{m+i} w
                                              - (-1)^n v2_{n+m-i} v1_i w)

    with every composition built afresh; {} means it holds.  The sums
    stop where ``v2_{m+i} w`` and ``v1_i w`` vanish for level reasons.
    """
    defect = {}
    for p_key, p_coeff in word_values(adjoint, v1_word, n, v2_word).items():
        _combine_state(defect, word_values(engine, p_key, m, w_key), p_coeff)
    for i in range(w_level + sum(v2_word) - m):
        _combine_state(defect, _compose(engine, v1_word, n - i, v2_word, m + i, w_key),
                       -_sign(i) * _binom(n, i))
    for i in range(w_level + sum(v1_word)):
        _combine_state(defect, _compose(engine, v2_word, n + m - i, v1_word, i, w_key),
                       _sign(n + i) * _binom(n, i))
    return defect


def identity_triple_failures(module):
    """The suite's commutator and iterate checks over every ``(v1, v2, w)``,
    each defect from the untabulated kernels above.

    Enumerates the same triples and guarded mode pairs, in the same order,
    as ``modes.run_identity_suite``; returns ``(failures, commutator
    count, associativity count)`` with every failure, none cut off.
    """
    from vertexbound.modes import engine_for

    voa = module.voa
    engine, adjoint = engine_for(module), engine_for(voa)
    depth, voa_depth = module.depth, voa.depth
    failures, counts = [], {"commutator": 0, "associativity": 0}
    for w1 in range(voa_depth + 1):
        for w2 in range(min(voa_depth + 1, voa_depth + 2 - w1)):
            for v1_word, v2_word in itertools.product(voa.keys(w1), voa.keys(w2)):
                for w_level in range(depth + 1):
                    for w_key in module.keys(w_level):
                        m_range = range(w_level + w2 - 1 - depth, w_level + w2)
                        cases = [("commutator", n, m) for m in m_range
                                 for n in range(w_level + w1 - 1 - depth, w_level + w1)]
                        if w_level + w1 - 1 <= depth:
                            cases += [("associativity", n, m) for m in m_range
                                      for n in range(w1 + w2 - 1 - voa_depth, w1 + w2)]
                        for kind, n, m in cases:
                            if not 0 <= w_level + w1 + w2 - n - m - 2 <= depth:
                                continue
                            counts[kind] += 1
                            if kind == "commutator":
                                defect = raw_commutator_defect(
                                    adjoint, engine, v1_word, v2_word, n, m, w_key)
                            else:
                                defect = raw_associativity_defect(
                                    adjoint, engine, v1_word, v2_word, n, m, w_key, w_level)
                            if defect:
                                failures.append((kind, voa.label(v1_word), voa.label(v2_word),
                                                 n, m, module.label(w_key)))
    return failures, counts["commutator"], counts["associativity"]


# ----------------------------------------------------------------------
# the order witness, one full solve per direction

def _dict_matmul(a: dict, b: dict) -> dict:
    """Product of two sparse ``{(row, col): value}`` matrices, zeros dropped."""
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k2 == k:
                out[(i, j)] = out.get((i, j), 0) + x * y
    return {key: v for key, v in out.items() if v}


def dense_coords(module, raw: dict, level: int) -> tuple:
    """Coordinates of a raw element over ``module.keys(level)``, found by a
    search of the key list; a key not at ``level`` fails an assertion."""
    keys = list(module.keys(level))
    vec = [Q(0)] * len(keys)
    for key, coeff in raw.items():
        assert key in keys, f"{key!r} is not a basis key of level {level}"
        vec[keys.index(key)] += coeff
    return tuple(vec)


def _generator_matrix(module, k: int, src: int, dst: int) -> dict:
    """The generator mode k from level src to level dst, as a sparse dict."""
    out = {}
    for c, key in enumerate(module.keys(src)):
        raw = module.apply_gen(k, key)
        if raw:
            for r, value in enumerate(dense_coords(module, raw, dst)):
                if value:
                    out[(r, c)] = value
    return out


def per_direction_witness(lower, upper):
    """The module map f with f . Y_upper = Y_lower, solved for one direction alone.

    Nothing is shared with the reverse direction: every series key with
    a nonzero upper coefficient at level n gives the row
    ``[c_up | c_low]``, and that whole stack goes through
    :func:`fraction_gauss_jordan`.  A pivot
    among the lower columns means no witness; fewer pivots than the
    upper dimension (on a level that never rules the witness out) raise
    ``InternalInvariantViolation``.  Commutation with the generator
    modes is checked with plain dict matrices.  Returns a
    ``PairOrderWitness`` or None.
    """
    from vertexbound.errors import InternalInvariantViolation
    from vertexbound.fusion import PairOrderWitness
    from vertexbound.linalg import ExactMatrix
    from vertexbound.voa import LevelCapExceeded

    low_t, up_t = lower.target, upper.target

    def zero_map_or_none():
        if all(not any(c) for skey in lower.series for c in lower.images(skey).values()):
            return PairOrderWitness(lower=lower, upper=upper, shift=None, blocks={})
        return None

    if not any(up_t.dim(n) for n in range(upper.depth + 1)):
        return zero_map_or_none()
    shift = up_t.lowest_weight - low_t.lowest_weight
    if shift.denominator != 1:
        return zero_map_or_none()
    shift = int(shift)

    for skey in lower.series:
        low_entry, up_entry = lower.images(skey), upper.images(skey)
        for t, coords1 in low_entry.items():
            n = t - shift
            if not (0 <= t <= low_t.depth) or n > upper.depth or not any(coords1):
                continue
            coords2 = up_entry.get(n) if n >= 0 else None
            if not coords2 or not any(coords2):
                return None

    blocks = {}
    deficient = None
    for n in range(upper.depth + 1):
        t = n + shift
        if not (up_t.dim(n) and 0 <= t <= low_t.depth and low_t.dim(t)):
            continue
        d1, d2 = low_t.dim(t), up_t.dim(n)
        rows = []
        for skey in upper.series:
            coords2 = upper.images(skey).get(n)
            if coords2 and any(coords2):
                coords1 = lower.images(skey).get(t) or (0,) * d1
                rows.append({j: Q(c) for j, c in enumerate(tuple(coords2) + tuple(coords1)) if c})
        pivots = fraction_gauss_jordan(rows, d1 + d2)
        if any(col >= d2 for _, col in pivots):
            return None
        if len(pivots) < d2:
            if deficient is None:
                deficient = (n, len(pivots), d2)
            continue
        entries = {
            (j - d2, col): value
            for i, col in pivots
            for j, value in rows[i].items()
            if j >= d2
        }
        if entries:
            blocks[n] = entries
    if deficient is not None:
        n, rank, dim = deficient
        raise InternalInvariantViolation(
            f"order witness is not unique: the upper coefficients at level {n}"
            f" have rank {rank} < {dim}; the inputs are not surjective"
        )

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
                    m_up = _generator_matrix(up_t, k, n, n2)
                except LevelCapExceeded:
                    continue
                lhs = _dict_matmul(blocks[n2], m_up) if n2 in blocks else {}
                rhs = {}
                if n in blocks:
                    rhs = _dict_matmul(_generator_matrix(low_t, k, t, t2), blocks[n])
                if lhs != rhs:
                    return None
    return PairOrderWitness(
        lower=lower, upper=upper, shift=shift,
        blocks={
            n: ExactMatrix(low_t.dim(n + shift), up_t.dim(n), [
                sparse([entries.get((i, j), Q(0)) for j in range(up_t.dim(n))])
                for i in range(low_t.dim(n + shift))])
            for n, entries in blocks.items()
        },
    )


def materialized_twist(data, c):
    """``data.scale(c)`` stored the plain way: every coordinate a ``Fraction``.

    Each stored numerator x becomes ``c * factor * x`` and the factor is
    1, so joins and comparisons eliminate the scaled coefficients
    themselves.  Reports must not tell the two representations apart.
    """
    from vertexbound.fusion import IntertwinerData

    scalar = Q(c) * data.factor
    series = {
        skey: {level: tuple(scalar * x for x in coords) for level, coords in images.items()}
        for skey, images in data.series.items()
    }
    return IntertwinerData(
        data.source_left, data.source_right, data.target, data.depth, data.j_max, series,
    )


def scaled_join_series(joined, factors) -> dict:
    """The series of ``joined = join(*factors)``, read by scaling and reducing.

    At each level, every series key's paired row (each factor's images,
    its factor applied, side by side) is reduced as ``Fraction``s against
    the joined level span with ``RowSpan.reduce``.  It must leave no
    residual (``AssertionError`` otherwise), and its coordinates are its
    entries at the span's pivot columns; all-zero coordinates are left out.
    """
    factors = [p for p in factors if any(p.target.dim(n) for n in range(p.depth + 1))]
    series = {}
    for n in range(joined.depth + 1):
        span = joined.target.spans[n]
        for skey in dict.fromkeys(k for p in factors for k in p.series):
            row = [c for p in factors
                   for c in p.images(skey).get(n) or (Q(0),) * p.target.dim(n)]
            if not any(row):
                continue
            assert not span.reduce(sparse(row)), f"paired row of {skey} at level {n} is outside the span"
            coords = tuple(row[col] for col in span.pivot_columns())
            if any(coords):
                series.setdefault(skey, {})[n] = coords
    return series


# ----------------------------------------------------------------------
# correlator rewriting by the two moves, recursed plainly

def plain_correlator_reduction(p, q, split_left, split_right, act, level) -> dict:
    """Rewrite ``<theta, Y(p,z) q>`` by the left and right moves alone.

    No memo and no table: every step recurses on the vectors it was
    given, as the moves are stated.  The caller supplies the primitives:

    * ``split_left(p)`` and ``split_right(q)`` return ``(pairs,
      complement)`` with ``x = sum v_{-1} a + sum alpha * x_i``, where
      ``pairs`` is ``[(v, a)]`` and ``complement`` is ``[(i, alpha, x_i)]``;
    * ``act(v, n, w)`` is the mode action ``v_n w``, or None when zero;
    * ``level(x)`` is the weight of a homogeneous vector.

    Returns ``{(i, j): {power: coefficient}}`` with zeros dropped.
    """
    def add(target, source, shift, scale):
        for key, poly in source.items():
            slot = target.setdefault(key, {})
            for power, c in poly.items():
                value = slot.get(power + shift, 0) + scale * c
                if value:
                    slot[power + shift] = value
                else:
                    slot.pop(power + shift, None)
            if not slot:
                del target[key]

    def rewrite(p, q):
        out = {}
        pairs, complement = split_left(p)
        for v, a in pairs:
            # left move: z^{-h-1} <theta, Y(a,z) v_h q>, h >= 0
            for h in range(level(v) + level(q)):
                vq = act(v, h, q)
                if vq is not None:
                    add(out, rewrite(a, vq), -h - 1, 1)
        for i, alpha, p_i in complement:
            add(out, rewrite_right(i, p_i, q), 0, alpha)
        return out

    def rewrite_right(i, p_i, q):
        out = {}
        pairs, complement = split_right(q)
        for v, b in pairs:
            # right move: (-1)^{m+1} z^{-1-m} <theta, Y(v_m p^i, z) b>, m >= 0
            for m in range(level(v) + level(p_i)):
                vp = act(v, m, p_i)
                if vp is not None:
                    add(out, rewrite(vp, b), -1 - m, (-1) ** (m + 1))
        for j, beta, _ in complement:
            add(out, {(i, j): {0: 1}}, 0, beta)
        return out

    return rewrite(p, q)


# ----------------------------------------------------------------------
# frozen Virasoro values (hand-computed from the bracket
# [L(m), L(n)] = (m-n) L(m+n) + c/12 (m^3 - m) delta_{m+n,0})

def virasoro_frozen_cases(c: Q, h: Q) -> list:
    """Hand-derived single-mode actions on low Verma monomials.

    Each case is ``(mode n, source partition, expected dict)`` with the
    expected element given over partition keys.
    """
    return [
        # L(1) L(-1)|h> = 2h |h>
        (1, (1,), {(): 2 * h}),
        # L(2) L(-2)|h> = (4h + c/2)|h>
        (2, (2,), {(): 4 * h + c / 2}),
        # L(1) L(-2)|h> = 3 L(-1)|h>
        (1, (2,), {(1,): Q(3)}),
        # L(2) L(-1)L(-1)|h> = 6h |h>
        (2, (1, 1), {(): 6 * h}),
        # L(1) L(-1)L(-1)|h> = (4h + 2) L(-1)|h>
        (1, (1, 1), {(1,): 4 * h + 2}),
        # L(-1) L(-1)|h> = L(-1)^2|h>
        (-1, (1,), {(1, 1): Q(1)}),
        # L(0) L(-2)L(-1)|h> = (h + 3) L(-2)L(-1)|h>
        (0, (2, 1), {(2, 1): h + 3}),
        # L(2) L(-3)|h> = 5 L(-1)|h>
        (2, (3,), {(1,): Q(5)}),
        # L(3) L(-3)|h> = (6h + 2c)|h>
        (3, (3,), {(): 6 * h + 2 * c}),
        # L(1) L(-3)|h> = 4 L(-2)|h>
        (1, (3,), {(2,): Q(4)}),
        # L(2) L(-2)L(-1)|h> = (4h + c/2) L(-1)|h> + 3 L(-1)L(-1)... careful:
        # L(2)L(-2)L(-1) = L(-2)L(2)L(-1) + 4L(0)L(-1) + c/2 L(-1)
        #   L(2)L(-1)|h> = 3L(1)|h> = 0, so
        # = 4 (h+1) L(-1)|h> + c/2 L(-1)|h>
        (2, (2, 1), {(1,): 4 * (h + 1) + c / 2}),
    ]


def shapovalov_level2(c: Q, h: Q):
    """Level-two Gram matrix in the basis (L(-1)^2|h>, L(-2)|h>).

    Standard entries: <11|11> = 4h(2h+1), <11|2> = 6h, <2|2> = 4h + c/2.
    """
    return [
        [4 * h * (2 * h + 1), 6 * h],
        [6 * h, 4 * h + c / 2],
    ]


def level2_singular_charge(h: Q) -> Q:
    """Central charge making the level-two vector singular at weight h."""
    return 2 * h * (5 - 8 * h) / (2 * h + 1)
