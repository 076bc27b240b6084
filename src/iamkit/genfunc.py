"""Matrix statistics and the (q, t) generating-function identity.

For a maximal I_k-avoiding matrix M:

* v(M)   sums, over the zeros, the number of ones further down the diagonal;
* v_d(M) is the same sum restricted to zeros on the main diagonal;
* d_s(M) reads, off path s of the matrix (bottom path first, transposing
  first when m > n), the number of zeros up-diagonal of its main-diagonal
  point.

The weighted sum of q^v t^(v_d) times a Pochhammer correction over all
maximal matrices equals a closed triple product; both sides are evaluated
exactly at rational points.  Setting t = 1 collapses the weight to q^v and
the identity becomes a polynomial one, handled by QPoly below.

The sums over the matrices (`gf_lhs`, `volume_gf`) list none: they run
forward over the row search of `oracle_count`, on the narrow side (v, v_d
and the diagonal read top down are transpose-invariant), and weigh each
successor row by its share of the statistics (`_row_shares`).  A one at
(i, j) counts the zeros strictly up-diagonal of it, min(i, j) - 1 less the
ones the rows above hold on its level j - i, and that count is A(j-1), the
chain the rows above end at or left of column j-1, read off the row
state's thresholds (Fact E of the row-search notes).  A one at (i, i)
with o ones above it on the diagonal is path s = k-1-o's point there,
with d_s = i-1-o, and v_d = d_1 + ... + d_{k-1}, so its row also takes
that path's factor.  The per-matrix statistics below (`stat_record`,
`weight_at`) are the twin.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, zip_longest
from operator import mul

from .bijection import _check_box, _require_maximal
from .core import (
    DEFAULT_SEED,
    VerificationError,
    _Record,
    _profile,
    _transpose_masks,
    check_budget,
    check_mnk,
    diag_ones_below,
    diag_zeros_above,
)
from .oracle import _rect_search


# ---------------------------------------------------------------------------
# statistics


def stat_v_cell(M, i, j):
    """Ones strictly down-diagonal of the zero at (i, j)."""
    if M.entry(i, j) != 0:
        raise ValueError("(%d, %d) is not a zero" % (i, j))
    return diag_ones_below(M, i, j)


def stat_v(M):
    """Sum of `stat_v_cell` over the zeros, by shifting masks: a zero of
    row i with a one d steps down its diagonal is a bit of
    ~mask_i & (mask_{i+d} << d)."""
    masks = M.masks
    full = (1 << M.n) - 1
    total = 0
    for i, mk in enumerate(masks):
        zeros = ~mk & full
        for d, below in enumerate(masks[i + 1:], start=1):
            total += (zeros & (below << d)).bit_count()
    return total


def _diagonal(masks, n):
    """Entries (1, 1), (2, 2), ... of the main diagonal, top down."""
    return [(mk >> (n - i)) & 1
            for i, mk in enumerate(masks[:n], start=1)]


def stat_vd(M):
    """Sum of `stat_v_cell` over the zeros on the main diagonal."""
    total = ones = 0
    for bit in reversed(_diagonal(M.masks, M.n)):
        if bit:
            ones += 1
        else:
            total += ones  # a zero on the diagonal, with `ones` below it
    return total


def stat_w_cell(M, i, j):
    """Zeros strictly up-diagonal of the one at (i, j)."""
    if M.entry(i, j) != 1:
        raise ValueError("(%d, %d) is not a one" % (i, j))
    return diag_zeros_above(M, i, j)


def stat_d(M, k):
    """The tuple (d_1, ..., d_{k-1}) of up-diagonal zero counts at the
    main-diagonal points of the paths, bottom path first.  Matrices with
    m > n are transposed first so the diagonal crosses every path.

    The diagonal is the level m-1 of `matrix_to_paths`, inside its path
    window, so its ones are exactly the paths' points there, and path s
    meets it at its s-th lowest one: the points are read straight off the
    diagonal, and no path family is built.
    """
    m, n, masks = M.m, M.n, M.masks
    check_mnk(m, n, k)
    _require_maximal(M, k)  # the transpose is maximal exactly when M is
    if m > n:
        masks, n = _transpose_masks(masks, m, n), m
    out = []
    zeros = 0  # zeros at (1, 1) .. (i-1, i-1)
    for bit in _diagonal(masks, n):
        if bit:
            out.append(zeros)
        else:
            zeros += 1
    if len(out) != k - 1:
        raise VerificationError("the diagonal holds %d ones, expected %d"
                                % (len(out), k - 1))
    return tuple(reversed(out))


class StatRecord(_Record):
    """All statistics of one matrix in a single bundle."""

    __slots__ = ("v", "v_d", "d")

    def __init__(self, v, v_d, d):
        self._set(v, v_d, d)


def stat_record(M, k):
    return StatRecord(v=stat_v(M), v_d=stat_vd(M), d=stat_d(M, k))


# ---------------------------------------------------------------------------
# exact weights


def _qpochhammer(x, q, r):
    """(x; q)_r = prod_{s=0}^{r-1} (1 - x q^s), exactly."""
    out = Fraction(1)
    p = Fraction(x)
    for _ in range(r):
        out *= 1 - p
        p *= q
    return out


def _exact(x):
    """x as a Fraction, when it is an int (not a bool) or a Fraction;
    ValueError otherwise, so no sum runs on binary floats."""
    if type(x) is not int and type(x) is not Fraction:
        raise ValueError("q and t must be integers or Fractions, got %r"
                         % (x,))
    return Fraction(x)


def _ratio(s, d, k, q, t):
    """(q^{k-s}; q)_d / (t q^{k-s}; q)_d, exactly.  Raises ValueError when
    the denominator vanishes; nothing is ever divided through silently."""
    den = _qpochhammer(t * q ** (k - s), q, d)
    if den == 0:
        raise ValueError("vanishing Pochhammer denominator at s=%d" % s)
    return _qpochhammer(q ** (k - s), q, d) / den


def weight_at(M, k, q, t):
    """The matrix weight q^v t^(v_d) * prod_s (q^{k-s}; q)_{d_s} /
    (t q^{k-s}; q)_{d_s} evaluated at exact rationals, from the matrix's
    own statistics: the twin of the row weights of `gf_lhs`.

    q and t must be ints or Fractions.  Raises ValueError when a Pochhammer
    denominator vanishes.
    """
    q, t = _exact(q), _exact(t)
    rec = stat_record(M, k)
    out = q ** rec.v * t ** rec.v_d
    for s, d in enumerate(rec.d, start=1):
        out *= _ratio(s, d, k, q, t)
    return out


def _row_shares(m, n, k, budget):
    """The steps of the forward sum over the maximal m x n matrices, one
    list per row: for each state after the rows above, (its thresholds,
    its successor rows), each row as (next thresholds, e, diagonal).  e is
    the row's share of v, and diagonal is (s, d_s) when the row's one on
    the main diagonal is the point of path s there, else None.

    The sum runs on the narrow side (`oracle._rect_search`), as
    `oracle_count` does: v, v_d and the main diagonal read top down are
    the same for M and its transpose, which keeps every diagonal and the
    main diagonal's order.

    A one at (i, j) has min(i, j) - 1 cells strictly up-diagonal of it,
    all in the rows above; the ones among them are those that the rows
    above hold on its level j - i, A(j-1) of the state's chain profile
    (Fact E of the row-search notes), and the rest are the zeros it counts
    towards v.  The diagonal holds k-1 ones, path s meeting it at its s-th
    lowest (`stat_d`), so a one at (i, i) with o = A(i-1) ones above it
    there is the point of path s = k-1-o, and d_s = i-1-o.

    The budget's cell cap applies (the default one when none is given),
    and its `max_results` does not, since a sum needs every matrix.
    """
    check_budget(m * n, budget)
    search = _rect_search(m, n, k)
    w = search.n
    cols = {}  # mask -> its bits, column 1 first
    layer = {()}
    for depth in range(search.m):
        i = depth + 1
        steps = []
        for tails in layer:
            at = _profile(tails, w)
            # zeros[j-1]: the zeros up-diagonal of a one in column j, the
            # min(i, j) - 1 cells there less the A(j-1) ones
            zeros = [min(i, j) - 1 - at[j - 1] for j in range(1, w + 1)]
            rows = []
            for mask, after in search.succ(depth, tails):
                bits = cols.get(mask)
                if bits is None:
                    bits = cols[mask] = tuple((mask >> (w - j)) & 1
                                              for j in range(1, w + 1))
                diag = None
                if i <= w and bits[i - 1]:
                    o = at[i - 1]
                    diag = (k - 1 - o, i - 1 - o)
                rows.append((after, sum(map(mul, zeros, bits)), diag))
            steps.append((tails, rows))
        yield steps
        layer = {after for _, rows in steps for after, _, _ in rows}


def gf_lhs(m, n, k, q, t, budget=None):
    """Sum of weights over every maximal I_k-avoiding m x n matrix, summed
    forward row by row over the row search (`_row_shares`), so no matrix
    is built: each state carries the sum of the weights of the prefixes
    reaching it, and each successor row multiplies it by its factor.  The
    search runs on the board's narrow side, since v, v_d and the main
    diagonal read top down are transpose-invariant, and the ones above a
    row on each diagonal, which its share of v reads, are read off the
    chain profile of its state's thresholds (Fact E of the row-search
    notes).

    The weight splits over the rows.  q^v is the product of q^e over the
    rows' shares e of v, a one at (i, j) counting min(i, j) - 1 less the
    ones above it on its diagonal.  A zero on the main diagonal with h
    ones below it there is counted once by each of those ones, so v_d =
    d_1 + ... + d_{k-1}, and t^(v_d) times the Pochhammer correction is
    the product, over the ones on the main diagonal, of t^(d_s)
    (q^{k-s}; q)_{d_s} / (t q^{k-s}; q)_{d_s}, s being the one's path.
    Each factor is taken once per (e, s, d_s).  q and t must be ints or
    Fractions.
    """
    check_mnk(m, n, k)
    q, t = _exact(q), _exact(t)
    paths = {None: 1}  # (s, d_s) -> the factor of path s's point
    factors = {}  # (e, (s, d_s) or None) -> the row's factor
    sums = {(): Fraction(1)}
    for steps in _row_shares(m, n, k, budget):
        nxt = {}
        for tails, rows in steps:
            val = sums[tails]
            for after, e, diag in rows:
                f = factors.get((e, diag))
                if f is None:
                    p = paths.get(diag)
                    if p is None:
                        s, d = diag
                        p = paths[diag] = t ** d * _ratio(s, d, k, q, t)
                    f = factors[e, diag] = q ** e * p
                nxt[after] = nxt.get(after, 0) + val * f
        sums = nxt
    return sum(sums.values())


def gf_rhs(m, n, k, q, t):
    """The closed product over the (m-k+1) x (n-k+1) x (k-1) box; q and t
    must be ints or Fractions."""
    check_mnk(m, n, k)
    q, t = _exact(q), _exact(t)
    out = Fraction(1)
    for i in range(1, m - k + 2):
        for j in range(1, n - k + 2):
            for l in range(1, k):
                den = 1 - t * q ** (i + j + l - 2)
                if den == 0:
                    raise ValueError(
                        "product denominator vanishes at (%d,%d,%d)" % (i, j, l))
                out *= (1 - t * q ** (i + j + l - 1)) / den
    return out


def seeded_points(count, seed=DEFAULT_SEED, span=12):
    """Deterministic rational (q, t) sample points, all denominators safe.

    `span` bounds the exponent window checked for vanishing denominators of
    the shape 1 - t q^e; points that would vanish anywhere in it (or make a
    Pochhammer denominator vanish) are skipped and resampled.
    """
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        qn = rng.randint(1, 8)
        qd = rng.randint(qn + 1, 9)   # 0 < q < 1 keeps powers distinct
        tn = rng.randint(1, 9) * rng.choice((1, -1))
        td = rng.randint(1, 9)
        q = Fraction(qn, qd)
        t = Fraction(tn, td)
        if t == 1 or any(t * q ** e == 1 for e in range(0, span + 1)):
            continue
        pts.append((q, t))
    return pts


# ---------------------------------------------------------------------------
# polynomials in q


class QPoly:
    """A polynomial in q with integer coefficients, stored ascending.

    Immutable; the zero polynomial is the empty tuple.  Division is exact
    division (ValueError on any remainder) -- these polynomials only ever
    come from products known to divide.  Coefficients must be ints, and
    evaluation points ints or Fractions (ValueError otherwise, bools
    included), so nothing is truncated or evaluated in binary floats.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:  # not bool, float or Fraction
                raise ValueError("coefficients must be integers, got %r"
                                 % (c,))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def q_power(cls, e):
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * e + (1,))

    @classmethod
    def one_minus_q_power(cls, e):
        if e <= 0:
            raise ValueError("exponent must be positive")
        return cls((1,) + (0,) * (e - 1) + (-1,))

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other):
        out = list(self.coeffs)
        out.extend([0] * (len(other.coeffs) - len(out)))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return QPoly(out)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    def exact_div(self, other):
        """Quotient self / other; ValueError unless the division leaves no
        remainder."""
        if not other.coeffs:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if not rem:
            return QPoly()
        qlen = len(rem) - 1 - d
        if qlen < 0:
            raise ValueError("degree of divisor exceeds degree of dividend")
        quot = [0] * (qlen + 1)
        for pos in range(qlen, -1, -1):
            c = rem[pos + d]
            qc, r = divmod(c, lead)
            if r:
                raise ValueError("non-exact polynomial division")
            quot[pos] = qc
            if qc:
                for i, oc in enumerate(other.coeffs):
                    rem[pos + i] -= qc * oc
        if any(rem):
            raise ValueError("non-exact polynomial division")
        return QPoly(quot)

    def __call__(self, x):
        if type(x) is not int and type(x) is not Fraction:
            raise ValueError("evaluation points must be integers or "
                             "Fractions, got %r" % (x,))
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def to_list(self):
        return list(self.coeffs) if self.coeffs else [0]

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "QPoly(%r)" % (list(self.coeffs),)


def volume_gf(m, n, k, budget=None):
    """Sum of q^{v(M)} over maximal matrices, as a polynomial.

    Computed twice -- once summed forward over the row search, once by
    expanding the closed product of q-integer ratios -- and the two must
    agree.  The forward sum (`_row_shares`) runs on the board's narrow
    side, v being transpose-invariant, and carries, per state, the
    coefficient list of the prefixes reaching it; each successor row adds
    it shifted by q^e, e being the row's share of v: a one at (i, j)
    counts min(i, j) - 1 less the ones above it on its diagonal, which
    number A(j-1) of the state's chain profile (Fact E of the row-search
    notes).  No matrix is built.  The product
    is expanded on one coefficient list: multiplied by each
    1 - q^{i+j+l-1}, then divided by each 1 - q^{i+j+l-2}, every division
    checked for a remainder.
    """
    check_mnk(m, n, k)
    sums = {(): [1]}
    for steps in _row_shares(m, n, k, budget):
        nxt = {}
        for tails, rows in steps:
            cs = sums[tails]
            for after, e, _ in rows:
                acc = nxt.get(after)
                if acc is None:
                    nxt[after] = [0] * e + cs
                    continue
                acc.extend([0] * (e + len(cs) - len(acc)))
                for x, c in enumerate(cs, e):
                    acc[x] += c
        sums = nxt
    total = QPoly(_added(sums.values()))
    exps = [i + j + l - 1 for i in range(1, m - k + 2)
            for j in range(1, n - k + 2) for l in range(1, k)]
    cs = [1]
    for e in exps:  # times 1 - q^e
        cs.extend([0] * e)
        for t in range(len(cs) - 1, e - 1, -1):
            cs[t] -= cs[t - e]
    for e in exps:
        _divide_out(cs, e - 1)
    if QPoly(cs) != total:
        raise VerificationError("stream and product expansions disagree")
    return total


def _added(lists):
    """The sum of coefficient lists, as one list."""
    return [sum(cs) for cs in zip_longest(*lists, fillvalue=0)]


def _divide_out(cs, d):
    """Divide the coefficient list cs by 1 - q^d in place: the quotient's
    coefficient t is cs[t] plus its coefficient t-d, and the top d so
    formed are the remainder, a failed verification unless all 0."""
    for t in range(d, len(cs)):
        cs[t] += cs[t - d]
    if any(cs[len(cs) - d:]):
        raise VerificationError("the product leaves a remainder on "
                                "division by 1 - q^%d" % d)
    del cs[len(cs) - d:]


def pp_volume_gf(a, b, c):
    """Sum of q^{volume} over plane partitions in an a x b x c box.

    Summed row by row, with no plane partition built: the layer is
    {last row: coefficient list}, starting from a row of c's above the
    box.  A row is any weakly decreasing tuple of entries in [0, c], and
    it may follow every row that it is pointwise at most.
    """
    _check_box(a, b, c)
    rows = list(combinations_with_replacement(range(c, -1, -1), b))
    layer = {(c,) * b: [1]}
    for _ in range(a):
        nxt = {}
        for row in rows:
            polys = [poly for above, poly in layer.items()
                     if all(x <= y for x, y in zip(row, above))]
            nxt[row] = [0] * sum(row) + _added(polys)
        layer = nxt
    return QPoly(_added(layer.values()))

