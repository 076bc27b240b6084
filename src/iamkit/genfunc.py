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
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, zip_longest

from .bijection import _check_box, _require_maximal
from .core import (
    DEFAULT_SEED,
    EnumerationBudget,
    VerificationError,
    _Record,
    _transpose_masks,
    check_mnk,
    diag_ones_below,
    diag_zeros_above,
)
from .oracle import enumerate_maximal_iams


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


def weight_at(M, k, q, t):
    """The matrix weight q^v t^(v_d) * prod_s (q^{k-s}; q)_{d_s} /
    (t q^{k-s}; q)_{d_s} evaluated at exact rationals.

    Raises ValueError when a Pochhammer denominator vanishes; nothing is
    ever divided through silently.
    """
    return _weight(stat_record(M, k), k, Fraction(q), Fraction(t))


def _weight(rec, k, q, t):
    out = q ** rec.v * t ** rec.v_d
    for s in range(1, k):
        num = _qpochhammer(q ** (k - s), q, rec.d[s - 1])
        den = _qpochhammer(t * q ** (k - s), q, rec.d[s - 1])
        if den == 0:
            raise ValueError("vanishing Pochhammer denominator at s=%d" % s)
        out *= num / den
    return out


def _every_maximal(m, n, k, budget):
    """The whole stream of maximal matrices: a sum needs every one, so the
    budget's cell cap applies (the default one when none is given) and its
    `max_results` does not."""
    if budget is not None:
        budget = EnumerationBudget(budget.max_cells)
    return enumerate_maximal_iams(m, n, k, budget)


def gf_lhs(m, n, k, q, t, budget=None):
    """Sum of weights over every maximal I_k-avoiding m x n matrix: the
    statistics are taken once per matrix, and the weight once per distinct
    (v, v_d, d)."""
    check_mnk(m, n, k)
    q = Fraction(q)
    t = Fraction(t)
    recs = Counter(stat_record(M, k)
                   for M in _every_maximal(m, n, k, budget))
    return sum(count * _weight(rec, k, q, t) for rec, count in recs.items())


def gf_rhs(m, n, k, q, t):
    """The closed product over the (m-k+1) x (n-k+1) x (k-1) box."""
    check_mnk(m, n, k)
    q = Fraction(q)
    t = Fraction(t)
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
    come from products known to divide.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(int(c) for c in coeffs)
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

    Computed twice -- once from the matrix stream, once by expanding the
    closed product of q-integer ratios -- and the two must agree.  The
    product is expanded on one coefficient list: multiplied by each
    1 - q^{i+j+l-1}, then divided by each 1 - q^{i+j+l-2}, every division
    checked for a remainder.
    """
    check_mnk(m, n, k)
    total = _tally(stat_v(M) for M in _every_maximal(m, n, k, budget))
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
            nxt[row] = [0] * sum(row) + [
                sum(cs) for cs in zip_longest(*polys, fillvalue=0)]
        layer = nxt
    return QPoly([sum(cs) for cs in zip_longest(*layer.values(), fillvalue=0)])


def _tally(exponents):
    """Sum of q^e over the exponents, as one polynomial."""
    counts = Counter(exponents)
    return QPoly([counts[e] for e in range(max(counts, default=-1) + 1)])
