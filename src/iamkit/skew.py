"""Skew shapes: admissibility, determinant counts, truncated rectangles.

Binomial convention used throughout: C(x, 0) = 1 for every integer x, and
C(x, r) = 0 whenever r < 0 or r > max(x, 0).  This is what makes the
reflection and determinant identities come out as stated.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .core import Partition, SkewShape, VerificationError, _Record


def binom(x, r):
    if r < 0:
        return 0
    if r == 0:
        return 1
    if x < r:
        return 0
    return comb(x, r)


# ---------------------------------------------------------------------------
# determinants


def det_bareiss(rows):
    """Exact integer determinant, fraction-free elimination."""
    a = [list(int(x) for x in row) for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("square matrix required")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for p in range(n - 1):
        if a[p][p] == 0:
            for r in range(p + 1, n):
                if a[r][p]:
                    a[p], a[r] = a[r], a[p]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(p + 1, n):
            for c in range(p + 1, n):
                a[r][c] = (a[r][c] * a[p][p] - a[r][p] * a[p][c]) // prev
            a[r][p] = 0
        prev = a[p][p]
    return sign * a[n - 1][n - 1]


def det_cofactor(rows):
    """Textbook cofactor expansion; the slow cross-check twin."""
    a = [list(int(x) for x in row) for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("square matrix required")

    def rec(rs, cols):
        if not cols:
            return 1
        r = rs[0]
        out = 0
        for t, c in enumerate(cols):
            if a[r][c]:
                minor = rec(rs[1:], cols[:t] + cols[t + 1:])
                out += (1 if t % 2 == 0 else -1) * a[r][c] * minor
        return out

    return rec(list(range(n)), list(range(n)))


# ---------------------------------------------------------------------------
# admissibility and shape surgery


def validate_skew(shape, k):
    """Are the staircase-admissibility conditions met?

    (1) every row is at least k long in lambda; (2) mu has at least k zero
    parts; (3) the first row has at least k cells; (4) the top k rows of
    lambda are full width.  Predicate only, never raises.
    """
    lam, mu = shape.lam, shape.mu
    m = len(lam)
    if m == 0 or k < 2:
        return False
    width = lam.part(1)
    if lam.part(m) < k:
        return False
    if sum(1 for p in mu.parts if p == 0) < k:
        return False
    if width - mu.part(1) < k:
        return False
    if m < k or lam.part(k) != width:
        return False
    return True


def gamma(lam, a, b):
    """Drop the first a and last b parts of a partition."""
    lam = Partition(lam)
    if a < 0 or b < 0:
        raise ValueError("deletion counts must be nonnegative")
    if a + b > len(lam):
        raise ValueError("cannot delete %d + %d parts from %d" %
                         (a, b, len(lam)))
    return Partition(lam.parts[a:len(lam) - b])


def _dual_rows(shape):
    """The dual's parts (lambda_{i+1} - 1 over mu_i, i = 1..rows-1), as
    two lists, before any check that its rows overlap."""
    spans = shape.spans()
    return ([hi - 1 for _, hi in spans[1:]], [lo for lo, _ in spans[:-1]])


def dual_shape(shape):
    """The shape on the gaps between consecutive rows: row i of the dual
    spans (mu_i, lambda_{i+1} - 1]."""
    if len(shape.lam) < 2:
        raise ValueError("dual shape needs at least 2 rows")
    return SkewShape(*_dual_rows(shape))  # raises if rows fail to overlap


# ---------------------------------------------------------------------------
# path counts


def kreweras_f(lam, mu):
    """Number of families of nonintersecting lattice paths between the
    comb endpoints of the pair mu inside lam, as a binomial determinant:
    det [ C(lam_j - mu_i + 1, j - i + 1) ] over the parts."""
    lam = Partition(lam)
    mu = Partition(mu)
    if len(mu) > len(lam):
        raise ValueError("mu has more parts than lam")
    padded = tuple(mu.parts) + (0,) * (len(lam) - len(mu))
    if not lam.contains(padded):
        raise ValueError("mu must fit inside lam")
    d = len(lam)
    if d == 0:
        return 1
    rows = [[binom(lam.part(j) - padded[i - 1] + 1, j - i + 1)
             for j in range(1, d + 1)] for i in range(1, d + 1)]
    return det_bareiss(rows)


def count_skew_fillings(shape, k):
    """Number of maximal I_k-avoiding fillings of an admissible skew shape.

    (k-1) x (k-1) determinant whose (i, j) entry counts paths in the dual
    shape with the first k-1-j and last i-1 rows removed; removals that
    consume the whole dual give an empty count of 1, removals that overrun
    it (or cut the dual apart) give 0.

    Every shape has a maximal filling, since the all-zero filling avoids
    I_k and so extends to one; a determinant <= 0 is therefore wrong, and
    raises `VerificationError` instead of being returned.

    Entries whose removals leave equal parts share one path count, found
    once per call: on a rectangle, whose dual's rows are all alike, the
    (k-1)^2 entries take 2k-3 values.
    """
    if not validate_skew(shape, k):
        raise ValueError("shape fails the staircase admissibility conditions")
    lam_bar, mu_bar = map(tuple, _dual_rows(shape))
    rows_n = len(lam_bar)
    d = k - 1
    counts = {}  # (parts of lam, parts of mu) -> their path count

    def entry(i, j):
        a = k - 1 - j
        b = i - 1
        if a + b > rows_n:
            return 0
        ls = lam_bar[a:rows_n - b]
        ms = mu_bar[a:rows_n - b]
        if any(l < u for l, u in zip(ls, ms)):
            return 0
        if (ls, ms) not in counts:
            counts[ls, ms] = kreweras_f(ls, ms)
        return counts[ls, ms]

    rows = [[entry(i, j) for j in range(1, d + 1)] for i in range(1, d + 1)]
    det = det_bareiss(rows)
    if det <= 0:
        raise VerificationError(
            "the determinant is %d, but every shape has a maximal filling"
            % det)
    return det


# ---------------------------------------------------------------------------
# truncated rectangles


class TruncatedRect(_Record):
    """An m x n rectangle with a staircase of t cells cut off the lower
    right corner, t in {m-k, m-k+1}."""

    __slots__ = ("m", "n", "k", "t")

    def __init__(self, m, n, k, t):
        if not 2 <= k <= m <= n:
            raise ValueError("need 2 <= k <= m <= n")
        if t not in (m - k, m - k + 1):
            raise ValueError("t must be m-k or m-k+1")
        self._set(m, n, k, t)

    def shape(self):
        m, n, t = self.m, self.n, self.t
        lam = [n] * (m - t) + [n - s for s in range(1, t + 1)]
        return SkewShape(lam)


def count_truncated_rect(m, n, k, t):
    """Closed product for the truncated rectangle count."""
    tr = TruncatedRect(m, n, k, t)  # validates
    delta = 1 if t == m - k else 0
    out = Fraction(1)
    for i in range(1, k):
        out *= Fraction(factorial(m + n - 2 * k + 2 * i + delta),
                        factorial(m - i) * factorial(n + i - 1 + delta))
    for i in range(1, k - 1):
        out *= factorial(i)
    for i in range(1, k):
        for j in range(i, k):
            out *= n - m + i + j - 1 + delta
    if out.denominator != 1:
        raise VerificationError("truncated product failed to be an integer")
    return out.numerator


def reflection_count(m, n, k, t, i, j):
    """Single path count b_{ij} by the reflection principle: free count
    minus the count through the cut, C(N, m-k-i+j+1) - C(N, m-k-i-j+2-delta)
    with N = m+n-2k+2 and delta = [t = m-k]."""
    TruncatedRect(m, n, k, t)
    delta = 1 if t == m - k else 0
    N = m + n - 2 * k + 2
    return (binom(N, m - k - i + j + 1)
            - binom(N, m - k - i - j + 2 - delta))


def reflection_det(m, n, k, t):
    """Determinant of the reflection counts, order k-1."""
    d = k - 1
    rows = [[reflection_count(m, n, k, t, i, j)
             for j in range(1, d + 1)] for i in range(1, d + 1)]
    return det_bareiss(rows)


def truncated_region(m, n, t):
    """Point predicate for the truncated board: east/north paths must stay
    weakly above the cut line y = x + (t - n + 1)."""

    def inside(pt):
        x, y = pt
        return y >= x + t - n + 1

    return inside


def count_paths(start, end, region):
    """Single-path count from start to end by unit east/north steps through
    points allowed by `region`."""
    (sx, sy), (ex, ey) = start, end
    if ex < sx or ey < sy:
        return 0
    ways = {}
    for x in range(sx, ex + 1):
        for y in range(sy, ey + 1):
            if not region((x, y)):
                ways[(x, y)] = 0
            elif (x, y) == (sx, sy):
                ways[(x, y)] = 1
            else:
                ways[(x, y)] = (ways.get((x - 1, y), 0)
                                + ways.get((x, y - 1), 0))
    return ways[(ex, ey)]


def lgv_count(starts, ends, region):
    """Nonintersecting-family count: determinant of single-path counts."""
    if len(starts) != len(ends):
        raise ValueError("need equally many starts and ends")
    d = len(starts)
    rows = [[count_paths(starts[i], ends[j], region) for j in range(d)]
            for i in range(d)]
    return det_bareiss(rows)


# ---------------------------------------------------------------------------
# the binomial-determinant evaluation


def kratt_lhs(d, A, L, c):
    """det [ C(A, j - L_i) - C(A, -j - L_i + c) ], i, j = 1..d."""
    if c not in (0, 1):
        raise ValueError("c must be 0 or 1")
    if A < 0:
        raise ValueError("A must be nonnegative")
    L = list(L)
    if len(L) != d:
        raise ValueError("L must have d entries")
    rows = [[binom(A, j - L[i - 1]) - binom(A, -j - L[i - 1] + c)
             for j in range(1, d + 1)] for i in range(1, d + 1)]
    return det_bareiss(rows)


def kratt_rhs(d, A, L, c):
    """Closed evaluation of the same determinant.  Exact rational; raises
    on a negative factorial argument (inadmissible L)."""
    if c not in (0, 1):
        raise ValueError("c must be 0 or 1")
    if A < 0:
        raise ValueError("A must be nonnegative")
    L = list(L)
    if len(L) != d:
        raise ValueError("L must have d entries")
    out = Fraction(1)
    for i in range(1, d + 1):
        li = L[i - 1]
        if d - li < 0 or A + d - c + li < 0 or A + 2 * i - 1 - c < 0:
            raise ValueError("negative factorial argument")
        out *= Fraction(factorial(A + 2 * i - 1 - c),
                        factorial(d - li) * factorial(A + d - c + li))
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            out *= L[j - 1] - L[i - 1]
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            out *= L[i - 1] + L[j - 1] + A - c
    return out
