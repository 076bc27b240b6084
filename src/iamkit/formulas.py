"""Closed-form counts: the box product and the ten symmetry-class formulas.

U counts the plane partitions in the a x b x c box, a = m-k+1, b = n-k+1,
c = k-1, HTS the self-complementary ones and DAS the symmetric
self-complementary ones: each a product of box products (R. P. Stanley,
"Symmetries of plane partitions", J. Combin. Theory A 43, 1986).

All arithmetic is exact (big integers / Fractions); every product that is
claimed to be an integer is checked to divide out exactly rather than
rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .core import VerificationError, check_box, check_mnk

SYMMETRY_TAGS = ("U", "DS", "AS", "DAS", "VS", "HS", "VHS", "QTS", "HTS", "TS")

_SQUARE_ONLY = {"DS", "AS", "DAS", "QTS", "TS"}


def hprod(a, b, c):
    """The box product prod_{i<=a} prod_{j<=b} prod_{l<=c} (i+j+l-1)/(i+j+l-2).

    Counts plane partitions in an a x b x c box.  Empty factors give 1.
    The product over l telescopes to (s+c-1)/(s-1) with s = i+j, and
    min(s-1, a, b, a+b+1-s) cells (i, j) of the a x b rectangle share each
    s, so there is one power per s instead of a*b*c factors.
    """
    check_box(a, b, c)
    num = 1
    den = 1
    for s in range(2, a + b + 1):
        mult = min(s - 1, a, b, a + b + 1 - s)
        num *= (s + c - 1) ** mult
        den *= (s - 1) ** mult
    q, r = divmod(num, den)
    if r:
        raise VerificationError("box product failed to be an integer")
    return q


def count_iams(m, n, k):
    """Number of maximal I_k-avoiding m x n matrices."""
    check_mnk(m, n, k)
    return hprod(m - k + 1, n - k + 1, k - 1)


def _int_of(frac):
    if frac.denominator != 1:
        raise VerificationError("expected an integer, got %s" % frac)
    return frac.numerator


def _count_ds(n, k):
    # symmetric matrices, n x n
    out = Fraction(1)
    for i in range(1, n - k + 2):
        for j in range(i, n - k + 2):
            out *= Fraction(k + i + j - 2, i + j - 1)
    return _int_of(out)


def _count_as(n, k):
    # antitranspose-symmetric matrices, n x n; empty for even k
    if k % 2 == 0:
        return 0
    out = Fraction(comb(n - (k + 1) // 2, n - k))
    for i in range(1, n - k):
        for j in range(i, n - k):
            out *= Fraction(k + i + j, i + j + 1)
    return _int_of(out)


def _count_das(n, k):
    # fixed by both transpose and antitranspose: the symmetric
    # self-complementary plane partitions in the a x a x c box (Stanley
    # 1986); none for even k (c odd)
    if k % 2 == 0:
        return 0
    a = n - k + 1
    return hprod((a + 1) // 2, a // 2, (k - 1) // 2)


def _count_hts(m, n, k):
    # fixed by half-turn rotation: the self-complementary plane partitions
    # in the a x b x c box (Stanley 1986); their number is symmetric in the
    # sides, so an even side is put last, as c, and three odd sides give 0
    a, b, c = sorted((m - k + 1, n - k + 1, k - 1), key=lambda s: s % 2 == 0)
    if c % 2:
        return 0
    return (hprod((a + 1) // 2, b // 2, c // 2)
            * hprod(a // 2, (b + 1) // 2, c // 2))


def count_symmetry(tag, m, n, k):
    """Number of maximal I_k-avoiding m x n matrices fixed by a symmetry.

    Tags: U (no constraint), DS (transpose), AS (antitranspose), DAS (both),
    VS / HS / VHS (column, row, both reflections), QTS (quarter turn),
    HTS (half turn), TS (totally symmetric).  Square-only tags reject m != n.
    """
    if tag not in SYMMETRY_TAGS:
        raise ValueError("unknown symmetry tag %r" % (tag,))
    check_mnk(m, n, k)
    if tag in _SQUARE_ONLY and m != n:
        raise ValueError("tag %s needs a square matrix" % tag)
    if tag == "U":
        return count_iams(m, n, k)
    if tag == "DS":
        return _count_ds(n, k)
    if tag == "AS":
        return _count_as(n, k)
    if tag == "DAS":
        return _count_das(n, k)
    if tag == "HTS":
        return _count_hts(m, n, k)
    # VS, HS, VHS, QTS, TS: a reflection or quarter turn reverses chain
    # direction, which forces a single highly structured fixed matrix for
    # odd k and none at all for even k
    return 1 if k % 2 == 1 else 0


def check_product_relations(n, k):
    """For odd chain length K = 2k-1: does |U| = |DS| * |AS| on n x n boards,
    and |HTS| = |DAS|^2?  Returns the two booleans (both should be True)."""
    K = 2 * k - 1
    if not 2 <= K <= n:
        raise ValueError("need 2 <= 2k-1 <= n")
    first = count_symmetry("U", n, n, K) == (
        count_symmetry("DS", n, n, K) * count_symmetry("AS", n, n, K))
    second = count_symmetry("HTS", n, n, K) == count_symmetry("DAS", n, n, K) ** 2
    return first, second
