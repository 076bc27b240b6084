"""The dihedral group acting on matrices, and symmetry tests for plane
partitions.

Group elements are named strings; `apply(M, g)` returns the transformed
matrix.  Quarter turns are defined by composition of transpose and a
reflection rather than by separate index algebra, so the composition law is
structural rather than re-derived.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import islice

from . import oracle
from .core import BinaryMatrix, SkewShape, check_mnk, is_maximal_iam

D8_ELEMENTS = ("id", "rot90", "rot180", "rot270",
               "transpose", "antitranspose", "fliph", "flipv")


# Row masks are reversed and transposed through lookup tables indexed by
# up to _CHUNK bits at a time; wider masks go through chunk by chunk.  The
# tables are built on first use, one per width or row count.
_CHUNK = 8
_CHUNK_MASK = (1 << _CHUNK) - 1


@functools.cache
def _rev_table(w):
    """rev[x] = the w low bits of x in reverse order."""
    rev = [0] * (1 << w)
    for x in range(1, 1 << w):
        rev[x] = (rev[x >> 1] >> 1) | ((x & 1) << (w - 1))
    return tuple(rev)


@functools.cache
def _spread_table(stride):
    """spread[x] = x with bit t moved to bit t * stride."""
    spread = [0] * (1 << _CHUNK)
    for x in range(1, 1 << _CHUNK):
        low = x & -x
        spread[x] = spread[x ^ low] | (1 << ((low.bit_length() - 1) * stride))
    return tuple(spread)


def _transpose_masks(masks, m, n):
    """Row masks of the transpose of the m x n matrix with these rows."""
    # lay the rows out interleaved: column j's bits end up in one m-bit field,
    # row 1 in its high bit
    spread = _spread_table(m)
    acc = 0
    for r in masks:
        acc <<= 1
        shift = 0
        while r:
            acc |= spread[r & _CHUNK_MASK] << shift
            r >>= _CHUNK
            shift += _CHUNK * m
    full = (1 << m) - 1
    return tuple((acc >> (t * m)) & full for t in range(n - 1, -1, -1))


def _transpose(M):
    return BinaryMatrix.from_masks(M.n, M.m,
                                   _transpose_masks(M.masks, M.m, M.n))


def _bitrev(mask, n):
    out = 0
    while n > _CHUNK:
        out = (out << _CHUNK) | _rev_table(_CHUNK)[mask & _CHUNK_MASK]
        mask >>= _CHUNK
        n -= _CHUNK
    return (out << n) | _rev_table(n)[mask]


def _fliph(M):
    # reverse the row order (reflection across the horizontal axis)
    return BinaryMatrix.from_masks(M.m, M.n, tuple(reversed(M.masks)))


def _flipv(M):
    # reverse each row (reflection across the vertical axis)
    n = M.n
    return BinaryMatrix.from_masks(M.m, n, tuple(_bitrev(r, n) for r in M.masks))


def apply(M, g):
    """Apply a dihedral element to a matrix.  Non-square matrices change
    shape under the odd elements (transpose, antitranspose, quarter turns)."""
    if g == "id":
        return M
    if g == "transpose":
        return _transpose(M)
    if g == "fliph":
        return _fliph(M)
    if g == "flipv":
        return _flipv(M)
    if g == "rot180":
        return _fliph(_flipv(M))
    if g == "rot90":
        return _transpose(_fliph(M))
    if g == "rot270":
        return _transpose(_flipv(M))
    if g == "antitranspose":
        return _fliph(_transpose(_fliph(M)))
    raise ValueError("unknown group element %r" % (g,))


def compose(g, h):
    """The element equal to applying h first, then g."""
    probe = BinaryMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 0]])  # trivial stabilizer
    target = apply(apply(probe, h), g)
    for e in D8_ELEMENTS:
        if apply(probe, e) == target:
            return e
    raise AssertionError("composition fell outside the group")


def classes_of(M, k):
    """The set of symmetry-class tags that M belongs to.

    Always contains "U".  Square-only tags (DS, AS, DAS, QTS, TS) are only
    reported for square matrices.
    """
    if not is_maximal_iam(M, k):
        raise ValueError("classes_of expects a maximal I_k-avoiding matrix")
    return _tags_of(M.masks, M.m, M.n)


# Each tag and the group elements a matrix carrying it is fixed by.
_TAG_ELEMENTS = {
    "U": (),
    "VS": ("flipv",),
    "HS": ("fliph",),
    "VHS": ("flipv", "fliph"),
    "HTS": ("rot180",),
    "DS": ("transpose",),
    "AS": ("antitranspose",),
    "DAS": ("transpose", "antitranspose"),
    "QTS": ("rot90",),
    "TS": ("flipv", "fliph", "rot180", "transpose", "antitranspose",
           "rot90", "rot270"),
}
_SQUARE_TAGS = ("DS", "AS", "DAS", "QTS", "TS")

# Every element other than id is fliph (reversing the row order) after at
# most one of three images: the rows bit-reversed (flipv), the transpose,
# and the transpose of the rows reversed (rot90).
_ELEMENT_IMAGES = {
    "fliph": (None, True),
    "flipv": ("flipv", False),
    "rot180": ("flipv", True),
    "transpose": ("transpose", False),
    "rot270": ("transpose", True),
    "rot90": ("rot90", False),
    "antitranspose": ("rot90", True),
}


def _tags_of(masks, m, n, wanted=tuple(_TAG_ELEMENTS)):
    """The tags among `wanted` carried by the m x n matrix with these row
    masks (a tuple).  Each image is built at most once, and only when a
    wanted tag needs it; the odd elements are compared only when m == n."""
    images = {None: masks}
    fixed = {}
    tags = []
    for tag in wanted:
        if m != n and tag in _SQUARE_TAGS:
            continue
        for g in _TAG_ELEMENTS[tag]:
            if g not in fixed:
                base, reverse = _ELEMENT_IMAGES[g]
                if base not in images:
                    if base == "flipv":
                        images[base] = tuple(_bitrev(r, n) for r in masks)
                    else:
                        images[base] = _transpose_masks(
                            masks if base == "transpose" else masks[::-1],
                            m, n)
                image = images[base]
                fixed[g] = (image[::-1] if reverse else image) == masks
            if not fixed[g]:
                break
        else:
            tags.append(tag)
    return frozenset(tags)


# ---------------------------------------------------------------------------
# fixed points and class counts
#
# The matrices fixed by one group element are listed by the oracle's row
# search itself, with one extra rule per element: from the rows placed so
# far it gives the next row's forced bits and their values, and whether the
# row must read the same reversed.
#
# * flipv: every row reads the same reversed;
# * fliph: a row in the lower half is its mirror row above;
# * rot180: the same, bit-reversed, and a middle row reads the same reversed;
# * transpose: row i left of the diagonal is column i of the rows above,
#   read top down;
# * antitranspose: row i right of the anti-diagonal is column n+1-i of the
#   rows above, read bottom up.

# Each tag other than U, and the one search it is counted from: a matrix
# carrying the tag is fixed by that element.
_CENSUS = (("flipv", ("VS", "VHS")),
           ("fliph", ("HS",)),
           ("rot180", ("HTS", "QTS")),
           ("transpose", ("DS", "DAS", "TS")),
           ("antitranspose", ("AS",)))
FIXED_POINT_ELEMENTS = tuple(g for g, _ in _CENSUS)
_SQUARE_ELEMENTS = ("transpose", "antitranspose")


def _row_rule(g, m, n):
    """rule(rows placed) -> (fixed bits, their values, a test the row must
    pass or None) for the next row of a matrix fixed by g, or None when
    that row is free; see `oracle._Search.complete`."""
    full = (1 << n) - 1

    def palindrome(mask):
        return _bitrev(mask, n) == mask

    if g == "flipv":
        return lambda rows: (0, 0, palindrome)
    if g in ("fliph", "rot180"):
        def rule(rows):
            mirror = m - 1 - len(rows)
            if mirror < len(rows):
                r = rows[mirror]
                return full, (r if g == "fliph" else _bitrev(r, n)), None
            if mirror == len(rows) and g == "rot180":
                return 0, 0, palindrome
            return None
        return rule
    if g in _SQUARE_ELEMENTS and m != n:
        raise ValueError("%s fixes only square matrices" % g)
    if g == "transpose":
        def rule(rows):
            d = len(rows)
            if not d:
                return None
            values = 0
            for r in rows:  # column j comes from row j
                values = (values << 1) | ((r >> (n - 1 - d)) & 1)
            return ((1 << d) - 1) << (n - d), values << (n - d), None
        return rule
    if g == "antitranspose":
        def rule(rows):
            d = len(rows)
            if not d:
                return None
            values = 0
            for r in reversed(rows):  # column n-i comes from row i+1
                values = (values << 1) | ((r >> d) & 1)
            return (1 << d) - 1, values, None
        return rule
    raise ValueError("no fixed-point search for group element %r" % (g,))


def _listing_search(m, n, k, budget):
    # fixed points are listed, so the stream's budget rule applies
    check_mnk(m, n, k)
    budget = budget or oracle.DEFAULT_BUDGET
    oracle._check_budget(m * n, budget)
    return oracle._Search(SkewShape((n,) * m), k), budget


def _fixed_masks(search, g):
    """Row-mask tuples of the maximal matrices fixed by g, in stream order."""
    return search.start(_row_rule(g, search.m, search.n))


def enumerate_fixed_points(m, n, k, g, budget=None):
    """All maximal I_k-avoiding m x n matrices fixed by the group element g,
    in the order of `oracle.enumerate_maximal_iams`.

    g is one of FIXED_POINT_ELEMENTS; transpose and antitranspose need a
    square board.  The budget applies as to the stream.
    """
    search, budget = _listing_search(m, n, k, budget)
    found = _fixed_masks(search, g)  # rejects g before the first matrix
    return (BinaryMatrix.from_masks(m, n, masks)
            for masks in islice(found, budget.max_results))


def _tag_counts(search, census):
    """Counter of the tags each (element, tags) pair of the census counts,
    over the fixed points of that element; square-only elements are
    skipped on other boards."""
    m, n = search.m, search.n
    hist = Counter()
    for g, tags in census:
        if g in _SQUARE_ELEMENTS and m != n:
            continue
        for masks in _fixed_masks(search, g):
            hist.update(_tags_of(masks, m, n, tags))
    return hist


def brute_count_class(tag, m, n, k, budget=None):
    """Count maximal IAMs in a symmetry class by search: U by the oracle's
    transfer-matrix count, any other tag by the one fixed-point search of
    `class_histogram` that counts it (0 for a square-only tag on another
    board)."""
    check_mnk(m, n, k)
    if tag == "U":
        return oracle.oracle_count(m, n, k, budget)
    census = [(g, (tag,)) for g, tags in _CENSUS if tag in tags]
    if not census:
        raise ValueError("unknown symmetry tag %r" % (tag,))
    search, _ = _listing_search(m, n, k, budget)
    return _tag_counts(search, census)[tag]


def class_histogram(m, n, k, budget=None):
    """Counter mapping each tag to the number of maximal m x n matrices
    carrying it.

    U is the oracle's transfer-matrix count.  Every other tag is counted by
    tagging the fixed points of one group element (see _CENSUS), listed by
    the oracle's row search; all searches share one engine.  The census
    lists, so the default budget's cell cap applies when none is given;
    `max_results` truncates streams, so it does not apply to counts.
    """
    search, _ = _listing_search(m, n, k, budget)
    hist = Counter(U=search.total())
    hist.update(_tag_counts(search, _CENSUS))
    return hist


# ---------------------------------------------------------------------------
# plane-partition symmetries
#
# pi is the (a rows) x (b cols) array of a PlanePartition; see bijection.py.


def pp_reflect(pp):
    """Transpose the array (needs a = b)."""
    if pp.a != pp.b:
        raise ValueError("reflect needs a square array")
    pi = tuple(tuple(pp.pi[i][j] for i in range(pp.a)) for j in range(pp.b))
    return type(pp)(pp.a, pp.b, pp.c, pi)


def pp_complement(pp):
    """Complement inside the box: rotate the array a half turn and replace
    each entry x by c - x."""
    pi = tuple(
        tuple(pp.c - pp.pi[pp.a - 1 - i][pp.b - 1 - j] for j in range(pp.b))
        for i in range(pp.a))
    return type(pp)(pp.a, pp.b, pp.c, pi)


def is_S(pp):
    """Symmetric: fixed by reflection."""
    return pp.a == pp.b and pp.pi == pp_reflect(pp).pi


def is_SC(pp):
    """Self-complementary inside its box."""
    return pp.pi == pp_complement(pp).pi


def is_TC(pp):
    """Transpose-complementary: reflection equals complement."""
    return pp.a == pp.b and pp_reflect(pp).pi == pp_complement(pp).pi


def is_SSC(pp):
    """Symmetric and self-complementary."""
    return is_S(pp) and is_SC(pp)
