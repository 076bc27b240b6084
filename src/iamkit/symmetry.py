"""The dihedral group acting on matrices, and symmetry tests for plane
partitions.

Group elements are named strings; `apply(M, g)` returns the transformed
matrix.  One table defines all eight, each as a base image of the row masks
with the row order reversed or not; `apply` and the class tagging both read
it, and the composition law and each element's cell images (the orbit
tables' input) are read back off `apply`, not re-derived.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import islice

from . import oracle
from .core import (
    BinaryMatrix,
    VerificationError,
    _bitrev,
    _chain_across,
    _profile,
    _transpose_masks,
    check_budget,
    check_mnk,
    is_maximal_iam,
    max_ones,
)
from .formulas import _SQUARE_ONLY

# The group's only definition, element -> (base, reverse?): each element is
# fliph (the row order reversed), applied or not, after one of four base
# images of the row masks: the matrix itself, its rows bit-reversed (flipv),
# its transpose, or the transpose of its rows reversed (rot90).
_ELEMENTS = {
    "id": ("id", False),
    "rot90": ("rot90", False),
    "rot180": ("flipv", True),
    "rot270": ("transpose", True),
    "transpose": ("transpose", False),
    "antitranspose": ("rot90", True),
    "fliph": ("id", True),
    "flipv": ("flipv", False),
}
D8_ELEMENTS = tuple(_ELEMENTS)
_TRANSPOSING = ("transpose", "rot90")  # the bases that swap the sides


def _base_image(masks, m, n, base):
    """The row masks of one base image of the m x n matrix with these rows
    (a tuple); the transposing bases give n rows of m bits."""
    if base == "id":
        return masks
    if base == "flipv":
        return tuple(_bitrev(r, n) for r in masks)
    return _transpose_masks(masks if base == "transpose" else masks[::-1],
                            m, n)


def apply(M, g):
    """Apply a dihedral element to a matrix.  Non-square matrices change
    shape under the odd elements (transpose, antitranspose, quarter turns)."""
    if g not in _ELEMENTS:
        raise ValueError("unknown group element %r" % (g,))
    base, reverse = _ELEMENTS[g]
    image = _base_image(M.masks, M.m, M.n, base)
    m, n = (M.n, M.m) if base in _TRANSPOSING else (M.m, M.n)
    return BinaryMatrix.from_masks(m, n, image[::-1] if reverse else image)


def compose(g, h):
    """The element equal to applying h first, then g."""
    probe = BinaryMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 0]])  # trivial stabilizer
    target = apply(apply(probe, h), g)
    for e in D8_ELEMENTS:
        if apply(probe, e) == target:
            return e
    raise VerificationError("composition fell outside the group")


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
    "TS": ("flipv", "transpose"),  # they generate the whole group
}


def _tags_of(masks, m, n):
    """The tags carried by the m x n matrix with these row masks (a tuple).
    Each base image is built at most once, and only when a tag needs it;
    the odd elements are compared only when m == n."""
    images = {}
    fixed = {}
    tags = []
    for tag, elements in _TAG_ELEMENTS.items():
        if m != n and tag in _SQUARE_ONLY:
            continue
        for g in elements:
            if g not in fixed:
                base, reverse = _ELEMENTS[g]
                if base not in images:
                    images[base] = _base_image(masks, m, n, base)
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
# A matrix is fixed by a subgroup exactly when it is constant on each orbit
# of the subgroup on the cells, where each element moves a cell as `apply`
# moves it, read off its images of a few bit planes (`_cell_images`).  So the
# oracle's row search lists the fixed points itself, reading one entry of
# the subgroup's orbit table per row (`_orbits`): a cell whose orbit first
# meets the board (row-major) in an earlier row is a fixed bit, copied
# from there; a cell whose orbit first meets it earlier in the same row
# must equal that cell.  HTS, the fixed points of rot180, is counted by
# folding the board: the count's own layer for the top half, each state
# kept when the turned half meets what its zeros ask (`_fold_count`), with
# no listing.  VHS is listed, which keeps the forward sum free of orbit
# tables.
#
# The transpose maps the maximal m x n matrices one to one onto the
# maximal n x m ones, keeps rot180 and the subgroup of VHS, and turns
# fliph into flipv.  So a census (`_class_counts`) decides each tag's
# board in one place: U, HTS, VHS and the square-only tags run on the
# narrow side, whose search runs over min(m, n) columns; VS is the fixed
# points of flipv on the m x n board; and HS, the fixed points of fliph,
# is counted as those of flipv on the n x m board, whose orbit table
# mirrors each row within itself and asks nothing of the rows above.
# Only `enumerate_fixed_points` lists fliph's fixed points themselves, as
# the transposes of those, sorted into row-major order (`_fliph_masks`).


def _cell_images(g, m, n):
    """image[c]: the cell (row-major index) that g moves cell c to, read
    off `apply` on bit planes: plane b has a one at each cell whose index
    has bit b set, so g's image of plane b has a one at each cell whose
    source has bit b set.  ⌈log2(mn)⌉ planes give every cell's source."""
    if g in _ELEMENTS and _ELEMENTS[g][0] in _TRANSPOSING and m != n:
        raise ValueError("%s fixes only square matrices" % g)
    source = [0] * (m * n)
    for b in range((m * n - 1).bit_length()):
        plane = BinaryMatrix([[c >> b & 1 for c in range(i * n, i * n + n)]
                              for i in range(m)])
        for i, j in apply(plane, g).one_cells():
            source[(i - 1) * n + j - 1] |= 1 << b
    image = [0] * (m * n)
    for d, c in enumerate(source):
        image[c] = d
    return image


@functools.cache
def _orbits(elements, m, n):
    """The orbit table of the subgroup these elements generate on the
    m x n board, which `oracle._Search.start` lists its fixed points
    under: what being fixed asks of each row i, as (fixed bits, the source
    of each as (bit, earlier row, shift), a test of the row's own cells
    that must be equal, or None)."""
    first = list(range(m * n))  # union-find; each root is its orbit's least

    def find(c):
        while first[c] != c:
            c = first[c]
        return c

    for g in elements:
        for c, d in enumerate(_cell_images(g, m, n)):
            a, b = sorted((find(c), find(d)))
            first[b] = a
    first = tuple(find(c) for c in range(m * n))
    rows = []
    for i in range(m):
        fixed, sources, pairs = 0, [], []
        for j in range(n):
            i0, j0 = divmod(first[i * n + j], n)
            bit = 1 << (n - 1 - j)
            if i0 < i:
                fixed |= bit
                sources.append((bit, i0, n - 1 - j0))
            elif j0 < j:
                pairs.append((n - 1 - j0, n - 1 - j))
        keep = None
        if pairs:
            def keep(mask, pairs=tuple(pairs)):
                return not any(((mask >> a) ^ (mask >> b)) & 1
                               for a, b in pairs)
        rows.append((fixed, tuple(sources), keep))
    return tuple(rows)


def _fliph_masks(m, n, k):
    """The row masks of the maximal m x n matrices fixed by fliph, in
    row-major order: the transposes of the flipv-fixed matrices of the
    n x m board, sorted into the order of this one (see the notes above)."""
    search = oracle._board(n, m, k)
    yield from sorted(_transpose_masks(cols, n, m)
                      for cols in search.start(_orbits(("flipv",), n, m)))


# A matrix fixed by rot180 is its top ⌈m/2⌉ rows and their half turn.  The
# orbit table takes no bit of those rows from an earlier row, and asks of
# them only that the middle row of an odd board, which the turn maps to
# itself, be a palindrome.  So HTS is counted off the search's states for
# those rows, with no listing and no table: the count's layer after the top
# ⌊m/2⌋ rows, and on an odd board each state's successor rows as the
# middle row.  The half turn keeps chains increasing, and the rows on
# either side of the fold avoid I_k, so the whole matrix does exactly when
# no chain across the fold reaches k (`core._chain_across`).  An avoiding
# matrix is then maximal exactly when it holds max_ones(m, n, k) ones: no
# avoiding matrix holds more, and every maximal one holds k-1 on each level
# of the path window and a one on every cell off it.  The bottom half holds
# as many ones as the top, so a state is kept when 2 ones(top) +
# ones(middle) is that number.  By Fact E of the row-search notes, the top
# ⌊m/2⌋ rows hold A(j-1) ones on the level of cell (⌊m/2⌋+1, j), A being
# their chain profile, for j = 1..n; every other level they meet lies
# wholly inside them, and holds k-1 ones in the window and a one on each
# cell off it, whatever the state.  So ones(top) is read off the state.
# The middle row's palindrome test needs no check: a one at column j with a
# zero at n+1-j would need T(j-1) + T(n-j) <= k-2 for the one and >= k-1
# for the zero, T being the top half's profile, so no maximal matrix holds
# such a row.


def _fold_count(search):
    """Number of maximal matrices fixed by rot180 (HTS) on the rectangle
    of the search: the count's layer after the top ⌊m/2⌋ rows, each state
    (and on an odd board each middle row after it) kept when the half turn
    completes it to an avoiding matrix with the extremal ones count (see
    the notes above).  The census's U count has summed that layer
    already; a lone count sums only the top half."""
    m, n, k = search.m, search.n, search.k
    half = m // 2
    # the ones the top half holds on the levels j - i >= n - half, which
    # lie wholly inside it: k-1 on a window level, j - i <= n-k+1, and
    # every cell, n - (j - i) of them, on a level past it
    inside = sum(min(k - 1, n - d) for d in range(n - half, n))
    total = 0
    for top, ways in search.layer(half).items():
        need = max_ones(m, n, k) - 2 * (inside + sum(_profile(top, n)[:n]))
        ends = search.succ(half, top) if m % 2 else ((0, top),)
        for mask, tails in ends:
            if mask.bit_count() == need and _chain_across(tails, top, n) < k:
                total += ways
    return total


def enumerate_fixed_points(m, n, k, g, budget=None):
    """All maximal I_k-avoiding m x n matrices fixed by the group element g,
    in the order of `oracle.enumerate_maximal_iams`.

    g is any of D8_ELEMENTS; transpose, antitranspose and the quarter
    turns need a square board.  The budget applies as to the stream.  The
    fixed points of fliph are the transposes of those of flipv on the
    n x m board, listed there in full and sorted into the row-major order
    of this one.
    """
    check_mnk(m, n, k)
    budget = check_budget(m * n, budget)
    if g == "fliph":
        masks = _fliph_masks(m, n, k)
    else:  # the orbit table rejects g before the first matrix
        masks = oracle._board(m, n, k).start(_orbits((g,), m, n))
    return (BinaryMatrix.from_masks(m, n, rows)
            for rows in islice(masks, budget.max_results))


def _class_counts(m, n, k, tags, budget):
    """{tag: number of maximal m x n matrices carrying it}, for these
    tags.  Each count runs on the row search of one board, built at most
    once per call and only when a tag reads it (see the notes above): U
    (the forward sum), HTS (the fold), VHS and the square-only tags
    (listed under their orbit tables; 0 on a non-square board) on the
    narrow side; VS listed as the fixed points of flipv on the m x n
    board, and HS as those of flipv on the n x m one, each listing run
    once per call (on a square board VS and HS are one listing).  Fixed
    points are listed, so the stream's budget rule applies."""
    check_mnk(m, n, k)
    check_budget(m * n, budget)
    board = functools.cache(lambda rows, cols: oracle._board(rows, cols, k))
    narrow = (max(m, n), min(m, n))

    @functools.cache
    def listed(elements, rows, cols):
        orbits = _orbits(elements, rows, cols)
        return sum(1 for _ in board(rows, cols).start(orbits))

    counts = {}
    for tag in tags:
        if tag == "U":
            counts[tag] = board(*narrow).total()
        elif tag == "HTS":
            counts[tag] = _fold_count(board(*narrow))
        elif m != n and tag in _SQUARE_ONLY:
            counts[tag] = 0
        elif tag == "VS":
            counts[tag] = listed(("flipv",), m, n)
        elif tag == "HS":
            counts[tag] = listed(("flipv",), n, m)
        else:
            counts[tag] = listed(_TAG_ELEMENTS[tag], *narrow)
    return counts


def brute_count_class(tag, m, n, k, budget=None):
    """Count maximal IAMs in a symmetry class by search: U by the oracle's
    transfer-matrix count, any other tag as `class_histogram` counts it,
    running only the one search its count reads."""
    check_mnk(m, n, k)
    if tag == "U":
        return oracle.oracle_count(m, n, k, budget)
    if tag not in _TAG_ELEMENTS:
        raise ValueError("unknown symmetry tag %r" % (tag,))
    return _class_counts(m, n, k, (tag,), budget)[tag]


def class_histogram(m, n, k, budget=None):
    """Counter mapping each tag to the number of maximal m x n matrices
    carrying it.

    U is the oracle's transfer-matrix count: the row search's forward sum
    over its states, row by row, on the board's narrow side, whose search
    runs over min(m, n) columns: the transpose maps the maximal m x n
    matrices one to one onto the maximal n x m ones.  Every other tag is
    the number of fixed points of its subgroup (see _TAG_ELEMENTS).  HTS,
    the fixed points of rot180, is counted by folding the narrow side: it
    reads the U count's layer after the top half, and keeps each state
    when the half turn completes it, which is a test on its thresholds
    (see `_fold_count`).  The others are listed by the row search under
    their orbit tables: VS as the fixed points of flipv on the m x n
    board, HS as those of flipv on the n x m board, which the transpose
    turns into those of fliph, and VHS and the square-only tags on the
    narrow side (0 on a non-square board).  Nothing is tagged, and each
    board's search is built once, so the listings on it share each row
    state's successor rows.  The census still lists, so the default
    budget's cell cap applies when none is given; `max_results` truncates
    streams, so it does not apply to counts.
    """
    counts = _class_counts(m, n, k, _TAG_ELEMENTS, budget)
    return Counter({tag: count for tag, count in counts.items()
                    if count or tag == "U"})


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
