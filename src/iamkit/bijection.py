"""Maximal-matrix <-> path-family <-> plane-partition correspondences.

Lattice convention: matrix cell (i, j) sits at the point (x, y) = (j-1, m-i),
so the bottom-left entry (m, 1) is the origin and the level of a cell is
x + y = (j - i) + m - 1.  Paths take unit east/north steps.

For a maximal I_k-avoiding m x n matrix the ones on levels k-2 through
m+n-k split into k-1 nonintersecting paths; path s (counted from the
bottom) runs from u_s = (k-1-s, s-1) to v_s = (n-s, m-k+s).  The zeros
then encode a plane partition in an (m-k+1) x (n-k+1) x (k-1) box.
"""

from __future__ import annotations

import functools

from .core import (
    BinaryMatrix,
    Partition,
    _Record,
    check_box,
    check_mnk,
    is_maximal_iam,
    max_ones,
)


# ---------------------------------------------------------------------------
# plane partitions


class PlanePartition(_Record):
    """An a x b array pi of integers in [0, c], weakly decreasing along rows
    and down columns; the all-zero array is allowed."""

    __slots__ = ("a", "b", "c", "pi")

    def __init__(self, a, b, c, pi):
        check_box(a, b, c)
        pi = tuple(tuple(row) for row in pi)
        if len(pi) != a or any(len(row) != b for row in pi):
            raise ValueError("array must be %d x %d" % (a, b))
        for row in pi:
            for x in row:
                if type(x) is not int:
                    raise ValueError("entries must be integers, got %r"
                                     % (x,))
        for i in range(a):
            for j in range(b):
                x = pi[i][j]
                if not 0 <= x <= c:
                    raise ValueError("entry %d out of [0, %d]" % (x, c))
                if j + 1 < b and pi[i][j + 1] > x:
                    raise ValueError("rows must weakly decrease")
                if i + 1 < a and pi[i + 1][j] > x:
                    raise ValueError("columns must weakly decrease")
        self._set(a, b, c, pi)

    def volume(self):
        return sum(sum(row) for row in self.pi)

    def trace(self):
        return sum(self.pi[i][i] for i in range(min(self.a, self.b)))

    def to_json_dict(self):
        return {"a": self.a, "b": self.b, "c": self.c,
                "pi": [list(r) for r in self.pi]}

    @classmethod
    def from_json_dict(cls, obj):
        return cls(obj["a"], obj["b"], obj["c"], obj["pi"])


def enumerate_pp(a, b, c):
    """All plane partitions in an a x b x c box (recursive row search).  The
    box sides are checked when called, before the first plane partition."""
    check_box(a, b, c)
    if a == 0 or b == 0:
        return iter((PlanePartition(a, b, c, tuple(() for _ in range(a))),))

    def rows_below(bound):
        # weakly decreasing rows pointwise <= bound
        def rec(pos, prev, acc):
            if pos == b:
                yield tuple(acc)
                return
            hi = min(prev, bound[pos])
            for x in range(hi + 1):
                acc.append(x)
                yield from rec(pos + 1, x, acc)
                acc.pop()
        yield from rec(0, c, [])

    def rec_rows(i, prev_row, acc):
        if i == a:
            yield PlanePartition(a, b, c, tuple(acc))
            return
        for row in rows_below(prev_row):
            acc.append(row)
            yield from rec_rows(i + 1, row, acc)
            acc.pop()

    return rec_rows(0, (c,) * b, [])


def pp_layers(pp):
    """The horizontal slices: layer s is the partition whose row i part is
    #{j : pi[i][j] >= s}, for s = 1..c.  Weakly nested downward."""
    out = []
    for s in range(1, pp.c + 1):
        parts = []
        for row in pp.pi:
            cnt = sum(1 for x in row if x >= s)
            parts.append(cnt)
        while parts and parts[-1] == 0:
            parts.pop()
        out.append(Partition(parts))
    return out


# ---------------------------------------------------------------------------
# path families


def _point(pt):
    """A path point as an (x, y) tuple of integers, or ValueError."""
    if type(pt) not in (tuple, list) or len(pt) != 2:
        raise ValueError("a path point must be a pair (x, y), got %r" % (pt,))
    x, y = pt
    if type(x) is not int or type(y) is not int:  # not bool, float or str
        raise ValueError("path coordinates must be integers, got %r" % (pt,))
    return x, y


class PathFamily(_Record):
    """A tuple of lattice paths, each a tuple of (x, y) points."""

    __slots__ = ("paths",)

    def __init__(self, paths):
        self._set(tuple(tuple(map(_point, p)) for p in paths))

    @classmethod
    def _of(cls, paths):
        """From tuples of integer (x, y) tuples, taken as they are: the
        point checks of `__init__` would add a third to `matrix_to_paths`
        (6.5 us on 18 us per 6x6 matrix, k = 4)."""
        obj = object.__new__(cls)
        obj._set(tuple(paths))
        return obj

    def to_json(self):
        return [[[x, y] for (x, y) in p] for p in self.paths]

    @classmethod
    def from_json(cls, obj):
        return cls(obj)


def path_endpoints(m, n, k):
    """Canonical start/end points: path s runs u_s -> v_s, s = 1..k-1.
    Built once per board, as tuples, so no caller can change them.  The
    board is checked before the cache is read: (3, 3.0, 2) would find the
    entry of (3, 3, 2), or leave its float points there for it."""
    check_mnk(m, n, k)
    return _path_endpoints(m, n, k)


@functools.cache
def _path_endpoints(m, n, k):
    """path_endpoints of a board already checked."""
    starts = tuple((k - 1 - s, s - 1) for s in range(1, k))
    ends = tuple((n - s, m - k + s) for s in range(1, k))
    return starts, ends


def _require_maximal(M, k):
    if not is_maximal_iam(M, k):
        raise ValueError("input must be a maximal I_k-avoiding matrix")


def _require_walk(path, s):
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        if not (x1 == x0 + 1 and y1 == y0 or x1 == x0 and y1 == y0 + 1):
            raise ValueError("path %d is not a unit east/north walk"
                             % (s + 1,))


def _points_by_level(masks, m, n):
    """The ones of an m x n matrix as lattice points, listed by level
    0..m+n-2 and within a level with y ascending."""
    by_level = [[] for _ in range(m + n - 1)]
    # rows bottom up; a row meets a level at most once
    for y, mk in enumerate(reversed(masks)):
        while mk:
            b = mk.bit_length()
            mk ^= 1 << (b - 1)
            x = n - b  # column j = n + 1 - b
            by_level[x + y].append((x, y))
    return by_level


def matrix_to_paths(M, k):
    """Split the ones of a maximal matrix into its k-1 nonintersecting paths.

    The ones whose level lies in [k-2, m+n-k] are exactly the path points:
    each such level carries k-1 of them, and joining the s-th lowest point
    of every level gives path s.  Everything is checked along the way, so a
    non-maximal input raises ValueError.
    """
    m, n = M.m, M.n
    check_mnk(m, n, k)
    _require_maximal(M, k)
    lo, hi = k - 2, m + n - k
    by_level = _points_by_level(M.masks, m, n)[lo:hi + 1]
    for lev, pts in enumerate(by_level, start=lo):
        if len(pts) != k - 1:
            raise ValueError("level %d carries %d path points, expected %d"
                             % (lev, len(pts), k - 1))
    paths = list(zip(*by_level))
    starts, ends = _path_endpoints(m, n, k)
    for s, path in enumerate(paths):
        if path[0] != starts[s] or path[-1] != ends[s]:
            raise ValueError("path %d has endpoints %r..%r"
                             % (s + 1, path[0], path[-1]))
        _require_walk(path, s)
    return PathFamily._of(paths)


@functools.cache
def _staircase_masks(m, n, k):
    """The forced ones off the path window, as a tuple of row masks built
    once per board: two corner staircases.

    Lower-left: columns j <= k-1, rows i >= m-k+j+1, so the first
    i-m+k-1 columns of row i.  Upper-right: rows i <= k-1, columns
    j >= n-k+i+1, so the last k-i columns of row i.  Their outer diagonals
    are the path anchors; the strictly interior cells lie outside the level
    window.
    """
    masks = [0] * m
    for i in range(1, m + 1):
        left = i - m + k - 1
        if left > 0:
            masks[i - 1] |= ((1 << left) - 1) << (n - left)
        if i < k:
            masks[i - 1] |= (1 << (k - i)) - 1
    return tuple(masks)


def paths_to_matrix(paths, m, n, k):
    """Rebuild the matrix from its path family: ones along the paths plus
    the two forced corner staircases."""
    check_mnk(m, n, k)
    if not isinstance(paths, PathFamily):
        paths = PathFamily(paths)
    fam = paths.paths
    if len(fam) != k - 1:
        raise ValueError("expected %d paths, got %d" % (k - 1, len(fam)))
    starts, ends = _path_endpoints(m, n, k)
    on_paths = [0] * m
    for s, path in enumerate(fam):
        if not path or path[0] != starts[s] or path[-1] != ends[s]:
            raise ValueError("path %d endpoints are off" % (s + 1,))
        _require_walk(path, s)
        for pt in path:
            i, j = m - pt[1], pt[0] + 1
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError("cell %r out of range" % ((i, j),))
            bit = 1 << (n - j)
            if on_paths[i - 1] & bit:
                raise ValueError("paths intersect at %r" % (pt,))
            on_paths[i - 1] |= bit
    masks = [a | b for a, b in zip(on_paths, _staircase_masks(m, n, k))]
    M = BinaryMatrix.from_masks(m, n, masks)
    if not is_maximal_iam(M, k):
        raise ValueError("reconstruction is not maximal")
    return M


# ---------------------------------------------------------------------------
# matrix <-> plane partition


def matrix_to_pp(M, k):
    """Encode the zeros of a maximal matrix as a plane partition.

    A zero at (i, j) with h ones further down its diagonal is recorded as
    entry h at position (i - (k-1) + h, j - (k-1) + h); each position of the
    (m-k+1) x (n-k+1) array is hit exactly once.
    """
    m, n = M.m, M.n
    check_mnk(m, n, k)
    _require_maximal(M, k)
    a, b, c = m - k + 1, n - k + 1, k - 1
    grid = [None] * (a * b)  # row-major
    full = (1 << n) - 1
    # below[j-1]: the ones strictly down-diagonal of (i, j), for the
    # current row i, built from the row under it, bottom up; below[n] = 0
    below = [0] * (n + 1)
    for i in range(m, 0, -1):
        mk = M.masks[i - 1]
        z = ~mk & full
        while z:
            bl = z.bit_length()
            z ^= 1 << (bl - 1)
            j = n + 1 - bl
            h = below[j - 1]
            r, s = i - c + h, j - c + h
            if not (1 <= r <= a and 1 <= s <= b):
                raise ValueError("zero (%d,%d) lands outside the array"
                                 % (i, j))
            if grid[(r - 1) * b + s - 1] is not None:
                raise ValueError("array position (%d,%d) hit twice" % (r, s))
            grid[(r - 1) * b + s - 1] = h
        # row i-1 sees (i, j+1) and what lies below it
        below = [((mk >> (n - 2 - t)) & 1) + below[t + 1]
                 for t in range(n - 1)] + [0, 0]
    if None in grid:
        raise ValueError("some array position was never hit")
    return PlanePartition(a, b, c, tuple(tuple(grid[r * b:(r + 1) * b])
                                         for r in range(a)))


def pp_to_matrix(pp, m, n, k):
    """Decode: position (r, s) with entry h puts a zero at
    (k-1 + r - h, k-1 + s - h); all other cells are ones."""
    check_mnk(m, n, k)
    if (pp.a, pp.b, pp.c) != (m - k + 1, n - k + 1, k - 1):
        raise ValueError("array box %r does not match (m, n, k)" %
                         ((pp.a, pp.b, pp.c),))
    masks = [(1 << n) - 1] * m
    for r, row in enumerate(pp.pi, start=1):
        for s, h in enumerate(row, start=1):
            i, j = k - 1 + r - h, k - 1 + s - h
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError("entry at (%d,%d) places a zero outside the "
                                 "matrix" % (r, s))
            bit = 1 << (n - j)
            if not masks[i - 1] & bit:
                raise ValueError("two entries place the same zero")
            masks[i - 1] ^= bit
    M = BinaryMatrix.from_masks(m, n, masks)
    if not is_maximal_iam(M, k):
        raise ValueError("decoded matrix is not maximal")
    return M


# ---------------------------------------------------------------------------
# zigzag decompositions


def count_zigzag_decompositions(M, k):
    """Number of ways to split the ones of M into k-1 zigzag paths of the
    prescribed lengths m+n-1, m+n-3, ..., m+n-(2k-3).

    A zigzag path occupies one cell per level on a contiguous run of levels,
    consecutive cells adjacent by a unit east/north step.  This sums level
    by level and assumes nothing about where the paths sit.  After a level
    the live chains end at exactly its points, in y order, since a chain
    steps east (same y) or north (y+1) and two never cross.  So the layer
    is {(start level of each live chain, lengths still wanted as a bit
    set): ways}.  Into the next level each chain steps to a free neighbour
    or closes at a wanted length, the points left over start chains, and
    no more chains stay live than lengths are wanted.

    On each level of a maximal matrix's path window [k-2, m+n-k] but the
    first, point s is one step from point s of the level below and all k-1
    lengths are still wanted, so no chain can close and the layer carries
    over untouched: only the corner staircases are summed chain by chain.
    No two histories meet before the window, so up to (k-1)! states cross
    it.
    """
    m, n = M.m, M.n
    check_mnk(m, n, k)
    _require_maximal(M, k)
    if M.ones_count() != max_ones(m, n, k):
        raise ValueError("input must hold the extremal number of ones")
    layer = {((), sum(1 << (m + n + 1 - 2 * s) for s in range(1, k))): 1}
    # an empty level on either side: none below the first, and one past the
    # top that closes every chain
    levels = [[]] + _points_by_level(M.masks, m, n) + [[]]
    for lev, (below, pts) in enumerate(zip(levels, levels[1:])):
        size = len(pts)
        # point a one step from point a below, and no chain can close (at
        # a wanted length, leaving one per point): every chain steps to
        # the point at its own position, and none starts
        if (size == len(below)
                and all(y - v in (0, 1) for (_, y), (_, v) in zip(pts, below))
                and not any(rem.bit_count() > size
                            and any(rem >> (lev - s) & 1 for s in starts)
                            for starts, rem in layer)):
            continue
        at = {p: t for t, p in enumerate(pts)}
        # moves[a]: the points one east/north step from point a of the
        # level below, as positions on this level, ascending
        moves = [[at[p] for p in ((x + 1, y), (x, y + 1)) if p in at]
                 for (x, y) in below]
        nxt = {}
        pad = [(lev,) * t for t in range(size + 1)]  # fresh chains start here
        for (starts, rem), ways in layer.items():
            if rem.bit_count() < size:
                continue  # more points than lengths still wanted
            # chain by chain: (starts at positions 0..last, last, wanted)
            partial = [((), -1, rem)]
            for a, s in enumerate(starts):
                bit = 1 << (lev - s)
                grown = []
                for head, last, r in partial:
                    for t in moves[a]:
                        if t > last:
                            grown.append(
                                (head + pad[t - last - 1] + (s,), t, r))
                    if r & bit and r.bit_count() > size:
                        grown.append((head, last, r ^ bit))
                partial = grown
            for head, last, r in partial:
                key = (head + pad[size - 1 - last], r)
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return layer.get(((), 0), 0)
