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

from .core import (
    BinaryMatrix,
    Partition,
    check_mnk,
    diag_ones_below,
    is_maximal_iam,
    max_ones,
)


# ---------------------------------------------------------------------------
# plane partitions


class PlanePartition:
    """An a x b array pi of integers in [0, c], weakly decreasing along rows
    and down columns; the all-zero array is allowed."""

    __slots__ = ("a", "b", "c", "pi")

    def __init__(self, a, b, c, pi):
        if a < 0 or b < 0 or c < 0:
            raise ValueError("box sides must be nonnegative")
        pi = tuple(tuple(int(x) for x in row) for row in pi)
        if len(pi) != a or any(len(row) != b for row in pi):
            raise ValueError("array must be %d x %d" % (a, b))
        for i in range(a):
            for j in range(b):
                x = pi[i][j]
                if not 0 <= x <= c:
                    raise ValueError("entry %d out of [0, %d]" % (x, c))
                if j + 1 < b and pi[i][j + 1] > x:
                    raise ValueError("rows must weakly decrease")
                if i + 1 < a and pi[i + 1][j] > x:
                    raise ValueError("columns must weakly decrease")
        self.a, self.b, self.c = a, b, c
        self.pi = pi

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

    def __eq__(self, other):
        if not isinstance(other, PlanePartition):
            return NotImplemented
        return (self.a, self.b, self.c, self.pi) == \
            (other.a, other.b, other.c, other.pi)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.pi))

    def __repr__(self):
        return "PlanePartition(%d, %d, %d, %r)" % (self.a, self.b, self.c,
                                                   [list(r) for r in self.pi])


def enumerate_pp(a, b, c):
    """All plane partitions in an a x b x c box (recursive row search)."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    if a == 0 or b == 0:
        yield PlanePartition(a, b, c, tuple(() for _ in range(a)))
        return

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

    yield from rec_rows(0, (c,) * b, [])


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


class PathFamily:
    """A tuple of lattice paths, each a tuple of (x, y) points."""

    __slots__ = ("paths",)

    def __init__(self, paths):
        self.paths = tuple(tuple((int(x), int(y)) for (x, y) in p)
                           for p in paths)

    def to_json(self):
        return [[[x, y] for (x, y) in p] for p in self.paths]

    @classmethod
    def from_json(cls, obj):
        return cls(obj)

    def __eq__(self, other):
        if not isinstance(other, PathFamily):
            return NotImplemented
        return self.paths == other.paths

    def __hash__(self):
        return hash(self.paths)

    def __repr__(self):
        return "PathFamily(%r)" % (self.paths,)


def path_endpoints(m, n, k):
    """Canonical start/end points: path s runs u_s -> v_s, s = 1..k-1."""
    check_mnk(m, n, k)
    starts = [(k - 1 - s, s - 1) for s in range(1, k)]
    ends = [(n - s, m - k + s) for s in range(1, k)]
    return starts, ends


def _cell_to_point(i, j, m):
    return (j - 1, m - i)


def _point_to_cell(x, y, m):
    return (m - y, x + 1)


def _require_maximal(M, k):
    if not is_maximal_iam(M, k):
        raise ValueError("input must be a maximal I_k-avoiding matrix")


def _require_walk(path, s):
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        if (x1 - x0, y1 - y0) not in ((1, 0), (0, 1)):
            raise ValueError("path %d is not a unit east/north walk"
                             % (s + 1,))


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
    by_level = {lev: [] for lev in range(lo, hi + 1)}
    for (i, j) in M.one_cells():
        x, y = _cell_to_point(i, j, m)
        lev = x + y
        if lo <= lev <= hi:
            by_level[lev].append((x, y))
    paths = [[] for _ in range(k - 1)]
    for lev in range(lo, hi + 1):
        pts = sorted(by_level[lev], key=lambda p: p[1])
        if len(pts) != k - 1:
            raise ValueError("level %d carries %d path points, expected %d"
                             % (lev, len(pts), k - 1))
        for s in range(k - 1):
            paths[s].append(pts[s])
    starts, ends = path_endpoints(m, n, k)
    for s, path in enumerate(paths):
        if path[0] != starts[s] or path[-1] != ends[s]:
            raise ValueError("path %d has endpoints %r..%r"
                             % (s + 1, path[0], path[-1]))
        _require_walk(path, s)
    return PathFamily(paths)


def _staircase_cells(m, n, k):
    """The forced ones off the path window: two corner staircases.

    Lower-left: columns j <= k-1, rows i >= m-k+j+1.  Upper-right: rows
    i <= k-1, columns j >= n-k+i+1.  Their outer diagonals are the path
    anchors; the strictly interior cells lie outside the level window.
    """
    cells = set()
    for j in range(1, k):
        for i in range(m - k + j + 1, m + 1):
            cells.add((i, j))
    for i in range(1, k):
        for j in range(n - k + i + 1, n + 1):
            cells.add((i, j))
    return cells


def paths_to_matrix(paths, m, n, k):
    """Rebuild the matrix from its path family: ones along the paths plus
    the two forced corner staircases."""
    check_mnk(m, n, k)
    if isinstance(paths, PathFamily):
        fam = paths.paths
    else:
        fam = tuple(tuple(p) for p in paths)
    if len(fam) != k - 1:
        raise ValueError("expected %d paths, got %d" % (k - 1, len(fam)))
    starts, ends = path_endpoints(m, n, k)
    seen = set()
    cells = _staircase_cells(m, n, k)
    for s, path in enumerate(fam):
        if not path or path[0] != tuple(starts[s]) \
                or path[-1] != tuple(ends[s]):
            raise ValueError("path %d endpoints are off" % (s + 1,))
        _require_walk(path, s)
        for pt in path:
            if pt in seen:
                raise ValueError("paths intersect at %r" % (pt,))
            seen.add(pt)
            cells.add(_point_to_cell(pt[0], pt[1], m))
    masks = [0] * m
    for (i, j) in cells:
        if not (1 <= i <= m and 1 <= j <= n):
            raise ValueError("cell %r out of range" % ((i, j),))
        masks[i - 1] |= 1 << (n - j)
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
    grid = [[None] * b for _ in range(a)]
    for (i, j) in M.zero_cells():
        h = diag_ones_below(M, i, j)
        r, s = i - (k - 1) + h, j - (k - 1) + h
        if not (1 <= r <= a and 1 <= s <= b):
            raise ValueError("zero (%d,%d) lands outside the array" % (i, j))
        if grid[r - 1][s - 1] is not None:
            raise ValueError("array position (%d,%d) hit twice" % (r, s))
        grid[r - 1][s - 1] = h
    if any(x is None for row in grid for x in row):
        raise ValueError("some array position was never hit")
    return PlanePartition(a, b, c, tuple(tuple(row) for row in grid))


def pp_to_matrix(pp, m, n, k):
    """Decode: position (r, s) with entry h puts a zero at
    (k-1 + r - h, k-1 + s - h); all other cells are ones."""
    check_mnk(m, n, k)
    if (pp.a, pp.b, pp.c) != (m - k + 1, n - k + 1, k - 1):
        raise ValueError("array box %r does not match (m, n, k)" %
                         ((pp.a, pp.b, pp.c),))
    zeros = set()
    for r in range(1, pp.a + 1):
        for s in range(1, pp.b + 1):
            h = pp.pi[r - 1][s - 1]
            i, j = k - 1 + r - h, k - 1 + s - h
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError("entry at (%d,%d) places a zero outside the "
                                 "matrix" % (r, s))
            if (i, j) in zeros:
                raise ValueError("two entries place the same zero")
            zeros.add((i, j))
    full = (1 << n) - 1
    masks = [full] * m
    for (i, j) in zeros:
        masks[i - 1] &= ~(1 << (n - j))
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
    consecutive cells adjacent by a unit east/north step.  This sweeps the
    levels directly and counts every partition of the ones into such paths;
    it does not assume anything about where the paths must sit.
    """
    m, n = M.m, M.n
    check_mnk(m, n, k)
    _require_maximal(M, k)
    if M.ones_count() != max_ones(m, n, k):
        raise ValueError("input must hold the extremal number of ones")
    top = m + n - 2
    by_level = {lev: [] for lev in range(top + 1)}
    for (i, j) in M.one_cells():
        x, y = _cell_to_point(i, j, m)
        by_level[x + y].append((x, y))
    for lev in range(top + 1):
        by_level[lev].sort()
    lengths = frozenset(m + n - (2 * s - 1) for s in range(1, k))

    def close(length, remaining):
        return remaining - {length} if length in remaining else None

    def sweep(lev, active, remaining, opened):
        # active: tuple of (point, length) for chains whose last point is on
        # level lev-1
        if lev > top:
            rem = remaining
            for (_, length) in active:
                rem2 = close(length, rem)
                if rem2 is None:
                    return 0
                rem = rem2
            return 1 if (opened == k - 1 and not rem) else 0
        pts = by_level[lev]
        total = 0

        # each point either extends one unused adjacent active chain or
        # starts a new one; chains left unextended close at this level
        def assign(idx, used, updates, starts):
            nonlocal total
            if idx == len(pts):
                rem = remaining
                nxt_active = []
                for pos, (pt, length) in enumerate(active):
                    if pos in updates:
                        nxt_active.append((updates[pos], length + 1))
                    else:
                        rem = close(length, rem)
                        if rem is None:
                            return
                opened2 = opened + len(starts)
                if opened2 <= k - 1:
                    nxt_active.extend((p, 1) for p in starts)
                    total += sweep(lev + 1, tuple(nxt_active), rem, opened2)
                return
            x, y = pts[idx]
            for pos, (pt, length) in enumerate(active):
                if pos in used:
                    continue
                px, py = pt
                if (x - px, y - py) in ((1, 0), (0, 1)):
                    updates[pos] = (x, y)
                    assign(idx + 1, used | {pos}, updates, starts)
                    del updates[pos]
            starts.append((x, y))
            assign(idx + 1, used, updates, starts)
            starts.pop()

        assign(0, frozenset(), {}, [])
        return total

    return sweep(0, (), lengths, 0)
