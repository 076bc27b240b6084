"""Search oracles: the ground truth the closed formulas are checked against.

Three routes, kept deliberately separate:

* `enumerate_maximal_iams` / `enumerate_maximal_fillings` do a pruned
  row-by-row search (safe prunes only: chain length and reachability);
* `oracle_count` counts the same rectangle search by the transfer-matrix
  method: a memoized sum over the row state (row, C-vector, ones so far),
  with the same transitions and the same two prunes, so it lists no
  matrix.  `class_histogram` in `symmetry` filters the listed stream
  instead, so symmetry censuses stay a brute-force route;
* `naive_enumerate` scans every (0,1)-matrix and applies the literal
  flip-based maximality test, with no pruning at all.

Every stream is in row-major lexicographic order on the entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BinaryMatrix,
    Filling,
    SkewShape,
    check_mnk,
    is_maximal_iam_by_flips,
    max_ones,
)


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for a search: refuse big boards, optionally truncate the stream."""

    max_cells: int = 64
    max_results: int | None = None


DEFAULT_BUDGET = EnumerationBudget()


class BudgetExceeded(RuntimeError):
    """A search was asked to touch a board larger than its budget allows."""


def _check_budget(cells, budget):
    if cells > budget.max_cells:
        raise BudgetExceeded(
            "board has %d cells, budget allows %d" % (cells, budget.max_cells))


# ---------------------------------------------------------------------------
# rectangle search
#
# Rows are placed top to bottom.  The interface between the placed prefix and
# the future is the vector C with C[j] = longest chain among placed rows that
# ends in a column <= j+1 (weakly increasing in j).  A new row mask updates C
# in one left-to-right sweep; a new one in column j would end a chain of
# length C[j-1]+1, which must stay below k.


def _push_row(c_vec, mask, n, k):
    """C-vector after one more row; None if the row completes a k-chain."""
    out = []
    prev = 0
    for j in range(n):
        v = c_vec[j]
        if (mask >> (n - 1 - j)) & 1:
            w = (c_vec[j - 1] if j else 0) + 1
            if w >= k:
                return None
            if w > v:
                v = w
        if prev > v:
            v = prev
        out.append(v)
        prev = v
    return tuple(out)


class _RectSearch:
    """One (m, n, k) search engine: listing, counting and the bound they share.

    A branch is cut when its ones overshoot the extremal count or when even
    the most ones the remaining rows can add fall short of it.
    """

    def __init__(self, m, n, k):
        self.m, self.n, self.k = m, n, k
        self.target = max_ones(m, n, k)
        self._succ = {}    # c_vec -> [(mask, next c_vec, popcount)]
        self._states = {}  # c_vec -> itself, so successor lists share tuples
        self._future = {}  # (rows_left, c_vec) -> max additional ones
        self._count = {}   # (depth, c_vec, ones) -> number of completions

    def succ(self, c_vec):
        """Every row that completes no k-chain after this C-vector, as
        (mask, next C-vector, ones in the row), masks ascending."""
        got = self._succ.get(c_vec)
        if got is None:
            n, k, states = self.n, self.k, self._states
            got = []
            for mask in range(1 << n):
                nxt = _push_row(c_vec, mask, n, k)
                if nxt is not None:
                    got.append((mask, states.setdefault(nxt, nxt),
                                mask.bit_count()))
            self._succ[c_vec] = got
        return got

    def max_future(self, rows_left, c_vec):
        """Most ones any avoiding completion of this prefix can still add.

        Exact, not a heuristic: ones are monotone (dropping a 1 keeps a
        matrix avoiding), so a branch can reach the extremal count iff this
        value covers the deficit.
        """
        if rows_left == 0:
            return 0
        key = (rows_left, c_vec)
        got = self._future.get(key)
        if got is not None:
            return got
        best = 0
        for _, nxt, pop in self.succ(c_vec):
            val = pop + self.max_future(rows_left - 1, nxt)
            if val > best:
                best = val
        self._future[key] = best
        return best

    def _viable(self, depth, c_vec, ones):
        """(mask, next C-vector, ones so far) for each row after this state
        that keeps the extremal count reachable."""
        target = self.target
        rows_left = self.m - depth - 1
        for mask, nxt, pop in self.succ(c_vec):
            o2 = ones + pop
            if o2 <= target and o2 + self.max_future(rows_left, nxt) >= target:
                yield mask, nxt, o2

    def complete(self, prefix_masks, c_vec, ones):
        """Yield full row-mask tuples extending the given prefix."""
        depth = len(prefix_masks)
        if depth == self.m:
            if ones == self.target:
                yield prefix_masks
            return
        for mask, nxt, o2 in self._viable(depth, c_vec, ones):
            yield from self.complete(prefix_masks + (mask,), nxt, o2)

    def count(self, depth, c_vec, ones):
        """Number of full matrices extending any prefix with this state."""
        if depth == self.m:
            return 1 if ones == self.target else 0
        key = (depth, c_vec, ones)
        got = self._count.get(key)
        if got is None:
            got = sum(self.count(depth + 1, nxt, o2)
                      for _, nxt, o2 in self._viable(depth, c_vec, ones))
            self._count[key] = got
        return got


def enumerate_maximal_iams(m, n, k, budget=None):
    """All maximal I_k-avoiding m x n matrices, row-major lex order."""
    budget = budget or DEFAULT_BUDGET
    check_mnk(m, n, k)
    _check_budget(m * n, budget)
    search = _RectSearch(m, n, k)
    emitted = 0
    for masks in search.complete((), (0,) * n, 0):
        yield BinaryMatrix.from_masks(m, n, masks)
        emitted += 1
        if budget.max_results is not None and emitted >= budget.max_results:
            return


def oracle_count(m, n, k, budget=None):
    """Number of maximal I_k-avoiding m x n matrices, by transfer matrix.

    Sums the row-by-row search of `enumerate_maximal_iams` over its states
    instead of walking its leaves: same transitions, same prunes, so the
    result equals the length of that stream, but no matrix is built.  A
    budget is checked only when one is given; the default listing cap does
    not apply, since nothing is listed.
    """
    check_mnk(m, n, k)
    if budget is not None:
        _check_budget(m * n, budget)
    return _RectSearch(m, n, k).count(0, (0,) * n, 0)


# ---------------------------------------------------------------------------
# skew-shape search
#
# Same row-by-row scheme over the cells of a skew shape.  Maximality is now
# local (no extremal ones count is assumed), so the search prunes on two
# facts only: the ones must stay chain-free, and every already-placed zero
# must still be *justifiable* -- some future flip chain through it could
# reach length k.  For a zero at (i, j) the chain above-left is frozen once
# row i is placed, and the below-right part is bounded by the purely
# geometric chain of in-shape cells, so the test is exact at placement time.
# Each leaf is then verified by the literal local-maximality test.


def _geo_down_table(shape):
    """geo[i][j]: longest strictly-increasing run of in-shape cells starting
    strictly below and to the right of (i, j)."""
    m, n = shape.n_rows, shape.n_cols
    geo = [[0] * (n + 2) for _ in range(m + 2)]
    best = [[0] * (n + 2) for _ in range(m + 2)]  # run starting at (i, j)
    for i in range(m, 0, -1):
        for j in range(n, 0, -1):
            g = max(geo[i + 1][j], geo[i][j + 1], best[i + 1][j + 1])
            geo[i][j] = g
            if shape.contains_cell(i, j):
                best[i][j] = g + 1
    return geo


def _row_submasks(shape, i):
    """All masks supported on row i's cells, ascending (= lex on entries)."""
    lo, hi = shape.row_span(i)
    n = shape.n_cols
    bits = [1 << (n - j) for j in range(lo + 1, hi + 1)]
    out = [0]
    for b in bits:
        out += [x | b for x in out]
    return sorted(out)


def enumerate_maximal_fillings(shape, k, budget=None):
    """All maximal I_k-avoiding fillings of a skew shape, lex order.

    The shape may be any well-formed skew diagram; no staircase-style
    admissibility is required here (the determinant formulas are pickier).
    """
    if not isinstance(shape, SkewShape):
        raise TypeError("shape must be a SkewShape")
    if k < 2:
        raise ValueError("k must be at least 2")
    budget = budget or DEFAULT_BUDGET
    _check_budget(shape.cell_count(), budget)
    m, n = shape.n_rows, shape.n_cols
    geo = _geo_down_table(shape)
    row_masks = [_row_submasks(shape, i) for i in range(1, m + 1)]
    spans = [shape.row_span(i) for i in range(1, m + 1)]

    def leaf_ok(masks):
        F = Filling.from_masks(shape, masks)
        # the chain prune already guarantees avoidance; re-check flips exactly
        from .core import _filling_chain_tables
        U, D = _filling_chain_tables(F)
        for (i, j) in F.zero_cells():
            if U[i][j] + 1 + D[i][j] < k:
                return False
        return True

    def rec(depth, placed, c_vec):
        if depth == m:
            if leaf_ok(placed):
                yield Filling.from_masks(shape, placed)
            return
        i = depth + 1
        lo, hi = spans[depth]
        for mask in row_masks[depth]:
            nxt = _push_row(c_vec, mask, n, k)
            if nxt is None:
                continue
            ok = True
            for j in range(lo + 1, hi + 1):
                if not (mask >> (n - j)) & 1:
                    # the above-left chain of this zero is frozen now; rows
                    # below can only add the below-right part, which the
                    # geometric table bounds exactly
                    up = c_vec[j - 2] if j >= 2 else 0
                    if up + 1 + geo[i][j] < k:
                        ok = False
                        break
            if not ok:
                continue
            yield from rec(depth + 1, placed + (mask,), nxt)

    emitted = 0
    for F in rec(0, (), (0,) * n):
        yield F
        emitted += 1
        if budget.max_results is not None and emitted >= budget.max_results:
            return


def oracle_count_shape(shape, k, budget=None):
    """Number of maximal I_k-avoiding fillings of the shape, by search."""
    return sum(1 for _ in enumerate_maximal_fillings(shape, k, budget))


# ---------------------------------------------------------------------------
# the prune-free certifier


def naive_enumerate(m, n, k):
    """Scan all 2^(mn) matrices; keep those passing the literal flip test.

    Restricted to m*n <= 16 cells.  Completely independent of the pruned
    search: different traversal, different maximality test.
    """
    check_mnk(m, n, k)
    if m * n > 16:
        raise BudgetExceeded("naive scan is capped at 16 cells")
    out = []
    for code in range(1 << (m * n)):
        # code's bits, row-major, most significant bit = entry (1,1)
        masks = []
        shift = m * n
        for _ in range(m):
            shift -= n
            masks.append((code >> shift) & ((1 << n) - 1))
        M = BinaryMatrix.from_masks(m, n, masks)
        if is_maximal_iam_by_flips(M, k):
            out.append(M)
    return out
