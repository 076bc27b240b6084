"""Search oracles: the ground truth the closed formulas are checked against.

Three routes, kept deliberately separate:

* `enumerate_maximal_iams` / `enumerate_maximal_fillings` do a pruned
  row-by-row search (safe prunes only: chain length and reachability);
  the filling search carries every not-yet-justified zero in its row state
  as a demand on later rows, so it is exact and lists no dead leaf; the
  rectangle search also takes one extra rule per row, with which
  `class_histogram` in `symmetry` lists only the matrices fixed by a group
  element, so a symmetry census never filters the full stream;
* `oracle_count` and `oracle_count_shape` count the same two searches by
  the transfer-matrix method: a memoized sum over the row state -- (row,
  C-vector, ones so far) for rectangles, (row, C-vector, demands) for skew
  shapes -- with the same transitions and prunes, so they list nothing;
* `naive_enumerate` scans every (0,1)-matrix and applies the literal
  flip-based maximality test, with no pruning at all.

Every stream is in row-major lexicographic order on the entries.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import (
    BinaryMatrix,
    Filling,
    SkewShape,
    VerificationError,
    check_mnk,
    is_maximal_filling,
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
        (mask, next C-vector, ones in the row), masks ascending.

        These are the rows with no one right of some column J, so entry i
        holds the mask i << (n - J).
        """
        got = self._succ.get(c_vec)
        if got is None:
            n, k, states = self.n, self.k, self._states
            # a one in column j >= 2 ends a chain of length C[j-2] + 1, which
            # must stay below k; C is weakly increasing, so the columns
            # where it does are a prefix 1..J, and only masks inside it are
            # tried
            free = 1 + bisect_left(c_vec, k - 1, 0, n - 1)
            shift = n - free
            got = []
            for x in range(1 << free):
                mask = x << shift
                nxt = _push_row(c_vec, mask, n, k)
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

    def _viable(self, depth, c_vec, ones, rows=None):
        """(mask, next C-vector, ones so far) for each row after this state
        that keeps the extremal count reachable; `rows`, if given, is the
        part of `succ(c_vec)` to draw from."""
        target = self.target
        rows_left = self.m - depth - 1
        for mask, nxt, pop in self.succ(c_vec) if rows is None else rows:
            o2 = ones + pop
            if o2 <= target and o2 + self.max_future(rows_left, nxt) >= target:
                yield mask, nxt, o2

    def obeying(self, c_vec, fixed, values, keep):
        """The rows of `succ(c_vec)` whose mask has these values on the
        fixed bits and passes `keep` (if given), masks ascending."""
        succ = self.succ(c_vec)
        shift = self.n + 1 - len(succ).bit_length()
        room = (len(succ) - 1) << shift  # the columns a one may take
        if values & ~room:
            return []
        # values plus each subset of the free columns, ascending
        free = room & ~fixed
        rows = []
        sub = 0
        while True:
            mask = values | sub
            if keep is None or keep(mask):
                rows.append(succ[mask >> shift])
            if sub == free:
                return rows
            sub = (sub - free) & free

    def complete(self, prefix_masks, c_vec, ones, rule=None):
        """Yield full row-mask tuples extending the given prefix.

        With a rule, yield only those whose every row obeys it, in the same
        order: `rule(rows placed so far)` gives (fixed bits, their values, a
        test the mask must pass or None) for the next row, or None when the
        row is free.
        """
        depth = len(prefix_masks)
        if depth == self.m:
            if ones == self.target:
                yield prefix_masks
            return
        rows = None
        if rule is not None:
            forced = rule(prefix_masks)
            if forced is not None:
                rows = self.obeying(c_vec, *forced)
        for mask, nxt, o2 in self._viable(depth, c_vec, ones, rows):
            yield from self.complete(prefix_masks + (mask,), nxt, o2, rule)

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
# local (no extremal ones count is assumed): the ones must stay chain-free,
# and every zero must be *justified* -- flipping it completes a k-chain.  A
# zero at (i, j) has its above-left chain U frozen once row i is placed; if
# need = k-1-U > 0 it needs a chain of `need` ones strictly below and to the
# right of it, which only later rows can supply.  That requirement joins the
# row state as a *demand*: a staircase of (column c, still-needed r) pairs,
# each an alternative "r more ones in later rows, strictly right of c".
#
# * A new row advances a pair (c, r) by its first one right of c, at column
#   j', adding the pair (j', r-1); a pair reaching 0 meets its demand, which
#   is then dropped.
# * A pair needs room below the row: r must not exceed the longest run of
#   in-shape cells strictly below-right of (i, c) (the geometric zero test),
#   nor k-1-C[c-1], since those r ones would extend the longest chain the
#   placed rows end at or left of column c.  Other pairs are dropped; a
#   demand with no pair left kills the branch.
# * Within a demand only undominated pairs stay (none other has column <=
#   and need <=); within the state only demands that no other one implies.
#
# So the state (depth, C-vector, demands) decides exactly which completions
# are valid.  The count is a memoized sum over it (the transfer-matrix
# method again), and the listing enters only states with a nonzero count,
# so it reaches no dead leaf.  Every listed filling is still put through the
# literal maximality test, as an invariant that raises if it ever fails.


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


def _first_ones(mask, n):
    """right[c]: the column of the first one of the row strictly right of
    column c, or 0 if there is none; c = 0..n."""
    right = [0] * (n + 1)
    for c in range(n - 1, -1, -1):
        right[c] = c + 1 if (mask >> (n - c - 1)) & 1 else right[c + 1]
    return right


def _implies(b, a):
    """Does meeting demand b always meet demand a?

    True when every pair of b has a pair of a with column <= and need <=.
    Both are staircases (columns ascending, needs descending), so the a-pair
    with the least need among those with column <= c is the last of them,
    and one merge over the two suffices.
    """
    t, last = -1, len(a) - 1
    for c, r in b:
        while t < last and a[t + 1][0] <= c:
            t += 1
        if t < 0 or a[t][1] > r:
            return False
    return True


def _strongest(demands):
    """The demands that no other one implies, sorted: the same conditions
    as all of them together, and one form for one set."""
    out = []
    for a in demands:
        if not any(_implies(b, a) for b in out):
            out = [b for b in out if not _implies(a, b)]
            out.append(a)
    out.sort()
    return tuple(out)


class _ShapeSearch:
    """One (shape, k) search engine: counting and listing over the row
    state (depth, C-vector, demands)."""

    def __init__(self, shape, k):
        self.shape, self.k = shape, k
        self.m, self.n = shape.n_rows, shape.n_cols
        self.geo = _geo_down_table(shape)
        self.row_masks = [_row_submasks(shape, i)
                          for i in range(1, self.m + 1)]
        self._succ = {}    # (depth, c_vec) -> [(mask, next c_vec, right,
                           #                     new demands, room)]
        self._states = {}  # c_vec -> itself, so successor lists share tuples
        self._count = {}   # (depth, c_vec, demands) -> number of completions

    def succ(self, depth, c_vec):
        """Every row after this state that completes no k-chain and leaves
        no zero unjustifiable, masks ascending, as (mask, next C-vector,
        first-one table, the demands of the row's zeros, room)."""
        key = (depth, c_vec)
        got = self._succ.get(key)
        if got is None:
            n, k, states = self.n, self.k, self._states
            lo, hi = self.shape.row_span(depth + 1)
            geo = self.geo[depth + 1]
            got = []
            for mask in self.row_masks[depth]:
                nxt = _push_row(c_vec, mask, n, k)
                if nxt is None:
                    continue
                # room[c]: the longest chain later rows can still put
                # strictly right of column c, bounded by the shape and by
                # avoidance (see the notes above)
                room = [0] + [min(geo[c], k - 1 - nxt[c - 1])
                              for c in range(1, n + 1)]
                new = []
                for j in range(lo + 1, hi + 1):
                    if not (mask >> (n - j)) & 1:
                        # the above-left chain of this zero is frozen now
                        need = k - 1 - (c_vec[j - 2] if j >= 2 else 0)
                        if need > 0:
                            if room[j] < need:
                                break
                            new.append(((j, need),))
                else:
                    got.append((mask, states.setdefault(nxt, nxt),
                                _first_ones(mask, n), new, room))
            self._succ[key] = got
        return got

    def advance(self, demands, right, new, room):
        """The demands once a row (first-one table `right`, demands of its
        zeros `new`, room below it `room`) is placed, or None if one can
        no longer be met."""
        out = list(new)
        for dem in demands:
            pairs = list(dem)
            for c, r in dem:
                j = right[c]
                if j:
                    if r == 1:
                        break  # this row completes the chain: demand met
                    pairs.append((j, r - 1))
            else:
                pairs.sort()
                kept = []
                least = self.k
                for c, r in pairs:
                    if r < least and r <= room[c]:
                        kept.append((c, r))
                        least = r
                if not kept:
                    return None
                out.append(tuple(kept))
        return _strongest(out)

    def _children(self, depth, c_vec, demands):
        """(mask, next C-vector, next demands) for each row after this
        state, masks ascending."""
        out = []
        for mask, nxt, right, new, room in self.succ(depth, c_vec):
            dem = self.advance(demands, right, new, room)
            if dem is not None:
                out.append((mask, nxt, dem))
        return out

    def count(self, depth, c_vec, demands):
        """Number of full fillings extending any prefix with this state."""
        if depth == self.m:
            return 0 if demands else 1
        key = (depth, c_vec, demands)
        got = self._count.get(key)
        if got is None:
            got = 0
            for _, nxt, dem in self._children(depth, c_vec, demands):
                got += self.count(depth + 1, nxt, dem)
            self._count[key] = got
        return got

    def complete(self, prefix_masks, c_vec, demands):
        """Yield full row-mask tuples extending the given prefix; enters a
        state only when some completion of it is valid."""
        depth = len(prefix_masks)
        if depth == self.m:
            yield prefix_masks
            return
        for mask, nxt, dem in self._children(depth, c_vec, demands):
            if self.count(depth + 1, nxt, dem):
                yield from self.complete(prefix_masks + (mask,), nxt, dem)


def _check_shape_k(shape, k):
    if not isinstance(shape, SkewShape):
        raise TypeError("shape must be a SkewShape")
    if k < 2:
        raise ValueError("k must be at least 2")


def enumerate_maximal_fillings(shape, k, budget=None):
    """All maximal I_k-avoiding fillings of a skew shape, lex order.

    The shape may be any well-formed skew diagram; no staircase-style
    admissibility is required here (the determinant formulas are pickier).
    Each filling is re-checked by `is_maximal_filling`; a failure there is
    an error in this search, and raises.
    """
    _check_shape_k(shape, k)
    budget = budget or DEFAULT_BUDGET
    _check_budget(shape.cell_count(), budget)
    search = _ShapeSearch(shape, k)
    emitted = 0
    for masks in search.complete((), (0,) * search.n, ()):
        F = Filling.from_masks(shape, masks)
        if not is_maximal_filling(F, k):
            raise VerificationError("filling search yielded a non-maximal "
                                    "filling: %r" % (F,))
        yield F
        emitted += 1
        if budget.max_results is not None and emitted >= budget.max_results:
            return


def oracle_count_shape(shape, k, budget=None):
    """Number of maximal I_k-avoiding fillings of the shape, by transfer
    matrix.

    Sums the search of `enumerate_maximal_fillings` over its states, so the
    result equals the length of that stream, but no filling is built.  A
    budget is checked only when one is given, as for `oracle_count`.
    """
    _check_shape_k(shape, k)
    if budget is not None:
        _check_budget(shape.cell_count(), budget)
    search = _ShapeSearch(shape, k)
    return search.count(0, (0,) * search.n, ())


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
