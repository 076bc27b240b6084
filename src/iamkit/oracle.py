"""Search oracles: the ground truth the closed formulas are checked against.

Three routes, kept deliberately separate:

* `enumerate_maximal_iams` / `enumerate_maximal_fillings` list by one
  pruned row-by-row search over a board given by its row spans, a
  rectangle's rows each spanning every column (`_board`); its row state
  is the placed rows' chain thresholds, and it places a row only if the
  row completes no k-chain and leaves each zero room below for the chain
  it needs.  No such row strands a zero placed
  earlier (Fact C of the row-search notes), so the search is exact,
  assumes nothing about the ones count and lists no dead leaf; it also
  takes a subgroup's orbit table (`symmetry._orbits`), one entry per row,
  with which it lists only the matrices the subgroup fixes (each cell a
  copy of the first cell of its orbit), so a symmetry census never
  filters the full stream; a state's successor rows are found once per
  search and read by the count and by every listing on it, whatever its
  table;
* `oracle_count` and `oracle_count_shape` count the same search by the
  transfer-matrix method: one forward sum, row by row, of the number of
  prefixes reaching each row state, over the same rows and with no orbit
  table, so they list nothing; a rectangle is counted on its narrow side
  (`_rect_search`): the transpose maps the maximal m x n matrices one to
  one onto the maximal n x m ones, and the search's states grow with the
  width, not the height.  On a rectangle the ones that the placed rows
  hold on each diagonal are read off the state's chain profile (Fact E of
  the row-search notes): `genfunc` sums the matrix statistics over the
  same layers with them, and `symmetry` counts the half-turn class HTS by
  folding the same sum at the middle, keeping a top half when the matrix
  it folds into avoids I_k and holds the extremal number of ones;
* `naive_enumerate` scans every (0,1)-matrix, with no pruning at all, on
  bitsets indexed by code: the codes holding a k-chain come from the
  textbook up-left recurrence, run on whole sets, and a code is kept when
  it avoids I_k and every flip of one of its zeros does not -- the literal
  flip definition, each flip one shift of that set.

Every stream is in row-major lexicographic order on the entries.
"""

from __future__ import annotations

from itertools import islice

# EnumerationBudget lives in core and is exported from here as well
from .core import (
    BinaryMatrix,
    BudgetExceeded,
    EnumerationBudget,
    Filling,
    SkewShape,
    VerificationError,
    _profile,
    _tails_below,
    check_budget,
    check_mnk,
    is_maximal_filling,
)


# ---------------------------------------------------------------------------
# the row search
#
# Rows are placed top to bottom over the cells of a board of n columns,
# given by its row spans: row i holds the columns of its span, the half-open
# pair (lo, hi].  A skew shape gives its own (`SkewShape.spans`), and a
# rectangle's rows each span (0, n] (`_board`).  The interface between the
# placed prefix and the future is its tuple of chain thresholds, those of
# `core._sweep`: entry p is the bit of the least column at which a chain of
# length p+1 ends among the placed rows.  So the longest chain ending at or
# left of column c is the number of thresholds at or left of c
# (`core._at_or_left`).  A new one in column j would end a chain one longer
# than that for c = j-1, which must stay below k: there are at most k-1
# thresholds, and once there are k-1, ones go only at or left of the column
# of the last.
#
# Maximality is local (no extremal ones count is assumed): the ones must stay
# chain-free, and every zero must be *justified* -- flipping it completes a
# k-chain.  A zero at (i, j) has its above-left chain U frozen once row i is
# placed; if need = k-1-U > 0 it needs a chain of `need` ones strictly below
# and to the right of it, which only later rows can supply.  That
# requirement is a *demand*: one pair (column c, still-needed r), "r more
# ones in later rows, strictly right of c".
#
# * A new row with no one right of c leaves the pair as it is.  One with a
#   one right of c, the first at column j, meets the demand if r = 1, and
#   otherwise leaves it two alternatives: (c, r) still, or (j, r-1)
#   through that one.
# * A pair needs room below the row: r must not exceed the longest chain
#   of cells strictly below-right of (i, c) (the geometric zero test, read
#   off the thresholds of the rows below row i, each full across its span,
#   turned a half turn), nor k-1 minus the thresholds at or left of column
#   c, since those r ones would extend the longest chain the placed rows
#   end there.
#   An alternative without room is dropped; a demand with none left would
#   kill the branch.
#
# A successor row is built column by column, all its prefixes at once,
# each extended by 0 before 1, so the masks come out ascending.  Write A(c)
# for the chain the rows above end at or left of column c.  A one at
# column j is allowed only while A(j-1) < k-1, and ends a chain of
# A(j-1)+1.  A zero at j with need = k-1-A(j-1) > 0 is kept only if its
# pair (j, need) has room: geo[j] >= need, and once the row is placed the
# rows end at or left of j a chain of max(A(j), A(j'-1)+1) <= A(j-1), j'
# being the row's last one so far.  That is, A(j) = A(j-1) (no threshold
# at column j) and A(j'-1) < A(j-1), which the prefix already decides.
# Both tests are necessary, so every maximal filling is a sequence of
# successor rows.  Every prefix extends, since a one is refused only where
# a zero needs nothing, so the work follows the rows kept, not the masks
# of the span; and no state is dead, since the row with a one wherever one
# is allowed is always a successor.  The next thresholds are carried along
# instead of swept after the row: a one at column j whose chain A(j-1)+1
# is longer than the row's last one's moves threshold A(j-1) to column j.
# The thresholds before it are at or left of column j-1 already, and a one
# of the same chain further left moved it first.  So a prefix holds the
# next thresholds up to the chain its last one ends, and the rest are
# those of the rows above.
#
# Fact C: no successor row kills a demand, on any rows that meet this
# condition: whenever a cell lies strictly below-right of (i, c) and one of
# rows 1..i holds column c, row i+1 holds column c+1.  A skew shape meets
# it: row i+1 ends at or right of any cell below row i, as right ends do
# not rise going down, and starts at or left of column c, as left ends do
# not rise either.  So does the lower triangle, row i spanning (0, i],
# though its right ends rise: a row 1..i holds c only if c <= i, and row
# i+1 spans (0, i+1].  The upper triangle, row i spanning (i-1, n], does
# not: its left ends rise, and row 3 does not hold column 2, though row 1
# holds column 1 and (3, 3) lies below-right of (2, 1).  Write A_i(c) for
# the chain that rows 1..i end at or left of column c (`core._profile`),
# and geo_i, room_i for what lies below row i.  Take a pair (c, r) with
# room after row i, so r <= geo_i[c] and r <= k-1-A_i(c), and any
# successor row i+1.
#
# * Column c+1 lies in row i+1's span.  A cell lies strictly below-right of
#   (i, c), as geo_i[c] >= 1, and the pair's column is that of a cell of
#   one of rows 1..i (its zero, or the one that moved it there), so the
#   condition gives it.
# * The row does not skip column c+1, since A_i(c) <= k-1-r <= k-2.
# * If (i+1, c+1) is 0, that zero passed the zero test with need
#   k-1-A_i(c) >= r: geo_{i+1}[c+1] >= r, and A_{i+1}(c+1) = A_i(c).  So
#   room_{i+1}[c+1] >= r, and room_{i+1}[c] >= r too, since neither geo nor
#   k-1-A rises from left to right.  The pair stays, whether the row has no
#   one right of c or its first one right of c lies past c+1.
# * If (i+1, c+1) is 1, the demand is met when r = 1, and otherwise moves
#   to (c+1, r-1).  Of a chain of r cells strictly below-right of (i, c),
#   the last r-1 lie strictly below-right of (i+1, c+1): geo_{i+1}[c+1] >=
#   r-1.  Thresholds sit at distinct columns, so A_i(c+1) <= A_i(c)+1, and
#   a one of row i+1 at or left of c+1 ends a chain of at most A_i(c)+1: so
#   A_{i+1}(c+1) <= A_i(c)+1 <= k-r, and room_{i+1}[c+1] >= r-1.
#
# A zero's pair has room when its row is placed (the zero test), so every
# demand keeps an alternative with room through every sequence of
# successor rows; nothing lies below the last row, so each is met by then.
# So every sequence of m successor rows is a maximal filling, and the row
# state is the thresholds alone: the count is one forward sum over the
# states, row by row, of the number of prefixes reaching each (the
# transfer-matrix method, `_Search.layer`), and the listing yields every
# full prefix.  Every listed filling is still put through the literal
# maximality test, as an invariant that raises if it ever fails.
#
# Fact E (rectangles): let 0 <= i < m and 1 <= j <= n.  In a maximal
# matrix, the ones that rows 1..i hold on the level (the diagonal j - i)
# of cell (i+1, j) number A_i(j-1).  Call that number a, and c the number
# of ones on the whole level.
#
# * The a ones form a chain in rows <= i and columns <= j-1, so a <=
#   A_i(j-1).
# * A chain of A_i(j-1) ones there, followed by the level's other c-a
#   ones, which lie at or below-right of (i+1, j), is a chain of A_i(j-1)
#   + c - a ones, so that is at most k-1.
# * A level of the path window has c = k-1 (`bijection.matrix_to_paths`),
#   so A_i(j-1) <= a.  A level off the window is all ones, so a =
#   min(i, j-1) >= A_i(j-1).
#
# No state of the search is dead, and every sequence of successor rows is
# a maximal matrix (Fact C), so every state is a prefix of one, and the
# count is read off the state.  `genfunc`'s forward sums read it to
# weigh each row's share of the statistics, and the half-turn fold
# (`symmetry._fold_count`) to count the ones of the top half.
#
# A row's successor rows read the state and nothing of the row but its
# span and geo.  geo is only compared with needs <= k-1, so capping it at
# k-1 changes nothing.  The span and the capped geo make the row's *kind*,
# and the tables are kept per kind, shared by the rows of one kind at any
# depth: on a rectangle, every row with k-1 rows or more below it.
#
# Each state's work is done once per search: its successor rows, kept per
# (kind, thresholds), are read by the forward sum, by every listing on the
# search (each filtering them by its own orbit table) and by the fold, for
# the middle row of an odd board.  Nothing is kept across searches, and
# every per-column chain profile of a thresholds tuple is built in one pass
# (`core._profile`).


class _Search:
    """One search engine over a board of n columns whose rows have these
    spans, the half-open column pairs (lo, hi], top to bottom, for k:
    counting and listing over the row state (depth, thresholds).

    Callers must give rows that meet the condition of Fact C in the notes
    above, as every skew shape (`SkewShape.spans`), every rectangle
    (`_board`) and the lower triangle do.  The search does not check it:
    on rows that fail it, a count may take in fillings that are not
    maximal."""

    def __init__(self, spans, n, k):
        self.k, self.n, self.spans = k, n, spans
        self.m = len(spans)
        # geo[depth][c]: the longest chain of cells strictly below-right of
        # (depth+1, c), for any rows that are intervals, read as
        # `core._zero_bounds` reads a zero's below-right chain: off the
        # thresholds of the rows below, each full across its span, turned a
        # half turn; capped at k-1, which changes nothing (see the notes
        # above)
        self.geo = [tuple(min(g, k - 1) for g in _profile(below, n)[::-1])
                    for below in _tails_below(
            [((1 << (hi - lo)) - 1) << (n - hi) for lo, hi in self.spans], n)]
        # kind[depth]: the row's span and geo, numbered in order of first
        # depth, which key the tables below
        kinds = {}
        self.kind = [kinds.setdefault(row, len(kinds))
                     for row in zip(self.spans, self.geo)]
        self._succ = {}    # (kind, tails) -> [(mask, next tails)]
        self._layers = [{(): 1}]  # the layers kept so far

    def succ(self, depth, tails):
        """Every row after this state that completes no k-chain and leaves
        no zero without room below it, masks ascending, as (mask, next
        thresholds): the state's children, since no such row strands a
        demand (Fact C in the notes above).  Kept per row kind, so rows of
        one kind at different depths share the table.  One pass over the
        columns, every prefix at once, carrying the next thresholds along
        (see the notes above)."""
        key = (self.kind[depth], tails)
        got = self._succ.get(key)
        if got is None:
            n, k, geo = self.n, self.k, self.geo[depth]
            lo, hi = self.spans[depth]
            at = _profile(tails, n)
            # each prefix of the row as (mask so far, the next thresholds
            # its ones decide, as many as the chain its last one ends),
            # extended one column at a time, 0 before 1, so the masks stay
            # ascending
            rows = [(0, ())]
            for j in range(lo + 1, hi + 1):
                a = at[j - 1]
                if a >= k - 1:  # a one would end a k-chain, a zero
                    continue    # needs nothing
                need, bit = k - 1 - a, 1 << (n - j)
                # a zero needs room below-right of it, and the rows must
                # end no longer chain at or left of j than at j-1 once
                # this row is placed
                zero = geo[j] >= need and at[j] == a
                ext = []
                for mask, head in rows:
                    if len(head) <= a:
                        if zero:
                            ext.append((mask, head))
                        # a one ending a longer chain than the last one
                        # moves threshold a to column j
                        ext.append((mask | bit,
                                    head + tails[len(head):a] + (n - j,)))
                    else:  # the last one ends as long a chain
                        ext.append((mask | bit, head))
                rows = ext
            got = self._succ[key] = [(mask, head + tails[len(head):])
                                     for mask, head in rows]
        return got

    def _listed(self, rows, tails, orbits):
        """The children (mask, next thresholds) of the state after the
        placed rows that obey the next row's entry of the orbit table, in
        stream order: the state's successor rows (`succ`), each kept when
        its fixed bits equal the bits of the placed rows they are copied
        from and its own cells pass the entry's test."""
        kids = self.succ(len(rows), tails)
        if orbits is None:
            return kids
        fixed, sources, keep = orbits[len(rows)]
        if not fixed and keep is None:
            return kids
        values = 0
        for bit, i0, shift in sources:
            if (rows[i0] >> shift) & 1:
                values |= bit
        return [x for x in kids if x[0] & fixed == values
                and (keep is None or keep(x[0]))]

    def start(self, orbits=None):
        """Every full row-mask tuple, in stream order.

        With an orbit table (`symmetry._orbits`), yield only the matrices
        constant on each orbit, in the same order: row i of the table gives
        (fixed bits, the source of each as (bit, earlier row, shift), a
        test of the row's own cells or None).  One lazy frame per placed
        row on an explicit stack, so a board of any height stays clear of
        Python's recursion limit.  Each frame reads its state's successor
        rows off the search's table (`_listed`), shared by the count and
        every listing on the search, and filters them by the table's row.
        """
        m = self.m
        rows = []
        stack = [iter(self._listed(rows, (), orbits))]
        while stack:
            for mask, nxt in stack[-1]:
                rows.append(mask)
                if len(rows) == m:
                    yield tuple(rows)
                    rows.pop()
                else:
                    stack.append(iter(self._listed(rows, nxt, orbits)))
                    break
            else:
                stack.pop()
                if rows:
                    rows.pop()

    def layer(self, depth):
        """{thresholds: number of prefixes} over the states after the
        first `depth` rows, summed forward one row at a time and kept on
        the search, so each is summed once however often it is asked for;
        the caller must not change it."""
        layers = self._layers
        while len(layers) <= depth:
            after = {}
            for tails, ways in layers[-1].items():
                for _, nxt in self.succ(len(layers) - 1, tails):
                    after[nxt] = after.get(nxt, 0) + ways
            layers.append(after)
        return layers[depth]

    def total(self):
        """Number of full fillings: every sequence of successor rows is one
        (Fact C in the notes above), so it is the sum of the last layer."""
        return sum(self.layer(self.m).values())


def _board(m, n, k):
    """The row search of the m x n rectangle: m rows, each spanning every
    column."""
    return _Search(((0, n),) * m, n, k)


def _rect_search(m, n, k):
    """The row search of the m x n board on its narrow side.  The
    transpose maps the maximal m x n matrices one to one onto the maximal
    n x m ones: it keeps chains increasing, and a zero whose flip
    completes a k-chain maps to one whose flip does too.  The search's
    states are chain thresholds over the columns, so it is run over
    min(m, n) columns.  Only what is counted runs on it: a listing keeps
    the caller's board, whose row-major order it follows."""
    return _board(max(m, n), min(m, n), k)


def enumerate_maximal_iams(m, n, k, budget=None):
    """All maximal I_k-avoiding m x n matrices, row-major lex order.  The
    board, k and budget are checked when called, before the first
    matrix."""
    check_mnk(m, n, k)
    budget = check_budget(m * n, budget)
    return (BinaryMatrix.from_masks(m, n, masks)
            for masks in islice(_board(m, n, k).start(), budget.max_results))


def oracle_count(m, n, k, budget=None):
    """Number of maximal I_k-avoiding m x n matrices, by transfer matrix.

    Sums the row search of `enumerate_maximal_iams` forward over its
    states, row by row, instead of walking its leaves: the same successor
    rows, each sequence of which is a maximal matrix, so the result equals
    the length of that stream, but no matrix is built.  A wide
    board (m < n) is counted as its transpose, the n x m board, which has
    as many maximal matrices and a search over m columns, not n (see
    `_rect_search`).  A budget is checked only when one is given; the
    default listing cap does not apply, since nothing is listed.
    """
    check_mnk(m, n, k)
    if budget is not None:
        check_budget(m * n, budget)
    return _rect_search(m, n, k).total()


def _check_shape_k(shape, k):
    if not isinstance(shape, SkewShape):
        raise TypeError("shape must be a SkewShape")
    if not shape.n_rows:
        raise ValueError("the shape has no rows")
    if k < 2:
        raise ValueError("k must be at least 2")


def enumerate_maximal_fillings(shape, k, budget=None):
    """All maximal I_k-avoiding fillings of a skew shape, lex order.

    The shape may be any well-formed skew diagram; no staircase-style
    admissibility is required here (the determinant formulas are pickier).
    The shape, k and budget are checked when called, before the first
    filling.  Each filling is re-checked by `is_maximal_filling`; a failure
    there is an error in this search, and raises.
    """
    _check_shape_k(shape, k)
    budget = check_budget(shape.cell_count(), budget)
    search = _Search(shape.spans(), shape.n_cols, k)
    return _checked_fillings(shape, k, islice(search.start(),
                                              budget.max_results))


def _checked_fillings(shape, k, stream):
    """The fillings of these row-mask tuples, each put through the literal
    maximality test."""
    for masks in stream:
        F = Filling.from_masks(shape, masks)
        if not is_maximal_filling(F, k):
            raise VerificationError("filling search yielded a non-maximal "
                                    "filling: %r" % (F,))
        yield F


def oracle_count_shape(shape, k, budget=None):
    """Number of maximal I_k-avoiding fillings of the shape, by transfer
    matrix.

    Sums the search of `enumerate_maximal_fillings` forward over its
    states, row by row, as `oracle_count` does, so the result equals the
    length of that stream, but no filling is built.  A budget is checked
    only when one is given, as for `oracle_count`.
    """
    _check_shape_k(shape, k)
    if budget is not None:
        check_budget(shape.cell_count(), budget)
    return _Search(shape.spans(), shape.n_cols, k).total()


# ---------------------------------------------------------------------------
# the prune-free certifier


def _cell_masks(cells):
    """has[c]: the codes below 2^cells with a one at cell c, as a bitset
    whose bit S stands for code S (row-major cells, cell 0 the most
    significant bit of a code).

    Cell c is bit p = cells-1-c of a code, so its codes come in runs of
    2^p, absent then present: one period is built and doubled until it
    spans all 2^cells codes.
    """
    has = []
    for p in range(cells - 1, -1, -1):
        run = 1 << p
        mask = ((1 << run) - 1) << run
        width = run << 1
        while width < 1 << cells:
            mask |= mask << width
            width <<= 1
        has.append(mask)
    return has


def _chain_table(has, n, k):
    """reach[t]: the codes of the matrices with n columns and these cell
    masks (`_cell_masks`) that hold an increasing chain of t ones, as a
    bitset, for t = 0..k.

    The textbook up-left recurrence, run on whole bitsets, so it shares
    nothing with `core._sweep` or with the row search.  With end_t(i, j)
    the codes holding a chain of t ones that ends at cell (i, j), and
    upto_t(i, j) their union over the cells weakly up-left of (i, j):
    end_1 = has, and end_{t+1}(i, j) = has(i, j) & upto_t(i-1, j-1), since
    a chain's one before (i, j) lies strictly above and left of it.
    reach[t] is upto_t at the last cell.
    """
    cells = len(has)
    reach = [(1 << (1 << cells)) - 1]
    end = has
    for t in range(1, k + 1):
        upto = []  # upto_t of each cell so far, row-major
        nxt = []
        for c in range(cells):
            i, j = divmod(c, n)
            u = end[c]
            if i:
                u |= upto[c - n]
            if j:
                u |= upto[c - 1]
            upto.append(u)
            nxt.append(has[c] & upto[c - n - 1] if i and j else 0)
        reach.append(upto[-1])
        end = nxt
    return reach


def naive_enumerate(m, n, k):
    """Scan all 2^(mn) matrices; keep those passing the literal flip test.

    Restricted to m*n <= 20 cells.  Runs on bitsets indexed by code: G,
    the codes that hold a k-chain, comes from `_chain_table`.  A code S is
    kept when it is not in G and flipping any one of its zeros gives a
    code in G; the flip of the zero at bit p is S + 2^p, so the codes whose
    flip there lands in G are G >> 2^p, and those with a one there need
    no flip:  kept = ~G & AND_p ((G >> 2^p) | has_p).  Every code is still
    examined and every zero of every avoiding matrix still flipped and
    re-tested, with no pruning.  Completely independent of the pruned
    search: different traversal, different chain routine, different
    maximality test.  A matrix is built only for the codes kept, read off
    in ascending code order, which is row-major lexicographic.
    """
    check_mnk(m, n, k)
    cells = m * n
    if cells > 20:
        raise BudgetExceeded("naive scan is capped at 20 cells")
    has = _cell_masks(cells)
    reach = _chain_table(has, n, k)
    G = reach[k]
    ok = reach[0] ^ G  # reach[0] holds every code
    for c, h in enumerate(has):
        ok &= (G >> (1 << (cells - 1 - c))) | h
    row = (1 << n) - 1
    bits = format(ok, "b")[::-1]  # bits[S] is code S's bit
    out = []
    code = bits.find("1")
    while code >= 0:
        out.append(BinaryMatrix.from_masks(m, n, [
            (code >> (cells - n * (i + 1))) & row for i in range(m)]))
        code = bits.find("1", code + 1)
    return out
