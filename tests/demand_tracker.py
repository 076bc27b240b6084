"""The demand tracker, the tests' twin of the row search's demand facts.

A sum over the row search's states that also carries each zero's pending
demand, as (column, still-needed) pairs.  It re-derives every demand row
by row, with none of the facts of the row-search notes (`iamkit.oracle`)
assumed, so the tests check Fact C of those notes and Fact D below against
it: it raises VerificationError on a killed demand (Fact C) or on a demand
left with two alternatives that no zero of its row implies, and on a
rectangle its pairs must be D of the thresholds (Fact D, stated and proved
beside `fact_d`).

`TrackedSearch` is `oracle._Search` with the tracker's methods; run
`track` from the layer {((), ()): 1}, one row at a time.
"""

from iamkit.core import VerificationError, _profile
from iamkit.oracle import _Search


def _strongest(pairs):
    """The pairs that no other one implies, columns ascending: (b, s)
    implies (c, r) when b >= c and s >= r, since s ones strictly right of b
    hold r strictly right of c.  One scan from the right keeps a pair when
    its need exceeds every need at or right of its column."""
    out, best = [], 0
    for c, r in sorted(pairs, reverse=True):
        if r > best:
            out.append((c, r))
            best = r
    out.reverse()
    return tuple(out)


class TrackedSearch(_Search):
    """A row search whose layers can also carry the demands (`track`)."""

    def __init__(self, shape, k):
        super().__init__(shape.spans(), shape.n_cols, k)
        self._room = {}    # (kind, next tails) -> room below the row

    def room(self, depth, nxt):
        """room[c]: the longest chain the rows after row depth+1 can still
        put strictly right of column c, bounded by the shape and by
        avoidance; c = 0..n.  Kept per row kind, so rows of one kind at
        different depths share it."""
        key = (self.kind[depth], nxt)
        got = self._room.get(key)
        if got is None:
            geo, k = self.geo[depth], self.k
            at = _profile(nxt, self.n)
            got = [0] + [min(geo[c], k - 1 - at[c])
                         for c in range(1, self.n + 1)]
            self._room[key] = got
        return got

    def advance(self, demands, mask, new, room):
        """The demands once a row (mask `mask`, pairs of its zeros `new`,
        room below it `room`) is placed, or None if one can no longer be
        met."""
        n = self.n
        out = list(new)
        for c, r in demands:
            right = mask & ((1 << (n - c)) - 1)  # the ones right of c
            if not right:
                if r > room[c]:
                    return None
                out.append((c, r))
                continue
            if r == 1:
                continue  # this row completes the chain: demand met
            j = n + 1 - right.bit_length()  # the first one, the highest bit
            stays, moves = r <= room[c], r - 1 <= room[j]
            if stays and moves:
                # both alternatives live: a zero of this row implies the
                # pair, else the demand would be two pairs
                if not any(b >= c and s >= r for b, s in new):
                    raise VerificationError(
                        "the demand (%d, %d) keeps two alternatives, no "
                        "zero of its row implies it" % (c, r))
            elif stays:
                out.append((c, r))
            elif moves:
                out.append((j, r - 1))
            else:
                return None
        return _strongest(out)

    def track(self, depth, layer):
        """The layer after row depth+1, {(thresholds, demands): number of
        prefixes}, summed from the one before it over the successor rows,
        whose zeros' pairs are read off the state's profile.  A row that
        kills a demand, which Fact C rules out, raises
        VerificationError."""
        n, k = self.n, self.k
        lo, hi = self.spans[depth]
        after = {}
        for (tails, demands), ways in layer.items():
            at = _profile(tails, n)
            needs = [(1 << (n - j), j, k - 1 - at[j - 1])
                     for j in range(lo + 1, hi + 1) if at[j - 1] < k - 1]
            for mask, nxt in self.succ(depth, tails):
                dem = self.advance(demands, mask,
                                   [(j, need) for bit, j, need in needs
                                    if not mask & bit],
                                   self.room(depth, nxt))
                if dem is None:
                    raise VerificationError("the row %s kills a demand of "
                                            "%r" % (bin(mask), demands))
                after[nxt, dem] = after.get((nxt, dem), 0) + ways
        return after


def tracked_layers(search):
    """The demand-carrying layers of a TrackedSearch after 0, 1, ..., m
    rows."""
    layer = {((), ()): 1}
    yield layer
    for depth in range(search.m):
        layer = search.track(depth, layer)
        yield layer


# The notation below (A_i, geo_i, successor rows, the zero test) and Fact
# C are those of the row-search notes (`iamkit.oracle`).  No code of iamkit
# reads Fact D; the tests check `fact_d` against the tracker.
#
# Fact D (rectangles): what the placed rows ask of the rows below is a
# function of the thresholds.  Say rows below row i *meet* a pair (c, r)
# when they hold a chain of r ones strictly right of column c; (b, s)
# implies (c, r) when b >= c and s >= r.  After any i successor rows of a
# rectangle, with A = A_i, the zeros of those rows are all justified,
# whatever rows follow, exactly when the rows below meet every pair of
#
#     D(A) = {(c, k-1-A(c)) : 1 <= c <= n-1, A(c-1) = A(c) < A(c+1)},
#
# one pair at the last column of each level of A that spans two columns
# or more (column 0 counts) and has a higher level after it; and each
# (c, r) in D(A) has r <= geo_i[c].  By induction on i: D(A_0) is empty,
# and no zero is placed.  Let row i+1 be R, a successor row, which spans
# every column, B = A_{i+1}, and h(c) the longest chain that R's ones at
# or left of column c end, a one at j ending A(j-1)+1.  So B(c) =
# max(A(c), h(c)).
#
# * R's zeros.  A zero at j is justified exactly when the rows below R meet
#   (j, k-1-A(j-1)), A(j-1) being the chain above-left of it; nothing when
#   A(j-1) >= k-1.  Call Z these pairs, over R's zeros with A(j-1) < k-1.
#   The zero test gives A(j) = A(j-1) and h(j-1) <= A(j-1), so B(j) =
#   A(j-1): the pair is (j, k-1-B(j)), B(j-1) = B(j) as A(j-1) <= B(j-1)
#   <= B(j), and geo_{i+1}[j] >= k-1-B(j) >= 1, so j <= n-1.
# * (i) The old pairs move.  Take (c, r) in D(A).  A(c) < A(c+1) <= k-1, so
#   a zero at (i+1, c+1) fails the zero test, which needs A(c+1) = A(c):
#   R(c+1) = 1.  A chain of r ones strictly right of c in rows i+1 on,
#   less its first one, is a chain of r-1 ones strictly right of c+1 below
#   R; and the one at (i+1, c+1) heads any such chain.  So by induction
#   the zeros of rows 1..i+1 are justified exactly when the rows below R
#   meet Z and each (c+1, r-1) with r >= 2.  If R(c) = 0, then A(c-1) =
#   A(c) < k-1, so Z holds (c, r), which implies (c+1, r-1): drop it.  If
#   R(c) = 1, that one ends a chain of A(c-1)+1 = A(c)+1 = A(c+1), and no
#   one at or left of c+1 ends a longer one: B(c) = B(c+1) = A(c)+1, and
#   the pair is (c+1, k-1-B(c+1)).  Fact C's last case gives geo_{i+1}[c+1]
#   >= r-1, so c+1 <= n-1 when r >= 2.  Call M the pairs of Z and these
#   moved ones.  Each is (x, k-1-B(x)) with 1 <= x <= n-1, B(x-1) = B(x),
#   a need of at least 1 and geo_{i+1}[x] at least its need.
# * (ii) Each x of M has B(x) < B(n).  If A(n-1) >= k-1, then B(n) = k-1,
#   and B(x) <= k-2.  Otherwise R(n) = 1, since a zero at n would need
#   geo[n] >= 1 and nothing lies right of column n; so B(n) > A(n-1) >=
#   B(x), as B(x) = A(x-1) for a pair of Z and A(x) for a moved one.
# * (iii) D(B) lies in M.  Take c with B(c-1) = B(c) < B(c+1), so B(c) <=
#   k-2.  If R(c) = 0, then A(c-1) <= B(c) < k-1, and Z holds (c, k-1-B(c)).
#   If R(c) = 1, then B(c) > A(c-1) and c >= 2, as B(0) = 0 < B(1).  So
#   B(c-1) = h(c-1) <= A(c-2)+1 <= A(c-1)+1 <= B(c) = B(c-1): A(c-2) =
#   A(c-1) = B(c)-1.  Had A(c) = A(c-1) too, no one at or left of c+1
#   would end a chain over B(c), nor would A(c+1) <= A(c)+1 exceed it,
#   against B(c+1) > B(c).  So A(c) = B(c): c-1 is in D(A), R(c-1) = 1
#   (a zero there would give B(c-1) = A(c-2)), and by (i) its pair moves
#   to (c, k-1-B(c)).
# * (iv) Each pair (x, r) of M is implied by one of D(B): the last column
#   c with B(c) = B(x) is below n by (ii), at or right of x, and has B(c-1)
#   = B(c) since B(x-1) = B(x), so c is in D(B), with the pair (c, r).
#
# So the rows below R meet M exactly when they meet D(B), and the pairs of
# D(B) have their geo bound, being in M.  Nothing lies below the last row
# (geo_m = 0), so D(A_m) is empty, as Fact C says.  The tracker above
# carries each demand row by row as its alternatives with room, keeping
# the pairs no other one implies; the same steps show that those are D(A),
# and that a demand with both alternatives alive always has its row's zero
# at c implying it.


def fact_d(tails, n, k):
    """D(A) of Fact D, by its definition: the pair (c, k-1-A(c)) at each
    column c = 1..n-1 with A(c-1) = A(c) < A(c+1), A being the chain the
    rows end at or left of each column (the number of thresholds there)."""
    at = [sum(n - t <= c for t in tails) for c in range(n + 1)]
    return tuple((c, k - 1 - at[c]) for c in range(1, n)
                 if at[c - 1] == at[c] < at[c + 1])
