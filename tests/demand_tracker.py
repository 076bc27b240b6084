"""The demand tracker, the tests' twin of the row search's demand facts.

A sum over the row search's states that also carries each zero's pending
demand, as (column, still-needed) pairs.  It re-derives every demand row
by row, with none of the facts of the row-search notes (`iamkit.oracle`)
assumed, so the tests check Facts C and D against it: it raises
VerificationError on a killed demand (Fact C) or on a demand left with two
alternatives that no zero of its row implies, and on a rectangle its pairs
must be D of the thresholds (Fact D), which the half-turn fold reads.

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


def fact_d(tails, n, k):
    """D(A) of Fact D, by its definition: the pair (c, k-1-A(c)) at each
    column c = 1..n-1 with A(c-1) = A(c) < A(c+1), A being the chain the
    rows end at or left of each column (the number of thresholds there)."""
    at = [sum(n - t <= c for t in tails) for c in range(n + 1)]
    return tuple((c, k - 1 - at[c]) for c in range(1, n)
                 if at[c - 1] == at[c] < at[c + 1])
