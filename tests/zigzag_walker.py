"""The zigzag walker, the tests' twin of `count_zigzag_decompositions`.

It lists every decomposition of a matrix's ones into k-1 zigzag paths of
the prescribed lengths, recursing chain by chain through every level, so
its cost grows as (k-1)!.  `iamkit.bijection` sums the same
decompositions level by level; the tests check the two against each other.
"""

from iamkit.bijection import _points_by_level, _require_maximal
from iamkit.core import check_mnk, max_ones


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
    by_level = _points_by_level(M.masks, m, n)
    # steps[lev][a]: the points of level lev+1 one east/north step from
    # point a of level lev, as a bit set over their positions in by_level
    steps = []
    for lev in range(top):
        at = {p: t for t, p in enumerate(by_level[lev + 1])}
        steps.append([(1 << at[(x + 1, y)] if (x + 1, y) in at else 0)
                      | (1 << at[(x, y + 1)] if (x, y + 1) in at else 0)
                      for (x, y) in by_level[lev]])
    lengths = frozenset(m + n - (2 * s - 1) for s in range(1, k))

    def sweep(lev, active, remaining, opened):
        # active: (position on level lev-1, length) of each open chain
        if lev > top:
            for (_, length) in active:
                if length not in remaining:
                    return 0
                remaining = remaining - {length}
            return 1 if (opened == k - 1 and not remaining) else 0
        size = len(by_level[lev])
        step = steps[lev - 1] if lev else ()
        total = 0

        # chain by chain: extend to an unused east/north neighbour on this
        # level, or close if its length is still wanted; the points left
        # over start new chains while no more than k-1 have been opened
        def assign(idx, used, extended, remaining):
            nonlocal total
            left = size - used.bit_count()  # points not yet taken
            if left - (len(active) - idx) > k - 1 - opened:
                return  # the chains still to place cannot take enough
            if idx == len(active):
                fresh = [(t, 1) for t in range(size) if not used >> t & 1]
                total += sweep(lev + 1, tuple(extended + fresh), remaining,
                               opened + left)
                return
            a, length = active[idx]
            free = step[a] & ~used
            while free:
                low = free & -free
                free ^= low
                assign(idx + 1, used | low,
                       extended + [(low.bit_length() - 1, length + 1)],
                       remaining)
            if length in remaining:
                assign(idx + 1, used, extended, remaining - {length})

        assign(0, 0, [], remaining)
        return total

    return sweep(0, (), lengths, 0)
