"""The search oracles against the prune-free scan and against each other."""

import hashlib
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iamkit import oracle
from iamkit.core import (
    BinaryMatrix,
    Filling,
    SkewShape,
    VerificationError,
    _profile,
    _sweep,
    contains_ik_in_shape,
    is_maximal_iam,
    is_maximal_iam_by_flips,
    longest_increasing_chain_quadratic,
    max_ones,
)
from iamkit.formulas import count_iams
from iamkit.skew import TruncatedRect, count_truncated_rect
from iamkit.oracle import (
    BudgetExceeded,
    EnumerationBudget,
    enumerate_maximal_fillings,
    enumerate_maximal_iams,
    naive_enumerate,
    oracle_count,
    oracle_count_shape,
)

from demand_tracker import TrackedSearch, _strongest, fact_d, tracked_layers


def test_naive_agrees_with_pruned_search():
    # every board with at most 20 cells, in both orientations, every valid
    # k; the naive scan examines every matrix with no pruning, finds each
    # k-chain by its own up-left recurrence on bitsets and flips every zero
    # of every avoiding matrix (the literal flip test), so agreement here
    # certifies the pruned search end to end (content and order both)
    sizes = [(m, n) for m in range(2, 11) for n in range(2, 11)
             if m * n <= 20]
    for (m, n) in sizes:
        for k in range(2, min(m, n) + 1):
            assert naive_enumerate(m, n, k) == \
                list(enumerate_maximal_iams(m, n, k)), (m, n, k)


def _all_matrices(m, n):
    """Every m x n matrix, in row-major lexicographic order."""
    for masks in itertools.product(range(1 << n), repeat=m):
        yield BinaryMatrix.from_masks(m, n, masks)


def test_chain_table_matches_the_quadratic_twin():
    # every code of every board with at most 12 cells; codes run in the
    # order of `_all_matrices`, and a code's longest chain is the largest
    # t whose chain set holds it (one t past the longest possible chain,
    # so a set that runs too far shows too)
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            top = min(m, n) + 1
            reach = oracle._chain_table(oracle._cell_masks(m * n), n, top)
            assert len(reach) == top + 1
            for code, M in enumerate(_all_matrices(m, n)):
                longest = max(t for t in range(top + 1)
                              if reach[t] >> code & 1)
                assert longest == \
                    longest_increasing_chain_quadratic(M), (m, n, M)
            assert reach[0] == (1 << (1 << (m * n))) - 1


def test_naive_is_the_flip_test_over_every_matrix():
    # the certifier's old definition, on every board with at most 9 cells
    sizes = [(m, n) for m in range(2, 5) for n in range(2, 5) if m * n <= 9]
    for (m, n) in sizes:
        for k in range(2, min(m, n) + 1):
            assert naive_enumerate(m, n, k) == [
                M for M in _all_matrices(m, n)
                if is_maximal_iam_by_flips(M, k)], (m, n, k)


def test_naive_rejects_large_boards():
    # the cap is 20 cells, and 3 x 7 has 21
    with pytest.raises(BudgetExceeded):
        naive_enumerate(3, 7, 2)


def test_known_counts():
    # frozen from earlier runs of both oracles
    assert oracle_count(2, 2, 2) == 2
    assert oracle_count(3, 4, 3) == 6
    assert oracle_count(4, 4, 2) == 20
    assert oracle_count(5, 5, 3) == 175
    assert oracle_count(6, 6, 3) == 1764


def test_enumeration_is_lex_sorted_and_deterministic():
    run1 = [M.masks for M in enumerate_maximal_iams(4, 5, 3)]
    run2 = [M.masks for M in enumerate_maximal_iams(4, 5, 3)]
    assert run1 == run2
    assert run1 == sorted(run1)


def test_every_yield_is_maximal_with_extremal_ones():
    from iamkit.core import is_maximal_iam
    for M in enumerate_maximal_iams(4, 6, 3):
        assert is_maximal_iam(M, 3)
        assert M.ones_count() == max_ones(4, 6, 3)


def test_budget_max_cells():
    with pytest.raises(BudgetExceeded):
        list(enumerate_maximal_iams(9, 9, 3, EnumerationBudget(max_cells=64)))


def test_budget_max_results():
    got = list(enumerate_maximal_iams(5, 5, 3,
                                      EnumerationBudget(max_results=10)))
    assert len(got) == 10
    full = list(enumerate_maximal_iams(5, 5, 3))
    assert got == full[:10]


def test_count_equals_stream_length():
    # the transfer-matrix count sums the listing search over its states, so
    # it must agree with the length of that stream on every board
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(2, min(m, n) + 1):
                assert oracle_count(m, n, k) == len(
                    list(enumerate_maximal_iams(m, n, k))), (m, n, k)


def test_count_beyond_the_listing_frontier():
    assert oracle_count(8, 8, 4) == count_iams(8, 8, 4) == 731808
    assert oracle_count(9, 9, 5) == count_iams(9, 9, 5) == 16818516
    assert oracle_count(10, 10, 5) == count_iams(10, 10, 5)
    assert oracle_count(11, 11, 6) == count_iams(11, 11, 6)


def test_boards_taller_than_the_recursion_limit():
    # the count is a forward sum, one row at a time, with no stack; the
    # listing keeps one lazy frame per row on an explicit stack, not on
    # Python's call stack
    m = 1200
    assert m > sys.getrecursionlimit()
    assert oracle_count(m, 2, 2) == count_iams(m, 2, 2) == m
    assert oracle_count_shape(SkewShape((2,) * m), 2) == m
    first = next(enumerate_maximal_iams(m, 2, 2,
                                        EnumerationBudget(max_cells=2 * m)))
    assert first.to_lists() == [[0, 1]] * (m - 1) + [[1, 1]]
    assert is_maximal_iam(first, 2)


def test_count_budget_is_checked_only_when_given():
    with pytest.raises(BudgetExceeded):
        oracle_count(3, 3, 2, EnumerationBudget(max_cells=4))
    assert oracle_count(3, 3, 2, EnumerationBudget(max_cells=9)) == 6
    # counting lists nothing, so the default listing cap does not apply
    assert oracle_count(9, 3, 2) == count_iams(9, 3, 2)
    assert oracle_count(9, 9, 3) == count_iams(9, 9, 3)


def test_maximality_equals_extremal_ones_on_small_boards():
    # the search never looks at the ones count, so every matrix it lists
    # holding exactly the extremal count checks "maximal implies extremal"
    # at these sizes (an avoider with that many ones is maximal, since one
    # more one exceeds the extremal count)
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(2, min(m, n) + 1):
                target = max_ones(m, n, k)
                for M in enumerate_maximal_iams(m, n, k):
                    assert M.ones_count() == target, (m, n, k, M)


@pytest.mark.parametrize("args,size,digest", [
    ((6, 6, 3), 1764,
     "fd87cb9743f83192057c0df29c4a26c6eb2f7e02c39f29554d66fefe72893ed7"),
    ((5, 7, 4), 490,
     "533213553bad8018371dae8f3d8d20f72a272776afba84116f93c41f9c8e09eb"),
    ((7, 5, 3), 1176,
     "23351df7de8c9e738d449b06e7f5c4fe0b2fc4c1aed08a14a722732cc9b85a16"),
])
def test_matrix_stream_is_pinned(args, size, digest):
    # frozen from the rectangle search that kept the ones count in its
    # state: the same matrices in the same order
    masks = [M.masks for M in enumerate_maximal_iams(*args)]
    assert len(masks) == size
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == digest


def test_max_results_zero_lists_nothing_and_negative_is_refused():
    from iamkit.symmetry import enumerate_fixed_points
    listings = [
        lambda b: enumerate_maximal_iams(4, 4, 3, b),
        lambda b: enumerate_maximal_fillings(SkewShape((4, 4, 3)), 3, b),
        lambda b: enumerate_fixed_points(4, 4, 3, "transpose", b),
    ]
    for listing in listings:
        assert list(listing(EnumerationBudget(max_results=0))) == []
        one = list(listing(EnumerationBudget(max_results=1)))
        assert one == list(listing(None))[:1] and len(one) == 1
    with pytest.raises(ValueError):
        EnumerationBudget(max_results=-1)


def naive_fillings(sh, k):
    """Prune-free filling oracle: scan all 2^cells candidates."""
    cells = sh.cells()
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        F = Filling(sh, dict(zip(cells, bits)))
        if contains_ik_in_shape(F, k):
            continue
        maximal = True
        for z in F.zero_cells():
            vals = dict(F.items())
            vals[z] = 1
            if not contains_ik_in_shape(Filling(sh, vals), k):
                maximal = False
                break
        if maximal:
            out.append(F)
    return out


@pytest.mark.parametrize("lam,mu,k", [
    ((3, 3, 2), (1, 0, 0), 2),
    ((3, 3, 3), (), 2),
    ((3, 3, 3), (), 3),
    ((4, 4, 2), (1, 0, 0), 2),
    ((4, 3, 2), (1, 1, 0), 2),
    ((4, 4, 4), (), 3),
])
def test_filling_search_agrees_with_naive_scan(lam, mu, k):
    sh = SkewShape(lam, mu)
    assert set(enumerate_maximal_fillings(sh, k)) == set(naive_fillings(sh, k))


def test_filling_search_budget():
    sh = SkewShape((9,) * 9)
    with pytest.raises(BudgetExceeded):
        list(enumerate_maximal_fillings(sh, 3, EnumerationBudget(max_cells=64)))


def test_filling_search_deterministic_order():
    sh = SkewShape((4, 4, 4, 3))
    a = [f.masks for f in enumerate_maximal_fillings(sh, 3)]
    b = [f.masks for f in enumerate_maximal_fillings(sh, 3)]
    assert a == b == sorted(a)


def test_oracle_count_shape_known():
    assert oracle_count_shape(SkewShape((3, 3, 2), (1, 0, 0)), 2) == 4
    assert oracle_count_shape(SkewShape((4, 4, 4)), 3) == 6


def test_shape_count_equals_stream_length():
    # the count sums the listing search over its states, so it must agree
    # with the length of that stream on the catalog and on every truncated
    # board up to 6 x 6
    from test_skew import CATALOG
    boards = [(SkewShape(lam, mu), k) for lam, mu, k, _ in CATALOG]
    boards += [(TruncatedRect(m, n, k, t).shape(), k)
               for m in range(2, 7) for n in range(m, 7)
               for k in range(2, m + 1) for t in (m - k, m - k + 1)]
    for sh, k in boards:
        assert oracle_count_shape(sh, k) == len(
            list(enumerate_maximal_fillings(sh, k))), (sh, k)


@pytest.mark.parametrize("lam,mu,k,size,digest", [
    ((5, 5, 5, 4), (), 3, 40,
     "83816cbe29453e78246753798b32ee591e1d20b969e4867c95b4d042f89d15e4"),
    ((4, 4, 4, 3), (1, 1, 0, 0), 2, 15,
     "477faaac634d2c10add04480a8dac981bf9c80aa4afcfb80bc667da8c86527a7"),
    ((5, 5, 5, 5), (1, 0, 0, 0), 3, 40,
     "447b9ed7bc94647eb55746d38acd915acdee02cfb4bf0c8c05c3e577ade967c8"),
    ((5, 5, 5, 4), (2, 1, 0, 0), 2, 27,
     "8a99c1a59c72e33d04a461298bede7b16ee6098df44c343e8700f123c80649ea"),
    ((4, 4, 3), (2, 0, 0), 2, 6,
     "b6a4d89fdcc1f1dfdd4cd665852c82c3f919a05cc2d8e9c38898968726152b85"),
])
def test_filling_stream_is_pinned(lam, mu, k, size, digest):
    # frozen from the generate-and-test search this one replaced: the same
    # fillings in the same order
    shape = SkewShape(lam, mu)
    masks = [F.masks for F in enumerate_maximal_fillings(shape, k)]
    assert len(masks) == size
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == digest


def test_shape_count_beyond_the_listing_frontier():
    for (n, k, t) in [(7, 4, 3), (8, 4, 5)]:
        shape = TruncatedRect(n, n, k, t).shape()
        assert oracle_count_shape(shape, k) == count_truncated_rect(
            n, n, k, t) == 4719
    # a rectangle is a skew shape too
    assert oracle_count_shape(SkewShape((9,) * 9), 3) == count_iams(9, 9, 3)


def test_shape_count_budget_is_checked_only_when_given():
    sh = SkewShape((3, 3, 3))
    with pytest.raises(BudgetExceeded):
        oracle_count_shape(sh, 2, EnumerationBudget(max_cells=4))
    assert oracle_count_shape(sh, 2, EnumerationBudget(max_cells=9)) == 6
    # counting lists nothing, so the default listing cap does not apply
    assert oracle_count_shape(SkewShape((9,) * 9), 2) == count_iams(9, 9, 2)


def test_filling_leaf_invariant_raises(monkeypatch):
    # a listed filling that fails the literal maximality test is a fault
    # of the search: it must raise, not be skipped
    import iamkit.oracle
    monkeypatch.setattr(iamkit.oracle, "is_maximal_filling",
                        lambda F, k: False)
    with pytest.raises(VerificationError):
        list(enumerate_maximal_fillings(SkewShape((3, 3)), 2))


def _skew_shapes_in_box(rows, cols):
    """Every skew shape lambda/mu with at most `rows` rows and parts at
    most `cols`, lambda without zero parts."""
    out = []
    for r in range(1, rows + 1):
        for lam in itertools.combinations_with_replacement(
                range(cols, 0, -1), r):
            spans = [range(p, -1, -1) for p in lam]
            for mu in itertools.product(*spans):
                if all(a >= b for a, b in zip(mu, mu[1:])):
                    out.append(SkewShape(lam, mu))
    return out


# drawn uniformly from all shapes in a 4 x 4 box (at most 16 cells) with
# at least 4 cells, so that big shapes come up as often as small ones
SMALL_SKEW_SHAPES = [sh for sh in _skew_shapes_in_box(4, 4)
                     if sh.cell_count() >= 4]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_SKEW_SHAPES), st.integers(2, 4))
def test_shape_count_agrees_with_naive_scan_random(sh, k):
    naive = naive_fillings(sh, k)
    assert oracle_count_shape(sh, k) == len(naive)
    assert list(enumerate_maximal_fillings(sh, k)) == sorted(
        naive, key=lambda F: F.masks)


def _sweep_boards():
    """Every rectangle up to 7 x 7, the catalog and every shape in a 4 x 4
    box, each at every k it takes."""
    from test_skew import CATALOG
    boards = [(SkewShape((n,) * m), k) for m in range(1, 8)
              for n in range(1, 8) for k in range(2, min(m, n) + 1)]
    boards += [(SkewShape(lam, mu), k) for lam, mu, k, _ in CATALOG]
    boards += [(sh, k) for sh in _skew_shapes_in_box(4, 4)
               for k in range(2, 5)]
    return boards


def test_every_state_has_a_child_and_no_leaf_carries_a_demand():
    # Fact C of the row-search notes: no successor row kills a demand, so
    # the count and the listing run on the thresholds alone.  Its empirical
    # twin walks the demand tracker of the tests (demand_tracker.py), which
    # raises on a killed demand, over every layer of the sweep boards:
    # summed over their demands, its states must be the count's, with the
    # same numbers of prefixes, every state must have a child, and no state
    # after the last row may still carry a demand (nothing lies below that
    # row)
    for shape, k in _sweep_boards():
        search = TrackedSearch(shape, k)
        for depth, tracked in enumerate(tracked_layers(search)):
            summed = {}
            for (tails, _), ways in tracked.items():
                summed[tails] = summed.get(tails, 0) + ways
            assert summed == search.layer(depth), (shape, k, depth)
            if depth < search.m:
                assert all(search.succ(depth, tails) for tails in summed), \
                    (shape, k, depth)
        assert all(not dem for _, dem in tracked), (shape, k)


def test_every_shape_lists_as_many_fillings_as_it_counts():
    # the successor tables, which are the listing's children, are kept per
    # row kind, shared by rows of one kind at different depths; listing a
    # shape on the search its count used must yield as many fillings as
    # the count, for every shape in a 4 x 5 box with no empty row, k = 2..4
    cases = 0
    for shape in _skew_shapes_in_box(4, 5):
        if any(lo == hi for lo, hi in map(shape.row_span,
                                          range(1, shape.n_rows + 1))):
            continue
        for k in (2, 3, 4):
            search = oracle._Search(shape.spans(), shape.n_cols, k)
            count = search.total()
            assert sum(1 for _ in search.start()) == count, (shape, k)
            cases += 1
    assert cases == 7122, cases


def test_every_live_pair_needs_what_the_chain_leaves():
    # every pair (c, r) the demand tracker carries after row i has r =
    # k-1-A(c), A(c) being the chain the placed rows end at or left of
    # column c; and no live pair sits at a threshold, A(c-1) = A(c), where
    # a demand could keep two alternatives that no zero of its row implies.
    # Every state of every tracked layer of the sweep boards, skew shapes
    # included, where Fact D of the demand tracker's notes does not apply
    pairs = 0
    for shape, k in _sweep_boards():
        search = TrackedSearch(shape, k)
        for depth, tracked in enumerate(tracked_layers(search)):
            for tails, dem in tracked:
                at = _profile(tails, search.n)
                for c, r in dem:
                    assert r == k - 1 - at[c] and at[c - 1] == at[c], \
                        (shape, k, depth, tails, dem)
                pairs += len(dem)
    assert pairs > 3000, pairs


def test_tracked_pairs_are_fact_d_of_the_thresholds():
    # Fact D of the demand tracker's notes (`demand_tracker.fact_d`): on a
    # rectangle, what the placed rows ask of the rows below is D(A), the
    # pair (c, k-1-A(c)) at each column c = 1..n-1 with A(c-1) = A(c) <
    # A(c+1).  The demand tracker re-derives the demands row by row with
    # none of the facts assumed; at every depth of every rectangle up to
    # 7x7, at every k, each state's pairs must be D of its thresholds
    states = pairs = 0
    for m in range(1, 8):
        for n in range(1, 8):
            for k in range(2, min(m, n) + 1):
                search = TrackedSearch(SkewShape((n,) * m), k)
                for depth, tracked in enumerate(tracked_layers(search)):
                    for tails, dem in tracked:
                        assert dem == fact_d(tails, n, k), \
                            (m, n, k, depth, tails, dem)
                        states += 1
                        pairs += len(dem)
    assert states > 2000 and pairs > 2000, (states, pairs)


def test_ones_per_level_are_the_chain_profile():
    # Fact E of the row-search notes: in a maximal matrix, the ones that
    # rows 1..i hold on the level of cell (i+1, j) number A_i(j-1), the
    # chain profile of those rows' thresholds, which the forward sums of
    # genfunc and the half-turn fold read.  Every row prefix of every
    # maximal matrix up to 6x6, at every k, the ones counted literally
    prefixes = 0
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(2, min(m, n) + 1):
                for M in enumerate_maximal_iams(m, n, k):
                    rows = M.to_lists()
                    tails = []
                    for i in range(m):
                        at = _profile(tails, n)
                        for j in range(1, n + 1):
                            ones = sum(rows[i - d][j - 1 - d]
                                       for d in range(1, min(i, j - 1) + 1))
                            assert ones == at[j - 1], (M, k, i, j)
                        _sweep(tails, (M.masks[i],))
                        prefixes += 1
    assert prefixes == 32638, prefixes


def test_kept_layers_equal_fresh_ones():
    # total() keeps every layer on the search; each must equal layer(d)
    # summed on a fresh search, and a layer asked for again is not summed
    # again
    from test_skew import CATALOG
    boards = [(SkewShape((n,) * m), k) for m in range(1, 7)
              for n in range(1, 7) for k in range(2, min(m, n) + 1)]
    boards += [(SkewShape(lam, mu), k) for lam, mu, k, _ in CATALOG]
    for shape, k in boards:
        search = oracle._Search(shape.spans(), shape.n_cols, k)
        search.total()
        for depth in range(search.m + 1):
            kept = search.layer(depth)
            fresh = oracle._Search(shape.spans(), shape.n_cols, k)
            assert kept == fresh.layer(depth), (shape, k, depth)
            assert search.layer(depth) is kept


def test_invalid_parameters():
    with pytest.raises(ValueError):
        list(enumerate_maximal_iams(3, 3, 1))
    with pytest.raises(ValueError):
        list(enumerate_maximal_iams(3, 3, 4))
    with pytest.raises(ValueError):
        list(enumerate_maximal_fillings(SkewShape((3, 3)), 1))
    # a shape with no rows is refused by the count and the listing alike
    with pytest.raises(ValueError):
        oracle_count_shape(SkewShape(()), 2)
    with pytest.raises(ValueError):
        list(enumerate_maximal_fillings(SkewShape(()), 2))


@pytest.mark.parametrize("board", [(3, 3, 2.0), (3.0, 3, 2), (3, True, 2)])
def test_the_search_refuses_a_board_that_is_not_ints(board):
    # oracle_count(3, 3, 2.0) once counted 6
    with pytest.raises(ValueError, match="must be integers"):
        oracle_count(*board)
    with pytest.raises(ValueError, match="must be integers"):
        enumerate_maximal_iams(*board)


def test_listings_check_their_arguments_when_called():
    # both listings refuse a bad board, shape, k or budget when called, as
    # symmetry.enumerate_fixed_points does, not at the first next()
    with pytest.raises(ValueError):
        enumerate_maximal_iams(3, 3, 1)
    with pytest.raises(ValueError):
        enumerate_maximal_iams(0, 3, 2)
    with pytest.raises(BudgetExceeded):
        enumerate_maximal_iams(9, 9, 3, EnumerationBudget(max_cells=64))
    with pytest.raises(ValueError):
        enumerate_maximal_fillings(SkewShape((3, 3)), 1)
    with pytest.raises(ValueError):
        enumerate_maximal_fillings(SkewShape(()), 2)
    with pytest.raises(TypeError):
        enumerate_maximal_fillings((3, 3), 2)
    with pytest.raises(BudgetExceeded):
        enumerate_maximal_fillings(SkewShape((9,) * 9), 3,
                                   EnumerationBudget(max_cells=64))


# ---------------------------------------------------------------------------
# the demand bookkeeping of the tests' demand tracker, against its
# definitions


def test_strongest_demands_match_their_definition():
    # (b, s) implies (c, r) when b >= c and s >= r; the reduction keeps the
    # pairs that no other one implies, columns ascending, whatever the order
    # and repeats of its input
    import random
    rng = random.Random(3)
    pairs = [(c, r) for c in range(1, 6) for r in range(1, 5)]
    for _ in range(3000):
        picked = [rng.choice(pairs) for _ in range(rng.randint(0, 7))]
        want = sorted(a for a in set(picked)
                      if not any(b != a and b[0] >= a[0] and b[1] >= a[1]
                                 for b in picked))
        assert _strongest(picked) == tuple(want)
        rng.shuffle(picked)
        assert _strongest(picked) == tuple(want)


def test_demand_advances_is_met_and_dies():
    search = TrackedSearch(SkewShape((3, 3, 3)), 3)
    room = [0, 1, 1, 0]                  # room[c] below the row, c = 0..3
    # a one at column 2 advances (1, 2) to (2, 1); (1, 2) itself no longer
    # fits the room below
    assert search.advance(((1, 2),), 0b010, [], room) == ((2, 1),)
    # a one right of column 2 meets the last need: the demand is gone
    assert search.advance(((2, 1),), 0b001, [], room) == ()
    # no one right of column 2 and no room below it: the branch dies
    assert search.advance(((2, 1),), 0b100, [], [0, 1, 0, 0]) is None
    # the row's own zeros join the demands, and an implied one is dropped:
    # meeting (2, 1) needs a one right of column 2, which also meets (1, 1)
    assert search.advance(((2, 1),), 0b000, [(1, 1)], room) == ((2, 1),)


def test_demand_keeps_only_undominated_pairs():
    search = TrackedSearch(SkewShape((4, 4, 4, 4)), 4)
    # a one at column 2 moves (1, 3), which no longer fits the room below
    # column 1, to (2, 2); (3, 2) asks for as much from further right, so
    # it implies (2, 2), which is dropped
    assert search.advance(((1, 3), (3, 2)), 0b0100, [],
                          [0, 2, 3, 3, 3]) == ((3, 2),)


def test_demand_with_two_live_alternatives():
    search = TrackedSearch(SkewShape((4, 4, 4, 4)), 4)
    room = [0, 3, 3, 3, 3]
    # a one at column 2 leaves (1, 3) two live alternatives, (1, 3) and
    # (2, 2); the row's zero at column 1 with need 3 implies both, so the
    # demand is dropped
    assert search.advance(((1, 3),), 0b0100, [(1, 3)], room) == ((1, 3),)
    assert search.advance(((1, 3),), 0b0100, [(2, 3)], room) == ((2, 3),)
    # with nothing to imply them the demand would be two pairs, which the
    # single-pair state cannot hold: the tracker raises instead
    with pytest.raises(VerificationError):
        search.advance(((1, 3),), 0b0100, [], room)
    with pytest.raises(VerificationError):
        search.advance(((1, 3),), 0b0100, [(1, 2)], room)


def test_demand_advances_by_the_first_one_right_of_each_pair():
    # every mask and every column against a scan of the row's entries: a
    # need of 4 never fits a room of 3, so the pair lives only by moving to
    # the first one right of its column, one need less
    n = 6
    search = TrackedSearch(SkewShape((n,) * 3), 5)
    room = [0] + [3] * n
    for mask in range(1 << n):
        for c in range(1, n + 1):
            ones = [j for j in range(c + 1, n + 1) if (mask >> (n - j)) & 1]
            want = ((ones[0], 3),) if ones else None
            assert search.advance(((c, 4),), mask, [], room) == want


def _room_by_definition(shape, k, i, nxt):
    """room[c] below row i: the longest chain of in-shape cells strictly
    below-right of (i, c), capped by k-1 minus the chain the rows so far
    end at or left of column c (C-vector nxt); c = 0..n."""
    n = shape.n_cols
    cells = [(a, b) for a, b in shape.cells() if a > i]
    longest = {}
    for a, b in sorted(cells, reverse=True):
        longest[a, b] = 1 + max([longest[x, y] for x, y in longest
                                 if x > a and y > b], default=0)
    return [0] + [min(max([longest[a, b] for a, b in cells if b > c],
                          default=0), k - 1 - nxt[c - 1])
                  for c in range(1, n + 1)]


def _push_row(c_vec, mask, n, k):
    """The C-vector after one more row, C[j] being the longest chain among
    the rows so far that ends in a column <= j+1; None if the row completes
    a k-chain.  One left-to-right sweep: a one in column j+1 ends a chain
    one longer than C[j-1]."""
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


def _c_vector(tails, n):
    """The C-vector of chain thresholds (bit n-j = column j): a chain of
    length p+1 ends at or left of column j exactly when threshold p does,
    so C[j-1] is the number of thresholds at or left of column j."""
    return tuple(sum(n - t <= j for t in tails) for j in range(1, n + 1))


def test_successors_match_their_definition():
    # succ builds each row column by column and cuts a prefix at its first
    # one that ends a k-chain or zero with no room; it must still list
    # exactly the masks inside the row span that the C-vector update above
    # accepts and whose zeros pass the room test, masks ascending, each
    # with its next thresholds.  The tables are kept per row kind, shared
    # by rows at different depths, so every (depth, thresholds) the
    # forward sum reaches is checked against the definition at its own
    # depth.  The state holds chain thresholds, read here as their C-vector
    from test_skew import CATALOG
    boards = [(SkewShape((n,) * m), k)
              for m, n, k in [(4, 4, 2), (5, 5, 3), (4, 6, 4), (6, 4, 3)]]
    boards += [(SkewShape(lam, mu), k) for lam, mu, k, _ in CATALOG]
    checked = 0
    for shape, k in boards:
        search = oracle._Search(shape.spans(), shape.n_cols, k)
        n = shape.n_cols
        for depth in range(search.m):
            for tails in search.layer(depth):
                assert len(tails) <= k - 1, (shape, k, depth, tails)
                c_vec = _c_vector(tails, n)
                lo, hi = shape.row_span(depth + 1)
                inside = ((1 << (hi - lo)) - 1) << (n - hi)
                want = []
                for mask in range(1 << n):
                    nxt = _push_row(c_vec, mask, n, k)
                    if mask & ~inside or nxt is None:
                        continue
                    room = _room_by_definition(shape, k, depth + 1, nxt)
                    if all(room[j] >= k - 1 - (c_vec[j - 2] if j >= 2 else 0)
                           for j in range(lo + 1, hi + 1)
                           if not (mask >> (n - j)) & 1):
                        want.append((mask, nxt))
                got = [(mask, _c_vector(nxt, n))
                       for mask, nxt in search.succ(depth, tails)]
                assert got == want, (shape, k, depth, tails)
                checked += 1
    assert checked > 100, checked


def triangle_spans(n):
    """The lower triangle of side n as row spans: row i spans (0, i].  Its
    right ends rise going down, so it is no skew shape."""
    return tuple((0, i) for i in range(1, n + 1))


def triangle_counts_by_flips(n):
    """{k: number of maximal I_k-avoiding fillings of the lower triangle of
    side n} for k = 2..n+1, by the literal definition: every 0/1 filling
    of its cells, kept when it holds no k-chain (the quadratic chain
    routine) and flipping any one of its zeros makes one.  A filling with
    longest chain L, whose flips give chains of at least F, is kept for
    exactly the k with L < k <= F."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
    counts = dict.fromkeys(range(2, n + 2), 0)
    for code in range(1 << len(cells)):
        masks = [0] * n
        for t, (i, j) in enumerate(cells):
            if code >> t & 1:
                masks[i - 1] |= 1 << (n - j)
        longest = longest_increasing_chain_quadratic(
            BinaryMatrix.from_masks(n, n, masks))
        flipped = n + 1  # no zero asks for anything
        for t, (i, j) in enumerate(cells):
            if not code >> t & 1:
                masks[i - 1] ^= 1 << (n - j)
                flipped = min(flipped, longest_increasing_chain_quadratic(
                    BinaryMatrix.from_masks(n, n, masks)))
                masks[i - 1] ^= 1 << (n - j)
        for k in range(max(2, longest + 1), flipped + 1):
            counts[k] += 1
    return counts


def test_the_lower_triangle_counts_its_maximal_fillings():
    # rows that are no skew shape: the lower triangle's right ends rise,
    # but its left ends are all 0, so it meets the condition of Fact C,
    # and the search's count must equal the literal count at every k
    for n in range(1, 5):
        want = triangle_counts_by_flips(n)
        got = {k: oracle._Search(triangle_spans(n), n, k).total()
               for k in want}
        assert got == want, n
