"""The search oracles against the prune-free scan and against each other."""

import itertools

import pytest

from iamkit.core import (
    BinaryMatrix,
    Filling,
    SkewShape,
    contains_ik_in_shape,
    max_ones,
)
from iamkit.formulas import count_iams
from iamkit.oracle import (
    BudgetExceeded,
    EnumerationBudget,
    enumerate_maximal_fillings,
    enumerate_maximal_iams,
    naive_enumerate,
    oracle_count,
    oracle_count_shape,
)


def test_naive_agrees_with_pruned_search():
    # every board with at most 16 cells, every valid k; the naive scan uses
    # the literal flip test and no pruning, so agreement here certifies the
    # pruned search end to end (content and order both)
    sizes = [(m, n) for m in range(2, 5) for n in range(m, 9) if m * n <= 16]
    for (m, n) in sizes:
        for k in range(2, min(m, n) + 1):
            assert naive_enumerate(m, n, k) == list(enumerate_maximal_iams(m, n, k))


def test_naive_rejects_large_boards():
    with pytest.raises(BudgetExceeded):
        naive_enumerate(5, 4, 2)


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


def test_count_budget_is_checked_only_when_given():
    with pytest.raises(BudgetExceeded):
        oracle_count(3, 3, 2, EnumerationBudget(max_cells=4))
    assert oracle_count(3, 3, 2, EnumerationBudget(max_cells=9)) == 6
    # counting lists nothing, so the default listing cap does not apply
    assert oracle_count(9, 3, 2) == count_iams(9, 3, 2)
    assert oracle_count(9, 9, 3) == count_iams(9, 9, 3)


def test_maximality_equals_extremal_ones_on_small_boards():
    # the filling search never looks at the ones count, the matrix search
    # yields exactly the extremal-count avoiders; their agreement proves
    # "maximal iff extremal" at these sizes
    for m in range(2, 6):
        for n in range(m, 6):
            for k in range(2, m + 1):
                via_flips = {f.as_matrix()
                             for f in enumerate_maximal_fillings(
                                 SkewShape((n,) * m), k)}
                via_count = set(enumerate_maximal_iams(m, n, k))
                assert via_flips == via_count, (m, n, k)


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


def test_invalid_parameters():
    with pytest.raises(ValueError):
        list(enumerate_maximal_iams(3, 3, 1))
    with pytest.raises(ValueError):
        list(enumerate_maximal_iams(3, 3, 4))
    with pytest.raises(ValueError):
        list(enumerate_maximal_fillings(SkewShape((3, 3)), 1))
