"""Statistics, exact weights, the (q,t) identity, volume polynomials."""

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iamkit.genfunc
import iamkit.oracle
from iamkit.bijection import (
    enumerate_pp,
    matrix_to_paths,
    matrix_to_pp,
    pp_layers,
)
from iamkit.core import (
    BinaryMatrix,
    VerificationError,
    diag_ones_below,
    diag_zeros_above,
)
from iamkit.genfunc import (
    QPoly,
    _divide_out,
    StatRecord,
    gf_lhs,
    gf_rhs,
    pp_volume_gf,
    seeded_points,
    stat_d,
    stat_record,
    stat_v,
    stat_v_cell,
    stat_vd,
    stat_w_cell,
    volume_gf,
    weight_at,
)
from iamkit.formulas import hprod
from iamkit.oracle import (
    BudgetExceeded,
    EnumerationBudget,
    enumerate_maximal_iams,
)
from iamkit.symmetry import apply

SIX_STATS = {
    # zero set -> (v, v_d, d) for the maximal 3x4 matrices at k = 3
    ((3, 3), (3, 4)): (0, 0, (0, 0)),
    ((2, 2), (3, 4)): (1, 1, (1, 0)),
    ((2, 2), (2, 3)): (2, 1, (1, 0)),
    ((1, 1), (3, 4)): (2, 2, (1, 1)),
    ((1, 1), (2, 3)): (3, 2, (1, 1)),
    ((1, 1), (1, 2)): (4, 2, (1, 1)),
}


def test_statistics_on_the_six():
    seen = set()
    for M in enumerate_maximal_iams(3, 4, 3):
        key = tuple(M.zero_cells())
        assert key in SIX_STATS
        assert (stat_v(M), stat_vd(M), stat_d(M, 3)) == SIX_STATS[key]
        seen.add(key)
    assert len(seen) == 6


def test_stat_record_bundle():
    M = BinaryMatrix([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0]])
    assert stat_record(M, 3) == StatRecord(v=1, v_d=1, d=(1, 0))


def test_stat_cell_validation():
    M = BinaryMatrix([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0]])
    assert stat_v_cell(M, 2, 2) == 1
    assert stat_w_cell(M, 3, 3) == 1
    with pytest.raises(ValueError):
        stat_v_cell(M, 1, 1)
    with pytest.raises(ValueError):
        stat_w_cell(M, 2, 2)


def test_zero_one_pairing():
    # summing "ones below the diagonal" over zeros counts exactly the same
    # diagonal pairs as summing "zeros above" over ones
    for M in enumerate_maximal_iams(4, 5, 3):
        lhs = sum(stat_v_cell(M, i, j) for (i, j) in M.zero_cells())
        rhs = sum(stat_w_cell(M, i, j) for (i, j) in M.one_cells())
        assert lhs == rhs == stat_v(M)


def test_statistics_transport_to_pp():
    # v = volume, v_d = trace, d_s = Durfee square of layer s
    for (m, n, k) in [(3, 4, 3), (4, 4, 3), (4, 5, 3), (5, 5, 4), (4, 4, 4)]:
        for M in enumerate_maximal_iams(m, n, k):
            pp = matrix_to_pp(M, k)
            assert stat_v(M) == pp.volume()
            assert stat_vd(M) == pp.trace()
            layers = pp_layers(pp)
            assert stat_d(M, k) == tuple(l.durfee() for l in layers)


def test_stat_d_transposes_tall_matrices():
    # tall matrices are normalized by transposition, so d is D8-transpose
    # invariant by construction
    for M in enumerate_maximal_iams(5, 3, 3):
        assert stat_d(M, 3) == stat_d(apply(M, "transpose"), 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                         max_size=8))))
def test_mask_statistics_equal_their_cell_definitions(board):
    # any matrix, maximal or not: v sums stat_v_cell over the zeros, v_d
    # the same over the zeros on the main diagonal
    n, masks = board
    M = BinaryMatrix.from_masks(len(masks), n, masks)
    zeros = M.zero_cells()
    assert stat_v(M) == sum(stat_v_cell(M, i, j) for (i, j) in zeros)
    assert stat_vd(M) == sum(stat_v_cell(M, i, j) for (i, j) in zeros
                             if i == j)


def test_stat_d_equals_its_cell_definition():
    # the literal route: transpose a tall matrix as a BinaryMatrix, find
    # each path's point on the diagonal level, count the zeros above it;
    # `stat_d` reads the diagonal instead, so every maximal matrix of every
    # board up to 6 x 6, in both orientations, and every k is checked
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(2, min(m, n) + 1):
                for M in enumerate_maximal_iams(m, n, k):
                    T = apply(M, "transpose") if m > n else M
                    want = []
                    for path in matrix_to_paths(T, k).paths:
                        (x, y), = [p for p in path if sum(p) == T.m - 1]
                        want.append(diag_zeros_above(T, T.m - y, x + 1))
                    assert stat_d(M, k) == tuple(want)
                    assert stat_v(M) == sum(diag_ones_below(M, i, j)
                                            for (i, j) in M.zero_cells())


def test_stat_d_raises_when_a_path_misses_the_diagonal(monkeypatch):
    # the maximality check is trusted to leave one point of each path on
    # the diagonal, but a fault in it must raise, also under python -O,
    # rather than give a wrong tuple; a tall matrix is transposed first
    # and takes the same route
    monkeypatch.setattr(iamkit.genfunc, "_require_maximal",
                        lambda M, k: None)
    for rows in ([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]):
        M = BinaryMatrix(rows)
        for A in (M, apply(M, "transpose")):
            with pytest.raises(VerificationError):
                stat_d(A, 3)


def test_weight_closed_form_one_matrix():
    M = BinaryMatrix([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0]])
    q, t = Fraction(2, 5), Fraction(3, 7)
    expected = q * t * (1 - q ** 2) / (1 - t * q ** 2)
    assert weight_at(M, 3, q, t) == expected


def test_weight_vanishing_denominator_raises():
    M = BinaryMatrix([[0, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0]])  # d=(1,1)
    with pytest.raises(ValueError):
        weight_at(M, 3, Fraction(1, 2), Fraction(4))  # t*q^2 = 1


def test_gf_identity_small():
    for (m, n, k) in [(2, 2, 2), (3, 4, 3), (4, 4, 2)]:
        for (q, t) in seeded_points(6, seed=7, span=m + n + k):
            assert gf_lhs(m, n, k, q, t) == gf_rhs(m, n, k, q, t)


def test_gf_rhs_closed_form_example():
    for (q, t) in seeded_points(6, seed=11):
        closed = ((1 - t * q ** 3) * (1 - t * q ** 4)
                  / ((1 - t * q) * (1 - t * q ** 2)))
        assert gf_rhs(3, 4, 3, q, t) == closed


def test_seeded_points_deterministic():
    assert seeded_points(10) == seeded_points(10)
    assert seeded_points(5, seed=3) != seeded_points(5, seed=4)


def test_grouped_sums_equal_the_per_matrix_sums():
    # volume_gf and gf_lhs sum forward over the row search, each successor
    # row weighed by its share of the statistics; the twin takes each
    # listed matrix's own: the tally of stat_v on every board up to 6 x 6,
    # and the sum of weight_at on every board up to 5 x 5 at two seeded
    # points, both orientations
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(2, min(m, n) + 1):
                matrices = list(enumerate_maximal_iams(m, n, k))
                counts = Counter(stat_v(M) for M in matrices)
                assert volume_gf(m, n, k).to_list() == \
                    [counts[e] for e in range(max(counts) + 1)]
                if max(m, n) > 5:
                    continue
                for (q, t) in seeded_points(2, seed=3, span=m + n + k):
                    assert gf_lhs(m, n, k, q, t) == \
                        sum(weight_at(M, k, q, t) for M in matrices)


def test_two_arrivals_that_disagree_raise(monkeypatch):
    # the ones above a row on each level are read off its state's chain
    # profile (Fact E); a search whose first rows all reach one state
    # breaks that, as prefixes with different ones per level merge there.
    # The forward sums carry nothing that could notice, so the fault must
    # show where they meet their independent routes: volume_gf raises on
    # its product expansion, and gf_lhs parts from gf_rhs
    succ = iamkit.oracle._Search.succ

    def merged(self, depth, tails):
        rows = succ(self, depth, tails)
        return [(mask, rows[0][1]) for mask, _ in rows] if depth == 0 \
            else rows

    monkeypatch.setattr(iamkit.oracle._Search, "succ", merged)
    with pytest.raises(VerificationError, match="stream and product"):
        volume_gf(4, 4, 3)
    q, t = Fraction(1, 2), Fraction(1, 3)
    assert gf_lhs(4, 4, 3, q, t) != gf_rhs(4, 4, 3, q, t)


def test_boards_no_listing_reaches():
    # 10 x 10, k=5 has hprod(6, 6, 4) maximal matrices, about 1.4e9; the
    # forward sums weigh rows, not matrices
    assert hprod(6, 6, 4) > 10 ** 9
    budget = EnumerationBudget(max_cells=100)
    assert volume_gf(10, 10, 5, budget) == pp_volume_gf(6, 6, 4)
    for (q, t) in seeded_points(1, span=25):
        assert gf_lhs(10, 10, 5, q, t, budget) == gf_rhs(10, 10, 5, q, t)


@pytest.mark.parametrize("q,t,bad", [
    (0.5, 0.25, 0.5),
    (Fraction(1, 2), 0.25, 0.25),
    (True, "2", True),
    (2, "2", "2"),
])
def test_q_and_t_must_be_exact(q, t, bad):
    # each once ran: on binary floats, or with True as 1 and "2" as 2
    message = re.escape("q and t must be integers or Fractions, got %r"
                        % (bad,))
    M = BinaryMatrix([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0]])
    with pytest.raises(ValueError, match=message):
        gf_lhs(3, 4, 3, q, t)
    with pytest.raises(ValueError, match=message):
        gf_rhs(3, 4, 3, q, t)
    with pytest.raises(ValueError, match=message):
        weight_at(M, 3, q, t)


def test_volume_gf_values():
    assert volume_gf(3, 4, 3).to_list() == [1, 1, 2, 1, 1]
    assert volume_gf(2, 2, 2).to_list() == [1, 1]
    assert volume_gf(3, 3, 3).to_list() == [1, 1, 1]


def test_volume_gf_matches_pp_volume_gf():
    for m in range(2, 5):
        for n in range(m, 5):
            for k in range(2, m + 1):
                assert volume_gf(m, n, k) == \
                    pp_volume_gf(m - k + 1, n - k + 1, k - 1)


@pytest.mark.parametrize("box", [
    (a, b, c) for a in range(4) for b in range(4) for c in range(4)
] + [(2, 4, 3), (4, 4, 2), (3, 3, 4)])
def test_pp_volume_gf_equals_the_listing(box):
    # the row-by-row sum against the tally of every listed plane partition
    counts = Counter(pp.volume() for pp in enumerate_pp(*box))
    want = [counts[e] for e in range(max(counts) + 1)]
    assert pp_volume_gf(*box).to_list() == want


@pytest.mark.parametrize("sides,message", [
    ((1.5, 2, 2), "must be integers, got 1.5"),
    ((2, 2, 1.5), "must be integers, got 1.5"),
    ((2, "2", 2), "must be integers, got '2'"),
    ((True, 2, 2), "must be integers, got True"),
    ((2, -1, 2), "must be nonnegative"),
])
def test_box_sides_are_checked_before_any_work(sides, message):
    # each once recursed until RecursionError, raised TypeError, or only
    # failed once a plane partition was built
    with pytest.raises(ValueError, match=message):
        pp_volume_gf(*sides)
    with pytest.raises(ValueError, match=message):
        enumerate_pp(*sides)  # on the call, not at the first next()


@pytest.mark.parametrize("sides", [(0, 3, 2), (3, 0, 2), (3, 2, 0)])
def test_a_zero_side_gives_the_empty_partition_alone(sides):
    assert pp_volume_gf(*sides) == QPoly([1])
    assert [pp.volume() for pp in enumerate_pp(*sides)] == [0]


def test_a_remainder_in_the_product_is_a_failed_verification():
    cs = [1, 0, 0, -1]  # 1 - q^3 = (1 - q)(1 + q + q^2)
    _divide_out(cs, 1)
    assert cs == [1, 1, 1]
    with pytest.raises(VerificationError, match="remainder"):
        _divide_out([1, 1, 1], 1)
    with pytest.raises(VerificationError, match="remainder"):
        _divide_out([1, 0, 0, -1], 2)


def test_sums_over_the_stream_honour_the_cell_budget():
    # a sum needs every matrix, so the cap on cells applies (the default
    # one when no budget is given) and a cap on results does not
    with pytest.raises(BudgetExceeded):
        volume_gf(9, 8, 8)
    assert volume_gf(9, 8, 8, EnumerationBudget(max_cells=72)) == \
        pp_volume_gf(2, 1, 7)
    small = EnumerationBudget(max_cells=8)
    with pytest.raises(BudgetExceeded):
        volume_gf(3, 3, 2, small)
    with pytest.raises(BudgetExceeded):
        gf_lhs(3, 3, 2, Fraction(1, 2), Fraction(1, 3), small)
    cut = EnumerationBudget(max_results=1)
    assert volume_gf(3, 4, 3, cut).to_list() == [1, 1, 2, 1, 1]
    assert gf_lhs(3, 4, 3, 2, 3, cut) == gf_rhs(3, 4, 3, 2, 3)


def test_volume_gf_disagreement_raises(monkeypatch):
    # an empty forward sum cannot match the product expansion
    monkeypatch.setattr(iamkit.genfunc, "_row_shares",
                        lambda m, n, k, budget=None: iter(()))
    with pytest.raises(VerificationError):
        volume_gf(3, 4, 3)


def test_volume_gf_at_one_is_the_count():
    for (m, n, k) in [(3, 4, 3), (4, 4, 2), (5, 5, 4)]:
        assert volume_gf(m, n, k)(1) == hprod(m - k + 1, n - k + 1, k - 1)


# ---------------------------------------------------------------------------
# QPoly unit tests


def test_qpoly_arithmetic():
    p = QPoly([1, 2])       # 1 + 2q
    r = QPoly([0, 0, 3])    # 3q^2
    assert (p + r).to_list() == [1, 2, 3]
    assert (p - p).to_list() == [0]
    assert (p * r).to_list() == [0, 0, 3, 6]
    assert QPoly().degree() == -1
    assert QPoly([5]).degree() == 0


def test_qpoly_exact_division():
    num = QPoly([1, 0, 0, 0, -1])   # 1 - q^4 = (1-q)(1+q+q^2+q^3)
    assert num.exact_div(QPoly([1, -1])).to_list() == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        QPoly([1, 1, 1]).exact_div(QPoly([1, -1]))
    with pytest.raises(ValueError):
        QPoly([1]).exact_div(QPoly([1, -1]))
    with pytest.raises(ZeroDivisionError):
        QPoly([1]).exact_div(QPoly())


@pytest.mark.parametrize("coeffs,bad", [
    ([1.7, 2], 1.7),
    ([1, True], True),
    ([Fraction(1), 2], Fraction(1)),
    (["1"], "1"),
])
def test_qpoly_refuses_non_integer_coefficients(coeffs, bad):
    # QPoly([1.7, 2]) once truncated to 1 + 2q
    with pytest.raises(ValueError, match=re.escape(
            "coefficients must be integers, got %r" % (bad,))):
        QPoly(coeffs)


@pytest.mark.parametrize("x", [0.5, True, "1"])
def test_qpoly_refuses_inexact_points(x):
    # QPoly([1, 1])(0.5) once returned a float
    with pytest.raises(ValueError, match=re.escape(
            "evaluation points must be integers or Fractions, got %r"
            % (x,))):
        QPoly([1, 1])(x)


def test_qpoly_eval_and_normalization():
    p = QPoly([2, 0, 1, 0, 0])
    assert p.to_list() == [2, 0, 1]
    assert p(Fraction(1, 2)) == Fraction(9, 4)
    assert QPoly([0, 0]).to_list() == [0]
    assert QPoly.q_power(3).to_list() == [0, 0, 0, 1]
    assert QPoly.one_minus_q_power(2).to_list() == [1, 0, -1]
