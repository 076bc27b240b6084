"""Skew admissibility, determinant counts, truncated boards, Krattenthaler."""

import random

import pytest

from iamkit.bijection import path_endpoints
from iamkit.core import Partition, SkewShape, VerificationError
from iamkit.formulas import hprod
from iamkit.oracle import oracle_count_shape
from iamkit.skew import (
    TruncatedRect,
    binom,
    count_paths,
    count_skew_fillings,
    count_truncated_rect,
    det_bareiss,
    det_cofactor,
    dual_shape,
    gamma,
    kratt_lhs,
    kratt_rhs,
    kreweras_f,
    lgv_count,
    reflection_det,
    truncated_region,
    validate_skew,
)

# frozen from earlier runs of both the determinant and the search oracle
CATALOG = [
    ((2, 2), (), 2, 2),
    ((3, 3), (), 2, 3),
    ((3, 3, 2), (), 2, 5),
    ((3, 3, 3), (), 2, 6),
    ((4, 4), (), 2, 4),
    ((4, 4, 2), (), 2, 7),
    ((4, 4, 3), (), 2, 9),
    ((4, 4, 4, 2), (), 2, 16),
    ((3, 3, 2, 2), (), 2, 7),
    ((3, 3, 3, 3), (), 2, 10),
    ((3, 3, 2), (1, 0, 0), 2, 4),
    ((4, 4, 3), (2, 0, 0), 2, 6),
    ((4, 4, 2), (1, 0, 0), 2, 6),
    ((5, 5, 3), (), 2, 12),
    ((5, 5, 2), (2, 0, 0), 2, 6),
    ((4, 4, 4, 3), (1, 1, 0, 0), 2, 15),
    ((5, 5, 5, 4), (2, 1, 0, 0), 2, 27),
    ((3, 3, 3), (), 3, 3),
    ((4, 4, 4), (), 3, 6),
    ((4, 4, 4, 3), (), 3, 14),
    ((5, 5, 5), (), 3, 10),
    ((4, 4, 4, 4), (), 3, 20),
    ((5, 5, 5, 4), (), 3, 40),
    ((4, 4, 4, 3), (1, 0, 0, 0), 3, 9),
    ((5, 5, 5, 3), (2, 0, 0, 0), 3, 9),
    ((5, 5, 5, 5), (1, 0, 0, 0), 3, 40),
]


def test_binom_convention():
    assert binom(-3, 0) == 1
    assert binom(0, 0) == 1
    assert binom(5, -1) == 0
    assert binom(3, 5) == 0
    assert binom(-1, 2) == 0
    assert binom(5, 2) == 10


# ---------------------------------------------------------------------------
# determinants


def test_dets_agree_on_random_matrices():
    rng = random.Random(99)
    for n in range(0, 7):
        for _ in range(8):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(rows) == det_cofactor(rows)
    # singular by a duplicated row
    rows = [[1, 2, 3], [4, 5, 6], [1, 2, 3]]
    assert det_bareiss(rows) == det_cofactor(rows) == 0


def test_det_edge_cases():
    assert det_bareiss([]) == 1
    assert det_cofactor([]) == 1
    assert det_bareiss([[7]]) == 7
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3]])
    with pytest.raises(ValueError):
        det_cofactor([[1, 2]])


# ---------------------------------------------------------------------------
# admissibility and shape surgery


def test_validate_skew_each_condition():
    assert validate_skew(SkewShape((3, 3, 3)), 3)
    assert validate_skew(SkewShape((4, 4, 4, 3), (1, 0, 0, 0)), 3)
    # last row shorter than k
    assert not validate_skew(SkewShape((3, 3, 1)), 2)
    # too few untouched rows on the left
    assert not validate_skew(SkewShape((4, 4, 4), (1, 1, 0)), 3)
    # first row shorter than k past the inner corner
    assert not validate_skew(SkewShape((4, 4, 4, 4), (2, 0, 0, 0)), 3)
    # top k rows not full width
    assert not validate_skew(SkewShape((4, 3, 3, 3)), 3)
    # fewer than k rows altogether
    assert not validate_skew(SkewShape((3, 3)), 3)
    assert not validate_skew(SkewShape(()), 2)
    assert not validate_skew(SkewShape((3, 3)), 1)


def test_gamma():
    assert gamma((5, 4, 3, 2), 1, 1) == Partition((4, 3))
    assert gamma((3, 2), 0, 0) == Partition((3, 2))
    assert gamma((3, 2), 2, 0) == Partition(())
    with pytest.raises(ValueError):
        gamma((3, 2), 2, 1)
    with pytest.raises(ValueError):
        gamma((3, 2), -1, 0)


def test_dual_shape():
    assert dual_shape(SkewShape((3, 3, 2), (1, 0, 0))) == \
        SkewShape((2, 1), (1, 0))
    assert dual_shape(SkewShape((4, 4, 4))) == SkewShape((3, 3))
    with pytest.raises(ValueError):
        dual_shape(SkewShape((3,)))
    with pytest.raises(ValueError):
        dual_shape(SkewShape((3, 1), (2, 0)))  # rows fail to overlap


# ---------------------------------------------------------------------------
# path counts


def test_kreweras_values():
    assert kreweras_f((), ()) == 1
    assert kreweras_f((3,), ()) == 4
    assert kreweras_f((3, 3), ()) == 10
    assert kreweras_f((2, 1), (1, 0)) == 4
    # a pinch (rows nearly disconnected) is still a plain determinant
    assert kreweras_f((3, 1), (1, 0)) == 6


def test_kreweras_rejects_bad_pairs():
    with pytest.raises(ValueError):
        kreweras_f((2, 2), (3, 0))
    with pytest.raises(ValueError):
        kreweras_f((2,), (1, 1, 1))


def test_count_skew_fillings_catalog():
    for lam, mu, k, expected in CATALOG:
        assert count_skew_fillings(SkewShape(lam, mu), k) == expected


@pytest.mark.parametrize("lam,mu,k,expected", [
    ((3, 3, 2), (), 2, 5),
    ((4, 4, 2), (1, 0, 0), 2, 6),
    ((4, 4, 4, 3), (), 3, 14),
    ((5, 5, 5, 3), (2, 0, 0, 0), 3, 9),
])
def test_count_skew_fillings_vs_oracle(lam, mu, k, expected):
    shape = SkewShape(lam, mu)
    assert count_skew_fillings(shape, k) == expected
    assert oracle_count_shape(shape, k) == expected


def test_count_skew_fillings_on_rectangles():
    for m in range(2, 9):
        for n in range(m, 9):
            for k in range(2, m + 1):
                shape = SkewShape([n] * m)
                assert count_skew_fillings(shape, k) == \
                    hprod(m - k + 1, n - k + 1, k - 1)


def test_count_skew_fillings_finds_each_minor_once(monkeypatch):
    # entries whose removals leave equal parts share one path count within
    # a call: on a rectangle the (k-1)^2 entries take at most 2k-3 values
    import iamkit.skew as skew
    calls = []

    def counted(lam, mu):
        calls.append((lam, mu))
        return kreweras_f(lam, mu)

    monkeypatch.setattr(skew, "kreweras_f", counted)
    for m in range(2, 9):
        for n in range(m, 9):
            for k in range(2, m + 1):
                calls.clear()
                assert count_skew_fillings(SkewShape([n] * m), k) == \
                    hprod(m - k + 1, n - k + 1, k - 1)
                assert len(calls) == len(set(calls)) <= 2 * k - 3, (m, n, k)
    for lam, mu, k, expected in CATALOG:
        calls.clear()
        assert count_skew_fillings(SkewShape(lam, mu), k) == expected
        assert len(calls) == len(set(calls)), (lam, mu, k)


# admissible shapes whose determinant is 0, with the oracle's count
SINGULAR = [
    ((6, 6, 6, 4, 4), (3, 3), 3, 18),
    ((7, 7, 7, 5, 5), (4, 4), 3, 30),
    ((7, 7, 7, 7, 5, 5), (3, 3), 4, 40),
]


@pytest.mark.parametrize("lam,mu,k,found", SINGULAR)
def test_count_skew_fillings_refuses_a_determinant_below_one(lam, mu, k,
                                                             found):
    # the all-zero filling extends to a maximal one, so every shape has at
    # least one, and a determinant <= 0 must raise, not be returned
    shape = SkewShape(lam, mu)
    assert validate_skew(shape, k)
    assert oracle_count_shape(shape, k) == found
    with pytest.raises(VerificationError):
        count_skew_fillings(shape, k)


def test_count_skew_fillings_gates_admissibility():
    with pytest.raises(ValueError):
        count_skew_fillings(SkewShape((3, 3)), 3)
    with pytest.raises(ValueError):
        count_skew_fillings(SkewShape((4, 3, 3)), 3)


# ---------------------------------------------------------------------------
# truncated rectangles


def test_truncated_rect_shape():
    assert TruncatedRect(3, 4, 2, 1).shape() == SkewShape((4, 4, 3))
    assert TruncatedRect(3, 4, 2, 2).shape() == SkewShape((4, 3, 2))
    assert TruncatedRect(4, 4, 4, 0).shape() == SkewShape((4, 4, 4, 4))
    with pytest.raises(ValueError):
        TruncatedRect(4, 3, 2, 1)
    with pytest.raises(ValueError):
        TruncatedRect(3, 4, 5, 0)
    with pytest.raises(ValueError):
        TruncatedRect(3, 4, 2, 3)


def test_count_truncated_rect_values():
    assert count_truncated_rect(2, 2, 2, 0) == 2
    assert count_truncated_rect(3, 3, 2, 1) == 5
    assert count_truncated_rect(4, 4, 3, 1) == 14
    assert count_truncated_rect(5, 6, 3, 2) == 300
    assert count_truncated_rect(6, 6, 4, 2) == 330
    assert count_truncated_rect(6, 6, 3, 3) == 594


def test_truncated_three_routes_and_oracle():
    for (m, n, k) in [(2, 3, 2), (3, 3, 2), (3, 4, 3), (4, 4, 3), (4, 5, 2)]:
        for t in (m - k, m - k + 1):
            product = count_truncated_rect(m, n, k, t)
            assert reflection_det(m, n, k, t) == product
            starts, ends = path_endpoints(m, n, k)
            assert lgv_count(starts, ends,
                             truncated_region(m, n, t)) == product
            shape = TruncatedRect(m, n, k, t).shape()
            assert oracle_count_shape(shape, k) == product


def test_reflection_variant_is_pinned_by_the_oracle():
    # (2, 3, 2, 0) separates delta = [t = m-k] from [t = n-k]; the oracle
    # matches the first, which reflection_count uses
    assert reflection_det(2, 3, 2, 0) == 3
    assert oracle_count_shape(TruncatedRect(2, 3, 2, 0).shape(), 2) == 3


def test_truncated_region_and_count_paths():
    free = lambda pt: True
    assert count_paths((0, 0), (3, 2), free) == 10
    assert count_paths((2, 2), (1, 5), free) == 0
    blocked = lambda pt: pt != (1, 0)
    assert count_paths((0, 0), (2, 0), blocked) == 0
    inside = truncated_region(3, 4, 2)
    assert inside((0, 0)) and inside((3, 2))
    assert not inside((3, 0))


def test_lgv_shape_mismatch():
    with pytest.raises(ValueError):
        lgv_count([(0, 0)], [], lambda pt: True)


# ---------------------------------------------------------------------------
# the binomial-determinant evaluation


def test_kratt_seeded_cases():
    rng = random.Random(4242)
    done = 0
    while done < 25:
        d = rng.randint(1, 4)
        A = rng.randint(0, 10)
        c = rng.choice((0, 1))
        lo, hi = c - A - d, d
        if hi - lo + 1 < d:
            continue
        L = sorted(rng.sample(range(lo, hi + 1), d))
        assert kratt_lhs(d, A, L, c) == kratt_rhs(d, A, L, c)
        done += 1


def test_kratt_repeated_entry_gives_zero():
    assert kratt_lhs(2, 5, [1, 1], 0) == 0
    assert kratt_rhs(2, 5, [1, 1], 0) == 0


def test_kratt_validation():
    with pytest.raises(ValueError):
        kratt_lhs(2, 5, [0, 1], 2)
    with pytest.raises(ValueError):
        kratt_rhs(2, -1, [0, 1], 0)
    with pytest.raises(ValueError):
        kratt_lhs(3, 5, [0, 1], 0)
    with pytest.raises(ValueError):
        kratt_rhs(1, 4, [2], 0)  # L_1 > d, negative factorial
