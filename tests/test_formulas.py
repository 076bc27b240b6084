"""Box-product values and the symmetry-class counting formulas."""

import itertools
from fractions import Fraction

import pytest

from iamkit.bijection import enumerate_pp
from iamkit.core import VerificationError
from iamkit.formulas import (
    SYMMETRY_TAGS,
    _int_of,
    check_product_relations,
    count_iams,
    count_symmetry,
    hprod,
)
from iamkit.oracle import oracle_count
from iamkit.symmetry import is_SC, is_SSC


def test_hprod_values():
    assert hprod(1, 1, 1) == 2
    assert hprod(1, 2, 2) == 6
    assert hprod(2, 2, 2) == 20
    assert hprod(3, 3, 2) == 175
    assert hprod(4, 4, 2) == 1764
    assert hprod(5, 5, 2) == 19404
    assert hprod(4, 5, 2) == 5292
    assert hprod(6, 6, 1) == 924
    assert hprod(3, 3, 4) == 4116
    assert hprod(5, 3, 4) == 116424
    for c in range(7):
        assert hprod(1, 1, c) == c + 1


def test_hprod_empty_box():
    assert hprod(0, 5, 5) == 1
    assert hprod(3, 0, 2) == 1
    assert hprod(0, 0, 0) == 1
    with pytest.raises(ValueError):
        hprod(-1, 2, 2)


def _hprod_literal(a, b, c):
    """The defining triple product, factor by factor: the twin of hprod's
    one power per diagonal."""
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for l in range(1, c + 1):
                num *= i + j + l - 1
                den *= i + j + l - 2
    q, r = divmod(num, den)
    assert r == 0
    return q


def test_hprod_matches_the_literal_triple_product():
    for a, b, c in itertools.product(range(7), repeat=3):
        assert hprod(a, b, c) == _hprod_literal(a, b, c), (a, b, c)


def test_hprod_symmetric():
    for a, b, c in itertools.product(range(4), repeat=3):
        vals = {hprod(*p) for p in itertools.permutations((a, b, c))}
        assert len(vals) == 1


def test_count_iams_values():
    assert count_iams(3, 4, 3) == 6
    assert count_iams(2, 2, 2) == 2
    assert count_iams(9, 7, 5) == 116424
    assert count_iams(6, 6, 2) == 252  # single-layer case, C(10, 5)
    with pytest.raises(ValueError):
        count_iams(3, 4, 5)


def test_count_iams_against_oracle_spot():
    for (m, n, k) in [(3, 4, 3), (4, 4, 2), (4, 5, 3), (5, 5, 4), (5, 6, 5)]:
        assert count_iams(m, n, k) == oracle_count(m, n, k)


def test_symmetry_hand_values():
    assert count_symmetry("U", 3, 3, 3) == 3
    assert count_symmetry("U", 3, 4, 3) == 6
    assert count_symmetry("DS", 3, 3, 3) == 3
    assert count_symmetry("AS", 3, 3, 3) == 1
    assert count_symmetry("DAS", 3, 3, 3) == 1
    assert count_symmetry("HTS", 3, 3, 3) == 1
    assert count_symmetry("HTS", 3, 4, 3) == 2
    assert count_symmetry("HTS", 4, 3, 3) == 2  # swap-normalized
    assert count_symmetry("QTS", 3, 3, 3) == 1
    assert count_symmetry("TS", 3, 3, 3) == 1
    assert count_symmetry("VS", 5, 8, 3) == 1


def test_even_k_classes_vanish():
    for n in range(2, 9):
        for k in range(2, n + 1, 2):
            for tag in ("AS", "DAS", "VS", "HS", "VHS", "QTS", "TS"):
                assert count_symmetry(tag, n, n, k) == 0


def test_square_only_tags_reject_rectangles():
    for tag in ("DS", "AS", "DAS", "QTS", "TS"):
        with pytest.raises(ValueError):
            count_symmetry(tag, 3, 4, 3)


def test_unknown_tag():
    with pytest.raises(ValueError):
        count_symmetry("XX", 3, 3, 3)


def test_all_tags_are_integers_and_nonnegative():
    for tag in SYMMETRY_TAGS:
        for n in range(2, 10):
            for k in range(2, n + 1):
                val = count_symmetry(tag, n, n, k)
                assert isinstance(val, int) and val >= 0


def test_product_relations_spot():
    assert check_product_relations(3, 2) == (True, True)
    assert check_product_relations(9, 3) == (True, True)
    with pytest.raises(ValueError):
        check_product_relations(3, 3)  # 2k-1 = 5 > n


def test_non_integer_class_count_raises():
    assert _int_of(Fraction(6, 3)) == 2
    with pytest.raises(VerificationError):
        _int_of(Fraction(1, 2))


def test_hts_and_das_count_the_sc_and_ssc_plane_partitions():
    # HTS and DAS are the SC and SSC box products (Stanley 1986); here they
    # meet the plane partitions of each box with a*b*c <= 36 themselves,
    # every parity of the three sides, not through the bijection
    boxes = 0
    for a, b, c in itertools.product(range(1, 37), repeat=3):
        if a * b * c > 36:
            continue
        boxes += 1
        pps = list(enumerate_pp(a, b, c))
        m, n, k = a + c, b + c, c + 1
        assert count_symmetry("HTS", m, n, k) == sum(map(is_SC, pps)), \
            (a, b, c)
        if a == b:
            assert count_symmetry("DAS", m, n, k) == sum(map(is_SSC, pps)), \
                (a, b, c)
    assert boxes == 363
