"""Acceptance gate: eleven end-to-end checks, one test (= one pass/fail
line under pytest -v) per criterion.  Everything is exact integer or
rational arithmetic; every bound is a hard assert, never a tolerance.
"""

import random
import time
from math import factorial

from iamkit.bijection import (
    count_zigzag_decompositions,
    enumerate_pp,
    matrix_to_paths,
    matrix_to_pp,
    path_endpoints,
    paths_to_matrix,
    pp_to_matrix,
)
from iamkit.core import SkewShape
from iamkit.formulas import (
    SYMMETRY_TAGS,
    check_product_relations,
    count_iams,
    count_symmetry,
    hprod,
)
from iamkit.genfunc import (
    DEFAULT_SEED,
    QPoly,
    gf_lhs,
    gf_rhs,
    pp_volume_gf,
    seeded_points,
    stat_d,
    stat_v,
    stat_vd,
    volume_gf,
)
from iamkit.oracle import (
    enumerate_maximal_iams,
    oracle_count,
    oracle_count_shape,
)
from iamkit.skew import (
    TruncatedRect,
    count_skew_fillings,
    count_truncated_rect,
    det_bareiss,
    kratt_lhs,
    kratt_rhs,
    kreweras_f,
    lgv_count,
    reflection_det,
    truncated_region,
)
from iamkit.symmetry import class_histogram

RECT_TAGS = ("U", "VS", "HS", "VHS", "HTS")


def test_criterion_01_six_matrices_and_their_statistics():
    start = time.perf_counter()
    want = {
        ((3, 3), (3, 4)): (0, 0, (0, 0)),
        ((2, 2), (3, 4)): (1, 1, (1, 0)),
        ((2, 2), (2, 3)): (2, 1, (1, 0)),
        ((1, 1), (3, 4)): (2, 2, (1, 1)),
        ((1, 1), (2, 3)): (3, 2, (1, 1)),
        ((1, 1), (1, 2)): (4, 2, (1, 1)),
    }
    seen = {}
    for M in enumerate_maximal_iams(3, 4, 3):
        seen[tuple(M.zero_cells())] = (stat_v(M), stat_vd(M), stat_d(M, 3))
    assert seen == want
    assert count_iams(3, 4, 3) == 6
    assert time.perf_counter() - start < 1


def test_criterion_02_product_formula_vs_search():
    start = time.perf_counter()
    for m in range(2, 7):
        for n in range(m, 7):
            for k in range(2, m + 1):
                assert count_iams(m, n, k) == oracle_count(m, n, k)
    assert time.perf_counter() - start < 600


def test_criterion_03_bijection_round_trips_and_image():
    start = time.perf_counter()
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(2, min(m, n) + 1):
                image = set()
                total = 0
                for M in enumerate_maximal_iams(m, n, k):
                    total += 1
                    pp = matrix_to_pp(M, k)
                    assert pp_to_matrix(pp, m, n, k) == M
                    fam = matrix_to_paths(M, k)
                    assert paths_to_matrix(fam, m, n, k) == M
                    image.add(pp)
                box = set(enumerate_pp(m - k + 1, n - k + 1, k - 1))
                assert image == box
                assert total == len(box)
    assert time.perf_counter() - start < 300


def test_criterion_04_zigzag_decomposition_count():
    start = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    for (m, n) in [(4, 4), (5, 5), (5, 6)]:
        for k in range(2, min(m, n, 5) + 1):
            stream = list(enumerate_maximal_iams(m, n, k))
            picked = stream if len(stream) <= 50 else rng.sample(stream, 50)
            for M in picked:
                assert count_zigzag_decompositions(M, k) == factorial(k - 1)
    assert time.perf_counter() - start < 300


def test_criterion_05_symmetry_class_formulas():
    start = time.perf_counter()
    for m in range(2, 8):
        for n in range(2, 8):
            for k in range(2, min(m, n) + 1):
                hist = class_histogram(m, n, k)
                tags = SYMMETRY_TAGS if m == n else RECT_TAGS
                for tag in tags:
                    assert count_symmetry(tag, m, n, k) == hist[tag], \
                        (tag, m, n, k)
    assert time.perf_counter() - start < 900


def test_criterion_06_qt_identity_at_seeded_points():
    start = time.perf_counter()
    pts = seeded_points(20, span=14)
    assert len(pts) == 20
    for (m, n, k) in [(2, 2, 2), (3, 4, 3), (4, 4, 3), (4, 5, 3), (5, 5, 4)]:
        for (q, t) in pts:
            assert gf_lhs(m, n, k, q, t) == gf_rhs(m, n, k, q, t)
    for (q, t) in pts:
        closed = ((1 - t * q ** 3) * (1 - t * q ** 4)
                  / ((1 - t * q) * (1 - t * q ** 2)))
        assert gf_rhs(3, 4, 3, q, t) == closed
    assert time.perf_counter() - start < 120


def test_criterion_07_volume_polynomial_three_ways():
    start = time.perf_counter()
    for m in range(2, 6):
        for n in range(2, 6):
            for k in range(2, min(m, n) + 1):
                poly = volume_gf(m, n, k)
                num = QPoly.one()
                den = QPoly.one()
                for i in range(1, m - k + 2):
                    for j in range(1, n - k + 2):
                        for l in range(1, k):
                            num = num * QPoly.one_minus_q_power(i + j + l - 1)
                            den = den * QPoly.one_minus_q_power(i + j + l - 2)
                assert poly == num.exact_div(den)
                assert poly == pp_volume_gf(m - k + 1, n - k + 1, k - 1)
    assert time.perf_counter() - start < 120


def test_criterion_08_truncated_rectangles_four_ways():
    start = time.perf_counter()
    assert count_truncated_rect(3, 3, 2, 1) == 5
    assert count_truncated_rect(2, 2, 2, 0) == 2
    for m in range(2, 7):
        for n in range(m, 7):
            for k in range(2, m + 1):
                for t in (m - k, m - k + 1):
                    product = count_truncated_rect(m, n, k, t)
                    assert reflection_det(m, n, k, t) == product
                    starts, ends = path_endpoints(m, n, k)
                    assert lgv_count(starts, ends,
                                     truncated_region(m, n, t)) == product
                    shape = TruncatedRect(m, n, k, t).shape()
                    assert oracle_count_shape(shape, k) == product
    assert time.perf_counter() - start < 600


def test_criterion_09_skew_determinant_vs_search():
    start = time.perf_counter()
    catalog = [
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
    assert len(catalog) >= 20
    for lam, mu, k, expected in catalog:
        shape = SkewShape(lam, mu)
        assert shape.cell_count() <= 20
        assert count_skew_fillings(shape, k) == expected
        assert oracle_count_shape(shape, k) == expected
    for m in range(2, 9):
        for n in range(m, 9):
            for k in range(2, m + 1):
                assert count_skew_fillings(SkewShape([n] * m), k) == \
                    hprod(m - k + 1, n - k + 1, k - 1)
    # the worked 2 x 2 determinant for lambda = (4, 4, 4), k = 3
    assert kreweras_f((3,), ()) == 4
    assert kreweras_f((3, 3), ()) == 10
    assert det_bareiss([[4, 10], [1, 4]]) == 6
    assert count_skew_fillings(SkewShape((4, 4, 4)), 3) == 6
    assert time.perf_counter() - start < 600


def test_criterion_10_binomial_determinant_evaluation():
    start = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    for _ in range(100):
        d = rng.randint(1, 5)
        A = rng.randint(0, 12)
        c = rng.choice((0, 1))
        L = sorted(rng.sample(range(c - A - d, d + 1), d))
        assert kratt_lhs(d, A, L, c) == kratt_rhs(d, A, L, c)
    assert time.perf_counter() - start < 60


def test_criterion_11_product_relations_between_classes():
    start = time.perf_counter()
    for half in range(2, 7):
        kk = 2 * half - 1          # odd chain length 3, 5, 7, 9, 11
        for n in range(kk, 13):
            assert check_product_relations(n, half) == (True, True)
    assert time.perf_counter() - start < 60
