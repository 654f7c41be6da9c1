from fractions import Fraction

import pytest

from twinstore import (
    BoundParams,
    capacity_bound,
    comparison_series,
    mbr_file_size,
    mbr_point,
    msr_file_size,
    msr_point,
    secrecy_bound_pawar,
    secure_capacity_twin,
    secure_mbr_size,
    secure_msr_size,
    series_to_csv,
    twin_file_size,
)
from twinstore.errors import BadRange


class TestCapacityBound:
    def test_staircase(self):
        p = BoundParams(k=4, d=4, alpha=4, beta=1)
        assert capacity_bound(p) == 10  # 4+3+2+1

    def test_zero_beta(self):
        assert capacity_bound(BoundParams(k=3, d=5, alpha=2, beta=0)) == 0

    def test_k_one(self):
        p = BoundParams(k=1, d=6, alpha=3, beta=1)
        assert capacity_bound(p) == min(3, 6)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BoundParams(k=5, d=4, alpha=4, beta=1)
        with pytest.raises(ValueError):
            BoundParams(k=2, d=4, alpha=1, beta=2)

    def test_gamma(self):
        assert BoundParams(k=2, d=6, alpha=3, beta=Fraction(1, 2)).gamma == 3


class TestExtremePoints:
    def test_msr_point(self):
        assert msr_point(16, 4, 7) == (4, 7)
        assert msr_point(12, 3, 4) == (4, 8)
        s, k, d = 10, 5, 5
        assert msr_point(s, k, d) == (2, 10)  # d = k collapses to (S/k, S)

    def test_msr_point_exact_rational(self):
        alpha, gamma = msr_point(10, 3, 5)
        assert alpha == Fraction(10, 3)
        assert gamma == Fraction(10, 3) * Fraction(5, 3)

    def test_mbr_point(self):
        assert mbr_point(10, 4, 4) == (4, 4)
        assert mbr_point(6, 3, 3) == (3, 3)
        assert mbr_point(7, 1, 9) == (7, 7)  # k = 1 stores everything


class TestFileSizes:
    def test_mbr_file_size(self):
        assert mbr_file_size(4, 4, 1) == 10
        assert mbr_file_size(50, 50, 1) == 1275
        assert mbr_file_size(1, 7, 2) == 14  # k = 1 -> d*beta

    def test_msr_file_size(self):
        assert msr_file_size(4, 7, 1) == (16, 4)
        assert msr_file_size(50, 99, 1) == (2500, 50)
        assert msr_file_size(6, 6, 1) == (6, 1)  # d = k -> S = k

    def test_twin_file_size(self):
        assert twin_file_size(4) == 16
        assert twin_file_size(1) == 1
        assert twin_file_size(50) == 2500

    def test_mbr_consistency_with_capacity_bound(self):
        for k in range(1, 30):
            p = BoundParams(k=k, d=k, alpha=k, beta=1)
            assert mbr_file_size(k, k, 1) == capacity_bound(p)

    def test_mbr_size_split_identity(self):
        # kd - C(k,2) = k(d-k) + k(k+1)/2 for beta = 1
        for k in range(1, 25):
            for d in range(k, 3 * k + 2):
                assert mbr_file_size(k, d, 1) == \
                    k * (d - k) + Fraction(k * (k + 1), 2)

    def test_twin_equals_msr_at_matched_point(self):
        for k in range(1, 60):
            assert twin_file_size(k) == msr_file_size(k, 2 * k - 1, 1)[0]


class TestSecrecyBounds:
    def test_pawar_staircase(self):
        p = BoundParams(k=4, d=4, alpha=4, beta=1)
        assert secrecy_bound_pawar(p, 1) == 6  # 3+2+1
        assert secrecy_bound_pawar(p, 4) == 0
        assert secrecy_bound_pawar(p, 0) == capacity_bound(p)

    def test_secure_mbr_size(self):
        assert secure_mbr_size(4, 4, 1, 2) == 3  # (k-l)(k+1-l)/2 = 2*3/2
        assert secure_mbr_size(50, 50, 1, 1) == 1225
        assert secure_mbr_size(5, 5, 1, 0) == mbr_file_size(5, 5, 1)

    def test_secure_mbr_matches_pawar_at_operating_point(self):
        for k in range(2, 20):
            for d in range(k, 2 * k + 3):
                for beta in (1, 2, Fraction(1, 2)):
                    p = BoundParams(k=k, d=d, alpha=d * Fraction(beta),
                                    beta=beta)
                    for l in range(0, k + 1):
                        assert secure_mbr_size(k, d, beta, l) == \
                            secrecy_bound_pawar(p, l)

    def test_secure_msr_size(self):
        assert secure_msr_size(4, 7, 4, 1, 1) == 6  # 2 * (3/4) * 4
        assert secure_msr_size(50, 99, 50, 2, 1) == 2303  # 47 * 49
        assert secure_msr_size(6, 11, 6, 2, 0) == (6 - 2) * 6

    def test_secure_msr_exact_rational(self):
        got = secure_msr_size(50, 99, 50, 2, 47)
        assert got == 50 * Fraction(49, 50) ** 47
        assert got.denominator == 50**46  # stays an exact rational

    def test_twin_secure_size(self):
        assert secure_capacity_twin(4, 2, 0) == 8
        assert secure_capacity_twin(50, 2, 1) == 2350


class TestDominance:
    def test_twin_vs_mbr_all_small_ranges(self):
        # twin secure size never loses to the MBR bound at beta=1, alpha=d=k
        for k in range(2, 201):
            for l in range(1, k):
                assert secure_capacity_twin(k, l, 0) >= secure_mbr_size(k, k, 1, l)

    def test_twin_vs_msr_strict_when_repairs_observed(self):
        for k in range(3, 60):
            for l1 in range(0, k - 2):
                for l2 in range(1, k - l1):
                    if l1 + l2 >= k:
                        continue
                    twin = secure_capacity_twin(k, l1, l2)
                    msr = secure_msr_size(k, 2 * k - 1, k, l1, l2)
                    assert twin > msr

    def test_plain_twin_vs_mbr(self):
        for k in range(1, 100):
            assert twin_file_size(k) >= mbr_file_size(k, k, 1)
            if k > 1:
                assert twin_file_size(k) > mbr_file_size(k, k, 1)


class TestSeries:
    def test_fig5_shape_and_values(self):
        rows = comparison_series("fig5", k_max=50)
        assert len(rows) == 48
        first = rows[0]
        assert (first.k, first.s_twin, first.s_mbr, first.s_msr) == (3, 9, 6, 9)
        last = rows[-1]
        assert (last.k, last.s_twin, last.s_mbr, last.s_msr) == \
            (50, 2500, 1275, 2500)

    def test_fig8_shape_and_values(self):
        rows = comparison_series("fig8", k=50)
        assert len(rows) == 49
        assert (rows[0].s_twin, rows[0].s_mbr) == (2450, 1225)
        assert (rows[-1].l1, rows[-1].s_twin, rows[-1].s_mbr) == (49, 50, 1)
        assert all(r.s_msr is None for r in rows)

    def test_fig9_shape_and_values(self):
        rows = comparison_series("fig9", k=50, l1=2)
        assert len(rows) == 47
        assert rows[0].s_twin == 2350 and rows[0].s_msr == 2303
        tail = rows[-1]
        assert tail.l2 == 47 and tail.s_twin == 50
        assert tail.s_msr == 50 * Fraction(49, 50) ** 47
        assert float(tail.s_msr) == pytest.approx(19.3462, abs=1e-4)
        assert round(float(tail.s_msr), 2) == 19.35

    def test_bad_ranges(self):
        with pytest.raises(BadRange):
            comparison_series("fig5", k_max=2)
        with pytest.raises(BadRange):
            comparison_series("fig8", k=1)
        with pytest.raises(BadRange):
            comparison_series("fig9", k=4, l1=3)
        with pytest.raises(BadRange):
            comparison_series("nope")


class TestCsv:
    def test_header_and_integer_formatting(self):
        text = series_to_csv(comparison_series("fig5", k_max=4))
        lines = text.strip().split("\n")
        assert lines[0] == "k,l1,l2,s_twin,s_mbr,s_msr"
        assert lines[1] == "3,0,0,9,6,9"
        assert lines[2] == "4,0,0,16,10,16"

    def test_fractional_rounding_and_blanks(self):
        text = series_to_csv(comparison_series("fig9", k=5, l1=1))
        lines = text.strip().split("\n")
        # l2 = 1: 5*3*(4/5) = 12 exactly; l2 = 2: 5*2*(16/25) = 6.4
        assert lines[1] == "5,1,1,15,,12"
        assert lines[2] == "5,1,2,10,,6.400000"

    def test_byte_stability(self):
        a = series_to_csv(comparison_series("fig8", k=50))
        b = series_to_csv(comparison_series("fig8", k=50))
        assert a == b
