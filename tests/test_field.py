import random

import numpy as np
import pytest

from twinstore import FieldMatrix, PrimeField, in_row_space, mat_mul, rank, solve_square
from twinstore.errors import (
    DimensionMismatch,
    FieldMismatch,
    SingularMatrix,
    ZeroInverse,
)

PRIMES = [2, 3, 11, 101]


def random_matrix(rng, rows, cols, p):
    return FieldMatrix(rng.integers(0, p, size=(rows, cols)), PrimeField(p))


def random_nonsingular(rng, n, p):
    field = PrimeField(p)
    while True:
        m = FieldMatrix(rng.integers(0, p, size=(n, n)), field)
        if m.rank() == n:
            return m


class TestPrimeField:
    def test_rejects_composite_modulus(self):
        for bad in [0, 1, 4, 9, 15, 2**31]:
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_accepts_large_prime(self):
        PrimeField(2**31 - 1)  # Mersenne prime just under the bound

    def test_inv_examples(self):
        assert PrimeField(11).inv(4) == 3  # 4*3 = 12 = 1 mod 11
        assert PrimeField(11).inv(1) == 1
        assert PrimeField(2).inv(1) == 1

    def test_inv_zero(self):
        with pytest.raises(ZeroInverse):
            PrimeField(11).inv(0)

    @pytest.mark.parametrize("p", [2, 3, 5, 11, 101])
    def test_inv_matches_exhaustive_search(self, p):
        field = PrimeField(p)
        for x in range(1, p):
            brute = next(y for y in range(1, p) if (x * y) % p == 1)
            assert field.inv(x) == brute


class TestMatMul:
    def test_identity(self, f11):
        rng = np.random.default_rng(0)
        m = random_matrix(rng, 3, 5, 11)
        assert FieldMatrix.identity(3, f11) @ m == m

    def test_hand_sum(self, f11):
        row = FieldMatrix([[1, 2, 3, 4]], f11)
        col = FieldMatrix([[1], [1], [1], [1]], f11)
        assert (row @ col).array[0, 0] == 10  # 1+2+3+4 mod 11

    def test_zero_annihilates(self, f11):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, 4, 3, 11)
        assert FieldMatrix.zeros(2, 4, f11) @ m == FieldMatrix.zeros(2, 3, f11)

    def test_dimension_mismatch(self, f11):
        with pytest.raises(DimensionMismatch):
            mat_mul(FieldMatrix.zeros(2, 3, f11), FieldMatrix.zeros(2, 3, f11))

    def test_field_mismatch(self, f11):
        with pytest.raises(FieldMismatch):
            mat_mul(FieldMatrix.zeros(2, 3, f11),
                    FieldMatrix.zeros(3, 2, PrimeField(7)))

    def test_associative_random_triples(self):
        rng = np.random.default_rng(2)
        for p in PRIMES:
            for _ in range(25):
                a = random_matrix(rng, 3, 4, p)
                b = random_matrix(rng, 4, 2, p)
                c = random_matrix(rng, 2, 5, p)
                assert (a @ b) @ c == a @ (b @ c)

    def test_no_overflow_near_modulus_bound(self):
        # inner products of maximal residues must still reduce exactly
        p = 2**31 - 1
        field = PrimeField(p)
        a = FieldMatrix(np.full((1, 64), p - 1, dtype=np.int64), field)
        b = FieldMatrix(np.full((64, 1), p - 1, dtype=np.int64), field)
        expected = (64 * pow(p - 1, 2, p)) % p
        assert (a @ b).array[0, 0] == expected


class TestRank:
    def test_examples(self, f11):
        assert rank(FieldMatrix.identity(4, f11)) == 4
        assert rank(FieldMatrix.zeros(3, 5, f11)) == 0
        assert rank(FieldMatrix([[1, 2], [2, 4]], f11)) == 1

    def test_rank_equals_transpose_rank(self):
        rng = np.random.default_rng(3)
        for p in PRIMES:
            for _ in range(50):
                m = random_matrix(rng, rng.integers(1, 6), rng.integers(1, 6), p)
                assert m.rank() == m.T.rank()

    def test_pivot_prefix_counts_submatrix_rank(self):
        # pivots among the first j columns = rank of the first-j-column block
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = random_matrix(rng, 4, 6, 11)
            piv = m.pivot_columns()
            for j in range(1, 7):
                left = FieldMatrix(m.array[:, :j], m.field)
                assert left.rank() == sum(1 for c in piv if c < j)


class TestSolve:
    def test_identity(self, f11):
        y = np.array([3, 7, 9])
        assert np.array_equal(solve_square(FieldMatrix.identity(3, f11), y), y)

    def test_back_substitution_by_hand(self, f11):
        a = FieldMatrix([[1, 0], [1, 1]], f11)
        assert np.array_equal(solve_square(a, [3, 5]), [3, 2])

    def test_singular_raises(self, f11):
        with pytest.raises(SingularMatrix):
            solve_square(FieldMatrix([[1, 2], [2, 4]], f11), [1, 0])

    def test_roundtrip_random(self):
        # 1000 trials split over the standard prime set
        rng = np.random.default_rng(5)
        for p in PRIMES:
            field = PrimeField(p)
            for _ in range(250):
                n = int(rng.integers(1, 6))
                a = random_nonsingular(rng, n, p)
                x = field.uniform(rng, n)
                assert np.array_equal(a.solve(a @ x), x)


class TestRowSpace:
    def test_zero_vector_always_inside(self, f11):
        rng = np.random.default_rng(6)
        m = random_matrix(rng, 3, 4, 11)
        assert in_row_space(m, np.zeros(4, dtype=int))

    def test_span_and_outside(self, f11):
        eye_rows = FieldMatrix([[1, 0], [0, 1]], f11)
        assert in_row_space(eye_rows, [1, 1])
        single = FieldMatrix([[1, 0, 0]], f11)
        assert not in_row_space(single, [0, 1, 0])

    def test_length_mismatch(self, f11):
        with pytest.raises(DimensionMismatch):
            in_row_space(FieldMatrix.identity(2, f11), [1, 0, 0])


class TestImmutability:
    def test_entries_are_read_only(self, f11):
        m = FieldMatrix([[1, 2], [3, 4]], f11)
        with pytest.raises(ValueError):
            m.array[0, 0] = 9

    def test_operations_do_not_alias_inputs(self, f11):
        m = FieldMatrix([[1, 2], [3, 4]], f11)
        r = m.row(0)
        r[0] = 99
        assert m.array[0, 0] == 1
