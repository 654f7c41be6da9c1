import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twinstore import FieldMatrix, PrimeField, in_row_space, is_prime, rank
from twinstore.errors import (
    DimensionMismatch,
    FieldMismatch,
    SingularMatrix,
    ZeroInverse,
)
from twinstore.field import _row_reduce

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


def primes_by_trial_division(low, high):
    """Boolean mask over low..high-1: True where the number is prime, by
    trial division by every prime up to sqrt(high), one sieve pass each."""
    numbers = np.arange(low, high, dtype=np.int64)
    prime = numbers >= 2
    for d in range(2, math.isqrt(high) + 1):
        if all(d % e for e in range(2, math.isqrt(d) + 1)):
            prime &= (numbers % d != 0) | (numbers == d)
    return prime


class TestIsPrime:
    """Miller-Rabin to the bases 2, 7, 61 against trial division."""

    @pytest.mark.parametrize("low, high", [(-10, 2 * 10**5),
                                           (2**31 - 10**4, 2**31 + 10**4 + 1)],
                             ids=["below-2e5", "around-2^31"])
    def test_matches_trial_division(self, low, high):
        want = primes_by_trial_division(low, high)
        got = np.array([is_prime(n) for n in range(low, high)])
        assert np.array_equal(got, want)
        assert want.sum() > 400  # both answers occur

    def test_strong_pseudoprimes_to_fewer_bases(self):
        # 3215031751 = 151 * 751 * 28351 passes bases 2, 3, 5 and 7;
        # base 61 refutes it (Jaeschke 1993)
        assert not is_prime(3215031751)

    def test_refuses_beyond_its_exact_range(self):
        with pytest.raises(ValueError, match="exact only below 4759123141"):
            is_prime(4_759_123_141)


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
            FieldMatrix.zeros(2, 3, f11) @ FieldMatrix.zeros(2, 3, f11)

    def test_field_mismatch(self, f11):
        with pytest.raises(FieldMismatch):
            FieldMatrix.zeros(2, 3, f11) @ FieldMatrix.zeros(3, 2, PrimeField(7))

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
        assert np.array_equal(FieldMatrix.identity(3, f11).solve(y), y)

    def test_back_substitution_by_hand(self, f11):
        a = FieldMatrix([[1, 0], [1, 1]], f11)
        assert np.array_equal(a.solve([3, 5]), [3, 2])

    def test_singular_raises(self, f11):
        with pytest.raises(SingularMatrix):
            FieldMatrix([[1, 2], [2, 4]], f11).solve([1, 0])

    def test_singular_raises_for_matrix_rhs(self, f11):
        singular = FieldMatrix([[1, 2], [2, 4]], f11)
        # inconsistent and consistent right-hand sides alike
        for y in ([[1, 0], [0, 1]], [[1], [2]]):
            with pytest.raises(SingularMatrix) as exc:
                singular.solve(y)
            assert str(exc.value) == "matrix is singular over F_p"

    def test_matrix_rhs_by_hand(self, f11):
        a = FieldMatrix([[1, 0], [1, 1]], f11)
        x = a.solve([[3, 1], [5, 0]])
        assert x.tolist() == [[3, 1], [2, 10]]

    def test_rhs_shape_errors(self, f11):
        eye = FieldMatrix.identity(3, f11)
        for y, shape in ((np.zeros((2, 3)), "(2, 3)"),
                         (np.zeros((3, 1, 1)), "(3, 1, 1)"),
                         ([1, 2], "(2,)"), (5, "()")):
            with pytest.raises(DimensionMismatch) as exc:
                eye.solve(y)
            assert str(exc.value) == (f"right-hand side length {shape} "
                                      f"does not match 3")
        with pytest.raises(DimensionMismatch) as exc:
            FieldMatrix([[1, 2, 3]], f11).solve([[1]])
        assert str(exc.value) == "solve requires a square matrix"

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


# Properties at the largest supported prime, against Python-int arithmetic.
# There a partial dot product holds only two terms before it must be
# reduced, so any inner dimension of 3 or more takes the chunked path.
P31 = 2**31 - 1
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)
residues = st.integers(0, P31 - 1) | st.sampled_from([0, 1, P31 - 2, P31 - 1])


def int_matrix(rows, cols):
    return st.lists(st.lists(residues, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) % P31 for col in zip(*b)]
            for row in a]


def int_row_reduce(a, p, reduced=True):
    """Gauss-Jordan over Python ints mod p with first-nonzero pivots:
    (matrix, pivot column tuple).  Each pivot row is scaled to a leading
    1; with reduced=False only the rows below it are cleared."""
    m = [[v % p for v in row] for row in a]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(0 if reduced else r + 1, len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, tuple(pivots)


def int_solve(a, y, p=P31):
    """Gauss-Jordan over Python ints mod p; None if a is singular."""
    n = len(a)
    m, pivots = int_row_reduce([list(row) + [v] for row, v in zip(a, y)], p)
    if pivots != tuple(range(n)):
        return None
    return [row[n] for row in m]


@st.composite
def matmul_operands(draw):
    rows, inner, cols = (draw(st.integers(1, 4)), draw(st.integers(3, 9)),
                         draw(st.integers(1, 4)))
    return draw(int_matrix(rows, inner)), draw(int_matrix(inner, cols))


@st.composite
def linear_systems(draw):
    n = draw(st.integers(1, 6))
    return draw(int_matrix(n, n)), draw(st.lists(residues, min_size=n,
                                                 max_size=n))


@st.composite
def multi_rhs_systems(draw):
    """(p, n x n matrix, n x m right-hand side) with m in 1..4."""
    p = draw(st.sampled_from([11, 101, P31]))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entries = st.integers(0, p - 1) | st.sampled_from([0, 1, p - 1])

    def grid(rows, cols):
        return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)
    return p, draw(grid(n, n)), draw(grid(n, m))


@st.composite
def reducible_matrices(draw):
    """(p, matrix) over p in {2, 3, 101, 2^31-1}: rectangular either way,
    often with zero leading columns, zero diagonal entries that force a
    row swap, and rows that repeat a multiple of an earlier row."""
    p = draw(st.sampled_from([2, 3, 101, P31]))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    entries = st.integers(0, p - 1) | st.sampled_from([0, 0, 1, p - 1])
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for c in range(draw(st.integers(0, cols))):
        for row in m:
            row[c] = 0
    for c in draw(st.lists(st.integers(0, min(rows, cols) - 1), max_size=3)):
        m[c][c] = 0
    for i in draw(st.lists(st.integers(1, rows - 1), max_size=3)
                  if rows > 1 else st.just([])):
        j, f = draw(st.integers(0, i - 1)), draw(entries)
        m[i] = [f * v % p for v in m[j]]
    return p, m


class TestRowReduceReference:
    """_row_reduce, the one elimination every rank, rref and solve
    goes through, equals the Python-int Gauss-Jordan reference exactly:
    the same first-nonzero pivots and the same matrix, in both modes."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(reducible_matrices(), st.booleans())
    @example((3, [[0, 1], [1, 0]]), True)
    @example((2, [[0, 0, 1], [0, 1, 1], [0, 1, 0]]), False)
    @example((101, [[1, 2, 3], [2, 4, 6], [0, 0, 5]]), True)
    @example((P31, [[0, 0], [0, 0], [0, 0]]), True)
    @example((P31, [[P31 - 1, 1, P31 - 1, 1], [1, P31 - 1, 1, 2]]), False)
    def test_matches_python_ints(self, case, reduced):
        p, a = case
        arr = np.array(a, dtype=np.int64)
        want, want_pivots = int_row_reduce(a, p, reduced)
        got, pivots = _row_reduce(arr, p, reduced)
        assert pivots == want_pivots
        assert got.tolist() == want
        assert arr.tolist() == a  # the input is left as it was
        assert FieldMatrix(a, PrimeField(p)).pivot_columns() == pivots


class TestLargePrimeProperties:
    @PROPERTY
    @given(matmul_operands())
    def test_matmul_matches_python_ints(self, operands):
        a, b = operands
        field = PrimeField(P31)
        product = FieldMatrix(a, field) @ FieldMatrix(b, field)
        assert product.tolist() == int_matmul(a, b)
        column = [row[0] for row in b]
        assert (FieldMatrix(a, field) @ column).tolist() == [
            row[0] for row in int_matmul(a, b)]

    @PROPERTY
    @given(linear_systems())
    def test_solve_matches_python_ints(self, system):
        a, x = system
        y = [row[0] for row in int_matmul(a, [[v] for v in x])]
        want = int_solve(a, y)
        assume(want is not None)  # nonsingular: x is the only solution
        assert want == x
        assert FieldMatrix(a, PrimeField(P31)).solve(y).tolist() == x

    @PROPERTY
    @given(multi_rhs_systems())
    def test_matrix_rhs_solves_each_column(self, system):
        p, a, y = system
        mat = FieldMatrix(a, PrimeField(p))
        columns = [list(col) for col in zip(*y)]
        want = [int_solve(a, col, p) for col in columns]
        if want[0] is None:
            with pytest.raises(SingularMatrix):
                mat.solve(y)
            return
        x = mat.solve(y)
        assert x.shape == (len(a), len(columns))
        assert [list(col) for col in zip(*x.tolist())] == want
        assert want == [mat.solve(col).tolist() for col in columns]


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
