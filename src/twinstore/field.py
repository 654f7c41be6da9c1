"""Exact dense linear algebra over prime fields F_p.

Matrices are immutable wrappers around int64 numpy arrays with entries
reduced to [0, p).  All intermediates stay below 2^63, so results are
exact for any prime modulus p < 2^31: a single product of two residues
fits in int64, and longer dot products are chunked so each partial sum
is reduced before it can overflow.

Gaussian elimination uses first-nonzero pivot selection, which makes
every derived quantity (rank, rref, solutions) deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    SingularMatrix,
    ZeroInverse,
)

_INT64_MAX = 2**63 - 1


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for moduli below 2^31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class PrimeField:
    """The prime field F_p for 2 <= p < 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if not 2 <= p < 2**31:
            raise ValueError(f"modulus must satisfy 2 <= p < 2^31, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def inv(self, x: int) -> int:
        """Multiplicative inverse of x in F_p.  Raises ZeroInverse for x = 0."""
        x = int(x) % self.p
        if x == 0:
            raise ZeroInverse(f"0 has no inverse in F_{self.p}")
        return pow(x, -1, self.p)

    def reduce(self, values) -> np.ndarray:
        """Return values as an int64 array reduced mod p."""
        return np.asarray(values, dtype=np.int64) % self.p

    def uniform(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw uniform field elements from a seeded generator."""
        return rng.integers(0, self.p, size=size, dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def _as_field_array(entries, p: int) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.int64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"matrix must be 2-D, got shape {arr.shape}")
    arr = arr % p
    arr.flags.writeable = False
    return arr


def _matmul_arrays(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p, chunking the inner dimension against overflow."""
    inner = a.shape[-1]
    # each partial dot of `chunk` terms stays below 2^63
    chunk = max(1, _INT64_MAX // max(1, (p - 1) ** 2))
    if inner <= chunk:
        return (a @ b) % p
    acc = np.zeros(np.matmul(a[..., :1], b[:1]).shape, dtype=np.int64)
    for start in range(0, inner, chunk):
        stop = min(start + chunk, inner)
        acc = (acc + (a[..., start:stop] @ b[start:stop]) % p) % p
    return acc


def _row_reduce(arr: np.ndarray, p: int, reduced: bool = True):
    """Row-reduce arr mod p on a copy; return (matrix, pivot column tuple).

    Columns are processed left to right with first-nonzero pivot selection,
    so for any j the number of pivots among the first j columns equals the
    rank of the submatrix formed by those columns.  Rows are swapped only on
    a zero pivot; the pivot row is scaled to a leading 1 and its column is
    cleared by one in-place update of the block (entries stay above
    -(p-1)^2 > -2^62 until reduced).  With reduced=False the block is the
    shrinking view of the rows from the pivot down (row echelon form); that
    path is the rank workhorse.
    """
    m = arr % p  # ufunc result: always a fresh writable array
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        if not m[r, c]:
            nz = np.nonzero(m[r + 1:, c])[0]
            if nz.size == 0:
                continue
            pr = r + 1 + int(nz[0])
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), -1, p)
        pivrow = m[r, c:]
        if inv != 1:
            pivrow *= inv
            pivrow %= p
        top = 0 if reduced else r
        block = m[top:, c:]
        factors = block[:, 0].copy()
        factors[r - top] = 0
        block -= factors[:, None] * pivrow
        block %= p
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def _pivot_columns(arr: np.ndarray, p: int) -> tuple:
    """Pivot columns of the row echelon form of arr over F_p."""
    if 0 in arr.shape:
        return ()
    _, piv = _row_reduce(arr, p, reduced=False)
    return piv


class FieldMatrix:
    """Immutable matrix over a prime field."""

    __slots__ = ("array", "field")

    def __init__(self, entries, field: PrimeField):
        self.array = _as_field_array(entries, field.p)
        self.field = field

    @classmethod
    def zeros(cls, rows: int, cols: int, field: PrimeField) -> "FieldMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), field)

    @classmethod
    def identity(cls, n: int, field: PrimeField) -> "FieldMatrix":
        return cls(np.eye(n, dtype=np.int64), field)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def T(self) -> "FieldMatrix":
        return FieldMatrix(self.array.T, self.field)

    def row(self, i: int) -> np.ndarray:
        return self.array[i].copy()

    def column(self, j: int) -> np.ndarray:
        return self.array[:, j].copy()

    def take_columns(self, idx) -> "FieldMatrix":
        return FieldMatrix(self.array[:, list(idx)], self.field)

    def __matmul__(self, other):
        if isinstance(other, FieldMatrix):
            if self.field != other.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by "
                    f"{other.rows}x{other.cols}"
                )
            return FieldMatrix(
                _matmul_arrays(self.array, other.array, self.field.p), self.field
            )
        vec = self.field.reduce(other)
        if vec.ndim != 1 or vec.shape[0] != self.cols:
            raise DimensionMismatch(
                f"vector length {vec.shape} does not match {self.cols} columns"
            )
        return _matmul_arrays(self.array, vec[:, None], self.field.p)[:, 0]

    def rank(self) -> int:
        return len(self.pivot_columns())

    def pivot_columns(self) -> tuple:
        """Pivot column indices of the row echelon form."""
        return _pivot_columns(self.array, self.field.p)

    def rref(self) -> "FieldMatrix":
        if 0 in self.array.shape:
            return self
        m, _ = _row_reduce(self.array, self.field.p, reduced=True)
        return FieldMatrix(m, self.field)

    def solve(self, y) -> np.ndarray:
        """Solve self @ x = y for a square nonsingular matrix.

        y is a length-n vector or an n x m matrix of m right-hand sides;
        x has y's shape.  One elimination of [self | y] serves every
        column, so a matrix y costs one solve, not m.
        """
        if self.rows != self.cols:
            raise DimensionMismatch("solve requires a square matrix")
        rhs = self.field.reduce(y)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.rows:
            raise DimensionMismatch(
                f"right-hand side length {rhs.shape} does not match {self.rows}"
            )
        aug = np.column_stack([self.array, rhs])
        red, piv = _row_reduce(aug, self.field.p, reduced=True)
        if piv != tuple(range(self.rows)):
            raise SingularMatrix("matrix is singular over F_p")
        return red[:, self.cols:].reshape(rhs.shape).copy()

    def tolist(self):
        return self.array.tolist()

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self):
        return hash((self.field.p, self.array.shape, self.array.tobytes()))

    def __repr__(self):
        return f"FieldMatrix({self.array.tolist()}, F_{self.field.p})"


def vstack(mats) -> FieldMatrix:
    mats = list(mats)
    field = mats[0].field
    if any(m.field != field for m in mats):
        raise FieldMismatch("cannot stack matrices over different fields")
    return FieldMatrix(np.vstack([m.array for m in mats]), field)


# ----------------------------------------------------------------------
# Operation-style entry points.

def rank(m: FieldMatrix) -> int:
    """Rank over F_p via Gaussian elimination."""
    return m.rank()


def in_row_space(m: FieldMatrix, v) -> bool:
    """True iff appending v as a row leaves the rank of m unchanged."""
    vec = m.field.reduce(v)
    if vec.ndim != 1 or vec.shape[0] != m.cols:
        raise DimensionMismatch(
            f"vector length {vec.shape} does not match {m.cols} columns"
        )
    stacked = FieldMatrix(np.vstack([m.array, vec[None, :]]), m.field)
    return stacked.rank() == m.rank()
