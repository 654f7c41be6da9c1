"""(n, k) MDS codes over prime fields: construction, encoding, erasure decoding.

The default construction is generalized Reed-Solomon: a Vandermonde
generator on distinct evaluation points (0, 1, ..., n-1 unless supplied).
Any k columns of such a generator are nonsingular, and so are any c <= l
columns of its first l rows -- the property the secrecy layer relies on.
A systematic variant (reduced row echelon form, leading identity block)
and arbitrary explicit generators are also supported.

Node/codeword positions are 1-based on this module's surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicatePoints,
    NotMds,
    SingularMatrix,
    SingularSubmatrix,
    TooFewPoints,
    UnverifiedCode,
)
from .field import FieldMatrix, PrimeField, _pivot_columns

# Cap for exhaustive k x k minor verification: C(20, 10) ~ 184k minors.
MINOR_CHECK_MAX_N = 20


@dataclass(frozen=True, eq=False)
class MdsCode:
    """A linear (n, k) MDS code described by its generator matrix."""

    n: int
    k: int
    field: PrimeField
    generator: FieldMatrix
    style: str  # "vandermonde" | "systematic" | "explicit"
    eval_points: tuple | None = None

    def encoding_vector(self, j: int) -> np.ndarray:
        """Column j (1-based) of the generator."""
        if not 1 <= j <= self.n:
            raise DimensionMismatch(f"position {j} outside [1, {self.n}]")
        return self.generator.column(j - 1)

    def pivots(self, positions) -> tuple:
        """Pivot columns of the generator columns at the 1-based positions,
        stacked as rows and brought to row echelon form.

        Their count is the rank of those columns, and the pivots below l
        count the rank of the columns' first l rows.  Both depend only on
        the row space, so the lookup is keyed by the sorted set of
        positions and memoized on this immutable code: a caller pays one
        elimination per distinct position set.
        """
        key = tuple(sorted({int(j) for j in positions}))
        memo = self._pivot_memo
        if key not in memo:
            if key and not (1 <= key[0] and key[-1] <= self.n):
                raise DimensionMismatch(f"positions {key} outside [1, {self.n}]")
            cols = self.generator.array[:, [j - 1 for j in key]]
            memo[key] = _pivot_columns(cols.T, self.field.p)
        return memo[key]

    def spans(self, positions) -> bool:
        """True iff the generator columns at the 1-based positions span F^k.

        Any k positions of an MDS code do, but a hand-built code need not
        be MDS, so the rank is read from the shared `pivots` memo.
        """
        return len(self.pivots(positions)) == self.k

    @cached_property
    def _pivot_memo(self) -> dict:
        return {}

    def __eq__(self, other):
        return (
            isinstance(other, MdsCode)
            and (self.n, self.k, self.style, self.eval_points)
            == (other.n, other.k, other.style, other.eval_points)
            and self.generator == other.generator
        )

    def __repr__(self):
        return f"MdsCode(n={self.n}, k={self.k}, p={self.field.p}, style={self.style!r})"


def _check_points(n: int, k: int, field: PrimeField, points):
    if not 1 <= k <= n:
        raise DimensionMismatch(f"need 1 <= k <= n, got k={k}, n={n}")
    if points is None:
        if n > field.p:
            raise TooFewPoints(
                f"F_{field.p} has only {field.p} distinct points, need {n}"
            )
        points = tuple(range(n))
    else:
        points = tuple(int(x) % field.p for x in points)
        if len(points) != n:
            raise DimensionMismatch(f"need {n} points, got {len(points)}")
        if len(set(points)) != n:
            raise DuplicatePoints(f"evaluation points must be distinct: {points}")
    return points


def _vandermonde_array(k: int, points, p: int) -> np.ndarray:
    xs = np.asarray(points, dtype=np.int64) % p
    rows = [np.ones(len(points), dtype=np.int64)]
    for _ in range(1, k):
        rows.append((rows[-1] * xs) % p)
    return np.vstack(rows)


def make_vandermonde(n: int, k: int, field: PrimeField, points=None) -> MdsCode:
    """GRS code with generator entries x_j^i, i = 0..k-1; MDS for distinct points."""
    points = _check_points(n, k, field, points)
    gen = FieldMatrix(_vandermonde_array(k, points, field.p), field)
    return MdsCode(n=n, k=k, field=field, generator=gen, style="vandermonde",
                   eval_points=points)


def make_systematic(n: int, k: int, field: PrimeField, points=None) -> MdsCode:
    """Row-reduced GRS code: leading k columns form the identity."""
    points = _check_points(n, k, field, points)
    base = FieldMatrix(_vandermonde_array(k, points, field.p), field)
    gen = base.rref()
    return MdsCode(n=n, k=k, field=field, generator=gen, style="systematic",
                   eval_points=points)


def find_singular_minor(generator: FieldMatrix):
    """Return the 1-based column set of the first singular k x k minor, or None.

    Minors are eliminated in batches without modular inverses (cross
    multiplication only), so the whole C(n, k) sweep stays vectorized.
    """
    k, n = generator.rows, generator.cols
    p = generator.field.p
    gt = generator.array.T  # row c = column c of the generator
    combos = combinations(range(n), k)
    chunk = 20000
    while True:
        batch = []
        for combo in combos:
            batch.append(combo)
            if len(batch) == chunk:
                break
        if not batch:
            return None
        idx = np.array(batch, dtype=np.intp)
        mats = gt[idx].copy()  # (m, k, k); singularity is transpose-invariant
        m = mats.shape[0]
        singular = np.zeros(m, dtype=bool)
        rows_idx = np.arange(m)
        for c in range(k):
            colvals = mats[:, c:, c]
            nz = colvals != 0
            has_pivot = nz.any(axis=1)
            singular |= ~has_pivot
            piv = np.argmax(nz, axis=1) + c
            # swap rows c <-> piv
            tmp = mats[rows_idx, c].copy()
            mats[rows_idx, c] = mats[rows_idx, piv]
            mats[rows_idx, piv] = tmp
            if c == k - 1:
                break
            pv = mats[:, c, c]
            below = mats[:, c + 1:, c]
            # inverse-free elimination: row_j <- pv*row_j - m[j,c]*row_c
            mats[:, c + 1:, c:] = (
                pv[:, None, None] * mats[:, c + 1:, c:]
                - below[:, :, None] * mats[:, c, c:][:, None, :]
            ) % p
        if singular.any():
            first = int(np.nonzero(singular)[0][0])
            return tuple(c + 1 for c in batch[first])
        if len(batch) < chunk:
            return None


def load_explicit(generator: FieldMatrix) -> MdsCode:
    """Wrap an explicit k x n generator, verifying the MDS property.

    All k x k minors are checked exhaustively; generators wider than
    MINOR_CHECK_MAX_N columns are refused because the check would no
    longer be exhaustive in reasonable time.
    """
    k, n = generator.rows, generator.cols
    if not 1 <= k <= n:
        raise DimensionMismatch(f"generator must be k x n with k <= n, got {k}x{n}")
    if n > MINOR_CHECK_MAX_N:
        raise UnverifiedCode(
            f"explicit generators are limited to n <= {MINOR_CHECK_MAX_N} "
            f"(exhaustive minor check), got n={n}"
        )
    bad = find_singular_minor(generator)
    if bad is not None:
        # a rank-deficient generator has only singular minors; say so
        rank = generator.rank()
        if rank != k:
            raise NotMds(f"generator has rank {rank} < k={k}")
        raise NotMds(f"singular k x k minor at columns {bad}")
    return MdsCode(n=n, k=k, field=generator.field, generator=generator,
                   style="explicit", eval_points=None)


def encode_row(code: MdsCode, message) -> np.ndarray:
    """Codeword of a length-k message row: message @ generator."""
    msg = code.field.reduce(message)
    if msg.ndim != 1 or msg.shape[0] != code.k:
        raise DimensionMismatch(f"message must have length k={code.k}")
    return (code.generator.T @ msg)


def erasure_decode(code: MdsCode, positions, symbols) -> np.ndarray:
    """Recover the message from k codeword coordinates (1-based positions).

    symbols is a length-k vector, or a k x m matrix whose row i holds the
    coordinate at positions[i] of m codewords; the result is the message
    of each column, shaped like symbols.  Every column is decoded by one
    solve of the k x k system.  Unique by the MDS property;
    SingularSubmatrix signals a corrupted code object rather than a
    decodable failure mode.
    """
    pos = [int(j) for j in positions]
    if len(pos) != code.k:
        raise DimensionMismatch(f"need exactly k={code.k} positions, got {len(pos)}")
    if len(set(pos)) != len(pos):
        raise DimensionMismatch(f"positions must be distinct: {pos}")
    if any(not 1 <= j <= code.n for j in pos):
        raise DimensionMismatch(f"positions must lie in [1, {code.n}]: {pos}")
    syms = code.field.reduce(symbols)
    if syms.ndim not in (1, 2) or syms.shape[0] != code.k:
        raise DimensionMismatch(f"need exactly k={code.k} symbols")
    sub = code.generator.take_columns([j - 1 for j in pos])
    try:
        return sub.T.solve(syms)
    except SingularMatrix as exc:
        raise SingularSubmatrix(
            f"columns {pos} are dependent; code object is corrupted"
        ) from exc


# ----------------------------------------------------------------------
# JSON interchange for explicit generators.

def code_to_json(code: MdsCode) -> dict:
    """Generator document: {"p", "n", "k", "generator"} (row-major, k rows)."""
    return {
        "p": code.field.p,
        "n": code.n,
        "k": code.k,
        "generator": code.generator.tolist(),
    }


def code_from_json(doc: dict) -> MdsCode:
    """Load and MDS-verify a generator document produced by code_to_json."""
    field = PrimeField(int(doc["p"]))
    gen = FieldMatrix(doc["generator"], field)
    code = load_explicit(gen)
    if code.n != int(doc["n"]) or code.k != int(doc["k"]):
        raise DimensionMismatch(
            f"declared (n={doc['n']}, k={doc['k']}) does not match "
            f"generator shape {gen.rows}x{gen.cols}"
        )
    return code
