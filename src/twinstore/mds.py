"""(n, k) MDS codes over prime fields: construction, encoding, erasure decoding.

The default construction is generalized Reed-Solomon: a Vandermonde
generator on distinct evaluation points (0, 1, ..., n-1 unless supplied).
Any k columns of such a generator are nonsingular, and so are any c <= l
columns of its first l rows -- the property the secrecy layer relies on.
A systematic variant (reduced row echelon form, leading identity block)
and arbitrary explicit generators are also supported.

An explicit generator G is verified through its systematic form
G = T [I | P]: G is MDS iff every square submatrix of P is nonsingular
(MacWilliams & Sloane, The Theory of Error-Correcting Codes, ch. 11
sec. 4, Thm 8).  Each k-subset of columns maps to one minor of P, so all
C(n, k) k x k minors are still checked exactly; explicit generators stay
limited to n <= MINOR_CHECK_MAX_N = 20.

Node/codeword positions are 1-based on this module's surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
from .field import FieldMatrix, PrimeField, _pivot_columns, _row_reduce

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


def _check_shape(generator: FieldMatrix):
    k, n = generator.rows, generator.cols
    if not 1 <= k <= n:
        raise DimensionMismatch(f"generator must be k x n with k <= n, got {k}x{n}")
    return k, n


@lru_cache(maxsize=256)
def _subset_tables(m: int, s: int):
    """The s-subsets of range(m), 1 <= s <= m, in `combinations` order as
    a (C(m, s), s) array, and for each subset and position t the index of
    the subset without its t-th element among the (s-1)-subsets.  Read
    only, since the tables are shared through the cache."""
    index = {c: i for i, c in enumerate(combinations(range(m), s - 1))}
    subsets = list(combinations(range(m), s))
    elems = np.array(subsets, dtype=np.intp)
    drop = np.array([[index[c[:t] + c[t + 1:]] for t in range(s)]
                     for c in subsets], dtype=np.intp)
    elems.flags.writeable = drop.flags.writeable = False
    return elems, drop


def find_singular_minor(generator: FieldMatrix):
    """Return the 1-based column set of the first singular k x k minor, or None.

    "First" is `combinations` order.  The check goes through the
    systematic form: with G = T [I | P] for invertible T, the k x k minor
    of G on a column set S vanishes iff the minor of P on rows
    {0..k-1} minus S and columns S beyond k does, so G is MDS iff every
    square submatrix of P is nonsingular (MacWilliams & Sloane, The
    Theory of Error-Correcting Codes, ch. 11 sec. 4, Thm 8).  G is
    row-reduced once; if its first k columns are dependent they are the
    answer.  Otherwise every s x s minor of P, s = 1..min(k, n-k), is
    computed exactly mod p, one level at a time by Laplace expansion
    along the first row of the (s-1)-level minors, so all C(n, k) minors
    of G are still checked.
    """
    k, n = _check_shape(generator)
    p = generator.field.p
    reduced, pivots = _row_reduce(generator.array, p)
    if pivots != tuple(range(k)):
        return tuple(range(1, k + 1))
    coef = reduced[:, k:]
    firsts = []
    minors = np.ones((1, 1), dtype=np.int64)  # the empty minor
    for s in range(1, min(k, n - k) + 1):
        rows, row_drop = _subset_tables(k, s)
        cols, col_drop = _subset_tables(n - k, s)
        # minors[R, J] = sum_t (-1)^t P[R0, J_t] * minors'[R \ R0, J \ J_t]
        terms = (coef[rows[:, 0]][:, cols]
                 * minors[row_drop[:, 0]][:, col_drop]) % p
        minors = (terms[..., 0::2].sum(axis=2)
                  - terms[..., 1::2].sum(axis=2)) % p
        singular = minors == 0
        if singular.any():
            # a larger row-set index leaves a lexicographically smaller
            # complement, so the level's first column set has the last
            # singular row set and, in it, the first column set
            r = int(np.nonzero(singular.any(axis=1))[0][-1])
            c = int(np.argmax(singular[r]))
            kept = sorted(set(range(k)) - set(rows[r].tolist()))
            firsts.append(tuple(kept + (cols[c] + k).tolist()))
    if not firsts:
        return None
    return tuple(j + 1 for j in min(firsts))


def load_explicit(generator: FieldMatrix) -> MdsCode:
    """Wrap an explicit k x n generator, verifying the MDS property.

    `find_singular_minor` checks all C(n, k) k x k minors exactly, through
    the systematic form (every square submatrix of P in G = T [I | P] is
    nonsingular; MacWilliams & Sloane, ch. 11 sec. 4, Thm 8).  Generators
    wider than MINOR_CHECK_MAX_N columns are refused because the check
    would no longer be exhaustive in reasonable time.
    """
    k, n = _check_shape(generator)
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
    sub = FieldMatrix(code.generator.array[:, [j - 1 for j in pos]].T, code.field)
    try:
        return sub.solve(syms)
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
