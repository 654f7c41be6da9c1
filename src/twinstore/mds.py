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

Those minors are also the cofactors that invert any erased block of P.
So an explicit code with n <= 20 whose generator passes the check keeps
them (`load_explicit` hands over the ones its check computed; any other
such code computes them on its first decode) and decodes by Cramer's
rule, with no elimination; that is exact because each minor is exact
mod p and nonzero, and each product is reduced before a sum of them
could overflow.  The built-in styles and every other explicit code
decode by one k x k elimination.

Node/codeword positions are 1-based on this module's surface.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

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
from .field import _INT64_MAX, FieldMatrix, PrimeField, _matmul_arrays, _row_reduce

# Cap for exhaustive k x k minor verification: C(20, 10) ~ 184k minors.
MINOR_CHECK_MAX_N = 20

# (-1)^(i+j), the cofactor signs of a square block of P, which has at most
# min(k, n - k) <= 10 rows when n <= MINOR_CHECK_MAX_N
_CHECKER = 1 - 2 * (np.add.outer(np.arange(10), np.arange(10)) % 2)
_CHECKER.flags.writeable = False


@dataclass(frozen=True)
class MdsCode:
    """A linear (n, k) code: its k x n generator, from which n, k and the
    field are read (and cached on first read).  The makers below build MDS
    codes; `MdsCode(generator, "explicit")` wraps any generator unchecked,
    and `load_explicit` verifies it first.

    The style is a promise about the generator, and `column_ranks` answers
    from it without looking at the generator: "vandermonde" promises
    x_j^i on distinct points, "systematic" the reduced form [I | P] of such
    a code.  Only `make_vandermonde` and `make_systematic` make it, and the
    snapshot loader rebuilds a stored built-in code from its points and
    refuses one whose generator differs.  A generator built any other way
    belongs in an "explicit" code, whose ranks come from elimination."""

    generator: FieldMatrix
    style: str  # "vandermonde" | "systematic" | "explicit"
    eval_points: tuple | None = None

    @cached_property
    def k(self) -> int:
        return self.generator.rows

    @cached_property
    def n(self) -> int:
        return self.generator.cols

    @cached_property
    def field(self) -> PrimeField:
        return self.generator.field

    def encoding_vector(self, j: int) -> np.ndarray:
        """Column j (1-based) of the generator."""
        if not 1 <= j <= self.n:
            raise DimensionMismatch(f"position {j} outside [1, {self.n}]")
        return self.generator.column(j - 1)

    def row_space(self, positions) -> tuple:
        """(rows, pivots): the generator columns at the 1-based positions,
        stacked as rows and brought to reduced row echelon form.

        `rows` holds the nonzero rows (read-only) and `pivots` their pivot
        columns.  Both depend only on the row space, so the lookup is keyed
        by the sorted set of positions and memoized on this immutable code:
        a caller pays one elimination per distinct position set, and none
        for the empty set.
        """
        key = tuple(sorted({int(j) for j in positions}))
        memo = self._row_space_memo
        if key not in memo:
            if key and not (1 <= key[0] and key[-1] <= self.n):
                raise DimensionMismatch(f"positions {key} outside [1, {self.n}]")
            stacked = self.generator.array[:, [j - 1 for j in key]].T
            reduced, pivots = (_row_reduce(stacked, self.field.p) if key
                               else (stacked, ()))
            rows = reduced[:len(pivots)]
            rows.flags.writeable = False
            memo[key] = rows, pivots
        return memo[key]

    def pivots(self, positions) -> tuple:
        """Pivot columns of `row_space(positions)`.

        Their count is the rank of those generator columns, and the pivots
        below l count the rank of the columns' first l rows.
        """
        return self.row_space(positions)[1]

    def column_ranks(self, positions, l: int) -> tuple:
        """(u, u'): the rank of the generator columns at the 1-based
        positions, and the rank of their first l rows, 0 <= l <= k.

        A repeated position counts once, and a position outside [1, n]
        raises DimensionMismatch, as in `row_space`.  An explicit code
        reads both ranks from the memoized `row_space`: u is the number of
        its pivots and u' the number below l, which is the rank of the
        first l coordinates of the stacked columns.  A built-in code
        eliminates nothing and answers from counts, with a = |positions|:

        - Vandermonde (the style's promise: entry x_j^i, distinct points):
          u = min(a, k) and u' = min(a, l).  Proof: the first r rows of
          the a columns form an r x a Vandermonde matrix.  Its leading
          min(a, r) rows at any min(a, r) of its columns are a square
          Vandermonde matrix, whose determinant prod(x_j - x_i) is
          nonzero, so its rank is min(a, r); take r = k and r = l.
        - Systematic (the style's promise: G = [I | P] of an MDS code, so
          every square submatrix of P is nonsingular; MacWilliams &
          Sloane, The Theory of Error-Correcting Codes, ch. 11 sec. 4,
          Thm 8): u = min(a, k) and u' = j_l + min(t, l - j_l), with j_r
          the number of positions <= r and t the number > k.  Proof: in
          the first r <= k rows, an identity column j <= r is the unit
          vector e_j and one with r < j <= k is zero.  Clearing those
          j_r units leaves the other r - j_r of P's first r rows at the t
          observed columns beyond k, a submatrix of P of rank
          min(t, r - j_r).  So the rank is j_r + min(t, r - j_r), which
          at r = k is min(a, k).
        """
        if not 0 <= l <= self.k:
            raise DimensionMismatch(f"row count {l} outside [0, {self.k}]")
        if self.style not in ("vandermonde", "systematic"):
            pivots = self.pivots(positions)
            return len(pivots), sum(1 for c in pivots if c < l)
        key = {int(j) for j in positions}
        if key and not (1 <= min(key) and max(key) <= self.n):
            raise DimensionMismatch(
                f"positions {tuple(sorted(key))} outside [1, {self.n}]")
        a = len(key)
        if self.style == "vandermonde":
            return min(a, self.k), min(a, l)
        low = sum(1 for j in key if j <= l)
        beyond = sum(1 for j in key if j > self.k)
        return min(a, self.k), low + min(beyond, l - low)

    def spans(self, positions) -> bool:
        """True iff the generator columns at the 1-based positions span F^k.

        Any k positions of an MDS code do, but a hand-built explicit code
        need not be MDS, so the rank is read from `column_ranks`.
        """
        return self.column_ranks(positions, 0)[0] == self.k

    @cached_property
    def _row_space_memo(self) -> dict:
        return {}

    @cached_property
    def _cramer_form(self):
        """The `_SystematicForm` that `erasure_decode` solves with, for an
        explicit code with n <= MINOR_CHECK_MAX_N whose generator passes
        the minor check; None for every other code.  `load_explicit` sets
        it from its check; any other code builds it on first read.  It
        holds at most C(20, 10) - 1 minors (1.5 MB)."""
        if self.style != "explicit" or self.n > MINOR_CHECK_MAX_N:
            return None
        form = _systematic_form(self.generator)
        if form is None or not all(level.all() for level in form.levels):
            return None
        return form

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
    return MdsCode(gen, "vandermonde", points)


def make_systematic(n: int, k: int, field: PrimeField, points=None) -> MdsCode:
    """Row-reduced GRS code: leading k columns form the identity."""
    points = _check_points(n, k, field, points)
    base = FieldMatrix(_vandermonde_array(k, points, field.p), field)
    gen = base.rref()
    return MdsCode(gen, "systematic", points)


def _check_shape(generator: FieldMatrix):
    k, n = generator.rows, generator.cols
    if not 1 <= k <= n:
        raise DimensionMismatch(f"generator must be k x n with k <= n, got {k}x{n}")
    return k, n


@lru_cache(maxsize=256)
def _subset_tables(m: int, s: int):
    """The s-subsets of range(m), 0 <= s <= m, in `combinations` order:
    a (C(m, s), s) array of them, for each subset and position t the
    index of the subset without its t-th element among the (s-1)-subsets,
    and a dict from each subset tuple to its index.  Read only, since the
    tables are shared through the cache."""
    subsets = list(combinations(range(m), s))
    index = {c: i for i, c in enumerate(subsets)}
    smaller = _subset_tables(m, s - 1)[2] if s else {}
    elems = np.array(subsets, dtype=np.intp).reshape(len(subsets), s)
    drop = np.array([[smaller[c[:t] + c[t + 1:]] for t in range(s)]
                     for c in subsets], dtype=np.intp).reshape(len(subsets), s)
    elems.flags.writeable = drop.flags.writeable = False
    return elems, drop, index


@lru_cache(maxsize=64)
def _level_gathers(k: int, m: int, s: int):
    """Flat gather indices of level s of the Laplace expansion in
    `_systematic_form`, for a k x m matrix P, as two (s, C(k, s), C(m, s))
    arrays.  For position t, row set R and column set J, the first picks
    (-1)^t P[R_0, J_t] from the flattened [P, -P] and the second the
    (s-1)-minor of P on R minus R_0 and J minus J_t from the flattened
    level s - 1.  At k = m = 10 (n = 20) all levels together take 15 MB."""
    rows, row_drop, _ = _subset_tables(k, s)
    cols, col_drop, _ = _subset_tables(m, s)
    odd = np.arange(s)[:, None, None] % 2
    entry = rows[None, :, :1] * m + cols.T[:, None, :] + odd * (k * m)
    minor = row_drop[None, :, :1] * comb(m, s - 1) + col_drop.T[:, None, :]
    entry.flags.writeable = minor.flags.writeable = False
    return entry, minor


class _SystematicForm(NamedTuple):
    """G = T [I | P]: P (k x (n-k)), T^-T, and levels[s] = the s x s
    minors of P, s = 0..min(k, n-k), indexed by row set and column set
    in `combinations` order (levels[0] is the empty minor, 1)."""

    coef: np.ndarray
    t_inv_t: np.ndarray
    levels: tuple


def _systematic_form(generator: FieldMatrix):
    """The `_SystematicForm` of a k x n generator G, or None when G's first
    k columns are dependent.

    [G | I] is row-reduced once: if G's first k columns are its pivots,
    the reduced matrix is T^-1 [G | I] = [I | P | T^-1].  Every s x s
    minor of P is then computed exactly mod p, one level at a time by
    Laplace expansion along the first row of the (s-1)-level minors, with
    one gather per operand per level (`_level_gathers`).
    """
    k, n = _check_shape(generator)
    p = generator.field.p
    identity = np.eye(k, dtype=np.int64)
    reduced, pivots = _row_reduce(np.hstack([generator.array, identity]), p)
    if pivots != tuple(range(k)):
        return None
    coef = np.ascontiguousarray(reduced[:, k:n])
    signed = np.concatenate([coef.ravel(), -coef.ravel() % p])
    levels = [np.ones((1, 1), dtype=np.int64)]
    for s in range(1, min(k, n - k) + 1):
        entry, minor = _level_gathers(k, n - k, s)
        # minors[R, J] = sum_t (-1)^t P[R_0, J_t] * minors'[R \ R_0, J \ J_t]
        terms = signed.take(entry) * levels[-1].take(minor)
        if s * (p - 1) ** 2 > _INT64_MAX:  # the sum of s terms could overflow
            terms %= p
        levels.append(terms.sum(axis=0) % p)
    for level in levels:
        level.flags.writeable = False
    t_inv_t = np.ascontiguousarray(reduced[:, n:].T)
    coef.flags.writeable = t_inv_t.flags.writeable = False
    return _SystematicForm(coef, t_inv_t, tuple(levels))


def find_singular_minor(generator: FieldMatrix, form=None):
    """Return the 1-based column set of the first singular k x k minor, or None.

    "First" is `combinations` order.  The check goes through the
    systematic form: with G = T [I | P] for invertible T, the k x k minor
    of G on a column set S vanishes iff the minor of P on rows
    {0..k-1} minus S and columns S beyond k does, so G is MDS iff every
    square submatrix of P is nonsingular (MacWilliams & Sloane, The
    Theory of Error-Correcting Codes, ch. 11 sec. 4, Thm 8).
    `_systematic_form` row-reduces G once; if its first k columns are
    dependent they are the answer.  Otherwise it computes every s x s
    minor of P, s = 1..min(k, n-k), exactly mod p, so all C(n, k) minors
    of G are still checked.  A caller that holds `_systematic_form(G)`
    passes it as `form`, and the check reads it instead.
    """
    k, n = _check_shape(generator)
    if form is None:
        form = _systematic_form(generator)
    if form is None:
        return tuple(range(1, k + 1))
    firsts = []
    for s, minors in enumerate(form.levels):
        if minors.all():
            continue
        # a larger row-set index leaves a lexicographically smaller
        # complement, so the level's first column set has the last
        # singular row set and, in it, the first column set
        singular = minors == 0
        rows, cols = _subset_tables(k, s)[0], _subset_tables(n - k, s)[0]
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
    would no longer be exhaustive in reasonable time.  The code returned
    keeps the form the check read as its `_cramer_form` and decodes by
    Cramer's rule on those minors (`erasure_decode`), with no elimination.
    """
    k, n = _check_shape(generator)
    if n > MINOR_CHECK_MAX_N:
        raise UnverifiedCode(
            f"explicit generators are limited to n <= {MINOR_CHECK_MAX_N} "
            f"(exhaustive minor check), got n={n}"
        )
    form = _systematic_form(generator)
    bad = find_singular_minor(generator, form)
    if bad is not None:
        # a rank-deficient generator has only singular minors; say so
        rank = generator.rank()
        if rank != k:
            raise NotMds(f"generator has rank {rank} < k={k}")
        raise NotMds(f"singular k x k minor at columns {bad}")
    code = MdsCode(generator, "explicit")
    # every minor is nonzero, which is what `_cramer_form` would check
    code.__dict__["_cramer_form"] = form
    return code


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
    of each column, shaped like symbols.

    An explicit code with n <= MINOR_CHECK_MAX_N whose generator passes
    the minor check decodes by Cramer's rule (`_decode_by_cramer`) on the
    minors that check computes, which the code keeps after its first
    decode: no elimination.  That is exact because every minor is exact
    mod p and nonzero, and every product goes through the field's chunked
    product.  Every other code -- the built-in styles, explicit generators
    wider than that and explicit generators that fail the check --
    decodes every column by one solve of the k x k system.  Unique by the MDS property;
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
    form = code._cramer_form
    if form is not None:
        return _decode_by_cramer(form, code.field.p, pos, syms)
    sub = FieldMatrix(code.generator.array[:, [j - 1 for j in pos]].T, code.field)
    try:
        return sub.solve(syms)
    except SingularMatrix as exc:
        raise SingularSubmatrix(
            f"columns {pos} are dependent; code object is corrupted"
        ) from exc


def _decode_by_cramer(form: _SystematicForm, p: int, pos: list, syms) -> np.ndarray:
    """The message m of codewords c = G^T m, G = T [I | P], from their
    coordinates `syms` at the distinct 1-based positions `pos`.

    With u = T^T m, c = [I | P]^T u: the coordinates at positions A <= k
    are u_A, and those at the t positions C beyond k give
    P[B, C]^T u_B = c_C - P[A, C]^T u_A =: r for the t erased
    B = {1..k} - A.  By Cramer's rule u_B = adj(P[B, C])^T r / det P[B, C]:
    entry (i, j) of adj(P[B, C])^T is the cofactor (-1)^(i+j) times the
    (t-1)-minor of P on B and C without their i-th and j-th elements, and
    all these minors are read from `form.levels`.  Then m = T^-T u.
    """
    k = len(pos)
    order = sorted(range(k), key=pos.__getitem__)
    ranked = [pos[i] - 1 for i in order]
    syms = syms[order]
    a = bisect_left(ranked, k)
    u = np.zeros_like(syms)
    u[ranked[:a]] = syms[:a]
    if a < k:
        t = k - a
        beyond = tuple(j - k for j in ranked[a:])
        erased = tuple(sorted(set(range(k)).difference(ranked[:a])))
        _, row_drop, row_index = _subset_tables(k, t)
        _, col_drop, col_index = _subset_tables(form.coef.shape[1], t)
        r, c = row_index[erased], col_index[beyond]
        # u is still zero on B, so P[:, C]^T u = P[A, C]^T u_A
        rhs = (syms[a:] - _matmul_arrays(form.coef[:, beyond].T, u, p)) % p
        minors = form.levels[t - 1][row_drop[r][:, None], col_drop[c]]
        cofactors = minors * _CHECKER[:t, :t] % p  # adj(P[B, C])^T
        inv_det = pow(int(form.levels[t][r, c]), -1, p)
        u[list(erased)] = _matmul_arrays(cofactors, rhs, p) * inv_det % p
    return _matmul_arrays(form.t_inv_t, u, p)


# ----------------------------------------------------------------------
# JSON interchange for explicit generators.

def code_from_json(doc: dict) -> MdsCode:
    """Load and MDS-verify a generator document (`loader.code_doc`): the
    generator kind has one reader, `loader.code`, which refuses an unknown
    key, a missing one, a mistyped value and a declared n or k that its
    matrix contradicts, each as MalformedInput."""
    from .loader import code  # the loader builds on this module
    return code(doc)
