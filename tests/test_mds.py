import dataclasses
import json
import re
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinstore import (
    FieldMatrix,
    MdsCode,
    PrimeField,
    code_from_json,
    encode_row,
    erasure_decode,
    find_singular_minor,
    load_explicit,
    make_systematic,
    make_vandermonde,
)
from twinstore.demo import DEMO_G1, DEMO_G2
from twinstore.errors import (
    DimensionMismatch,
    DuplicatePoints,
    MalformedInput,
    NotMds,
    SingularSubmatrix,
    TooFewPoints,
    UnverifiedCode,
)
from twinstore import field as field_module
from twinstore import loader, mds
from twinstore.field import _pivot_columns, vstack
from twinstore.mds import MINOR_CHECK_MAX_N


def brute_force_is_mds(code):
    """Oracle: every k-subset of columns decodes every random message."""
    rng = np.random.default_rng(0)
    for cols in combinations(range(1, code.n + 1), code.k):
        sub = code.generator.take_columns([j - 1 for j in cols])
        if sub.rank() != code.k:
            return False
    return True


class TestVandermonde:
    def test_square_full_rank(self, f11):
        code = make_vandermonde(4, 4, f11, points=[1, 2, 3, 4])
        assert code.generator.rank() == 4

    def test_repetition_row(self, f11):
        assert make_vandermonde(2, 1, f11).generator.tolist() == [[1, 1]]

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            make_vandermonde(6, 4, PrimeField(5))

    def test_duplicate_points(self, f11):
        with pytest.raises(DuplicatePoints):
            make_vandermonde(3, 2, f11, points=[1, 2, 1])

    def test_is_mds_small_cases(self, f11):
        for n, k in [(5, 2), (6, 3), (7, 4), (11, 5)]:
            assert brute_force_is_mds(make_vandermonde(n, k, f11))

    def test_truncated_rows_stay_independent(self, f11):
        # any c <= l columns of the first l rows form a Vandermonde block;
        # the secrecy guarantee leans on this
        code = make_vandermonde(8, 5, f11)
        for l in range(1, 5):
            top = code.generator.array[:l, :]
            for cols in combinations(range(8), l):
                sub = FieldMatrix(top[:, list(cols)], f11)
                assert sub.rank() == l


class TestSystematic:
    def test_leading_identity(self, f11):
        code = make_systematic(6, 4, f11)
        assert np.array_equal(code.generator.array[:, :4], np.eye(4, dtype=int))

    def test_square_case_is_identity(self, f11):
        code = make_systematic(4, 4, f11)
        assert code.generator == FieldMatrix.identity(4, f11)

    def test_same_row_space_as_vandermonde(self, f11):
        sys_code = make_systematic(7, 4, f11)
        van_code = make_vandermonde(7, 4, f11)
        stacked = vstack([sys_code.generator, van_code.generator])
        assert stacked.rank() == 4

    def test_is_mds(self, f11):
        assert brute_force_is_mds(make_systematic(7, 4, f11))


class TestCodeIsItsGenerator:
    def test_constructor_fields(self):
        assert [f.name for f in dataclasses.fields(MdsCode)] == [
            "generator", "style", "eval_points"]

    def test_sizes_and_field_come_from_the_generator(self, f11, f101):
        for field, rows, cols in ((f11, 4, 6), (f101, 3, 5)):
            gen = FieldMatrix(np.ones((rows, cols), dtype=np.int64), field)
            code = MdsCode(gen, "explicit")
            assert (code.n, code.k, code.field) == (cols, rows, field)

    def test_equality_reads_generator_style_and_points(self, f11):
        code = make_vandermonde(5, 3, f11)
        assert code == make_vandermonde(5, 3, f11)
        assert code != make_vandermonde(5, 3, f11, points=(1, 2, 3, 4, 5))
        assert code != MdsCode(code.generator, "explicit")
        assert code != make_systematic(5, 3, f11)


class TestLoadExplicit:
    def test_accepts_demo_generators(self, f11):
        g1 = load_explicit(FieldMatrix(DEMO_G1, f11))
        g2 = load_explicit(FieldMatrix(DEMO_G2, f11))
        assert g1.style == "explicit" and (g1.n, g1.k) == (5, 4)
        assert (g2.n, g2.k) == (6, 4)

    def test_rejects_rank_deficient(self, f11):
        with pytest.raises(NotMds):
            load_explicit(FieldMatrix([[1, 0], [0, 0]], f11))

    def test_rejects_singular_minor(self, f11):
        # reverting the forced (4,6) entry to 2 creates the singular
        # minor at columns {2,3,5,6}
        bad = [row[:] for row in DEMO_G2]
        bad[3][5] = 2
        with pytest.raises(NotMds):
            load_explicit(FieldMatrix(bad, f11))
        assert find_singular_minor(FieldMatrix(bad, f11)) == (2, 3, 5, 6)

    def test_exhaustive_rejection_small(self, f11):
        # every singular-minor plant in a known-good generator is caught
        base = make_vandermonde(6, 3, f11).generator.array.copy()
        for cols in combinations(range(6), 3):
            planted = base.copy()
            # make the chosen columns dependent: col3 = col1 + col2
            planted[:, cols[2]] = (planted[:, cols[0]] + planted[:, cols[1]]) % 11
            found = find_singular_minor(FieldMatrix(planted, f11))
            assert found is not None

    def test_refuses_unverifiable_width(self, f11):
        wide = np.ones((1, 21), dtype=int)
        with pytest.raises(UnverifiedCode):
            load_explicit(FieldMatrix(wide, f11))

    def test_rank_only_names_the_refusal(self, f11, monkeypatch):
        # the minor check refuses every rank-deficient generator; the rank
        # is computed only to choose between the two messages
        with pytest.raises(NotMds, match=r"^generator has rank 1 < k=2$"):
            load_explicit(FieldMatrix([[1, 0], [0, 0]], f11))
        bad = [row[:] for row in DEMO_G2]
        bad[3][5] = 2
        with pytest.raises(NotMds, match=(r"^singular k x k minor at "
                                          r"columns \(2, 3, 5, 6\)$")):
            load_explicit(FieldMatrix(bad, f11))

        def no_rank(self):
            raise AssertionError("rank computed for an MDS generator")

        monkeypatch.setattr(FieldMatrix, "rank", no_rank)
        assert load_explicit(FieldMatrix(DEMO_G2, f11)).n == 6


def first_singular_by_rank(gen):
    """Reference: the first k-subset in combinations order whose columns
    have rank below k, 1-based, or None."""
    k, n = gen.rows, gen.cols
    for cols in combinations(range(n), k):
        if gen.take_columns(cols).rank() < k:
            return tuple(c + 1 for c in cols)
    return None


REFERENCE_PRIMES = (2, 3, 5, 11, 101, 2**31 - 1)


def grs_array(rng, n, k, p):
    """A GRS generator: distinct points, nonzero column multipliers."""
    points = rng.choice(min(p, 10**6), size=n, replace=False)
    gen = make_vandermonde(n, k, PrimeField(p), points=points).generator.array
    return gen * rng.integers(1, p, size=n) % p


def combination(rng, arr, p):
    """A random F_p-combination of arr's columns, exact for p = 2^31 - 1."""
    return FieldMatrix(arr, PrimeField(p)) @ rng.integers(0, p, size=arr.shape[1])


def plant_dependency(rng, arr, p):
    """Make a random set of at most k columns dependent; with k = 1 that
    is a zero column."""
    k, n = arr.shape
    cols = rng.permutation(n)[:int(rng.integers(1, k + 1))]
    arr[:, cols[0]] = combination(rng, arr[:, cols[1:]], p)
    return arr


def reference_cases(p, count):
    """Derandomized generators over F_p, 1 <= k <= 7, k <= n <= 14:
    uniform random, GRS (random where n > p) and GRS with a planted
    dependency, in turn.  The reference makes up to C(n, k) eliminations,
    so only the first three cases have k = 7, n = 14 and the rest have
    C(n, k) <= 300."""
    rng = np.random.default_rng(p % 1000)
    for i in range(count):
        k, n = 7, 14
        while i >= 3 and comb(n, k) > 300:
            k = int(rng.integers(1, 8))
            n = int(rng.integers(k, 15))
        kind = i % 3
        if kind == 0 or n > p:
            arr = rng.integers(0, p, size=(k, n))
        else:
            arr = grs_array(rng, n, k, p)
        if kind == 2:
            arr = plant_dependency(rng, arr, p)
        yield FieldMatrix(arr, PrimeField(p))


def edge_cases():
    """k = n, k = 1, a zero column, and dependent first k columns."""
    rng = np.random.default_rng(7)
    for p in REFERENCE_PRIMES:
        f = PrimeField(p)
        for k in (1, 3, 5):
            for n in (k, k + 1, k + 4):
                base = (grs_array(rng, n, k, p) if n <= p
                        else rng.integers(0, p, size=(k, n)))
                yield FieldMatrix(base, f)
                for zero in (0, n - 1, n // 2):
                    arr = base.copy()
                    arr[:, zero] = 0
                    yield FieldMatrix(arr, f)
                arr = base.copy()
                arr[:, k - 1] = combination(rng, arr[:, :k - 1], p)
                yield FieldMatrix(arr, f)
                yield FieldMatrix(np.zeros((k, n), dtype=np.int64), f)


class TestSingularMinorReference:
    """find_singular_minor against the first rank-deficient k-subset."""

    @pytest.mark.parametrize("p", REFERENCE_PRIMES)
    def test_matches_rank_reference(self, p):
        singular = 0
        for gen in reference_cases(p, 340):
            expected = first_singular_by_rank(gen)
            assert find_singular_minor(gen) == expected, gen
            singular += expected is not None
        # both answers occur often enough for the comparison to bite
        assert 10 <= singular <= 330, singular

    def test_edge_cases(self):
        seen = 0
        for gen in edge_cases():
            assert find_singular_minor(gen) == first_singular_by_rank(gen), gen
            seen += 1
        assert seen == 6 * 9 * 6

    def test_exact_at_largest_prime(self):
        # G = T [I | P] over F_p, p = 2^31 - 1, where only P itself is
        # singular.  P's first row alternates -1 and 1, so the 7 x 7
        # minor's expansion adds four products near 2^62 with a plus sign
        # and three small ones: their sum passes 2^63 unless each product
        # is reduced first
        p = 2**31 - 1
        f = PrimeField(p)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            coef = rng.integers(0, p, size=(7, 7))
            coef[0] = [p - 1, 1] * 3 + [p - 1]
            weights = FieldMatrix(rng.integers(1, p, size=(1, 6)), f)
            coef[6] = (weights @ FieldMatrix(coef[:6], f)).array[0]
            mix = FieldMatrix(rng.integers(0, p, size=(7, 7)), f)
            assert mix.rank() == 7
            gen = mix @ FieldMatrix(np.hstack([np.eye(7, dtype=np.int64), coef]), f)
            assert find_singular_minor(gen) == tuple(range(8, 15))
            # the same generator with a nonsingular P is MDS
            coef[6] = (coef[6] + 1) % p
            gen = mix @ FieldMatrix(np.hstack([np.eye(7, dtype=np.int64), coef]), f)
            assert find_singular_minor(gen) is None

    def test_more_rows_than_columns_refused(self, f11):
        with pytest.raises(DimensionMismatch):
            find_singular_minor(FieldMatrix([[1, 2], [3, 4], [5, 6]], f11))

    def test_cap_width_verified(self, f101):
        # 10 x 20 GRS generator: C(20, 10) = 184,756 minors, all checked
        rng = np.random.default_rng(20)
        arr = grs_array(rng, 20, 10, 101)
        assert load_explicit(FieldMatrix(arr, f101)).n == MINOR_CHECK_MAX_N
        # column 16 := a combination of columns 2, 9 and 13
        arr[:, 15] = (3 * arr[:, 1] + 5 * arr[:, 8] + 7 * arr[:, 12]) % 101
        bad = FieldMatrix(arr, f101)
        named = find_singular_minor(bad)
        with pytest.raises(NotMds, match=re.escape(f"columns {named}")):
            load_explicit(bad)
        assert bad.take_columns([j - 1 for j in named]).rank() < 10


def non_mds_f11_code():
    """(5, 3) code over F_11 whose column 3 equals column 2."""
    f11 = PrimeField(11)
    gen = make_vandermonde(5, 3, f11).generator.array.copy()
    gen[:, 2] = gen[:, 1]
    return MdsCode(generator=FieldMatrix(gen, f11), style="explicit")


class TestPivotMemo:
    """MdsCode.pivots against a fresh elimination, and spans against rank."""

    @pytest.fixture(params=["vandermonde", "systematic", "non-mds"])
    def code(self, request):
        f11 = PrimeField(11)
        if request.param == "vandermonde":
            return make_vandermonde(9, 4, f11)
        if request.param == "systematic":
            return make_systematic(9, 4, f11)
        return non_mds_f11_code()

    def test_matches_fresh_elimination_in_any_row_order(self, code):
        rng = np.random.default_rng(code.n + code.k + len(code.style))
        for size in range(code.n + 1):
            for _ in range(6):
                picks = rng.permutation(code.n)[:size] + 1
                shuffled = rng.permutation(picks)
                fresh = _pivot_columns(
                    code.generator.array[:, shuffled - 1].T, code.field.p)
                assert code.pivots(picks.tolist()) == fresh, (code, shuffled)
                # a repeated position adds no row to the row space
                assert code.pivots([*picks.tolist(), *picks[:1].tolist()]) == fresh

    def test_spans_agrees_with_rank(self, code):
        for size in range(code.n + 1):
            for positions in combinations(range(1, code.n + 1), size):
                cols = code.generator.take_columns([j - 1 for j in positions])
                assert code.spans(positions) == (cols.rank() == code.k)

    def test_non_mds_columns_do_not_span(self):
        code = non_mds_f11_code()
        assert not code.spans((1, 2, 3))
        assert code.spans((1, 2, 4))

    def test_positions_validated(self, code):
        for bad in [(0,), (1, code.n + 1)]:
            with pytest.raises(DimensionMismatch):
                code.pivots(bad)

    def test_row_space_is_the_nonzero_rref(self, code):
        # the nonzero rows of the RREF of the stacked columns, read-only,
        # shared by every lookup of the same position set
        for size in range(code.n + 1):
            for positions in combinations(range(1, code.n + 1), size):
                rows, pivots = code.row_space(positions)
                stacked = code.generator.take_columns(
                    [j - 1 for j in positions]).T
                rref = stacked.rref().array
                assert rows.shape == (len(pivots), code.k)
                assert np.array_equal(rows, rref[:len(pivots)])
                assert not rref[len(pivots):].any()
                assert pivots == code.pivots(positions[::-1])
                assert code.row_space(positions[::-1])[0] is rows
                assert not rows.flags.writeable


class TestColumnRanks:
    """MdsCode.column_ranks: the built-in styles' count formulas against
    the ranks read from the same code's row space by elimination."""

    @staticmethod
    def built_in_codes(q, n, k):
        # each style on the default points 0..n-1, which contain 0, and on
        # a seeded draw of n distinct points in any order
        field = PrimeField(q)
        drawn = np.random.default_rng(q * n + k).permutation(q)[:n].tolist()
        return [maker(n, k, field, points)
                for maker in (make_vandermonde, make_systematic)
                for points in (None, drawn)]

    @pytest.mark.parametrize("q, n, k", [(3, 3, 2), (5, 4, 3), (7, 6, 4),
                                         (11, 10, 5), (101, 11, 6)])
    def test_counts_match_row_space_pivots(self, q, n, k):
        for code in self.built_in_codes(q, n, k):
            for size in range(n + 1):
                for positions in combinations(range(1, n + 1), size):
                    pivots = code.pivots(positions)
                    # a repeated position counts once
                    repeated = positions + positions[:1]
                    for l in range(k + 1):
                        want = (len(pivots), sum(1 for c in pivots if c < l))
                        assert code.column_ranks(positions, l) == want, (
                            code, code.eval_points, positions, l)
                        assert code.column_ranks(repeated, l) == want

    def test_explicit_codes_count_pivots(self):
        code = non_mds_f11_code()  # columns 2 and 3 are equal
        assert code.column_ranks((2, 3), 1) == (1, 1)
        assert code.column_ranks((1, 2, 3, 4), 2) == (3, 2)
        assert len(code._row_space_memo) == 2

    @pytest.mark.parametrize("style", ["vandermonde", "systematic", "non-mds"])
    def test_edges_as_row_space(self, style):
        if style == "non-mds":
            code = non_mds_f11_code()
        else:
            code = self.built_in_codes(7, 6, 4)[style == "systematic"]
        for bad in [(0,), (code.n + 1,), (1, code.n + 1), (2, 0, 2)]:
            with pytest.raises(DimensionMismatch):
                code.column_ranks(bad, 1)
            with pytest.raises(DimensionMismatch):
                code.row_space(bad)
        for l in (-1, code.k + 1):
            with pytest.raises(DimensionMismatch):
                code.column_ranks((1,), l)
        assert code.column_ranks((), 0) == (0, 0)

    @pytest.mark.parametrize("maker", [make_vandermonde, make_systematic])
    def test_built_in_codes_eliminate_nothing(self, monkeypatch, maker):
        code = maker(9, 4, PrimeField(11))
        monkeypatch.setattr(mds, "_row_reduce", None)
        for size in range(code.n + 1):
            for positions in combinations(range(1, code.n + 1), size):
                code.column_ranks(positions, 2)
                assert code.spans(positions) == (size >= code.k)
        assert code._row_space_memo == {}


class TestEncodeRow:
    def test_systematic_prefix(self, f11):
        code = make_systematic(6, 4, f11)
        out = encode_row(code, [5, 6, 7, 8])
        assert np.array_equal(out[:4], [5, 6, 7, 8])

    def test_demo_g1_row(self, f11):
        code = load_explicit(FieldMatrix(DEMO_G1, f11))
        assert np.array_equal(encode_row(code, [1, 2, 3, 4]), [1, 2, 3, 4, 10])

    def test_zero_message(self, f11):
        code = make_vandermonde(5, 3, f11)
        assert np.array_equal(encode_row(code, [0, 0, 0]), np.zeros(5, dtype=int))

    def test_wrong_length(self, f11):
        with pytest.raises(DimensionMismatch):
            encode_row(make_vandermonde(5, 3, f11), [1, 2])


class TestErasureDecode:
    def test_systematic_readoff(self, f11):
        code = make_systematic(6, 4, f11)
        assert np.array_equal(
            erasure_decode(code, [1, 2, 3, 4], [9, 8, 7, 6]), [9, 8, 7, 6])

    def test_demo_g2_leading_positions(self, f11):
        # columns 1..3 are units and column 4 is all-ones, so symbols
        # (r1, r2, r3, r1+r2+r3+r4) must decode to (r1, r2, r3, r4)
        code = load_explicit(FieldMatrix(DEMO_G2, f11))
        r = [2, 5, 7, 3]
        syms = [r[0], r[1], r[2], sum(r) % 11]
        assert np.array_equal(erasure_decode(code, [1, 2, 3, 4], syms), r)

    def test_loaded_code_decodes_without_elimination(self, f11, monkeypatch):
        # load_explicit hands the systematic form its check built to the
        # code it returns: one elimination to load, none to decode
        reductions = []
        raw_reduce = mds._row_reduce

        def counting_reduce(*args, **kwargs):
            reductions.append(args[0].shape)
            return raw_reduce(*args, **kwargs)

        for module in (field_module, mds):  # and the name mds imports
            monkeypatch.setattr(module, "_row_reduce", counting_reduce)
        code = load_explicit(FieldMatrix(DEMO_G2, f11))
        assert reductions == [(4, 10)]
        r = [2, 5, 7, 3]
        word = encode_row(code, r)
        assert np.array_equal(
            erasure_decode(code, [2, 4, 5, 6], word[[1, 3, 4, 5]]), r)
        assert reductions == [(4, 10)]

    def test_roundtrip_random_subsets(self, f11):
        rng = np.random.default_rng(1)
        codes = [make_vandermonde(8, 4, f11), make_systematic(9, 5, f11),
                 load_explicit(FieldMatrix(DEMO_G2, f11))]
        trials = 0
        while trials < 500:
            code = codes[trials % len(codes)]
            msg = f11.uniform(rng, code.k)
            word = encode_row(code, msg)
            pos = 1 + rng.permutation(code.n)[: code.k]
            got = erasure_decode(code, pos.tolist(), word[pos - 1])
            assert np.array_equal(got, msg)
            trials += 1

    def test_position_validation(self, f11):
        code = make_vandermonde(5, 3, f11)
        with pytest.raises(DimensionMismatch):
            erasure_decode(code, [0, 1, 2], [1, 1, 1])  # 1-based indexing
        with pytest.raises(DimensionMismatch):
            erasure_decode(code, [1, 1, 2], [1, 1, 1])
        with pytest.raises(DimensionMismatch):
            erasure_decode(code, [1, 2], [1, 1])

    def test_symbol_shape_errors(self, f11):
        code = make_vandermonde(5, 3, f11)
        for syms in ([1, 1], np.ones((2, 3)), np.ones((4, 2)),
                     np.ones((3, 1, 1)), 1):
            with pytest.raises(DimensionMismatch) as exc:
                erasure_decode(code, [1, 2, 3], syms)
            assert str(exc.value) == "need exactly k=3 symbols"

    def test_dependent_columns_keep_their_message(self):
        code = non_mds_f11_code()
        for syms in ([1, 2, 3], [[1, 0], [2, 0], [3, 0]]):
            with pytest.raises(SingularSubmatrix) as exc:
                erasure_decode(code, [1, 2, 3], syms)
            assert str(exc.value) == ("columns [1, 2, 3] are dependent; "
                                      "code object is corrupted")


@st.composite
def multi_codeword_decodes(draw):
    """(code, positions, k x m message matrix) at p in {11, 101, 2^31 - 1}."""
    p = draw(st.sampled_from([11, 101, 2**31 - 1]))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 9))
    maker = draw(st.sampled_from([make_vandermonde, make_systematic]))
    positions = draw(st.lists(st.integers(1, n), min_size=k, max_size=k,
                              unique=True))
    m = draw(st.integers(1, 4))
    messages = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m,
                                      max_size=m), min_size=k, max_size=k))
    return maker(n, k, PrimeField(p)), positions, np.array(messages)


class TestMultiCodewordDecode:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(multi_codeword_decodes())
    def test_matches_one_decode_per_codeword(self, case):
        code, pos, messages = case
        words = (FieldMatrix(messages.T, code.field) @ code.generator).array
        syms = words[:, [j - 1 for j in pos]].T  # row i: position pos[i]
        got = erasure_decode(code, pos, syms)
        per_word = [erasure_decode(code, pos, syms[:, c])
                    for c in range(syms.shape[1])]
        assert np.array_equal(got, np.stack(per_word, axis=1))
        assert np.array_equal(got, messages)


def mixed_grs(rng, p, k, n):
    """A random invertible k x k matrix times a GRS generator: MDS
    (n <= p), and T in its systematic form G = T [I | P] is in general
    not the identity."""
    f = PrimeField(p)
    grs = FieldMatrix(grs_array(rng, n, k, p), f)
    while True:
        mix = FieldMatrix(rng.integers(0, p, size=(k, k)), f)
        if mix.rank() == k:
            return mix @ grs


def det_mod_p(rows, p):
    """Determinant mod p of a square list of rows, by elimination on
    Python integers (1 for the empty matrix)."""
    m = [[int(x) % p for x in row] for row in rows]
    det = 1
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, len(m)):
            factor = m[r][c] * inv % p
            m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[c])]
    return det % p


class TestCramerDecode:
    """Verified explicit codes decode by Cramer's rule on their minors;
    every other code keeps the k x k elimination."""

    @pytest.mark.parametrize("p", [3, 5, 11, 101, 2**31 - 1])
    def test_matches_solve_on_every_position_set(self, p):
        # 12 seeded MDS codes per field, k <= 6, n <= min(12, p), the
        # widest first; odd cases come from load_explicit and even ones
        # are wrapped unchecked; m codewords per decode (0: a vector)
        rng = np.random.default_rng(p % 1000)
        shapes = [(k, n) for n in range(1, min(12, p) + 1)
                  for k in range(1, min(6, n) + 1)]
        decodes = 0
        for case in range(12):
            k, n = shapes[-1] if case == 0 else shapes[rng.integers(len(shapes))]
            gen = mixed_grs(rng, p, k, n)
            code = load_explicit(gen) if case % 2 else MdsCode(gen, "explicit")
            assert code._cramer_form is not None
            shape = (k,) if case % 4 == 0 else (k, case % 4)
            msg = code.field.uniform(rng, shape)
            words = (gen.T @ FieldMatrix(msg.reshape(k, -1), code.field)).array
            subsets = list(combinations(range(1, n + 1), k))
            for i in rng.permutation(len(subsets)):
                pos = rng.permutation(subsets[i]).tolist()
                syms = words[[j - 1 for j in pos]].reshape(shape)
                got = erasure_decode(code, pos, syms)
                sub = gen.take_columns([j - 1 for j in pos]).T
                assert np.array_equal(got, sub.solve(syms))
                assert np.array_equal(got, msg)
                decodes += 1
        assert decodes >= 12

    def test_exact_at_largest_prime(self):
        # G = [I | P] over p = 2^31 - 1 with P and the message near -1:
        # every product in a decode is near 2^62, so any sum of two or
        # more of them passes 2^63 unless each is reduced first
        p = 2**31 - 1
        f = PrimeField(p)
        rng = np.random.default_rng(31)
        coef = p - 1 - rng.integers(0, 1000, size=(6, 6))
        code = load_explicit(FieldMatrix(
            np.hstack([np.eye(6, dtype=np.int64), coef]), f))
        msg = p - 1 - rng.integers(0, 1000, size=(6, 2))
        words = (code.generator.T @ FieldMatrix(msg, f)).array
        for pos in combinations(range(1, 13), 6):
            got = erasure_decode(code, pos, words[[j - 1 for j in pos]])
            assert np.array_equal(got, msg), pos

    @staticmethod
    def counted_solves(monkeypatch):
        calls = []
        raw = FieldMatrix.solve
        monkeypatch.setattr(FieldMatrix, "solve",
                            lambda *args: calls.append(args) or raw(*args))
        return calls

    def test_non_mds_codes_eliminate(self, f11, monkeypatch):
        # the first has dependent first k columns, the second a singular
        # minor of P (column 5 equals column 4)
        second = make_vandermonde(5, 3, f11).generator.array.copy()
        second[:, 4] = second[:, 3]
        codes = [(non_mds_f11_code(), [1, 2, 3]),
                 (MdsCode(FieldMatrix(second, f11), "explicit"), [1, 4, 5])]
        solves = self.counted_solves(monkeypatch)
        for code, singular in codes:
            assert code._cramer_form is None
            with pytest.raises(SingularSubmatrix) as exc:
                erasure_decode(code, singular, [1, 2, 3])
            assert str(exc.value) == (f"columns {singular} are dependent; "
                                      "code object is corrupted")
            msg = [4, 5, 6]
            assert np.array_equal(
                erasure_decode(code, [1, 2, 4], encode_row(code, msg)[[0, 1, 3]]),
                msg)
        assert len(solves) == 4

    @pytest.mark.parametrize("make", [
        lambda f: make_vandermonde(7, 4, f),
        lambda f: make_systematic(7, 4, f),
        lambda f: MdsCode(make_vandermonde(21, 4, f).generator, "explicit"),
    ], ids=["vandermonde", "systematic", "unchecked-explicit-n21"])
    def test_other_codes_eliminate(self, f101, monkeypatch, make):
        # built-in codes and explicit codes wider than the minor check
        # never compute the minors
        code = make(f101)
        forms = []
        monkeypatch.setattr(mds, "_systematic_form", forms.append)
        solves = self.counted_solves(monkeypatch)
        msg = [1, 2, 3, 4]
        pos = [code.n, 2, 5, 3]
        word = encode_row(code, msg)
        assert np.array_equal(
            erasure_decode(code, pos, word[[j - 1 for j in pos]]), msg)
        assert code._cramer_form is None and forms == [] and len(solves) == 1

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_minor_levels_on_random_generators(self, q):
        # mostly non-MDS: the first singular minor matches the rank
        # reference, and every stored level holds the exact minors of P
        rng = np.random.default_rng(q)
        f = PrimeField(q)
        singular = 0
        for _ in range(60):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(k, 11))
            gen = FieldMatrix(rng.integers(0, q, size=(k, n)), f)
            expected = first_singular_by_rank(gen)
            assert find_singular_minor(gen) == expected, gen
            singular += expected is not None
            form = mds._systematic_form(gen)
            if form is None:
                continue
            coef = np.hstack([np.eye(k, dtype=np.int64), form.coef])
            assert np.array_equal(
                (FieldMatrix(form.t_inv_t.T, f) @ gen).array, coef)
            for s, level in enumerate(form.levels):
                assert level.tolist() == [
                    [det_mod_p(form.coef[np.ix_(rows, cols)], q)
                     for cols in combinations(range(n - k), s)]
                    for rows in combinations(range(k), s)]
        assert singular > 30, singular


class TestJsonInterchange:
    def test_roundtrip(self, f11):
        code = load_explicit(FieldMatrix(DEMO_G2, f11))
        doc = json.loads(json.dumps(loader.code_doc(code)))
        again = code_from_json(doc)
        assert again.generator == code.generator
        assert (again.n, again.k) == (code.n, code.k)

    def test_rejects_tampered_document(self, f11):
        doc = loader.code_doc(load_explicit(FieldMatrix(DEMO_G2, f11)))
        doc["generator"][3][5] = 2
        with pytest.raises(NotMds):
            code_from_json(doc)

    def test_rejects_shape_lie(self, f11):
        # code_from_json reads through loader.code, the generator kind's
        # one reader, so a declared size its matrix contradicts is
        # malformed input, as on the CLI
        doc = loader.code_doc(load_explicit(FieldMatrix(DEMO_G1, f11)))
        doc["n"] = 7
        with pytest.raises(MalformedInput, match="declared"):
            code_from_json(doc)
        with pytest.raises(MalformedInput, match="generator key must be one of .*'q'"):
            code_from_json({**loader.code_doc(load_explicit(FieldMatrix(DEMO_G1, f11))),
                            "q": 11})
