import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinstore import (
    FieldMatrix,
    MdsCode,
    PrimeField,
    code_from_json,
    code_to_json,
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
    NotMds,
    SingularSubmatrix,
    TooFewPoints,
    UnverifiedCode,
)
from twinstore.field import _pivot_columns, vstack


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


def non_mds_f11_code():
    """(5, 3) code over F_11 whose column 3 equals column 2."""
    f11 = PrimeField(11)
    gen = make_vandermonde(5, 3, f11).generator.array.copy()
    gen[:, 2] = gen[:, 1]
    return MdsCode(n=5, k=3, field=f11, generator=FieldMatrix(gen, f11),
                   style="explicit")


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


class TestJsonInterchange:
    def test_roundtrip(self, f11):
        code = load_explicit(FieldMatrix(DEMO_G2, f11))
        doc = json.loads(json.dumps(code_to_json(code)))
        again = code_from_json(doc)
        assert again.generator == code.generator
        assert (again.n, again.k) == (code.n, code.k)

    def test_rejects_tampered_document(self, f11):
        doc = code_to_json(load_explicit(FieldMatrix(DEMO_G2, f11)))
        doc["generator"][3][5] = 2
        with pytest.raises(NotMds):
            code_from_json(doc)

    def test_rejects_shape_lie(self, f11):
        doc = code_to_json(load_explicit(FieldMatrix(DEMO_G1, f11)))
        doc["n"] = 7
        with pytest.raises(DimensionMismatch):
            code_from_json(doc)
