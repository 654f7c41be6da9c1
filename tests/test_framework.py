import json
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinstore import (
    FieldMatrix,
    PrimeField,
    TwinConfig,
    TwinSystem,
    build_message_matrix,
    deploy,
    encode_system,
    erasure_decode,
    fail_node,
    helper_share,
    reconstruct,
    repair,
)
from twinstore.errors import (
    DeadNode,
    DimensionMismatch,
    EmptyHelper,
    InsufficientSeeds,
    NotEnoughHelpers,
    NotEnoughLiveNodes,
    PayloadTooLarge,
    MalformedInput,
    SameTypeHelper,
    UnverifiedCode,
)
from twinstore import field as field_module
from twinstore import framework, loader, mds

from shared_configs import build_config


class TestMessageMatrix:
    def test_column_major_fill(self, f101):
        msg = build_message_matrix(list(range(1, 17)), 4, f101)
        assert np.array_equal(msg.a1.column(0), [1, 2, 3, 4])
        assert np.array_equal(msg.a1.column(3), [13, 14, 15, 16])

    def test_short_payload_pads(self, f11):
        msg = build_message_matrix([7, 8, 9], 2, f11)
        assert msg.a1.tolist() == [[7, 9], [8, 0]]

    def test_empty_payload(self, f11):
        msg = build_message_matrix([], 3, f11)
        assert msg.a1 == FieldMatrix.zeros(3, 3, f11)

    def test_oversized_payload(self, f11):
        with pytest.raises(PayloadTooLarge):
            build_message_matrix(list(range(10)), 3, f11)

    def test_flatten_is_column_major(self, f101):
        msg = build_message_matrix(list(range(1, 17)), 4, f101)
        assert np.array_equal(msg.flatten(), np.arange(1, 17))

    def test_transpose_view(self, f11):
        msg = build_message_matrix(list(range(1, 5)), 2, f11)
        assert msg.a2 == msg.a1.T


class TestEncodeSystem:
    def test_zero_message_zero_nodes(self, f11):
        config = build_config(f11, 5, 6, 4)
        system = encode_system(config, build_message_matrix([], 4, f11))
        for t in (1, 2):
            for j in range(1, config.node_count(t) + 1):
                assert not system.node(t, j).symbols.any()

    def test_systematic_nodes_read_off_columns(self, f11):
        config = build_config(f11, 6, 7, 4, style="systematic")
        msg = build_message_matrix(list(range(1, 17)), 4, f11)
        system = encode_system(config, msg)
        for j in range(1, 5):
            assert np.array_equal(system.node(1, j).symbols, msg.a1.column(j - 1))
            assert np.array_equal(system.node(2, j).symbols, msg.a1.row(j - 1))

    def test_demo_mixing_columns(self, demo_config, demo_layout, demo_system):
        a = demo_layout.matrix.a1.array
        p = 11
        # Type 1 node 5: all-ones encoding vector -> row sums
        assert np.array_equal(demo_system.node(1, 5).symbols, a.sum(axis=1) % p)
        # Type 2 node 5: weights (1,4,3,2) across each column
        w = np.array([1, 4, 3, 2])
        assert np.array_equal(demo_system.node(2, 5).symbols, (w @ a) % p)

    def test_dimension_mismatch(self, f11):
        config = build_config(f11, 5, 6, 4)
        with pytest.raises(DimensionMismatch):
            encode_system(config, build_message_matrix([1], 3, f11))

    def test_connectivity_warning_flag(self, f11):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            low = TwinConfig.build(f11, 5, 6, 4)
        assert not low.meets_recommended_connectivity
        assert any("2k-1" in str(w.message) for w in caught)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ok = TwinConfig.build(f11, 7, 8, 4)
        assert ok.meets_recommended_connectivity
        assert not caught

    def test_connectivity_warning_names_the_building_line(self, f11):
        codes = [mds.make_vandermonde(n, 4, f11) for n in (5, 6)]
        with pytest.warns(UserWarning, match="below the recommended 2k-1=7") as caught:
            TwinConfig(*codes)
        assert [w.filename for w in caught] == [__file__]
        with pytest.warns(UserWarning, match="below the recommended 2k-1=7") as caught:
            TwinConfig.build(f11, 5, 6, 4)
        assert [w.filename for w in caught] == [__file__]


def per_row_reconstruct(system, node_type, idx):
    """Reference: decode row t of the type's spread matrix, one k-symbol
    erasure decode per row, and orient the result as A."""
    code = system.config.code_for(node_type)
    observed = np.stack([system.node(node_type, j).symbols for j in idx], axis=1)
    rows = np.stack([erasure_decode(code, idx, observed[t])
                     for t in range(system.config.k)])
    return rows if node_type == 1 else rows.T


@st.composite
def reconstructions(draw):
    """(system, message, node type, k distinct nodes) at p in {11, 101, 2^31 - 1}."""
    field = PrimeField(draw(st.sampled_from([11, 101, 2**31 - 1])))
    k = draw(st.integers(1, 5))
    n1, n2 = draw(st.integers(k, 9)), draw(st.integers(k, 9))
    config = build_config(field, n1, n2, k,
                          style=draw(st.sampled_from(["vandermonde", "systematic"])))
    payload = draw(st.lists(st.integers(0, field.p - 1), min_size=k * k,
                            max_size=k * k))
    msg = build_message_matrix(payload, k, field)
    node_type = draw(st.integers(1, 2))
    idx = draw(st.lists(st.integers(1, config.node_count(node_type)),
                        min_size=k, max_size=k, unique=True))
    return encode_system(config, msg), msg, node_type, idx


class TestReconstruct:
    def test_demo_type2_first_four(self, demo_layout, demo_system):
        rec = reconstruct(demo_system, 2, [1, 2, 3, 4])
        assert rec.a1 == demo_layout.matrix.a1

    def test_systematic_type1_read_off(self, f11):
        config = build_config(f11, 6, 7, 4, style="systematic")
        msg = build_message_matrix(list(range(1, 17)), 4, f11)
        system = encode_system(config, msg)
        assert reconstruct(system, 1, [1, 2, 3, 4]).a1 == msg.a1

    def test_random_roundtrips(self):
        rng = np.random.default_rng(11)
        trials = 0
        while trials < 200:
            p = [11, 13, 101][trials % 3]
            field = PrimeField(p)
            k = int(rng.integers(2, 5))
            n1 = k + int(rng.integers(0, 4))
            n2 = k + int(rng.integers(0, 4))
            if max(n1, n2) > p:
                continue
            style = ["vandermonde", "systematic"][trials % 2]
            config = build_config(field, n1, n2, k, style=style)
            msg = build_message_matrix(field.uniform(rng, k * k), k, field)
            system = encode_system(config, msg)
            t = int(rng.integers(1, 3))
            idx = (1 + rng.permutation(config.node_count(t))[:k]).tolist()
            assert reconstruct(system, t, idx).a1 == msg.a1
            trials += 1

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(reconstructions())
    def test_matches_per_row_decoding(self, case):
        system, msg, node_type, idx = case
        rec = reconstruct(system, node_type, idx)
        assert np.array_equal(rec.a1.array,
                              per_row_reconstruct(system, node_type, idx))
        assert rec.a1 == msg.a1

    def test_one_decode_per_reconstruct(self, demo_system, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return erasure_decode(*args)
        monkeypatch.setattr(mds, "erasure_decode", counting)
        for t, idx in ((1, [1, 2, 3, 4]), (2, [6, 1, 4, 3]), (1, [5, 3, 2, 4])):
            reconstruct(demo_system, t, idx)
        assert len(calls) == 3

    def test_errors(self, demo_system):
        with pytest.raises(NotEnoughLiveNodes):
            reconstruct(demo_system, 1, [1, 2, 3])
        with pytest.raises(NotEnoughLiveNodes):
            reconstruct(demo_system, 1, [1, 1, 2, 3])
        failed = fail_node(demo_system, 2, 2)
        with pytest.raises(DeadNode):
            reconstruct(failed, 2, [1, 2, 3, 4])


class TestNodeReferences:
    """Every node access names type 1 or 2 and an index inside its family."""

    @pytest.mark.parametrize("access, error", [
        (lambda s: fail_node(s, 3, 1), ValueError),
        (lambda s: fail_node(s, 0, 1), ValueError),
        (lambda s: s.node(7, 2), ValueError),
        (lambda s: s.is_live(3, 1), ValueError),
        (lambda s: s.with_node(1, 0, None), DimensionMismatch),
        (lambda s: s.with_node(1, -2, None), DimensionMismatch),
        (lambda s: s.with_node(1, 6, None), DimensionMismatch),
        (lambda s: s.with_node(2, 1, [1, 2, 3]), DimensionMismatch),
        (lambda s: s.with_node(2, 1, np.ones((4, 1))),
         DimensionMismatch),
        (lambda s: s.config.node_count(0), ValueError),
        (lambda s: s.config.node_count(3), ValueError),
        (lambda s: s.config.code_for(3), ValueError),
        (lambda s: s.config.encoding_vector(3, 1), ValueError),
    ])
    def test_rejected(self, demo_system, access, error):
        with pytest.raises(error):
            access(demo_system)


class TestValueEquality:
    """Array-holding records compare by value and refuse to hash."""

    def test_encoding_vector(self, demo_config):
        vector = demo_config.encoding_vector(1, 2)
        assert vector == demo_config.encoding_vector(1, 2)
        with pytest.raises(TypeError, match="unhashable type: 'EncodingVector'"):
            hash(vector)

    def test_node_content(self, demo_config, demo_layout, demo_system):
        node = encode_system(demo_config, demo_layout.matrix).node(2, 3)
        assert node == demo_system.node(2, 3) != fail_node(demo_system, 2, 3).node(2, 3)
        with pytest.raises(TypeError, match="unhashable type: 'NodeContent'"):
            hash(node)


class TestHelperShare:
    def test_unit_target_reads_first_symbol(self, demo_config, demo_system):
        target = demo_config.encoding_vector(1, 1)  # e1 column
        share = helper_share(demo_system.node(2, 1), target)
        assert share == demo_system.node(2, 1).symbols[0]

    def test_all_ones_helper(self, demo_config, demo_layout, demo_system):
        # Type 2 node 4 stores column sums, so an e1 target reads r1+r2+r3+r4
        target = demo_config.encoding_vector(1, 1)
        share = helper_share(demo_system.node(2, 4), target)
        r = demo_layout.random_symbols
        assert share == int(r[:4].sum() % 11)

    def test_zero_target(self, demo_config, demo_system):
        from twinstore import EncodingVector
        zero = EncodingVector(1, 1, np.zeros(4, dtype=np.int64), demo_config.field)
        assert helper_share(demo_system.node(2, 3), zero) == 0

    def test_target_reduced_once_and_read_only(self, demo_config, demo_system):
        # a vector stores its coefficients reduced, as read-only int64, so
        # each helper reads them as they are; a wrong length still fails
        from twinstore import EncodingVector
        field = demo_config.field
        vector = EncodingVector(1, 1, [12, -1, 0, 22], field)
        assert vector.coefficients.dtype == np.int64
        assert vector.coefficients.tolist() == [1, 10, 0, 0]
        assert not vector.coefficients.flags.writeable
        helper = demo_system.node(2, 4)
        assert helper_share(helper, vector) == helper_share(
            helper, EncodingVector(1, 1, np.array([1, 10, 0, 0]), field))
        with pytest.raises(DimensionMismatch, match="vector length"):
            helper_share(helper, EncodingVector(1, 1, [1, 2, 3], field))

    def test_same_type_rejected(self, demo_config, demo_system):
        with pytest.raises(SameTypeHelper):
            helper_share(demo_system.node(1, 2), demo_config.encoding_vector(1, 1))

    def test_empty_helper_rejected(self, demo_config, demo_system):
        failed = fail_node(demo_system, 2, 1)
        with pytest.raises(EmptyHelper):
            helper_share(failed.node(2, 1), demo_config.encoding_vector(1, 1))


class TestRepair:
    def test_demo_type1_from_leading_type2(self, demo_system):
        original = demo_system.node(1, 1)
        broken = fail_node(demo_system, 1, 1)
        restored, content = repair(broken, 1, 1, [1, 2, 3, 4])
        assert content == original
        assert restored.node(1, 1) == original
        assert restored.is_live(1, 1)

    def test_demo_type2_from_spread_helpers(self, demo_system):
        original = demo_system.node(2, 2)
        broken = fail_node(demo_system, 2, 2)
        _, content = repair(broken, 2, 2, [1, 3, 4, 5])
        assert content == original

    def test_random_roundtrips(self):
        rng = np.random.default_rng(12)
        trials = 0
        while trials < 500:
            p = [11, 101][trials % 2]
            field = PrimeField(p)
            k = int(rng.integers(2, 5))
            n1 = k + int(rng.integers(0, 4))
            n2 = k + int(rng.integers(0, 4))
            config = build_config(field, n1, n2, k,
                                  style=["vandermonde", "systematic"][trials % 2])
            msg = build_message_matrix(field.uniform(rng, k * k), k, field)
            system = encode_system(config, msg)
            t = int(rng.integers(1, 3))
            j = int(rng.integers(1, config.node_count(t) + 1))
            helpers = (1 + rng.permutation(config.node_count(3 - t))[:k]).tolist()
            _, content = repair(fail_node(system, t, j), t, j, helpers)
            assert content == system.node(t, j)
            trials += 1

    def test_share_depends_only_on_helper_and_target(self, demo_system):
        # zero out every node except the helper; the share must not change
        target_cfg = demo_system.config
        target = target_cfg.encoding_vector(1, 1)
        share_full = helper_share(demo_system.node(2, 3), target)
        stripped = demo_system
        for t in (1, 2):
            for j in range(1, target_cfg.node_count(t) + 1):
                if (t, j) != (2, 3):
                    stripped = stripped.with_node(t, j, np.zeros(4, dtype=int))
        assert helper_share(stripped.node(2, 3), target) == share_full

    def test_default_policy_uses_lowest_live(self, demo_system):
        broken = fail_node(fail_node(demo_system, 1, 1), 2, 1)
        restored, content = repair(broken, 1, 1)  # helpers default to 2,3,4,5
        assert content == demo_system.node(1, 1)

    def test_errors(self, demo_system):
        broken = fail_node(demo_system, 1, 1)
        with pytest.raises(NotEnoughHelpers):
            repair(broken, 1, 1, [1, 2, 3])
        with pytest.raises(NotEnoughHelpers):
            repair(broken, 1, 1, [1, 1, 2, 3])
        with pytest.raises(NotEnoughHelpers):
            repair(broken, 1, 1, [1, 2, 3, 7])
        doubly = fail_node(broken, 2, 4)
        with pytest.raises(NotEnoughHelpers):
            repair(doubly, 1, 1, [1, 2, 3, 4])


def raised(call, *args):
    """The exception call(*args) raises, as (type, message)."""
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


class TestValidationOrder:
    """Which error reconstruct and repair raise, with which message, when
    several indices are wrong at once: the first failing check wins, and
    the indices are checked one at a time in the order given.  The demo
    system has k=4, five type 1 and six type 2 nodes."""

    @pytest.mark.parametrize("node_type, idx, want", [
        (3, [1, 2, 3, 4], (ValueError, "node type must be 1 or 2, got 3")),
        (2, [1, 2, 3], (NotEnoughLiveNodes, "need k=4 distinct nodes, got [1, 2, 3]")),
        (2, [1, 1, 3, 4], (NotEnoughLiveNodes, "need k=4 distinct nodes, got [1, 1, 3, 4]")),
        (2, [9, 9, 2, 3], (NotEnoughLiveNodes, "need k=4 distinct nodes, got [9, 9, 2, 3]")),
        (2, [1, 3, 4, 5, 6], (DimensionMismatch, "expected exactly k=4 nodes")),
        (2, [7, 2, 3, 4], (DimensionMismatch, "type 2 has nodes 1..6, got 7")),
        (2, [0, 2, 3, 4], (DimensionMismatch, "type 2 has nodes 1..6, got 0")),
        (2, [1, 2, 7, 4], (DeadNode, "type 2 node 2 holds no data")),
        (2, [5, 6, 1, 2], (DeadNode, "type 2 node 2 holds no data")),
        (1, [1, 2, 3, 6], (DimensionMismatch, "type 1 has nodes 1..5, got 6")),
    ])
    def test_reconstruct(self, demo_system, node_type, idx, want):
        failed = fail_node(demo_system, 2, 2)
        assert raised(reconstruct, failed, node_type, idx) == want

    @pytest.mark.parametrize("failed, helpers, want", [
        ((3, 1), [1, 2, 3, 4], (ValueError, "node type must be 1 or 2, got 3")),
        ((1, 6), [1, 2], (DimensionMismatch, "type 1 has nodes 1..5, got 6")),
        ((2, 0), [1, 2, 3, 4], (DimensionMismatch, "type 2 has nodes 1..6, got 0")),
        ((1, 1), [1, 2, 3],
         (NotEnoughHelpers, "need exactly k=4 distinct helpers, got [1, 2, 3]")),
        ((1, 1), [1, 1, 2, 3],
         (NotEnoughHelpers, "need exactly k=4 distinct helpers, got [1, 1, 2, 3]")),
        ((1, 1), [1, 2, 3, 7], (NotEnoughHelpers, "helper index 7 out of range")),
        ((1, 1), [0, 2, 3, 5], (NotEnoughHelpers, "helper index 0 out of range")),
        ((1, 1), [1, 2, 3, 4],
         (NotEnoughHelpers, "helper type 2 node 4 holds no data")),
        ((1, 1), [4, 7, 1, 2],
         (NotEnoughHelpers, "helper type 2 node 4 holds no data")),
        ((1, 1), [7, 4, 1, 2], (NotEnoughHelpers, "helper index 7 out of range")),
        ((2, 1), [1, 2, 3, 6], (NotEnoughHelpers, "helper index 6 out of range")),
    ])
    def test_repair(self, demo_system, failed, helpers, want):
        broken = fail_node(demo_system, 2, 4)
        assert raised(repair, broken, *failed, helpers) == want

    def test_repair_default_helpers_too_few(self, demo_system):
        broken = demo_system
        for j in (1, 2, 3):
            broken = fail_node(broken, 2, j)
        assert raised(repair, broken, 1, 1) == (
            NotEnoughHelpers, "need exactly k=4 distinct helpers, got [4, 5, 6]")


class TestLayerCalls:
    """The benchmark's per-layer counters count these calls: a repair
    ships one helper_share per helper and decodes once, a decode of a
    built-in code is one solve, a decode of a verified explicit code is
    none, and a deploy repairs every non-seed node."""

    @staticmethod
    def count(monkeypatch, owner, name):
        calls = []
        raw = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return raw(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_repair_and_decode(self, f11, monkeypatch):
        shares = self.count(monkeypatch, framework, "helper_share")
        decodes = self.count(monkeypatch, mds, "erasure_decode")
        solves = self.count(monkeypatch, FieldMatrix, "solve")
        msg = build_message_matrix(list(range(16)), 4, f11)
        for style in ("vandermonde", "systematic"):  # built-in codes
            system = encode_system(build_config(f11, 5, 6, 4, style), msg)
            for calls in (shares, decodes, solves):
                calls.clear()
            broken = fail_node(system, 1, 2)
            _, content = repair(broken, 1, 2, [6, 2, 5, 3])
            assert content == system.node(1, 2)
            assert len(shares) == 4 and len(decodes) == 1 and len(solves) == 1
            reconstruct(system, 2, [1, 2, 3, 4])
            assert len(shares) == 4 and len(decodes) == 2 and len(solves) == 2

    def test_verified_explicit_codes_decode_without_elimination(
            self, demo_system, demo_layout, monkeypatch):
        # the demo codes come from load_explicit; once a code holds its
        # minors, repair and reconstruct eliminate nothing
        for code in (demo_system.config.code1, demo_system.config.code2):
            assert code._cramer_form is not None
        decodes = self.count(monkeypatch, mds, "erasure_decode")
        solves = self.count(monkeypatch, FieldMatrix, "solve")
        reductions = []
        for module in (field_module, mds):  # and the name mds imports
            monkeypatch.setattr(module, "_row_reduce",
                                lambda *args: reductions.append(args))
        broken = fail_node(demo_system, 1, 2)
        _, content = repair(broken, 1, 2, [6, 2, 5, 3])
        assert content == demo_system.node(1, 2)
        assert reconstruct(demo_system, 2, [5, 1, 4, 2]) == demo_layout.matrix
        assert reconstruct(demo_system, 1, [2, 5, 3, 1]) == demo_layout.matrix
        assert len(decodes) == 3 and solves == [] and reductions == []

    @pytest.mark.parametrize("n1, n2, k", [(5, 6, 4), (7, 7, 4), (4, 4, 4),
                                           (9, 6, 3)])
    def test_deploy_shares(self, monkeypatch, n1, n2, k):
        field = PrimeField(101)
        config = build_config(field, n1, n2, k)
        msg = build_message_matrix(list(range(k * k)), k, field)
        shares = self.count(monkeypatch, framework, "helper_share")
        decodes = self.count(monkeypatch, mds, "erasure_decode")
        seeds = list(range(1, k + 1))
        assert deploy(config, msg, seeds, seeds) == encode_system(config, msg)
        assert len(shares) == (n1 + n2 - 2 * k) * k
        assert len(decodes) == n1 + n2 - 2 * k


class TestDeploy:
    def test_demo_seeds_match_full_encode(self, demo_config, demo_layout,
                                          demo_system):
        got = deploy(demo_config, demo_layout.matrix, [1, 2, 3, 4], [1, 2, 3, 4])
        assert got == demo_system

    def test_square_config_deploy_is_encode(self, f11):
        config = build_config(f11, 4, 4, 4)
        msg = build_message_matrix(list(range(16)), 4, f11)
        assert deploy(config, msg, [1, 2, 3, 4], [1, 2, 3, 4]) == \
            encode_system(config, msg)

    def test_random_configs(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            field = PrimeField([11, 101][trial % 2])
            k = int(rng.integers(2, 5))
            n1 = k + int(rng.integers(0, 4))
            n2 = k + int(rng.integers(0, 4))
            config = build_config(field, n1, n2, k)
            msg = build_message_matrix(field.uniform(rng, k * k), k, field)
            seeds1 = (1 + rng.permutation(n1)[:k]).tolist()
            seeds2 = (1 + rng.permutation(n2)[:k]).tolist()
            assert deploy(config, msg, seeds1, seeds2) == encode_system(config, msg)

    def test_insufficient_seeds(self, demo_config, demo_layout):
        with pytest.raises(InsufficientSeeds):
            deploy(demo_config, demo_layout.matrix, [1, 2, 3], [1, 2, 3, 4])
        with pytest.raises(InsufficientSeeds):
            deploy(demo_config, demo_layout.matrix, [1, 2, 3, 9], [1, 2, 3, 4])


class TestUniversality:
    def test_all_reconstruction_subsets(self, demo_config, demo_layout,
                                        demo_system):
        for t in (1, 2):
            n = demo_config.node_count(t)
            for subset in combinations(range(1, n + 1), 4):
                rec = reconstruct(demo_system, t, list(subset))
                assert rec.a1 == demo_layout.matrix.a1

    def test_all_repair_helper_subsets(self, demo_config, demo_system):
        for t in (1, 2):
            helpers_n = demo_config.node_count(3 - t)
            for j in range(1, demo_config.node_count(t) + 1):
                broken = fail_node(demo_system, t, j)
                for helpers in combinations(range(1, helpers_n + 1), 4):
                    _, content = repair(broken, t, j, list(helpers))
                    assert content == demo_system.node(t, j)


class TestSnapshotJson:
    def test_roundtrip(self, demo_system):
        doc = json.loads(json.dumps(loader.snapshot_doc(demo_system)))
        again = TwinSystem.from_json_dict(doc)
        assert again == demo_system

    def test_roundtrip_with_failures(self, demo_system):
        broken = fail_node(demo_system, 2, 3)
        doc = json.loads(json.dumps(loader.snapshot_doc(broken)))
        again = TwinSystem.from_json_dict(doc)
        assert again == broken
        assert not again.is_live(2, 3)
        assert again.node(2, 3).is_empty

    @pytest.fixture(scope="class")
    def wide_doc(self):
        """n = 24 > MINOR_CHECK_MAX_N: beyond the exhaustive minor check."""
        f101 = PrimeField(101)
        config = build_config(f101, 24, 24, 3)
        msg = build_message_matrix(list(range(9)), 3, f101)
        return json.loads(json.dumps(loader.snapshot_doc(encode_system(config, msg))))

    @pytest.mark.parametrize("style", ["vandermonde", "systematic"])
    def test_wide_snapshot_rebuilt_from_points(self, style):
        f101 = PrimeField(101)
        system = encode_system(build_config(f101, 24, 22, 3, style=style),
                               build_message_matrix(list(range(9)), 3, f101))
        doc = json.loads(json.dumps(loader.snapshot_doc(system)))
        assert TwinSystem.from_json_dict(doc) == system

    def test_duplicated_column_refused_above_minor_check_cap(self, wide_doc):
        doc = json.loads(json.dumps(wide_doc))
        for row in doc["config"]["codes"][0]["generator"]:
            row[5] = row[4]  # column 6 = column 5: not MDS
        with pytest.raises(UnverifiedCode):
            TwinSystem.from_json_dict(doc)

    def test_points_contradicting_generator_refused(self, wide_doc):
        doc = json.loads(json.dumps(wide_doc))
        code = doc["config"]["codes"][1]
        code["points"] = [x + 1 for x in code["points"]]
        with pytest.raises(UnverifiedCode):
            TwinSystem.from_json_dict(doc)

    @pytest.mark.parametrize("style", ["explicit", "reed-solomon"])
    def test_unverifiable_generator_refused(self, wide_doc, style):
        # explicit: too wide for the minor check; any other style: unknown
        doc = json.loads(json.dumps(wide_doc))
        doc["config"]["codes"][0].update(style=style, points=None)
        with pytest.raises(UnverifiedCode):
            TwinSystem.from_json_dict(doc)

    @pytest.mark.parametrize("damage", [
        lambda doc: doc.pop("nodes"),
        lambda doc: doc["config"].pop("codes"),
        lambda doc: doc["config"].update(q=10),
        lambda doc: doc["config"]["codes"][0].update(generator=[[1, 2], [3]]),
        lambda doc: doc["nodes"]["type1"].pop(),
        lambda doc: doc["nodes"]["type2"][0].update(index=2),
        lambda doc: doc["nodes"]["type2"][0].update(symbols=[1, 2, 3]),
        lambda doc: doc["nodes"]["type2"][0].update(symbols=[1, 2, 3, "4"]),
        lambda doc: doc["nodes"]["type1"][2].update(live=1),
        lambda doc: doc["nodes"]["type1"][2].update(live=False),
        lambda doc: doc["nodes"]["type2"][1].update(symbols=None),
        lambda doc: doc["config"].update(n1=6),
        lambda doc: doc["config"].update(k=3),
        lambda doc: doc["config"]["codes"][1].update(
            style="vandermonde", points=None,
            generator=mds.make_vandermonde(6, 2, PrimeField(11)).generator.tolist()),
    ])
    def test_malformed_snapshot_refused(self, demo_system, damage):
        doc = json.loads(json.dumps(loader.snapshot_doc(demo_system)))
        damage(doc)
        with pytest.raises(MalformedInput):
            TwinSystem.from_json_dict(doc)
