import dataclasses
import json
from itertools import combinations

import numpy as np
import pytest

from twinstore import (
    EavesdropperSpec,
    FieldMatrix,
    GuaranteeReason,
    PrimeField,
    build_message_matrix,
    default_repair_plans,
    encode_system,
    guaranteed_secure_set,
    leakage,
    make_secure_layout,
    observe,
    reconstruct,
    recover_payload,
    secure_capacity_twin,
)
from twinstore import loader
from twinstore.demo import build_demo_layout
from twinstore.errors import (
    BadPayloadLength,
    BudgetExceeded,
    DimensionMismatch,
    FieldMismatch,
)
from twinstore.secure import SecureLayout

from shared_configs import build_config


class TestCapacity:
    def test_substitutions(self):
        assert secure_capacity_twin(4, 2, 0) == 8
        assert secure_capacity_twin(50, 2, 1) == 2350
        assert secure_capacity_twin(4, 0, 0) == 16

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            secure_capacity_twin(4, 3, 1)
        with pytest.raises(BudgetExceeded):
            secure_capacity_twin(4, 4, 1)


class TestLayout:
    def test_demo_block_structure(self, f11):
        payload = list(range(1, 9))
        layout = make_secure_layout(payload, 2, 0, 4, f11, seed=7)
        a = layout.matrix.a1.array
        assert np.array_equal(a[:, 0], layout.random_symbols[:4])
        assert np.array_equal(a[:, 1], layout.random_symbols[4:])
        assert np.array_equal(a[:, 2], payload[:4])
        assert np.array_equal(a[:, 3], payload[4:])
        assert layout.random_cols == tuple(range(8))
        assert layout.payload_cols == tuple(range(8, 16))

    def test_equality_is_identity_and_hash_works(self, demo_layout):
        assert demo_layout == demo_layout != build_demo_layout(seed=7)
        assert {demo_layout: 1}[demo_layout] == 1

    def test_plain_layout_has_no_random_columns(self, f11):
        layout = make_secure_layout(list(range(1, 10)), 0, 0, 3, f11)
        assert layout.random_symbols.size == 0
        assert np.array_equal(layout.matrix.flatten(), np.arange(1, 10))

    def test_budget_and_length_validation(self, f11):
        with pytest.raises(BudgetExceeded):
            make_secure_layout([], 3, 1, 4, f11)
        with pytest.raises(BadPayloadLength):
            make_secure_layout([1, 2, 3], 2, 0, 4, f11)

    def test_payload_length_equals_capacity(self, f11):
        for k in range(2, 6):
            for l1 in range(k):
                for l2 in range(k - l1):
                    cap = secure_capacity_twin(k, l1, l2)
                    layout = make_secure_layout([0] * cap, l1, l2, k, f11)
                    assert layout.payload.size == cap
                    assert layout.random_symbols.size == k * (l1 + l2)

    def test_seed_reproducibility(self, f11):
        a = make_secure_layout(list(range(8)), 2, 0, 4, f11, seed=42)
        b = make_secure_layout(list(range(8)), 2, 0, 4, f11, seed=42)
        c = make_secure_layout(list(range(8)), 2, 0, 4, f11, seed=43)
        assert np.array_equal(a.random_symbols, b.random_symbols)
        assert not np.array_equal(a.random_symbols, c.random_symbols)

    def test_labels(self, f11):
        layout = make_secure_layout(list(range(8)), 1, 1, 4, f11)
        assert layout.label(0) == "r1"
        assert layout.label(7) == "r8"
        assert layout.label(8) == "a9"
        assert layout.label(15) == "a16"

    def test_json_roundtrip(self, f11):
        layout = make_secure_layout(list(range(8)), 2, 0, 4, f11, seed=99)
        doc = json.loads(json.dumps(loader.layout_doc(layout)))
        again = loader.layout(doc, build_config(f11, 5, 6, 4))
        assert np.array_equal(again.random_symbols, layout.random_symbols)
        assert again.matrix.a1 == layout.matrix.a1
        assert isinstance(again, SecureLayout)


class TestLayoutIsItsValues:
    """A layout is its sizes, seed, protected type and payload; every
    construction derives the random symbols and the matrix from them."""

    def test_constructor_fields(self):
        assert [f.name for f in dataclasses.fields(SecureLayout)] == [
            "k", "l1", "l2", "field", "seed", "protected_type", "payload"]

    def test_replace_protected_type_rebuilds_matrix(self, f11):
        layout = make_secure_layout(list(range(8)), 2, 0, 4, f11, seed=3)
        flipped = dataclasses.replace(layout, protected_type=2)
        assert np.array_equal(flipped.matrix.a1.array, layout.matrix.a1.array.T)
        assert np.array_equal(recover_payload(flipped, flipped.matrix),
                              np.arange(8))
        assert flipped.random_cols == (0, 1, 4, 5, 8, 9, 12, 13)

    def test_replace_payload_rebuilds_matrix(self, f11):
        for protected in (1, 2):
            layout = make_secure_layout(list(range(8)), 1, 1, 4, f11, seed=5,
                                        protected_type=protected)
            other = dataclasses.replace(layout, payload=[7] * 8)
            assert np.array_equal(recover_payload(other, other.matrix), [7] * 8)
            assert np.array_equal(other.random_symbols, layout.random_symbols)

    def test_replace_refuses_what_make_secure_layout_refuses(self, f11):
        layout = make_secure_layout(list(range(8)), 2, 0, 4, f11)
        for change, error in [({"payload": [1, 2, 3]}, BadPayloadLength),
                              ({"protected_type": 3}, ValueError),
                              ({"l2": 2}, BudgetExceeded)]:
            args = {"payload": list(range(8)), "l1": 2, "l2": 0, "k": 4,
                    "field": f11, "protected_type": 1, **change}
            with pytest.raises(error) as made:
                make_secure_layout(**args)
            with pytest.raises(error) as replaced:
                dataclasses.replace(layout, **change)
            assert str(replaced.value) == str(made.value)

    @pytest.mark.parametrize("protected", [1, 2])
    def test_matches_reference_formulas(self, f11, protected):
        # the leading-random-columns block, transposed for protected type 2
        rng = np.random.default_rng(protected)
        for k in range(1, 7):
            for l in range(k):
                payload = f11.uniform(rng, k * (k - l))
                layout = make_secure_layout(payload, l - l // 2, l // 2, k, f11,
                                            seed=k * 10 + l,
                                            protected_type=protected)
                rand = f11.uniform(np.random.default_rng(k * 10 + l), k * l)
                block = np.concatenate([rand, payload]).reshape((k, k), order="F")
                if protected == 1:
                    random_cols = tuple(range(k * l))
                    a1 = block
                else:
                    random_cols = tuple(j for j in range(k * k) if j % k < l)
                    a1 = block.T
                assert layout.random_cols == random_cols
                assert layout.payload_cols == tuple(
                    j for j in range(k * k) if j not in random_cols)
                assert np.array_equal(layout.matrix.a1.array, a1)
                msg = build_message_matrix(f11.uniform(rng, k * k), k, f11)
                back = msg.a1.array if protected == 1 else msg.a1.array.T
                assert np.array_equal(recover_payload(layout, msg),
                                      back.flatten(order="F")[k * l:])


class TestGuarantee:
    def test_demo_leading_nodes_guaranteed(self, demo_config, demo_layout):
        g = guaranteed_secure_set(demo_config, demo_layout, [(1, 1), (1, 2)], [])
        assert g.guaranteed
        assert g.reason is GuaranteeReason.SUBMATRIX_FULL_RANK

    def test_demo_payload_columns_not_guaranteed(self, demo_config, demo_layout):
        # columns 3,4 of the systematic-style generator vanish on the first
        # two rows, so the proof's decoding step fails
        g = guaranteed_secure_set(demo_config, demo_layout, [(1, 3), (1, 4)], [])
        assert not g.guaranteed
        assert g.reason is GuaranteeReason.NOT_GUARANTEED

    def test_mixed_types_never_guaranteed(self, demo_config, demo_layout):
        g = guaranteed_secure_set(demo_config, demo_layout, [(1, 1), (2, 2)], [])
        assert not g.guaranteed

    def test_over_budget_not_guaranteed(self, demo_config, demo_layout):
        g = guaranteed_secure_set(demo_config, demo_layout,
                                  [(1, 1), (1, 2)], [(1, 3)])
        assert not g.guaranteed

    @pytest.mark.parametrize("e1, e2", [
        ([(1, 1), (1, 1)], []),           # a repeated node
        ([(1, 1)], [(1, 1)]),             # read and repair of one node
        ([(1, 0)], []),                   # index 0
        ([(1, 6)], []),                   # index n1 + 1
        ([(0, 1)], []),                   # node type 0
        ([(3, 1)], []),                   # node type 3
        ([(1, 1), (1, 2), (1, 4)], []),   # more protected nodes than l = 2
    ])
    def test_guards_never_raise(self, demo_config, demo_layout, e1, e2):
        g = guaranteed_secure_set(demo_config, demo_layout, e1, e2)
        assert not g.guaranteed
        assert g.reason is GuaranteeReason.NOT_GUARANTEED

    @pytest.mark.parametrize("style", ["vandermonde", "systematic"])
    def test_empty_set_guaranteed(self, f11, style):
        config = build_config(f11, 5, 6, 4, style=style)
        layout = make_secure_layout([0] * 8, 2, 0, 4, f11)
        g = guaranteed_secure_set(config, layout, [], [])
        assert g.guaranteed
        assert g.reason is GuaranteeReason.ALL_SAME_TYPE_WITHIN_BUDGET

    def test_vandermonde_all_same_type_pairs(self, f11):
        # exhaustive over both orientations for n1, n2 <= 11 (F_11's points)
        for n1, n2 in [(5, 6), (8, 11)]:
            config = build_config(f11, n1, n2, 4)
            for t in (1, 2):
                layout = make_secure_layout([0] * 8, 2, 0, 4, f11,
                                            protected_type=t)
                for pair in combinations(range(1, config.node_count(t) + 1), 2):
                    g = guaranteed_secure_set(config, layout,
                                              [(t, pair[0]), (t, pair[1])], [])
                    assert g.guaranteed
                    assert g.reason is GuaranteeReason.ALL_SAME_TYPE_WITHIN_BUDGET

    def test_e2_counts_toward_set(self, f11):
        config = build_config(f11, 7, 7, 4)
        layout = make_secure_layout([0] * 8, 1, 1, 4, f11, protected_type=2)
        assert guaranteed_secure_set(config, layout, [(2, 3)], [(2, 5)]).guaranteed
        assert not guaranteed_secure_set(config, layout, [(2, 3)], [(1, 5)]).guaranteed

    def test_unprotected_type_never_guaranteed(self, f11):
        # the random band shields one type only; its transpose shields the other
        config = build_config(f11, 7, 7, 4)
        cols = make_secure_layout([0] * 8, 2, 0, 4, f11, protected_type=1)
        rows = make_secure_layout([0] * 8, 2, 0, 4, f11, protected_type=2)
        assert guaranteed_secure_set(config, cols, [(1, 1), (1, 2)], []).guaranteed
        assert not guaranteed_secure_set(config, cols, [(2, 1), (2, 2)], []).guaranteed
        assert guaranteed_secure_set(config, rows, [(2, 1), (2, 2)], []).guaranteed
        assert not guaranteed_secure_set(config, rows, [(1, 1), (1, 2)], []).guaranteed


def guaranteed_by_submatrix_rank(config, layout, nodes):
    """Reference predicate: the first l rows of the eavesdropped protected-type
    generator columns, eliminated directly, must have full column rank."""
    if len(nodes) != len(set(nodes)) or len(nodes) > layout.budget:
        return False
    if not nodes:
        return True
    if {t for t, _ in nodes} != {layout.protected_type}:
        return False
    code = config.code_for(layout.protected_type)
    columns = [j - 1 for _, j in nodes]
    sub = FieldMatrix(code.generator.array[: layout.budget, columns], config.field)
    return sub.rank() == len(columns)


class TestGuaranteeMatchesSubmatrixRank:
    @pytest.mark.parametrize("style", ["vandermonde", "systematic"])
    def test_random_node_sets(self, f11, style):
        rng = np.random.default_rng(len(style))
        config = build_config(f11, 7, 8, 5, style=style)
        nodes = [(t, j) for t in (1, 2)
                 for j in range(1, config.node_count(t) + 1)]
        checked = guaranteed = 0
        for prot in (1, 2):
            for l1, l2 in [(1, 0), (0, 2), (2, 1), (3, 1)]:
                layout = make_secure_layout([0] * (5 * (5 - l1 - l2)), l1, l2,
                                            5, f11, protected_type=prot)
                for _ in range(60):
                    size = int(rng.integers(0, layout.budget + 2))
                    # half the draws stay within the protected type
                    pool = ([n for n in nodes if n[0] == prot]
                            if rng.random() < 0.5 else nodes)
                    picks = [pool[i] for i in rng.permutation(len(pool))[:size]]
                    cut = int(rng.integers(0, size + 1))
                    got = guaranteed_secure_set(config, layout, picks[:cut],
                                                picks[cut:]).guaranteed
                    assert got == guaranteed_by_submatrix_rank(
                        config, layout, picks), (style, prot, l1, l2, picks)
                    checked += 1
                    guaranteed += got
        assert 0 < guaranteed < checked


class TestGuaranteeSoundness:
    def test_guaranteed_implies_zero_leakage(self):
        # randomized but seeded: mixed styles, fields, orientations, budgets
        rng = np.random.default_rng(21)
        checked = 0
        for field_p in (11, 101):
            field = PrimeField(field_p)
            for k in range(2, 7):
                n1 = min(2 * k - 1, 9)
                n2 = min(2 * k, 9)
                for style in ("vandermonde", "systematic"):
                    config = build_config(field, n1, n2, k, style=style)
                    for l1 in range(k):
                        for l2 in range(k - l1):
                            if l1 + l2 == 0:
                                continue
                            cap = secure_capacity_twin(k, l1, l2)
                            prot = int(rng.integers(1, 3))
                            layout = make_secure_layout(
                                field.uniform(rng, cap), l1, l2, k, field,
                                seed=int(rng.integers(1 << 30)),
                                protected_type=prot)
                            system = encode_system(config, layout.matrix)
                            for _ in range(6):
                                nodes = [(int(t), int(j))
                                         for t in (1, 2)
                                         for j in range(1, config.node_count(t) + 1)]
                                picks = rng.permutation(len(nodes))[: l1 + l2]
                                e1 = [nodes[i] for i in picks[:l1]]
                                e2 = [nodes[i] for i in picks[l1:]]
                                verdict = guaranteed_secure_set(config, layout,
                                                                e1, e2)
                                if not verdict.guaranteed:
                                    continue
                                spec = EavesdropperSpec.of(e1, e2)
                                obs = observe(system, layout, spec,
                                              default_repair_plans(system, spec))
                                assert leakage(obs) == 0, (field_p, k, style,
                                                           prot, e1, e2)
                                checked += 1
        assert checked > 50  # the guard must actually fire, not skip everything

    def test_protected_type_subsets_have_zero_leakage(self, f11):
        # exhaustive pairs per orientation on a Vandermonde system
        rng = np.random.default_rng(23)
        config = build_config(f11, 7, 8, 4)
        for prot in (1, 2):
            layout = make_secure_layout(f11.uniform(rng, 8), 2, 0, 4, f11,
                                        seed=3, protected_type=prot)
            system = encode_system(config, layout.matrix)
            n = config.node_count(prot)
            for pair in combinations(range(1, n + 1), 2):
                spec = EavesdropperSpec.of([(prot, pair[0]), (prot, pair[1])], [])
                obs = observe(system, layout, spec, {})
                assert leakage(obs) == 0

    def test_unprotected_type_leaks(self, f11):
        # a single node of the other type exposes (k - l) payload symbols
        rng = np.random.default_rng(24)
        config = build_config(f11, 7, 8, 4)
        layout = make_secure_layout(f11.uniform(rng, 8), 2, 0, 4, f11, seed=4,
                                    protected_type=1)
        system = encode_system(config, layout.matrix)
        spec = EavesdropperSpec.of([(2, 3)], [])
        obs = observe(system, layout, spec, {})
        assert leakage(obs) == 2  # k - l = 4 - 2


class TestReconstructionStillWorks:
    def test_collector_recovers_payload(self, f101):
        rng = np.random.default_rng(22)
        config = build_config(f101, 7, 8, 4)
        payload = f101.uniform(rng, 8)
        for prot in (1, 2):
            layout = make_secure_layout(payload, 1, 1, 4, f101, seed=5,
                                        protected_type=prot)
            system = encode_system(config, layout.matrix)
            for t in (1, 2):
                rec = reconstruct(system, t, [2, 3, 5, 7])
                assert np.array_equal(recover_payload(layout, rec), payload)

    @pytest.mark.parametrize("payload, k, q, error", [
        ([1, 2, 3], 2, 11, DimensionMismatch),
        (list(range(16)), 4, 101, FieldMismatch),
    ])
    def test_mismatched_message_refused(self, payload, k, q, error):
        # the demo layout is k = 4 over F_11
        msg = build_message_matrix(payload, k, PrimeField(q))
        with pytest.raises(error):
            recover_payload(build_demo_layout(), msg)
