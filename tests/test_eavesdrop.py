import dataclasses
import hashlib
import json
import math
from itertools import combinations

import numpy as np
import pytest

from twinstore import (
    EavesdropperSpec,
    FieldMatrix,
    MdsCode,
    PrimeField,
    TwinConfig,
    brute_force_mi,
    default_repair_plans,
    eavesdrop_report,
    encode_system,
    independent_symbol_count,
    leakage,
    leakage_by_elimination,
    make_secure_layout,
    make_vandermonde,
    observe,
    revealed_symbols,
)
from twinstore.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InstanceTooLarge,
    MissingRepairPlan,
)
from twinstore import eavesdrop, mds
from twinstore.field import _pivot_columns, vstack

from conftest import build_config


@pytest.fixture()
def cross_type_obs(demo_system, demo_layout):
    spec = EavesdropperSpec.of([(1, 1), (2, 2)], [])
    return observe(demo_system, demo_layout, spec, {})


class TestSpec:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            EavesdropperSpec.of([(1, 1)], [(1, 1)])

    def test_budget_property(self):
        spec = EavesdropperSpec.of([(1, 1)], [(2, 2), (2, 3)])
        assert spec.budget == 3

    def test_node_type_validated(self):
        with pytest.raises(ValueError):
            EavesdropperSpec.of([(3, 1)], [])
        with pytest.raises(ValueError):
            EavesdropperSpec.of([], [(0, 2)])


class TestObserve:
    def test_cross_type_row_count_and_values(self, cross_type_obs, demo_layout):
        assert cross_type_obs.matrix.rows == 8
        f = demo_layout.source_vector()
        # node (1,1) stores the first random column; node (2,2) reads row 2
        assert np.array_equal(cross_type_obs.values[:4], f[:4])
        expected_row2 = [f[1], f[5], f[9], f[13]]
        assert np.array_equal(cross_type_obs.values[4:], expected_row2)

    def test_repair_observation_rows(self, demo_system, demo_layout):
        spec = EavesdropperSpec.of([(2, 1)], [(2, 2)])
        obs = observe(demo_system, demo_layout, spec, {(2, 2): (1, 3, 4, 5)})
        assert obs.matrix.rows == 8

    def test_e1_rows_reproduce_stored_symbols(self, demo_system, demo_layout):
        cfg = demo_system.config
        f = demo_layout.source_vector()
        for t in (1, 2):
            for j in range(1, cfg.node_count(t) + 1):
                obs = observe(demo_system, demo_layout,
                              EavesdropperSpec.of([(t, j)], []), {})
                assert np.array_equal(obs.matrix @ f,
                                      demo_system.node(t, j).symbols)

    def test_empty_spec(self, demo_system, demo_layout):
        obs = observe(demo_system, demo_layout, EavesdropperSpec.of(), {})
        assert obs.matrix.rows == 0
        assert leakage(obs) == 0
        assert independent_symbol_count(obs) == 0
        assert revealed_symbols(obs) == set()

    def test_missing_plan(self, demo_system, demo_layout):
        spec = EavesdropperSpec.of([], [(2, 2)])
        with pytest.raises(MissingRepairPlan):
            observe(demo_system, demo_layout, spec, {})

    def test_budget_exceeded(self, demo_system, demo_layout):
        spec = EavesdropperSpec.of([(1, 1), (1, 2), (1, 3), (1, 4)], [])
        with pytest.raises(BudgetExceeded):
            observe(demo_system, demo_layout, spec, {})

    @pytest.mark.parametrize("e1, e2, plans", [
        ([(1, 6)], [], {}),                        # demo n1 = 5
        ([(2, 0)], [], {}),
        ([], [(1, 6)], {(1, 6): (1, 2, 3, 4)}),
        ([], [(1, 2)], {(1, 2): (1, 2, 3)}),       # too few helpers
        ([], [(1, 2)], {(1, 2): (1, 2, 3, 3)}),    # repeated helper
        ([], [(1, 2)], {(1, 2): (1, 2, 3, 7)}),    # helper out of range
    ])
    def test_bad_node_or_plan(self, demo_system, demo_layout, e1, e2, plans):
        with pytest.raises(DimensionMismatch):
            observe(demo_system, demo_layout, EavesdropperSpec.of(e1, e2), plans)

    def test_records_node_structure(self, demo_system, demo_layout):
        spec = EavesdropperSpec.of([(2, 1)], [(1, 3)])
        obs = observe(demo_system, demo_layout, spec, {(1, 3): (2, 3, 4, 5)})
        assert obs.layout is demo_layout
        assert obs.nodes == ((2, 1, None), (1, 3, (2, 3, 4, 5)))
        assert obs.helpers_span


@pytest.fixture()
def row_builds(monkeypatch):
    """Count the row-block builds that assemble an observation matrix."""
    calls = []
    for name in ("_storage_rows", "_repair_rows"):
        raw = getattr(eavesdrop, name)

        def counting(*args, raw=raw, name=name):
            calls.append(name)
            return raw(*args)
        monkeypatch.setattr(eavesdrop, name, counting)
    return calls


# every observation TestObserve builds, plus a Type 1 repair and a mixed
# storage + repair spec
OBSERVE_CASES = [
    ([(1, 1), (2, 2)], [], {}),
    ([(2, 1)], [(2, 2)], {(2, 2): (1, 3, 4, 5)}),
    ([(2, 1)], [(1, 3)], {(1, 3): (2, 3, 4, 5)}),
    ([], [], {}),
    ([], [(1, 1)], {(1, 1): (1, 2, 3, 4)}),
    ([(1, 4)], [(2, 5)], {(2, 5): (2, 3, 4, 5)}),
] + [([(t, j)], [], {}) for t, n in ((1, 5), (2, 6)) for j in range(1, n + 1)]


class TestLazyAssembly:
    def test_matrix_built_only_when_read(self, demo_system, demo_layout,
                                         row_builds):
        spec = EavesdropperSpec.of([(1, 1), (2, 3)], [(2, 2)])
        obs = observe(demo_system, demo_layout, spec, {(2, 2): (1, 3, 4, 5)})
        assert (leakage(obs), independent_symbol_count(obs)) == (4, 10)
        assert row_builds == []
        assert obs.matrix.rows == 12
        assert row_builds == ["_storage_rows", "_storage_rows", "_repair_rows"]
        assert obs.values.shape == (12,)
        assert len(row_builds) == 3  # matrix and values assembled together

    @pytest.mark.parametrize("e1, e2, plans, error", [
        ([(1, 1), (1, 2), (1, 3), (2, 1)], [], {}, BudgetExceeded),
        ([(1, 1)], [(2, 2)], {}, MissingRepairPlan),
        ([(1, 6)], [], {}, DimensionMismatch),
        ([(1, 1)], [(2, 2)], {(2, 2): (1, 2, 3, 3)}, DimensionMismatch),
        ([(2, 1)], [(1, 2)], {(1, 2): (1, 2, 3, 7)}, DimensionMismatch),
    ])
    def test_errors_raised_before_assembly(self, demo_system, demo_layout,
                                           row_builds, e1, e2, plans, error):
        with pytest.raises(error):
            observe(demo_system, demo_layout, EavesdropperSpec.of(e1, e2), plans)
        assert row_builds == []

    def test_layout_mismatch_raised_before_assembly(self, demo_system,
                                                    row_builds):
        other = make_secure_layout([0] * 9, 0, 0, 3, PrimeField(11))
        with pytest.raises(DimensionMismatch):
            observe(demo_system, other, EavesdropperSpec.of([(1, 1)], []), {})
        assert row_builds == []

    def test_matrix_and_values_unchanged(self, demo_system, demo_layout):
        # sha256 over every case's matrix and values: assembling on demand
        # must leave every entry unchanged
        digest = hashlib.sha256()
        for e1, e2, plans in OBSERVE_CASES:
            obs = observe(demo_system, demo_layout,
                          EavesdropperSpec.of(e1, e2), plans)
            assert obs.matrix.array.dtype == obs.values.dtype == np.int64
            for arr in (obs.matrix.array, obs.values):
                digest.update(repr(arr.shape).encode())
                digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "07409cf546d65acdb9cbaf41457a0a546f6fc2ee35cc947755fee58a866e3f8d")


class TestLeakage:
    def test_demo_values(self, demo_system, demo_layout, cross_type_obs):
        assert leakage(cross_type_obs) == 2
        same = observe(demo_system, demo_layout,
                       EavesdropperSpec.of([(1, 2), (1, 3)], []), {})
        assert leakage(same) == 4
        safe = observe(demo_system, demo_layout,
                       EavesdropperSpec.of([(1, 1), (1, 2)], []), {})
        assert leakage(safe) == 0

    def test_rank_decomposition(self, demo_system, demo_layout):
        # leakage must equal rank(M) - rank(M restricted to random columns)
        rng = np.random.default_rng(31)
        nodes = [(t, j) for t in (1, 2)
                 for j in range(1, demo_system.config.node_count(t) + 1)]
        for _ in range(40):
            picks = rng.permutation(len(nodes))[: int(rng.integers(0, 4))]
            spec = EavesdropperSpec.of([nodes[i] for i in picks], [])
            obs = observe(demo_system, demo_layout, spec, {})
            restricted = obs.matrix.take_columns(obs.layout.random_cols)
            assert leakage(obs) == obs.matrix.rank() - restricted.rank()

    def test_monotone_in_nodes(self, demo_system, demo_layout):
        rng = np.random.default_rng(32)
        nodes = [(t, j) for t in (1, 2)
                 for j in range(1, demo_system.config.node_count(t) + 1)]
        for _ in range(30):
            picks = [nodes[i] for i in rng.permutation(len(nodes))[:3]]
            prev = -1
            for size in range(len(picks) + 1):
                spec = EavesdropperSpec.of(picks[:size], [])
                obs = observe(demo_system, demo_layout, spec, {})
                leak = leakage(obs)
                assert leak >= prev
                prev = leak


def _random_spec(rng, config, size):
    nodes = [(t, j) for t in (1, 2)
             for j in range(1, config.node_count(t) + 1)]
    picks = [nodes[i] for i in rng.permutation(len(nodes))[:size]]
    cut = int(rng.integers(0, size + 1))
    spec = EavesdropperSpec.of(picks[:cut], picks[cut:])
    plans = {}
    for t, j in spec.e2:
        helpers = rng.permutation(config.node_count(3 - t))[: config.k] + 1
        plans[(t, j)] = tuple(int(h) for h in helpers)
    return spec, plans


def revealed_by_row_space(obs):
    """Reference revealed set: e_i lies in the row space of M iff appending
    it as a row leaves rank(M) unchanged, one coordinate at a time."""
    n = obs.config.k ** 2
    rank = obs.matrix.rank()
    units = np.eye(n, dtype=np.int64)
    return {obs.layout.label(i) for i in range(n)
            if vstack([obs.matrix, FieldMatrix(units[i:i + 1], obs.matrix.field)]
                      ).rank() == rank}


class TestClosedFormLeakage:
    """The closed forms (k-v)(u-u') + v(k-l) for leakage and k(u+v) - uv
    for rank(M) against elimination of the observation matrix."""

    @pytest.mark.parametrize("q", [11, 101])
    @pytest.mark.parametrize("style", ["vandermonde", "systematic"])
    def test_matches_elimination(self, q, style):
        field = PrimeField(q)
        rng = np.random.default_rng(q + len(style))
        checked = 0
        for k in range(2, 7):
            n1, n2 = (int(x) for x in rng.integers(k, 2 * k, size=2))
            config = build_config(field, n1, n2, k, style=style)
            for l1 in range(k):
                for l2 in range(k - l1):  # includes l1 = l2 = 0
                    for prot in (1, 2):
                        layout = make_secure_layout(
                            field.uniform(rng, k * (k - l1 - l2)), l1, l2, k,
                            field, seed=int(rng.integers(1 << 30)),
                            protected_type=prot)
                        system = encode_system(config, layout.matrix)
                        for _ in range(8):
                            # any size below k, so often above the budget
                            size = int(rng.integers(0, k))
                            spec, plans = _random_spec(rng, config, size)
                            obs = observe(system, layout, spec, plans)
                            assert obs.helpers_span  # closed form path taken
                            assert leakage(obs) == leakage_by_elimination(obs), (
                                k, l1, l2, prot, spec, plans)
                            assert (independent_symbol_count(obs)
                                    == obs.matrix.rank()), (
                                k, l1, l2, prot, spec, plans)
                            assert (revealed_symbols(obs)
                                    == revealed_by_row_space(obs)), (
                                k, l1, l2, prot, spec, plans)
                            checked += 1
        assert checked == 8 * 2 * sum(k * (k + 1) // 2 for k in range(2, 7))

    def test_non_mds_helpers_fall_back_to_elimination(self):
        # type 1 code over F_11 with column 3 equal to column 2: helpers
        # (1, 2, 3) of the repaired Type 2 node span only a plane
        f11 = PrimeField(11)
        good = make_vandermonde(5, 3, f11)
        gen = good.generator.array.copy()
        gen[:, 2] = gen[:, 1]
        bad = MdsCode(n=5, k=3, field=f11, generator=FieldMatrix(gen, f11),
                      style="explicit")
        config = TwinConfig.from_codes(bad, make_vandermonde(5, 3, f11))
        layout = make_secure_layout(list(range(6)), 0, 1, 3, f11, seed=4)
        system = encode_system(config, layout.matrix)
        spec = EavesdropperSpec.of([], [(2, 1)])
        obs = observe(system, layout, spec, {(2, 1): (1, 2, 3)})
        assert not obs.helpers_span
        assert leakage(obs) == leakage_by_elimination(obs) == 1
        assert independent_symbol_count(obs) == obs.matrix.rank() == 2
        # the revealed set needs no guard: one RREF is exact for any M
        assert revealed_symbols(obs) == revealed_by_row_space(obs) == {"r1"}
        # the unguarded closed forms would report 2 and 3
        unguarded = dataclasses.replace(obs, helpers_span=True)
        assert leakage(unguarded) == 2
        assert independent_symbol_count(unguarded) == 3

    def test_observation_without_structure_uses_elimination(self, cross_type_obs):
        # without the helper-span flag the closed forms do not apply
        bare = dataclasses.replace(cross_type_obs, helpers_span=False)
        assert leakage(bare) == leakage(cross_type_obs) == 2
        assert (independent_symbol_count(bare)
                == independent_symbol_count(cross_type_obs) == 7)
        assert (revealed_symbols(bare) == revealed_by_row_space(bare)
                == revealed_symbols(cross_type_obs))

    def test_rank_and_leakage_share_one_column_rank_pass(self, monkeypatch):
        # a fresh config, so the codes' pivot memos start empty
        config = build_config(PrimeField(11), 5, 5, 4)
        layout = make_secure_layout(list(range(8)), 1, 1, 4, PrimeField(11),
                                    seed=7)
        system = encode_system(config, layout.matrix)
        shapes = []

        def counting(arr, p):
            shapes.append(arr.shape)
            return _pivot_columns(arr, p)

        monkeypatch.setattr(mds, "_pivot_columns", counting)
        monkeypatch.setattr(eavesdrop, "_pivot_columns", counting)
        spec = EavesdropperSpec.of([(1, 1), (2, 3)], [(2, 2)])
        obs = observe(system, layout, spec, {(2, 2): (1, 3, 4, 5)})
        # at observe time: the helper set, then one pass over the
        # protected-type and one over the other-type columns
        k = obs.config.k
        assert shapes == [(k, k), (1, k), (2, k)]
        assert (leakage(obs), independent_symbol_count(obs)) == (4, 10)
        assert independent_symbol_count(obs) == 10
        # the same position sets again: answered from the memo
        observe(system, layout, spec, {(2, 2): (5, 4, 3, 1)})
        assert len(shapes) == 3
        assert (leakage_by_elimination(obs), obs.matrix.rank()) == (4, 10)


class TestIndependentSymbolCount:
    def test_demo_counts(self, demo_system, demo_layout, cross_type_obs):
        assert independent_symbol_count(cross_type_obs) == 7
        same = observe(demo_system, demo_layout,
                       EavesdropperSpec.of([(1, 2), (1, 3)], []), {})
        assert independent_symbol_count(same) == 8
        mixed = observe(demo_system, demo_layout,
                        EavesdropperSpec.of([(2, 1)], [(2, 2)]),
                        {(2, 2): (1, 3, 4, 5)})
        assert independent_symbol_count(mixed) == 8

    def test_bounded_by_k_times_nodes(self):
        rng = np.random.default_rng(33)
        f11 = PrimeField(11)
        config = build_config(f11, 7, 8, 4)
        layout = make_secure_layout(f11.uniform(rng, 8), 1, 1, 4, f11, seed=2)
        system = encode_system(config, layout.matrix)
        nodes = [(t, j) for t in (1, 2)
                 for j in range(1, config.node_count(t) + 1)]
        for _ in range(40):
            n_e1 = int(rng.integers(0, 3))
            n_e2 = int(rng.integers(0, 3 - n_e1 + 1))
            picks = rng.permutation(len(nodes))[: n_e1 + n_e2]
            spec = EavesdropperSpec.of([nodes[i] for i in picks[:n_e1]],
                                       [nodes[i] for i in picks[n_e1:]])
            obs = observe(system, layout, spec,
                          default_repair_plans(system, spec))
            assert independent_symbol_count(obs) <= 4 * spec.budget

    def test_equality_for_same_type_vandermonde(self, f11):
        config = build_config(f11, 7, 8, 4)
        layout = make_secure_layout([0] * 8, 2, 0, 4, f11)
        system = encode_system(config, layout.matrix)
        for t in (1, 2):
            for pair in combinations(range(1, config.node_count(t) + 1), 2):
                spec = EavesdropperSpec.of([(t, pair[0]), (t, pair[1])], [])
                obs = observe(system, layout, spec, {})
                assert independent_symbol_count(obs) == 8


class TestRevealedSymbols:
    def test_zero_row_observation_reveals_nothing(self, demo_system,
                                                  demo_layout):
        empty = observe(demo_system, demo_layout, EavesdropperSpec.of(), {})
        assert empty.matrix.rows == 0
        assert revealed_symbols(empty) == revealed_by_row_space(empty) == set()

    def test_protected_type_2_labels_follow_transposed_band(self, demo_config):
        # random rows 1-2 of the message matrix: coordinates j with j % 4 < 2
        f11 = PrimeField(11)
        layout = make_secure_layout(list(range(8)), 2, 0, 4, f11, seed=7,
                                    protected_type=2)
        system = encode_system(demo_config, layout.matrix)
        spec = EavesdropperSpec.of([(2, 1)], [(2, 2)])
        obs = observe(system, layout, spec, {(2, 2): (1, 3, 4, 5)})
        rows_1_2 = {"r1", "r5", "r9", "r13", "r2", "r6", "r10", "r14"}
        assert revealed_symbols(obs) == revealed_by_row_space(obs) == rows_1_2
        # Type 1 node 1 stores message column 1: two random, two payload
        col = observe(system, layout, EavesdropperSpec.of([(1, 1)], []), {})
        assert revealed_symbols(col) == revealed_by_row_space(col) == {
            "r1", "r2", "a3", "a4"}
        assert [layout.label(i) for i in range(4)] == ["r1", "r2", "a3", "a4"]

    def test_cross_type_set(self, cross_type_obs):
        assert revealed_symbols(cross_type_obs) == {
            "r1", "r2", "r3", "r4", "r6", "a10", "a14"}

    def test_full_type_observation_reveals_everything(self, demo_system,
                                                      demo_layout):
        spec = EavesdropperSpec.of([(2, 1), (2, 2), (2, 3)], [])
        obs = observe(demo_system, demo_layout, spec, {})
        # three of four rows of the message matrix: 12 coordinates
        assert len(revealed_symbols(obs)) == 12

    def test_repair_eavesdrop_revealed_set(self, demo_system, demo_layout):
        # storage of node (2,1) reveals row 1, the observed repair of (2,2)
        # reveals row 2: coordinates {r1,r5,a9,a13} and {r2,r6,a10,a14}
        spec = EavesdropperSpec.of([(2, 1)], [(2, 2)])
        obs = observe(demo_system, demo_layout, spec, {(2, 2): (1, 3, 4, 5)})
        assert revealed_symbols(obs) == {
            "r1", "r5", "a9", "a13", "r2", "r6", "a10", "a14"}


class TestE2Equivalence:
    def test_repair_rows_span_node_rows(self, demo_system, demo_layout):
        # the k downloaded repair symbols are an invertible transform of the
        # repaired node's stored symbols
        for t, j, helpers in [(2, 2, (1, 3, 4, 5)), (1, 1, (1, 2, 3, 4)),
                              (2, 5, (2, 3, 4, 5))]:
            store = observe(demo_system, demo_layout,
                            EavesdropperSpec.of([(t, j)], []), {})
            watch = observe(demo_system, demo_layout,
                            EavesdropperSpec.of([], [(t, j)]),
                            {(t, j): helpers})
            stacked = vstack([store.matrix, watch.matrix])
            assert store.matrix.rank() == watch.matrix.rank() == stacked.rank()


class TestBruteForceMi:
    def test_guaranteed_secure_spec_is_zero_bits(self):
        f3 = PrimeField(3)
        config = build_config(f3, 3, 3, 2)
        layout = make_secure_layout([1, 2], 1, 0, 2, f3, seed=5)
        system = encode_system(config, layout.matrix)
        obs = observe(system, layout, EavesdropperSpec.of([(1, 2)], []), {})
        assert brute_force_mi(obs) == pytest.approx(0.0, abs=1e-9)

    def test_pure_payload_node(self):
        f3 = PrimeField(3)
        config = build_config(f3, 3, 3, 2, style="systematic")
        layout = make_secure_layout([1, 2], 1, 0, 2, f3, seed=5)
        system = encode_system(config, layout.matrix)
        obs = observe(system, layout, EavesdropperSpec.of([(1, 2)], []), {})
        assert brute_force_mi(obs) == pytest.approx(2 * math.log2(3), abs=1e-9)

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_rank_oracle_everywhere(self, q):
        field = PrimeField(q)
        config = build_config(field, 2, 2, 2)
        nodes = [(1, 1), (1, 2), (2, 1), (2, 2)]
        for l1, l2 in [(0, 0), (1, 0), (0, 1)]:
            cap = 2 * (2 - l1 - l2)
            layout = make_secure_layout(list(range(cap)), l1, l2, 2, field,
                                        seed=9)
            system = encode_system(config, layout.matrix)
            for e1 in combinations(nodes, l1):
                rest = [x for x in nodes if x not in e1]
                for e2 in combinations(rest, l2):
                    spec = EavesdropperSpec.of(e1, e2)
                    obs = observe(system, layout, spec,
                                  default_repair_plans(system, spec))
                    assert brute_force_mi(obs) == pytest.approx(
                        leakage(obs) * math.log2(q), abs=1e-9)

    def test_instance_too_large(self, demo_system, demo_layout):
        obs = observe(demo_system, demo_layout,
                      EavesdropperSpec.of([(1, 1)], []), {})
        with pytest.raises(InstanceTooLarge):
            brute_force_mi(obs)  # 11^16 states


class TestReport:
    def test_json_shape(self, demo_system, demo_layout):
        spec = EavesdropperSpec.of([(1, 1), (2, 2)], [])
        report = eavesdrop_report(demo_system, demo_layout, spec, {})
        parsed = json.loads(json.dumps(report))
        assert parsed["rank"] == 7
        assert parsed["leakage"] == 2
        assert parsed["revealed"] == ["a10", "a14", "r1", "r2", "r3", "r4", "r6"]
        assert parsed["spec"] == {"e1": [[1, 1], [2, 2]], "e2": []}
        assert parsed["guaranteed"] is False
