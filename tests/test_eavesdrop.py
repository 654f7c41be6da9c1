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
    default_helpers,
    default_repair_plans,
    eavesdrop_report,
    encode_system,
    helper_share,
    independent_symbol_count,
    leakage,
    leakage_by_elimination,
    make_secure_layout,
    make_vandermonde,
    observe,
    repair,
    revealed_symbols,
)
from twinstore.errors import (
    BudgetExceeded,
    DimensionMismatch,
    FieldMismatch,
    InstanceTooLarge,
    MissingRepairPlan,
    SingularSubmatrix,
)
from twinstore import eavesdrop, field, loader, mds
from twinstore.demo import build_demo_config, build_demo_layout
from twinstore.field import vstack
from twinstore.secure import node_set_verdict
from twinstore.sim import sweep_eavesdroppers

from shared_configs import build_config


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

    # every way of building a spec: the factory, the plain constructor and
    # dataclasses.replace of a valid spec
    BUILDERS = [
        EavesdropperSpec.of,
        EavesdropperSpec,
        lambda e1, e2: dataclasses.replace(EavesdropperSpec.of([(1, 1)]),
                                           e1=e1, e2=e2),
    ]

    @pytest.mark.parametrize("e1, e2, message", [
        (((1, 1),), ((1, 1),), "disjoint"),
        (((1, 2), (1, 2)), (), "duplicate"),
        ((), ((2, 3), (2, 3)), "duplicate"),
        (((3, 1),), (), "node type"),
        ([(1, 1)], [(0, 2)], "node type"),
    ])
    def test_every_construction_checks(self, e1, e2, message):
        for build in self.BUILDERS:
            with pytest.raises(ValueError, match=message):
                build(e1=e1, e2=e2)

    def test_every_construction_normalizes(self):
        e1, e2 = [[np.int64(1), 2], (1, 1)], [(2, 4), [2, np.int32(3)]]
        specs = [build(e1=e1, e2=e2) for build in self.BUILDERS]
        for spec in specs:
            assert spec == specs[0]
            assert spec.e1 == ((1, 1), (1, 2)) and spec.e2 == ((2, 3), (2, 4))
            assert all(type(x) is int for node in spec.e1 + spec.e2
                       for x in node)
            assert loader.spec_doc(spec) == {"e1": [[1, 1], [1, 2]],
                                             "e2": [[2, 3], [2, 4]]}


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

    def test_equality_is_identity_and_hash_works(self, cross_type_obs,
                                                 demo_system):
        again = observe(demo_system, build_demo_layout(seed=7),
                        EavesdropperSpec.of([(1, 1), (2, 2)], []), {})
        assert cross_type_obs == cross_type_obs != again
        assert {cross_type_obs: 1}[cross_type_obs] == 1

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


@pytest.fixture()
def row_builds(monkeypatch):
    """Record the node type of each row-block build of an observation matrix."""
    calls = []
    raw = eavesdrop._functional_rows

    def counting(node_type, *args):
        calls.append(node_type)
        return raw(node_type, *args)
    monkeypatch.setattr(eavesdrop, "_functional_rows", counting)
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
        # storage of (1, 1) and (2, 3), then the repair of (2, 2)
        assert row_builds == [1, 2, 2]
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

    def test_layout_over_other_field_raised_before_assembly(self, demo_system,
                                                            row_builds):
        other = make_secure_layout([0] * 16, 0, 0, 4, PrimeField(13))
        with pytest.raises(FieldMismatch):
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


def batched_ranks(stack, p):
    """Rank over F_p of each matrix in a (b, rows, cols) stack: one
    Gaussian elimination run on all b at once, each matrix with its own
    pivot row.  Rows are cleared by cross multiplication (row * lead -
    factor * pivot row), which keeps every rank and needs no inverse."""
    m = np.asarray(stack, dtype=np.int64) % p
    rank = np.zeros(m.shape[0], dtype=np.int64)
    row_ids = np.arange(m.shape[1])
    for c in range(m.shape[2]):
        candidates = (m[:, :, c] != 0) & (row_ids >= rank[:, None])
        sel = np.nonzero(candidates.any(axis=1))[0]
        if sel.size == 0:
            continue
        r = rank[sel]
        found = candidates[sel].argmax(axis=1)  # first nonzero at or below r
        pivot = m[sel, found]
        m[sel, found] = m[sel, r]
        m[sel, r] = pivot
        factors = m[sel, :, c] * (row_ids > r[:, None])
        m[sel] = (m[sel] * pivot[:, c, None, None]
                  - factors[:, :, None] * pivot[:, None, :]) % p
        rank[sel] += 1
    return rank


def revealed_by_row_space(obs):
    """Reference revealed set: e_i lies in the row space of M iff appending
    it as a row leaves rank(M) unchanged.  [M; 0] and every [M; e_i] are
    ranked together in one `batched_ranks` elimination."""
    n = obs.config.k ** 2
    stack = np.zeros((n + 1, obs.matrix.rows + 1, n), dtype=np.int64)
    stack[:, :-1] = obs.matrix.array
    stack[1:, -1] = np.eye(n, dtype=np.int64)
    ranks = batched_ranks(stack, obs.matrix.field.p)
    return {obs.layout.label(i) for i in range(n) if ranks[i + 1] == ranks[0]}


class TestBatchedRanks:
    @pytest.mark.parametrize("p", [11, 101, 2**31 - 1])
    def test_match_field_rank(self, p):
        # products of random (rows x inner) and (inner x cols) factors, some
        # rows zeroed, so ranks below full are common
        rng = np.random.default_rng(p % 1000)
        field = PrimeField(p)
        for _ in range(40):
            b, rows, cols = (int(x) for x in rng.integers(1, 9, size=3))
            inner = int(rng.integers(1, 9))
            stack = np.stack([
                (FieldMatrix(field.uniform(rng, (rows, inner)), field)
                 @ FieldMatrix(field.uniform(rng, (inner, cols)), field)).array
                for _ in range(b)])
            stack[rng.random((b, rows)) < 0.2] = 0
            assert batched_ranks(stack, p).tolist() == [
                FieldMatrix(s, field).rank() for s in stack], (b, rows, cols, inner)


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

    def test_non_mds_helpers_are_refused_like_repair(self):
        # type 1 code over F_11 with column 3 equal to column 2: helpers
        # (1, 2, 3) of a Type 2 node span only a plane, so repair cannot
        # decode from them and observe refuses the repair as well
        f11 = PrimeField(11)
        good = make_vandermonde(5, 3, f11)
        gen = good.generator.array.copy()
        gen[:, 2] = gen[:, 1]
        bad = MdsCode(generator=FieldMatrix(gen, f11), style="explicit")
        config = TwinConfig(bad, make_vandermonde(5, 3, f11))
        layout = make_secure_layout(list(range(6)), 0, 1, 3, f11, seed=4)
        system = encode_system(config, layout.matrix)
        with pytest.raises(SingularSubmatrix):
            observe(system, layout, EavesdropperSpec.of([], [(2, 1)]),
                    {(2, 1): (1, 2, 3)})
        with pytest.raises(SingularSubmatrix):
            repair(system, 2, 1, (1, 2, 3))
        # on the same code, spanning helpers and storage reads of the
        # dependent columns keep both closed forms exact
        for e1, e2, plans in [([], [(2, 1)], {(2, 1): (1, 2, 4)}),
                              ([(1, 2), (1, 3)], [], {}),
                              ([(1, 3)], [(2, 1)], {(2, 1): (1, 4, 5)})]:
            obs = observe(system, layout, EavesdropperSpec.of(e1, e2), plans)
            assert leakage(obs) == leakage_by_elimination(obs), (e1, e2)
            assert independent_symbol_count(obs) == obs.matrix.rank(), (e1, e2)
            assert (revealed_symbols(obs)
                    == revealed_by_row_space(obs)), (e1, e2)

    def test_random_non_mds_codes(self):
        # observe accepts exactly the plans repair can decode from, and on
        # everything it accepts the closed forms equal the eliminations
        rng = np.random.default_rng(1500)
        accepted_repairs = refused = 0
        for _ in range(1500):
            field = PrimeField(int(rng.choice([3, 5, 11])))
            k = int(rng.integers(2, 5))
            codes = []
            for n in rng.integers(k, k + 4, size=2):
                gen = field.uniform(rng, (k, int(n)))
                a, b = rng.permutation(int(n))[:2]
                gen[:, b] = gen[:, a] * rng.integers(1, field.p) % field.p
                codes.append(MdsCode(generator=FieldMatrix(gen, field),
                                     style="explicit"))
            config = TwinConfig(*codes)
            l1 = int(rng.integers(0, k))
            l2 = int(rng.integers(0, k - l1))
            layout = make_secure_layout(
                field.uniform(rng, k * (k - l1 - l2)), l1, l2, k, field,
                seed=int(rng.integers(1 << 30)),
                protected_type=int(rng.integers(1, 3)))
            system = encode_system(config, layout.matrix)
            spec, plans = _random_spec(rng, config, int(rng.integers(1, k)))
            repair_refuses = False
            for (t, j), helpers in plans.items():
                try:
                    repair(system, t, j, helpers)
                except SingularSubmatrix:
                    repair_refuses = True
            try:
                obs = observe(system, layout, spec, plans)
            except SingularSubmatrix:
                assert repair_refuses, (spec, plans)
                refused += 1
                continue
            assert not repair_refuses, (spec, plans)
            assert leakage(obs) == leakage_by_elimination(obs), (spec, plans)
            assert independent_symbol_count(obs) == obs.matrix.rank(), (
                spec, plans)
            accepted_repairs += bool(plans)
        assert accepted_repairs > 200 and refused > 500, (
            accepted_repairs, refused)

    def test_rank_and_leakage_share_one_column_rank_pass(self, monkeypatch):
        # a fresh explicit config, so the codes' row-space memos start
        # empty and their ranks come from elimination
        config = build_config(PrimeField(11), 5, 5, 4, style="explicit")
        layout = make_secure_layout(list(range(8)), 1, 1, 4, PrimeField(11),
                                    seed=7)
        system = encode_system(config, layout.matrix)
        shapes = []
        raw_reduce = mds._row_reduce

        def counting(arr, *args, **kwargs):
            shapes.append(arr.shape)
            return raw_reduce(arr, *args, **kwargs)

        monkeypatch.setattr(mds, "_row_reduce", counting)
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

    @pytest.mark.parametrize("e1, e2, plans", [
        ([], [], {}),
        ([(1, 2)], [], {}),
        ([(1, 1), (2, 3)], [(2, 2)], {(2, 2): (1, 3, 4, 5)}),
        ([], [(1, 1), (2, 4)], {(1, 1): (1, 2, 3, 4), (2, 4): (2, 3, 4, 5)}),
    ])
    def test_report_eliminates_each_column_set_once(self, monkeypatch, e1,
                                                     e2, plans):
        # on fresh explicit codes a report eliminates once per non-empty
        # observed node type and once per observed repair's helper set;
        # the revealed set and a repeated report read the codes' row spaces
        config = build_config(PrimeField(11), 5, 5, 4, style="explicit")
        layout = make_secure_layout(list(range(8)), 1, 1, 4, PrimeField(11),
                                    seed=7)
        system = encode_system(config, layout.matrix)
        eliminations = []
        for module in (field, mds):
            def counting(arr, *args, raw=module._row_reduce, **kwargs):
                eliminations.append(arr.shape)
                return raw(arr, *args, **kwargs)
            monkeypatch.setattr(module, "_row_reduce", counting)
        spec = EavesdropperSpec.of(e1, e2)
        expected = len({t for t, _ in e1 + e2}) + len(plans)
        obs = observe(system, layout, spec, plans)
        assert len(eliminations) == expected
        revealed = revealed_symbols(obs)
        assert len(eliminations) == expected
        report = eavesdrop_report(system, layout, spec, plans)
        assert eavesdrop_report(system, layout, spec, plans) == report
        assert len(eliminations) == expected
        assert report["revealed"] == sorted(
            revealed, key=lambda s: (s[0], int(s[1:])))

    @pytest.mark.parametrize("style", ["vandermonde", "systematic"])
    def test_built_in_verdicts_eliminate_nothing(self, monkeypatch, style):
        # built-in codes answer the verdict and observe's span check from
        # counts: no elimination and no row-space entry, in a report's
        # observation or in a full sweep; only the revealed set eliminates
        config = build_config(PrimeField(11), 5, 5, 4, style=style)
        layout = make_secure_layout(list(range(8)), 1, 1, 4, PrimeField(11),
                                    seed=7)
        system = encode_system(config, layout.matrix)
        eliminations = []
        for module in (field, mds):
            def counting(arr, *args, raw=module._row_reduce, **kwargs):
                eliminations.append(arr.shape)
                return raw(arr, *args, **kwargs)
            monkeypatch.setattr(module, "_row_reduce", counting)
        codes = (config.code1, config.code2)
        spec = EavesdropperSpec.of([(1, 1)], [(2, 2), (1, 4)])
        obs = observe(system, layout, spec, default_repair_plans(system, spec))
        assert node_set_verdict(config, layout, [(1, 2), (2, 2), (2, 5)])
        assert eliminations == []
        assert all(code._row_space_memo == {} for code in codes)
        sweep = sweep_eavesdroppers(config, layout, max_budget=3)
        assert sweep.exhaustive and len(sweep.rows) > 1000
        assert any(row["e2"] for row in sweep.rows)
        assert eliminations == []
        assert all(code._row_space_memo == {} for code in codes)
        revealed_symbols(obs)
        assert len(eliminations) == 2


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

    @pytest.mark.parametrize("q", [3, 5])
    def test_closed_form_matches_row_space(self, q):
        # random explicit codes, MDS or not, with protected type 2 and
        # observed repairs through random helpers: the unit vectors of the
        # two column spaces decide exactly the coordinates in row(M)
        field = PrimeField(q)
        rng = np.random.default_rng(q)
        checked = with_repairs = revealing = 0
        for _ in range(400):
            k = int(rng.integers(2, 5))
            codes = [MdsCode(generator=FieldMatrix(field.uniform(rng, (k, int(n))),
                                                   field),
                             style="explicit")
                     for n in rng.integers(k, k + 4, size=2)]
            config = TwinConfig(*codes)
            l1 = int(rng.integers(0, k))
            layout = make_secure_layout(
                field.uniform(rng, k * (k - l1)), l1, 0, k, field,
                seed=int(rng.integers(1 << 30)), protected_type=2)
            system = encode_system(config, layout.matrix)
            spec, plans = _random_spec(rng, config, int(rng.integers(1, k)))
            try:
                obs = observe(system, layout, spec, plans)
            except SingularSubmatrix:
                continue
            revealed = revealed_symbols(obs)
            assert revealed == revealed_by_row_space(obs), (spec, plans)
            checked += 1
            with_repairs += bool(plans)
            revealing += bool(revealed)
        assert checked > 250 and with_repairs > 100 and revealing > 50, (
            checked, with_repairs, revealing)


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

    @pytest.mark.parametrize("p", [11, 2**31 - 1])
    def test_observed_values_equal_shipped_shares(self, p):
        # what observe records of a repair is what repair() ships: one
        # helper_share per helper, for the default and random helper sets
        rng = np.random.default_rng(p)
        if p == 11:
            config, layout = build_demo_config(), build_demo_layout(seed=7)
        else:
            field = PrimeField(p)
            config = build_config(field, 7, 8, 5)
            layout = make_secure_layout(field.uniform(rng, 15), 1, 1, 5, field,
                                        seed=3)
        k = config.k
        system = encode_system(config, layout.matrix)
        for t in (1, 2):
            helper_type = 3 - t
            n_helpers = config.node_count(helper_type)
            helper_sets = [default_helpers(system, t)] + [
                tuple(int(h) for h in rng.permutation(n_helpers)[:k] + 1)
                for _ in range(3)]
            for j in range(1, config.node_count(t) + 1):
                target = config.encoding_vector(t, j)
                for helpers in helper_sets:
                    obs = observe(system, layout,
                                  EavesdropperSpec.of([], [(t, j)]),
                                  {(t, j): helpers})
                    shipped = [helper_share(system.node(helper_type, h), target)
                               for h in helpers]
                    assert obs.values.tolist() == shipped, (t, j, helpers)


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
