"""Acceptance suite: one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Golden values follow the bundled worked example: a (5,4)+(6,4)
system over F_11 with an eight-symbol payload shielded by two random
columns.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import twinstore as ts
from twinstore.demo import (
    DEMO_G1,
    DEMO_G2,
    DEMO_NODE_TABLE,
    functional_from_labels,
)
from twinstore.eavesdrop import _functional_rows
from twinstore.errors import NotMds

from shared_configs import build_config


class Timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"exceeded budget: {self.elapsed:.2f}s >= {self.budget}s")

    def report(self, name, detail=""):
        print(f"PASS {name} ({self.elapsed:.3f}s < {self.budget}s) {detail}")


def test_c01_golden_encode(demo_config, demo_layout, demo_system):
    with Timer(1.0) as t:
        p = demo_config.field.p
        f = demo_layout.source_vector()
        # the two spot checks, written out by hand
        r, a = f[:8], f[8:]
        t1n5 = demo_system.node(1, 5).symbols
        assert np.array_equal(
            t1n5, [(r[i] + r[4 + i] + a[i] + a[4 + i]) % p for i in range(4)])
        t2n5 = demo_system.node(2, 5).symbols
        col = lambda c: f[4 * c: 4 * c + 4]
        assert np.array_equal(
            t2n5,
            [(1 * col(c)[0] + 4 * col(c)[1] + 3 * col(c)[2] + 2 * col(c)[3]) % p
             for c in range(4)])
        # full table: symbolic functionals and numeric contents per node
        for (node_type, j), expected in sorted(DEMO_NODE_TABLE.items()):
            g = demo_config.encoding_vector(node_type, j).coefficients
            rows = _functional_rows(node_type, g, np.eye(4, dtype=np.int64), p)
            want = np.stack([functional_from_labels(sym) for sym in expected]) % p
            assert np.array_equal(rows, want), (node_type, j)
            assert np.array_equal(demo_system.node(node_type, j).symbols,
                                  (want @ f) % p)
    t.report("criterion 1: golden encode", "all 11 node columns match the table")


def test_c02_storage_eavesdrop_reproduction(demo_system, demo_layout):
    with Timer(1.0) as t:
        cross = ts.EavesdropperSpec.of([(1, 1), (2, 2)], [])
        obs = ts.observe(demo_system, demo_layout, cross, {})
        assert ts.independent_symbol_count(obs) == 7
        assert ts.revealed_symbols(obs) == {"r1", "r2", "r3", "r4", "r6",
                                            "a10", "a14"}
        same = ts.EavesdropperSpec.of([(1, 2), (1, 3)], [])
        obs2 = ts.observe(demo_system, demo_layout, same, {})
        assert ts.independent_symbol_count(obs2) == 8
    t.report("criterion 2: storage eavesdrop", "ranks 7 and 8, revealed set exact")


def test_c03_repair_eavesdrop_reproduction(demo_system, demo_layout):
    with Timer(1.0) as t:
        spec = ts.EavesdropperSpec.of([(2, 1)], [(2, 2)])
        obs = ts.observe(demo_system, demo_layout, spec, {(2, 2): (1, 3, 4, 5)})
        count = ts.independent_symbol_count(obs)
        assert count == 8 == 4 * (1 + 1)  # k * (l1 + l2)
        leak = ts.leakage(obs)
        assert leak == 4
        assert leak < 8  # nonzero residual secrecy
    t.report("criterion 3: repair eavesdrop", "rank 8 = k(l1+l2), leakage 4 < 8")


def test_c04_universality(demo_config, demo_layout, demo_system):
    with Timer(5.0) as t:
        n_rec = 0
        for node_type in (1, 2):
            n = demo_config.node_count(node_type)
            for subset in combinations(range(1, n + 1), 4):
                rec = ts.reconstruct(demo_system, node_type, list(subset))
                assert rec.a1 == demo_layout.matrix.a1
                n_rec += 1
        assert n_rec == 5 + 15  # C(5,4) + C(6,4)
        n_rep = 0
        for node_type in (1, 2):
            helper_n = demo_config.node_count(3 - node_type)
            for j in range(1, demo_config.node_count(node_type) + 1):
                broken = ts.fail_node(demo_system, node_type, j)
                for helpers in combinations(range(1, helper_n + 1), 4):
                    _, content = ts.repair(broken, node_type, j, list(helpers))
                    assert content == demo_system.node(node_type, j)
                    n_rep += 1
        assert n_rep == 5 * 15 + 6 * 5
    t.report("criterion 4: universality", f"{n_rec} reconstructions, "
             f"{n_rep} repairs, all exact")


def test_c05_file_size_series():
    with Timer(1.0) as t:
        rows = ts.comparison_series("fig5", k_max=50)
        assert len(rows) == 48
        for row in rows:
            k = row.k
            assert row.s_twin == k * k == row.s_msr
            assert row.s_mbr == Fraction(k * (k + 1), 2)
            assert row.s_twin >= row.s_mbr
        last = rows[-1]
        assert (last.s_twin, last.s_mbr) == (2500, 1275)
    t.report("criterion 5: plain file-size series", "k=50 gives 2500 vs 1275")


def test_c06_secure_vs_mbr_series():
    with Timer(1.0) as t:
        rows = ts.comparison_series("fig8", k=50)
        assert len(rows) == 49
        for row in rows:
            l = row.l1
            assert row.s_twin == 50 * (50 - l)
            assert row.s_mbr == Fraction((50 - l) * (51 - l), 2)
            assert row.s_twin >= row.s_mbr
        assert (rows[0].s_twin, rows[0].s_mbr) == (2450, 1225)
    t.report("criterion 6: secure-vs-MBR series", "l=1 gives 2450 vs 1225")


def test_c07_secure_vs_msr_series():
    with Timer(1.0) as t:
        rows = ts.comparison_series("fig9", k=50, l1=2)
        assert len(rows) == 47
        for row in rows:
            assert isinstance(row.s_msr, Fraction)
            assert row.s_twin == 50 * (48 - row.l2)
            assert row.s_msr == 50 * (48 - row.l2) * Fraction(49, 50) ** row.l2
            assert row.s_twin > row.s_msr
        assert rows[0].s_twin == 2350
        assert rows[0].s_msr == Fraction(2303)  # exact 47 * 49
    t.report("criterion 7: secure-vs-MSR series", "l2=1 gives 2350 vs 2303 exact")


def test_c08_leakage_oracle_validation():
    with Timer(30.0) as t:
        checked = 0
        for q in (2, 3):
            field = ts.PrimeField(q)
            n = min(3, q)  # F_2 supports only 2 distinct evaluation points
            config = build_config(field, n, n, 2)
            nodes = [(t, j) for t in (1, 2) for j in range(1, n + 1)]
            for l1, l2 in [(0, 0), (1, 0), (0, 1)]:
                cap = 2 * (2 - l1 - l2)
                for prot in (1, 2):
                    layout = ts.make_secure_layout(
                        list(range(cap)), l1, l2, 2, field, seed=13,
                        protected_type=prot)
                    system = ts.encode_system(config, layout.matrix)
                    for e1 in combinations(nodes, l1):
                        rest = [x for x in nodes if x not in e1]
                        for e2 in combinations(rest, l2):
                            spec = ts.EavesdropperSpec.of(e1, e2)
                            obs = ts.observe(
                                system, layout, spec,
                                ts.default_repair_plans(system, spec))
                            mi = ts.brute_force_mi(obs)
                            want = ts.leakage(obs) * math.log2(q)
                            assert abs(mi - want) <= 1e-9, (q, l1, l2, spec)
                            checked += 1
        # every spec within budget, both fields, both orientations
        assert checked == 44
    t.report("criterion 8: leakage-oracle validation",
             f"{checked} brute-force cross-checks within 1e-9 bits")


def test_c09_zero_leakage_property_suite():
    with Timer(60.0) as t:
        rng = np.random.default_rng(99)
        enumerated = 0
        sampled = 0
        for q in (11, 101):
            field = ts.PrimeField(q)
            for k in range(2, 7):
                n = 2 * k - 1
                config = build_config(field, n, n, k)
                for l1 in range(k):
                    for l2 in range(k - l1):
                        if l1 + l2 == 0:
                            continue
                        capacity = ts.secure_capacity_twin(k, l1, l2)
                        assert capacity == k * (k - l1 - l2)
                        for prot in (1, 2):
                            layout = ts.make_secure_layout(
                                field.uniform(rng, capacity), l1, l2, k,
                                field, seed=int(rng.integers(1 << 30)),
                                protected_type=prot)
                            system = ts.encode_system(config, layout.matrix)
                            nodes = [(prot, j) for j in range(1, n + 1)]
                            total = math.comb(n, l1) * math.comb(n - l1, l2)
                            if total <= 10**4:
                                pairs = (
                                    (e1, e2)
                                    for e1 in combinations(nodes, l1)
                                    for e2 in combinations(
                                        [x for x in nodes if x not in e1], l2))
                                enumerated += total
                            else:  # pragma: no cover - n=2k-1 keeps all <= 10^4
                                def sample():
                                    for _ in range(500):
                                        picks = rng.permutation(n)[: l1 + l2]
                                        yield ([nodes[i] for i in picks[:l1]],
                                               [nodes[i] for i in picks[l1:]])
                                pairs = sample()
                                sampled += 500
                            for e1, e2 in pairs:
                                spec = ts.EavesdropperSpec.of(e1, e2)
                                obs = ts.observe(
                                    system, layout, spec,
                                    ts.default_repair_plans(system, spec))
                                assert ts.leakage(obs) == 0, (q, k, l1, l2,
                                                              prot, e1, e2)
        assert enumerated > 90_000
    t.report("criterion 9: zero-leakage property suite",
             f"{enumerated} exhaustive + {sampled} sampled specs, all leak-free")


def test_c10_mds_exhaustive_check(f11):
    with Timer(1.0) as t:
        g1 = ts.load_explicit(ts.FieldMatrix(DEMO_G1, f11))
        g2 = ts.load_explicit(ts.FieldMatrix(DEMO_G2, f11))
        assert ts.find_singular_minor(g1.generator) is None
        assert ts.find_singular_minor(g2.generator) is None
        mutated = [row[:] for row in DEMO_G2]
        mutated[3][5] = 2  # plants a singular minor at columns {2,3,5,6}
        with pytest.raises(NotMds):
            ts.load_explicit(ts.FieldMatrix(mutated, f11))
    t.report("criterion 10: MDS minor exhaustion",
             "both generators pass; mutation rejected")
