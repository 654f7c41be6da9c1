"""Bundled worked example: a (5,4)+(6,4) system over F_11 with golden checks.

The two explicit generators below give the smallest interesting secure
deployment: k = 4, two randomized columns (r1..r8) shielding an
eight-symbol payload (a9..a16).  `run_demo` re-derives every golden
fact -- the full node-content table, the storage-eavesdropping and
repair-eavesdropping reports, and a repair roundtrip -- and reports
pass/fail per check, which makes it a quick end-to-end health probe
for the whole stack.
"""

from __future__ import annotations

import numpy as np

from . import mds
from .eavesdrop import (
    EavesdropperSpec,
    _functional_rows,
    independent_symbol_count,
    leakage,
    observe,
    revealed_symbols,
)
from .field import FieldMatrix, PrimeField
from .framework import TwinConfig, encode_system, fail_node, repair
from .secure import make_secure_layout

DEMO_Q = 11
DEMO_K = 4

# Systematic-style (5,4) generator: four unit columns plus an all-ones column.
DEMO_G1 = [
    [1, 0, 0, 0, 1],
    [0, 1, 0, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 1, 1],
]

# (6,4) generator: three unit columns, an all-ones column, and two mixing
# columns (1,4,3,2) and (1,3,4,6).  The trailing 6 is forced: with the rest
# of the matrix fixed, it is the only value in F_11 that keeps every 4x4
# minor nonsingular (any other choice collides with one of the 15 minors,
# e.g. 2 makes columns {2,3,5,6} singular).
DEMO_G2 = [
    [1, 0, 0, 1, 1, 1],
    [0, 1, 0, 1, 4, 3],
    [0, 0, 1, 1, 3, 4],
    [0, 0, 0, 1, 2, 6],
]

# Expected stored symbols per node, as {source label: coefficient} per symbol.
# Labels r1..r8 are the random columns, a9..a16 the payload columns.
DEMO_NODE_TABLE = {
    (1, 1): [{"r1": 1}, {"r2": 1}, {"r3": 1}, {"r4": 1}],
    (1, 2): [{"r5": 1}, {"r6": 1}, {"r7": 1}, {"r8": 1}],
    (1, 3): [{"a9": 1}, {"a10": 1}, {"a11": 1}, {"a12": 1}],
    (1, 4): [{"a13": 1}, {"a14": 1}, {"a15": 1}, {"a16": 1}],
    (1, 5): [
        {"r1": 1, "r5": 1, "a9": 1, "a13": 1},
        {"r2": 1, "r6": 1, "a10": 1, "a14": 1},
        {"r3": 1, "r7": 1, "a11": 1, "a15": 1},
        {"r4": 1, "r8": 1, "a12": 1, "a16": 1},
    ],
    (2, 1): [{"r1": 1}, {"r5": 1}, {"a9": 1}, {"a13": 1}],
    (2, 2): [{"r2": 1}, {"r6": 1}, {"a10": 1}, {"a14": 1}],
    (2, 3): [{"r3": 1}, {"r7": 1}, {"a11": 1}, {"a15": 1}],
    (2, 4): [
        {"r1": 1, "r2": 1, "r3": 1, "r4": 1},
        {"r5": 1, "r6": 1, "r7": 1, "r8": 1},
        {"a9": 1, "a10": 1, "a11": 1, "a12": 1},
        {"a13": 1, "a14": 1, "a15": 1, "a16": 1},
    ],
    (2, 5): [
        {"r1": 1, "r2": 4, "r3": 3, "r4": 2},
        {"r5": 1, "r6": 4, "r7": 3, "r8": 2},
        {"a9": 1, "a10": 4, "a11": 3, "a12": 2},
        {"a13": 1, "a14": 4, "a15": 3, "a16": 2},
    ],
    (2, 6): [
        {"r1": 1, "r2": 3, "r3": 4, "r4": 6},
        {"r5": 1, "r6": 3, "r7": 4, "r8": 6},
        {"a9": 1, "a10": 3, "a11": 4, "a12": 6},
        {"a13": 1, "a14": 3, "a15": 4, "a16": 6},
    ],
}

# Storage eavesdropping of one node per type: seven independent symbols.
DEMO_CROSS_TYPE_SPEC = (((1, 1), (2, 2)), ())
DEMO_CROSS_TYPE_RANK = 7
DEMO_CROSS_TYPE_LEAKAGE = 2
DEMO_CROSS_TYPE_REVEALED = {"r1", "r2", "r3", "r4", "r6", "a10", "a14"}

# Both eavesdropped nodes on Type 1: the full 2k independent symbols.
DEMO_SAME_TYPE_SPEC = (((1, 2), (1, 3)), ())
DEMO_SAME_TYPE_RANK = 8
DEMO_SAME_TYPE_LEAKAGE = 4

# Storage of Type 2 node 1 plus the observed repair of Type 2 node 2
# served by Type 1 helpers {1, 3, 4, 5}.
DEMO_REPAIR_SPEC = ((((2, 1),)), (((2, 2),)))
DEMO_REPAIR_PLAN = {(2, 2): (1, 3, 4, 5)}
DEMO_REPAIR_RANK = 8
DEMO_REPAIR_LEAKAGE = 4


def functional_from_labels(symbol: dict, k: int = DEMO_K) -> np.ndarray:
    """Row over the k*k source coordinates; label r5/a10 is coordinate 4/9."""
    row = np.zeros(k * k, dtype=np.int64)
    for label, coeff in symbol.items():
        row[int(label[1:]) - 1] = coeff
    return row


def build_demo_config(g1=None, g2=None) -> TwinConfig:
    field = PrimeField(DEMO_Q)
    code1 = mds.load_explicit(FieldMatrix(DEMO_G1 if g1 is None else g1, field))
    code2 = mds.load_explicit(FieldMatrix(DEMO_G2 if g2 is None else g2, field))
    return TwinConfig(code1, code2)


def build_demo_layout(seed: int = 7, payload=None):
    field = PrimeField(DEMO_Q)
    if payload is None:
        payload = list(range(1, 9))  # any 8 payload symbols work
    return make_secure_layout(payload, l1=2, l2=0, k=DEMO_K, field=field,
                              seed=seed)


def run_demo(g1=None, g2=None, seed: int = 7) -> list:
    """Execute every golden check; returns (name, passed, detail) triples."""
    checks = []
    config = build_demo_config(g1, g2)
    layout = build_demo_layout(seed)
    system = encode_system(config, layout.matrix)
    f = layout.source_vector()
    p = config.field.p
    identity = np.eye(config.k, dtype=np.int64)

    table_ok, table_detail = True, "all 11 nodes match"
    for (node_type, j), expected in sorted(DEMO_NODE_TABLE.items()):
        g = config.encoding_vector(node_type, j).coefficients
        actual_rows = _functional_rows(node_type, g, identity, p)
        expect_rows = np.stack([functional_from_labels(sym) for sym in expected]) % p
        stored = system.node(node_type, j).symbols
        if not (np.array_equal(actual_rows, expect_rows)
                and np.array_equal(stored, (expect_rows @ f) % p)):
            table_ok = False
            table_detail = f"type {node_type} node {j} deviates"
            break
    checks.append(("node-content table", table_ok, table_detail))

    def eavesdrop_check(name, spec_tuple, plans, rank_want, leak_want,
                        revealed_want=None):
        spec = EavesdropperSpec.of(*spec_tuple)
        obs = observe(system, layout, spec, plans)
        got_rank = independent_symbol_count(obs)
        got_leak = leakage(obs)
        ok = got_rank == rank_want and got_leak == leak_want
        detail = f"rank {got_rank} (want {rank_want}), leakage {got_leak} " \
                 f"(want {leak_want})"
        if revealed_want is not None:
            got_rev = revealed_symbols(obs)
            ok = ok and got_rev == revealed_want
            detail += f", revealed {sorted(got_rev)}"
        checks.append((name, ok, detail))

    eavesdrop_check("cross-type storage eavesdrop", DEMO_CROSS_TYPE_SPEC, {},
                    DEMO_CROSS_TYPE_RANK, DEMO_CROSS_TYPE_LEAKAGE,
                    DEMO_CROSS_TYPE_REVEALED)
    eavesdrop_check("same-type storage eavesdrop", DEMO_SAME_TYPE_SPEC, {},
                    DEMO_SAME_TYPE_RANK, DEMO_SAME_TYPE_LEAKAGE)
    eavesdrop_check("storage + observed repair", DEMO_REPAIR_SPEC,
                    DEMO_REPAIR_PLAN, DEMO_REPAIR_RANK, DEMO_REPAIR_LEAKAGE)

    before = system.node(2, 2)
    failed = fail_node(system, 2, 2)
    restored, content = repair(failed, 2, 2, DEMO_REPAIR_PLAN[(2, 2)])
    ok = content == before and restored.node(2, 2) == before
    checks.append(("repair roundtrip", ok,
                   "regenerated content equals pre-failure content"))
    return checks
