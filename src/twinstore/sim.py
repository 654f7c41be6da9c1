"""Deterministic scenario engine over a twin-type storage system.

A scenario is a config + secure layout + ordered events
(fail / repair / reconstruct / eavesdrop / deploy).  Runs are pure
functions of the scenario: the same input yields a byte-identical
JSON-lines log.  An event is held as its normalized document
(`parse_event`); each log record's `event` is that document, and such a
document is itself a valid event, so a log's events replay to the same log.

Structural problems (bad indices, wrong types, repairing a live node)
fail pre-validation with MalformedScenario.  Domain faults discovered
while executing -- a repair finding fewer than k live helpers, an
eavesdrop event naming an unobserved repair -- become error records in
the log and the run continues.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import comb
from typing import NamedTuple

import numpy as np

from . import framework, loader
from .eavesdrop import (EavesdropperSpec, _verdict, default_repair_plans,
                        eavesdrop_report, observe)
from .errors import (
    MalformedInput,
    MalformedScenario,
    MixedTypes,
    TwinstoreError,
    WrongHelperType,
)
from .framework import TwinConfig, TwinSystem, opposite_type
from .secure import SecureLayout, node_set_verdict


# ----------------------------------------------------------------------
# Scenarios and their logs.

@dataclass(frozen=True)
class Scenario:
    config: TwinConfig
    layout: SecureLayout
    events: tuple  # normalized event documents, see parse_event


@dataclass
class EventLog:
    records: list = dc_field(default_factory=list)
    final_system: TwinSystem | None = None

    @property
    def has_errors(self) -> bool:
        return any(not r["ok"] for r in self.records)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)


# ----------------------------------------------------------------------
# Parsing, through the loader; every error becomes a MalformedScenario.

def _require(cond, msg):
    if not cond:
        raise MalformedScenario(msg)


def _node_list(config, refs, node_type, what) -> tuple:
    """k distinct nodes of one type, each an index or a [type, index] pair."""
    pairs = loader.nodes([r if isinstance(r, (list, tuple)) else (node_type, r)
                          for r in loader.as_list(refs, what)], config, what)
    if any(t != node_type for t, _ in pairs):
        wrong_type = WrongHelperType if what == "helpers" else MixedTypes
        raise wrong_type(f"{what} must all be of type {node_type}, got {refs}")
    idx = tuple(j for _, j in pairs)
    _require(len(idx) == len(set(idx)) == config.k,
             f"{what} needs k={config.k} distinct nodes, got {refs}")
    return idx


def parse_event(config: TwinConfig, doc: dict) -> dict:
    """The normalized event document, which `run` logs as it is.

    The keys are read by the op's table in `loader.EVENTS`.  Node
    references become indices, or sorted (type, index) pairs for an
    eavesdrop's e1/e2 as EavesdropperSpec sorts them; node lists are
    tuples; `helpers` and `nodes` appear only when the input gives them.
    Parsing a normalized document returns an equal one.
    """
    op = loader.as_object(doc, "event").get("op")
    # the message is built only on refusal
    if not (isinstance(op, str) and op in loader.EVENTS):
        raise MalformedScenario(f"unknown event op {op!r}")
    event = {k: v for k, v in loader.read(doc, loader.EVENTS[op], op).items() if v is not None}
    t = event.get("type")
    if "index" in event:
        event["index"] = loader.node_index(config, t, event["index"])
    # each node list and the type its nodes must have (helpers: the other one)
    for key, typ in ("helpers", t and opposite_type(t)), ("nodes", t), ("seeds1", 1), ("seeds2", 2):
        if key in event:
            event[key] = _node_list(config, event[key], typ, key)
    if op == "eavesdrop":
        spec = loader.spec_nodes(event["e1"], event["e2"], config)
        _require(spec.budget < config.k, f"eavesdropper budget must stay below k={config.k}")
        event.update(e1=spec.e1, e2=spec.e2)
    return event


def scenario_from_json(doc: dict) -> Scenario:
    """Parse and pre-validate a scenario document: the "scenario" table's
    {"config", "layout", "events", "seed"}; see twinstore.loader."""
    try:
        doc = loader.read(doc, loader.TABLES["scenario"], "scenario")
        config = loader.config(doc["config"])
        scenario = Scenario(config, loader.layout(doc["layout"], config),
                            tuple(parse_event(config, e) for e in doc["events"]))
    except MalformedScenario:
        raise
    except TwinstoreError as exc:
        raise MalformedScenario(str(exc)) from exc
    _static_liveness_walk(scenario)
    return scenario


def load_scenario(path) -> Scenario:
    try:
        doc = loader.read_json(path)
    except MalformedInput as exc:
        raise MalformedScenario(str(exc)) from exc
    return scenario_from_json(doc)


# ----------------------------------------------------------------------
# Static liveness walk: catches sequencing bugs before any data moves.

def _static_liveness_walk(scenario: Scenario):
    config = scenario.config
    live = {1: [True] * config.n1, 2: [True] * config.n2}
    for pos, event in enumerate(scenario.events):
        op, t, j = event["op"], event.get("type"), event.get("index")
        if op == "fail":
            _require(live[t][j - 1], f"event {pos}: failing type {t} node "
                                     f"{j}, which holds no data")
            live[t][j - 1] = False
        elif op == "repair":
            _require(not live[t][j - 1], f"event {pos}: repairing type {t} "
                                         f"node {j}, which is not failed")
            # a starved repair leaves its target failed
            helpers = live[opposite_type(t)]
            if "helpers" in event:
                live[t][j - 1] = all(helpers[h - 1] for h in event["helpers"])
            else:
                live[t][j - 1] = sum(helpers) >= config.k
        elif op == "deploy":
            live = {1: [True] * config.n1, 2: [True] * config.n2}


# ----------------------------------------------------------------------
# Execution.

def run(scenario: Scenario) -> EventLog:
    """Execute the events; byte-identical logs for identical scenarios."""
    config = scenario.config
    k = config.k
    log = EventLog()
    system = framework.encode_system(config, scenario.layout.matrix)
    source = scenario.layout.matrix.a1
    plans = {}

    def record(event, symbols=0, ok=True, error=None, report=None):
        log.records.append({"event": event, "symbols": symbols,
                            "ok": ok, "error": error, "report": report})

    for event in scenario.events:
        op = event["op"]
        if op == "fail":
            system = framework.fail_node(system, event["type"], event["index"])
            record(event)
        elif op == "repair":
            t, j = event["type"], event["index"]
            helpers = event.get("helpers")
            if helpers is None:
                helpers = framework.default_helpers(system, t)
                if len(helpers) < k:
                    record(event, ok=False, error="RepairStarvation")
                    continue
            try:
                system, _ = framework.repair(system, t, j, helpers)
            except TwinstoreError as exc:
                record(event, ok=False, error=type(exc).__name__)
                continue
            plans[(t, j)] = tuple(helpers)
            record(event, symbols=k)
        elif op == "reconstruct":
            nodes = event.get("nodes")
            if nodes is None:
                nodes = tuple(framework.usable_nodes(system, event["type"])[:k])
            try:
                recovered = framework.reconstruct(system, event["type"], nodes)
            except TwinstoreError as exc:
                record(event, ok=False, error=type(exc).__name__)
                continue
            record(event, symbols=k * k,
                   report={"nodes": list(nodes),
                           "matches_source": recovered.a1 == source})
        elif op == "eavesdrop":
            spec = EavesdropperSpec(e1=event["e1"], e2=event["e2"])
            missing = [n for n in spec.e2 if n not in plans]
            if missing:
                record(event, ok=False, error="MissingRepairPlan",
                       report={"unplanned": [list(n) for n in missing]})
                continue
            record(event, report=eavesdrop_report(
                system, scenario.layout, spec, {n: plans[n] for n in spec.e2}))
        else:  # deploy, the last op parse_event accepts
            system = framework.deploy(config, scenario.layout.matrix,
                                      event["seeds1"], event["seeds2"])
            record(event, symbols=(config.n - 2 * k) * k)

    log.final_system = system
    return log


# ----------------------------------------------------------------------
# Eavesdropper sweep.

class SweepSplit(NamedTuple):
    """The rows of one (l1, l2) split of a sweep, in enumeration order, as
    columns.  e1 (rows x l1) and e2 (rows x l2) hold indices into
    `SweepResult.nodes`, ascending along each row; verdict holds each
    row's index into `SweepResult.verdicts`.  The arrays are read-only."""

    l1: int
    l2: int
    e1: np.ndarray
    e2: np.ndarray
    verdict: np.ndarray


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's rows as columns, one `SweepSplit` per (l1, l2) split in
    enumeration order.  `nodes` lists every node as a (type, index) tuple,
    Type 1 first, so sorted indices give sorted node tuples; `verdicts`
    holds each distinct verdict once, a dict of rank, leakage and
    guaranteed.  `worst_leakage` maps each split that holds a row to its
    largest leakage.

    `rows` is the row view, built on first read: one dict per spec, in
    enumeration order, with e1 and e2 as sorted tuples of (type, index)
    tuples, as `EavesdropperSpec.of` makes them (json writes them as
    lists of [type, index] pairs), then l1, l2 and the spec's verdict.
    The CLI writes its report from the columns and never builds it."""

    nodes: tuple
    splits: tuple
    verdicts: tuple
    worst_leakage: dict  # (l1, l2) -> max leakage observed
    exhaustive: bool

    @cached_property
    def rows(self) -> tuple:
        nodes, verdicts, rows = self.nodes, self.verdicts, []
        for split in self.splits:
            for e1, e2, v in zip(split.e1.tolist(), split.e2.tolist(),
                                 split.verdict.tolist()):
                rows.append({"e1": tuple(nodes[i] for i in e1),
                             "e2": tuple(nodes[i] for i in e2),
                             "l1": split.l1, "l2": split.l2, **verdicts[v]})
        return tuple(rows)


def _all_nodes(config):
    return [(1, j) for j in range(1, config.n1 + 1)] + \
           [(2, j) for j in range(1, config.n2 + 1)]


@lru_cache(maxsize=32)
def _combination_table(m: int, s: int) -> np.ndarray:
    """The s-subsets of range(m) in `combinations` order, as a read-only
    (C(m, s), s) array."""
    table = np.fromiter(chain.from_iterable(combinations(range(m), s)),
                        dtype=np.intp, count=comb(m, s) * s)
    table = table.reshape(comb(m, s), s)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _binomials(n: int, s: int) -> np.ndarray:
    """C(x, i) for x < n and i <= s, read-only, as int64 when every
    s'-subset of range(n), s' <= s, has a colex rank below 2^63 and as
    Python ints otherwise."""
    wide = max(comb(n, i) for i in range(s + 1)) >= 2 ** 63
    table = np.array([[comb(x, i) for i in range(s + 1)] for x in range(n)],
                     dtype=object if wide else np.int64).reshape(n, s + 1)
    table.flags.writeable = False
    return table


def _colex_ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """The colex rank of each row of ascending indices < n among the
    subsets of range(n) of its size: sum_i C(rows[:, i], i + 1), which
    differs between any two distinct subsets of one size."""
    table = _binomials(n, rows.shape[1])
    ranks = np.zeros(len(rows), dtype=table.dtype)
    for i, column in enumerate(rows.T, start=1):
        ranks += table[column, i]
    return ranks


def _enumerate_split(n: int, l1: int, l2: int) -> tuple:
    """Every (e1, e2) of one split as index arrays, e1 in `combinations`
    order and, for each, e2 in `combinations` order over the other nodes."""
    e1 = _combination_table(n, l1)
    rest = np.ones((len(e1), n), dtype=bool)
    rest[np.arange(len(e1))[:, None], e1] = False
    rest = np.nonzero(rest)[1].reshape(len(e1), n - l1)
    e2 = rest[:, _combination_table(n - l1, l2)]
    rows = e2.shape[0] * e2.shape[1]
    return np.repeat(e1, e2.shape[1], axis=0), e2.reshape(rows, l2)


def _sample_split(rng, n: int, l1: int, l2: int, target: int) -> tuple:
    """`target` distinct (e1, e2) of one split, or all of them if it holds
    fewer, as index arrays, each the sorted head of one
    `rng.permutation(n)`, repeats drawn again."""
    target = min(target, comb(n, l1) * comb(n - l1, l2))
    seen = {}
    while len(seen) < target:
        picks = rng.permutation(n)[: l1 + l2].tolist()
        seen.setdefault((*sorted(picks[:l1]), *sorted(picks[l1:])), None)
    rows = np.array(list(seen), dtype=np.intp).reshape(target, l1 + l2)
    return rows[:, :l1], rows[:, l1:]


def sweep_eavesdroppers(config: TwinConfig, layout: SecureLayout,
                        max_budget: int, seed: int = 0,
                        enumeration_limit: int = 10**5,
                        samples_per_split: int = 500) -> SweepResult:
    """Leakage of every (or a seeded sample of) eavesdropper spec within budget.

    Splits the budget into (l1, l2) pairs; when the total number of
    (e1, e2) choices exceeds enumeration_limit, each split is sampled
    with the given seed instead.  Each split's specs are built as index
    arrays over the nodes (`SweepSplit`): from combination tables, or
    from one `rng.permutation` per draw.

    One verdict is evaluated per distinct observed node set e1 | e2 and
    reused by every spec with that union; a split maps each row to its
    node set by one sort and the set's colex rank.  That is exact: rank,
    leakage and the guarantee are `secure.node_set_verdict` of the set,
    however it splits into storage reads and observed repairs, because an
    observed repair through helpers that span F^k exposes exactly the
    repaired node's own space.  Of the checks `observe` makes, all but
    the plan check are settled once per sweep: `encode_system` raises a
    field or k mismatch, the budget is capped at k - 1 and the
    enumeration names only nodes that exist.  Whether `observe` refuses a
    plan depends only on the failed node's type, since the system never
    changes here and each type's default helpers are fixed.  So when the
    budget allows a repair, the repairs of (1, 1) and then (2, 1) are
    observed once, before any split: a sweep, sampled or not, raises the
    error `observe` raises for a spec that observes a repair of a refused
    type.  Every other node set is judged by one `node_set_verdict` call.
    """
    budget = min(max_budget, config.k - 1)
    nodes = _all_nodes(config)
    n, n1 = len(nodes), config.n1
    splits = [(l1, l2) for total in range(budget + 1)
              for l1 in range(total + 1) for l2 in (total - l1,)]
    total_specs = sum(comb(n, l1) * comb(n - l1, l2) for l1, l2 in splits)
    exhaustive = total_specs <= enumeration_limit

    system = framework.encode_system(config, layout.matrix)
    rng = np.random.default_rng(seed)
    verdicts, verdict_index = [], {}  # distinct verdicts, each one's index
    set_verdict = {}  # (size, colex rank) of e1 | e2 -> verdict index

    def keep(node_set, verdict):
        key = verdict["rank"], verdict["leakage"], verdict["guaranteed"]
        if key not in verdict_index:
            verdict_index[key] = len(verdicts)
            verdicts.append(verdict)
        set_verdict[node_set] = verdict_index[key]

    # each failed type's plan check, under its node's singleton set: nodes
    # (1, 1) and (2, 1), whose colex ranks are their indices 0 and n1
    for i in (0, n1) if budget else ():
        spec = EavesdropperSpec(e1=(), e2=(nodes[i],))
        keep((1, i), _verdict(observe(system, layout, spec,
                                      default_repair_plans(system, spec))))

    blocks = []
    for l1, l2 in splits:
        e1, e2 = (_enumerate_split(n, l1, l2) if exhaustive
                  else _sample_split(rng, n, l1, l2, samples_per_split))
        sets = np.sort(np.hstack([e1, e2]), axis=1)  # e1 | e2, sorted rows
        ranks = _colex_ranks(sets, n)
        size = l1 + l2
        distinct, first, inverse = np.unique(ranks, return_index=True,
                                             return_inverse=True)
        for rank, r in zip(distinct.tolist(), first.tolist()):
            if (size, rank) not in set_verdict:
                keep((size, rank), node_set_verdict(
                    config, layout, tuple(nodes[i] for i in sets[r].tolist())))
        verdict = np.array([set_verdict[size, rank] for rank in
                            distinct.tolist()], dtype=np.intp)[inverse]
        for column in (e1, e2, verdict):
            column.flags.writeable = False
        blocks.append(SweepSplit(l1, l2, e1, e2, verdict))

    leakage = np.array([v["leakage"] for v in verdicts], dtype=np.int64)
    worst = {(b.l1, b.l2): int(leakage[b.verdict].max())
             for b in blocks if len(b.verdict)}
    return SweepResult(nodes=tuple(nodes), splits=tuple(blocks),
                       verdicts=tuple(verdicts), worst_leakage=worst,
                       exhaustive=exhaustive)
