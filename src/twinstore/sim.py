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
from itertools import combinations
from math import comb

import numpy as np

from . import framework, loader
from .eavesdrop import EavesdropperSpec, _verdict, eavesdrop_report, observe
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


def _node_list(config, refs, node_type, what, wrong_type=MixedTypes) -> tuple:
    """k distinct nodes of one type, each an index or a [type, index] pair."""
    pairs = loader.nodes([r if isinstance(r, (list, tuple)) else (node_type, r)
                          for r in loader.as_list(refs, what)], config, what)
    if any(t != node_type for t, _ in pairs):
        raise wrong_type(f"{what} must all be of type {node_type}, got {refs}")
    idx = tuple(j for _, j in pairs)
    _require(len(idx) == len(set(idx)) == config.k,
             f"{what} needs k={config.k} distinct nodes, got {refs}")
    return idx


def parse_event(config: TwinConfig, doc: dict) -> dict:
    """The normalized event document, which `run` logs as it is.

    Node references become indices, or sorted (type, index) pairs for an
    eavesdrop's e1/e2 as EavesdropperSpec.of sorts them; node lists are
    tuples; `helpers` and `nodes` appear only when the input gives them.
    Parsing a normalized document returns an equal one.
    """
    doc = loader.as_object(doc, "event")
    op = doc.get("op")
    if op in ("fail", "repair", "reconstruct"):
        t = loader.node_type(doc.get("type"))
        event = {"op": op, "type": t}
    if op == "fail":
        event["index"] = loader.node_index(config, t, doc.get("index"))
    elif op == "repair":
        if doc.get("helpers") is not None:
            event["helpers"] = _node_list(config, doc["helpers"], opposite_type(t),
                                          "helpers", WrongHelperType)
        event["index"] = loader.node_index(config, t, doc.get("index"))
    elif op == "reconstruct":
        if doc.get("nodes") is not None:
            event["nodes"] = _node_list(config, doc["nodes"], t, "nodes")
    elif op == "eavesdrop":
        spec = loader.spec(doc, config)
        _require(spec.budget < config.k,
                 f"eavesdropper budget must stay below k={config.k}")
        event = {"op": op, "e1": spec.e1, "e2": spec.e2}
    elif op == "deploy":
        event = {"op": op}
        for key, t in (("seeds1", 1), ("seeds2", 2)):
            event[key] = _node_list(config, doc.get(key), t, key)
    else:
        raise MalformedScenario(f"unknown event op {op!r}")
    return event


def scenario_from_json(doc: dict) -> Scenario:
    """Parse and pre-validate a scenario document: {"config", "layout",
    "events"}, see twinstore.loader for the first two."""
    try:
        doc = loader.as_object(doc, "scenario")
        config = loader.config(doc.get("config", {}))
        layout = loader.layout(doc.get("layout", {}), config)
        events = tuple(parse_event(config, e)
                       for e in loader.as_list(doc.get("events", []), "events"))
        scenario = Scenario(config=config, layout=layout, events=events)
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
        op = event["op"]
        if op == "fail":
            t, j = event["type"], event["index"]
            _require(live[t][j - 1], f"event {pos}: failing type {t} node "
                                     f"{j}, which holds no data")
            live[t][j - 1] = False
        elif op == "repair":
            t, j = event["type"], event["index"]
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

@dataclass(frozen=True)
class SweepResult:
    """One row per eavesdropper spec, in enumeration order: e1 and e2 as
    sorted tuples of (type, index) tuples, as `EavesdropperSpec.of` makes
    them (json writes them as lists of [type, index] pairs), then l1, l2
    and the spec's verdict, rank, leakage and guaranteed."""

    rows: tuple
    worst_leakage: dict  # (l1, l2) -> max leakage observed
    exhaustive: bool


def _all_nodes(config):
    return [(1, j) for j in range(1, config.n1 + 1)] + \
           [(2, j) for j in range(1, config.n2 + 1)]


def sweep_eavesdroppers(config: TwinConfig, layout: SecureLayout,
                        max_budget: int, seed: int = 0,
                        enumeration_limit: int = 10**5,
                        samples_per_split: int = 500) -> SweepResult:
    """Leakage of every (or a seeded sample of) eavesdropper spec within budget.

    Splits the budget into (l1, l2) pairs; when the total number of
    (e1, e2) choices exceeds enumeration_limit, each split is sampled
    with the given seed instead.  Each row keeps the enumeration's e1 and
    e2 tuples (`SweepResult`), which rows may share.

    One verdict is evaluated per distinct observed node set e1 | e2 and
    reused by every spec with that union.  That is exact: rank, leakage
    and the guarantee are `secure.node_set_verdict` of the set, however it
    splits into storage reads and observed repairs, because an observed
    repair through helpers that span F^k exposes exactly the repaired
    node's own space.  Of the checks `observe` makes, all but the plan
    check are settled once per sweep: `encode_system` raises a field or k
    mismatch, the budget is capped at k - 1 and the enumeration names only
    nodes that exist.  Whether `observe` refuses a plan depends only on
    which node types a spec's e2 holds, since each failed type's helpers
    are fixed here.  So a spec whose e2 holds a type no earlier call has
    accepted is observed as it is, with its repair plans: every spec
    refused one by one is refused here, with the same error.  Only those
    specs reach `observe`; every other new node set is judged by one
    `node_set_verdict` call.  In exhaustive order that is one evaluation
    per distinct union, and plans reach `observe` at most once per failed
    type.
    """
    budget = min(max_budget, config.k - 1)
    nodes = _all_nodes(config)
    n = len(nodes)
    splits = [(l1, l2) for total in range(budget + 1)
              for l1 in range(total + 1) for l2 in (total - l1,)]
    total_specs = sum(comb(n, l1) * comb(n - l1, l2) for l1, l2 in splits)
    exhaustive = total_specs <= enumeration_limit

    system = framework.encode_system(config, layout.matrix)
    # the system never changes here, so each failed type's helpers are fixed
    helpers = {t: framework.default_helpers(system, t) for t in (1, 2)}
    rng = np.random.default_rng(seed)

    # (e1, e2) are built sorted and disjoint, as EavesdropperSpec.of makes them
    def spec_iter():
        for l1, l2 in splits:
            if exhaustive:
                for e1 in combinations(nodes, l1):
                    rest = [x for x in nodes if x not in e1] if l2 else ()
                    for e2 in combinations(rest, l2):
                        yield l1, l2, e1, e2
            else:
                count = comb(n, l1) * comb(n - l1, l2)
                seen = set()
                target = min(samples_per_split, count)
                while len(seen) < target:
                    picks = rng.permutation(n)[: l1 + l2]
                    e1 = tuple(sorted(nodes[i] for i in picks[:l1]))
                    e2 = tuple(sorted(nodes[i] for i in picks[l1:]))
                    if (e1, e2) in seen:
                        continue
                    seen.add((e1, e2))
                    yield l1, l2, e1, e2

    rows = []
    worst = {}
    verdicts = {}       # sorted e1 | e2 -> verdict
    accepted = set()    # failed types whose helpers observe has accepted
    for l1, l2, e1, e2 in spec_iter():
        union = tuple(sorted(e1 + e2))
        if len(accepted) < 2 and any(t not in accepted for t, _ in e2):
            verdict = verdicts[union] = _verdict(observe(
                system, layout, EavesdropperSpec(e1=e1, e2=e2),
                {n: helpers[n[0]] for n in e2}))
            accepted.update(t for t, _ in e2)
        else:
            verdict = verdicts.get(union)
            if verdict is None:
                verdict = verdicts[union] = node_set_verdict(config, layout,
                                                             union)
        rows.append({"e1": e1, "e2": e2, "l1": l1, "l2": l2, **verdict})
        if verdict["leakage"] > worst.get((l1, l2), -1):
            worst[(l1, l2)] = verdict["leakage"]
    return SweepResult(rows=tuple(rows), worst_leakage=worst,
                       exhaustive=exhaustive)
