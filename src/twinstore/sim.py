"""Deterministic scenario engine over a twin-type storage system.

A scenario is a config + secure layout + ordered events
(fail / repair / reconstruct / eavesdrop / deploy).  Runs are pure
functions of the scenario: the same input yields a byte-identical
JSON-lines log.

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
from .eavesdrop import (
    EavesdropperSpec,
    eavesdrop_report,
    independent_symbol_count,
    leakage,
    observe,
)
from .errors import (
    MalformedInput,
    MalformedScenario,
    MixedTypes,
    TwinstoreError,
    WrongHelperType,
)
from .framework import TwinConfig, TwinSystem, opposite_type
from .secure import SecureLayout, guaranteed_secure_set


# ----------------------------------------------------------------------
# Events.

@dataclass(frozen=True)
class Fail:
    node_type: int
    index: int

    def to_json_dict(self):
        return {"op": "fail", "type": self.node_type, "index": self.index}


@dataclass(frozen=True)
class Repair:
    node_type: int
    index: int
    helpers: tuple | None = None  # None = lowest-index live policy

    def to_json_dict(self):
        doc = {"op": "repair", "type": self.node_type, "index": self.index}
        if self.helpers is not None:
            doc["helpers"] = list(self.helpers)
        return doc


@dataclass(frozen=True)
class Reconstruct:
    node_type: int
    nodes: tuple | None = None

    def to_json_dict(self):
        doc = {"op": "reconstruct", "type": self.node_type}
        if self.nodes is not None:
            doc["nodes"] = list(self.nodes)
        return doc


@dataclass(frozen=True)
class Eavesdrop:
    spec: EavesdropperSpec

    def to_json_dict(self):
        return {"op": "eavesdrop", **self.spec.to_json_dict()}


@dataclass(frozen=True)
class Deploy:
    seeds1: tuple
    seeds2: tuple

    def to_json_dict(self):
        return {"op": "deploy", "seeds1": list(self.seeds1),
                "seeds2": list(self.seeds2)}


@dataclass(frozen=True)
class Scenario:
    config: TwinConfig
    layout: SecureLayout
    events: tuple


@dataclass
class EventLog:
    records: list = dc_field(default_factory=list)
    final_system: TwinSystem | None = None

    @property
    def has_errors(self) -> bool:
        return any(not r["ok"] for r in self.records)

    @property
    def symbols_transferred(self) -> int:
        return sum(r["symbols"] for r in self.records)

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


def parse_event(config: TwinConfig, doc: dict):
    doc = loader.as_object(doc, "event")
    op = doc.get("op")
    if op in ("fail", "repair", "reconstruct"):
        t = loader.node_type(doc.get("type"))
    if op == "fail":
        return Fail(t, loader.node_index(config, t, doc.get("index")))
    if op == "repair":
        helpers = doc.get("helpers")
        if helpers is not None:
            helpers = _node_list(config, helpers, opposite_type(t), "helpers",
                                 WrongHelperType)
        return Repair(t, loader.node_index(config, t, doc.get("index")), helpers)
    if op == "reconstruct":
        nodes = doc.get("nodes")
        return Reconstruct(t, None if nodes is None
                           else _node_list(config, nodes, t, "nodes"))
    if op == "eavesdrop":
        spec = loader.spec(doc, config)
        _require(spec.budget < config.k,
                 f"eavesdropper budget must stay below k={config.k}")
        return Eavesdrop(spec)
    if op == "deploy":
        return Deploy(*(_node_list(config, doc.get(key), t, key)
                        for key, t in (("seeds1", 1), ("seeds2", 2))))
    raise MalformedScenario(f"unknown event op {op!r}")


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

def _repair_feasible(config, live, event) -> bool:
    helper_type = opposite_type(event.node_type)
    if event.helpers is not None:
        return all(live[helper_type][h - 1] for h in event.helpers)
    return sum(live[helper_type]) >= config.k


def _static_liveness_walk(scenario: Scenario):
    config = scenario.config
    live = {1: [True] * config.n1, 2: [True] * config.n2}
    for pos, event in enumerate(scenario.events):
        where = f"event {pos}"
        if isinstance(event, Fail):
            _require(live[event.node_type][event.index - 1],
                     f"{where}: failing type {event.node_type} node "
                     f"{event.index}, which holds no data")
            live[event.node_type][event.index - 1] = False
        elif isinstance(event, Repair):
            _require(not live[event.node_type][event.index - 1],
                     f"{where}: repairing type {event.node_type} node "
                     f"{event.index}, which is not failed")
            if _repair_feasible(config, live, event):
                live[event.node_type][event.index - 1] = True
        elif isinstance(event, Deploy):
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
        log.records.append({"event": event.to_json_dict(), "symbols": symbols,
                            "ok": ok, "error": error, "report": report})

    for event in scenario.events:
        if isinstance(event, Fail):
            system = framework.fail_node(system, event.node_type, event.index)
            record(event)
        elif isinstance(event, Repair):
            helpers = event.helpers
            if helpers is None:
                helpers = framework.default_helpers(system, event.node_type)
                if len(helpers) < k:
                    record(event, ok=False, error="RepairStarvation")
                    continue
            try:
                system, _ = framework.repair(system, event.node_type,
                                             event.index, helpers)
            except TwinstoreError as exc:
                record(event, ok=False, error=type(exc).__name__)
                continue
            plans[(event.node_type, event.index)] = tuple(helpers)
            record(event, symbols=k)
        elif isinstance(event, Reconstruct):
            nodes = event.nodes
            if nodes is None:
                nodes = tuple(framework.usable_nodes(system, event.node_type)[:k])
            try:
                recovered = framework.reconstruct(system, event.node_type, nodes)
            except TwinstoreError as exc:
                record(event, ok=False, error=type(exc).__name__)
                continue
            record(event, symbols=k * k,
                   report={"nodes": list(nodes),
                           "matches_source": recovered.a1 == source})
        elif isinstance(event, Eavesdrop):
            missing = [n for n in event.spec.e2 if n not in plans]
            if missing:
                record(event, ok=False, error="MissingRepairPlan",
                       report={"unplanned": [list(n) for n in missing]})
                continue
            record(event, report=eavesdrop_report(
                system, scenario.layout, event.spec,
                {n: plans[n] for n in event.spec.e2}))
        elif isinstance(event, Deploy):
            system = framework.deploy(config, scenario.layout.matrix,
                                      event.seeds1, event.seeds2)
            record(event, symbols=(config.n - 2 * k) * k)
        else:  # pragma: no cover - parse_event exhausts the ops
            raise MalformedScenario(f"unhandled event {event!r}")

    log.final_system = system
    return log


# ----------------------------------------------------------------------
# Eavesdropper sweep.

@dataclass(frozen=True)
class SweepResult:
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
    with the given seed instead.
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

    def spec_iter():
        for l1, l2 in splits:
            if exhaustive:
                for e1 in combinations(nodes, l1):
                    rest = [x for x in nodes if x not in e1]
                    for e2 in combinations(rest, l2):
                        yield l1, l2, EavesdropperSpec.of(e1, e2)
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
                    yield l1, l2, EavesdropperSpec.of(e1, e2)

    rows = []
    worst = {}
    for l1, l2, spec in spec_iter():
        obs = observe(system, layout, spec, {n: helpers[n[0]] for n in spec.e2})
        leak = leakage(obs)
        rows.append({
            "e1": [list(x) for x in spec.e1],
            "e2": [list(x) for x in spec.e2],
            "l1": l1, "l2": l2,
            "rank": independent_symbol_count(obs),
            "leakage": leak,
            "guaranteed": guaranteed_secure_set(config, layout,
                                                spec.e1, spec.e2).guaranteed,
        })
        worst[(l1, l2)] = max(worst.get((l1, l2), 0), leak)
    return SweepResult(rows=tuple(rows), worst_leakage=worst,
                       exhaustive=exhaustive)
