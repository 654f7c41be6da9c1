"""Deterministic scenario engine over a twin-type storage system.

A scenario is a config + secure layout + seed + ordered events
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

from . import framework
from .eavesdrop import (
    EavesdropperSpec,
    eavesdrop_report,
    independent_symbol_count,
    leakage,
    observe,
)
from .errors import (
    MalformedScenario,
    MixedTypes,
    TwinstoreError,
    WrongHelperType,
)
from .framework import TwinConfig, TwinSystem, opposite_type
from .mds import code_from_json
from .secure import SecureLayout, guaranteed_secure_set, make_secure_layout


# ----------------------------------------------------------------------
# Node-reference validation shared with the event parser.

def check_same_type(refs, expected_type=None) -> int:
    """Validate (type, index) pairs share one type; return it."""
    types = {int(t) for t, _ in refs}
    if len(types) > 1:
        raise MixedTypes(f"node references mix types: {sorted(types)}")
    found = types.pop() if types else expected_type
    if expected_type is not None and found != expected_type:
        raise MixedTypes(f"expected type {expected_type}, got {found}")
    return found


def check_helper_refs(failed_type: int, refs) -> list:
    """Normalize explicit helper references to indices of the opposite type."""
    helper_type = opposite_type(failed_type)
    out = []
    for ref in refs:
        if isinstance(ref, (list, tuple)):
            t, j = int(ref[0]), int(ref[1])
            if t != helper_type:
                raise WrongHelperType(
                    f"helper ({t},{j}) must be of type {helper_type}"
                )
            out.append(j)
        else:
            out.append(int(ref))
    return out


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
    seed: int
    events: tuple

    def validate(self):
        _static_liveness_walk(self)
        return self


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
# Parsing.

def _require(cond, msg):
    if not cond:
        raise MalformedScenario(msg)


def _parse_node_type(doc, key="type"):
    t = doc.get(key)
    _require(t in (1, 2), f"node type must be 1 or 2, got {t!r}")
    return int(t)


def _parse_index(config, node_type, value):
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"node index must be an integer, got {value!r}")
    count = config.node_count(node_type)
    _require(1 <= value <= count,
             f"type {node_type} index {value} outside 1..{count}")
    return int(value)


def _parse_pairs(config, raw, what):
    _require(isinstance(raw, list), f"{what} must be a list of [type, index] pairs")
    pairs = []
    for item in raw:
        _require(isinstance(item, (list, tuple)) and len(item) == 2,
                 f"{what} entries must be [type, index] pairs, got {item!r}")
        t = int(item[0])
        _require(t in (1, 2), f"{what} node type must be 1 or 2, got {item!r}")
        pairs.append((t, _parse_index(config, t, item[1])))
    return pairs


def parse_event(config: TwinConfig, doc: dict):
    _require(isinstance(doc, dict), f"event must be an object, got {doc!r}")
    op = doc.get("op")
    if op == "fail":
        t = _parse_node_type(doc)
        return Fail(t, _parse_index(config, t, doc.get("index")))
    if op == "repair":
        t = _parse_node_type(doc)
        j = _parse_index(config, t, doc.get("index"))
        helpers = doc.get("helpers")
        if helpers is not None:
            _require(isinstance(helpers, list), "helpers must be a list")
            try:
                idx = check_helper_refs(t, helpers)
            except (WrongHelperType, ValueError) as exc:
                raise MalformedScenario(str(exc)) from exc
            helper_type = opposite_type(t)
            idx = [_parse_index(config, helper_type, h) for h in idx]
            _require(len(idx) == config.k and len(set(idx)) == config.k,
                     f"repair needs k={config.k} distinct helpers, got {helpers}")
            helpers = tuple(idx)
        return Repair(t, j, helpers)
    if op == "reconstruct":
        t = _parse_node_type(doc)
        nodes = doc.get("nodes")
        if nodes is not None:
            _require(isinstance(nodes, list), "nodes must be a list")
            if nodes and isinstance(nodes[0], (list, tuple)):
                try:
                    pairs = _parse_pairs(config, nodes, "nodes")
                    check_same_type(pairs, expected_type=t)
                except MixedTypes as exc:
                    raise MalformedScenario(str(exc)) from exc
                idx = [j for _, j in pairs]
            else:
                idx = [_parse_index(config, t, j) for j in nodes]
            _require(len(idx) == config.k and len(set(idx)) == config.k,
                     f"reconstruct needs k={config.k} distinct nodes, got {nodes}")
            nodes = tuple(idx)
        return Reconstruct(t, nodes)
    if op == "eavesdrop":
        e1 = _parse_pairs(config, doc.get("e1", []), "e1")
        e2 = _parse_pairs(config, doc.get("e2", []), "e2")
        try:
            spec = EavesdropperSpec.of(e1, e2)
        except ValueError as exc:
            raise MalformedScenario(str(exc)) from exc
        _require(spec.budget < config.k,
                 f"eavesdropper budget must stay below k={config.k}")
        return Eavesdrop(spec)
    if op == "deploy":
        seeds = []
        for key, node_type in (("seeds1", 1), ("seeds2", 2)):
            raw = doc.get(key)
            _require(isinstance(raw, list), f"{key} must be a list of indices")
            idx = [_parse_index(config, node_type, j) for j in raw]
            _require(len(idx) == config.k and len(set(idx)) == config.k,
                     f"{key} needs k={config.k} distinct indices, got {raw}")
            seeds.append(tuple(idx))
        return Deploy(seeds[0], seeds[1])
    raise MalformedScenario(f"unknown event op {op!r}")


def _parse_config(doc: dict) -> TwinConfig:
    for key in ("q", "n1", "n2", "k"):
        _require(key in doc, f"config is missing {key!r}")
    style = doc.get("style", "vandermonde")
    try:
        if style == "explicit":
            _require("generator1" in doc and "generator2" in doc,
                     "explicit style needs generator1 and generator2 documents")
            code1 = code_from_json(doc["generator1"])
            code2 = code_from_json(doc["generator2"])
            config = TwinConfig.from_codes(code1, code2)
            _require((config.n1, config.n2, config.k, config.field.p)
                     == (doc["n1"], doc["n2"], doc["k"], doc["q"]),
                     "declared config does not match the generator documents")
            return config
        from .field import PrimeField
        return TwinConfig.build(PrimeField(int(doc["q"])), int(doc["n1"]),
                                int(doc["n2"]), int(doc["k"]), style=style)
    except MalformedScenario:
        raise
    except (TwinstoreError, ValueError) as exc:
        raise MalformedScenario(f"bad config: {exc}") from exc


def scenario_from_json(doc: dict) -> Scenario:
    """Parse and pre-validate a scenario document."""
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    config = _parse_config(doc.get("config", {}))
    layout_doc = doc.get("layout", {})
    _require(isinstance(layout_doc, dict), "layout must be an object")
    try:
        l1 = int(layout_doc.get("l1", 0))
        l2 = int(layout_doc.get("l2", 0))
        payload = list(layout_doc.get("payload", []))
        if l1 == l2 == 0 and len(payload) < config.k**2:
            payload += [0] * (config.k**2 - len(payload))  # plain layouts pad
        layout = make_secure_layout(
            payload=payload, l1=l1, l2=l2, k=config.k, field=config.field,
            seed=int(layout_doc.get("seed", 0)),
            protected_type=int(layout_doc.get("protected_type", 1)))
    except (TwinstoreError, ValueError) as exc:
        raise MalformedScenario(f"bad layout: {exc}") from exc
    raw_events = doc.get("events", [])
    _require(isinstance(raw_events, list), "events must be a list")
    events = tuple(parse_event(config, e) for e in raw_events)
    scenario = Scenario(config=config, layout=layout,
                        seed=int(doc.get("seed", 0)), events=events)
    return scenario.validate()


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedScenario(f"invalid JSON: {exc}") from exc
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
            obs = observe(system, scenario.layout, event.spec,
                          {n: plans[n] for n in event.spec.e2})
            report = eavesdrop_report(obs, event.spec)
            report["guaranteed"] = guaranteed_secure_set(
                config, scenario.layout, event.spec.e1, event.spec.e2).guaranteed
            record(event, report=report)
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
