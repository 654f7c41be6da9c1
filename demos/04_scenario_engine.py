"""Drive a system through a scripted scenario and sweep all eavesdroppers.

Scenarios are plain JSON: config + layout + events.  Runs are fully
deterministic -- same scenario, byte-identical JSON-lines log.
"""

import json

import twinstore as ts
from twinstore.demo import DEMO_G1, DEMO_G2

scenario_doc = {
    "config": {
        "q": 11, "n1": 5, "n2": 6, "k": 4, "style": "explicit",
        "generator1": {"p": 11, "n": 5, "k": 4, "generator": DEMO_G1},
        "generator2": {"p": 11, "n": 6, "k": 4, "generator": DEMO_G2},
    },
    "layout": {"l1": 2, "l2": 0, "seed": 7, "payload": [1, 2, 3, 4, 5, 6, 7, 8]},
    "events": [
        {"op": "fail", "type": 2, "index": 2},
        {"op": "repair", "type": 2, "index": 2, "helpers": [1, 3, 4, 5]},
        {"op": "eavesdrop", "e1": [[2, 1]], "e2": [[2, 2]]},
        {"op": "reconstruct", "type": 1},
        {"op": "deploy", "seeds1": [1, 2, 3, 4], "seeds2": [1, 2, 3, 4]},
    ],
}

scenario = ts.scenario_from_json(scenario_doc)
log = ts.run(scenario)
print("event log (JSON lines):")
print(log.to_jsonl())
moved = sum(r["symbols"] for r in log.records)
print(f"errors: {log.has_errors}; total symbols moved: "
      f"{moved} (repair=4, reconstruct=16, deploy=3*4)")

# identical scenario, identical bytes
again = ts.run(ts.scenario_from_json(json.loads(json.dumps(scenario_doc))))
print("deterministic rerun identical:", again.to_jsonl() == log.to_jsonl())

# sweep every eavesdropper of budget <= 2 and summarize the worst case
sweep = ts.sweep_eavesdroppers(scenario.config, scenario.layout, max_budget=2)
print(f"\nsweep: {len(sweep.rows)} specs, exhaustive={sweep.exhaustive}")
for (l1, l2), worst in sorted(sweep.worst_leakage.items()):
    print(f"  (l1={l1}, l2={l2}): worst leakage {worst} q-ary symbols")
guaranteed = [r for r in sweep.rows if r["guaranteed"]]
print(f"guaranteed-secure specs: {len(guaranteed)}, "
      f"all leak-free: {all(r['leakage'] == 0 for r in guaranteed)}")
