"""Self-tests of the benchmark: exact counts repeat, the predicted layer
split holds, the output checks catch wrong results, and the result line
matches BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer, metric_names
from twinstore import framework

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Reduced sizes: the same code paths as the benchmark, in well under a second.
SMALL = {
    "sweep": dict(q=11, k=3, n=5, l1=1, l2=1, digests={}),
    "churn": dict(k=3, n=5),
    "audit": dict(k=4, n=7, l1=1, l2=1, pairs=4, reconstructs=1, eavesdrops=1),
}
ROUNDS = {"sweep": 1, "churn": 300, "audit": 4}


def traced(name, tmp_path, seed=7):
    tmp_path.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, tmp_path, **SMALL[name])
    tracer = Tracer()
    _, _, attempted, failed = run.drive(workload, rounds=ROUNDS[name], tracer=tracer)
    assert attempted > 0 and failed == 0
    return tracer.metrics(0.0)


def counts(metrics):
    return {m: v for m, v in metrics.items()
            if not m.endswith("self_ms") and m != "trace.overhead_frac"}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly(name, tmp_path):
    first = counts(traced(name, tmp_path / "a"))
    second = counts(traced(name, tmp_path / "b"))
    assert first == second
    assert any(v for v in first.values())


def test_layer_split(tmp_path):
    sweep = traced("sweep", tmp_path / "sweep")
    churn = traced("churn", tmp_path / "churn")
    audit = traced("audit", tmp_path / "audit")
    assert all(v == 0 for m, v in churn.items()
               if m.startswith("eavesdrop.") and m.endswith(".calls"))
    assert sweep["eavesdrop.revealed_symbols.calls"] == 0
    assert sweep["framework.repair.calls"] == 0
    assert sweep["eavesdrop.leakage.calls"] > 0
    assert audit["eavesdrop.revealed_symbols.calls"] > 0
    assert audit["mds.find_singular_minor.calls"] > 0


def test_bandwidth_invariants(tmp_path):
    k, n = SMALL["churn"]["k"], SMALL["churn"]["n"]
    m = traced("churn", tmp_path)
    assert m["framework.symbols_per_repair"] == k
    assert m["framework.symbols_per_reconstruct"] == k * k
    assert m["framework.symbols_per_deploy"] == (2 * n - 2 * k) * k


def test_tracer_restores_every_patch(tmp_path):
    before = (framework.repair, workloads.cli.eavesdrop_report,
              framework.TwinSystem.from_json_dict)
    traced("audit", tmp_path)
    after = (framework.repair, workloads.cli.eavesdrop_report,
             framework.TwinSystem.from_json_dict)
    assert before == after


def test_churn_check_catches_wrong_reconstruct(tmp_path, monkeypatch):
    workload = workloads.Churn(3, tmp_path, **SMALL["churn"])
    real = framework.reconstruct

    def off_by_one(system, node_type, indices):
        msg = real(system, node_type, indices)
        return framework.MessageMatrix(a1=type(msg.a1)(msg.a1.array + 1, msg.a1.field))

    monkeypatch.setattr(framework, "reconstruct", off_by_one)
    _, _, _, failed = run.drive(workload, rounds=200)
    assert failed == int(np.sum(workload.kinds[:200] == 1))


def test_sweep_check_catches_changed_report(tmp_path):
    sizes = dict(SMALL["sweep"], digests={"vandermonde": "0" * 64})
    workload = workloads.Sweep(1, tmp_path, **sizes)
    _, _, _, failed = run.drive(workload, rounds=1)
    assert failed == 1


def test_audit_check_catches_mismatched_snapshot(tmp_path, monkeypatch):
    workload = workloads.Audit(5, tmp_path, **SMALL["audit"])
    real = framework.TwinSystem.from_json_dict.__func__

    def drop_a_node(cls, doc):
        return framework.fail_node(real(cls, doc), 1, 1)

    monkeypatch.setattr(framework.TwinSystem, "from_json_dict",
                        classmethod(drop_a_node))
    _, _, attempted, failed = run.drive(workload, rounds=2)
    assert (attempted, failed) == (6, 2)


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == metric_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.OP_KINDS)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "2",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
