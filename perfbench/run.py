"""twinstore benchmark runner.

    python3 perfbench/run.py --workload {sweep,churn,audit,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; twinstore is imported from its
``src/``.  With ``--trace 0`` the workload runs closed-loop rounds for at
most S seconds, but at least one round (a sweep round is two full sweeps),
and the last stdout line is a JSON object whose metrics are the end-to-end
metrics of BENCHMARK.json.
With ``--trace 1`` a fixed number of rounds runs, each op once untraced
and once traced, and the metrics are the per-layer ones.  Results, the
environment stamp and spans are also written under ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from interpreter start-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6  # extra fresh-interpreter set-ups; setup_s is the median of 7
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
              ("main_op_ms_p50", "ms"), ("main_op_ms_p90", "ms"))
# op kinds of each workload; their latencies are printed, not gated (README.md)
OP_KINDS = {"sweep": ("sweep",), "churn": ("repair", "reconstruct", "deploy"),
            "audit": ("scenario", "report", "snapshot")}


def _import_twinstore():
    if not (ROOT / "src" / "twinstore" / "__init__.py").is_file():
        sys.exit(f"error: no twinstore sources under {ROOT / 'src'}; "
                 "run from a twinstore checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def percentile(xs, q):
    """Linear-interpolation percentile (q in 0..100) of a non-empty list."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(seed, loadavg):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": list(loadavg), "machine": platform.machine(),
            "seed": seed, "timer": "time.perf_counter"}


def drive(workload, *, seconds=None, rounds=None, tracer=None):
    """Run rounds until `rounds` are done, or while the next round (assumed as
    long as the last one) still ends within `seconds`; time every op.

    With a tracer, every op runs twice, untraced and then traced, so both
    see the same machine state; returns (untraced, traced) samples by kind.
    """
    samples, traced = defaultdict(list), defaultdict(list)
    attempted = failed = 0
    clock = time.perf_counter
    deadline = clock() + seconds if seconds is not None else None

    def execute(op, bucket, patched):
        nonlocal attempted, failed
        attempted += op.units
        try:
            with patched:
                start = clock()
                out = op.run()
                bucket[op.kind].append(clock() - start)
        except Exception as exc:  # a raising op is a failed op
            print(f"op {op.kind} raised {exc!r}", file=sys.stderr)
            failed += op.units
            return
        try:
            bad = int(op.check(out))
        except Exception as exc:  # an unreadable output fails its check
            print(f"check {op.kind} raised {exc!r}", file=sys.stderr)
            bad = op.units
        if bad:
            print(f"op {op.kind}: {bad} failed check(s)", file=sys.stderr)
        failed += min(bad, op.units)

    for done, batch in enumerate(workload.rounds(), start=1):
        round_start = clock()
        for op in batch:
            execute(op, samples, contextlib.nullcontext())
            if tracer is not None:
                tracer.op_id += 1
                execute(op, traced, tracer.installed())
        now = clock()
        if deadline is not None and 2 * now - round_start > deadline:
            break
        if rounds is not None and done >= rounds:
            break
    return samples, traced, attempted, failed


def summarize(workload, samples, attempted, setup_s):
    busy = sum(sum(v) for v in samples.values())
    main = [x * 1e3 for x in samples[workload.main_op]] or [0.0]
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": attempted / busy if busy else 0.0,
        "main_op_ms_p50": percentile(main, 50),
        "main_op_ms_p90": percentile(main, 90),
    }
    named = {}
    for kind in OP_KINDS[workload.name]:
        ms = [x * 1e3 for x in samples[kind]]
        named[f"{kind}_samples"] = len(ms)
        if ms:
            named[f"{kind}_ms_p50"] = percentile(ms, 50)
            named[f"{kind}_ms_p90"] = percentile(ms, 90)
    if workload.name == "sweep":
        named["specs_per_s"] = e2e["ops_per_s"]
    return e2e, named


def setup_probe(workloads, name, seed):
    """Set a workload up in this fresh interpreter; return seconds since start."""
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[name](seed, workdir)
    return time.perf_counter() - _T0


def probe_setups(name, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_one(workloads, name, seed, seconds, trace, loadavg):
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    if not trace:
        setup_s = time.perf_counter() - _T0
        samples, _, attempted, failed = drive(workload, seconds=seconds)
        setups = [setup_s] + probe_setups(name, seed)
        e2e, named = summarize(workload, samples, attempted,
                               statistics.median(setups))
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END}
        detail = {"setup_runs_s": setups, **named}
    else:
        from tracer import Tracer, metric_names
        rounds = workload.trace_rounds
        tracer = Tracer()
        plain, traced, attempted, failed = drive(workload, rounds=rounds,
                                                 tracer=tracer)
        busy_plain = sum(map(sum, plain.values()))
        busy_traced = sum(map(sum, traced.values()))
        values = tracer.metrics(busy_traced / busy_plain - 1 if busy_plain else 0.0)
        metrics = {m: {"value": values[m], "unit": u} for m, u in metric_names()}
        tracer.write_spans(OUT / f"spans-{name}.csv")
        detail = {"rounds": rounds, "untraced_s": busy_plain, "traced_s": busy_traced,
                  "spans": len(tracer.spans)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": name, "trace": trace, "seconds": seconds,
              "environment": environment(seed, loadavg), "detail": detail,
              **result}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result, record


def print_table(record):
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name:6} {metric:40} {entry['value']:>14.6g} {entry['unit']}")
    for key, value in record["detail"].items():
        if not isinstance(value, list):
            print(f"{name:6} {key:40} {value:>14.6g}")
    print(f"{name:6} {'attempted/failed':40} {record['attempted']:>8}/{record['failed']}")


def run_all(args):
    """Each workload in its own fresh interpreter; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in OP_KINDS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))


def main():
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*OP_KINDS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    workloads = _import_twinstore()
    if args.setup_probe:
        print(setup_probe(workloads, args.workload, args.seed))
        return
    if args.workload == "all":
        run_all(args)
        return
    result, record = run_one(workloads, args.workload, args.seed, args.seconds,
                             bool(args.trace), loadavg)
    print(json.dumps({"environment": record["environment"]}))
    print_table(record)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
