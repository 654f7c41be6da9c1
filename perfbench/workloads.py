"""The benchmark's three workloads and their output checks.

Each workload is a closed loop with one client.  Its constructor is the
set-up (config build and input generation from the seed); ``rounds()``
yields lists of :class:`Op`, and the runner stops between rounds.  An
op's ``run`` is the timed call; its ``check`` runs outside the timed
region and returns the number of failed checks.

Why these three (see README.md for the layer each one should move):

* sweep -- exhaustive ``twinstore eavesdrop`` sweeps at q=101: the
  leakage oracle and field elimination; no repair, reconstruct or
  ``revealed_symbols``.
* churn -- repair / reconstruct / deploy through the library at
  p = 2^31-1: framework, erasure decoding, chunked matmul and solves;
  no eavesdrop calls.
* audit -- scenario, single-spec report and snapshot round trip at
  q=101: ``revealed_symbols`` and the JSON loaders with their MDS check.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from twinstore import cli, eavesdrop, field, framework, secure


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], int]
    units: int = 1  # operations this call performs (specs, for a sweep)


def _subset(rng, n, k):
    """Sorted 1-based k-subset of 1..n."""
    return sorted(int(x) + 1 for x in rng.choice(n, size=k, replace=False))


# ----------------------------------------------------------------------
# sweep


# sha256 of the report bytes for the reference sweep; the sweep is
# exhaustive, so the report does not depend on the seed.
SWEEP_REPORT_SHA256 = {
    "vandermonde": "432305a3a55e3b4b9a1fce73102d6bb4944513d0a4815c328f11431fe84d291a",
    "systematic": "9569cad19b04a848181483cf838284ea474e0148484e946eb5b3bef532f6ad3d",
}


class Sweep:
    """`twinstore eavesdrop` exhaustive sweeps, one per code style per round."""

    name = "sweep"
    main_op = "sweep"
    trace_rounds = 1
    sample = 64  # rows per sweep whose leakage is recomputed independently

    def __init__(self, seed, workdir: Path, q=101, k=6, n=11, l1=2, l2=1,
                 digests=SWEEP_REPORT_SHA256):
        self.seed = seed
        self.q, self.k, self.n, self.l1, self.l2 = q, k, n, l1, l2
        self.digests = digests
        self.rng = np.random.default_rng(seed)
        nodes = 2 * n
        self.specs = sum(math.comb(nodes, a) * math.comb(nodes - a, total - a)
                         for total in range(l1 + l2 + 1) for a in range(total + 1))
        self.argv = {}
        self.paths = {}
        for style in ("vandermonde", "systematic"):
            self.paths[style] = workdir / f"sweep-{style}.json"
            self.argv[style] = [
                "eavesdrop", "--q", str(q), "--k", str(k), "--n1", str(n),
                "--n2", str(n), "--l1", str(l1), "--l2", str(l2),
                "--style", style, "--seed", str(seed),
                "--out", str(self.paths[style])]
        self._systems = {}

    def rounds(self):
        while True:
            yield [Op("sweep", lambda s=s: cli.main(self.argv[s]),
                      lambda rc, s=s: self._check(s, rc), self.specs)
                   for s in ("vandermonde", "systematic")]

    def _system(self, style):
        if style not in self._systems:
            f = field.PrimeField(self.q)
            config = framework.TwinConfig.build(f, self.n, self.n, self.k, style)
            capacity = self.k * (self.k - self.l1 - self.l2)
            layout = secure.make_secure_layout([0] * capacity, self.l1, self.l2,
                                               self.k, f, seed=self.seed)
            self._systems[style] = (framework.encode_system(config, layout.matrix),
                                    layout)
        return self._systems[style]

    def _check(self, style, rc) -> int:
        if rc != 0:
            return self.specs
        data = self.paths[style].read_bytes()
        bad = 0
        if self.digests.get(style) is not None:
            bad += hashlib.sha256(data).hexdigest() != self.digests[style]
        rows = json.loads(data)["specs"]
        bad += len(rows) != self.specs
        for row in rows:
            bad += ((row["guaranteed"] and row["leakage"] != 0)
                    or row["leakage"] > row["rank"])
        # leakage recomputed as rank(M) - rank(M[:, random]) by two plain
        # rank calls, independent of how eavesdrop.leakage computes it
        system, layout = self._system(style)
        for i in self.rng.choice(len(rows), size=min(self.sample, len(rows)),
                                 replace=False):
            row = rows[i]
            spec = eavesdrop.EavesdropperSpec.of(row["e1"], row["e2"])
            obs = eavesdrop.observe(system, layout, spec,
                                    eavesdrop.default_repair_plans(system, spec))
            full = field.rank(obs.matrix)
            random = (field.rank(obs.matrix.take_columns(layout.random_cols))
                      if obs.matrix.rows else 0)
            bad += (full, full - random) != (row["rank"], row["leakage"])
        return bad


# ----------------------------------------------------------------------
# churn


class Churn:
    """Fail+repair, reconstruct and deploy through the library API."""

    name = "churn"
    main_op = "reconstruct"
    trace_rounds = 2000
    schedule_len = 1 << 14

    def __init__(self, seed, workdir: Path, p=2**31 - 1, k=8, n=15):
        rng = np.random.default_rng(seed)
        f = field.PrimeField(p)
        self.k, self.n = k, n
        self.config = framework.TwinConfig.build(f, n, n, k)
        self.msg = framework.build_message_matrix(f.uniform(rng, k * k), k, f)
        self.reference = framework.encode_system(self.config, self.msg)
        m = self.schedule_len
        draw = rng.random(m)
        self.kinds = np.where(draw < 0.50, 0, np.where(draw < 0.98, 1, 2))
        self.types = rng.integers(1, 3, size=m)
        self.index = rng.integers(1, n + 1, size=m)
        self.sub_a = np.sort(np.argsort(rng.random((m, n)), axis=1)[:, :k], axis=1) + 1
        self.sub_b = np.sort(np.argsort(rng.random((m, n)), axis=1)[:, :k], axis=1) + 1
        self.system = self.reference

    def rounds(self):
        self.system = self.reference
        i = 0
        while True:
            yield [self._op(i % self.schedule_len)]
            i += 1

    def _op(self, i):
        kind, t, j = int(self.kinds[i]), int(self.types[i]), int(self.index[i])
        a, b = self.sub_a[i].tolist(), self.sub_b[i].tolist()
        if kind == 0:
            def run():
                broken = framework.fail_node(self.system, t, j)
                return framework.repair(broken, t, j, a)

            def check(out):
                self.system, content = out
                return not np.array_equal(content.symbols,
                                          self.reference.node(t, j).symbols)
            return Op("repair", run, check)
        if kind == 1:
            return Op("reconstruct",
                      lambda: framework.reconstruct(self.system, t, a),
                      lambda out: not out.a1 == self.msg.a1)
        return Op("deploy",
                  lambda: framework.deploy(self.config, self.msg, a, b),
                  lambda out: not out == self.reference)


# ----------------------------------------------------------------------
# audit


def _grs_generator(rng, q, k, n):
    """Generalized Reed-Solomon generator: MDS for distinct points, nonzero scales."""
    points = rng.choice(q, size=n, replace=False).astype(np.int64)
    scales = rng.integers(1, q, size=n)
    rows = [scales % q]
    for _ in range(1, k):
        rows.append(rows[-1] * points % q)
    return np.vstack(rows)


def _pick(rng, n, count):
    """`count` distinct (type, index) nodes."""
    picks = rng.choice(2 * n, size=count, replace=False)
    return [[1 + int(x) // n, 1 + int(x) % n] for x in picks]


def _payload_labels(revealed):
    return sum(1 for label in revealed if label.startswith("a"))


class Audit:
    """Per session: `twinstore scenario`, a single-spec `twinstore eavesdrop`
    report, and an `encode` snapshot reloaded with TwinSystem.from_json_dict."""

    name = "audit"
    main_op = "scenario"
    trace_rounds = 16
    documents = 16  # sessions cycle through these, so every scenario re-runs

    def __init__(self, seed, workdir: Path, q=101, k=6, n=11, l1=2, l2=1,
                 pairs=12, reconstructs=3, eavesdrops=3):
        rng = np.random.default_rng(seed)
        self.q, self.k, self.n, self.l1, self.l2 = q, k, n, l1, l2
        self.docs = []
        f = field.PrimeField(q)
        for d in range(self.documents):
            # a systematic generator 1 makes some storage reads reveal
            # source symbols outright, so `revealed` is not always empty
            gens = [field.FieldMatrix(_grs_generator(rng, q, k, n), f).rref().array,
                    _grs_generator(rng, q, k, n)]
            gen_docs = {f"generator{i + 1}": {"p": q, "n": n, "k": k,
                                              "generator": g.tolist()}
                        for i, g in enumerate(gens)}
            layout_seed = int(rng.integers(1 << 30))
            payload = rng.integers(0, q, size=k * (k - l1 - l2)).tolist()
            scenario = {
                "config": {"q": q, "n1": n, "n2": n, "k": k, "style": "explicit",
                           **gen_docs},
                "layout": {"l1": l1, "l2": l2, "seed": layout_seed,
                           "payload": payload},
                "seed": layout_seed,
                "events": self._events(rng, pairs, reconstructs, eavesdrops),
            }
            spied = _pick(rng, n, l1 + l2)
            e1, e2 = spied[:l1], spied[l1:]
            paths = {name: workdir / f"audit{d}-{name}.json"
                     for name in ("scenario", "log", "spec", "report",
                                  "payload", "snapshot")}
            docs = {"scenario": scenario,
                    "spec": {**gen_docs, "e1": e1, "e2": e2},
                    "payload": {**gen_docs, "payload": payload}}
            for name, doc in docs.items():
                paths[name].write_text(json.dumps(doc), encoding="utf-8")
            common = ["--style", "explicit", "--l1", str(l1), "--l2", str(l2),
                      "--seed", str(layout_seed)]
            self.docs.append({
                "paths": paths, "gens": gens, "payload": payload,
                "layout_seed": layout_seed, "first_log": None,
                "scenario_argv": ["scenario", "--in", str(paths["scenario"]),
                                  "--out", str(paths["log"])],
                "report_argv": ["eavesdrop", *common, "--in", str(paths["spec"]),
                                "--out", str(paths["report"])],
                "encode_argv": ["encode", *common, "--in", str(paths["payload"]),
                                "--out", str(paths["snapshot"])],
            })

    def _events(self, rng, pairs, reconstructs, eavesdrops):
        n, k = self.n, self.k
        recon_at = set(rng.choice(pairs, size=reconstructs, replace=False).tolist())
        eaves_at = set(rng.choice(range(1, pairs), size=eavesdrops,
                                  replace=False).tolist())
        deploy_at = int(rng.integers(pairs))
        events, repaired = [], []
        for i in range(pairs):
            t, j = int(rng.integers(1, 3)), int(rng.integers(1, n + 1))
            events.append({"op": "fail", "type": t, "index": j})
            events.append({"op": "repair", "type": t, "index": j,
                           "helpers": _subset(rng, n, k)})
            repaired.append([t, j])
            if i in recon_at:
                events.append({"op": "reconstruct", "type": int(rng.integers(1, 3)),
                               "nodes": _subset(rng, n, k)})
            if i in eaves_at:
                e2 = repaired[int(rng.integers(len(repaired)))]
                e1 = [x for x in _pick(rng, n, self.l1 + 1) if x != e2][:self.l1]
                events.append({"op": "eavesdrop", "e1": e1, "e2": [e2]})
            if i == deploy_at:
                events.append({"op": "deploy", "seeds1": _subset(rng, n, k),
                               "seeds2": _subset(rng, n, k)})
        return events

    def rounds(self):
        session = 0
        while True:
            doc = self.docs[session % len(self.docs)]
            session += 1
            yield [
                Op("scenario", lambda d=doc: cli.main(d["scenario_argv"]),
                   lambda rc, d=doc: self._check_scenario(d, rc)),
                Op("report", lambda d=doc: cli.main(d["report_argv"]),
                   lambda rc, d=doc: self._check_report(d, rc)),
                Op("snapshot", lambda d=doc: self._snapshot(d),
                   lambda out, d=doc: self._check_snapshot(d, out)),
            ]

    @staticmethod
    def _snapshot(doc):
        rc = cli.main(doc["encode_argv"])
        with open(doc["paths"]["snapshot"], encoding="utf-8") as fh:
            return rc, framework.TwinSystem.from_json_dict(json.load(fh))

    def _check_scenario(self, doc, rc) -> int:
        log = doc["paths"]["log"].read_bytes()
        if doc["first_log"] is None:
            doc["first_log"] = log
        bad = (rc != 0) + (log != doc["first_log"])
        for line in log.splitlines():
            record = json.loads(line)
            op = record["event"]["op"]
            if op == "reconstruct":
                bad += record["report"]["matches_source"] is not True
            elif op == "eavesdrop":
                bad += not self._report_ok(record["report"])
        return bad

    def _check_report(self, doc, rc) -> int:
        if rc != 0:
            return 1
        report = json.loads(doc["paths"]["report"].read_text(encoding="utf-8"))
        return not self._report_ok(report)

    @staticmethod
    def _report_ok(report) -> bool:
        return (_payload_labels(report["revealed"]) <= report["leakage"]
                <= report["rank"]
                and not (report["guaranteed"] and report["leakage"] != 0))

    def _check_snapshot(self, doc, out) -> int:
        rc, system = out
        if rc != 0:
            return 1
        # expected contents computed with plain numpy, not encode_system
        f = field.PrimeField(self.q)
        layout = secure.make_secure_layout(doc["payload"], self.l1, self.l2,
                                           self.k, f, seed=doc["layout_seed"])
        a = layout.matrix.a1.array
        want1 = a @ doc["gens"][0] % self.q
        want2 = a.T @ doc["gens"][1] % self.q
        got1 = np.stack([nc.symbols for nc in system.nodes1], axis=1)
        got2 = np.stack([nc.symbols for nc in system.nodes2], axis=1)
        return not (np.array_equal(got1, want1) and np.array_equal(got2, want2)
                    and all(system.live1) and all(system.live2)
                    and system.config.code1.generator.tolist()
                    == doc["gens"][0].tolist())


WORKLOADS = {w.name: w for w in (Sweep, Churn, Audit)}
