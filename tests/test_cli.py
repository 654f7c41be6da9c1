import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import twinstore
from twinstore import eavesdrop, field, loader, make_secure_layout, sim, \
    sweep_eavesdroppers
from twinstore.cli import build_parser, cmd_eavesdrop, main, sweep_report_text
from twinstore.demo import DEMO_G1, DEMO_G2
from twinstore.errors import MalformedInput
from twinstore.field import FieldMatrix, PrimeField
from twinstore.framework import TwinConfig, TwinSystem
from twinstore.mds import MdsCode, code_to_json, load_explicit, \
    make_systematic, make_vandermonde

from test_fuzz_inputs import FUZZ
from test_sim import demo_scenario_doc, non_spanning_config


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


PINNED_SWEEP_DIGESTS = [
    ("vandermonde",
     "62472054bb734a270087dd460a9ccde7f471fbc811e036ad8e1460ecb2736aa4"),
    ("systematic",
     "b801598b088b7b95fc91014a7edc1238a5e366e34d2563575d21a1b6c43e2aad"),
]


def pinned_sweep_argv(style, out):
    """Exhaustive sweep at q=11, k=4, n1=5, n2=6, l1=l2=1: 243 specs."""
    return ["eavesdrop", "--q", "11", "--k", "4", "--n1", "5", "--n2", "6",
            "--l1", "1", "--l2", "1", "--style", style, "--out", str(out)]


SAMPLED_SWEEP_DIGESTS = [
    ("vandermonde",
     "a6fa22f9cdaeb0fea28ea9d95a56411bceacea8fbbf589ec482bb882e1f5e82f"),
    ("systematic",
     "ef7c7d7be19229bf97c014499799569a49eef63cdc72bdf26b6b6109ca6dcc48"),
]


def sampled_sweep_argv(style, out):
    """Seeded sampled sweep at q=101, k=4, n1=n2=22, l1=2, l2=1: 105,952
    specs of three nodes exceed the enumeration limit, so each split draws
    up to 500 of them, 3,589 rows in all."""
    return ["eavesdrop", "--q", "101", "--k", "4", "--n1", "22", "--n2", "22",
            "--l1", "2", "--l2", "1", "--seed", "0", "--style", style,
            "--out", str(out)]


class TestBounds:
    def test_fig5_row_count(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        assert main(["bounds", "--kind", "fig5", "--k-max", "50",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 49  # header + 48 rows
        assert lines[0] == "k,l1,l2,s_twin,s_mbr,s_msr"

    def test_fig8_row_count(self, tmp_path):
        out = tmp_path / "fig8.csv"
        assert main(["bounds", "--kind", "fig8", "--k", "50",
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 50  # header + 49

    def test_fig9_row_count(self, tmp_path):
        out = tmp_path / "fig9.csv"
        assert main(["bounds", "--kind", "fig9", "--k", "50", "--l1", "2",
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 48  # header + 47

    def test_stdout_default(self, capsys):
        assert main(["bounds", "--kind", "fig5", "--k-max", "5"]) == 0
        assert capsys.readouterr().out.startswith("k,l1,l2,")

    def test_byte_stable_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bounds", "--kind", "fig9", "--k", "50", "--l1", "2",
              "--out", str(a)])
        main(["bounds", "--kind", "fig9", "--k", "50", "--l1", "2",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range_exits_2(self, capsys):
        assert main(["bounds", "--kind", "fig5", "--k-max", "1"]) == 2

    def test_unknown_kind_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--kind", "fig77"])
        assert err.value.code == 2


class TestDemo:
    def test_all_golden_checks_pass(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    def test_identical_output_across_runs(self, capsys):
        main(["demo"])
        first = capsys.readouterr().out
        main(["demo"])
        assert capsys.readouterr().out == first

    def test_tampered_generator_exits_1(self, tmp_path, capsys):
        f11 = PrimeField(11)
        doc = code_to_json(load_explicit(FieldMatrix(DEMO_G2, f11)))
        doc["generator"][3][5] = 2  # plants the singular minor
        path = write_json(tmp_path / "g2.json", doc)
        assert main(["demo", "--gen2", path]) == 1
        assert "NotMds" in capsys.readouterr().err


class TestScenario:
    def test_empty_scenario_exit_0(self, tmp_path):
        inp = write_json(tmp_path / "s.json", demo_scenario_doc())
        out = tmp_path / "log.jsonl"
        assert main(["scenario", "--in", inp, "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_repair_event_log(self, tmp_path):
        doc = demo_scenario_doc([
            {"op": "fail", "type": 2, "index": 2},
            {"op": "repair", "type": 2, "index": 2},
        ])
        inp = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "log.jsonl"
        assert main(["scenario", "--in", inp, "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[1]["event"]["op"] == "repair"
        assert records[1]["symbols"] == 4

    def test_error_records_exit_1(self, tmp_path):
        doc = demo_scenario_doc([
            {"op": "eavesdrop", "e1": [], "e2": [[2, 2]]},
        ])
        inp = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", "--in", inp, "--out",
                     str(tmp_path / "log.jsonl")]) == 1

    def test_malformed_exit_2(self, tmp_path, capsys):
        doc = demo_scenario_doc([{"op": "fail", "type": 1, "index": 0}])
        inp = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", "--in", inp]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["scenario", "--in", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["scenario", "--in", str(path)]) == 2


class TestEncode:
    def test_snapshot_matches_library(self, tmp_path):
        inp = write_json(tmp_path / "payload.json", list(range(1, 17)))
        out = tmp_path / "snap.json"
        assert main(["encode", "--q", "11", "--n1", "5", "--n2", "6",
                     "--k", "4", "--in", inp, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        system = TwinSystem.from_json_dict(doc)
        assert system.config.n == 11
        assert all(system.is_live(1, j) for j in range(1, 6))
        assert doc["layout"]["l1"] == 0

    def test_secure_encode_with_explicit_generators(self, tmp_path):
        f11 = PrimeField(11)
        doc = {
            "payload": list(range(1, 9)),
            "generator1": code_to_json(load_explicit(FieldMatrix(DEMO_G1, f11))),
            "generator2": code_to_json(load_explicit(FieldMatrix(DEMO_G2, f11))),
        }
        inp = write_json(tmp_path / "in.json", doc)
        out = tmp_path / "snap.json"
        assert main(["encode", "--style", "explicit", "--l1", "2",
                     "--seed", "7", "--in", inp, "--out", str(out)]) == 0
        snap = json.loads(out.read_text())
        assert snap["config"]["codes"][1]["generator"][3][5] == 6

    def test_short_plain_payload_pads(self, tmp_path):
        inp = write_json(tmp_path / "payload.json", [1, 2, 3])
        out = tmp_path / "snap.json"
        assert main(["encode", "--in", inp, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["layout"]["payload"] == [1, 2, 3] + [0] * 13

    def test_bad_payload_length_exit_1(self, tmp_path):
        # secure layouts demand the exact capacity; oversizes always fail
        short = write_json(tmp_path / "short.json", [1, 2, 3])
        assert main(["encode", "--l1", "1", "--in", short]) == 1
        long = write_json(tmp_path / "long.json", list(range(17)))
        assert main(["encode", "--in", long]) == 1


class TestEavesdrop:
    def test_single_spec_report(self, tmp_path):
        spec = {"e1": [[1, 1], [2, 2]], "e2": []}
        inp = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "report.json"
        assert main(["eavesdrop", "--style", "explicit", "--l1", "2",
                     "--in", write_json(tmp_path / "full.json", {
                         **spec,
                         "generator1": code_to_json(
                             load_explicit(FieldMatrix(DEMO_G1, PrimeField(11)))),
                         "generator2": code_to_json(
                             load_explicit(FieldMatrix(DEMO_G2, PrimeField(11)))),
                     }),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["rank"] == 7
        assert report["leakage"] == 2
        assert report["guaranteed"] is False

    @pytest.mark.filterwarnings("default:.*recommended 2k-1.*:UserWarning")
    def test_connectivity_advisory_is_one_warning_line(self, capsys):
        assert main(["eavesdrop", "--q", "11", "--n1", "3", "--n2", "3",
                     "--k", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: n1=3, n2=3 below the recommended 2k-1=5 connectivity; "
            "repair stays correct but availability margins shrink\n")
        assert json.loads(captured.out)["exhaustive"] is True

    def test_too_wide_explicit_generator_exits_1(self, tmp_path, capsys):
        f101 = PrimeField(101)
        doc = {"e1": [[1, 1]], "e2": [],
               "generator1": code_to_json(make_vandermonde(21, 2, f101)),
               "generator2": code_to_json(make_vandermonde(5, 2, f101))}
        inp = write_json(tmp_path / "spec.json", doc)
        assert main(["eavesdrop", "--style", "explicit", "--in", inp]) == 1
        assert "UnverifiedCode" in capsys.readouterr().err

    def test_sweep_report(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["eavesdrop", "--q", "11", "--n1", "7", "--n2", "8",
                     "--k", "4", "--l1", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["exhaustive"] is True
        assert {"l1": 0, "l2": 0, "leakage": 0} in report["worst_leakage"]
        protected = [r for r in report["specs"]
                     if r["e1"] and not r["e2"]
                     and all(t == 1 for t, _ in r["e1"])]
        assert protected and all(r["leakage"] == 0 for r in protected)

    # sha256 of the report bytes of one small exhaustive sweep (243 specs)
    # per code style, and of one seeded sampled sweep's rows; a faster
    # leakage or rank oracle must leave every byte unchanged
    @pytest.mark.parametrize("style, digest", PINNED_SWEEP_DIGESTS)
    def test_sweep_report_bytes_pinned(self, tmp_path, style, digest):
        out = tmp_path / "sweep.json"
        assert main(pinned_sweep_argv(style, out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("style, digest", PINNED_SWEEP_DIGESTS)
    def test_pinned_sweep_eliminates_once_per_position_set(
            self, tmp_path, monkeypatch, style, digest):
        # no observation matrix is assembled, and inside the sweep every
        # elimination is the first lookup of a distinct generator position
        # set in a code's pivot memo
        builds, eliminations, position_sets = [], [], set()
        sweeping = []
        monkeypatch.setattr(eavesdrop, "_functional_rows",
                            lambda *args: builds.append(args))
        raw_reduce = field._row_reduce

        def counting_reduce(*args, **kwargs):
            if sweeping:
                eliminations.append(args[0].shape)
            return raw_reduce(*args, **kwargs)

        raw_pivots = MdsCode.pivots

        def recording_pivots(code, positions):
            positions = tuple(positions)
            if positions:  # the empty set is rank 0 without an elimination
                position_sets.add((id(code), frozenset(positions)))
            return raw_pivots(code, positions)

        raw_sweep = sim.sweep_eavesdroppers

        def sweep(*args, **kwargs):
            sweeping.append(True)
            try:
                return raw_sweep(*args, **kwargs)
            finally:
                sweeping.pop()

        monkeypatch.setattr(field, "_row_reduce", counting_reduce)
        monkeypatch.setattr(MdsCode, "pivots", recording_pivots)
        monkeypatch.setattr(sim, "sweep_eavesdroppers", sweep)
        out = tmp_path / "sweep.json"
        assert main(pinned_sweep_argv(style, out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        specs = len(json.loads(out.read_text())["specs"])
        assert builds == []
        assert len(eliminations) == len(position_sets) < specs / 4

    @pytest.mark.parametrize("style, digest", PINNED_SWEEP_DIGESTS)
    def test_pinned_sweep_evaluates_once_per_node_set(
            self, tmp_path, monkeypatch, style, digest):
        # one verdict per distinct e1 | e2: 1 + 11 + 55 sets of at most two
        # of the 11 nodes, each from an observe call or one column_ranks
        # read of the sweep
        unions = []
        raw_observe, raw_column_ranks = sim.observe, sim.column_ranks

        def counting_observe(system, layout, spec, plans):
            unions.append(tuple(sorted(spec.e1 + spec.e2)))
            return raw_observe(system, layout, spec, plans)

        def counting_column_ranks(config, layout, nodes):
            unions.append(tuple(sorted(nodes)))
            return raw_column_ranks(config, layout, nodes)

        monkeypatch.setattr(sim, "observe", counting_observe)
        monkeypatch.setattr(sim, "column_ranks", counting_column_ranks)
        out = tmp_path / "sweep.json"
        assert main(pinned_sweep_argv(style, out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        expected = {tuple(sorted(map(tuple, r["e1"] + r["e2"])))
                    for r in json.loads(out.read_text())["specs"]}
        assert len(unions) == len(set(unions)) == len(expected) == 67
        assert set(unions) == expected

    @pytest.mark.parametrize("style, digest", PINNED_SWEEP_DIGESTS)
    def test_pinned_sweep_checks_plans_once_per_failed_type(
            self, tmp_path, monkeypatch, style, digest):
        # the first observed repair of each type brings its default
        # helpers; every later node set is observed as storage reads
        plans = []
        raw_observe = sim.observe

        def recording_observe(system, layout, spec, repair_plans):
            if repair_plans:
                plans.append(repair_plans)
            else:
                assert spec.e2 == ()
            return raw_observe(system, layout, spec, repair_plans)

        monkeypatch.setattr(sim, "observe", recording_observe)
        out = tmp_path / "sweep.json"
        assert main(pinned_sweep_argv(style, out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert plans == [{(1, 1): (1, 2, 3, 4)}, {(2, 1): (1, 2, 3, 4)}]

    @pytest.mark.parametrize("style, digest", SAMPLED_SWEEP_DIGESTS)
    def test_sampled_sweep_report_bytes_pinned(self, tmp_path, style, digest):
        out = tmp_path / "sweep.json"
        assert main(sampled_sweep_argv(style, out)) == 0
        data = out.read_bytes()
        assert json.loads(data)["exhaustive"] is False
        assert hashlib.sha256(data).hexdigest() == digest

    def test_sweep_helpers_not_spanning_exits_1(self, monkeypatch, capsys):
        config, _ = non_spanning_config()
        monkeypatch.setattr(loader, "config", lambda doc, style=None: config)
        assert main(["eavesdrop", "--q", "11", "--k", "2", "--l1", "1"]) == 1
        assert "SingularSubmatrix" in capsys.readouterr().err

    def test_sweep_stdout_matches_json_dumps(self, capsys):
        assert main(["eavesdrop", "--q", "11", "--n1", "7", "--n2", "8",
                     "--k", "4", "--l1", "1", "--l2", "1"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert len(report["specs"]) > 100
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_sampled_sweep_rows_pinned(self):
        f11 = PrimeField(11)
        config = TwinConfig.build(f11, 5, 6, 4, "vandermonde")
        layout = make_secure_layout([0] * 8, 1, 1, 4, f11, seed=0)
        result = sweep_eavesdroppers(config, layout, max_budget=3, seed=3,
                                     enumeration_limit=50,
                                     samples_per_split=6)
        assert not result.exhaustive and len(result.rows) == 55
        blob = json.dumps([result.rows, sorted(result.worst_leakage.items()),
                           result.exhaustive], sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "744a3cf72ba6cfbb053fbc43dce44320b93c3af9de7304ecb3c6064508e331de")
        report = {"exhaustive": result.exhaustive,
                  "worst_leakage": [{"l1": l1, "l2": l2, "leakage": leak}
                                    for (l1, l2), leak
                                    in sorted(result.worst_leakage.items())],
                  "specs": list(result.rows)}
        assert sweep_report_text(report) == json.dumps(
            report, sort_keys=True, indent=2) + "\n"


NODE_LISTS = st.lists(st.tuples(st.sampled_from([1, 2]),
                                 st.integers(1, 120)).map(list), max_size=3)
SWEEP_ROWS = st.fixed_dictionaries({
    "e1": NODE_LISTS, "e2": NODE_LISTS, "guaranteed": st.booleans(),
    "l1": st.integers(0, 12), "l2": st.integers(0, 12),
    "leakage": st.integers(0, 400), "rank": st.integers(0, 400)})
WORST_LEAKAGE = st.lists(st.fixed_dictionaries({
    "l1": st.integers(0, 12), "l2": st.integers(0, 12),
    "leakage": st.integers(0, 400)}), max_size=3)


@FUZZ
@given(report=st.fixed_dictionaries({
    "exhaustive": st.booleans(), "worst_leakage": WORST_LEAKAGE,
    "specs": st.lists(SWEEP_ROWS, max_size=6)}))
@example(report={"exhaustive": True, "worst_leakage": [], "specs": []})
@example(report={  # tuple rows, as sweep_eavesdroppers makes them, then
    "exhaustive": True,  # a list row of the same nodes
    "worst_leakage": [{"l1": 2, "l2": 0, "leakage": 4}],
    "specs": [{"e1": ((1, 1), (2, 3)), "e2": (), "guaranteed": False,
               "l1": 2, "l2": 0, "leakage": 4, "rank": 7},
              {"e1": ((1, 1),), "e2": ((2, 3),), "guaranteed": False,
               "l1": 1, "l2": 1, "leakage": 4, "rank": 7},
              {"e1": ((1, 1),), "e2": ((2, 4),), "guaranteed": True,
               "l1": 1, "l2": 1, "leakage": 0, "rank": 7},
              {"e1": [[1, 1]], "e2": [[2, 3]], "guaranteed": False,
               "l1": 1, "l2": 1, "leakage": 4, "rank": 7}]})
@example(report={
    "exhaustive": False,
    "worst_leakage": [{"l1": 0, "l2": 1, "leakage": 12}],
    "specs": [{"e1": [], "e2": [[2, 11]], "guaranteed": True, "l1": 0,
               "l2": 1, "leakage": 0, "rank": 6},
              {"e1": [[1, 10], [2, 3]], "e2": [], "guaranteed": False,
               "l1": 2, "l2": 0, "leakage": 10, "rank": 11}]})
def test_sweep_report_text_matches_json_dumps(report):
    assert sweep_report_text(report) == json.dumps(
        report, sort_keys=True, indent=2) + "\n"


def explicit_q101_docs():
    """Generator documents at q=101, k=4, n1=n2=7: generator 1 is
    systematic, so reading one of its first four Type 1 nodes reveals a
    whole message-matrix column."""
    f101 = PrimeField(101)
    return {"generator1": code_to_json(make_systematic(7, 4, f101)),
            "generator2": code_to_json(make_vandermonde(7, 4, f101,
                                                        range(3, 10)))}


class TestRevealedBytesPinned:
    """sha256 of outputs that carry a non-empty `revealed` list; a faster
    revealed-set computation must leave every byte unchanged."""

    def test_scenario_log(self, tmp_path):
        events = [
            {"op": "fail", "type": 2, "index": 3},
            {"op": "repair", "type": 2, "index": 3,
             "helpers": [[1, 2], [1, 4], [1, 5], [1, 7]]},
            {"op": "fail", "type": 1, "index": 6},
            {"op": "repair", "type": 1, "index": 6, "helpers": [1, 2, 3, 6]},
            {"op": "eavesdrop", "e1": [[1, 1]], "e2": [[2, 3]]},
            {"op": "eavesdrop", "e1": [[1, 2], [2, 1]], "e2": []},
            {"op": "eavesdrop", "e1": [[2, 2]], "e2": [[1, 6]]},
            {"op": "reconstruct", "type": 1, "nodes": [1, 3, 5, 6]},
            {"op": "eavesdrop", "e1": [], "e2": [[1, 6], [2, 3]]},
        ]
        docs = explicit_q101_docs()
        logs = []
        for protected in (1, 2):
            doc = {"config": {"q": 101, "n1": 7, "n2": 7, "k": 4,
                              "style": "explicit", **docs},
                   "layout": {"l1": 1, "l2": 1, "seed": 5,
                              "payload": list(range(10, 18)),
                              "protected_type": protected},
                   "seed": 0, "events": events}
            out = tmp_path / f"log{protected}.jsonl"
            assert main(["scenario", "--in", write_json(tmp_path / "s.json", doc),
                         "--out", str(out)]) == 0
            logs.append(out.read_bytes())
        assert [hashlib.sha256(b).hexdigest() for b in logs] == [
            "aa878eb2ba9f85d17a91c34f95c7ce4da413e01e2481b4511b2dccd457cb7c10",
            "cc758627865c74db211ac0c06165c777fb78e3f8fe80b093b8fa2f18b64f5b2f",
        ]

    def test_single_spec_report(self, tmp_path):
        spec = {"e1": [[1, 4], [2, 5]], "e2": [[1, 6]], **explicit_q101_docs()}
        out = tmp_path / "report.json"
        assert main(["eavesdrop", "--style", "explicit", "--l1", "2",
                     "--l2", "1", "--seed", "9",
                     "--in", write_json(tmp_path / "spec.json", spec),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["revealed"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b6440db7b647f3878ab4e660a68f4604ce6a614639b441074057daaba6511080")


# Inputs that cannot be parsed into the object they name: each exits 2
# with a one-line message.  The argv gets `--in <doc>` when doc is given.
MALFORMED_PROBES = [
    ("spec-node-type-3", ["eavesdrop"], {"e1": [[3, 1]]}),
    ("spec-e1-not-a-list", ["eavesdrop"], {"e1": "x"}),
    ("spec-not-an-object", ["eavesdrop"], "abc"),
    ("spec-overlapping-nodes", ["eavesdrop", "--l1", "1", "--l2", "1"],
     {"e1": [[1, 1]], "e2": [[1, 1]]}),
    ("spec-index-outside-config", ["eavesdrop"], {"e1": [[1, 99]]}),
    ("payload-string-symbol", ["encode"], [1, 2, "a"]),
    ("payload-not-a-list", ["encode"], {"payload": 5}),
    ("payload-ragged", ["encode"], [[1, 2], [3]]),
    ("explicit-generators-not-objects", ["encode", "--style", "explicit"],
     {"payload": [1, 2], "generator1": 3, "generator2": 4}),
    ("non-prime-modulus", ["eavesdrop", "--q", "10"], None),
    ("scenario-string-node-type", ["scenario"],
     demo_scenario_doc([{"op": "eavesdrop", "e1": [["a", 1]]}])),
]


def one_error_line(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


class TestExitCodes:
    @pytest.mark.parametrize("argv, doc", [p[1:] for p in MALFORMED_PROBES],
                             ids=[p[0] for p in MALFORMED_PROBES])
    def test_malformed_input_exits_2(self, tmp_path, capsys, argv, doc):
        if doc is not None:
            argv = [*argv, "--in", write_json(tmp_path / "in.json", doc)]
        assert main(argv) == 2
        one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("argv, error", [
        (["eavesdrop", "--k", "0"], "DimensionMismatch"),   # k outside 1..n
        (["eavesdrop", "--l1", "5"], "BudgetExceeded"),     # budget >= k = 4
    ])
    def test_valid_input_the_math_refuses_exits_1(self, capsys, argv, error):
        assert main(argv) == 1
        assert one_error_line(capsys.readouterr().err).startswith(f"error: {error}:")

    @pytest.mark.parametrize("argv, wrap", [
        (["eavesdrop", "--style", "explicit"], lambda g: {**g, "e1": [[1, 1]]}),
        (["encode", "--style", "explicit"],
         lambda g: {**g, "payload": list(range(16))}),
        (["scenario"], lambda g: {"config": {"style": "explicit", **g}}),
    ], ids=["eavesdrop", "encode", "scenario"])
    def test_declared_sizes_disagreeing_with_generator_exit_2(
            self, tmp_path, capsys, argv, wrap):
        # one message on every path; `mds.code_from_json` itself still
        # raises DimensionMismatch for library callers
        gen = code_to_json(make_vandermonde(7, 4, PrimeField(11)))
        gens = {"generator1": {**gen, "n": 8}, "generator2": gen}
        in_path = write_json(tmp_path / "in.json", wrap(gens))
        assert main([*argv, "--in", in_path]) == 2
        assert one_error_line(capsys.readouterr().err) == (
            "error: declared (n=8, k=4) does not match generator shape 4x7")
        with pytest.raises(MalformedInput):
            loader.code(gens["generator1"])

    @pytest.mark.parametrize("argv, doc", [
        (["bounds", "--kind", "fig5", "--k-max", "4"], None),
        (["scenario"], demo_scenario_doc()),
        (["encode"], [1, 2, 3]),
        (["eavesdrop"], {"e1": [[1, 1]]}),
    ], ids=["bounds", "scenario", "encode", "eavesdrop"])
    @pytest.mark.parametrize("out", ["a-directory", "missing-parent"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, argv, doc, out):
        target = tmp_path if out == "a-directory" else tmp_path / "missing" / "x"
        if doc is not None:
            argv = [*argv, "--in", write_json(tmp_path / "in.json", doc)]
        assert main([*argv, "--out", str(target)]) == 2
        assert one_error_line(capsys.readouterr().err).startswith(
            f"error: cannot write {target}: ")


class TestParserReuse:
    """main parses with one parser per process; a call leaves nothing
    behind that the next call would read."""

    @staticmethod
    def argvs(tmp_path):
        payload = write_json(tmp_path / "payload.json", list(range(1, 7)))
        spec = write_json(tmp_path / "spec.json", {"e1": [[1, 1]], "e2": [[2, 2]]})
        return {
            "bounds": ["bounds", "--kind", "fig9", "--k", "6", "--l1", "3"],
            "encode": ["encode", "--q", "101", "--k", "3", "--n1", "6",
                       "--n2", "5", "--l1", "1", "--seed", "4", "--in", payload],
            "eavesdrop": ["eavesdrop", "--in", spec],
        }

    @staticmethod
    def fresh_process(argv, out):
        src = Path(twinstore.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "twinstore.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    @pytest.mark.parametrize("order", [("bounds", "encode", "eavesdrop"),
                                       ("encode", "eavesdrop", "bounds")])
    def test_back_to_back_equals_fresh_processes(self, tmp_path, order):
        argvs = self.argvs(tmp_path)
        for name in order:
            assert main([*argvs[name], "--out", str(tmp_path / name)]) == 0
        for name in order:
            fresh = self.fresh_process(argvs[name], tmp_path / f"{name}.fresh")
            assert (tmp_path / name).read_bytes() == fresh, name

    def test_no_default_leaks(self, tmp_path):
        argvs = self.argvs(tmp_path)
        parser = build_parser()
        assert build_parser() is parser
        for first, second in (("encode", "eavesdrop"), ("bounds", "eavesdrop"),
                              ("eavesdrop", "encode")):
            parser.parse_args(argvs[first])
            got = vars(parser.parse_args(argvs[second]))
            assert got == vars(build_parser.__wrapped__().parse_args(argvs[second]))
        assert vars(parser.parse_args(["eavesdrop"])) == {
            "command": "eavesdrop", "q": 11, "n1": 5, "n2": 6, "k": 4,
            "style": "vandermonde", "seed": 0, "l1": 0, "l2": 0,
            "infile": None, "out": None, "func": cmd_eavesdrop}
