import json
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

from twinstore import loader, sim
from twinstore import (
    EavesdropperSpec,
    PrimeField,
    default_repair_plans,
    eavesdrop_report,
    encode_system,
    guaranteed_secure_set,
    load_scenario,
    observe,
    run,
    scenario_from_json,
    sweep_eavesdroppers,
)
from twinstore.errors import (
    MalformedScenario,
    MixedTypes,
    SingularSubmatrix,
    WrongHelperType,
)
from twinstore.demo import DEMO_G1, DEMO_G2
from twinstore.eavesdrop import leakage_by_elimination
from twinstore.framework import TwinConfig
from twinstore.mds import MdsCode, load_explicit, make_vandermonde
from twinstore.field import FieldMatrix
from twinstore.secure import make_secure_layout, node_set_verdict

from shared_configs import build_config
from test_fuzz_inputs import FUZZ, scenarios


def non_spanning_config(k=2):
    """A non-MDS config at q=11 with n1 = n2 = k+2 whose first two Type 1
    generator columns are parallel, so the default helpers of a failed
    Type 2 node do not span F^k; and a layout with budget k-1."""
    f11 = PrimeField(11)
    g = make_vandermonde(k + 2, k, f11).generator.array.copy()
    g[:, 1] = 2 * g[:, 0] % 11
    code1 = MdsCode(style="explicit", generator=FieldMatrix(g, f11))
    config = TwinConfig(code1, make_vandermonde(k + 2, k, f11))
    return config, make_secure_layout([0] * k, k - 1, 0, k, f11)


def spanning_non_mds_config():
    """A non-MDS config at q=11, k=3, n1 = n2 = 6: Type 1 column 5 is
    parallel to column 4 and Type 2 column 6 to column 1, while the
    default helpers, columns 1-3, still span F^3."""
    f11 = PrimeField(11)
    codes = []
    for dependent, source in ((4, 3), (5, 0)):
        g = make_vandermonde(6, 3, f11).generator.array.copy()
        g[:, dependent] = 2 * g[:, source] % 11
        codes.append(MdsCode(style="explicit", generator=FieldMatrix(g, f11)))
    return TwinConfig(*codes)


def demo_scenario_doc(events=(), l1=2, l2=0, payload=None, seed=7):
    f11 = PrimeField(11)
    g1 = loader.code_doc(load_explicit(FieldMatrix(DEMO_G1, f11)))
    g2 = loader.code_doc(load_explicit(FieldMatrix(DEMO_G2, f11)))
    k = 4
    if payload is None:
        payload = list(range(1, k * (k - l1 - l2) + 1))
    return {
        "config": {"q": 11, "n1": 5, "n2": 6, "k": 4, "style": "explicit",
                   "generator1": g1, "generator2": g2},
        "layout": {"l1": l1, "l2": l2, "seed": seed, "payload": payload},
        "events": list(events),
    }


class TestParsing:
    def test_empty_scenario(self):
        scenario = scenario_from_json(demo_scenario_doc())
        assert scenario.events == ()
        assert scenario.config.k == 4

    def test_vandermonde_config_shorthand(self):
        doc = {"config": {"q": 11, "n1": 7, "n2": 8, "k": 4},
               "layout": {"payload": list(range(16))},
               "events": []}
        scenario = scenario_from_json(doc)
        assert scenario.config.code1.style == "vandermonde"

    def test_unknown_op(self):
        with pytest.raises(MalformedScenario):
            scenario_from_json(demo_scenario_doc([{"op": "explode"}]))

    def test_zero_index_rejected(self):
        with pytest.raises(MalformedScenario):
            scenario_from_json(demo_scenario_doc(
                [{"op": "fail", "type": 1, "index": 0}]))

    def test_out_of_range_index(self):
        with pytest.raises(MalformedScenario):
            scenario_from_json(demo_scenario_doc(
                [{"op": "fail", "type": 1, "index": 6}]))

    def test_bad_type(self):
        with pytest.raises(MalformedScenario):
            scenario_from_json(demo_scenario_doc(
                [{"op": "fail", "type": 3, "index": 1}]))

    def test_repair_of_live_node_rejected(self):
        with pytest.raises(MalformedScenario):
            scenario_from_json(demo_scenario_doc(
                [{"op": "repair", "type": 1, "index": 1}]))

    def test_double_fail_rejected(self):
        with pytest.raises(MalformedScenario):
            scenario_from_json(demo_scenario_doc(
                [{"op": "fail", "type": 1, "index": 1},
                 {"op": "fail", "type": 1, "index": 1}]))

    def test_fail_repair_fail_sequence_allowed(self):
        doc = demo_scenario_doc([
            {"op": "fail", "type": 1, "index": 1},
            {"op": "repair", "type": 1, "index": 1},
            {"op": "fail", "type": 1, "index": 1},
        ])
        assert len(scenario_from_json(doc).events) == 3

    def test_starved_repair_target_can_be_repaired_again(self):
        events = [{"op": "fail", "type": 2, "index": j} for j in range(1, 7)]
        events += [{"op": "fail", "type": 1, "index": 1},
                   # starves: only 4 live type-1 for a type-2 repair is fine,
                   # but a type-1 repair needs type-2 helpers and none are live
                   {"op": "repair", "type": 1, "index": 1},
                   {"op": "repair", "type": 2, "index": 1},
                   {"op": "repair", "type": 1, "index": 1}]
        scenario_from_json(demo_scenario_doc(events))  # must validate

    def test_wrong_helper_type_wrapped(self):
        doc = demo_scenario_doc([
            {"op": "fail", "type": 1, "index": 1},
            {"op": "repair", "type": 1, "index": 1,
             "helpers": [[1, 2], [2, 3], [2, 4], [2, 5]]},
        ])
        with pytest.raises(MalformedScenario) as err:
            scenario_from_json(doc)
        assert isinstance(err.value.__cause__, WrongHelperType)

    def test_mixed_reconstruct_nodes_wrapped(self):
        doc = demo_scenario_doc([
            {"op": "reconstruct", "type": 1,
             "nodes": [[1, 1], [1, 2], [2, 3], [1, 4]]},
        ])
        with pytest.raises(MalformedScenario) as err:
            scenario_from_json(doc)
        assert isinstance(err.value.__cause__, MixedTypes)

    def test_eavesdrop_budget_validated(self):
        doc = demo_scenario_doc([
            {"op": "eavesdrop",
             "e1": [[1, 1], [1, 2], [1, 3], [1, 4]], "e2": []},
        ])
        with pytest.raises(MalformedScenario):
            scenario_from_json(doc)

    def test_bad_layout_rejected(self):
        doc = demo_scenario_doc()
        doc["layout"]["payload"] = [1, 2, 3]  # secure layout: exact length
        with pytest.raises(MalformedScenario):
            scenario_from_json(doc)

    def test_plain_layout_pads_short_payload(self):
        doc = demo_scenario_doc(l1=0, l2=0, payload=[1, 2, 3])
        scenario = scenario_from_json(doc)
        assert scenario.layout.payload.tolist() == [1, 2, 3] + [0] * 13

    def test_layout_protected_type_passthrough(self):
        doc = demo_scenario_doc()
        doc["layout"]["protected_type"] = 2
        assert scenario_from_json(doc).layout.protected_type == 2

    def test_top_level_seed_is_ignored(self):
        # the layout's own seed draws the random symbols; the scenario
        # table accepts an integer top-level "seed" and nothing reads it
        doc = demo_scenario_doc([{"op": "eavesdrop", "e1": [[1, 1], [2, 2]]}])
        log = run(scenario_from_json(doc)).to_jsonl()
        for seed in (5, 2**40):
            assert run(scenario_from_json({**doc, "seed": seed})).to_jsonl() == log
        with pytest.raises(MalformedScenario, match="scenario seed"):
            scenario_from_json({**doc, "seed": "x"})

    def test_deploy_seed_validation(self):
        for bad in ([1, 2, 3], [1, 1, 2, 3], [1, 2, 3, 6]):
            doc = demo_scenario_doc([
                {"op": "deploy", "seeds1": bad, "seeds2": [1, 2, 3, 4]},
            ])
            with pytest.raises(MalformedScenario):
                scenario_from_json(doc)

    def test_file_loading_and_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(demo_scenario_doc()))
        assert load_scenario(path).config.n2 == 6
        path.write_text("{not json")
        with pytest.raises(MalformedScenario):
            load_scenario(path)


class TestRun:
    def test_empty_events(self):
        scenario = scenario_from_json(demo_scenario_doc())
        log = run(scenario)
        assert log.records == []
        assert log.final_system == encode_system(scenario.config,
                                                 scenario.layout.matrix)

    def test_fail_then_repair_restores_content(self):
        scenario = scenario_from_json(demo_scenario_doc([
            {"op": "fail", "type": 2, "index": 2},
            {"op": "repair", "type": 2, "index": 2},
        ]))
        baseline = encode_system(scenario.config, scenario.layout.matrix)
        log = run(scenario)
        assert not log.has_errors
        repair_record = log.records[1]
        assert repair_record["symbols"] == 4
        assert log.final_system.node(2, 2) == baseline.node(2, 2)

    def test_explicit_helpers_recorded_for_eavesdrop(self):
        scenario = scenario_from_json(demo_scenario_doc([
            {"op": "fail", "type": 2, "index": 2},
            {"op": "repair", "type": 2, "index": 2,
             "helpers": [1, 3, 4, 5]},
            {"op": "eavesdrop", "e1": [[2, 1]], "e2": [[2, 2]]},
        ]))
        log = run(scenario)
        report = log.records[2]["report"]
        assert report["rank"] == 8
        assert report["leakage"] == 4

    def test_repair_error_recorded_and_run_continues(self):
        # explicit helpers that include a failed node: the repair raises
        # NotEnoughHelpers, which becomes an error record, and the run
        # goes on with the node still failed
        doc = {"config": {"q": 11, "n1": 5, "n2": 5, "k": 3},
               "layout": {"payload": list(range(1, 10))},
               "events": [{"op": "fail", "type": 2, "index": 1},
                          {"op": "fail", "type": 1, "index": 4},
                          {"op": "repair", "type": 1, "index": 4, "helpers": [1, 2, 3]},
                          {"op": "reconstruct", "type": 1}]}
        log = run(scenario_from_json(doc))
        repair, reconstruct = log.records[2:]
        assert (repair["ok"], repair["error"], repair["symbols"]) == (
            False, "NotEnoughHelpers", 0)
        assert repair["event"]["helpers"] == (1, 2, 3)
        assert reconstruct["ok"] and reconstruct["report"] == {
            "nodes": [1, 2, 3], "matches_source": True}
        assert not log.final_system.is_live(1, 4)

    def test_repair_starvation_recorded(self):
        events = [{"op": "fail", "type": 1, "index": 1}]
        events += [{"op": "fail", "type": 2, "index": j} for j in range(1, 4)]
        events += [{"op": "repair", "type": 1, "index": 1}]
        log = run(scenario_from_json(demo_scenario_doc(events)))
        last = log.records[-1]
        assert not last["ok"]
        assert last["error"] == "RepairStarvation"
        assert log.has_errors

    def test_missing_repair_plan_recorded(self):
        log = run(scenario_from_json(demo_scenario_doc([
            {"op": "eavesdrop", "e1": [], "e2": [[2, 2]]},
        ])))
        assert log.records[0]["error"] == "MissingRepairPlan"

    def test_reconstruct_records_match(self):
        log = run(scenario_from_json(demo_scenario_doc([
            {"op": "reconstruct", "type": 2},
            {"op": "reconstruct", "type": 1, "nodes": [2, 3, 4, 5]},
        ])))
        assert all(r["report"]["matches_source"] for r in log.records)
        assert all(r["symbols"] == 16 for r in log.records)

    def test_deploy_event(self):
        scenario = scenario_from_json(demo_scenario_doc([
            {"op": "deploy", "seeds1": [1, 2, 3, 4], "seeds2": [1, 2, 3, 4]},
        ]))
        log = run(scenario)
        assert log.final_system == encode_system(scenario.config,
                                                 scenario.layout.matrix)
        assert log.records[0]["symbols"] == (11 - 8) * 4

    def test_determinism_byte_identical(self):
        events = [
            {"op": "fail", "type": 2, "index": 2},
            {"op": "repair", "type": 2, "index": 2},
            {"op": "eavesdrop", "e1": [[1, 1]], "e2": [[2, 2]]},
            {"op": "reconstruct", "type": 1},
        ]
        a = run(scenario_from_json(demo_scenario_doc(events))).to_jsonl()
        b = run(scenario_from_json(demo_scenario_doc(events))).to_jsonl()
        assert a == b
        assert len(a.strip().split("\n")) == 4

    def test_conservation_after_failures(self):
        rng = np.random.default_rng(41)
        events = []
        failed = set()
        # random fail/repair churn, then a final reconstruction
        for _ in range(12):
            t = int(rng.integers(1, 3))
            n = 5 if t == 1 else 6
            j = int(rng.integers(1, n + 1))
            if (t, j) in failed:
                events.append({"op": "repair", "type": t, "index": j})
                failed.remove((t, j))
            else:
                # keep at least k live per type so repairs never starve
                live_same = (5 if t == 1 else 6) - sum(1 for x in failed
                                                       if x[0] == t)
                if live_same <= 4:
                    continue
                events.append({"op": "fail", "type": t, "index": j})
                failed.add((t, j))
        for t, j in sorted(failed):
            events.append({"op": "repair", "type": t, "index": j})
        events.append({"op": "reconstruct", "type": 1})
        events.append({"op": "reconstruct", "type": 2})
        log = run(scenario_from_json(demo_scenario_doc(events)))
        assert not log.has_errors
        for record in log.records:
            if record["event"]["op"] == "reconstruct":
                assert record["report"]["matches_source"]

    def test_bandwidth_accounting(self):
        events = [
            {"op": "fail", "type": 2, "index": 2},
            {"op": "repair", "type": 2, "index": 2},
            {"op": "fail", "type": 1, "index": 3},
            {"op": "repair", "type": 1, "index": 3},
            {"op": "reconstruct", "type": 2},
        ]
        log = run(scenario_from_json(demo_scenario_doc(events)))
        repairs = sum(1 for r in log.records
                      if r["event"]["op"] == "repair" and r["ok"])
        recs = sum(1 for r in log.records
                   if r["event"]["op"] == "reconstruct" and r["ok"])
        assert sum(r["symbols"] for r in log.records) == repairs * 4 + recs * 16


class TestSweep:
    def test_demo_budget_two_contains_cross_type_row(self, demo_config,
                                                     demo_layout):
        result = sweep_eavesdroppers(demo_config, demo_layout, max_budget=2)
        assert result.exhaustive
        hit = [r for r in result.rows
               if r["e1"] == ((1, 1), (2, 2)) and r["e2"] == ()]
        assert len(hit) == 1
        assert hit[0]["rank"] == 7
        assert hit[0]["leakage"] == 2

    def test_protected_type_rows_all_zero(self, f11):
        config = build_config(f11, 7, 8, 4)
        layout = make_secure_layout([0] * 8, 2, 0, 4, f11, protected_type=1)
        result = sweep_eavesdroppers(config, layout, max_budget=2)
        type1_rows = [r for r in result.rows
                      if not r["e2"] and r["e1"]
                      and all(t == 1 for t, _ in r["e1"])]
        assert type1_rows
        assert all(r["leakage"] == 0 for r in type1_rows)
        assert all(r["guaranteed"] for r in type1_rows)

    @pytest.mark.parametrize("style", ["vandermonde", "systematic"])
    @pytest.mark.parametrize("protected_type", [1, 2])
    def test_rows_agree_with_reports(self, f11, style, protected_type):
        config = build_config(f11, 5, 6, 4, style=style)
        layout = make_secure_layout([0] * 8, 1, 1, 4, f11,
                                    protected_type=protected_type)
        system = encode_system(config, layout.matrix)
        result = sweep_eavesdroppers(config, layout, max_budget=2)
        assert any(row["l2"] >= 1 for row in result.rows)
        for row in result.rows:
            spec = EavesdropperSpec.of(row["e1"], row["e2"])
            report = eavesdrop_report(system, layout, spec,
                                      default_repair_plans(system, spec))
            assert report["spec"] == EavesdropperSpec(
                e1=row["e1"], e2=row["e2"]).to_json_dict()
            for key in ("rank", "leakage", "guaranteed"):
                assert row[key] == report[key], (row, report)
            assert row["guaranteed"] == guaranteed_secure_set(
                config, layout, spec.e1, spec.e2).guaranteed
        assert 0 < sum(row["guaranteed"] for row in result.rows) < len(result.rows)

    @pytest.mark.parametrize("style, protected_type, limit", [
        *((style, t, 50) for style in ("vandermonde", "systematic")
          for t in (1, 2)),
        *(("explicit", t, limit) for t in (1, 2) for limit in (10**5, 50))])
    def test_rows_equal_verdict_of_own_spec(self, f11, style, protected_type,
                                            limit):
        # seeded sampled sweeps, and a non-MDS explicit code whose default
        # helpers span: each row is its own spec observed with its plans,
        # ranked by elimination of its matrix M; the guarantee is every
        # node protected and, by elimination, the first l rows of their
        # generator columns of full column rank
        if style == "explicit":
            config = spanning_non_mds_config()
        else:
            config = build_config(f11, 5, 6, 4, style=style)
        k = config.k
        layout = make_secure_layout([0] * k * (k - 2), 1, 1, k, f11,
                                    protected_type=protected_type)
        system = encode_system(config, layout.matrix)
        result = sweep_eavesdroppers(config, layout, max_budget=k - 1,
                                     seed=protected_type, enumeration_limit=limit,
                                     samples_per_split=12)
        assert result.exhaustive == (limit == 10**5)
        assert any(row["l2"] >= 1 for row in result.rows)
        protected = config.code_for(protected_type).generator.array
        for row in result.rows:
            spec = EavesdropperSpec.of(row["e1"], row["e2"])
            obs = observe(system, layout, spec, default_repair_plans(system, spec))
            nodes = spec.e1 + spec.e2
            guaranteed = all(t == protected_type for t, _ in nodes) and (
                not nodes or FieldMatrix(protected[:layout.budget, [
                    j - 1 for _, j in nodes]], f11).rank() == len(nodes))
            assert row == {"e1": row["e1"], "e2": row["e2"], "l1": len(spec.e1),
                           "l2": len(spec.e2), "rank": obs.matrix.rank(),
                           "leakage": leakage_by_elimination(obs),
                           "guaranteed": guaranteed}, row

    @pytest.mark.parametrize("kind", ["exhaustive", "sampled", "explicit"])
    def test_rows_keep_spec_tuples(self, f11, kind):
        # each row's e1 and e2 are the sorted tuples of (type, index)
        # tuples that EavesdropperSpec.of makes of them
        if kind == "explicit":
            config = spanning_non_mds_config()
        else:
            config = build_config(f11, 5, 6, 4)
        k = config.k
        layout = make_secure_layout([0] * k * (k - 2), 1, 1, k, f11)
        result = sweep_eavesdroppers(
            config, layout, max_budget=k - 1, seed=1, samples_per_split=12,
            enumeration_limit=50 if kind == "sampled" else 10**5)
        assert result.exhaustive == (kind != "sampled")
        for row in result.rows:
            spec = EavesdropperSpec.of(row["e1"], row["e2"])
            assert (row["e1"], row["e2"]) == (spec.e1, spec.e2), row
            for pairs in (row["e1"], row["e2"]):
                assert type(pairs) is tuple
                assert all(type(pair) is tuple and len(pair) == 2
                           and all(type(x) is int for x in pair)
                           for pair in pairs), row

    def test_budget_capped_below_k(self):
        # 10 nodes at k = 3: budgets 0, 1 and 2 give 1 + 20 + 180 specs
        config = build_config(PrimeField(11), 5, 5, 3)
        layout = make_secure_layout([0] * 3, 2, 0, 3, PrimeField(11))
        result = sweep_eavesdroppers(config, layout, max_budget=5)
        assert result.exhaustive and len(result.rows) == 201
        assert all(row["l1"] + row["l2"] <= 2 for row in result.rows)
        assert max(result.worst_leakage) == (2, 0)

    def test_enumeration_limit_is_inclusive(self):
        # the same 201 specs: enumerated at a limit of 201, sampled at 200
        config = build_config(PrimeField(11), 5, 5, 3)
        layout = make_secure_layout([0] * 3, 2, 0, 3, PrimeField(11))
        at_limit = sweep_eavesdroppers(config, layout, max_budget=2,
                                       enumeration_limit=201)
        assert at_limit.exhaustive and len(at_limit.rows) == 201
        below = sweep_eavesdroppers(config, layout, max_budget=2,
                                    enumeration_limit=200, samples_per_split=3)
        assert not below.exhaustive
        assert len(below.rows) == 1 + 2 * 3 + 3 * 3

    def test_budget_zero_single_row(self, demo_config, demo_layout):
        result = sweep_eavesdroppers(demo_config, demo_layout, max_budget=0)
        assert len(result.rows) == 1
        assert result.rows[0]["leakage"] == 0
        assert result.worst_leakage == {(0, 0): 0}

    def test_sampling_fallback_is_seeded(self, f101):
        config = build_config(f101, 30, 30, 4)
        layout = make_secure_layout([0] * 8, 2, 0, 4, f101)
        a = sweep_eavesdroppers(config, layout, max_budget=2, seed=5,
                                enumeration_limit=100, samples_per_split=20)
        b = sweep_eavesdroppers(config, layout, max_budget=2, seed=5,
                                enumeration_limit=100, samples_per_split=20)
        assert not a.exhaustive
        assert a.rows == b.rows
        counts = {}
        for row in a.rows:
            counts[(row["l1"], row["l2"])] = counts.get((row["l1"], row["l2"]), 0) + 1
        assert counts[(1, 1)] == 20
        assert counts[(0, 0)] == 1

    @pytest.mark.parametrize("limit", [10**5, 1])
    def test_helpers_not_spanning_refused(self, limit):
        # exhaustive and sampled: the first repair of a type 2 node through
        # its default helpers is refused, as observe refuses it alone
        config, layout = non_spanning_config()
        with pytest.raises(SingularSubmatrix):
            sweep_eavesdroppers(config, layout, max_budget=1,
                                enumeration_limit=limit)

    def test_sampled_repair_refused_after_its_union_was_read(self,
                                                              monkeypatch):
        # scripted draws: type 2 node 1 is first read from storage beside
        # type 1 node 1, then observed in repair beside it; that second
        # spec, whose node set the sweep has seen, is still refused
        draws = iter([[], [0], [1], [0], [1], [0, 1], [0, 2], [5, 0], [0, 5],
                      [0, 1], [0, 2]])

        class ScriptedRng:
            def permutation(self, n):
                head = next(draws)
                return np.array(head + [i for i in range(n) if i not in head])

        config, layout = non_spanning_config(k=3)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ScriptedRng())
        with pytest.raises(SingularSubmatrix):
            sweep_eavesdroppers(config, layout, max_budget=2,
                                enumeration_limit=1, samples_per_split=2)

    @pytest.mark.parametrize("style", ["vandermonde", "systematic",
                                       "explicit", "non-mds"])
    @pytest.mark.parametrize("protected_type", [1, 2])
    @pytest.mark.parametrize("limit", [10**5, 50])
    def test_rows_equal_per_spec_loop(self, f11, style, protected_type, limit):
        # every budget, exhaustive and sampled; the sampled splits of at
        # most one node hold no more specs than samples_per_split
        config = (spanning_non_mds_config() if style == "non-mds"
                  else build_config(f11, 5, 6, 4, style))
        k = config.k
        layout = make_secure_layout([0] * k * (k - 2), 1, 1, k, f11,
                                    protected_type=protected_type)
        for budget in range(k):
            result = sweep_eavesdroppers(config, layout, max_budget=budget,
                                         seed=budget, enumeration_limit=limit,
                                         samples_per_split=12)
            assert_sweep_equals_per_spec_loop(result, config, layout, budget,
                                              budget, limit, 12)

    def test_rows_equal_per_spec_loop_beyond_int64_ranks(self):
        # 144 nodes at k = 15: C(144, 14) is just above 2^63, so the
        # 14-node splits rank node sets as Python ints
        f73 = PrimeField(73)
        config = build_config(f73, 72, 72, 15)
        layout = make_secure_layout([0] * 15 * 13, 1, 1, 15, f73)
        assert 2 ** 63 < comb(144, 14) < 2 ** 64
        assert sim._binomials(144, 14).dtype == object
        result = sweep_eavesdroppers(config, layout, max_budget=14, seed=2,
                                     samples_per_split=1)
        assert len(result.rows) == 120
        assert_sweep_equals_per_spec_loop(result, config, layout, 14, 2,
                                          10**5, 1)

    def test_worst_leakage_monotone_in_budget(self, demo_config, demo_layout):
        result = sweep_eavesdroppers(demo_config, demo_layout, max_budget=3)
        worst_by_total = {}
        for (l1, l2), leak in result.worst_leakage.items():
            total = l1 + l2
            worst_by_total[total] = max(worst_by_total.get(total, 0), leak)
        assert worst_by_total[0] == 0
        assert worst_by_total[0] <= worst_by_total[1] <= worst_by_total[2]


def per_spec_loop(config, layout, max_budget, seed, enumeration_limit,
                  samples_per_split):
    """A sweep's rows, worst leakage and mode, one `node_set_verdict` per
    spec: specs from `combinations`, or drawn one `rng.permutation` at a
    time with repeats drawn again."""
    nodes = [(1, j) for j in range(1, config.n1 + 1)] + \
            [(2, j) for j in range(1, config.n2 + 1)]
    n, budget = len(nodes), min(max_budget, config.k - 1)
    splits = [(l1, total - l1) for total in range(budget + 1)
              for l1 in range(total + 1)]
    exhaustive = sum(comb(n, l1) * comb(n - l1, l2)
                     for l1, l2 in splits) <= enumeration_limit
    rng = np.random.default_rng(seed)
    rows, worst = [], {}
    for l1, l2 in splits:
        if exhaustive:
            specs = [(e1, e2) for e1 in combinations(nodes, l1)
                     for e2 in combinations([x for x in nodes if x not in e1],
                                            l2)]
        else:
            specs = []
            target = min(samples_per_split, comb(n, l1) * comb(n - l1, l2))
            while len(specs) < target:
                picks = rng.permutation(n)[: l1 + l2]
                spec = (tuple(sorted(nodes[i] for i in picks[:l1])),
                        tuple(sorted(nodes[i] for i in picks[l1:])))
                if spec not in specs:
                    specs.append(spec)
        for e1, e2 in specs:
            verdict = node_set_verdict(config, layout, e1 + e2)
            rows.append({"e1": e1, "e2": e2, "l1": l1, "l2": l2, **verdict})
            worst[(l1, l2)] = max(worst.get((l1, l2), 0), verdict["leakage"])
    return rows, worst, exhaustive


def assert_sweep_equals_per_spec_loop(result, config, layout, *args):
    rows, worst, exhaustive = per_spec_loop(config, layout, *args)
    assert list(result.rows) == rows
    assert list(result.worst_leakage.items()) == list(worst.items())
    assert result.exhaustive is exhaustive
    for row in result.rows:
        assert [type(row[key]) for key in ("l1", "l2", "rank", "leakage",
                                           "guaranteed")] == [int] * 4 + [bool]
        for pairs in (row["e1"], row["e2"]):
            assert type(pairs) is tuple and all(
                type(pair) is tuple and list(map(type, pair)) == [int, int]
                for pair in pairs), row
    assert all(type(leak) is int for leak in result.worst_leakage.values())


# The events of demos/04_scenario_engine.py; then events whose normalized
# form differs from the input (unsorted e1, [type, index] pairs, a null
# helpers list); then events whose records are errors.
REPLAY_EVENTS = [
    [{"op": "fail", "type": 2, "index": 2},
     {"op": "repair", "type": 2, "index": 2, "helpers": [1, 3, 4, 5]},
     {"op": "eavesdrop", "e1": [[2, 1]], "e2": [[2, 2]]},
     {"op": "reconstruct", "type": 1},
     {"op": "deploy", "seeds1": [1, 2, 3, 4], "seeds2": [1, 2, 3, 4]}],
    [{"op": "fail", "type": 1, "index": 3},
     {"op": "repair", "type": 1, "index": 3,
      "helpers": [[2, 6], [2, 1], [2, 2], [2, 3]]},
     {"op": "fail", "type": 2, "index": 5},
     {"op": "repair", "type": 2, "index": 5, "helpers": None},
     {"op": "eavesdrop", "e1": [[2, 4], [1, 2]], "e2": [[1, 3]]},
     {"op": "reconstruct", "type": 2, "nodes": [[2, 6], [2, 5], [2, 4], [2, 3]]},
     {"op": "deploy", "seeds1": [[1, 5], [1, 1], [1, 2], [1, 3]],
      "seeds2": [6, 5, 4, 3]}],
    [{"op": "eavesdrop", "e1": [], "e2": [[2, 2]]},
     {"op": "fail", "type": 1, "index": 1},
     *({"op": "fail", "type": 2, "index": j} for j in (1, 2, 3)),
     {"op": "repair", "type": 1, "index": 1},
     {"op": "reconstruct", "type": 2, "nodes": [1, 4, 5, 6]}],
]


def assert_log_replays(doc):
    """The `event` fields of a scenario's log, used as its events, parse
    and reproduce the log byte for byte."""
    log = run(scenario_from_json(doc)).to_jsonl()
    events = [json.loads(line)["event"] for line in log.splitlines()]
    assert run(scenario_from_json({**doc, "events": events})).to_jsonl() == log


class TestLogReplay:
    @pytest.mark.parametrize("events", REPLAY_EVENTS)
    def test_demo_scenarios(self, events):
        assert_log_replays(demo_scenario_doc(events))

    @settings(FUZZ, max_examples=40)
    @given(doc=scenarios())
    def test_generated_scenarios(self, doc):
        assert_log_replays(doc)
