import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plexisim.cli import demo_scenario, main
from plexisim.ledger import canonical_json, read_chain, replay_chain


def run(argv):
    return main([str(a) for a in argv])


class TestEnroll:
    def test_enroll_ten_unique_tokens(self, tmp_path):
        out = tmp_path / "o"
        assert run(["enroll", "--n", 10, "--seed", 1, "--out", out]) == 0
        lines = (out / "enrollments.jsonl").read_text().splitlines()
        tokens = [json.loads(l)["token_id"] for l in lines]
        assert len(tokens) == 10 and len(set(tokens)) == 10

    def test_enroll_zero_is_empty_success(self, tmp_path):
        out = tmp_path / "o"
        assert run(["enroll", "--n", 0, "--seed", 1, "--out", out]) == 0
        assert (out / "enrollments.jsonl").read_text() == ""

    def test_rerun_reports_duplicates_nonzero(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(["enroll", "--n", 3, "--seed", 1, "--out", out])
        code = run(["enroll", "--n", 3, "--seed", 1, "--out", out,
                    "--registry", out / "ledger.jsonl"])
        assert code == 1
        captured = capsys.readouterr()
        assert "duplicate" in captured.err

    def test_record_schema(self, tmp_path):
        out = tmp_path / "o"
        run(["enroll", "--n", 1, "--seed", 1, "--out", out])
        rec = json.loads((out / "enrollments.jsonl").read_text())
        assert set(rec) == {"token_id", "token_name", "device_id", "public_key",
                            "owner_id", "constraints", "issue_time"}
        assert set(rec["constraints"]) == {"revoked", "delegated", "transferred"}


class TestTrade:
    def test_demo_scenario_fulfilled(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert run(["trade", "--seed", 1, "--out", out]) == 0
        schedules = json.loads((out / "schedules.json").read_text())
        assert schedules[0]["selected_bids"] == ["A", "B"]
        assert schedules[0]["total_cost"] == 28.0
        trace = json.loads((out / "trace.json").read_text())
        assert trace[-1]["event_kind"] == "ACTIVATION_SETTLEMENT"
        assert "FULFILLED" in capsys.readouterr().out

    def test_ledger_replays_identically(self, tmp_path):
        out = tmp_path / "t"
        run(["trade", "--seed", 1, "--out", out])
        chain = read_chain(out / "ledger.jsonl")
        state = replay_chain(chain)  # raises on any integrity violation
        assert len(state.event_log) >= 6

    def test_integral_float_window_reads_as_the_demo(self, tmp_path):
        scenario = demo_scenario()
        scenario["requests"][0]["window"] = {"start": 1.0, "duration": 1.0}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(scenario))
        assert run(["trade", "--config", cfg, "--seed", 1, "--out", tmp_path / "f"]) == 0
        assert run(["trade", "--seed", 1, "--out", tmp_path / "d"]) == 0
        for name in ("schedules.json", "trace.json", "ledger.jsonl"):
            assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()

    def test_one_bid_on_a_thousand_resources_is_fulfilled(self, tmp_path, capsys):
        # The schedule's constraint instance has one variable per resource.
        scenario = demo_scenario()
        scenario["resources"] = [
            {"resource_id": f"dg-{i:04d}", "kind": "DG", "controllable": True,
             "capacity_kw": 1.0, "baseline": {"action": "IDLE", "level_kw": 0.0},
             "owner": "prosumer-a"}
            for i in range(1000)
        ]
        scenario["bids"] = [
            {"bid_id": "A", "prosumer": "prosumer-a", "offered_kw": 10.0,
             "price_per_kw": 3.0, "request_id": "req-1",
             "resource_ids": [r["resource_id"] for r in scenario["resources"]]},
        ]
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(scenario))
        assert run(["trade", "--config", cfg, "--seed", 1, "--out", tmp_path / "t"]) == 0
        assert "FULFILLED" in capsys.readouterr().out

    def test_unsat_exits_two_with_bidding_trace(self, tmp_path, capsys):
        scenario = demo_scenario()
        scenario["bids"] = [b for b in scenario["bids"] if b["bid_id"] == "B"]
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(scenario))
        out = tmp_path / "t"
        assert run(["trade", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert "unsat" in capsys.readouterr().out
        trace = json.loads((out / "trace.json").read_text())
        assert trace[-1]["event_kind"] == "BID_OFFER"


class TestAttack:
    def test_fdi_direction_and_flags(self, tmp_path):
        out = tmp_path / "a"
        assert run(["attack", "--attack", "fdi", "--fraction", 2,
                    "--synthetic", 2, "--seed", 4, "--out", out]) == 0
        with open(out / "attack_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["df_attacked"]) >= float(row["df_original"])
            assert row["flagged"] == "1"  # whole-series post-signing attack

    def test_madiot_direction(self, tmp_path):
        out = tmp_path / "a"
        assert run(["attack", "--attack", "madiot", "--fraction", 2,
                    "--synthetic", 2, "--seed", 4, "--out", out]) == 0
        with open(out / "attack_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        t_ref = 22.0
        checked = 0
        for row in rows:
            if float(row["original"]) > t_ref:
                assert float(row["df_attacked"]) <= float(row["df_original"])
                checked += 1
        assert checked > 0

    def test_config_dataset_path(self, tmp_path):
        from plexisim import telemetry

        data = tmp_path / "d.csv"
        telemetry.write_dataset(data, telemetry.generate_synthetic(1, seed=2))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(data)}))
        out = tmp_path / "a"
        assert run(["attack", "--config", cfg, "--seed", 4, "--out", out]) == 0


class TestBench:
    def test_summary_and_determinism(self, tmp_path):
        rates = "40,120,200"
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        for out in (out1, out2):
            assert run(["bench", "--rates", rates, "--duration", 20,
                        "--seed", 2, "--out", out]) == 0
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["footprint_ratio"] == pytest.approx(2 / 3, abs=1e-3)
        assert (summary["modes"]["nft"]["saturation_tps"]
                > summary["modes"]["certificate"]["saturation_tps"])
        for name in ("metrics_nft.csv", "metrics_certificate.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_single_mode_flag(self, tmp_path):
        out = tmp_path / "b"
        assert run(["bench", "--rates", "40", "--duration", 20,
                    "--mode", "nft", "--seed", 2, "--out", out]) == 0
        assert (out / "metrics_nft.csv").exists()
        assert (out / "metrics_nft.json").exists()
        assert not (out / "metrics_certificate.csv").exists()

    def test_json_config_overrides(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "topology": {"nodes": [
                {"node_id": "e0", "tier": "edge",
                 "service_rate_tps": 50, "link_delay_ms": 25},
                {"node_id": "f0", "tier": "fog",
                 "service_rate_tps": 90, "link_delay_ms": 10},
            ]},
            "credential_models": {"nft": {"partial_key_bytes": 512}},
        }))
        out = tmp_path / "b"
        assert run(["bench", "--rates", "40,120", "--duration", 20, "--mode", "nft",
                    "--config", cfg, "--seed", 2, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        # Capacity shrinks to the configured fog rate; storage to the new size.
        assert 0 < summary["modes"]["nft"]["saturation_tps"] <= 91
        assert summary["modes"]["nft"]["storage_bytes_100_devices"] == 51200


# sha256 of every file each command writes at --seed 1. A change that alters
# any seeded artifact must say so and update these on purpose.
GOLDEN = {
    "enroll": (["enroll", "--n", 200], {
        "enrollments.jsonl": "f52c956713238fc4f159e73618a2e960d4cb13e94f0b60216b2525344d3f3a9d",
        "ledger.jsonl": "43d8ef75302a152dea9bfedbf02f7a3298b7a9183bd8fa3b1fe29bb4c4100327",
    }),
    "trade": (["trade"], {
        "ledger.jsonl": "eb92f299ecf1835673328af4b9eb6395ea35566b9c9462ed609391db55178193",
        "schedules.json": "7a63b9e2953ebb21afb15782fd08ad74ff7f615af22abc09756668d2009982ed",
        "trace.json": "9e2f77b3be35895ef8aba714641bbfadc3bd0124af019f46977cec5063c5b932",
    }),
    "attack-fdi": (["attack", "--attack", "fdi", "--synthetic", 7], {
        "attack_report.csv": "8c048ab017504e3808e62a33b86131bc602ecd957f3d457823ac3315b165a573",
        "dataset.csv": "ea12024f17b9ffea9f8c4a2eaba321690611c6b732d257f2fbcce0e71fc6da8d",
    }),
    "attack-madiot": (["attack", "--attack", "madiot", "--synthetic", 7], {
        "attack_report.csv": "023bfca197f18a5237815669320f4b95307c5e093b83dfcdf10deca697045782",
        "dataset.csv": "ea12024f17b9ffea9f8c4a2eaba321690611c6b732d257f2fbcce0e71fc6da8d",
    }),
    "bench": (["bench", "--rates", "40,120,200", "--duration", 20], {
        "metrics_certificate.csv":
            "ac402c09a5d166b52e155b9bfc775b6b23f081cc1dafba5bf0036a2fe424d6de",
        "metrics_certificate.json":
            "a84546eda1e92488de79a7512827afd0613f7322d0b66a12f331774d3709b3dc",
        "metrics_nft.csv": "c5b740fb6e67b9b2f9042a7a27f03d3323cace25c4495e84761fed825bac1975",
        "metrics_nft.json": "bcc87caf325f3411b33259143dbae0eb7619a7c0a12a0e6e54d8b4587a1ac9b9",
        "summary.json": "e0abd337b9ec58668ff381a402f9068c5edc387d8806f18e5fab18789f6d2c00",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_artifacts_are_byte_identical(tmp_path, name):
    argv, expected = GOLDEN[name]
    out = tmp_path / name
    assert run(argv + ["--seed", 1, "--out", out]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == expected


def _truncated_registry(tmp_path):
    out = tmp_path / "o"
    run(["enroll", "--n", 3, "--seed", 1, "--out", out])
    registry = out / "ledger.jsonl"
    registry.write_bytes(registry.read_bytes()[:-20])
    return ["enroll", "--n", 1, "--out", out, "--registry", registry]


def _registry_with_edited_block(tmp_path, edit):
    """Edit the first block of a saved chain without re-hashing it."""
    out = tmp_path / "o"
    run(["enroll", "--n", 3, "--seed", 1, "--out", out])
    registry = out / "ledger.jsonl"
    lines = registry.read_text().splitlines()
    block = json.loads(lines[0])
    edit(block)
    lines[0] = json.dumps(block, separators=(",", ":"))
    registry.write_text("\n".join(lines) + "\n")
    return ["enroll", "--n", 1, "--out", out, "--registry", registry]


def _registry_with_edited_tx(tmp_path, edit):
    """Edit the first tx of a saved chain without re-hashing it."""
    return _registry_with_edited_block(tmp_path, lambda block: edit(block["txs"][0]))


def _registry_commit_time_string(tmp_path):
    return _registry_with_edited_block(tmp_path, lambda block: block.update(
        sim_time_committed=str(block["sim_time_committed"])))


def _registry_commit_time_missing(tmp_path):
    return _registry_with_edited_block(tmp_path, lambda block: block.pop("sim_time_committed"))


def _registry_submit_time_edited(tmp_path):
    # A well-formed edit of an unsigned field: only the block hash catches it.
    return _registry_with_edited_tx(tmp_path, lambda tx: tx.update(sim_time_submitted=6500))


def _registry_payload_not_an_object(tmp_path):
    return _registry_with_edited_tx(tmp_path, lambda tx: tx.update(payload=5))


def _registry_payload_without_device_id(tmp_path):
    return _registry_with_edited_tx(tmp_path, lambda tx: tx["payload"].pop("device_id"))


def _registry_device_id_not_hex(tmp_path):
    return _registry_with_edited_tx(tmp_path, lambda tx: tx["payload"].update(device_id="zz"))


def _registry_submit_time_infinite(tmp_path):
    return _registry_with_edited_tx(tmp_path, lambda tx: tx.update(sim_time_submitted=math.inf))


def _registry_owner_id_edited(tmp_path):
    # A well-formed edit: only the tx_id rebuilt from the payload catches it.
    return _registry_with_edited_tx(tmp_path, lambda tx: tx["payload"].update(owner_id="mallory"))


def _to_old_format(tx):
    tx["envelope"] = {"message": canonical_json(tx["payload"]).encode().hex(),
                      "signature": tx.pop("signature"), "token_id": tx.pop("signer"),
                      "sim_time": tx["sim_time_submitted"]}
    tx["tx_id"] = "00" * 32


def _registry_in_old_format(tmp_path):
    return _registry_with_edited_tx(tmp_path, _to_old_format)


def _scenario_without_bids(tmp_path):
    scenario = demo_scenario()
    del scenario["bids"]
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    return ["trade", "--config", cfg, "--out", tmp_path / "t"]


def _scenario_not_json(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"resources": [')
    return ["trade", "--config", cfg, "--out", tmp_path / "t"]


def _scenario_with(tmp_path, edit):
    """The demo scenario after ``edit``, as a trade command."""
    scenario = demo_scenario()
    edit(scenario)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    return ["trade", "--config", cfg, "--out", tmp_path / "t"]


def _scenario_issuer_not_string(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["requests"][0].update(issuer=5))


def _scenario_owner_not_string(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["resources"][0].update(owner=["prosumer-a"]))


def _scenario_bid_id_not_string(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["bids"][0].update(bid_id=1))


def _scenario_capacity_nan(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["resources"][0].update(capacity_kw="nan"))


def _scenario_price_nan(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["bids"][0].update(price_per_kw="nan"))


def _scenario_quantity_nan(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["requests"][0].update(quantity_kw="nan"))


def _scenario_window_start_infinite(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["requests"][0]["window"].update(start=math.inf))


def _scenario_bid_for_unknown_request(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["bids"].append(
        dict(s["bids"][0], bid_id="D", request_id="req-typo")))


def _scenario_window_start_fractional(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["requests"][0]["window"].update(start=1.7))


def _scenario_window_duration_fractional(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["requests"][0]["window"].update(duration=1.5))


def _scenario_window_start_bool(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["requests"][0]["window"].update(start=True))


def _scenario_controllable_string(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["resources"][0].update(controllable="false"))


def _scenario_capacity_string(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["resources"][0].update(capacity_kw="5"))


def _scenario_quantity_bool(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["requests"][0].update(quantity_kw=True))


def _topology_node_without_id(tmp_path):
    node = {"tier": "edge", "service_rate_tps": 100.0, "link_delay_ms": 1.0}
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"topology": {"nodes": [node]}}))
    return ["bench", "--rates", "40", "--duration", 20, "--config", cfg,
            "--out", tmp_path / "b"]


def _attack_config_without_dataset(tmp_path):
    cfg = tmp_path / "attack.json"
    cfg.write_text("{}")
    return ["attack", "--config", cfg, "--out", tmp_path / "a"]


def _attack_with_dataset(tmp_path, dataset):
    cfg = tmp_path / "attack.json"
    cfg.write_text(json.dumps({"dataset": dataset}))
    return ["attack", "--config", cfg, "--out", tmp_path / "a"]


def _attack_dataset_null(tmp_path):
    return _attack_with_dataset(tmp_path, None)


def _attack_dataset_list(tmp_path):
    return _attack_with_dataset(tmp_path, ["d.csv"])


def _attack_dataset_missing(tmp_path):
    cfg = tmp_path / "attack.json"
    cfg.write_text(json.dumps({"dataset": str(tmp_path / "absent.csv")}))
    return ["attack", "--config", cfg, "--out", tmp_path / "a"]


def _attack_dataset_non_finite(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(
        "time,net,tamb,hvac,hvac_demand_res\n"
        "2021-06-01T00:00:00,1.0,20.0,1.0,0.5\n"
        "2021-06-01T00:30:00,nan,20.0,1.0,0.5\n"
        "2021-06-01T01:00:00,1.0,20.0,1.0,0.5\n"
    )
    cfg = tmp_path / "attack.json"
    cfg.write_text(json.dumps({"dataset": str(data)}))
    return ["attack", "--config", cfg, "--out", tmp_path / "a"]


def _credential_model_not_an_object(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"credential_models": {"nft": 5}}))
    return ["bench", "--rates", "40", "--duration", 20, "--config", cfg,
            "--out", tmp_path / "b"]


def _bench_with_partial_key_bytes(tmp_path, value):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"credential_models": {"nft": {"partial_key_bytes": value}}}))
    return ["bench", "--rates", "40", "--duration", 20, "--config", cfg,
            "--out", tmp_path / "b"]


def _credential_model_field_not_a_number(tmp_path):
    return _bench_with_partial_key_bytes(tmp_path, "x")


def _credential_model_field_bool(tmp_path):
    return _bench_with_partial_key_bytes(tmp_path, True)


def _certificate_footprint_zero(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(
        {"credential_models": {"certificate": {"cert_bytes": 0, "keypair_bytes": 0}}}))
    return ["bench", "--rates", "40", "--duration", 20, "--config", cfg,
            "--out", tmp_path / "b"]


def _credential_model_field_negative(tmp_path):
    return _bench_with_partial_key_bytes(tmp_path, -5)


def _non_numeric_rate(tmp_path):
    return ["bench", "--rates", "40,x", "--duration", 20, "--out", tmp_path / "b"]


def _bench(tmp_path, rates, duration=20):
    return ["bench", "--rates", rates, "--duration", duration, "--out", tmp_path / "b"]


def _rate_nan(tmp_path):
    return _bench(tmp_path, "nan")


def _rate_inf(tmp_path):
    return _bench(tmp_path, "inf")


def _rate_zero(tmp_path):
    return _bench(tmp_path, "0")


def _rate_negative(tmp_path):
    return _bench(tmp_path, "40,-5")


def _duration_nan(tmp_path):
    return _bench(tmp_path, "40", "nan")


def _duration_inf(tmp_path):
    return _bench(tmp_path, "40", "inf")


def _topology_negative_link(tmp_path):
    nodes = [
        {"node_id": "e0", "tier": "edge", "service_rate_tps": 50.0, "link_delay_ms": -30.0},
        {"node_id": "f0", "tier": "fog", "service_rate_tps": 175.0, "link_delay_ms": 10.0},
    ]
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"topology": {"nodes": nodes}}))
    return ["bench", "--rates", "40", "--duration", 20, "--config", cfg,
            "--out", tmp_path / "b"]


def _bench_config(tmp_path, cfg):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    return ["bench", "--rates", "40", "--duration", 20, "--config", path,
            "--out", tmp_path / "b"]


def _topology_with_edge(tmp_path, **edit):
    nodes = [
        dict({"node_id": "e0", "tier": "edge", "service_rate_tps": 50.0,
              "link_delay_ms": 25.0}, **edit),
        {"node_id": "f0", "tier": "fog", "service_rate_tps": 175.0, "link_delay_ms": 10.0},
    ]
    return _bench_config(tmp_path, {"topology": {"nodes": nodes}})


def _topology_node_id_int(tmp_path):
    return _topology_with_edge(tmp_path, node_id=7)


def _topology_rate_string(tmp_path):
    return _topology_with_edge(tmp_path, service_rate_tps="200")


def _topology_link_bool(tmp_path):
    return _topology_with_edge(tmp_path, link_delay_ms=True)


def _topology_node_unknown_key(tmp_path):
    return _topology_with_edge(tmp_path, zone="north")


def _topology_duplicate_node_id(tmp_path):
    return _topology_with_edge(tmp_path, node_id="f0")


def _credential_model_key_misspelt(tmp_path):
    return _bench_config(tmp_path, {"credential_models": {"nft": {"verify_cost_factr": 2.0}}})


def _credential_model_unknown_mode(tmp_path):
    return _bench_config(tmp_path, {"credential_models": {"ftn": {"partial_key_bytes": 512}}})


def _credential_model_mode_inside(tmp_path):
    return _bench_config(tmp_path, {"credential_models": {"nft": {"mode": "certificate"}}})


def _credential_model_bytes_fractional(tmp_path):
    return _bench_config(tmp_path, {"credential_models": {"nft": {"tx_overhead_bytes": 1.5}}})


def _bench_config_unknown_key(tmp_path):
    return _bench_config(tmp_path, {"topologies": {}})


def _duration_leaves_no_window(tmp_path):
    return _bench(tmp_path, "40", 10)


def _duration_unbounded(tmp_path):
    return _bench(tmp_path, "40", "1e300")


def _rate_times_duration_overflows(tmp_path):
    return _bench(tmp_path, "1e200", "1e200")


def _rate_sends_nothing_in_window(tmp_path):
    return _bench(tmp_path, "1e-9", 11) + ["--mode", "nft"]


def _synthetic_days_unbounded(tmp_path):
    return ["attack", "--synthetic", 100_000_000, "--out", tmp_path / "a"]


def _resource_ids_string(scenario):
    # tuple() would read the string "e" as the one id "e".
    scenario["resources"][2]["resource_id"] = "e"
    scenario["bids"][1]["resource_ids"] = "e"


def _scenario_resource_ids_string(tmp_path):
    return _scenario_with(tmp_path, _resource_ids_string)


def _scenario_bids_object(tmp_path):
    return _scenario_with(tmp_path, lambda s: s.update(bids={}))


def _scenario_unknown_key(tmp_path):
    return _scenario_with(tmp_path, lambda s: s["requests"][0].update(deadline=3))


def _attack_config_unknown_key(tmp_path):
    cfg = tmp_path / "attack.json"
    cfg.write_text(json.dumps({"dataset": str(tmp_path / "d.csv"), "extra": 1}))
    return ["attack", "--config", cfg, "--out", tmp_path / "a"]


def _attack_dataset_rows(tmp_path, *rows):
    data = tmp_path / "d.csv"
    data.write_text("time,net,tamb,hvac,hvac_demand_res\n" + "".join(r + "\n" for r in rows))
    return _attack_with_dataset(tmp_path, str(data))


def _attack_dataset_header_only(tmp_path):
    return _attack_dataset_rows(tmp_path)


def _attack_dataset_naive_then_offset(tmp_path):
    return _attack_dataset_rows(tmp_path, "2021-06-01T00:00:00,1.0,20.0,1.0,0.5",
                                "2021-06-01T00:30:00+00:00,1.0,20.0,1.0,0.5")


def _attack_dataset_underscore_reading(tmp_path):
    return _attack_dataset_rows(tmp_path, "2021-06-01T00:00:00,1_0,20.0,1.0,0.5")


def _attack_dataset_not_utf8(tmp_path):
    data = tmp_path / "d.csv"
    data.write_bytes(b"time,net,tamb,hvac,hvac_demand_res\n2021-06-01T00:00:00,1.0,\xff,1.0,0.5\n")
    return _attack_with_dataset(tmp_path, str(data))


def _attack_dataset_field_too_long(tmp_path):
    return _attack_dataset_rows(tmp_path, "2021-06-01T00:00:00," + "1" * 200_000 + ",20.0,1.0,0.5")


def _registry_not_utf8(tmp_path):
    argv = _registry_with_edited_block(tmp_path, lambda block: None)
    registry = Path(argv[-1])
    registry.write_bytes(registry.read_bytes().replace(b"{", b"\xff{", 1))
    return argv


def _registry_payload_nested_deep(tmp_path):
    argv = _registry_with_edited_block(tmp_path, lambda block: None)
    registry = Path(argv[-1])
    text = registry.read_text()
    payload = canonical_json(json.loads(text.splitlines()[0])["txs"][0]["payload"])
    registry.write_text(text.replace(payload, "[" * 200_000 + "]" * 200_000, 1))
    return argv


def _bench_config_nested_deep(tmp_path):
    argv = _bench_config(tmp_path, {})
    Path(argv[argv.index("--config") + 1]).write_text("[" * 200_000 + "]" * 200_000)
    return argv


def _registry_block_unknown_key(tmp_path):
    return _registry_with_edited_block(tmp_path, lambda block: block.update(note="x"))


def _registry_tx_unknown_key(tmp_path):
    return _registry_with_edited_tx(tmp_path, lambda tx: tx.update(tx_id="00" * 32))


def _enroll_negative_count(tmp_path):
    return ["enroll", "--n", -1, "--out", tmp_path / "o"]


def _registry_is_a_directory(tmp_path):
    return ["enroll", "--n", 1, "--out", tmp_path / "o", "--registry", tmp_path]


def _out_is_a_file(tmp_path):
    out = tmp_path / "o"
    out.write_text("")
    return ["enroll", "--n", 1, "--out", out]


@pytest.mark.parametrize("make_argv", [
    _truncated_registry, _registry_payload_not_an_object, _registry_payload_without_device_id,
    _registry_device_id_not_hex, _registry_submit_time_infinite, _registry_owner_id_edited,
    _registry_in_old_format, _registry_commit_time_string, _registry_commit_time_missing,
    _registry_submit_time_edited,
    _scenario_without_bids, _scenario_not_json, _scenario_issuer_not_string,
    _scenario_owner_not_string, _scenario_bid_id_not_string, _scenario_capacity_nan,
    _scenario_price_nan, _scenario_quantity_nan, _scenario_window_start_infinite,
    _scenario_bid_for_unknown_request, _scenario_window_start_fractional,
    _scenario_window_duration_fractional, _scenario_window_start_bool,
    _scenario_controllable_string, _scenario_capacity_string, _scenario_quantity_bool,
    _topology_node_without_id, _attack_config_without_dataset, _attack_dataset_null,
    _attack_dataset_list, _attack_dataset_missing, _attack_dataset_non_finite,
    _credential_model_not_an_object, _credential_model_field_not_a_number,
    _credential_model_field_bool, _certificate_footprint_zero,
    _credential_model_field_negative, _non_numeric_rate,
    _rate_nan, _rate_inf, _rate_zero, _rate_negative, _duration_nan, _duration_inf,
    _topology_negative_link, _enroll_negative_count, _registry_is_a_directory, _out_is_a_file,
    _topology_node_id_int, _topology_rate_string, _topology_link_bool,
    _topology_node_unknown_key, _topology_duplicate_node_id, _credential_model_key_misspelt,
    _credential_model_unknown_mode,
    _credential_model_mode_inside, _credential_model_bytes_fractional,
    _bench_config_unknown_key, _duration_leaves_no_window, _scenario_resource_ids_string,
    _scenario_bids_object, _scenario_unknown_key, _attack_config_unknown_key,
    _attack_dataset_naive_then_offset, _attack_dataset_underscore_reading,
    _registry_block_unknown_key, _registry_tx_unknown_key, _attack_dataset_not_utf8,
    _attack_dataset_field_too_long, _registry_not_utf8, _duration_unbounded,
    _rate_times_duration_overflows, _rate_sends_nothing_in_window, _synthetic_days_unbounded,
    _registry_payload_nested_deep, _bench_config_nested_deep, _attack_dataset_header_only,
])
def test_malformed_input_exits_one_with_error_line(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "plexisim", "attack", "--synthetic", "1", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "attack_report.csv").exists()
