import ast
import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from plexisim import cli
from plexisim.cli import demo_scenario, main
from plexisim.ledger import canonical_json, read_chain, replay_chain
from test_ledger import cut_out, joined, record_bytes, split_records


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
                    "--registry", out / "ledger.chain"])
        assert code == 1
        captured = capsys.readouterr()
        assert "duplicate" in captured.err

    def test_rerun_on_a_registry_commits_after_its_head(self, tmp_path):
        out = tmp_path / "o"
        assert run(["enroll", "--n", 3, "--seed", 1, "--out", out]) == 0
        assert run(["enroll", "--n", 3, "--seed", 5, "--out", out,
                    "--registry", out / "ledger.chain"]) == 0
        committed = [block.sim_time_committed for block in read_chain(out / "ledger.chain")]
        assert len(committed) == 6 and committed == sorted(set(committed))
        issued = [json.loads(line)["issue_time"]
                  for line in (out / "enrollments.jsonl").read_text().splitlines()]
        assert min(issued) >= committed[2]

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
        chain = read_chain(out / "ledger.chain")
        state = replay_chain(chain)  # raises on any integrity violation
        assert len(state.event_log) >= 6

    def test_integral_float_window_reads_as_the_demo(self, tmp_path):
        scenario = demo_scenario()
        scenario["requests"][0]["window"] = {"start": 1.0, "duration": 1.0}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(scenario))
        assert run(["trade", "--config", cfg, "--seed", 1, "--out", tmp_path / "f"]) == 0
        assert run(["trade", "--seed", 1, "--out", tmp_path / "d"]) == 0
        for name in ("schedules.json", "trace.json", "ledger.chain"):
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

    def test_config_dataset_with_utc_offset_flags_every_attacked_sample(self, tmp_path):
        from plexisim import telemetry

        start = datetime(2021, 6, 1, tzinfo=timezone(timedelta(hours=1)))
        data = tmp_path / "d.csv"
        telemetry.write_dataset(data, telemetry.generate_synthetic(2, seed=2, start=start)[:70])
        assert data.read_text().splitlines()[1].startswith("2021-06-01T00:00:00+01:00,")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(data)}))
        out = tmp_path / "a"
        assert run(["attack", "--config", cfg, "--seed", 4, "--out", out]) == 0
        with open(out / "attack_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 70 and rows[0]["time"] == "2021-06-01T00:00:00+01:00"
        for row in rows:
            assert row["attacked"] != row["original"]
            assert row["flagged"] == "1"


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
        "ledger.chain": "b60a55e7e2afc928131007bc5099c9d1a495623f628dc9554c6b2ca9d82ad202",
    }),
    "trade": (["trade"], {
        "ledger.chain": "3572ce3344539f39f912ea9da808f2bab4d095cf3d82fd599f88b2faaf93fb0b",
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


def _registry_with_edited_data(tmp_path, edit):
    """The bytes of a saved three-block chain after ``edit``, as a registry."""
    out = tmp_path / "o"
    run(["enroll", "--n", 3, "--seed", 1, "--out", out])
    registry = out / "ledger.chain"
    registry.write_bytes(edit(registry.read_bytes()))
    return ["enroll", "--n", 1, "--out", out, "--registry", registry]


def _truncated_registry(tmp_path):
    return _registry_with_edited_data(tmp_path, lambda data: data[:-20])


def _registry_with_edited_block(tmp_path, edit):
    """The first record of a saved chain replaced by ``edit`` of its raw
    fields, without re-hashing it."""
    def edited(data):
        first, *rest = split_records(data)
        return edit(first) + joined(rest)
    return _registry_with_edited_data(tmp_path, edited)


def _registry_with_edited_fields(tmp_path, **fields):
    return _registry_with_edited_block(tmp_path, lambda rec: record_bytes(**dict(rec, **fields)))


def _registry_with_edited_payload(tmp_path, edit):
    """The first tx's payload replaced by ``edit`` of it, its length kept
    right, without re-hashing."""
    return _registry_with_edited_block(tmp_path, lambda rec: record_bytes(**dict(
        rec, payload=canonical_json(edit(json.loads(rec["payload"]))).encode())))


def _float_bits(value) -> int:
    """The int64 that the eight bytes of the double ``value`` read as."""
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _registry_commit_time_string(tmp_path):
    # The commit time's eight bytes hold its decimal digits.
    return _registry_with_edited_block(tmp_path, lambda rec: record_bytes(**dict(
        rec, committed=int.from_bytes(b"%08d" % rec["committed"], "little"))))


def _registry_commit_time_missing(tmp_path):
    return _registry_with_edited_block(tmp_path, lambda rec: cut_out(record_bytes(**rec), 32, 40))


def _registry_submit_time_edited(tmp_path):
    # A well-formed edit of an unsigned field: only the block hash catches it.
    return _registry_with_edited_fields(tmp_path, submitted=6500)


def _registry_payload_not_an_object(tmp_path):
    return _registry_with_edited_payload(tmp_path, lambda payload: 5)


def _registry_payload_without_device_id(tmp_path):
    return _registry_with_edited_payload(tmp_path, lambda payload: {
        k: v for k, v in payload.items() if k != "device_id"})


def _registry_device_id_not_hex(tmp_path):
    return _registry_with_edited_payload(tmp_path, lambda payload: dict(payload, device_id="zz"))


def _registry_submit_time_infinite(tmp_path):
    # The submit time's eight bytes hold a float infinity.
    return _registry_with_edited_fields(tmp_path, submitted=_float_bits(math.inf))


def _registry_owner_id_edited(tmp_path):
    # A well-formed edit: only the tx_id rebuilt from the payload catches it.
    return _registry_with_edited_payload(tmp_path, lambda payload: dict(payload,
                                                                        owner_id="mallory"))


def _json_lines(data: bytes) -> bytes:
    """A chain in the earlier format: one JSON line per block."""
    blocks, prev = [], "0" * 64
    for rec in split_records(data):
        blocks.append({"height": len(blocks), "prev_hash": prev,
                       "block_hash": rec["block_hash"].hex(),
                       "sim_time_committed": rec["committed"],
                       "txs": [{"payload": json.loads(rec["payload"]),
                                "signer": rec["signer"].decode(),
                                "signature": rec["signature"].hex(),
                                "sim_time_submitted": rec["submitted"]}]})
        prev = blocks[-1]["block_hash"]
    return "".join(json.dumps(b, separators=(",", ":")) + "\n" for b in blocks).encode()


def _registry_in_old_format(tmp_path):
    return _registry_with_edited_data(tmp_path, _json_lines)


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


def _scenario_window_past_int64(tmp_path):
    # The settlement event would commit at a sim time no chain record holds.
    return _scenario_with(tmp_path, lambda s: s["requests"][0].update(
        window={"start": 10_000_000_000_000, "duration": 1}))


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


def _rate_empty_item(tmp_path):
    return _bench(tmp_path, "10,,20")


def _rate_trailing_comma(tmp_path):
    return _bench(tmp_path, "40,")


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


def _topology_link_covered_by_wire_time(tmp_path):
    return _topology_with_edge(tmp_path, link_delay_ms=-0.2)


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
    return _registry_with_edited_block(tmp_path, lambda rec: record_bytes(**dict(
        rec, signer=b"\xff" + rec["signer"][1:])))


def _registry_payload_nested_deep(tmp_path):
    return _registry_with_edited_fields(tmp_path, payload=b"[" * 200_000 + b"]" * 200_000)


def _bench_config_nested_deep(tmp_path):
    argv = _bench_config(tmp_path, {})
    Path(argv[argv.index("--config") + 1]).write_text("[" * 200_000 + "]" * 200_000)
    return argv


def _registry_block_unknown_key(tmp_path):
    # A field the record does not have, between its header and its signer.
    return _registry_with_edited_block(tmp_path, lambda rec: record_bytes(**rec).replace(
        rec["signer"], b"note=x" + rec["signer"], 1))


def _registry_tx_unknown_key(tmp_path):
    # The tx's derived tx_id stored after its payload, as a field the
    # record does not have.
    return _registry_with_edited_block(tmp_path, lambda rec: record_bytes(**rec) + hashlib.sha256(
        rec["payload"] + rec["signature"]).digest())


def _registry_with_an_empty_block(tmp_path):
    # Hashed as a block of no txs would be, so only its empty payload is wrong.
    def appended(data):
        records = split_records(data)
        prev, t = records[-1]["block_hash"].hex(), records[-1]["committed"]
        block_hash = hashlib.sha256(f"{len(records)}|{prev}|{t}|".encode()).digest()
        return data + record_bytes(block_hash, t, t, bytes(64), b"", b"")
    return _registry_with_edited_data(tmp_path, appended)


def _registry_commit_time_falling(tmp_path):
    # The last block re-timed to commit with the first and re-hashed, as an
    # editor could, so only the fall of its commit time is wrong.
    def retimed(data):
        *records, last = split_records(data)
        t = records[0]["committed"]
        tx_id = hashlib.sha256(last["payload"] + last["signature"]).hexdigest()
        body = (f'{len(records)}|{records[-1]["block_hash"].hex()}|{t}|{tx_id}|'
                f'{json.dumps(last["signer"].decode())}|{last["submitted"]}')
        block_hash = hashlib.sha256(body.encode("ascii")).digest()
        return joined([*records, dict(last, block_hash=block_hash, committed=t)])
    return _registry_with_edited_data(tmp_path, retimed)


def _registry_in_missing_directory(tmp_path):
    return ["enroll", "--n", 1, "--out", tmp_path / "o", "--registry",
            tmp_path / "missing" / "dir" / "x"]


def _registry_in_missing_directory_under_out(tmp_path):
    return ["enroll", "--n", 1, "--out", tmp_path / "o", "--registry",
            tmp_path / "o" / "missing" / "x"]


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
    _registry_submit_time_edited, _registry_with_an_empty_block, _registry_commit_time_falling,
    _scenario_without_bids, _scenario_not_json, _scenario_issuer_not_string,
    _scenario_owner_not_string, _scenario_bid_id_not_string, _scenario_capacity_nan,
    _scenario_price_nan, _scenario_quantity_nan, _scenario_window_start_infinite,
    _scenario_bid_for_unknown_request, _scenario_window_start_fractional,
    _scenario_window_duration_fractional, _scenario_window_start_bool,
    _scenario_controllable_string, _scenario_capacity_string, _scenario_quantity_bool,
    _scenario_window_past_int64,
    _topology_node_without_id, _attack_config_without_dataset, _attack_dataset_null,
    _attack_dataset_list, _attack_dataset_missing, _attack_dataset_non_finite,
    _credential_model_not_an_object, _credential_model_field_not_a_number,
    _credential_model_field_bool, _certificate_footprint_zero,
    _credential_model_field_negative, _non_numeric_rate,
    _rate_nan, _rate_inf, _rate_zero, _rate_negative, _rate_empty_item, _rate_trailing_comma,
    _duration_nan, _duration_inf,
    _topology_negative_link, _topology_link_covered_by_wire_time, _enroll_negative_count,
    _registry_is_a_directory, _out_is_a_file,
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
    _registry_in_missing_directory, _registry_in_missing_directory_under_out,
])
def test_malformed_input_exits_one_with_error_line(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    out = Path(argv[argv.index("--out") + 1])
    existed = out.exists()
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # A refused command leaves no --out directory behind.
    if not existed:
        assert not out.exists()


SRC = Path(__file__).resolve().parents[1] / "src"


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "plexisim", "attack", "--synthetic", "1", "--out", str(tmp_path)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "attack_report.csv").exists()


@pytest.mark.parametrize("command", ["enroll", "trade", "attack", "bench"])
def test_out_that_is_a_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    def work(args):
        raise AssertionError(f"{command} ran although --out is a file")

    monkeypatch.setattr(cli, f"cmd_{command}", work)
    out = tmp_path / "o"
    out.write_text("")
    assert run([command, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: --out ")


MODULES = sorted(p.stem for p in (SRC / "plexisim").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    proc = subprocess.run([sys.executable, "-c", f"import plexisim.{module}"],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _bound_names(node) -> list:
    """The names an import binds, but ``from __future__`` features."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_uses_every_name_it_imports(module):
    tree = ast.parse((SRC / "plexisim" / f"{module}.py").read_text(encoding="utf-8"))
    imported = {name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"imported but unused: {sorted(imported - used)}"


def test_readme_library_sketch_runs_as_written():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
