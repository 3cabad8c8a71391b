import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plexisim.cli import demo_scenario, main
from plexisim.ledger import read_chain, replay_chain


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
        assert run(["bench", "--rates", "40", "--duration", 10,
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
        assert run(["bench", "--rates", "40,120", "--duration", 10, "--mode", "nft",
                    "--config", cfg, "--seed", 2, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        # Capacity shrinks to the configured fog rate; storage to the new size.
        assert summary["modes"]["nft"]["saturation_tps"] <= 91
        assert summary["modes"]["nft"]["storage_bytes_100_devices"] == 51200


# sha256 of every file each command writes at --seed 1. A change that alters
# any seeded artifact must say so and update these on purpose.
GOLDEN = {
    "enroll": (["enroll", "--n", 200], {
        "enrollments.jsonl": "f52c956713238fc4f159e73618a2e960d4cb13e94f0b60216b2525344d3f3a9d",
        "ledger.jsonl": "c1ac0931dc4ba1a2977c9a312c3cb2a8e4c26ec1f743d7d0498c6d4b8f6eeb35",
    }),
    "trade": (["trade"], {
        "ledger.jsonl": "62f185aa148eb2f0fd7ff12b184f32d30ab94d27ca8261d90f6a9232c3c2ccb1",
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


def _topology_node_without_id(tmp_path):
    node = {"tier": "edge", "service_rate_tps": 100.0, "link_delay_ms": 1.0}
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"topology": {"nodes": [node]}}))
    return ["bench", "--rates", "40", "--duration", 10, "--config", cfg,
            "--out", tmp_path / "b"]


def _attack_config_without_dataset(tmp_path):
    cfg = tmp_path / "attack.json"
    cfg.write_text("{}")
    return ["attack", "--config", cfg, "--out", tmp_path / "a"]


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
    return ["bench", "--rates", "40", "--duration", 10, "--config", cfg,
            "--out", tmp_path / "b"]


def _bench_with_partial_key_bytes(tmp_path, value):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"credential_models": {"nft": {"partial_key_bytes": value}}}))
    return ["bench", "--rates", "40", "--duration", 10, "--config", cfg,
            "--out", tmp_path / "b"]


def _credential_model_field_not_a_number(tmp_path):
    return _bench_with_partial_key_bytes(tmp_path, "x")


def _credential_model_field_bool(tmp_path):
    return _bench_with_partial_key_bytes(tmp_path, True)


def _non_numeric_rate(tmp_path):
    return ["bench", "--rates", "40,x", "--duration", 10, "--out", tmp_path / "b"]


def _bench(tmp_path, rates, duration=10):
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
    return ["bench", "--rates", "40", "--duration", 10, "--config", cfg,
            "--out", tmp_path / "b"]


def _enroll_negative_count(tmp_path):
    return ["enroll", "--n", -1, "--out", tmp_path / "o"]


@pytest.mark.parametrize("make_argv", [
    _truncated_registry, _scenario_without_bids, _scenario_not_json,
    _topology_node_without_id, _attack_config_without_dataset, _attack_dataset_missing,
    _attack_dataset_non_finite,
    _credential_model_not_an_object, _credential_model_field_not_a_number,
    _credential_model_field_bool, _non_numeric_rate,
    _rate_nan, _rate_inf, _rate_zero, _rate_negative, _duration_nan, _duration_inf,
    _topology_negative_link, _enroll_negative_count,
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
