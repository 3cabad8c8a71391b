"""Output checks: honest runs pass, corrupted outputs count as failed ops."""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

import worker
import workloads
from plexisim import aggregator, identity, simnet, telemetry

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def small(name, tmp_path, seed=5):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path))
    if name == "onboard-audit":
        wl.round_ops = 40
    elif name == "trade-rounds":
        wl.mix = {"small": [2, 5], "hard": [14], "greedy": [22], "unsat": [3]}
    elif name == "telemetry-audit":
        wl.round_ops = 8
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_honest_round_has_no_failures(name, tmp_path):
    result = worker.run_rounds(small(name, tmp_path), 0)
    (rnd,) = result["rounds"]
    assert result["errors"] == []
    assert rnd["failed"] == 0 and rnd["ops"] > 0
    again = worker.run_rounds(small(name, tmp_path), 0)
    assert again["rounds"][0]["digest"] == rnd["digest"]


def test_dropped_tamper_flag_fails_the_op(tmp_path, monkeypatch):
    honest = telemetry.detect_tamper
    monkeypatch.setattr(telemetry, "detect_tamper", lambda *a: honest(*a)[1:])
    wl = small("telemetry-audit", tmp_path)
    rnd = wl.new_round(0)
    attacked = sum(1 for item in rnd.items if item.spec[1] is not None)
    (result,) = worker.run_rounds(wl, 0)["rounds"]
    assert attacked > 0
    assert result["failed"] == attacked


def test_wrong_cover_fails_the_op(tmp_path, monkeypatch):
    honest = aggregator._clear

    def short_cover(bids, quantity):
        result = honest(bids, quantity)
        if result is None:
            return result
        return dataclasses.replace(result, selected=result.selected[:-1])

    monkeypatch.setattr(aggregator, "_clear", short_cover)
    wl = small("trade-rounds", tmp_path)
    wl.mix = {"small": [8, 8, 8], "hard": [], "greedy": [], "unsat": []}
    (result,) = worker.run_rounds(wl, 0)["rounds"]
    assert result["failed"] == 3


def test_check_trade_catches_unrestored_baseline(tmp_path):
    wl = small("trade-rounds", tmp_path)
    wl.mix = {"small": [4], "hard": [], "greedy": [], "unsat": []}
    rnd = wl.new_round(0)
    (item,) = rnd.items
    schedule, state, applied, restored = wl.run_op(rnd, item)
    resources = rnd.state[3].resources
    assert workloads.check_trade(resources, item.spec, (schedule, state, applied, restored)) == []
    stuck = dict(applied)
    assert workloads.check_trade(resources, item.spec, (schedule, state, applied, stuck))


def test_duplicate_not_rejected_fails_the_op(tmp_path, monkeypatch):
    honest = identity.enroll
    seen = set()

    def forgetful_enroll(device, owner, anchor, registry, **kw):
        # Binds a stand-in device when a bound one comes back, instead of
        # refusing it, so the op returns a valid key and a live token.
        if device.device_seed in seen:
            device = identity.make_device(f"stand-in-{len(seen)}", seed=len(seen))
        seen.add(device.device_seed)
        return honest(device, owner, anchor, registry, **kw)

    monkeypatch.setattr(identity, "enroll", forgetful_enroll)
    (result,) = worker.run_rounds(small("onboard-audit", tmp_path), 0)["rounds"]
    assert result["failed"] == 2


def test_sweep_point_failing_below_saturation_fails():
    point = simnet.run_benchmark([60.0], simnet.CredentialModel.nft_default(),
                                 duration_s=15.0, seed=1, n_devices=10)[0]
    spec = ("nft", 60.0, 1)
    assert workloads.check_sweep_point(spec, point) == []
    assert workloads.check_sweep_point(spec, dataclasses.replace(point, failed_tx_count=3))
    assert workloads.check_sweep_point(spec, dataclasses.replace(point,
                                                                 achieved_throughput_tps=40.0))


def test_saturation_outside_band_fails():
    assert workloads.check_saturation({"certificate": 120.0, "nft": 175.0}) == []
    assert workloads.check_saturation({"certificate": 135.0, "nft": 175.0})
    assert workloads.check_saturation({"certificate": 120.0, "nft": 160.0})


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "onboard-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
