"""The host-speed scale: its arithmetic and where the worker applies it."""

import pytest

import hostspeed
import run
import worker
import workloads


def test_scale_is_nominal_over_mean_block_time():
    cal = hostspeed.Calibration()
    cal.points = [hostspeed.REF_S, 3 * hostspeed.REF_S, 2 * hostspeed.REF_S]
    assert cal.scale(0, 0) == pytest.approx(1.0)
    assert cal.scale(0, 1) == pytest.approx(0.5)
    assert cal.scale(1, 2) == pytest.approx(0.4)


def test_due_takes_a_point_only_after_the_interval(monkeypatch):
    monkeypatch.setattr(hostspeed, "time_block", lambda: hostspeed.REF_S)
    cal = hostspeed.Calibration()
    assert cal.take() == 0
    cal.due()
    assert len(cal.points) == 1
    cal.taken_at -= hostspeed.EVERY_S
    cal.due()
    assert len(cal.points) == 2


def test_scaled_op_times_are_raw_times_times_the_round_scale(tmp_path):
    wl = workloads.OnboardAudit(7, str(tmp_path))
    wl.round_ops = 20
    (r,) = worker.run_rounds(wl, 0)["rounds"]
    assert r["op_scale"] > 0 and r["audit_scale"] > 0
    assert run.op_seconds(r, scaled=False) == r["item_s"]
    assert sum(run.op_seconds(r, scaled=True)) == pytest.approx(r["op_s"] * r["op_scale"])
    assert run.audit_us(r) == pytest.approx(run.audit_us(r, scaled=False) * r["audit_scale"])
