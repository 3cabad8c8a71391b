"""Self-time arithmetic and wrapper lifetime of the span tracer."""

import json
import os

import pytest

import spans
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(sid, parent, name, start, end):
    return (sid, parent, name, start, end, 1, None, None)


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        span(2, 1, "identity.sign", 10, 40),
        span(3, 2, "ledger.query", 15, 25),
        span(4, 1, "ledger.submit", 50, 90),
        # Overlaps its sibling and runs past the parent's end.
        span(5, 1, "market.clear", 85, 110),
        span(1, 0, spans.OP, 0, 100),
    ]
    selfs = spans.self_times(synthetic)
    assert selfs == {1: 20, 2: 20, 3: 10, 4: 40, 5: 25}

    summary = spans.summarize(synthetic)
    assert summary["op_ns"] == 100
    assert summary["layers"] == {"bench": 20, "identity": 20, "ledger": 50, "market": 25}
    assert summary["names"]["ledger.submit"]["calls"] == 1


def test_self_time_of_disjoint_children_adds_up_to_the_parent():
    synthetic = [span(i + 2, 1, "identity.sign", 10 * i, 10 * i + 5) for i in range(5)]
    synthetic.append(span(1, 0, spans.OP, 0, 50))
    selfs = spans.self_times(synthetic)
    assert selfs[1] == 25
    assert sum(selfs.values()) == 50


def originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.patch_table()]


def small_onboard(tmp_path, seed=3):
    wl = workloads.OnboardAudit(seed, str(tmp_path))
    wl.round_ops = 40
    return wl


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    before = originals()
    tracer = spans.Tracer()
    tracer.install()
    assert all(getattr(owner, attr) is not fn for owner, attr, fn in before)
    traced = worker.run_rounds(small_onboard(tmp_path), 0, tracer)
    tracer.uninstall()

    assert tracer.installed == 0
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    recorded = len(tracer.spans)
    assert recorded > 0

    plain = worker.run_rounds(small_onboard(tmp_path), 0)
    assert len(tracer.spans) == recorded, "the untraced run went through a wrapper"
    # Tracing must not change what the program computes.
    assert [r["digest"] for r in plain["rounds"]] == [r["digest"] for r in traced["rounds"]]
    assert plain["rounds"][0]["failed"] == traced["rounds"][0]["failed"] == 0


def test_layer_metrics_cover_the_declared_per_layer_metrics(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = worker.run_rounds(small_onboard(tmp_path), 0, tracer)
    finally:
        tracer.uninstall()
    layers = worker.layer_metrics(spans.summarize(tracer.spans), result["rounds"])
    added_by_run = {"trace.overhead", "trace.program_self_over_untraced",
                    "identity.token_verify_us", "identity.cert_verify_us",
                    "identity.cert_over_token_verify",
                    "identity.cert_verify_factor_calibrated"}
    assert set(layers) | added_by_run == declared
    assert layers["ledger.rejects.EnrollmentRejected"] == pytest.approx(2 / 40)
    assert layers["identity.share"] > 0.5
    assert layers["market.clear.calls"] == 0
