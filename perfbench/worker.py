"""One worker process: set up a workload, run it in rounds, report as JSON.

Run by ``run.py``; its last stdout line is the result. Modes:

    measure  run untraced rounds until ``--seconds`` have passed
    trace    the same with span wrappers installed, plus per-layer metrics

Set-up time is measured from before ``import plexisim``: the parent notes
the clock when it starts this process, and this process reports the clock
(``time.perf_counter``, the system-wide monotonic clock) at its first
operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_ERRORS = 20
# Set-up is timed once per worker, so its scale averages the first second of
# ``hostspeed`` points rather than resting on one.
SETUP_POINTS = 5


def import_plexisim() -> None:
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import plexisim

    if not os.path.abspath(plexisim.__file__).startswith(src + os.sep):
        raise ImportError(f"plexisim imported from {plexisim.__file__}, not {src}")


def run_rounds(wl, seconds: float, tracer=None) -> dict:
    """Closed loop over rounds; returns per-round records (op times, audit, digest).

    Host times come with their ``hostspeed`` scale: ``op_scale`` and
    ``audit_scale`` per round, ``setup_scale`` for the worker. A round lasts
    about a second, long enough to average the block's own noise and short
    against the host's phases.
    """
    rnd = wl.new_round(0)
    first_op_at = time.perf_counter()
    deadline = first_op_at + seconds
    cal = hostspeed.Calibration()
    rounds, errors = [], []
    op_id = 0
    while True:
        if rnd is None:
            rnd = wl.new_round(len(rounds))
        failed, item_s = 0, []
        first_cal = cal.take()
        for item in rnd.items:
            cal.due()
            op_id += 1
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.begin_op(op_id)
            try:
                out = wl.run_op(rnd, item)
                problems = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                problems = [f"{type(exc).__name__}: {exc}"]
                rnd.counts[f"raised.{type(exc).__name__}"] += 1
            finally:
                if tracer is not None:
                    tracer.end_op()
            dt = time.perf_counter() - t0
            if problems is None:
                try:
                    problems = wl.check(rnd, item, out)
                except Exception as exc:  # malformed output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            item_s.append(dt)
            if problems:
                failed += item.weight
                errors.extend(problems[: MAX_ERRORS - len(errors)])
        audit_cal = cal.take()
        audit = wl.finish_round(rnd)
        cal.take()
        weights = [item.weight for item in rnd.items]
        if audit.errors:
            # A round whose chain or sweep fails its audit fails every op in it.
            failed = sum(weights)
            errors.extend(audit.errors[: MAX_ERRORS - len(errors)])
        rounds.append({
            "index": rnd.index, "ops": sum(weights), "items": len(weights), "op_s": sum(item_s),
            "failed": failed, "digest": audit.digest, "txs": audit.txs,
            "blocks": audit.blocks, "audit_s": audit.seconds,
            "chain_bytes": audit.chain_bytes, "sim_commit_wait_ms": audit.sim_commit_wait_ms,
            "counts": dict(rnd.counts), "extra": audit.extra, "item_s": item_s,
            "weights": weights, "op_scale": cal.scale(first_cal, audit_cal),
            "audit_scale": cal.scale(audit_cal, audit_cal + 1),
        })
        rnd = None
        if time.perf_counter() >= deadline:
            break
    return {"first_op_at": first_op_at, "setup_scale": cal.scale(0, SETUP_POINTS - 1),
            "rounds": rounds, "errors": errors}


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced run
# ---------------------------------------------------------------------------

def layer_metrics(summary: dict, rounds: list) -> dict:
    names, layers, op_ns = summary["names"], summary["layers"], summary["op_ns"]
    items = sum(r["items"] for r in rounds)
    txs = sum(r["txs"] for r in rounds)
    counts = Counter()
    for r in rounds:
        counts.update(r["counts"])

    def calls(name):
        return names[name]["calls"] if name in names else 0

    def self_us(name, per=None):
        n = calls(name) if per is None else per
        return names[name]["self_ns"] / n / 1e3 if n and name in names else 0.0

    def share(layer):
        return layers.get(layer, 0) / op_ns if op_ns else 0.0

    def per_sample(name):
        return self_us(name, calls(name) * 48)

    def audit_us(step):
        return sum(r["audit_s"][step] for r in rounds) * 1e6 / txs if txs else 0.0

    def clear_us(lo, hi):
        picked = [ns for (n_bids, _), ns in names.get("market.clear", {}).get("meta", [])
                  if lo <= n_bids <= hi]
        return sum(picked) / len(picked) / 1e3 if picked else 0.0

    clears = [m for m, _ in names.get("market.clear", {}).get("meta", [])]
    sims = [m for m, _ in names.get("simnet.run_sim", {}).get("meta", [])]
    sim_txs = sum(m[0] for m in sims)
    blocks = sum(r["blocks"] for r in rounds)
    saturation = rounds[-1]["extra"].get("saturation_tps", {})

    return {
        "identity.sign.calls": calls("identity.sign") / items,
        "identity.sign.self_us": self_us("identity.sign"),
        "identity.signature_valid.calls": calls("identity.signature_valid") / items,
        "identity.signature_valid.self_us": self_us("identity.signature_valid"),
        "identity.derive_keypair.self_us": self_us("identity.derive_keypair"),
        "identity.verify.self_us": self_us("identity.verify"),
        "identity.enroll.self_us": self_us("identity.enroll"),
        "identity.share": share("identity"),
        "ledger.submit.calls": calls("ledger.submit") / items,
        "ledger.submit.self_us": self_us("ledger.submit"),
        "ledger.query.calls": calls("ledger.query") / items,
        "ledger.query.self_us": self_us("ledger.query"),
        "ledger.create_nft.self_us": self_us("ledger.create_nft"),
        "ledger.record_event.self_us": self_us("ledger.record_event"),
        "ledger.blocks": blocks / len(rounds),
        "ledger.tx_per_block": txs / blocks if blocks else 0.0,
        "ledger.sim_commit_wait_ms": statistics.median(r["sim_commit_wait_ms"] for r in rounds),
        "ledger.rejects.EnrollmentRejected": counts["EnrollmentRejected"] / items,
        "ledger.rejects.other": sum(v for k, v in counts.items()
                                    if k.startswith("raised.")) / items,
        "ledger.save_chain.us_per_tx": audit_us("save"),
        "ledger.read_chain.us_per_tx": audit_us("read"),
        "ledger.replay_chain.us_per_tx": audit_us("replay"),
        "ledger.state_eq.us_per_tx": audit_us("eq"),
        "ledger.chain_bytes_per_tx": sum(r["chain_bytes"] for r in rounds) / txs if txs else 0.0,
        "ledger.share": share("ledger"),
        "market.clear.calls": calls("market.clear") / items,
        "market.clear.self_us.bids_le12": clear_us(0, 12),
        "market.clear.self_us.bids_13-20": clear_us(13, 20),
        "market.clear.self_us.bids_gt20": clear_us(21, 10**9),
        "market.unsat": sum(u for _, u in clears) / len(clears) if clears else 0.0,
        "market.share": share("market"),
        "csp.solve.calls": calls("csp.solve") / items,
        "csp.solve.self_us": self_us("csp.solve"),
        "csp.check_assignment.self_us": self_us("csp.check_assignment"),
        "csp.share": share("csp"),
        "aggregator.self_us_per_request": (
            layers.get("aggregator", 0) / calls("aggregator.run_request") / 1e3
            if calls("aggregator.run_request") else 0.0),
        "aggregator.share": share("aggregator"),
        "workflow.advance.calls": calls("workflow.advance") / items,
        "workflow.advance.self_us": self_us("workflow.advance"),
        "workflow.notifications": sum(r["extra"].get("notifications", 0)
                                      for r in rounds) / items,
        "workflow.share": share("workflow"),
        "telemetry.sign_stream.us_per_sample": per_sample("telemetry.sign_stream"),
        "telemetry.detect_tamper.us_per_sample": per_sample("telemetry.detect_tamper"),
        "telemetry.apply_profile.us_per_sample": per_sample("telemetry.apply_profile"),
        "telemetry.estimate.us_per_sample": per_sample("telemetry.estimate"),
        "telemetry.flagged": counts["flagged"] / items,
        "telemetry.share": share("telemetry"),
        "simnet.run_sim.calls": calls("simnet.run_sim") / items,
        "simnet.run_sim.us_per_sim_tx": (names["simnet.run_sim"]["self_ns"] / sim_txs / 1e3
                                         if sim_txs else 0.0),
        "simnet.trace_events": sum(m[1] for m in sims) / sim_txs if sim_txs else 0.0,
        "simnet.saturation_tps.nft": saturation.get("nft", 0.0),
        "simnet.saturation_tps.certificate": saturation.get("certificate", 0.0),
        "simnet.share": share("simnet"),
        "bench.share": share("bench"),
        "trace.spans": sum(v["calls"] for v in names.values()) / items,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["measure", "trace"], required=True)
    parser.add_argument("--out", required=True, help="directory for scratch and span files")
    args = parser.parse_args(argv)

    import_plexisim()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    result = run_rounds(wl, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
        summary = spans.summarize(tracer.spans)
        result["layers"] = layer_metrics(summary, result["rounds"])
        items = sum(r["items"] for r in result["rounds"])
        program_ns = sum(ns for layer, ns in summary["layers"].items() if layer != "bench")
        result["program_us_per_item"] = program_ns / items / 1e3
        tracer.write(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        import credprobe

        result["layers"].update(credprobe.measure(args.seed))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
