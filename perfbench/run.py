"""plexisim host-time benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload trade-rounds --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Workloads are described in
``perfbench/README.md``. With ``--trace 0`` four untraced worker processes
measure ``--seconds / 4`` each, and the result holds the end-to-end
metrics. With ``--trace 1`` one untraced and one traced worker run
``--seconds / 2`` each, and the result holds the per-layer metrics and the
tracing overhead.

End-to-end host times are scaled to reference host speed (``hostspeed.py``):
each round's times are multiplied by the reference block's nominal time over
its measured time during that round. The unscaled figures are printed on the
``# unscaled`` line and kept in the record.

Human-readable lines go first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record (environment, sample counts, per-round data) is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("onboard-audit", "trade-rounds", "telemetry-audit", "simnet-sweep")
MEASURE_WORKERS = 4
TIME_LIMIT_S = 170.0



class WorkerError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, seconds: float, mode: str,
                 deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns (its result, clock at spawn)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", OUT]
    # A fixed hash seed gives every worker the same dict and set layouts.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(5.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned_at


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def op_seconds(r: dict, scaled: bool) -> list:
    """Per-operation host times of one round, scaled by ``hostspeed`` or raw."""
    k = r["op_scale"] if scaled else 1.0
    return [dt * k for dt in r["item_s"]]


def ops_per_s(rounds: list, scaled: bool = True) -> float:
    """Ops completed per second of op time; set-up, round resets and audits excluded."""
    return sum(r["ops"] for r in rounds) / sum(sum(op_seconds(r, scaled)) for r in rounds)


def audit_us(r: dict, scaled: bool = True) -> float:
    return sum(r["audit_s"].values()) * 1e6 / r["txs"] * (r["audit_scale"] if scaled else 1.0)


def latency(measured: list, scaled: bool = True) -> dict:
    """p50 and p90 over operations of each one's median host time across workers.

    Every worker runs the same operations on the same inputs, so each
    operation has one time per worker that reached its round. Their median
    keeps a host hiccup during one worker's run of it out of the tail.
    """
    times = {}
    for res in measured:
        for r in res["rounds"]:
            for j, (dt, w) in enumerate(zip(op_seconds(r, scaled), r["weights"])):
                times.setdefault((r["index"], j), []).append(dt * 1e3 / w)
    lat_ms = [statistics.median(ts) for ts in times.values()]
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    return {"op_p50_ms": statistics.median(lat_ms), "op_p90_ms": p90,
            "samples": len(lat_ms), "samples_above_p90": sum(1 for x in lat_ms if x > p90),
            "samples_timed_by_every_worker": sum(len(ts) == len(measured)
                                                 for ts in times.values())}


def digest_errors(results: list) -> list:
    """Rounds run by several workers of one seed must end on the same digest."""
    seen, errors = {}, []
    for result in results:
        for r in result["rounds"]:
            first = seen.setdefault(r["index"], r["digest"])
            if first != r["digest"]:
                errors.append(f"round {r['index']}: digest {r['digest'][:12]} != {first[:12]}")
    return errors


def environment(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(), "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    # After a fresh clone or `git gc` the branch lives only in packed-refs.
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                commit, _, name = line.strip().partition(" ")
                if name == ref:
                    return commit
    except OSError:
        pass
    return None


def timings(measured: list, setups: list, scaled: bool) -> dict:
    # Each worker is a separate sample of whatever host noise the scale
    # leaves, so throughput, audit and set-up are taken per worker (per round
    # for the audit) and the run reports the median; latency per operation.
    lat = latency(measured, scaled)
    return {
        "ops_per_s": statistics.median(ops_per_s(res["rounds"], scaled) for res in measured),
        "op_p50_ms": lat["op_p50_ms"],
        "op_p90_ms": lat["op_p90_ms"],
        "audit_us_per_tx": statistics.median(audit_us(r, scaled)
                                             for res in measured for r in res["rounds"]),
        "setup_s": statistics.median(
            setup * (res["setup_scale"] if scaled else 1.0)
            for setup, res in zip(setups, measured)),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in measured),
    }


def end_to_end(args, deadline: float) -> tuple[dict, list, dict, dict]:
    measured, setups = [], []
    for _ in range(MEASURE_WORKERS):
        result, spawned = start_worker(args.workload, args.seed,
                                       args.seconds / MEASURE_WORKERS, "measure", deadline)
        setups.append(result["first_op_at"] - spawned)
        measured.append(result)
    lat = latency(measured)
    samples = {"op_samples": lat["samples"], "samples_above_p90": lat["samples_above_p90"],
               "op_samples_timed_by_every_worker": lat["samples_timed_by_every_worker"],
               "rounds": [len(res["rounds"]) for res in measured],
               "setup_s_unscaled": setups}
    metrics = timings(measured, setups, scaled=True)
    return metrics, measured, samples, timings(measured, setups, scaled=False)


def per_layer(args, deadline: float) -> tuple[dict, list, dict, dict]:
    plain, _ = start_worker(args.workload, args.seed, args.seconds / 2, "measure", deadline)
    traced, _ = start_worker(args.workload, args.seed, args.seconds / 2, "trace", deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = ops_per_s(plain["rounds"]) / ops_per_s(traced["rounds"])
    # Both sides at reference host speed: the traced spans carry the traced
    # worker's mean scale, the untraced op times their rounds' own.
    items = sum(r["items"] for r in plain["rounds"])
    plain_us_per_item = sum(sum(op_seconds(r, True)) for r in plain["rounds"]) * 1e6 / items
    traced_scale = (sum(sum(op_seconds(r, True)) for r in traced["rounds"])
                    / sum(r["op_s"] for r in traced["rounds"]))
    metrics["trace.program_self_over_untraced"] = (traced["program_us_per_item"] * traced_scale
                                                   / plain_us_per_item)
    samples = {"rounds_untraced": len(plain["rounds"]), "rounds_traced": len(traced["rounds"]),
               "op_samples_traced": sum(len(r["item_s"]) for r in traced["rounds"])}
    return metrics, [plain, traced], samples, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "plexisim", "__init__.py")):
        print(f"error: no plexisim sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        if args.trace:
            metrics, results, samples, unscaled = per_layer(args, deadline)
        else:
            metrics, results, samples, unscaled = end_to_end(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for res in results for r in res["rounds"])
    failed = sum(r["failed"] for res in results for r in res["rounds"])
    errors = [e for res in results for e in res["errors"]] + digest_errors(results)
    correct = failed == 0 and not errors
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    env = environment(args)
    record = {"env": env, "samples": samples, "metrics": metrics, "unscaled": unscaled,
              "attempted": attempted, "failed": failed, "errors": errors[:50],
              "digests": {r["index"]: r["digest"] for res in results for r in res["rounds"]},
              "rounds": [[{k: v for k, v in r.items() if k not in ("item_s", "weights")}
                          for r in res["rounds"]]
                         for res in results]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("# env " + json.dumps(env, sort_keys=True))
    print("# samples " + json.dumps(samples, sort_keys=True))
    if unscaled:
        print("# unscaled " + json.dumps(unscaled, sort_keys=True))
    for error in errors[:10]:
        print(f"# check failed: {error}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} ratio  ({failed}/{attempted} ops)")
    for key, unit in units.items():
        print(f"{key:40s} {metrics[key]:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


def declared_units(trace: int) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
