"""Write BENCH_<pr>.json: perfbench's end-to-end metrics over a fixed seed list.

    python3 bench_record.py --pr <n>

Run from the root of a checkout. It first byte-compiles ``src/plexisim`` and
``perfbench`` (``compileall``), so that a checkout with stale or missing
bytecode does not count compilation in ``setup_s`` and ``peak_rss_mb``; the
file records which directories it compiled. Then, for each workload in
``BENCHMARK.json``, it runs ``perfbench/run.py --workload W --seed S
--seconds <run_seconds> --trace 0`` once per seed in ``SEEDS``, one run after another, and writes
``BENCH_<pr>.json`` at the root of the checkout. Per workload the file holds
the median and quartiles of every end-to-end metric over the seeds (each
seed's value is already perfbench's median over its workers), the
per-seed values, whether every run was ``correct``, and the failed and
attempted op counts. It also records the environment that perfbench
reports (nproc, CPU model, Python and ``cryptography`` versions, git commit)
and whether tracked files differed from that commit. Two BENCH files from
two commits, measured on one host, compare a change with its parent.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2, 3, 4, 5)
COMPILED_DIRS = ("src/plexisim", "perfbench")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One perfbench run; returns (its environment line, its result line)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return env, json.loads(lines[-1])


def byte_compile() -> list:
    """Bring the bytecode of ``COMPILED_DIRS`` up to date; returns them."""
    for rel in COMPILED_DIRS:
        if not compileall.compile_dir(os.path.join(ROOT, rel), quiet=1):
            raise RuntimeError(f"compileall failed in {rel}")
    return list(COMPILED_DIRS)


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def tracked_files_modified():
    """True when tracked files differ from HEAD; None outside a git checkout."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=ROOT, capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output file name, BENCH_<pr>.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    compiled = byte_compile()

    env, workloads = None, {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            env, result = run_once(workload, seed, spec["run_seconds"])
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"ops_per_s {result['metrics']['ops_per_s']['value']:.6g}", flush=True)
            results.append(result)
        metrics = {}
        for name, unit in units.items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"unit": unit, **summarize(values), "values": values}
        workloads[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
        }

    record = {
        "seeds": list(SEEDS),
        "run_seconds": spec["run_seconds"],
        "trace": 0,
        "byte_compiled": compiled,
        "env": {k: env[k] for k in ("nproc", "cpu_model", "python", "cryptography",
                                    "git_commit")},
        "tracked_files_modified": tracked_files_modified(),
        "workloads": workloads,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
