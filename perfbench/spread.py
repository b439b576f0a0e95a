"""Repeat the benchmark over seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance over median).

    python3 perfbench/spread.py --runs 10 [--workloads region_sweep simulate]
                                [--first-seed 1] [--out perfbench/baseline.json]

Runs are sequential, one `run.py` process at a time, with the seconds
from BENCHMARK.json; after the untraced runs of a workload comes one
traced run, whose per-layer metrics and span self times are kept.  A
spread above a third of the metric's bound is flagged; `--out` writes the
table as JSON (the recorded baseline).  Exits 1 when a spread exceeds its
bound or a job failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarise(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    table = {}
    ok = True
    for w in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        env = None
        job_samples, run_walls = [], []
        for i in range(args.runs):
            t0 = time.perf_counter()
            result, detail = run_once(w, args.first_seed + i, spec["run_seconds"])
            run_walls.append(time.perf_counter() - t0)
            attempted += result["attempted"]
            failed += result["failed"]
            env = detail["environment"]
            job_samples.append(detail["job_s"]["all"])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        traced, traced_detail = run_once(w, args.first_seed, spec["run_seconds"], trace=1)
        table[w] = {"attempted": attempted, "failed": failed,
                    "metrics": {n: summarise(v) for n, v in values.items()},
                    "job_samples": job_samples, "run_wall_s": run_walls,
                    "traced_run": {
                        "correct": traced["correct"],
                        "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
                        "self_times": traced_detail["self_times"]}}
        ok = ok and traced["correct"] and failed == 0
        for m in spec["end_to_end"]:
            s = table[w]["metrics"][m["name"]]
            flag = "" if s["spread"] <= m["bound"] / 3 else "  <-- above bound/3"
            ok = ok and s["spread"] <= m["bound"]
            print(f"{w:14s} {m['name']:12s} median {s['median']:.4f} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f} spread {s['spread']:.3f} (bound {m['bound']}){flag}",
                  flush=True)
        print(f"{w:14s} failed {failed} of {attempted}; longest run {max(run_walls):.1f} s",
              flush=True)
    if args.out:
        args.out.write_text(json.dumps({"runs": args.runs, "first_seed": args.first_seed,
                                        "run_seconds": spec["run_seconds"],
                                        "environment": env, "workloads": table},
                                       indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
