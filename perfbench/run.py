"""authcap benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload region_sweep --seed 1 --seconds 20 --trace 0

Run from a source checkout (it imports `src/authcap` and reads
`configs/*.json`; nothing needs installing).  Workloads and metric names
are listed in BENCHMARK.json.

A run does, in order:

1. `SETUP_RUNS` set-up probes, one fresh interpreter at a time: each times
   `import authcap` plus the workload's model build (classifier verdict
   included) from process spawn until the model is ready.  `setup_s` is
   their median.
2. The same build in this process, then one untimed warm-up job.
3. Jobs back to back until `--seconds` have passed (a closed loop with one
   caller).  `job_s` is the median job time; the highest percentile with at
   least ten samples beyond it is printed with the sample count.
   `peak_rss_mb` is this process's peak RSS.

`setup_s` and `job_s` are given at the reference machine speed: each
timed piece of work runs pinned to the CPU a gauge finds fastest, and its
wall time is scaled by the gauge read just before and after it (gauge.py),
because the CPUs of the shared machines this runs on drift in speed by
20-70% within seconds to minutes.  The unscaled wall times and the gauge
readings are printed alongside.

With `--trace 1`, jobs alternate between traced and untraced; traced jobs
record spans and counts around every authcap call and then run the
workload's layer probes outside the timed job.  The traced `region_sweep`
run also times the CLI commands and the Gaussian closed form once.  The run prints the
per-layer metrics, the tracing overhead (traced minus untraced median job
time) and each span's self time, and writes every span to
`.perfbench/trace-<workload>-<seed>.json`.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it holds the run's details and
environment.  A job whose output check fails or that raises counts as
failed, so `failed / attempted` is the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracing import Tracer, median_or_zero

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _prepare_environment():
    """Cap BLAS/OpenMP threads at one, since every timed piece of work runs
    pinned to one CPU (gauge.py), and make this process and every child
    import authcap from the checkout's `src`."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    sys.path.insert(0, src)


def run_environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "git_commit": commit, "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def probe_setup(workload: str, seed: int) -> dict:
    """Spawn a fresh interpreter that builds the workload's model; return
    the time from spawn until it reports ready, plus its own timings."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "models.py"), workload, str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited {code}")
    out = json.loads(line)
    out["setup_s"] = ready
    return out


def tail(samples: list) -> dict:
    """Median, and the highest percentile that has at least ten samples
    beyond it (left out below eleven samples)."""
    s = sorted(samples)
    n = len(s)
    out = {"samples": n, "median": statistics.median(s), "all": samples}
    if n >= 11:
        out["pct"] = 100.0 * (n - 10) / n
        out["value"] = s[n - 11]
    return out


def layer_metrics(spec: list, tr, untraced: list, traced: list) -> dict:
    """Per-layer metrics from the trace.  A `<span>_s` / `<span>_us`
    metric is the median duration of that span; any other name is the
    median of the counts recorded under it.  A layer the workload never
    calls reads 0."""
    job_untraced = statistics.median(untraced)
    job_traced = statistics.median(traced)
    derived = {"trace.job_s": job_traced, "trace.overhead_s": job_traced - job_untraced}
    out = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        if name in derived:
            value = derived[name]
        elif tr.count_values(name):
            value = median_or_zero(tr.count_values(name))
        elif name.endswith("_us"):
            value = 1e6 * median_or_zero(tr.durations(name[:-3]))
        elif name.endswith("_s"):
            value = median_or_zero(tr.durations(name[:-2]))
        else:
            value = 0.0
        out[name] = {"value": value, "unit": unit}
    return out


def measure(wl, seed: int, seconds: float, trace: bool, spec: dict,
            setup_runs: int = SETUP_RUNS) -> tuple:
    """Run one workload; return (result line, detail dict)."""
    from gauge import REFERENCE_S, ReferenceClock   # imports numpy: after thread caps

    tr = Tracer(trace)
    off = Tracer(False)
    clock = ReferenceClock()
    setups, setup_walls = [], []
    for _ in range(setup_runs):
        clock.start()
        p = probe_setup(wl.name, seed)
        setup_walls.append(p["setup_s"])
        setups.append(clock.stop(p["setup_s"]))
    clock.take()

    tr.job = "setup"
    st = wl.prepare(ROOT, seed, tr)
    attempted = failed = 0

    def run_job(k: int, tracer) -> tuple:
        """Run job k; return its (wall, reference-speed) seconds."""
        nonlocal attempted, failed
        tracer.job = k
        attempted += 1
        try:
            with tracer.span("job"):
                problems = wl.job(st, k, tracer, clock)
            times = clock.take()
            if tracer.enabled:
                with tracer.span("probe"):
                    wl.layer_probe(st, k, tracer)
        except Exception:
            times = clock.take()
            traceback.print_exc()
            problems = ["job raised"]
        if problems:
            failed += 1
            print(f"{wl.name} job {k} failed: {'; '.join(problems)}", file=sys.stderr)
        return times

    run_job(0, off)                      # warm-up, untimed
    times = {False: [], True: []}        # traced? -> job times at reference speed
    walls = []
    k = 1
    deadline = time.perf_counter() + seconds
    while k <= 2 or time.perf_counter() < deadline:
        traced = trace and k % 2 == 0
        wall, scaled = run_job(k, tr if traced else off)
        times[traced].append(scaled)
        if not traced:
            walls.append(wall)
        k += 1

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job = tail(times[False])
    detail = {"workload": wl.name, "seconds": seconds, "trace": trace,
              "environment": run_environment(seed),
              "setup_s_samples": setups, "setup_wall_s_samples": setup_walls,
              "job_s": job, "job_wall_s": tail(walls),
              "gauge_s": {"reference": REFERENCE_S,
                          "median": statistics.median(clock.readings)},
              "error_rate": failed / attempted, "peak_rss_mb": rss_mb}
    if trace:
        metrics = layer_metrics(spec["per_layer"], tr, times[False], times[True])
        detail["traced_job_s"] = tail(times[True])
        detail["self_times"] = tr.self_times()
        path = ROOT / ".perfbench" / f"trace-{wl.name}-{seed}.json"
        tr.dump(path, {"detail": detail})
        detail["trace_file"] = str(path.relative_to(ROOT))
    else:
        values = {"setup_s": statistics.median(setups), "job_s": job["median"],
                  "peak_rss_mb": rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    missing = [p for p in ("src/authcap/__init__.py", "configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: not an authcap checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _prepare_environment()
    from workloads import WORKLOADS

    result, detail = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                             bool(args.trace), spec)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
