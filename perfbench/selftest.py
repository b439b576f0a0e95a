"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that:
* every workload emits exactly the metrics of BENCHMARK.json, with their
  units, in untraced and traced runs, and passes its output checks;
* a traced run reads 0 for every layer its workload never calls, and every
  per-layer metric is non-zero on some workload;
* each output check fails on a corrupted output;
* run.py exits non-zero, printing no result, in a directory holding only
  BENCHMARK.json and the benchmark.

Exits 0 when all hold and prints one line per failed check otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run

run._prepare_environment()

from authcap import (Channel, RegionBoundary, SamplerConfig,  # noqa: E402
                     closed_form_region, eval_one_aux, eval_two_aux, run_simulation,
                     sweep_region, two_aux_random_search)

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"region_sweep": W.RegionSweep(samples=200),
        "two_aux_check": W.TwoAuxCheck(samples=100, pairs=100),
        "simulate": W.Simulate(trials=200)}
# Layers (metric-name prefixes) each workload calls; all other per-layer
# metrics must read 0 on it.
LAYERS = {"region_sweep": ("classifier.", "regions.", "binary.", "cli.", "gaussian."),
          "two_aux_check": ("classifier.", "regions."),
          "simulate": ("classifier.", "protocol.")}
OFF = Tracer(False)
failures = []


def expect(ok: bool, what: str):
    if not ok:
        failures.append(what)
        print("FAIL", what, flush=True)


def check_emission():
    nonzero = set()
    for name, wl in TINY.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.measure(wl, 3, 0.0, trace, SPEC, setup_runs=1)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: metric names or units differ")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: output checks failed on good output")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            expect(all(math.isfinite(v) for v in values.values()),
                   f"{name} trace={trace}: non-finite metric")
            if trace:
                for k, v in values.items():
                    if v and not k.startswith("trace."):
                        nonzero.add(k)
                        expect(k.startswith(LAYERS[name]),
                               f"{name}: {k} moved but {name} never calls that layer")
    unused = {m["name"] for m in SPEC["per_layer"]
              if not m["name"].startswith("trace.")} - nonzero
    expect(not unused, f"per-layer metrics never emitted non-zero: {sorted(unused)}")


def check_region_sweep_trips():
    wl = TINY["region_sweep"]
    st = wl.prepare(run.ROOT, 3, OFF)
    sweep = sweep_region(st["model"], SamplerConfig(random_samples=200, seed=3))
    closed = closed_form_region(st["params"])
    expect(W.check_region_sweep(closed, sweep, OFF) == [], "region_sweep: good output rejected")
    no_grid = RegionBoundary([c for c in sweep.corners if not isinstance(c.extras["param"], float)],
                             sweep.unit)
    expect(W.check_region_sweep(closed, no_grid, OFF) != [],
           "region_sweep: front without its beta-grid corners accepted")
    negative = RegionBoundary([dataclasses.replace(sweep.corners[0], rl=-1e-3)]
                              + sweep.corners[1:], sweep.unit)
    expect(W.check_region_sweep(closed, negative, OFF) != [],
           "region_sweep: negative rate accepted")


def check_two_aux_trips():
    st = TINY["two_aux_check"].prepare(run.ROOT, 3, OFF)
    model = st["model"]
    front = sweep_region(model, SamplerConfig(random_samples=100, seed=3))
    raw = two_aux_random_search(model, 100, seed=4)
    pairs = [(eval_two_aux(model, c.test_channel, Channel.constant(c.test_channel.num_outputs),
                           max_u=max(4, c.test_channel.num_outputs)),
              eval_one_aux(model, c.test_channel)) for c in front.corners]
    expect(W.check_two_aux(raw, front, pairs, OFF) == [], "two_aux_check: good output rejected")
    top = max(c.rs for c in front.corners)
    lifted = [dataclasses.replace(raw[0], rs=top + 1e-2)] + raw[1:]
    expect(W.check_two_aux(lifted, front, pairs, OFF) != [],
           "two_aux_check: two-aux corner outside the front accepted")
    two, one = pairs[0]
    moved = [(dataclasses.replace(two, rj=two.rj + 1e-9), one)] + pairs[1:]
    expect(W.check_two_aux(raw, front, moved, OFF) != [],
           "two_aux_check: embedding gap of 1e-9 accepted")


def check_simulation_trips():
    wl = TINY["simulate"]
    st = wl.prepare(run.ROOT, 3, OFF)
    report = run_simulation(st["model"], wl.config(st, 1))
    expect(W.check_simulation(report) == [], "simulate: good output rejected")
    mass = report.checks["table_mass"]
    for what, change in (
            ("table_mass off by 1e-6", {"checks": {**report.checks, "table_mass": mass + 1e-6}}),
            ("z_marginal_gap of 1e-9", {"checks": {**report.checks, "z_marginal_gap": 1e-9}}),
            ("secrecy leakage above log2 m_s",
             {"exact_secrecy_leakage_bits": math.log2(report.m_s) + 1e-6}),
            ("negative secrecy leakage", {"exact_secrecy_leakage_bits": -1e-6})):
        expect(W.check_simulation(dataclasses.replace(report, **change)) != [],
               f"simulate: {what} accepted")


def check_cli_trips():
    ref = W.cli_pass(run.ROOT, 3, OFF)
    expect(W.check_cli(ref, ref) == [], "cli: good output rejected")
    name = "cli.region_binary"
    code, data = ref[name]
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0x01
    expect(W.check_cli({**ref, name: (code, bytes(flipped))}, ref) != [],
           "cli: flipped output byte accepted")
    expect(W.check_cli({**ref, name: (3, data)}, ref) != [],
           "cli: non-zero exit code accepted")


def check_bare_directory():
    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "run.py did not fail in a directory without the program")


def main() -> int:
    check_region_sweep_trips()
    check_two_aux_trips()
    check_simulation_trips()
    check_cli_trips()
    check_bare_directory()
    check_emission()
    print(f"selftest: {len(failures)} failed" if failures else "selftest: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
