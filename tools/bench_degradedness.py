"""Time the classifier's degradedness test on binary-input pairs.

    cd CHECKOUT && python path/to/tools/bench_degradedness.py [REPS]

Imports authcap from the `src` of the checkout in the current directory, so
one script times a commit and its parent alike.  Prints one JSON object:

  workload_pairs_us       per benchmark workload, the median of REPS calls
                          is_stochastically_degraded(candidate, reference)
                          for its authentication pair (ac_y, ac_z), Z as
                          candidate then Y: region_sweep BEC(0.5)/BSC(0.2)
                          (configs/binary.json), two_aux_check
                          BSC(0.1)/BSC(0.26) (configs/discrete_degraded.json),
                          simulate BEC(0.2)/BSC(0.3) (configs/keyed.json)
  degraded_pairs_us       for |Y| + |Z| = 2 ... 10, the median over 20
                          random pairs (candidate = reference followed by a
                          random post-channel, so degraded) of the best of 3
                          calls
  independent_pairs_us    the same for 20 independent random pairs per size
                          (mostly refuted)
  classify_ac_ms          median of REPS calls classify_ac(BEC(0.5), BSC(0.2))
  closed_form_region_ms   median of REPS calls closed_form_region on
                          configs/binary.json
  model_build_s           per workload, the median over 7 fresh interpreters
                          of the wall time from spawn to exit of one that
                          imports authcap and builds the workload's model
                          from its config
  scipy_loaded            per workload, whether that interpreter loaded scipy

REPS defaults to 31.  Standard library, numpy and authcap only.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from authcap import Channel, classify_ac, is_stochastically_degraded  # noqa: E402
from authcap.binary import BinaryModelParams, closed_form_region  # noqa: E402

SIZES = range(2, 11)
PAIRS_PER_SIZE = 20
BUILDS = 7

# Each workload's model, built from the config the benchmark reads for it.
BUILD_CODE = {
    "region_sweep": "b = read('binary.json')['binary']\n"
                    "AuthModel.binary_hsm(b['p'], b['q'], b['eps'])",
    "two_aux_check": "c = read('discrete_degraded.json')\n"
                     "AuthModel(DiscreteDistribution(c['px']), Channel(c['ec']), "
                     "Channel(c['ac_y']), Channel(c['ac_z']))",
    "simulate": "b = read('keyed.json')['binary']\n"
                "AuthModel.binary_hsm(b['p'], b['q'], b['eps'])",
}


def median_us(call, reps: int) -> float:
    call()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def best_us(call, tries: int = 3) -> float:
    times = []
    for _ in range(tries):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times) * 1e6


def random_pairs(size: int, degraded: bool, rng):
    """(candidate, reference) pairs with |reference| + |candidate| = size."""
    nb = size // 2
    nc = size - nb
    for _ in range(PAIRS_PER_SIZE):
        reference = Channel(rng.dirichlet(np.ones(nb), size=2))
        if degraded:
            candidate = Channel(reference.matrix @ rng.dirichlet(np.ones(nc), size=nb))
        else:
            candidate = Channel(rng.dirichlet(np.ones(nc), size=2))
        yield candidate, reference


def fresh_build(workload: str):
    """(wall seconds from spawn to exit, whether scipy was loaded)."""
    code = ("import json, sys\nfrom authcap import AuthModel, Channel, DiscreteDistribution\n"
            "def read(name):\n"
            "    with open('configs/' + name, encoding='utf-8') as f:\n"
            "        return json.load(f)\n"
            f"{BUILD_CODE[workload]}\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(Path.cwd() / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return time.perf_counter() - start, proc.stdout.strip() == "True"


def main(argv) -> int:
    reps = int(argv[0]) if argv else 31
    cfg = {name: json.loads(Path("configs", name + ".json").read_text())
           for name in ("binary", "discrete_degraded", "keyed")}
    b, k, d = cfg["binary"]["binary"], cfg["keyed"]["binary"], cfg["discrete_degraded"]
    params = BinaryModelParams(b["p"], b["q"], b["eps"], beta_step=b["beta_step"])
    pairs = {"region_sweep": (Channel.bec(b["q"]), Channel.bsc(b["eps"])),
             "two_aux_check": (Channel(d["ac_y"]), Channel(d["ac_z"])),
             "simulate": (Channel.bec(k["q"]), Channel.bsc(k["eps"]))}
    result = {"workload_pairs_us": {
        name: [median_us(lambda: is_stochastically_degraded(z, y), reps),
               median_us(lambda: is_stochastically_degraded(y, z), reps)]
        for name, (y, z) in pairs.items()}}
    for key, degraded in (("degraded_pairs_us", True), ("independent_pairs_us", False)):
        result[key] = {}
        for size in SIZES:
            rng = np.random.default_rng(size + (0 if degraded else 1000))
            result[key][size] = statistics.median(
                best_us(lambda: is_stochastically_degraded(c, r))
                for c, r in random_pairs(size, degraded, rng))
    bec, bsc = pairs["region_sweep"]
    result["classify_ac_ms"] = median_us(lambda: classify_ac(bec, bsc), reps) / 1e3
    result["closed_form_region_ms"] = median_us(lambda: closed_form_region(params), reps) / 1e3
    result["model_build_s"], result["scipy_loaded"] = {}, {}
    for name in BUILD_CODE:
        runs = [fresh_build(name) for _ in range(BUILDS)]
        result["model_build_s"][name] = statistics.median(t for t, _ in runs)
        result["scipy_loaded"][name] = any(loaded for _, loaded in runs)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
