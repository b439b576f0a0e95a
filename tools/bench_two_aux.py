"""Time the two-auxiliary search and the single-corner rate evaluators.

    cd CHECKOUT && python path/to/tools/bench_two_aux.py [REPS]

Imports authcap from the `src` of the checkout in the current directory, so
one script times a commit and its parent alike.  Prints one JSON object:

  search_1k_ms       median of REPS calls two_aux_random_search(model, 1000,
                     seed=r) on the two_aux_check workload's model
                     (configs/discrete_degraded.json), r = 0 ... REPS - 1
  search_100k_s      median of ceil(REPS / 10) calls
                     two_aux_random_search(model, 100000, seed=41) on
                     criterion 4's model, binary_symmetric(0.1, 0.1, 0.26)
  pairs_per_s        100000 / search_100k_s
  eval_one_aux_us    median over REPS rounds of the mean time per call of
                     eval_one_aux(model, tu), tu running over the test
                     channels of the front of a 500-sample sweep (seed 0) of
                     the workload's model, as the workload's embedding loop
                     does
  eval_two_aux_us    the same for eval_two_aux(model, tu,
                     Channel.constant(|U|), max_u=max(4, |U|)); each round
                     times one loop of each, and all rounds run before the
                     searches
  front_corners      the number of test channels in each round

REPS defaults to 15.  Standard library, numpy and authcap only.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from authcap import (AuthModel, Channel, DiscreteDistribution, SamplerConfig,  # noqa: E402
                     eval_one_aux, eval_two_aux, sweep_region, two_aux_random_search)


def seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv) -> int:
    reps = int(argv[0]) if argv else 15
    c = json.loads(Path("configs", "discrete_degraded.json").read_text())
    model = AuthModel(DiscreteDistribution(c["px"]), Channel(c["ec"]),
                      Channel(c["ac_y"]), Channel(c["ac_z"]))
    criterion_4 = AuthModel.binary_symmetric(0.1, 0.1, 0.26)
    tests = [corner.test_channel for corner in
             sweep_region(model, SamplerConfig(random_samples=500, seed=0)).corners]

    def one_aux():
        for tu in tests:
            eval_one_aux(model, tu)

    def two_aux():
        for tu in tests:
            eval_two_aux(model, tu, Channel.constant(tu.num_outputs),
                         max_u=max(4, tu.num_outputs))

    one_aux()
    two_aux()
    rounds = {one_aux: [], two_aux: []}
    for _ in range(reps):
        for loop, times in rounds.items():
            times.append(seconds(loop))
    result = {
        "search_1k_ms": statistics.median(
            seconds(lambda: two_aux_random_search(model, 1000, seed=r))
            for r in range(reps)) * 1e3,
        "search_100k_s": statistics.median(
            seconds(lambda: two_aux_random_search(criterion_4, 100_000, seed=41))
            for _ in range(math.ceil(reps / 10))),
        "eval_one_aux_us": statistics.median(rounds[one_aux]) / len(tests) * 1e6,
        "eval_two_aux_us": statistics.median(rounds[two_aux]) / len(tests) * 1e6,
        "front_corners": len(tests),
    }
    result["pairs_per_s"] = 100_000 / result["search_100k_s"]
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
