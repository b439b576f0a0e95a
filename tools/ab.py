"""In-process A/B timing of the stacked rate kernel against another checkout.

    cd CHECKOUT && python path/to/tools/ab.py PARENT_CHECKOUT [ROUNDS]

Loads `src/authcap` of the checkout in the current directory and of
PARENT_CHECKOUT into one process, as the packages `ab_change` and
`ab_parent`, so both run on the same interpreter, heap and CPU state and
a 15-30% change in a kernel resolves, which separate processes on a
shared machine cannot show.  The model is the region_sweep workload's,
configs/binary.json's binary_hsm(0.1, 0.5, 0.2).  For each |U| = 1 ... 5
and each stack size B in 1, 10, 100, 400 and 4,000, a stack of B
Dirichlet test channels (seeded by |U| and B) is scored by `_rates`; each
round times max(1, 100 // B) calls of parent then change, or change then
parent on odd rounds.  A last row times passes of `eval_one_aux` over the
test channels of the two_aux_check front (configs/discrete_degraded.json's
model, 500 random samples, seed 2, as tools/bench.py's eval_one_aux_us):
stack-of-one scoring.  Every timed call or pass runs on its own model,
built before the round's clock starts, so no state a model keeps from
earlier calls (such as a sweep's front record, or a cache of single
channels' informations in older checkouts) spares it a kernel run.  The
binary model takes about 2 ms to build on a 2-vCPU Xeon VM, so there a
31-round run spends about a minute building models.

Prints one JSON object: per case the median microseconds per call of each
side over ROUNDS rounds (default 31), change / parent - 1, and the number
of rounds the change was faster.  Standard library, numpy and the two
checkouts only.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (1, 10, 100, 400, 4000)
U_SIZES = (1, 2, 3, 4, 5)


def load(checkout: Path, name: str):
    """The `authcap` package of `checkout` imported as package `name`: its
    modules import each other relatively, so two trees live side by side."""
    init = checkout / "src" / "authcap" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def timed(build, call, calls: int) -> float:
    """Seconds per call over `calls` back-to-back calls call(model), each on
    its own model, all returned by build() before the clock starts."""
    models = [build() for _ in range(calls)]
    start = time.perf_counter()
    for model in models:
        call(model)
    return (time.perf_counter() - start) / calls


def race(cases: dict, per_round: int, rounds: int) -> dict:
    """Alternate the two sides' (build, call) cases for `rounds` rounds of
    `per_round` timed calls, after one untimed call each; medians in
    microseconds and the change's wins."""
    for build, call in cases.values():
        call(build())
    times = {"parent": [], "change": []}
    for k in range(rounds):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            times[side].append(timed(*cases[side], per_round))
    parent, change = (statistics.median(times[s]) * 1e6 for s in ("parent", "change"))
    return {"parent_us": round(parent, 2), "change_us": round(change, 2),
            "change_vs_parent": round(change / parent - 1.0, 4),
            "change_wins": sum(c < p for p, c in zip(times["parent"], times["change"])),
            "rounds": rounds}


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    rounds = int(argv[1]) if len(argv) > 1 else 31
    sides = {"parent": load(Path(argv[0]).resolve(), "ab_parent"),
             "change": load(Path.cwd(), "ab_change")}

    def scorer(side, tu):
        pkg = sides[side]
        return lambda: pkg.AuthModel.binary_hsm(0.1, 0.5, 0.2), lambda m: pkg.regions._rates(m, tu)

    result = {"machine": {"python": platform.python_version(), "numpy": np.__version__,
                          "processor": platform.machine(), "system": platform.system()},
              "model": "binary_hsm(0.1, 0.5, 0.2)", "rates_us": {}}
    for u in U_SIZES:
        result["rates_us"][u] = {}
        for b in SIZES:
            tu = np.random.default_rng([u, b]).dirichlet(np.ones(u), size=(b, 2))
            result["rates_us"][u][b] = race({s: scorer(s, tu) for s in sides},
                                            max(1, 100 // b), rounds)
    d = json.loads(Path("configs", "discrete_degraded.json").read_text())

    def one_aux_pass(side):
        pkg = sides[side]

        def build():
            return pkg.AuthModel(pkg.DiscreteDistribution(d["px"]), pkg.Channel(d["ec"]),
                                 pkg.Channel(d["ac_y"]), pkg.Channel(d["ac_z"]))

        front = pkg.sweep_region(build(), pkg.SamplerConfig(random_samples=500, seed=2))
        tests = [c.test_channel for c in front.corners]
        return build, lambda m: [pkg.eval_one_aux(m, t) for t in tests], len(tests)

    passes = {s: one_aux_pass(s) for s in sides}
    row = race({s: p[:2] for s, p in passes.items()}, 1, rounds)
    corners = passes["change"][2]
    result["eval_one_aux_fresh_us"] = {
        **row, "corners": corners, "parent_us": round(row["parent_us"] / corners, 2),
        "change_us": round(row["change_us"] / corners, 2)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
