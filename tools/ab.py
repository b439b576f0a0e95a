"""In-process A/B timing of the stacked rate kernel and of exact leakage
against another checkout.

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
model, 500 random samples, seed 2, as tools/bench.py's eval_one_aux_us,
swept by the change and given to both sides): stack-of-one scoring.
Every timed call or pass runs on its own model, built before the round's
clock starts, so no state a model keeps from earlier calls (such as a
sweep's front record, or a cache of single channels' informations in
older checkouts) spares it a kernel run.  The
binary model takes about 2 ms to build on a 2-vCPU Xeon VM, so there a
31-round run spends about a minute building models.  The last case,
`exact_leakage_ms`, times `exact_leakage` on the simulate workload's code
(binary_hsm(0.02, 0.2, 0.3), identity test channel, gamma 0.05, seed 0)
at n = 8, 10 and 12: each round times 2^(12 - n) calls, each on its own
codebook and model, generated before the clock starts.

Prints one JSON object: per case the median microseconds (milliseconds
for exact leakage) per call of each side over ROUNDS rounds (default 31),
change / parent - 1, the number of rounds the change was faster, and the
largest |change - parent| of the rates (rs, rj, rl, unclamped rs) in bits,
or of each exact-leakage figure, so a run states how far the two sides
agree (0.0 when they give the same bits).  Standard library, numpy and the
two checkouts only.
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
LEAKAGE_NS = (8, 10, 12)


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


def race(cases: dict, per_round: int, rounds: int, diff, unit: str = "us") -> dict:
    """Alternate the two sides' (build, call) cases for `rounds` rounds of
    `per_round` timed calls, after one untimed call each; medians in `unit`
    ("us" or "ms"), the change's wins, and diff(change, parent) of the
    untimed calls' results."""
    first = {side: call(build()) for side, (build, call) in cases.items()}
    times = {"parent": [], "change": []}
    for k in range(rounds):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            times[side].append(timed(*cases[side], per_round))
    scale, digits = {"us": (1e6, 2), "ms": (1e3, 4)}[unit]
    parent, change = (statistics.median(times[s]) * scale for s in ("parent", "change"))
    return {f"parent_{unit}": round(parent, digits), f"change_{unit}": round(change, digits),
            "change_vs_parent": round(change / parent - 1.0, 4),
            "change_wins": sum(c < p for p, c in zip(times["parent"], times["change"])),
            "rounds": rounds, **diff(first["change"], first["parent"])}


def rate_diff(rates=np.asarray):
    """diff for `race`: the largest |change - parent| of the results, as
    `rates` turns them into arrays of rates in bits."""
    return lambda change, parent: {
        "max_diff_bits": float(np.abs(rates(change) - rates(parent)).max())}


def figure_diff(change: dict, parent: dict) -> dict:
    """diff for `race`: |change - parent| of each exact-leakage figure."""
    return {"max_diff": {key: abs(change[key] - parent[key]) for key in parent}}


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
                                            max(1, 100 // b), rounds, rate_diff())
    d = json.loads(Path("configs", "discrete_degraded.json").read_text())

    def builder(pkg):
        return lambda: pkg.AuthModel(pkg.DiscreteDistribution(d["px"]), pkg.Channel(d["ec"]),
                                     pkg.Channel(d["ac_y"]), pkg.Channel(d["ac_z"]))

    change = sides["change"]
    front = change.sweep_region(builder(change)(), change.SamplerConfig(random_samples=500, seed=2))
    matrices = [c.test_channel.matrix for c in front.corners]

    def one_aux_pass(side):
        pkg = sides[side]
        tests = [pkg.Channel(t) for t in matrices]
        return builder(pkg), lambda m: [pkg.eval_one_aux(m, t) for t in tests]

    def corner_rates(corners):
        return np.array([[*c.as_tuple(), c.extras["rs_unclamped"]] for c in corners])

    row = race({s: one_aux_pass(s) for s in sides}, 1, rounds, rate_diff(corner_rates))
    corners = len(matrices)
    result["eval_one_aux_fresh_us"] = {
        **row, "corners": corners, "parent_us": round(row["parent_us"] / corners, 2),
        "change_us": round(row["change_us"] / corners, 2)}

    def leakage(side, n):
        pkg = sides[side]
        cfg = pkg.SimConfig(n=n, test_channel=pkg.Channel.identity(2), gamma=0.05, seed=0,
                            trials=1, exact_leakage_limit=n)

        def build():
            model = pkg.AuthModel.binary_hsm(0.02, 0.2, 0.3)
            return pkg.generate_codebook(model, cfg), model

        return build, lambda built: pkg.exact_leakage(*built, cfg)

    result["exact_leakage_ms"] = {n: race({s: leakage(s, n) for s in sides}, 1 << (12 - n),
                                          rounds, figure_diff, "ms") for n in LEAKAGE_NS}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
