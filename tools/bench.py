"""Micro-benchmarks of what perfbench's traced runs do not measure.

    cd CHECKOUT && python path/to/tools/bench.py [REPS]

Imports authcap from the `src` of the checkout in the current directory, so
one script times a commit and its parent alike.  Every timing follows one
untimed call.  Prints one JSON object:

  workload_pairs_us       per benchmark workload, the median of REPS calls
                          is_stochastically_degraded(candidate, reference)
                          for its authentication pair (ac_y, ac_z), Z as
                          candidate then Y: region_sweep BEC(0.5)/BSC(0.2)
                          (configs/binary.json), two_aux_check
                          BSC(0.1)/BSC(0.26) (configs/discrete_degraded.json),
                          simulate BEC(0.2)/BSC(0.3) (configs/keyed.json)
  degraded_pairs_us       for |Y| + |Z| = 2 ... 10, the median over 20 random
                          degraded pairs (`random_pairs`) of the best of 3
                          is_stochastically_degraded(worse, better) calls
  independent_pairs_us    the same for 20 independent random pairs per size
                          (mostly refuted)
  less_noisy_pairs_us     for |Y| + |Z| = 2 ... 16, the same statistic for
                          is_less_noisy(better, worse) on the degraded pairs
  certificate_us          the same for `_binary_certificate` on the
                          independent pairs
  certificate_bec_bsc_us  median of REPS `_binary_certificate` calls on
                          (BEC(0.5), BSC(0.2)) and on the reverse pair
  eval_one_aux_us         per call, the median of REPS passes of
                          eval_one_aux over the corners of the two_aux_check
                          front: sweep_region of configs/discrete_degraded.json's
                          model, 500 random samples, beta step 1e-3, seed 2;
                          each pass on a model built just before it, untimed,
                          so it holds no sweep's front record and every call
                          runs `_rates_nats`, the stacked kernel, on a stack
                          of one
  eval_two_aux_us         the same for eval_two_aux with a Channel.constant V
                          (the constant-V embedding: U's channel runs the
                          same kernel, and V, which carries no information,
                          runs none)
  embedding_loop_us       per corner, the median of REPS passes of
                          eval_two_aux with a Channel.constant V, then
                          eval_one_aux, over the same corners, each pass on
                          a model that has just swept that front, untimed:
                          two_aux_check's embedding loop, where both calls
                          read the corner's rate row from the sweep's front
                          record and no kernel runs
  rates_400_us            for |U| = 1 ... 5, the median of REPS `_rates`
                          calls on a stack of 400 Dirichlet test channels
                          (seeded by |U|) on the region_sweep workload's
                          model (configs/binary.json's binary_hsm(0.1, 0.5,
                          0.2)): `_chain_laws` and the joint-entropy kernel
                          `_entropies_nats` (one call for U's four joints
                          and its law) at the size of region_sweep's
                          random groups
  search_100k_s           median of ceil(REPS / 10) calls
                          two_aux_random_search(model, 100000, seed=41) on
                          criterion 4's model, binary_symmetric(0.1, 0.1, 0.26)
  pairs_per_s             100000 / search_100k_s
  sweep_100k_s            median of ceil(REPS / 10) calls sweep_region(model,
                          100000 samples (the CLI's default), beta step
                          1e-3, seed 40) on the same model: the batched
                          one-auxiliary kernel
  sweep_record_mb         tracemalloc bytes, in MB, that the same model (no
                          sweep before) keeps after one such sweep whose
                          region is dropped: the front's record of its test
                          channels and (K, 4) rate rows
  compare_100k_s          median of ceil(REPS / 10) calls compare_regions(pairs,
                          front): the corners of that search against the
                          region of that sweep
  compare_100k_reverse_s  the same for compare_regions(front, pairs): the
                          sweep's region against the search's corners
  compare_100k_peak_mb    tracemalloc peak of one compare_regions(pairs,
                          front) call, in MB: mostly arrays over the
                          100,000 corners of pairs (their rates, which
                          `_corner_rates` fills straight from the corners'
                          floats, and their slack bounds), since every
                          corner of pairs is bounded in blocks of 256 rows
                          and none is Pareto-filtered
  compare_workload_ms     median of REPS calls compare_regions(closed, sweep)
                          at the region_sweep workload's scale: the closed
                          form of configs/binary.json against a sweep_region
                          of its model, 2,000 random samples, beta step
                          1e-3, seed 1
  simulate_codebook_ms    median of REPS generate_codebook calls on the
                          simulate workload's code: binary_hsm(0.02, 0.2,
                          0.3), identity test channel, gamma 0.05, n 10,
                          seed 0 (2,048 codewords)
  simulate_enroll_us      per trial, the median of REPS encoder passes over
                          the 2,000 enrollment sequences run_simulation draws
                          for that code, in its blocks, as a
                          Monte-Carlo-only run takes them
  simulate_exact_enroll_us  the same for the encoder step of a run with
                          exact leakage: the encoder test of all 2^10
                          sequences, then the pick of each trial's codeword
                          by its sequence's index, in the trials' blocks
  simulate_decode_us      per trial, the median of REPS decoder calls over
                          the trials' authentication sequences and the helper
                          bins their enrollments chose, all 2,000 trials in
                          one call as run_simulation makes it
  simulate_minor_faults   the median over REPS run_simulation calls (exact
                          leakage on) on that code of the minor page faults
                          (getrusage ru_minflt) each one takes, in a fresh
                          process after one untimed run, as perfbench's
                          simulate jobs run
  simulate_exact_leakage_s  for n = 8, 10 and 12, the median of
                          ceil(REPS / 10) exact_leakage calls on the same
                          model's code at that n

REPS defaults to 31.  Standard library, numpy and authcap only.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import resource
import statistics
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from authcap import (AuthModel, BinaryModelParams, Channel, DiscreteDistribution,  # noqa: E402
                     RegionBoundary, SamplerConfig, closed_form_region, compare_regions,
                     eval_one_aux, eval_two_aux, is_less_noisy, is_stochastically_degraded,
                     sweep_region, two_aux_random_search)
from authcap.classifier import _binary_certificate  # noqa: E402
from authcap.protocol import (SimConfig, _all_sequences, _blocks, _decode_block,  # noqa: E402
                              _encoder_hits, _pick, _sample_through, _sequence_index,
                              exact_leakage, generate_codebook, run_simulation)
from authcap.regions import _rates  # noqa: E402

PAIRS_PER_SIZE = 20


def seconds(call, reps: int) -> list:
    """Wall seconds of each of `reps` calls, after one untimed call."""
    call()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def random_pairs(size: int, degraded: bool) -> list:
    """20 binary-input (better, worse) pairs with |better| + |worse| = size:
    worse = better followed by a random post-channel if `degraded`, else
    drawn on its own.  Seeded by `size`, or 1000 + size if independent."""
    rng = np.random.default_rng(size if degraded else 1000 + size)
    nb = size // 2
    nw = size - nb
    pairs = []
    for _ in range(PAIRS_PER_SIZE):
        better = Channel(rng.dirichlet(np.ones(nb), size=2))
        worse = rng.dirichlet(np.ones(nw), size=nb if degraded else 2)
        pairs.append((better, Channel(better.matrix @ worse if degraded else worse)))
    return pairs


def per_size_us(test, sizes, degraded: bool) -> dict:
    """Per size, the median over `random_pairs` of the best of 3 calls
    test(better, worse), in microseconds."""
    return {size: statistics.median(min(seconds(lambda: test(b, w), 3))
                                    for b, w in random_pairs(size, degraded)) * 1e6
            for size in sizes}


def single_corners(config: dict, reps: int) -> dict:
    """The eval_*_aux_us and embedding_loop_us keys: per-call cost over the
    two_aux_check front.  Every pass runs on a model built just before it,
    untimed, with no front record, so eval_one_aux_us / eval_two_aux_us
    time the kernel; embedding_loop_us's model has also swept the front, so
    the loop reads each corner's rates from its record."""
    def build():
        return AuthModel(DiscreteDistribution(config["px"]), Channel(config["ec"]),
                         Channel(config["ac_y"]), Channel(config["ac_z"]))

    def swept():
        model = build()
        sweep_region(model, front)
        return model

    front = SamplerConfig(random_samples=500, seed=2)
    tests = [c.test_channel for c in sweep_region(build(), front).corners]
    constants = [Channel.constant(t.num_outputs) for t in tests]

    def one_aux(model):
        start = time.perf_counter()
        for t in tests:
            eval_one_aux(model, t)
        return time.perf_counter() - start

    def two_aux(model):
        start = time.perf_counter()
        for t, v in zip(tests, constants):
            eval_two_aux(model, t, v, max_u=max(4, t.num_outputs))
        return time.perf_counter() - start

    def embedding_loop(model):
        start = time.perf_counter()
        for t, v in zip(tests, constants):
            eval_two_aux(model, t, v, max_u=max(4, t.num_outputs))
            eval_one_aux(model, t)
        return time.perf_counter() - start

    def per_call_us(timed_pass, model) -> float:
        timed_pass(model())
        return statistics.median(timed_pass(model()) for _ in range(reps)) * 1e6 / len(tests)

    return {key: per_call_us(timed_pass, model)
            for key, timed_pass, model in (("eval_one_aux_us", one_aux, build),
                                           ("eval_two_aux_us", two_aux, build),
                                           ("embedding_loop_us", embedding_loop, swept))}


def simulate_config(n: int) -> SimConfig:
    """The simulate workload's settings at blocklength n, seed 0, 2,000 trials."""
    return SimConfig(n=n, test_channel=Channel.identity(2), gamma=0.05, seed=0, trials=2000,
                     exact_leakage_limit=12)


def run_faults(reps: int) -> float:
    """Median minor page faults of REPS run_simulation calls on the simulate
    workload's code, after one untimed call."""
    model = AuthModel.binary_hsm(0.02, 0.2, 0.3)

    def faults() -> int:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_simulation(model, simulate_config(10))
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults()
    return statistics.median(faults() for _ in range(reps))


def simulator_layers(reps: int) -> dict:
    """The simulate_* keys: codebook, per-trial enroll (as Monte-Carlo-only
    and exact runs take it) and decode, the page faults of a whole run, and
    exact leakage as a function of n."""
    model = AuthModel.binary_hsm(0.02, 0.2, 0.3)
    cfg = simulate_config(10)
    book = generate_codebook(model, cfg)
    result = {"simulate_codebook_ms": statistics.median(seconds(
        lambda: generate_codebook(model, cfg), reps)) * 1e3}
    # the trials' sequences as run_simulation draws them
    rng = np.random.default_rng([cfg.seed, 1])
    xs = _sample_through(rng, model.px.probs[None, :], np.zeros((cfg.trials, cfg.n), dtype=int))
    xts = _sample_through(rng, model.ec.matrix, xs)
    ys = _sample_through(rng, model.ac_y.matrix, xs)
    blocks = list(_blocks(cfg.trials, book.size * book.n))
    rows = _sequence_index(xts)

    def enroll_pass():
        return np.concatenate([_pick(_encoder_hits(book, xts[blk]), np.arange(len(xts[blk])), rng)
                               for blk in blocks])

    def exact_enroll_pass():
        table = _encoder_hits(book, _all_sequences(cfg.n))
        return np.concatenate([_pick(table, rows[blk], rng) for blk in blocks])

    idx = enroll_pass()
    bins = np.where(idx < 0, 0, book.bin_of[idx])
    for key, call in (("simulate_enroll_us", enroll_pass),
                      ("simulate_exact_enroll_us", exact_enroll_pass),
                      ("simulate_decode_us", lambda: _decode_block(book, ys, bins))):
        result[key] = statistics.median(seconds(call, reps)) * 1e6 / cfg.trials
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        result["simulate_minor_faults"] = pool.submit(run_faults, reps).result()
    result["simulate_exact_leakage_s"] = {}
    for n in (8, 10, 12):
        cfg_n = simulate_config(n)
        book_n = generate_codebook(model, cfg_n)
        result["simulate_exact_leakage_s"][n] = statistics.median(seconds(
            lambda: exact_leakage(book_n, model, cfg_n), math.ceil(reps / 10)))
    return result


def main(argv) -> int:
    reps = int(argv[0]) if argv else 31

    def median_us(call) -> float:
        return statistics.median(seconds(call, reps)) * 1e6

    cfg = {name: json.loads(Path("configs", name + ".json").read_text())
           for name in ("binary", "discrete_degraded", "keyed")}
    b, k, d = cfg["binary"]["binary"], cfg["keyed"]["binary"], cfg["discrete_degraded"]
    pairs = {"region_sweep": (Channel.bec(b["q"]), Channel.bsc(b["eps"])),
             "two_aux_check": (Channel(d["ac_y"]), Channel(d["ac_z"])),
             "simulate": (Channel.bec(k["q"]), Channel.bsc(k["eps"]))}
    result = {"workload_pairs_us": {
        name: [median_us(lambda: is_stochastically_degraded(z, y)),
               median_us(lambda: is_stochastically_degraded(y, z))]
        for name, (y, z) in pairs.items()}}

    def degradedness(better, worse):
        return is_stochastically_degraded(worse, better)

    result["degraded_pairs_us"] = per_size_us(degradedness, range(2, 11), True)
    result["independent_pairs_us"] = per_size_us(degradedness, range(2, 11), False)
    result["less_noisy_pairs_us"] = per_size_us(is_less_noisy, range(2, 17), True)
    bec, bsc = Channel.bec(0.5), Channel.bsc(0.2)
    result["certificate_us"] = per_size_us(_binary_certificate, range(2, 17), False)
    result["certificate_bec_bsc_us"] = [median_us(lambda: _binary_certificate(*pair))
                                        for pair in ((bec, bsc), (bsc, bec))]

    result.update(single_corners(d, reps))
    sweep_model = BinaryModelParams(b["p"], b["q"], b["eps"]).model()
    result["rates_400_us"] = {}
    for u in range(1, 6):
        tu = np.random.default_rng(u).dirichlet(np.ones(u), size=(400, 2))
        result["rates_400_us"][u] = median_us(lambda: _rates(sweep_model, tu))
    criterion_4 = AuthModel.binary_symmetric(0.1, 0.1, 0.26)
    result["search_100k_s"] = statistics.median(seconds(
        lambda: two_aux_random_search(criterion_4, 100_000, seed=41), math.ceil(reps / 10)))
    result["pairs_per_s"] = 100_000 / result["search_100k_s"]
    sweep_100k = SamplerConfig(random_samples=100_000, beta_grid_step=1e-3, seed=40)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    sweep_region(criterion_4, sweep_100k)   # the region goes, the model keeps its record
    result["sweep_record_mb"] = (tracemalloc.get_traced_memory()[0] - before) / 2**20
    tracemalloc.stop()
    result["sweep_100k_s"] = statistics.median(seconds(
        lambda: sweep_region(criterion_4, sweep_100k), math.ceil(reps / 10)))
    front = sweep_region(criterion_4, sweep_100k)
    pairs = RegionBoundary(two_aux_random_search(criterion_4, 100_000, seed=41), front.unit)
    for key, x, y in (("compare_100k_s", pairs, front), ("compare_100k_reverse_s", front, pairs)):
        result[key] = statistics.median(seconds(
            lambda: compare_regions(x, y), math.ceil(reps / 10)))
    tracemalloc.start()
    compare_regions(pairs, front)
    result["compare_100k_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    params = BinaryModelParams(b["p"], b["q"], b["eps"], beta_step=b["beta_step"])
    closed = closed_form_region(params)
    sweep = sweep_region(params.model(), SamplerConfig(random_samples=2000,
                                                       beta_grid_step=params.beta_step, seed=1))
    result["compare_workload_ms"] = statistics.median(seconds(
        lambda: compare_regions(closed, sweep), reps)) * 1e3
    result.update(simulator_layers(reps))
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
