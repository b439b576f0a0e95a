"""Time the classifier's less-noisy test on binary-input pairs.

    cd CHECKOUT && python path/to/tools/bench_less_noisy.py [REPS]

Imports authcap from the `src` of the checkout in the current directory, so
one script times a commit and its parent alike.  Prints one JSON object:

  classify_ac_ms          median of REPS calls classify_ac(BEC(0.5), BSC(0.2))
  closed_form_region_ms   median of REPS calls closed_form_region on
                          configs/binary.json
  degraded_pairs_us       for |Y| + |Z| = 2 ... 16, the median over 20 random
                          pairs (worse = better followed by a random
                          post-channel, so less noisy) of the best of 3
                          is_less_noisy calls: the grid and the 20,000-pair
                          sampler where there is no certificate
  certificate_us          the same statistic for `_binary_certificate` on 20
                          independent random pairs per size, where the
                          checkout has it
  certificate_bec_bsc_us  median of REPS `_binary_certificate` calls on
                          (BEC(0.5), BSC(0.2)) and on the reverse pair

REPS defaults to 31.  Standard library, numpy and authcap only.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from authcap import Channel, classify_ac, is_less_noisy  # noqa: E402
from authcap import classifier  # noqa: E402
from authcap.binary import BinaryModelParams, closed_form_region  # noqa: E402

SIZES = range(2, 17)
PAIRS_PER_SIZE = 20


def median_ms(call, reps: int) -> float:
    call()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def best_us(call, tries: int = 3) -> float:
    times = []
    for _ in range(tries):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times) * 1e6


def random_pairs(size: int, degraded: bool, rng):
    ny = size // 2
    nz = size - ny
    for _ in range(PAIRS_PER_SIZE):
        better = Channel(rng.dirichlet(np.ones(ny), size=2))
        if degraded:
            worse = Channel(better.matrix @ rng.dirichlet(np.ones(nz), size=ny))
        else:
            worse = Channel(rng.dirichlet(np.ones(nz), size=2))
        yield better, worse


def main(argv) -> int:
    reps = int(argv[0]) if argv else 31
    cfg = json.loads(Path("configs/binary.json").read_text())["binary"]
    params = BinaryModelParams(cfg["p"], cfg["q"], cfg["eps"], beta_step=cfg["beta_step"])
    bec, bsc = Channel.bec(0.5), Channel.bsc(0.2)
    result = {
        "classify_ac_ms": median_ms(lambda: classify_ac(bec, bsc), reps),
        "closed_form_region_ms": median_ms(lambda: closed_form_region(params), reps),
        "degraded_pairs_us": {},
    }
    certificate = getattr(classifier, "_binary_certificate", None)
    if certificate is not None:
        result["certificate_us"] = {}
        result["certificate_bec_bsc_us"] = [1e3 * median_ms(lambda: certificate(*pair), reps)
                                            for pair in ((bec, bsc), (bsc, bec))]
    for size in SIZES:
        pairs = random_pairs(size, True, np.random.default_rng(size))
        result["degraded_pairs_us"][size] = statistics.median(
            best_us(lambda: is_less_noisy(b, w)) for b, w in pairs)
        if certificate is not None:
            pairs = random_pairs(size, False, np.random.default_rng(1000 + size))
            result["certificate_us"][size] = statistics.median(
                best_us(lambda: certificate(b, w)) for b, w in pairs)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
