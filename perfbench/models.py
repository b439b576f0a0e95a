"""What each workload builds before its first job, and the set-up probe.

Run as a script in a fresh interpreter, this module times `import authcap`
plus the model build of one workload and prints one JSON line as soon as
the model is ready:

    PYTHONPATH=src python3 perfbench/models.py <workload> <seed>

It imports only the standard library at module level, so the probe's clock
starts before any numpy, scipy or authcap import.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# The simulator model and code of the `simulate` workload.  This pair and
# gamma give a non-trivial code at n = 10 (2,048 codewords, m_j = 32,
# m_s = 8) with both encoder and decoder failures; configs/binary.json gives
# m_s = 1 and zero error, which would make the exact-leakage and key paths
# trivial.
SIM_MODEL = (0.02, 0.2, 0.3)
SIM_N = 10
SIM_GAMMA = 0.05


def read_config(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text(encoding="utf-8"))


def build(workload: str, root: Path, seed: int):
    """Import authcap and build the model `workload` uses.  "cli_startup"
    only imports `authcap.cli` (the CLI layer probe) and returns None."""
    if workload == "cli_startup":
        import authcap.cli  # noqa: F401
        return None
    from authcap import AuthModel, Channel, DiscreteDistribution

    if workload == "region_sweep":
        b = read_config(root, "binary.json")["binary"]
        return AuthModel.binary_hsm(b["p"], b["q"], b["eps"], classifier_seed=seed)
    if workload == "two_aux_check":
        c = read_config(root, "discrete_degraded.json")
        return AuthModel(DiscreteDistribution(c["px"]), Channel(c["ec"]),
                         Channel(c["ac_y"]), Channel(c["ac_z"]), classifier_seed=seed)
    if workload == "simulate":
        return AuthModel.binary_hsm(*SIM_MODEL, classifier_seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


def _probe(workload: str, seed: int):
    t0 = time.perf_counter()
    import authcap  # noqa: F401
    t_import = time.perf_counter()
    build(workload, Path.cwd(), seed)
    t_ready = time.perf_counter()
    print(json.dumps({"import_s": t_import - t0, "ready_s": t_ready - t0}), flush=True)


if __name__ == "__main__":
    _probe(sys.argv[1], int(sys.argv[2]))
