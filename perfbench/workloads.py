"""The benchmark workloads.

Each workload builds its state once (`prepare`), then runs jobs.  A job
calls authcap's public functions on inputs made from the run seed and the
job index, and ends with the job's output check, so a wrong result counts
as a failed job.  A job times itself with the reference clock (gauge.py).
Spans wrap each public call; in untraced runs the tracer keeps nothing.
`layer_probe` runs only in traced runs, after the timed job, and calls
single layers whose time or counts the job does not expose on its own.

The `check_*` functions take the outputs alone, so the self-test can feed
them corrupted outputs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from authcap import (
    BinaryModelParams,
    Channel,
    GaussianModelParams,
    RegionBoundary,
    Relation,
    SamplerConfig,
    SimConfig,
    classify_ac,
    closed_form_region,
    compare_regions,
    eval_one_aux,
    eval_two_aux,
    exact_leakage,
    generate_codebook,
    is_less_noisy,
    is_stochastically_degraded,
    pareto_filter,
    parametric_region,
    run_simulation,
    sweep_region,
    two_aux_random_search,
)
from authcap.gaussian import figure_curves

from models import SIM_GAMMA, SIM_N, build, read_config

# Output bounds, in bits.
CLOSED_IN_SWEEP_TOL = 1e-9      # criterion 1: closed form vs. generic evaluator
TWO_AUX_SLACK_TOL = 5e-3        # criterion 4: two-aux corners vs. one-aux front
EMBED_GAP_TOL = 1e-12           # criterion 4: constant-V embedding
TABLE_MASS_TOL = 1e-9
Z_MARGINAL_TOL = 1e-12

CLI_TIMEOUT_S = 120


def job_seed(seed: int, k: int) -> int:
    return seed * 10_000 + k


def classifier_probe(model, tr):
    """Time the verdict the model build computed, and read the LP residual
    and the number of concavity pairs from the classifier's own results."""
    with tr.span("classifier.classify_ac"):
        classify_ac(model.ac_y, model.ac_z, trials=model.classifier_trials,
                    seed=model.classifier_seed)
    with tr.span("classifier.is_stochastically_degraded"):
        lps = [is_stochastically_degraded(model.ac_z, model.ac_y),
               is_stochastically_degraded(model.ac_y, model.ac_z)]
    residuals = [v.residual for v in lps if v.residual is not None]
    if residuals:
        tr.count("classifier.lp_residual", min(residuals))
    pairs = 0
    if model.verdict.relation not in (Relation.DEGRADED_Z_WRT_Y, Relation.DEGRADED_Y_WRT_Z):
        with tr.span("classifier.is_less_noisy"):
            for better, worse, s in ((model.ac_y, model.ac_z, model.classifier_seed),
                                     (model.ac_z, model.ac_y, model.classifier_seed + 1)):
                v = is_less_noisy(better, worse, trials=model.classifier_trials, seed=s)
                pairs += v.details.get("pairs_checked", 0)
    tr.count("classifier.pairs_checked", pairs)


def _rates(region: RegionBoundary) -> np.ndarray:
    return np.array([c.as_tuple() for c in region.corners], dtype=float).reshape(-1, 3)


def _count_sweep(tr, sweep, span):
    sampled = sweep.metadata["corners_sampled"]
    tr.count("regions.corners_sampled", sampled)
    tr.count("regions.front_corners", len(sweep.corners))
    tr.count("regions.kept_ratio", len(sweep.corners) / sampled)
    tr.count("regions.corners_per_s", sampled / span.seconds)


def _compare(tr, a, b) -> float:
    with tr.span("regions.compare_regions"):
        excess = compare_regions(a, b)
    tr.count("regions.compare_cells", len(a.corners) * len(b.corners))
    return excess


class Workload:
    """Jobs that call authcap in this process on one model."""

    def prepare(self, root: Path, seed: int, tr) -> dict:
        model = build(self.name, root, seed)
        if tr.enabled:
            classifier_probe(model, tr)
        return {"model": model, "seed": seed}

    def job(self, st, k: int, tr, clock) -> list:
        """Job k, timed as a whole; returns its output-check failures."""
        with clock:
            return self.work(st, k, tr)

    def layer_probe(self, st, k: int, tr):
        """Layers the job's own spans do not cover; none by default."""


# ---------------------------------------------------------------------------
# region_sweep
# ---------------------------------------------------------------------------

def check_region_sweep(closed, sweep, tr) -> list:
    """The closed-form corners lie in the swept region, and every rate is
    finite and non-negative.  The reverse direction is not gated:
    compare_regions takes no convex hull, so sweep corners between two
    closed-form beta steps read about 3e-3 bits outside."""
    problems = []
    excess = _compare(tr, closed, sweep)
    if not excess <= CLOSED_IN_SWEEP_TOL:
        problems.append(f"compare_regions(closed, sweep) = {excess:.3e} > {CLOSED_IN_SWEEP_TOL}")
    for name, region in (("sweep", sweep), ("closed", closed)):
        r = _rates(region)
        if len(r) == 0 or not (np.all(np.isfinite(r)) and np.all(r >= 0.0)):
            problems.append(f"{name} region has an empty, negative or non-finite rate")
    return problems


class RegionSweep(Workload):
    name = "region_sweep"

    def __init__(self, samples: int = 2000):
        self.samples = samples

    def prepare(self, root: Path, seed: int, tr) -> dict:
        b = read_config(root, "binary.json")["binary"]
        params = BinaryModelParams(b["p"], b["q"], b["eps"], beta_step=b["beta_step"])
        if tr.enabled:
            cli_probe(root, seed, tr)
        return {**super().prepare(root, seed, tr), "params": params}

    def work(self, st, k: int, tr) -> list:
        sampler = SamplerConfig(random_samples=self.samples,
                                beta_grid_step=st["params"].beta_step,
                                seed=job_seed(st["seed"], k))
        with tr.span("regions.sweep_region") as sp:
            sweep = sweep_region(st["model"], sampler)
        _count_sweep(tr, sweep, sp)
        with tr.span("binary.closed_form_region"):
            closed = closed_form_region(st["params"], classifier_seed=st["seed"])
        return check_region_sweep(closed, sweep, tr)


# ---------------------------------------------------------------------------
# two_aux_check
# ---------------------------------------------------------------------------

def check_two_aux(raw, front, embed_pairs, tr) -> list:
    """Every raw two-auxiliary corner is dominated by the one-auxiliary
    front within 5e-3 bits, and a constant V reproduces each front corner."""
    problems = []
    slack = _compare(tr, RegionBoundary(raw, front.unit), front)
    if not slack <= TWO_AUX_SLACK_TOL:
        problems.append(f"two-aux slack {slack:.3e} > {TWO_AUX_SLACK_TOL}")
    gap = max((abs(a - b) for two, one in embed_pairs
               for a, b in zip(two.as_tuple(), one.as_tuple())), default=math.inf)
    if not gap <= EMBED_GAP_TOL:
        problems.append(f"constant-V embedding gap {gap:.3e} > {EMBED_GAP_TOL}")
    return problems


class TwoAuxCheck(Workload):
    name = "two_aux_check"

    def __init__(self, samples: int = 500, pairs: int = 1000):
        self.samples = samples
        self.pairs = pairs

    def work(self, st, k: int, tr) -> list:
        model = st["model"]
        s = job_seed(st["seed"], k)
        with tr.span("regions.sweep_region") as sp:
            front = sweep_region(model, SamplerConfig(random_samples=self.samples, seed=2 * s))
        _count_sweep(tr, front, sp)
        with tr.span("regions.two_aux_random_search") as sp:
            raw = two_aux_random_search(model, self.pairs, seed=2 * s + 1)
        tr.count("regions.pairs_per_s", self.pairs / sp.seconds)
        with tr.span("regions.pareto_filter"):
            pareto_filter(raw)
        with tr.span("regions.embedding_loop"):
            embed_pairs = []
            for corner in front.corners:
                tu = corner.test_channel
                with tr.span("regions.eval_two_aux"):
                    two = eval_two_aux(model, tu, Channel.constant(tu.num_outputs),
                                       max_u=max(4, tu.num_outputs))
                with tr.span("regions.eval_one_aux"):
                    one = eval_one_aux(model, tu)
                embed_pairs.append((two, one))
        return check_two_aux(raw, front, embed_pairs, tr)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def check_simulation(report) -> list:
    """Exact-leakage invariants that hold for any RNG stream: the joint
    table is a law, its Z^n marginal is the product law, and the secrecy
    leakage lies in [0, log2 m_s]."""
    problems = []
    if not report.exact_computed:
        return ["exact leakage was not computed"]
    mass = report.checks["table_mass"]
    if not abs(mass - 1.0) <= TABLE_MASS_TOL:
        problems.append(f"table_mass {mass!r} off 1 by more than {TABLE_MASS_TOL}")
    zgap = report.checks["z_marginal_gap"]
    if not zgap <= Z_MARGINAL_TOL:
        problems.append(f"z_marginal_gap {zgap:.3e} > {Z_MARGINAL_TOL}")
    leak = report.exact_secrecy_leakage_bits
    if not 0.0 <= leak <= math.log2(report.m_s):
        problems.append(f"secrecy leakage {leak!r} outside [0, log2 m_s = {math.log2(report.m_s)}]")
    return problems


class Simulate(Workload):
    name = "simulate"

    def __init__(self, trials: int = 2000):
        self.trials = trials

    def config(self, st, k: int) -> SimConfig:
        return SimConfig(n=SIM_N, test_channel=Channel.identity(2), gamma=SIM_GAMMA,
                         seed=job_seed(st["seed"], k), trials=self.trials)

    def work(self, st, k: int, tr) -> list:
        with tr.span("protocol.run_simulation"):
            report = run_simulation(st["model"], self.config(st, k))
        tr.count("protocol.codebook_size", report.codebook_size)
        tr.count("protocol.encoder_failure_rate", report.encoder_failure_rate)
        tr.count("protocol.decoder_failure_rate", report.decoder_failure_rate)
        return check_simulation(report)

    def layer_probe(self, st, k, tr):
        model, cfg = st["model"], self.config(st, k)
        with tr.span("protocol.generate_codebook"):
            codebook = generate_codebook(model, cfg)
        with tr.span("protocol.run_simulation_mc") as sp:
            run_simulation(model, cfg, monte_carlo_only=True)
        tr.count("protocol.trials_per_s", cfg.trials / sp.seconds)
        with tr.span("protocol.exact_leakage"):
            exact_leakage(codebook, model, cfg)


# ---------------------------------------------------------------------------
# CLI and Gaussian layers (traced region_sweep runs only)
# ---------------------------------------------------------------------------

# (span name, command, config, writes files)
CLI_COMMANDS = (
    ("cli.classify", "classify", "binary.json", False),
    ("cli.region_binary", "region", "binary.json", True),
    ("cli.region_gaussian", "region", "gaussian.json", True),
    ("cli.figures", "figures", "gaussian.json", True),
)


def check_cli(outputs: dict, reference: dict) -> list:
    """Every command exited 0 and wrote the same bytes as the first pass."""
    problems = []
    for name, (code, data) in outputs.items():
        if code != 0:
            problems.append(f"{name} exited {code}")
        elif data != reference[name][1]:
            problems.append(f"{name} output differs from the first pass")
    return problems


def _output_bytes(stdout: bytes, out_dir: Path) -> bytes:
    """The command's stdout followed by every file it wrote, by name."""
    parts = [stdout]
    for f in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        parts += [b"\0" + f.name.encode() + b"\0", f.read_bytes()]
    return b"".join(parts)


def cli_pass(root: Path, seed: int, tr) -> dict:
    """Run each CLI command once, in a fresh process, one at a time."""
    outputs = {}
    for span, command, config, writes in CLI_COMMANDS:
        argv = [sys.executable, "-m", "authcap.cli", command,
                "--config", str(Path("configs") / config), "--seed", str(seed)]
        out_dir = root / ".perfbench" / "cli" / span
        if writes:
            shutil.rmtree(out_dir, ignore_errors=True)
            argv += ["--out", str(out_dir)]
        with tr.span(span):
            proc = subprocess.run(argv, cwd=root, capture_output=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        outputs[span] = (proc.returncode, _output_bytes(proc.stdout, out_dir))
    return outputs


def cli_probe(root: Path, seed: int, tr):
    """Time a fresh `import authcap.cli`, two passes of the CLI commands
    (whose outputs must match byte for byte), and in this process the
    closed forms those commands run."""
    probe = subprocess.run([sys.executable, str(Path(__file__).with_name("models.py")),
                            "cli_startup", str(seed)],
                           cwd=root, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
                           check=True)
    tr.count("cli.import_s", json.loads(probe.stdout)["ready_s"])
    reference = cli_pass(root, seed, tr)
    problems = check_cli(cli_pass(root, seed, tr), reference)
    if problems:
        raise RuntimeError("; ".join(problems))
    b = read_config(root, "binary.json")["binary"]
    g = read_config(root, "gaussian.json")["gaussian"]
    with tr.span("binary.closed_form_region"):
        closed_form_region(BinaryModelParams(b["p"], b["q"], b["eps"], beta_step=b["beta_step"]),
                           classifier_seed=seed)
    params = GaussianModelParams(g["rho1_sq"], g["rho2_sq"], g["rho3_sq"],
                                 alpha_grid=g["alpha_grid"], alpha_min=g["alpha_min"])
    with tr.span("gaussian.parametric_region"):
        parametric_region(params)
    with tr.span("gaussian.figure_curves"):
        figure_curves(params)


WORKLOADS = {w.name: w for w in (RegionSweep, TwoAuxCheck, Simulate)}
