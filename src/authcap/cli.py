"""Command-line front end: classify, region, figures, simulate, compare.

Configs are JSON files carrying exactly one model form:

  {"px": [...], "ec": [[...]], "ac_y": [[...]], "ac_z": [[...]]}   discrete
  {"binary": {"p": 0.1, "q": 0.5, "eps": 0.2}}                     binary
  {"gaussian": {"rho1_sq": 0.875, "rho2_sq": 0.8, "rho3_sq": 0.667}}

plus optional "unit", "seed", "sampler" and "simulator" blocks.  Every
output file embeds the tool version, the sha256 of the config file, and the
seed, and re-running with identical inputs reproduces identical bytes.

Exit codes: 0 ok, 2 I/O, 3 schema, 4 stochasticity, 5 unsupported channel
class, 6 simulator limits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .binary import BinaryModelParams, closed_form_region
from .classifier import Certainty, ChannelOrderVerdict, Relation
from .gaussian import (
    GaussianModelParams,
    parametric_region,
    figure_curves,
    zero_key_region_gaussian,
)
from .infotheory import Channel, DiscreteDistribution, InfoUnit, LN2
from .protocol import SimConfig, SimLimitError, run_simulation
from .regions import (
    AuthModel,
    RegionBoundary,
    SamplerConfig,
    UnsupportedClassError,
    Y_FAVOR,
    Z_FAVOR,
    compare_regions,
    eval_one_aux,
    eval_two_aux,
    pareto_filter,
    zero_key_region,
    sweep_region,
    two_aux_random_search,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_STOCHASTICITY = 4
EXIT_UNSUPPORTED = 5
EXIT_SIM_LIMIT = 6

ROW_SUM_TOL = 1e-9


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_config(path: str):
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read config {path}: {e}")
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CliError(EXIT_SCHEMA, f"config {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise CliError(EXIT_SCHEMA, "config root must be a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


def _model_form(cfg: dict) -> str:
    forms = []
    if "gaussian" in cfg:
        forms.append("gaussian")
    if "binary" in cfg:
        forms.append("binary")
    if any(k in cfg for k in ("px", "ec", "ac_y", "ac_z")):
        forms.append("discrete")
    if len(forms) != 1:
        raise CliError(EXIT_SCHEMA,
                       f"config must carry exactly one model form, found {forms or 'none'}")
    return forms[0]


def _stochastic(values, name: str, ndim: int) -> np.ndarray:
    """A probability vector (ndim 1) or row-stochastic matrix (ndim 2) read
    with tolerance ROW_SUM_TOL and renormalised along its last axis."""
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise CliError(EXIT_SCHEMA, f"{name} must be numeric")
    if a.ndim != ndim or a.size == 0:
        raise CliError(EXIT_SCHEMA, f"{name} must be a nonempty {ndim}-D array")
    if not np.all(np.isfinite(a)) or np.any(a < -ROW_SUM_TOL):
        raise CliError(EXIT_STOCHASTICITY, f"{name} has negative or non-finite entries")
    sums = a.sum(axis=-1, keepdims=True)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        raise CliError(EXIT_STOCHASTICITY,
                       f"{name} must sum to 1 within {ROW_SUM_TOL}; got {sums.ravel().tolist()}")
    a = np.clip(a, 0.0, None)
    return a / a.sum(axis=-1, keepdims=True)


def _float_field(block: dict, key: str, context: str) -> float:
    if key not in block:
        raise CliError(EXIT_SCHEMA, f"{context} requires field {key!r}")
    v = block[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise CliError(EXIT_SCHEMA, f"{context}.{key} must be a number")
    return float(v)


def _setting(override, block: dict, key: str, default, cast=int):
    """The command-line override when one was given (0 included), else
    block[key] or `default`, cast to a number; a value that does not cast is
    a schema error."""
    if override is not None:
        return override
    try:
        return cast(block.get(key, default))
    except (TypeError, ValueError):
        raise CliError(EXIT_SCHEMA, f"{key} must be a number, got {block[key]!r}")


def _seed(cfg: dict, args) -> int:
    seed = _setting(args.seed, cfg, "seed", 0)
    if seed < 0:
        raise CliError(EXIT_SCHEMA, f"seed must be non-negative, got {seed}")
    return seed


def _build_discrete_model(cfg: dict, seed: int) -> AuthModel:
    for key in ("px", "ec", "ac_y", "ac_z"):
        if key not in cfg:
            raise CliError(EXIT_SCHEMA, f"discrete model requires field {key!r}")
    px = DiscreteDistribution(_stochastic(cfg["px"], "px", 1))
    ec = Channel(_stochastic(cfg["ec"], "ec", 2))
    ac_y = Channel(_stochastic(cfg["ac_y"], "ac_y", 2))
    ac_z = Channel(_stochastic(cfg["ac_z"], "ac_z", 2))
    try:
        return AuthModel(px, ec, ac_y, ac_z, classifier_seed=seed)
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, str(e))


def _binary_params(cfg: dict, grid_step: float = None) -> BinaryModelParams:
    blk = cfg["binary"]
    if not isinstance(blk, dict):
        raise CliError(EXIT_SCHEMA, "binary block must be an object")
    try:
        return BinaryModelParams(_float_field(blk, "p", "binary"),
                                 _float_field(blk, "q", "binary"),
                                 _float_field(blk, "eps", "binary"),
                                 beta_step=_setting(grid_step, blk, "beta_step", 1e-3, float))
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, str(e))


def _auth_model(cfg: dict, form: str, seed: int, command: str,
                trials: int = 20_000) -> AuthModel:
    """The binary or discrete model of a config; the classifier trial count
    applies to the binary form.  Values the model rejects are schema errors."""
    if form == "discrete":
        return _build_discrete_model(cfg, seed)
    if form != "binary":
        raise CliError(EXIT_SCHEMA, f"{command} requires a binary or discrete model config")
    p = _binary_params(cfg)
    try:
        return AuthModel.binary_hsm(p.p, p.q, p.eps,
                                    classifier_trials=trials, classifier_seed=seed)
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, str(e))


def _gaussian_params(cfg: dict) -> GaussianModelParams:
    blk = cfg["gaussian"]
    if not isinstance(blk, dict):
        raise CliError(EXIT_SCHEMA, "gaussian block must be an object")
    try:
        return GaussianModelParams(
            _float_field(blk, "rho1_sq", "gaussian"),
            _float_field(blk, "rho2_sq", "gaussian"),
            _float_field(blk, "rho3_sq", "gaussian"),
            alpha_grid=int(blk.get("alpha_grid", 400)),
            alpha_min=float(blk.get("alpha_min", 1e-6)),
        )
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, str(e))


def _resolve_unit(cfg: dict, args, default: InfoUnit) -> InfoUnit:
    name = args.unit or cfg.get("unit")
    if name is None:
        return default
    try:
        return InfoUnit.parse(name)
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, str(e))


def _convert_boundary(boundary: RegionBoundary, unit: InfoUnit) -> RegionBoundary:
    if unit == boundary.unit:
        return boundary
    scale = LN2 if (boundary.unit, unit) == (InfoUnit.BITS, InfoUnit.NATS) else 1.0 / LN2
    for c in boundary.corners:
        c.rs *= scale
        c.rj *= scale
        c.rl *= scale
        if "rs_unclamped" in c.extras:
            c.extras["rs_unclamped"] *= scale
        c.unit = unit
    boundary.unit = unit
    return boundary


def _write_text(path: str, text: str):
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot write {path}: {e}")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _stamp(payload: dict, config_hash: str, seed) -> dict:
    payload["version"] = __version__
    payload["config_hash"] = config_hash
    payload["seed"] = seed
    return payload


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    form = _model_form(cfg)
    seed = _seed(cfg, args)

    if form == "gaussian":
        params = _gaussian_params(cfg)
        relation = (Relation.DEGRADED_Z_WRT_Y if params.rho2_sq > params.rho3_sq
                    else Relation.DEGRADED_Y_WRT_Z)
        verdict = ChannelOrderVerdict(
            relation, Certainty.EXACT,
            note="jointly Gaussian observations are always ordered by squared correlation")
    else:
        trials = _setting(args.samples, cfg, "classifier_trials", 20_000)
        verdict = _auth_model(cfg, form, seed, "classify", trials).verdict

    payload = _stamp({"verdict": verdict.to_json_dict()}, cfg_hash, seed)
    sys.stdout.write(_json_text(payload))
    return EXIT_OK


def _region_boundary(cfg: dict, form: str, args, seed: int):
    grid_step = args.grid_step
    if form == "binary":
        params = _binary_params(cfg, grid_step)
        return closed_form_region(params, classifier_seed=seed), InfoUnit.BITS
    if form == "gaussian":
        params = _gaussian_params(cfg)
        if params.rho2_sq > params.rho3_sq:
            return parametric_region(params), InfoUnit.NATS
        return zero_key_region_gaussian(params), InfoUnit.NATS

    model = _build_discrete_model(cfg, seed)
    relation = model.verdict.relation
    if relation in Z_FAVOR:
        return zero_key_region(model), InfoUnit.BITS
    if relation not in Y_FAVOR:
        raise CliError(EXIT_UNSUPPORTED,
                       f"verdict {relation.value}: no capacity-region formula is known "
                       f"for more-capable-only or unordered channel pairs")
    sampler_cfg = cfg.get("sampler", {})
    sampler = SamplerConfig(
        random_samples=_setting(args.samples, sampler_cfg, "random_samples", 100_000),
        beta_grid_step=_setting(grid_step, sampler_cfg, "beta_grid_step", 1e-3, float),
        u_sizes=tuple(sampler_cfg["u_sizes"]) if "u_sizes" in sampler_cfg else None,
        seed=seed)
    return sweep_region(model, sampler), InfoUnit.BITS


def _cmd_region(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    form = _model_form(cfg)
    seed = _seed(cfg, args)
    try:
        boundary, default_unit = _region_boundary(cfg, form, args, seed)
    except UnsupportedClassError as e:
        raise CliError(EXIT_UNSUPPORTED, str(e))
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, str(e))
    unit = _resolve_unit(cfg, args, default_unit)
    boundary = _convert_boundary(boundary, unit)
    boundary.metadata.update({"version": __version__, "config_hash": cfg_hash,
                              "seed": seed})

    _write_text(os.path.join(args.out, "region.csv"), boundary.to_csv_text())
    payload = _stamp(boundary.to_json_dict(), cfg_hash, seed)
    _write_text(os.path.join(args.out, "region.json"), _json_text(payload))
    return EXIT_OK


def _cmd_figures(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    if _model_form(cfg) != "gaussian":
        raise CliError(EXIT_SCHEMA, "figures requires a gaussian model config")
    params = _gaussian_params(cfg)
    if params.rho2_sq <= params.rho3_sq:
        raise CliError(EXIT_UNSUPPORTED,
                       "figures requires the main channel to dominate (rho2_sq > rho3_sq)")
    seed = _seed(cfg, args)
    curves = figure_curves(params)

    header = "# version=%s config_hash=%s seed=%s" % (__version__, cfg_hash, seed)
    for fname, col in (("rs_vs_rj.csv", "rs"), ("rl_vs_rj.csv", "rl")):
        lines = [header, f"alpha,rj_hsm,{col}_hsm,rj_vsm,{col}_vsm"]
        for i, a in enumerate(curves["alpha"]):
            lines.append(",".join(repr(float(v)) for v in (
                a, curves["hsm"]["rj"][i], curves["hsm"][col][i],
                curves["vsm"]["rj"][i], curves["vsm"][col][i])))
        _write_text(os.path.join(args.out, fname), "\n".join(lines) + "\n")
    return EXIT_OK


def _sim_config(cfg: dict, seed: int) -> SimConfig:
    blk = cfg.get("simulator")
    if not isinstance(blk, dict):
        raise CliError(EXIT_SCHEMA, "simulate requires a 'simulator' block")
    if "n" not in blk:
        raise CliError(EXIT_SCHEMA, "simulator block requires blocklength 'n'")
    tc = blk.get("test_channel", {"bsc": 0.1})
    if isinstance(tc, dict) and "bsc" in tc:
        test = Channel.bsc(float(tc["bsc"]))
    else:
        test = Channel(_stochastic(tc, "simulator.test_channel", 2))
    overrides = None
    if "rate_overrides" in blk:
        ro = blk["rate_overrides"]
        if not isinstance(ro, dict) or "r_j" not in ro or "r_s" not in ro:
            raise CliError(EXIT_SCHEMA, "rate_overrides must carry 'r_j' and 'r_s'")
        overrides = (float(ro["r_j"]), float(ro["r_s"]))
    try:
        return SimConfig(
            n=int(blk["n"]), test_channel=test,
            gamma=float(blk.get("gamma", 0.1)),
            rate_overrides=overrides, seed=seed,
            exact_leakage_limit=int(blk.get("exact_leakage_limit", 10)),
            trials=int(blk.get("trials", 10_000)),
            max_codebook_size=int(blk.get("max_codebook_size", 1 << 20)),
            bijective_bins=bool(blk.get("bijective_bins", False)),
            collect_trace=bool(blk.get("trace", False)))
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, str(e))


def _cmd_simulate(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    form = _model_form(cfg)
    seed = _seed(cfg, args)
    model = _auth_model(cfg, form, seed, "simulate")
    sim_cfg = _sim_config(cfg, seed)
    try:
        report = run_simulation(model, sim_cfg, monte_carlo_only=args.monte_carlo_only)
    except SimLimitError as e:
        raise CliError(EXIT_SIM_LIMIT, str(e))
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, str(e))
    payload = _stamp({"report": report.to_json_dict()}, cfg_hash, seed)
    _write_text(os.path.join(args.out, "simulation.json"), _json_text(payload))
    if report.trace is not None:
        _write_text(os.path.join(args.out, "simulation_trace.csv"),
                    report.trace_csv_text())
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    form = _model_form(cfg)
    seed = _seed(cfg, args)
    model = _auth_model(cfg, form, seed, "compare")
    if model.verdict.relation not in Y_FAVOR:
        raise CliError(EXIT_UNSUPPORTED,
                       f"verdict {model.verdict.relation.value}: one-auxiliary vs "
                       f"two-auxiliary comparison is only claimed for degraded or "
                       f"less-noisy pairs in the main channel's favor")
    if model.n_xt > 4:
        raise CliError(EXIT_SCHEMA, "compare is restricted to tiny alphabets (|Xt| <= 4)")

    n_pairs = _setting(args.samples, cfg, "compare_pairs", 2000)
    if n_pairs < 1:
        raise CliError(EXIT_SCHEMA, f"compare needs at least one auxiliary pair, got {n_pairs}")
    sampler_cfg = cfg.get("sampler", {})
    sampler = SamplerConfig(
        random_samples=_setting(None, sampler_cfg, "random_samples", 20_000),
        beta_grid_step=_setting(args.grid_step, sampler_cfg, "beta_grid_step", 1e-3, float),
        seed=seed)
    try:
        one_aux = sweep_region(model, sampler)
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, str(e))
    two_corners = two_aux_random_search(model, n_pairs, seed=seed + 1)
    two_boundary = RegionBoundary(pareto_filter(two_corners), one_aux.unit,
                                  metadata={"pairs": n_pairs})

    # Reverse containment via the constant-V embedding, checked coordinatewise.
    embed_gap = 0.0
    for corner in one_aux.corners:
        test_u = corner.test_channel
        v_const = Channel.constant(test_u.num_outputs)
        two = eval_two_aux(model, test_u, v_const,
                           max_u=max(4, test_u.num_outputs), max_v=3)
        one = eval_one_aux(model, test_u)
        embed_gap = max(embed_gap,
                        abs(two.rs - one.rs), abs(two.rj - one.rj),
                        abs(two.rl - one.rl))

    payload = _stamp({
        "two_aux_excess_over_one_aux": compare_regions(two_boundary, one_aux),
        "one_aux_excess_over_two_aux_with_embedding": embed_gap,
        "pairs_sampled": n_pairs,
        "one_aux_corners": len(one_aux.corners),
        "verdict": model.verdict.to_json_dict(),
    }, cfg_hash, seed)
    _write_text(os.path.join(args.out, "comparison.json"), _json_text(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="authcap",
        description="Capacity regions and desk-scale protocol simulation for "
                    "identifier-based authentication systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="JSON model config")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--unit", choices=["bits", "nats"], default=None)
        p.add_argument("--samples", type=int, default=None,
                       help="random sample count (sweeps, classifier trials, compare pairs)")
        p.add_argument("--grid-step", dest="grid_step", type=float, default=None,
                       help="structured grid step (beta grid)")

    common(sub.add_parser("classify", help="print the channel-ordering verdict"),
           needs_out=False)
    common(sub.add_parser("region", help="compute the rate-region boundary"))
    common(sub.add_parser("figures", help="emit storage-rate projection curves "
                                          "(gaussian models)"))
    sim = sub.add_parser("simulate", help="run the random-binning protocol")
    common(sim)
    sim.add_argument("--monte-carlo-only", action="store_true",
                     help="skip exact leakage enumeration (required for n over the limit)")
    common(sub.add_parser("compare", help="two-auxiliary vs one-auxiliary region check"))
    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "region": _cmd_region,
    "figures": _cmd_figures,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
