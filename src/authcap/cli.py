"""Command-line front end: classify, region, figures, simulate, compare.

Configs are JSON files carrying exactly one model form:

  {"px": [...], "ec": [[...]], "ac_y": [[...]], "ac_z": [[...]]}   discrete
  {"binary": {"p": 0.1, "q": 0.5, "eps": 0.2}}                     binary
  {"gaussian": {"rho1_sq": 0.875, "rho2_sq": 0.8, "rho3_sq": 0.667}}

plus optional "unit", "seed", "sampler" and "simulator" blocks.  `_field`
reads each field once with its JSON type checked: strings, booleans and
fractional values are never coerced into numbers, and size fields are capped
at _MAX_SIZE.  Every output file embeds the tool version, the sha256 of the
config file, and the seed, and re-running with identical inputs reproduces
identical bytes.

Exit codes: 0 ok, 2 I/O, 3 schema (missing or unknown field, wrong JSON type,
value out of range or over its cap), 4 stochasticity, 5 unsupported channel
class, 6 simulator limits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from functools import partial

import numpy as np

from . import __version__
from .infotheory import Channel, DiscreteDistribution, InfoUnit
from .regions import (
    AuthModel,
    BinaryModelParams,
    RegionBoundary,
    SamplerConfig,
    UnsupportedClassError,
    Z_FAVOR,
    _rates,
    _require_y_favor,
    compare_regions,
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

# Peak RSS grows by under 1 KB per sweep sample, two-aux pair, alpha point or
# simulator trial, so a run at this cap stays near 1 GB.
_MAX_SIZE = 1_000_000

_DISCRETE_FIELDS = (("px", 1), ("ec", 2), ("ac_y", 2), ("ac_z", 2))

# Every key some command reads, by block ("" is the top level).  Any other key
# exits 3, so a misspelt optional field cannot fall back to its default; a
# known key that the running command does not read is accepted.
_KNOWN_FIELDS = {
    "": {*(k for k, _ in _DISCRETE_FIELDS), "binary", "gaussian", "unit", "seed",
         "classifier_trials", "compare_pairs", "sampler", "simulator"},
    "binary": {"p", "q", "eps", "beta_step"},
    "gaussian": {"rho1_sq", "rho2_sq", "rho3_sq", "alpha_grid", "alpha_min"},
    "sampler": {"random_samples", "beta_grid_step", "u_sizes"},
    "simulator": {"n", "gamma", "trials", "test_channel", "rate_overrides",
                  "exact_leakage_limit", "max_codebook_size", "bijective_bins", "trace"},
    "simulator.test_channel": {"bsc"},
    "simulator.rate_overrides": {"r_j", "r_s"},
}


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
    except ValueError as e:
        raise CliError(EXIT_SCHEMA, f"config {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise CliError(EXIT_SCHEMA, "config root must be a JSON object")
    for name, known in _KNOWN_FIELDS.items():
        block = cfg
        for key in filter(None, name.split(".")):
            block = block.get(key) if type(block) is dict else None
        for key in block if type(block) is dict else ():
            if key not in known:
                raise CliError(EXIT_SCHEMA, f"unknown field {name + '.' if name else ''}{key}")
    return cfg, hashlib.sha256(raw).hexdigest()


def _model_form(cfg: dict) -> str:
    forms = []
    if "gaussian" in cfg:
        forms.append("gaussian")
    if "binary" in cfg:
        forms.append("binary")
    if any(k in cfg for k, _ in _DISCRETE_FIELDS):
        forms.append("discrete")
    if len(forms) != 1:
        raise CliError(EXIT_SCHEMA,
                       f"config must carry exactly one model form, found {forms or 'none'}")
    return forms[0]


def _finite_number(v) -> bool:
    # the comparison also rejects NaN, infinities and integers beyond float range
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _numbers(v) -> bool:
    """A JSON number or a nested array of them."""
    return all(map(_numbers, v)) if type(v) is list else type(v) in (int, float)


# kind -> (what the value must be, test on the JSON value).  A beta grid step
# gives ceil(1/2 / step) + 1 points, a non-positive one none.
_KINDS = {
    "integer": ("an integer", lambda v: type(v) is int),
    "size": (f"an integer <= {_MAX_SIZE}", lambda v: type(v) is int and v <= _MAX_SIZE),
    "number": ("a finite number", _finite_number),
    "step": (f"a number giving <= {_MAX_SIZE} grid points",
             lambda v: _finite_number(v) and (v <= 0 or 0.5 / v <= _MAX_SIZE - 1)),
    "flag": ("true or false", lambda v: type(v) is bool),
    "string": ("a string", lambda v: type(v) is str),
    "object": ("an object", lambda v: type(v) is dict),
    "array": ("an array", lambda v: type(v) is list),
    "integers": ("an array of integers",
                 lambda v: type(v) is list and all(type(u) is int for u in v)),
}
_REQUIRED = object()


def _field(block: dict, name: str, kind: str, default=_REQUIRED, override=None):
    """The command-line override if given (0 included), else block[last part
    of the dotted `name`], else `default`, checked against `kind`; numbers
    come back as floats.  A missing required field or wrong kind exits 3."""
    key = name.rpartition(".")[2]
    if override is None and key not in block:
        if default is _REQUIRED:
            raise CliError(EXIT_SCHEMA, f"missing required field {name}")
        return default
    value = block[key] if override is None else override
    what, ok = _KINDS[kind]
    if not ok(value):
        raise CliError(EXIT_SCHEMA, f"{name} must be {what}, got {value!r}")
    return float(value) if kind in ("number", "step") else value


@contextmanager
def _validated(what: str):
    """Map a library range check's ValueError to exit 3 naming `what`; its
    simulator-limit and unsupported-class subclasses keep their own codes."""
    try:
        yield
    except UnsupportedClassError as e:
        raise CliError(EXIT_UNSUPPORTED, str(e))
    except ValueError as e:
        from .protocol import SimLimitError   # only a failure loads the simulator here
        if isinstance(e, SimLimitError):
            raise CliError(EXIT_SIM_LIMIT, str(e))
        raise CliError(EXIT_SCHEMA, f"{what}: {e}")


def _stochastic(values, name: str, ndim: int) -> np.ndarray:
    """A probability vector (ndim 1) or row-stochastic matrix (ndim 2) read
    with tolerance ROW_SUM_TOL and renormalised along its last axis."""
    try:
        a = np.array(values, dtype=float) if _numbers(values) else None
    except (ValueError, OverflowError):   # ragged, or an integer too large
        a = None
    if a is None or a.ndim != ndim or a.size == 0:
        raise CliError(EXIT_SCHEMA, f"{name} must be a nonempty {ndim}-D array of numbers")
    if not np.all(np.isfinite(a)) or np.any(a < -ROW_SUM_TOL):
        raise CliError(EXIT_STOCHASTICITY, f"{name} has negative or non-finite entries")
    sums = a.sum(axis=-1, keepdims=True)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        raise CliError(EXIT_STOCHASTICITY,
                       f"{name} must sum to 1 within {ROW_SUM_TOL}; got {sums.ravel().tolist()}")
    a = np.clip(a, 0.0, None)
    return a / a.sum(axis=-1, keepdims=True)


def _seed(cfg: dict, args) -> int:
    seed = _field(cfg, "seed", "integer", 0, override=args.seed)
    if seed < 0:
        raise CliError(EXIT_SCHEMA, f"seed must be non-negative, got {seed}")
    return seed


def _binary_params(cfg: dict, grid_step: float = None) -> BinaryModelParams:
    blk = _field(cfg, "binary", "object")
    p, q, eps = (_field(blk, f"binary.{k}", "number") for k in ("p", "q", "eps"))
    beta_step = _field(blk, "binary.beta_step", "step", BinaryModelParams.beta_step, grid_step)
    with _validated("binary"):
        return BinaryModelParams(p, q, eps, beta_step=beta_step)


def _classifier_trials(cfg: dict, samples=None) -> int:
    """The classifier's trial count: `samples` (classify --samples) if given,
    else the config's classifier_trials."""
    return _field(cfg, "classifier_trials", "size", AuthModel.classifier_trials,
                  override=samples)


def _auth_model(cfg: dict, form: str, seed: int, command: str, samples=None) -> AuthModel:
    """The binary or discrete model of a config, classified with
    `_classifier_trials(cfg, samples)` trials."""
    if form not in ("binary", "discrete"):
        raise CliError(EXIT_SCHEMA, f"{command} requires a binary or discrete model config")
    trials = _classifier_trials(cfg, samples)
    if form == "binary":
        build = _binary_params(cfg).model
    else:
        px, ec, ac_y, ac_z = (_stochastic(_field(cfg, key, "array"), key, ndim)
                              for key, ndim in _DISCRETE_FIELDS)
        build = partial(AuthModel, DiscreteDistribution(px), Channel(ec),
                        Channel(ac_y), Channel(ac_z))
    with _validated("model"):
        return build(classifier_trials=trials, classifier_seed=seed)


def _gaussian_params(cfg: dict) -> GaussianModelParams:
    from .gaussian import GaussianModelParams
    blk = _field(cfg, "gaussian", "object")
    rhos = [_field(blk, f"gaussian.{k}", "number") for k in ("rho1_sq", "rho2_sq", "rho3_sq")]
    alpha_grid = _field(blk, "gaussian.alpha_grid", "size", GaussianModelParams.alpha_grid)
    alpha_min = _field(blk, "gaussian.alpha_min", "number", GaussianModelParams.alpha_min)
    with _validated("gaussian"):
        return GaussianModelParams(*rhos, alpha_grid=alpha_grid, alpha_min=alpha_min)


def _sampler(cfg: dict, seed: int, samples=None, grid_step=None,
             default_samples: int = SamplerConfig.random_samples) -> SamplerConfig:
    """The discrete sweep plan; `samples` and `grid_step` override the config."""
    blk = _field(cfg, "sampler", "object", {})
    return SamplerConfig(
        random_samples=_field(blk, "sampler.random_samples", "size", default_samples, samples),
        beta_grid_step=_field(blk, "sampler.beta_grid_step", "step",
                              SamplerConfig.beta_grid_step, grid_step),
        u_sizes=_field(blk, "sampler.u_sizes", "integers", SamplerConfig.u_sizes),
        seed=seed)


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
        _unread(args, "the Gaussian verdict", "samples")
        verdict = _gaussian_params(cfg).verdict()
    else:
        verdict = _auth_model(cfg, form, seed, "classify", args.samples).verdict

    payload = _stamp({"verdict": verdict.to_json_dict()}, cfg_hash, seed)
    sys.stdout.write(_json_text(payload))
    return EXIT_OK


def _unread(args, reader: str, *flags):
    """Exit 3 naming the first of `flags` given on the command line: the
    `reader` the config selects (a region or verdict) does not read it."""
    for dest in flags:
        if getattr(args, dest) is not None:
            raise CliError(EXIT_SCHEMA, f"--{dest.replace('_', '-')} is not read by {reader}")


def _region_boundary(cfg: dict, form: str, args, seed: int) -> RegionBoundary:
    # `compare` reads the sampler block too, so it is checked for every region
    _sampler(cfg, seed)
    if form == "binary":
        from .binary import closed_form_region
        _unread(args, "the binary closed-form region", "samples")
        params = _binary_params(cfg, args.grid_step)
        trials = _classifier_trials(cfg)
        with _validated("model"):
            return closed_form_region(params, trials, seed)
    if form == "gaussian":
        from .gaussian import parametric_region, zero_key_region_gaussian
        _unread(args, "the Gaussian closed-form region", "samples", "grid_step")
        params = _gaussian_params(cfg)
        if params.verdict().relation in Z_FAVOR:
            return zero_key_region_gaussian(params)
        return parametric_region(params)

    model = _auth_model(cfg, form, seed, "region")
    if model.verdict.relation in Z_FAVOR:
        _unread(args, "the zero-key region", "samples", "grid_step")
        return zero_key_region(model)
    with _validated("model"):
        _require_y_favor(model.verdict, "the one-auxiliary region")
    sampler = _sampler(cfg, seed, args.samples, args.grid_step)
    with _validated("sampler"):
        return sweep_region(model, sampler)


def _cmd_region(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    form = _model_form(cfg)
    seed = _seed(cfg, args)
    boundary = _region_boundary(cfg, form, args, seed)
    unit = _field(cfg, "unit", "string", boundary.unit.value, override=args.unit)
    with _validated("unit"):
        boundary = boundary.to_unit(InfoUnit.parse(unit))
    boundary.metadata.update({"version": __version__, "config_hash": cfg_hash,
                              "seed": seed})

    _write_text(os.path.join(args.out, "region.csv"), boundary.to_csv_text())
    payload = _stamp(boundary.to_json_dict(), cfg_hash, seed)
    _write_text(os.path.join(args.out, "region.json"), _json_text(payload))
    return EXIT_OK


def _cmd_figures(args) -> int:
    from .gaussian import figure_curves
    cfg, cfg_hash = _load_config(args.config)
    if _model_form(cfg) != "gaussian":
        raise CliError(EXIT_SCHEMA, "figures requires a gaussian model config")
    params = _gaussian_params(cfg)
    with _validated("gaussian"):
        curves = figure_curves(params)
    seed = _seed(cfg, args)

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
    from .protocol import SimConfig
    blk = _field(cfg, "simulator", "object")
    tc = blk.get("test_channel", {"bsc": 0.1})
    with _validated("simulator.test_channel"):
        test = (Channel.bsc(_field(tc, "simulator.test_channel.bsc", "number"))
                if isinstance(tc, dict) else Channel(_stochastic(tc, "simulator.test_channel", 2)))
    ro = _field(blk, "simulator.rate_overrides", "object", None)
    overrides = None if ro is None else tuple(
        _field(ro, f"simulator.rate_overrides.{k}", "number") for k in ("r_j", "r_s"))
    with _validated("simulator"):
        return SimConfig(
            n=_field(blk, "simulator.n", "integer"), test_channel=test,
            gamma=_field(blk, "simulator.gamma", "number", SimConfig.gamma),
            rate_overrides=overrides, seed=seed,
            exact_leakage_limit=_field(blk, "simulator.exact_leakage_limit", "integer",
                                       SimConfig.exact_leakage_limit),
            trials=_field(blk, "simulator.trials", "size", SimConfig.trials),
            max_codebook_size=_field(blk, "simulator.max_codebook_size", "integer",
                                     SimConfig.max_codebook_size),
            bijective_bins=_field(blk, "simulator.bijective_bins", "flag",
                                  SimConfig.bijective_bins),
            collect_trace=_field(blk, "simulator.trace", "flag", SimConfig.collect_trace))


def _cmd_simulate(args) -> int:
    from .protocol import run_simulation
    cfg, cfg_hash = _load_config(args.config)
    form = _model_form(cfg)
    seed = _seed(cfg, args)
    model = _auth_model(cfg, form, seed, "simulate")
    sim_cfg = _sim_config(cfg, seed)
    with _validated("simulator"):
        report = run_simulation(model, sim_cfg, monte_carlo_only=args.monte_carlo_only)
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
    with _validated("model"):
        _require_y_favor(model.verdict, "the one-auxiliary vs two-auxiliary comparison")
    if model.n_xt > 4:
        raise CliError(EXIT_SCHEMA, "compare is restricted to tiny alphabets (|Xt| <= 4)")

    n_pairs = _field(cfg, "compare_pairs", "size", 2000, override=args.samples)
    if n_pairs < 1:
        raise CliError(EXIT_SCHEMA, f"compare needs at least one auxiliary pair, got {n_pairs}")
    sampler = _sampler(cfg, seed, grid_step=args.grid_step, default_samples=20_000)
    with _validated("sampler"):
        one_aux = sweep_region(model, sampler)
    two_aux = RegionBoundary(two_aux_random_search(model, n_pairs, seed=seed + 1), one_aux.unit)

    # Reverse containment via the constant-V embedding: each front corner's
    # test channel with a constant V, one stack per |U|, reproduces the
    # sweep's rates coordinatewise.
    embed_gap = 0.0
    for u in sorted({c.test_channel.num_outputs for c in one_aux.corners}):
        group = [c for c in one_aux.corners if c.test_channel.num_outputs == u]
        tu = np.stack([c.test_channel.matrix for c in group])
        two = _rates(model, tu, np.ones((len(group), u, 1)))
        one = np.array([c.as_tuple() for c in group])
        embed_gap = max(embed_gap, float(np.abs(two[:, :3] - one).max()))

    payload = _stamp({
        "two_aux_excess_over_one_aux": compare_regions(two_aux, one_aux),
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

    # Each command registers only the flags it reads.
    kinds = {"unit": {"choices": ["bits", "nats"]}, "samples": {"type": int},
             "grid_step": {"type": float}}

    def command(name, about, out=True, **flags):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", required=True, help="JSON model config")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        for dest, text in flags.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, default=None,
                           help=text, **kinds[dest])
        return p

    command("classify", "print the channel-ordering verdict", out=False,
            samples="classifier trials")
    command("region", "compute the rate-region boundary", unit="unit of the written region",
            samples="sweep samples", grid_step="beta grid step")
    command("figures", "emit storage-rate projection curves (gaussian models)")
    sim = command("simulate", "run the random-binning protocol")
    sim.add_argument("--monte-carlo-only", action="store_true",
                     help="skip exact leakage enumeration (required for n over the limit)")
    command("compare", "two-auxiliary vs one-auxiliary region check",
            samples="two-auxiliary pairs", grid_step="beta grid step of the sweep")
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
