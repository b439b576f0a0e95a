"""The package's option set, pinned.

Every defaulted parameter and every defaulted dataclass field on the names
`authcap` exports is a settable value.  One is kept only when a caller
outside the tests sets it, or when it is on a name of
`test_exports.LIBRARY_API`, the documented calls that no code outside the
tests makes; of those only `enroll(rng)`, the encoder's tie-break draw, has
an option.  A new one edits OPTIONS below, and its change names that caller.
"""

import dataclasses
import inspect

import authcap

OPTIONS = {
    # dataclass fields
    "AuthModel.classifier_seed",
    "AuthModel.classifier_trials",
    "BinaryModelParams.beta_step",
    "ChannelOrderVerdict.details",
    "ChannelOrderVerdict.note",
    "ChannelOrderVerdict.residual",
    "ChannelOrderVerdict.witness",
    "GaussianModelParams.alpha_grid",
    "GaussianModelParams.alpha_min",
    "RateCorner.extras",
    "RateCorner.test_channel",
    "RegionBoundary.metadata",
    "SamplerConfig.beta_grid_step",
    "SamplerConfig.random_samples",
    "SamplerConfig.seed",
    "SamplerConfig.u_sizes",
    "SimConfig.bijective_bins",
    "SimConfig.collect_trace",
    "SimConfig.exact_leakage_limit",
    "SimConfig.gamma",
    "SimConfig.max_codebook_size",
    "SimConfig.rate_overrides",
    "SimConfig.seed",
    "SimConfig.trials",
    "SimReport.checks",
    "SimReport.exact_privacy_leakage_rate_bits",
    "SimReport.exact_secrecy_leakage_bits",
    "SimReport.mu_n",
    "SimReport.trace",
    # function parameters
    "classify_ac(seed)",
    "classify_ac(trials)",
    "closed_form_region(classifier_seed)",
    "closed_form_region(classifier_trials)",
    "enroll(rng)",
    "eval_two_aux(max_u)",
    "is_less_noisy(seed)",
    "is_less_noisy(trials)",
    "run_simulation(monte_carlo_only)",
    "sweep_region(config)",
    "two_aux_random_search(seed)",
}


def _defaulted(fn, name):
    return {f"{name}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty}


def exported_options():
    found = set()
    for name in dir(authcap):
        obj = getattr(authcap, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if not inspect.isclass(obj):
            found |= _defaulted(obj, name)
            continue
        if dataclasses.is_dataclass(obj):
            found |= {f"{name}.{f.name}" for f in dataclasses.fields(obj)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING}
        for attr, member in vars(obj).items():
            fn = getattr(member, "__func__", member)
            if not attr.startswith("_") and inspect.isfunction(fn):
                found |= _defaulted(fn, f"{name}.{attr}")
    return found


def test_every_option_is_listed():
    assert len(OPTIONS) == 40
    assert exported_options() == OPTIONS
