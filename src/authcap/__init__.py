"""Capacity regions (secret-key, storage, privacy-leakage) for
identifier-based authentication systems with ordered authentication
channels, plus a desk-scale random-binning protocol simulator.

`import authcap` loads what a model build runs: the information measures,
the classifier and the region evaluator.  The binary and Gaussian closed
forms and the simulator load on first use of one of their names, or of
`authcap.binary`, `authcap.gaussian` or `authcap.protocol`.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .infotheory import (
    Channel,
    DiscreteDistribution,
    InfoUnit,
    JointDistribution,
    binary_entropy,
    binary_entropy_inverse,
    conditional_mutual_information,
    convolve,
    entropy,
    mutual_information,
)
from .classifier import (
    Certainty,
    ChannelOrderVerdict,
    Relation,
    classify_ac,
    is_less_noisy,
    is_more_capable,
    is_stochastically_degraded,
)
from .regions import (
    AuthModel,
    BinaryModelParams,
    RateCorner,
    RegionBoundary,
    SamplerConfig,
    UnsupportedClassError,
    compare_regions,
    eval_one_aux,
    eval_two_aux,
    pareto_filter,
    zero_key_region,
    sweep_region,
    two_aux_random_search,
)

# The exports loaded on first use, by home module.
_LAZY = {
    "binary": ("closed_form_corner", "closed_form_region"),
    "gaussian": (
        "GaussianModelParams",
        "parametric_corner",
        "parametric_region",
        "zero_key_region_gaussian",
    ),
    "protocol": (
        "Codebook",
        "SimConfig",
        "SimLimitError",
        "SimReport",
        "authenticate",
        "enroll",
        "exact_leakage",
        "generate_codebook",
        "run_simulation",
        "wilson_interval",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# Every public name but the submodules: the imports above and the table.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += _HOME


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))
