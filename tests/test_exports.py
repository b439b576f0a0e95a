"""The package's exports, pinned.

`import authcap` loads the measures, the classifier and the region
evaluator; the names of the closed forms and the simulator resolve on first
use.  Either way a caller sees the same names, bound to the same objects.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import authcap

EXPORTS = {
    "AuthModel", "BinaryModelParams", "Certainty", "Channel", "ChannelOrderVerdict",
    "Codebook", "CovarianceMatrix", "DiscreteDistribution", "GaussianModelParams",
    "InfoUnit", "JointDistribution", "RateCorner", "RegionBoundary", "Relation",
    "SamplerConfig", "SimConfig", "SimLimitError", "SimReport", "UnsupportedClassError",
    "authenticate", "binary_entropy", "binary_entropy_inverse", "build_covariance",
    "classify_ac", "closed_form_corner", "closed_form_region", "compare_regions",
    "compose_channels", "conditional_mutual_information", "convolution_bounds", "convolve",
    "covariance_mc_diagnostic", "enroll", "entropy", "entropy_convolution_check",
    "eval_one_aux", "eval_two_aux", "exact_leakage", "gaussian_mi", "generate_codebook",
    "is_less_noisy", "is_more_capable", "is_stochastically_degraded", "mutual_information",
    "parametric_corner", "parametric_region", "pareto_filter", "region_contains",
    "run_simulation", "sweep_region", "two_aux_random_search", "wilson_interval",
    "zero_key_region", "zero_key_region_gaussian",
}


def test_lazy_exports_are_their_home_modules_objects():
    for module, names in authcap._LAZY.items():
        home = importlib.import_module(f"authcap.{module}")
        for name in names:
            assert getattr(authcap, name) is getattr(home, name)


def test_dir_and_all_list_every_export():
    assert EXPORTS <= set(dir(authcap))
    assert sorted(authcap.__all__) == sorted(EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        authcap.no_such_name


def test_fresh_interpreter_resolves_modules_and_star_import():
    code = """if True:
        import json, types
        import authcap
        modules = [authcap.binary.__name__, authcap.gaussian.__name__,
                   authcap.protocol.__name__]
        ns = {}
        exec("from authcap import *", ns)
        print(json.dumps([modules, sorted(k for k, v in ns.items() if not k.startswith("_")
                                          and not isinstance(v, types.ModuleType))]))
    """
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    modules, star = json.loads(proc.stdout)
    assert modules == ["authcap.binary", "authcap.gaussian", "authcap.protocol"]
    assert star == sorted(EXPORTS)
