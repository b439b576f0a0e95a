"""The package's exports, pinned.

`import authcap` loads the measures, the classifier and the region
evaluator; the names of the closed forms and the simulator resolve on first
use.  Either way a caller sees the same names, bound to the same objects.

Every export has a caller outside the tests, except the library API below:
single-call measures, corner forms and protocol phases that a user of the
library calls.  A reference that only the tests call lives in
`tests/oracles.py`, not in the package.  The same holds for the public
methods and properties of the exported classes.
"""

import ast
import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import authcap

EXPORTS = {
    "AuthModel", "BinaryModelParams", "Certainty", "Channel", "ChannelOrderVerdict",
    "Codebook", "DiscreteDistribution", "GaussianModelParams", "InfoUnit",
    "JointDistribution", "RateCorner", "RegionBoundary", "Relation", "SamplerConfig",
    "SimConfig", "SimLimitError", "SimReport", "UnsupportedClassError", "authenticate",
    "binary_entropy", "binary_entropy_inverse", "classify_ac", "closed_form_corner",
    "closed_form_region", "compare_regions", "conditional_mutual_information", "convolve",
    "enroll", "entropy", "eval_one_aux", "eval_two_aux", "exact_leakage",
    "generate_codebook", "is_less_noisy", "is_more_capable", "is_stochastically_degraded",
    "mutual_information", "parametric_corner", "parametric_region", "pareto_filter",
    "run_simulation", "sweep_region", "two_aux_random_search", "wilson_interval",
    "zero_key_region", "zero_key_region_gaussian",
}

LIBRARY_API = {
    "authenticate", "binary_entropy_inverse", "closed_form_corner",
    "conditional_mutual_information", "convolve", "enroll", "entropy", "mutual_information",
    "parametric_corner",
}

# Public methods and properties of exported classes that only a user of the
# library calls; none today.
MEMBER_API = set()


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


def _identifiers(path):
    """The names `path` reads, imports or looks up as attributes; a def's or
    a class's own name is not among them."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _callers():
    """The package's modules but `__init__.py`, and the scripts in `tools/`
    and `perfbench/`: the code outside the tests that may call an export."""
    root = Path(__file__).resolve().parents[1]
    files = [f for f in (root / "src" / "authcap").glob("*.py") if f.name != "__init__.py"]
    return files + [*(root / "tools").glob("*.py"), *(root / "perfbench").glob("*.py")]


def test_every_export_has_a_caller_outside_the_tests():
    called = set().union(*map(_identifiers, _callers()))
    assert EXPORTS - called == LIBRARY_API


def _attributes(path):
    """The names `path` looks up as attributes, as every call of a method or
    property is written; a bare name of the same spelling is not a call."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def _public_members(cls):
    """The public methods and properties `cls` defines itself."""
    kinds = (property, staticmethod, classmethod, functools.cached_property)
    return {k for k, v in vars(cls).items()
            if not k.startswith("_") and (inspect.isfunction(v) or isinstance(v, kinds))}


def test_every_public_member_of_an_export_has_a_caller_outside_the_tests():
    called = set().union(*map(_attributes, _callers()))
    classes = {name: getattr(authcap, name) for name in EXPORTS}
    uncalled = {f"{name}.{member}" for name, cls in classes.items() if inspect.isclass(cls)
                for member in _public_members(cls) - called}
    assert uncalled == MEMBER_API
