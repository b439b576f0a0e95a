import json
import math
from pathlib import Path

import numpy as np
import pytest

from authcap import (
    Certainty,
    GaussianModelParams,
    parametric_corner,
    parametric_region,
    Relation,
    UnsupportedClassError,
    zero_key_region_gaussian,
)
from authcap.gaussian import figure_curves
from oracles import (CovarianceMatrix, build_covariance, closed_form_mis,
                     covariance_mc_diagnostic, gaussian_mi)

PAPER = GaussianModelParams(7 / 8, 4 / 5, 2 / 3)


def test_params_validation():
    with pytest.raises(ValueError):
        GaussianModelParams(1.0, 0.5, 0.3)
    with pytest.raises(ValueError):
        GaussianModelParams(0.5, -0.1, 0.3)
    with pytest.raises(ValueError, match="alpha_grid must be >= 1"):
        GaussianModelParams(0.5, 0.5, 0.3, alpha_grid=0)
    with pytest.raises(ValueError, match=r"alpha_min=0.0 outside \(0, 1\]"):
        GaussianModelParams(0.5, 0.5, 0.3, alpha_min=0.0)
    GaussianModelParams(0.0, 0.5, 0.0)


def test_covariance_structure():
    cov = build_covariance(PAPER, 0.5)
    m = cov.matrix
    assert np.max(np.abs(m - m.T)) <= 1e-14
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-10
    for name in ("Xt", "X", "Y", "Z"):
        i = cov.index(name)
        assert m[i, i] == pytest.approx(1.0, abs=1e-14)
    assert m[cov.index("U"), cov.index("U")] == pytest.approx(0.5)


def test_covariance_alpha_one_degenerate():
    cov = build_covariance(PAPER, 1.0)
    u = cov.index("U")
    assert np.max(np.abs(cov.matrix[u, :])) == 0.0
    assert gaussian_mi(cov, ["Xt"], ["U"]) == 0.0


def test_covariance_noiseless_enrollment_limit():
    p = GaussianModelParams(1 - 1e-12, 0.8, 0.5)
    cov = build_covariance(p, 0.3)
    assert cov.matrix[cov.index("Xt"), cov.index("X")] == pytest.approx(1.0, abs=1e-12)


def test_covariance_rejects_bad_alpha():
    with pytest.raises(ValueError):
        build_covariance(PAPER, 0.0)
    with pytest.raises(ValueError):
        build_covariance(PAPER, 1.1)


def test_covariance_matrix_validation():
    with pytest.raises(ValueError):
        CovarianceMatrix(np.arange(25.0).reshape(5, 5))   # not symmetric
    bad = -np.eye(5)
    with pytest.raises(ValueError):
        CovarianceMatrix(bad)                             # not PSD


def test_gaussian_mi_uncorrelated():
    cov = CovarianceMatrix(np.eye(5))
    assert gaussian_mi(cov, ["U"], ["Z"]) == 0.0
    with pytest.raises(ValueError):
        gaussian_mi(cov, ["U"], ["U"])


def test_gaussian_mi_quarter_alpha():
    cov = build_covariance(PAPER, 0.25)
    assert gaussian_mi(cov, ["Xt"], ["U"]) == pytest.approx(0.5 * math.log(4.0),
                                                            abs=1e-12)


def test_gaussian_mi_eavesdropper_line():
    # I(Z;U) at alpha = 1/2 equals 1/2 log(1/(alpha 7/12 + 5/12))
    cov = build_covariance(PAPER, 0.5)
    expected = 0.5 * math.log(1.0 / (0.5 * 7 / 12 + 5 / 12))
    assert gaussian_mi(cov, ["Z"], ["U"]) == pytest.approx(expected, abs=1e-9)


def test_closed_form_vs_oracle_grid():
    alphas = np.geomspace(1e-6, 1.0, 400)
    pairs = (("i_xt_u", "Xt"), ("i_x_u", "X"), ("i_y_u", "Y"), ("i_z_u", "Z"))
    for a in alphas:
        cov = build_covariance(PAPER, float(a))
        mis = closed_form_mis(PAPER, float(a))
        for key, name in pairs:
            assert abs(mis[key] - gaussian_mi(cov, [name], ["U"])) <= 1e-9


def test_corner_alpha_one():
    c = parametric_corner(PAPER, 1.0)
    assert c.rs == 0.0
    assert c.rj == 0.0
    assert abs(c.rl - 0.5 * math.log(3.0)) <= 1e-12


def test_corner_small_alpha_limit():
    c = parametric_corner(PAPER, 1e-12)
    assert c.rs == pytest.approx(0.5 * math.log((1 - 7 / 12) / (1 - 7 / 10)),
                                 abs=1e-9)
    assert c.rs == pytest.approx(0.1643, abs=5e-5)


def test_corner_noiseless_enrollment_reduction():
    p = GaussianModelParams(1 - 1e-12, 4 / 5, 2 / 3)
    for alpha in (0.1, 0.4, 0.9):
        c = parametric_corner(p, alpha)
        expected_rj = 0.5 * math.log((alpha * 0.8 + 0.2) / alpha)
        assert c.rj == pytest.approx(expected_rj, abs=1e-9)


def test_corner_matches_chain_recombination():
    for alpha in np.geomspace(1e-5, 1.0, 60):
        mis = closed_form_mis(PAPER, float(alpha))
        c = parametric_corner(PAPER, float(alpha))
        rs = max(0.0, mis["i_y_u"] - mis["i_z_u"])
        rj = mis["i_xt_u"] - mis["i_y_u"]
        rl = mis["i_x_u"] - mis["i_y_u"] + 0.5 * math.log(1.0 / (1 - 2 / 3))
        assert abs(c.rs - rs) <= 1e-12
        assert abs(c.rj - rj) <= 1e-12
        assert abs(c.rl - rl) <= 1e-12


def test_corner_direction_guard():
    bad = GaussianModelParams(7 / 8, 2 / 3, 4 / 5)
    with pytest.raises(UnsupportedClassError):
        parametric_corner(bad, 0.5)
    with pytest.raises(ValueError):
        parametric_corner(PAPER, 0.0)


def test_verdict_orders_by_squared_correlation():
    # the one ordering the Gaussian region, its guards and the CLI read;
    # equal correlations are degraded both ways and read as Y w.r.t. Z
    for rhos, relation in (((7 / 8, 4 / 5, 2 / 3), Relation.DEGRADED_Z_WRT_Y),
                           ((7 / 8, 2 / 3, 2 / 3), Relation.DEGRADED_Y_WRT_Z),
                           ((7 / 8, 2 / 3, 4 / 5), Relation.DEGRADED_Y_WRT_Z)):
        v = GaussianModelParams(*rhos).verdict()
        assert (v.relation, v.certainty) == (relation, Certainty.EXACT)
    # a wrong direction is an unsupported class, as the CLI maps it to exit 5
    with pytest.raises(UnsupportedClassError):
        figure_curves(GaussianModelParams(7 / 8, 2 / 3, 2 / 3))


def test_zero_key_region_gaussian():
    p = GaussianModelParams(7 / 8, 2 / 3, 2 / 3)
    b = zero_key_region_gaussian(p)
    assert len(b.corners) == 1
    assert b.corners[0].as_tuple() == pytest.approx(
        (0.0, 0.0, 0.5 * math.log(3.0)), abs=1e-12)

    zero = GaussianModelParams(7 / 8, 0.0, 0.0)
    assert zero_key_region_gaussian(zero).corners[0].rl == 0.0

    with pytest.raises(UnsupportedClassError):
        zero_key_region_gaussian(PAPER)


def test_region_monotone_tradeoff():
    b = parametric_region(PAPER)
    assert len(b.corners) == PAPER.alpha_grid
    alphas = np.array([c.extras["param"] for c in b.corners])
    rs = np.array([c.rs for c in b.corners])
    rj = np.array([c.rj for c in b.corners])
    rl = np.array([c.rl for c in b.corners])
    order = np.argsort(alphas)
    assert np.all(np.diff(rs[order]) <= 1e-12)
    assert np.all(np.diff(rj[order]) <= 1e-12)
    floor = 0.5 * math.log(1.0 / (1 - 2 / 3))
    assert np.all(rl >= floor - 1e-12)
    assert np.all(rs >= 0.0)


def test_region_grid_endpoint_only():
    p = GaussianModelParams(7 / 8, 4 / 5, 2 / 3, alpha_grid=1, alpha_min=1.0)
    b = parametric_region(p)
    assert len(b.corners) == 1
    assert b.corners[0].as_tuple() == pytest.approx(
        (0.0, 0.0, 0.5 * math.log(3.0)), abs=1e-12)


def test_vsm_dominates_hsm_in_key_rate():
    curves = figure_curves(PAPER)
    h, v = curves["hsm"], curves["vsm"]
    lo = max(h["rj"].min(), v["rj"].min())
    hi = min(h["rj"].max(), v["rj"].max())
    grid = np.linspace(lo, hi, 400)
    rs_h = np.interp(grid, h["rj"][::-1], h["rs"][::-1])
    rs_v = np.interp(grid, v["rj"][::-1], v["rs"][::-1])
    rl_h = np.interp(grid, h["rj"][::-1], h["rl"][::-1])
    rl_v = np.interp(grid, v["rj"][::-1], v["rl"][::-1])
    assert np.all(rs_v >= rs_h - 1e-9)
    assert np.max(rs_v - rs_h) > 1e-6
    assert np.all(rl_h <= rl_v + 1e-9)
    assert np.max(rl_v - rl_h) > 1e-6


def test_identical_overlays_coincide():
    p = GaussianModelParams(1 - 1e-9, 4 / 5, 2 / 3, alpha_grid=50)
    curves = figure_curves(p)
    for key in ("rj", "rs", "rl"):
        assert np.max(np.abs(curves["hsm"][key] - curves["vsm"][key])) <= 1e-12


def test_covariance_monte_carlo_diagnostic():
    assert covariance_mc_diagnostic(PAPER, 0.5) <= 5e-3


# ---------------------------------------------------------------------------
# The array parametric rates against the per-alpha scalar formula they
# replaced, kept verbatim as ref_parametric_corner (renamed).
# ---------------------------------------------------------------------------

def ref_parametric_corner(params, alpha):
    c2 = params.rho1_sq * params.rho2_sq
    c3 = params.rho1_sq * params.rho3_sq
    top2 = alpha * c2 + 1.0 - c2
    top3 = alpha * c3 + 1.0 - c3
    rs_raw = 0.5 * math.log(top3 / top2)
    rj = 0.5 * math.log(top2 / alpha)
    rl = 0.5 * math.log(top2 / ((alpha * params.rho1_sq + 1.0 - params.rho1_sq)
                                * (1.0 - params.rho3_sq)))
    return max(0.0, rs_raw), rj, rl, rs_raw


def test_parametric_rates_match_scalar_formula():
    # configs/gaussian.json.  np.log and math.log are each within 1 ulp of
    # the true logarithm, so the rates may differ by up to 2 ulp.
    blk = json.loads((Path(__file__).parents[1] / "configs" / "gaussian.json")
                     .read_text())["gaussian"]
    params = GaussianModelParams(blk["rho1_sq"], blk["rho2_sq"], blk["rho3_sq"],
                                 alpha_grid=blk["alpha_grid"], alpha_min=blk["alpha_min"])

    def assert_close(got, ref):
        got, ref = np.asarray(got), np.asarray(ref)
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))

    region = parametric_region(params)
    assert len(region.corners) == params.alpha_grid
    for c in region.corners:
        assert type(c.extras["param"]) is float
        assert set(c.extras) == {"param", "rs_unclamped"}
        assert c.test_channel is None
        assert_close((c.rs, c.rj, c.rl, c.extras["rs_unclamped"]),
                     ref_parametric_corner(params, c.extras["param"]))
    curves = figure_curves(params)
    for tag, prm in (("hsm", params), ("vsm", params.vsm())):
        ref = np.array([ref_parametric_corner(prm, float(a)) for a in curves["alpha"]])
        for col, key in enumerate(("rs", "rj", "rl")):
            assert_close(curves[tag][key], ref[:, col])
