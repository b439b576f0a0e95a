import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from authcap import (
    AuthModel,
    BinaryModelParams,
    Channel,
    DiscreteDistribution,
    eval_one_aux,
    closed_form_corner,
    closed_form_region,
)
from authcap.binary import _closed_form_rates
from authcap.infotheory import binary_entropy, convolve
from authcap.classifier import Relation
from authcap.regions import _beta_grid
from oracles import convolution_bounds, entropy_convolution_check


def hb(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def conv(a, b):
    return a * (1 - b) + (1 - a) * b


PARAMS = BinaryModelParams(0.1, 0.5, 0.2)


def test_params_validation():
    with pytest.raises(ValueError):
        BinaryModelParams(0.6, 0.5, 0.2)
    with pytest.raises(ValueError):
        BinaryModelParams(0.1, 1.2, 0.2)
    with pytest.raises(ValueError):
        BinaryModelParams(0.1, 0.5, 0.51)


def test_corner_at_half():
    c = closed_form_corner(PARAMS, 0.5)
    assert c.rs == 0.0
    assert c.rj == pytest.approx(0.0, abs=1e-12)
    assert c.rl == pytest.approx(1 - hb(0.2), abs=1e-12)


def test_corner_at_zero():
    c = closed_form_corner(PARAMS, 0.0)
    # hand evaluation of the closed form
    rs = hb(conv(conv(0.0, 0.1), 0.2)) - 0.5 * hb(0.1) - 0.5
    rj = 0.5 + 0.5 * hb(0.1)
    rl = 1.5 - 0.5 * hb(0.1) - hb(0.2)
    assert c.as_tuple() == pytest.approx((rs, rj, rl), abs=1e-14)
    assert c.as_tuple() == pytest.approx((0.0922, 0.7345, 0.5436), abs=5e-5)


def test_corner_noiseless_extreme():
    # p = 0, q = 0, eps = 1/2: perfect main link, useless eavesdropper
    c = closed_form_corner(BinaryModelParams(0.0, 0.0, 0.5), 0.0)
    assert c.as_tuple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_corner_rejects_bad_beta():
    with pytest.raises(ValueError):
        closed_form_corner(PARAMS, 0.7)


def test_closed_form_matches_generic_evaluator():
    model = PARAMS.model(classifier_trials=2_000)
    for beta in np.linspace(0.0, 0.5, 101):
        closed = closed_form_corner(PARAMS, float(beta))
        generic = eval_one_aux(model, Channel.bsc(float(beta)))
        assert closed.as_tuple() == pytest.approx(generic.as_tuple(), abs=1e-9)


def test_region_single_point_grid():
    params = BinaryModelParams(0.1, 0.5, 0.2, beta_step=0.5)
    b = closed_form_region(params, classifier_trials=2_000)
    # grid is {0, 1/2}; the beta = 1/2 corner is the zero-key zero-storage
    # point
    tuples = [c.as_tuple() for c in b.corners]
    assert any(t == pytest.approx((0.0, 0.0, 1 - hb(0.2)), abs=1e-12) for t in tuples)


def test_region_checks_classifier_trials_on_a_degraded_pair():
    with pytest.raises(ValueError, match="classifier_trials"):
        closed_form_region(BinaryModelParams(0.1, 0.3, 0.2), classifier_trials=0)


def test_region_max_rs_at_zero():
    b = closed_form_region(PARAMS, classifier_trials=2_000)
    best = max(b.corners, key=lambda c: c.rs)
    assert best.rs == pytest.approx(0.0922, abs=5e-5)
    assert best.extras["param"] == 0.0
    assert b.metadata["classifier_warning"] is None
    assert b.metadata["verdict"].relation is Relation.LESS_NOISY_Y_OVER_Z


@settings(deadline=None, max_examples=1000)
@given(p=st.floats(0.0, 0.5), eps=st.floats(0.0, 0.5), share=st.floats(0.0, 1.0),
       beta=st.sampled_from(_beta_grid(1e-3)) | st.floats(0.0, 0.5))
def test_key_rate_of_a_less_noisy_pair_peaks_at_beta_zero(p, eps, share, beta):
    # BEC(q) is less noisy than BSC(eps) iff q <= 4 eps (1 - eps); then
    # I(Xt;Y|U) >= I(Xt;Z|U), so I(U;Y) - I(U;Z) is largest at U = Xt, and
    # the beta grid, which holds 0, needs no search off it.
    params = BinaryModelParams(p, share * 4.0 * eps * (1.0 - eps), eps)
    at_zero, at_beta = _closed_form_rates(params, [0.0, beta])[:, 3]
    assert at_beta <= at_zero + 1e-15


def test_region_noiseless_eavesdropper_degenerates():
    b = closed_form_region(BinaryModelParams(0.1, 0.5, 0.0, beta_step=1e-2),
                        classifier_trials=2_000)
    assert all(c.rs == 0.0 for c in b.corners)
    assert b.metadata["classifier_warning"] is not None


def test_region_grid_only_sweep_matches_closed_form():
    # same formula through two code paths: symmetric-grid sweep of the
    # generic evaluator vs the closed form, compared as regions
    from authcap import SamplerConfig, compare_regions, sweep_region
    params = BinaryModelParams(0.1, 0.5, 0.2, beta_step=1e-3)
    closed = closed_form_region(params, classifier_trials=2_000)
    model = params.model(classifier_trials=2_000)
    swept = sweep_region(model, SamplerConfig(random_samples=0,
                                              beta_grid_step=1e-3, seed=0))
    assert compare_regions(closed, swept) <= 1e-9
    assert compare_regions(swept, closed) <= 1e-9


def test_default_sweep_covers_closed_form_corners():
    from authcap import SamplerConfig, compare_regions, sweep_region
    params = BinaryModelParams(0.1, 0.5, 0.2, beta_step=2e-3)
    closed = closed_form_region(params, classifier_trials=2_000)
    model = params.model(classifier_trials=2_000)
    swept = sweep_region(model, SamplerConfig(random_samples=20_000,
                                              beta_grid_step=2e-3, seed=3))
    assert compare_regions(closed, swept) <= 1e-3


def test_rs_continuity_and_endpoints():
    rs = [closed_form_corner(PARAMS, float(b)).rs for b in np.linspace(0, 0.5, 501)]
    jumps = np.abs(np.diff(rs))
    assert jumps.max() < 5e-3
    end = closed_form_corner(PARAMS, 0.5)
    assert end.rs == 0.0 and end.rj == pytest.approx(0.0, abs=1e-12)


def test_privacy_floor():
    # rl(beta) - (1 - H_b(eps)) = q (1 - H_b(beta*p)) >= 0
    for beta in np.linspace(0, 0.5, 101):
        c = closed_form_corner(PARAMS, float(beta))
        gap = c.rl - (1 - hb(0.2))
        assert gap == pytest.approx(0.5 * (1 - hb(conv(beta, 0.1))), abs=1e-12)
        assert gap >= -1e-12


def test_convolution_bounds_examples():
    lower, mid, upper = convolution_bounds(0.5, 0.1, 0.2)
    assert (lower, mid, upper) == (0.5, 0.5, 0.5)

    lower, mid, upper = convolution_bounds(0.3, 0.1, 0.0)
    assert lower == pytest.approx(mid, abs=1e-15)
    assert mid == pytest.approx(conv(0.3, 0.1), abs=1e-15)

    # recomputed by hand: lam*p = 0.34, lower = 0.14/0.6, mid = 0.34 conv 0.2
    lower, mid, upper = convolution_bounds(0.3, 0.1, 0.2)
    assert lower == pytest.approx(0.14 / 0.6, abs=1e-12)
    assert mid == pytest.approx(0.404, abs=1e-12)
    assert upper == 0.5


def test_convolution_bounds_rejects_half_eps():
    with pytest.raises(ValueError):
        convolution_bounds(0.3, 0.1, 0.5)
    with pytest.raises(ValueError):
        convolution_bounds(0.6, 0.1, 0.2)


def test_convolution_bounds_ordering_random():
    rng = np.random.default_rng(0)
    for _ in range(2_000):
        lam, p = rng.uniform(0, 0.5, size=2)
        eps = rng.uniform(0, 0.49)
        lower, mid, upper = convolution_bounds(lam, p, eps)
        assert lower <= mid + 1e-14
        assert mid <= upper + 1e-14


def test_entropy_convolution_check_edges():
    model = PARAMS.model(classifier_trials=2_000)
    assert entropy_convolution_check(model, Channel.constant(2))
    assert entropy_convolution_check(model, Channel.identity(2))
    assert entropy_convolution_check(model, Channel.bsc(0.25))


def test_entropy_convolution_check_random_sweep():
    model = PARAMS.model(classifier_trials=2_000)
    rng = np.random.default_rng(1)
    for _ in range(1_000):
        u = int(rng.integers(1, 6))
        t = Channel(rng.dirichlet(np.ones(u), size=2))
        assert entropy_convolution_check(model, t)
    for beta in np.linspace(0, 0.5, 100):
        assert entropy_convolution_check(model, Channel.bsc(float(beta)))


def test_entropy_convolution_check_rejects_nonbinary():
    model = AuthModel(
        AuthModel.binary_hsm(0.1, 0.5, 0.2, classifier_trials=500).px,
        Channel(np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])),
        Channel.bec(0.5), Channel.bsc(0.2), classifier_trials=500)
    with pytest.raises(ValueError):
        entropy_convolution_check(model, Channel.identity(3))


SKEWED = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))


@pytest.mark.parametrize("px, ec, ac_z, test, text", [
    ((0.5, 0.5), Channel.bsc(0.1), Channel.bsc(0.2), Channel.identity(3),
     "test channel expects 3 inputs, enrollment alphabet has 2"),
    ((0.4, 0.6), Channel.bsc(0.1), Channel.bsc(0.2), Channel.bsc(0.1),
     "source must be uniform binary"),
    ((0.5, 0.5), SKEWED, Channel.bsc(0.2), Channel.bsc(0.1),
     "enrollment channel must be symmetric"),
    ((0.5, 0.5), Channel.bsc(0.1), SKEWED, Channel.bsc(0.1),
     "eavesdropper channel must be symmetric"),
], ids=["test-on-3-symbols", "skewed-source", "skewed-enrollment", "skewed-eavesdropper"])
def test_entropy_convolution_check_rejects_a_malformed_input(px, ec, ac_z, test, text):
    model = AuthModel(DiscreteDistribution(np.array(px)), ec, Channel.bec(0.5), ac_z,
                      classifier_trials=500)
    with pytest.raises(ValueError, match=text):
        entropy_convolution_check(model, test)


# ---------------------------------------------------------------------------
# The array closed form against the per-beta scalar formula it replaced,
# kept verbatim as ref_closed_form_corner (renamed).
# ---------------------------------------------------------------------------

def ref_closed_form_corner(params, beta):
    bp = convolve(beta, params.p)
    bpe = convolve(bp, params.eps)
    h_bp = binary_entropy(bp)
    rs_raw = binary_entropy(bpe) - (1.0 - params.q) * h_bp - params.q
    rj = params.q + (1.0 - params.q) * h_bp - binary_entropy(beta)
    rl = 1.0 + params.q - params.q * h_bp - binary_entropy(params.eps)
    return max(0.0, rs_raw), max(0.0, rj), rl, rs_raw


def config_params(name):
    blk = json.loads((Path(__file__).parents[1] / "configs" / name).read_text())["binary"]
    return BinaryModelParams(blk["p"], blk["q"], blk["eps"],
                             beta_step=blk.get("beta_step", 1e-3))


@pytest.mark.parametrize("name", ["binary.json", "keyed.json"])
def test_closed_form_region_matches_scalar_formula_exactly(name):
    params = config_params(name)
    region = closed_form_region(params, classifier_trials=2_000)
    assert len(region.corners) > 100
    for c in region.corners:
        beta = c.extras["param"]
        assert type(beta) is float
        assert (c.rs, c.rj, c.rl, c.extras["rs_unclamped"]) == \
            ref_closed_form_corner(params, beta)
        assert c.extras["u_size"] == 2
        assert np.array_equal(c.test_channel.matrix, Channel.bsc(beta).matrix)
    one = closed_form_corner(params, 0.25)
    assert (one.rs, one.rj, one.rl, one.extras["rs_unclamped"]) == \
        ref_closed_form_corner(params, 0.25)
