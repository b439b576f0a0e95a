import bisect
import contextlib
import itertools
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from authcap import (
    AuthModel,
    Channel,
    DiscreteDistribution,
    InfoUnit,
    JointDistribution,
    RateCorner,
    RegionBoundary,
    Relation,
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
from authcap.infotheory import (
    LN2,
    InvalidDistributionError,
    MalformedJointError,
    _blocks,
    _channel_stack,
    _clamp_mi,
    _entropy_nats,
    _mi2_nats,
)
from authcap.regions import (_COMPARE_CELLS, _COMPARE_NEAR, CardinalityError, _beta_grid,
                             _corner_rates, _infos_nats, _pareto_indices, _rate_corner, _rates,
                             _single_rates, _slack_bounds)
from oracles import build_joint, region_contains


# ---------------------------------------------------------------------------
# Brute-force oracle: accumulate the full joint by explicit loops and read
# every information measure off it.  Nothing here shares code with the
# library evaluators.
# ---------------------------------------------------------------------------

def brute_force_one_aux(px, ec, acy, acz, test):
    joint = {}
    nu = test.shape[1]
    for x, a, u, y, z in itertools.product(
            range(len(px)), range(ec.shape[1]), range(nu),
            range(acy.shape[1]), range(acz.shape[1])):
        pr = px[x] * ec[x, a] * test[a, u] * acy[x, y] * acz[x, z]
        if pr > 0:
            joint[(u, a, x, y, z)] = joint.get((u, a, x, y, z), 0.0) + pr

    def h(keep):
        marg = {}
        for k, v in joint.items():
            kk = tuple(k[i] for i in keep)
            marg[kk] = marg.get(kk, 0.0) + v
        return -sum(v * math.log2(v) for v in marg.values() if v > 0)

    def mi(a_axes, b_axes):
        return h(a_axes) + h(b_axes) - h(a_axes + b_axes)

    i_u_y = mi((0,), (3,))
    i_u_z = mi((0,), (4,))
    i_u_xt = mi((0,), (1,))
    i_u_x = mi((0,), (2,))
    i_xz = mi((2,), (4,))
    return (max(0.0, i_u_y - i_u_z), i_u_xt - i_u_y, i_u_x - i_u_y + i_xz, i_xz)


def hsm_model(**kw):
    kw.setdefault("classifier_trials", 2_000)
    return AuthModel.binary_hsm(0.1, 0.5, 0.2, **kw)


def degraded_model(**kw):
    kw.setdefault("classifier_trials", 2_000)
    return AuthModel.binary_symmetric(0.1, 0.1, 0.26, **kw)


# Frozen from brute_force_one_aux on the (0.1, 0.5, 0.2) model with the
# identity test channel; re-derived below in test_eval_one_aux_identity.
IDENTITY_CORNER = (0.09224857569797702, 0.734497796794641, 0.5435741083179971)


def test_eval_one_aux_identity():
    m = hsm_model()
    oracle = brute_force_one_aux(m.px.probs, m.ec.matrix, m.ac_y.matrix,
                                 m.ac_z.matrix, np.eye(2))
    corner = eval_one_aux(m, Channel.identity(2))
    for got, exp_oracle, exp_frozen in zip(corner.as_tuple(), oracle, IDENTITY_CORNER):
        assert got == pytest.approx(exp_oracle, abs=1e-12)
        assert got == pytest.approx(exp_frozen, abs=1e-12)
    assert corner.as_tuple() == pytest.approx((0.0922, 0.7345, 0.5436), abs=5e-5)


def test_eval_one_aux_constant_and_symmetric_half():
    m = hsm_model()
    i_xz = InfoUnit.BITS.from_nats(m.i_xz_nats())
    for test in (Channel.constant(2), Channel.bsc(0.5)):
        corner = eval_one_aux(m, test)
        assert corner.rs == pytest.approx(0.0, abs=1e-12)
        assert corner.rj == pytest.approx(0.0, abs=1e-12)
        assert corner.rl == pytest.approx(i_xz, abs=1e-12)


def test_eval_one_aux_random_against_oracle():
    m = degraded_model()
    rng = np.random.default_rng(10)
    for _ in range(25):
        u = int(rng.integers(1, 6))
        t = rng.dirichlet(np.ones(u), size=2)
        corner = eval_one_aux(m, Channel(t))
        oracle = brute_force_one_aux(m.px.probs, m.ec.matrix, m.ac_y.matrix,
                                     m.ac_z.matrix, t)
        assert corner.as_tuple() == pytest.approx(oracle[:3], abs=1e-10)


def test_eval_one_aux_guards():
    m = hsm_model()
    with pytest.raises(CardinalityError):
        eval_one_aux(m, Channel(np.full((2, 6), 1.0 / 6)))
    reversed_model = AuthModel.binary_symmetric(0.1, 0.26, 0.1,
                                                classifier_trials=500)
    with pytest.raises(UnsupportedClassError):
        eval_one_aux(reversed_model, Channel.identity(2))


def test_rate_corner_invariants_random():
    m = hsm_model()
    i_xz = InfoUnit.BITS.from_nats(m.i_xz_nats())
    rng = np.random.default_rng(11)
    for _ in range(200):
        u = int(rng.integers(1, 6))
        corner = eval_one_aux(m, Channel(rng.dirichlet(np.ones(u), size=2)))
        assert corner.rs >= 0.0
        assert corner.rj >= 0.0
        assert corner.rl >= i_xz - 1e-9


def test_two_aux_constant_v_collapse():
    m = degraded_model()
    rng = np.random.default_rng(12)
    for _ in range(40):
        u = int(rng.integers(1, 5))
        tu = Channel(rng.dirichlet(np.ones(u), size=2))
        one = eval_one_aux(m, tu)
        two = eval_two_aux(m, tu, Channel.constant(u))
        assert (one.rs, one.rj, one.rl) == (two.rs, two.rj, two.rl)


def test_two_aux_constant_u():
    m = degraded_model()
    i_xz = InfoUnit.BITS.from_nats(m.i_xz_nats())
    two = eval_two_aux(m, Channel.constant(2), Channel.constant(1))
    assert two.as_tuple() == pytest.approx((0.0, 0.0, i_xz), abs=1e-12)


def test_two_aux_caps():
    m = degraded_model()
    with pytest.raises(CardinalityError):
        eval_two_aux(m, Channel(np.full((2, 5), 0.2)), Channel.constant(5))
    with pytest.raises(CardinalityError):
        eval_two_aux(m, Channel.identity(2), Channel(np.full((2, 4), 0.25)))


def test_two_aux_dominated_by_one_aux():
    # the degraded pair and the less-noisy-not-degraded pair both admit a
    # single-auxiliary description: sampled two-auxiliary corners never
    # escape the one-auxiliary front
    for model, seed in ((degraded_model(), 13), (hsm_model(), 17)):
        sweep = sweep_region(model, SamplerConfig(random_samples=5_000,
                                                  beta_grid_step=1e-3,
                                                  seed=seed))
        corners = two_aux_random_search(model, 400, seed=seed + 1)
        front = np.array([[c.rs, c.rj, c.rl] for c in sweep.corners])
        for c in corners:
            slack = np.min(np.maximum(
                c.rs - front[:, 0],
                np.maximum(front[:, 1] - c.rj, front[:, 2] - c.rl)))
            assert slack <= 5e-3


def test_two_aux_corner_dominated_by_one_aux_of_its_u():
    # along V - U - Xt - X - (Y, Z) a two-auxiliary corner is the corner of
    # its U with rs lowered and rl raised by I(V;Y) - I(V;Z), which is
    # nonnegative on degraded and less-noisy pairs: so each corner, not just
    # the front, is dominated by eval_one_aux of its own test channel
    for model, seed in ((degraded_model(), 60), (hsm_model(), 61), (ternary_model(), 62)):
        for two in two_aux_random_search(model, 400, seed=seed):
            one = eval_one_aux(model, two.test_channel)
            assert two.rs <= one.rs + 1e-12
            assert two.rj >= one.rj - 1e-12
            assert two.rl >= one.rl - 1e-12

    # on a more-capable-only pair some V gives I(V;Y) < I(V;Z), and its
    # corner has a larger key rate than the constant-V corner of the same U
    model = AuthModel(DiscreteDistribution.uniform(2), Channel.bsc(0.1), Channel.bec(0.7),
                      Channel.bsc(0.2), classifier_trials=2_000)
    assert model.verdict.relation is Relation.MORE_CAPABLE_Y
    rng = np.random.default_rng(2)
    gains = []
    for _ in range(200):
        u, v = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        tu = Channel(rng.dirichlet(np.ones(u), size=2))
        tv = Channel(rng.dirichlet(np.ones(v), size=u))
        gains.append(eval_two_aux(model, tu, tv).extras["rs_unclamped"]
                     - eval_two_aux(model, tu, Channel.constant(u)).extras["rs_unclamped"])
    assert max(gains) > 1e-3


def test_zero_key_region():
    m = hsm_model()
    b = zero_key_region(m)
    assert len(b.corners) == 1
    c = b.corners[0]
    assert (c.rs, c.rj) == (0.0, 0.0)
    assert c.rl == pytest.approx(1 - (-(0.2 * math.log2(0.2) + 0.8 * math.log2(0.8))),
                                 abs=1e-12)
    assert c.rl == pytest.approx(0.2781, abs=5e-5)

    # eavesdropper independent of the source
    indep = AuthModel(m.px, m.ec, m.ac_y, Channel.bsc(0.5), classifier_trials=500)
    assert zero_key_region(indep).corners[0].rl == pytest.approx(0.0, abs=1e-12)

    # noiseless eavesdropper on a uniform binary source
    noiseless = AuthModel(m.px, m.ec, m.ac_y, Channel.bsc(0.0), classifier_trials=500)
    assert zero_key_region(noiseless).corners[0].rl == pytest.approx(1.0, abs=1e-12)


def test_sweep_single_constant_sample():
    m = hsm_model()
    b = sweep_region(m, SamplerConfig(random_samples=1, beta_grid_step=None,
                                      u_sizes=(1,), seed=0))
    assert len(b.corners) == 1
    i_xz = InfoUnit.BITS.from_nats(m.i_xz_nats())
    assert b.corners[0].as_tuple() == pytest.approx((0.0, 0.0, i_xz), abs=1e-12)


def test_sweep_deterministic():
    m = hsm_model()
    cfg = SamplerConfig(random_samples=500, beta_grid_step=1e-2, seed=21)
    a = sweep_region(m, cfg)
    b = sweep_region(m, cfg)
    assert [c.as_tuple() for c in a.corners] == [c.as_tuple() for c in b.corners]


def test_sweep_rejects_oversized_auxiliary():
    # |U| <= |Xt| + 3 = 5 on the binary model; checked before any sampling
    m = hsm_model()
    for sizes in ((9,), (2, 6), (0,)):
        with pytest.raises(CardinalityError):
            sweep_region(m, SamplerConfig(random_samples=10, u_sizes=sizes, seed=0))


def test_sweep_rejects_negative_samples():
    with pytest.raises(ValueError):
        sweep_region(hsm_model(), SamplerConfig(random_samples=-5, seed=0))


def test_sweep_rejects_a_plan_that_samples_nothing():
    # a zero beta step and no random samples; or random samples with no size
    # to draw them at, which were dropped (see also the batched-sweep test)
    m = hsm_model()
    for plan in (dict(random_samples=0, beta_grid_step=0.0),
                 dict(random_samples=2000, beta_grid_step=0.0, u_sizes=()),
                 dict(random_samples=2000, u_sizes=())):
        with pytest.raises(ValueError):
            sweep_region(m, SamplerConfig(seed=0, **plan))


def test_sweep_unsupported_class():
    reversed_model = AuthModel.binary_symmetric(0.1, 0.26, 0.1,
                                                classifier_trials=500)
    with pytest.raises(UnsupportedClassError):
        sweep_region(reversed_model, SamplerConfig(random_samples=10, seed=0))
    with pytest.raises(UnsupportedClassError,
                       match="^two-auxiliary search needs .* classifier found degraded_Y_wrt_Z$"):
        two_aux_random_search(reversed_model, 10)


def test_degraded_coupling_conditional_rate():
    # on a degraded pair, I(U;Y) - I(U;Z) equals I(Y;U|Z) computed from the
    # joint that routes the eavesdropper through the witness channel
    from authcap import conditional_mutual_information, mutual_information

    m = degraded_model()
    witness = m.verdict.witness
    rng = np.random.default_rng(15)
    for _ in range(20):
        u = int(rng.integers(1, 5))
        t = Channel(rng.dirichlet(np.ones(u), size=2))
        j = build_joint(m, t, degraded_witness=witness)
        lhs = (mutual_information(j, [0], [3]) - mutual_information(j, [0], [4]))
        rhs = conditional_mutual_information(j, [3], [0], [4])
        assert abs(lhs - rhs) <= 1e-12


def test_less_noisy_mi_ordering():
    m = hsm_model()
    rng = np.random.default_rng(16)
    for _ in range(100):
        u = int(rng.integers(1, 6))
        corner = eval_one_aux(m, Channel(rng.dirichlet(np.ones(u), size=2)))
        assert corner.extras["rs_unclamped"] >= -1e-9


def _corner(rs, rj, rl):
    return RateCorner(rs, rj, rl)


def test_pareto_filter_basics():
    a = _corner(1.0, 1.0, 1.0)
    b = _corner(0.5, 1.5, 1.5)   # dominated by a
    c = _corner(1.5, 2.0, 1.0)   # trade-off, kept
    kept = pareto_filter([b, a, c])
    assert {k.as_tuple() for k in kept} == {a.as_tuple(), c.as_tuple()}


def test_pareto_filter_idempotent_and_order_independent():
    rng = np.random.default_rng(17)
    pts = [_corner(*rng.random(3)) for _ in range(400)]
    kept = pareto_filter(pts)
    again = pareto_filter(kept)
    assert [c.as_tuple() for c in again] == [c.as_tuple() for c in kept]
    perm = [pts[i] for i in rng.permutation(len(pts))]
    kept_perm = pareto_filter(perm)
    assert sorted(c.as_tuple() for c in kept_perm) == sorted(c.as_tuple() for c in kept)
    # no kept corner dominates another beyond tolerance
    for x in kept:
        for y in kept:
            if x is y:
                continue
            dominates = (x.rs >= y.rs and x.rj <= y.rj and x.rl <= y.rl
                         and (x.rs > y.rs + 1e-9 or x.rj < y.rj - 1e-9
                              or x.rl < y.rl - 1e-9))
            assert not dominates


# Rate triples with a NaN or an infinite rate, which every corner reader rejects.
NON_FINITE = ((math.nan,) * 3, (0.1, math.nan, 0.5), (0.1, 0.5, math.inf), (-math.inf, 0.0, 0.0))


def test_pareto_filter_rejects_a_non_finite_rate():
    # a NaN rj in the staircase's sorted rj list sends bisect astray: the
    # two corners no other corner dominates, (0.4, 0.1, 0.3) and
    # (0.3, 0.05, 0.2), were dropped and the NaN corner kept
    points = [(0.5, 0.2, 0.3), (0.4, 0.1, 0.3), (0.45, math.nan, 0.1), (0.3, 0.05, 0.2),
              (0.2, 0.01, 0.05)]
    for bad in ((0.45, math.nan, 0.1), *NON_FINITE):
        for corners in ([bad], [*points[:2], bad, *points[3:]]):
            with pytest.raises(ValueError, match="the corner list has a non-finite rate"):
                pareto_filter([_corner(*p) for p in corners])
    finite = [_corner(*p) for p in points if not math.isnan(p[1])]
    assert [c.as_tuple() for c in pareto_filter(finite)] == [points[k] for k in (0, 1, 3, 4)]


@pytest.mark.parametrize("chunk_rows", [None, 1, 7])
def test_pareto_filter_matches_quadratic_reference(monkeypatch, chunk_rows):
    # staircase implementation vs a direct all-pairs scan; coarse rounding
    # forces plenty of exact ties, and small chunks put them across chunk edges
    if chunk_rows is not None:
        monkeypatch.setattr("authcap.regions._PARETO_ROWS", chunk_rows)
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(5, 80))
        pts = [_corner(*np.round(rng.random(3), 1)) for _ in range(n)]
        kept = pareto_filter(pts)

        arr = np.array([[c.rs, c.rj, c.rl] for c in pts])
        order = np.lexsort((arr[:, 2], arr[:, 1], -arr[:, 0]))
        ref = []
        for pos, i in enumerate(order):
            rs, rj, rl = arr[i]
            dominated = any(
                arr[k][0] >= rs and arr[k][1] <= rj and arr[k][2] <= rl
                for k in order[:pos])
            if not dominated:
                ref.append(tuple(arr[i]))
        assert [c.as_tuple() for c in kept] == ref


def test_pareto_indices_peak_memory_does_not_grow_with_the_rows():
    # 100,000 rows with many exact ties: the sorted rows are read a chunk at
    # a time, not as one list of 100,000 Python rows (22 MB)
    rates = np.round(np.random.default_rng(29).random((100_000, 3)), 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = _pareto_indices(rates)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert kept and peak < 8 * 2**20


def test_contains_closed_form_corner():
    from authcap import BinaryModelParams, closed_form_corner
    m = hsm_model()
    b = sweep_region(m, SamplerConfig(random_samples=0, beta_grid_step=1e-3,
                                      seed=0))
    corner = closed_form_corner(BinaryModelParams(0.1, 0.5, 0.2), 0.25)
    assert region_contains(b, corner.as_tuple())


def test_region_contains():
    m = hsm_model()
    b = sweep_region(m, SamplerConfig(random_samples=200, beta_grid_step=1e-2,
                                      seed=18))
    i_xz = InfoUnit.BITS.from_nats(m.i_xz_nats())
    assert region_contains(b, (0.0, 0.0, i_xz))
    best = max(b.corners, key=lambda c: c.rs)
    assert not region_contains(b, (best.rs + 1.0, best.rj, best.rl))


def test_compare_regions():
    m = hsm_model()
    b = sweep_region(m, SamplerConfig(random_samples=200, beta_grid_step=1e-2,
                                      seed=19))
    assert compare_regions(b, b) == 0.0
    a3 = zero_key_region(m)
    assert compare_regions(a3, b) <= 1e-9
    nats = RegionBoundary([], InfoUnit.NATS)
    with pytest.raises(ValueError):
        compare_regions(b, nats)


def test_non_positive_beta_grid_step_gives_no_grid():
    m = hsm_model()
    regions = [sweep_region(m, SamplerConfig(random_samples=50, beta_grid_step=step, seed=21))
               for step in (None, 0.0, -0.1)]
    for b in regions:
        assert b.to_csv_text() == regions[0].to_csv_text()
        assert b.metadata["corners_sampled"] == 50
        assert all(isinstance(c.extras["param"], int) for c in b.corners)


def test_region_to_unit_scales_every_rate():
    m = hsm_model()
    bits = sweep_region(m, SamplerConfig(random_samples=200, beta_grid_step=5e-2, seed=22))
    before = bits.to_csv_text()
    assert bits.to_unit(InfoUnit.BITS) is bits
    nats = bits.to_unit(InfoUnit.NATS)
    assert nats.unit is InfoUnit.NATS
    assert nats.metadata == bits.metadata and nats.metadata is not bits.metadata
    for b, n in zip(bits.corners, nats.corners, strict=True):
        assert n.as_tuple() == (b.rs * LN2, b.rj * LN2, b.rl * LN2)
        assert n.extras["rs_unclamped"] == b.extras["rs_unclamped"] * LN2
        assert n.extras["param"] == b.extras["param"] and n.test_channel is b.test_channel
    assert bits.to_csv_text() == before
    back = nats.to_unit(InfoUnit.BITS)
    assert back.unit is InfoUnit.BITS
    for b, r in zip(bits.corners, back.corners):
        assert r.as_tuple() == pytest.approx(b.as_tuple(), rel=1e-15, abs=0.0)
    with pytest.raises(ValueError, match="unit mismatch"):
        compare_regions(nats, bits)


def test_boundary_serialization():
    m = hsm_model()
    b = sweep_region(m, SamplerConfig(random_samples=50, beta_grid_step=5e-2,
                                      seed=20))
    text = b.to_csv_text()
    header = text.splitlines()[1]
    assert header == "rs,rj,rl,unit,param,u_size,test_channel"
    d = b.to_json_dict()
    assert d["unit"] == "bits"
    assert len(d["corners"]) == len(b.corners)
    assert d["metadata"]["model_hash"] == m.content_hash()


# ---------------------------------------------------------------------------
# Batched kernels against the per-sample code they replaced.  The ref_*
# functions are the deleted per-sample kernels and loops, kept verbatim
# (renamed, and reading the same private model laws).
# ---------------------------------------------------------------------------

def discrete_degraded_model():
    # configs/discrete_degraded.json
    return AuthModel(DiscreteDistribution([0.5, 0.5]),
                     Channel([[0.9, 0.1], [0.1, 0.9]]), Channel([[0.9, 0.1], [0.1, 0.9]]),
                     Channel([[0.74, 0.26], [0.26, 0.74]]), classifier_trials=2_000)


def ternary_model():
    # |Xt| = 3 (no beta grid) and a noiseless main channel, so several
    # joints have zero cells
    return AuthModel(DiscreteDistribution([0.3, 0.3, 0.4]),
                     Channel([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]),
                     Channel.identity(3),
                     Channel([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]),
                     classifier_trials=2_000)


def four_row_counts_model():
    # |Xt| = 2, |X| = 3, |Y| = 4, |Z| = 5: U's joints with Xt, Y, Z and X
    # have four row counts, so no two share a shape; Z is Y through w, so
    # the pair is degraded in Y's favour
    ac_y = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.6, 0.2, 0.1], [0.1, 0.1, 0.2, 0.6]])
    w = np.array([[0.6, 0.1, 0.1, 0.1, 0.1], [0.1, 0.6, 0.1, 0.1, 0.1],
                  [0.1, 0.1, 0.6, 0.1, 0.1], [0.1, 0.1, 0.1, 0.1, 0.6]])
    return AuthModel(DiscreteDistribution([0.3, 0.3, 0.4]),
                     Channel([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]), Channel(ac_y),
                     Channel(ac_y @ w), classifier_trials=2_000)


@pytest.mark.xfail(strict=True, reason="known gap: for |Xt| >= 3 no sampled test "
                   "channel comes near U = Xt (ROADMAP item 7, step 1)")
def test_ternary_sweep_reaches_the_u_equals_xt_key_rate():
    # U = Xt gives rs = 0.5516 bits; 20,000 flat-Dirichlet samples reach 0.3498
    m = ternary_model()
    front = sweep_region(m, SamplerConfig(random_samples=20_000, seed=0))
    best = max(c.rs for c in front.corners)
    assert best == pytest.approx(eval_one_aux(m, Channel.identity(3)).rs, abs=1e-12, rel=0)


def ref_one_aux_rates_nats(model, test_matrix):
    p_xa = model._p_xa
    p_xt = p_xa.sum(axis=0)
    p_au = p_xt[:, None] * test_matrix
    p_xu = p_xa @ test_matrix
    i_u_xt, i_u_y, i_u_z, i_u_x = (
        _mi2_nats(p_au), _mi2_nats(model.ac_y.matrix.T @ p_xu),
        _mi2_nats(model.ac_z.matrix.T @ p_xu), _mi2_nats(p_xu))
    rj = _clamp_mi(i_u_xt - i_u_y)
    rl = i_u_x - i_u_y + model.i_xz_nats()
    return i_u_y - i_u_z, rj, max(0.0, rl)


def ref_two_aux_rates_nats(model, tu, tv):
    joint = (tu.T[:, :, None, None, None]
             * model._p_xa.T[None, :, :, None, None]
             * model.ac_y.matrix[None, None, :, :, None]
             * model.ac_z.matrix[None, None, :, None, :])
    arr = tv.T[:, :, None, None, None, None] * joint[None]
    j = JointDistribution(arr)
    V, U, A, X, Y, Z = range(6)

    def h(*keep):
        return _entropy_nats(j.marginal(keep))

    h_v = h(V)
    h_uv = h(V, U)
    i_y_u_given_v = _clamp_mi(h(V, Y) + h_uv - h(V, U, Y) - h_v)
    i_z_u_given_v = _clamp_mi(h(V, Z) + h_uv - h(V, U, Z) - h_v)
    h_y = h(Y)
    h_uy = h(U, Y)
    rj = _clamp_mi(h(A, Y) + h_uy - h(U, A, Y) - h_y)
    h_xv = h(V, X)
    i_x_uy = _clamp_mi(h(X) + h_uy - h(U, X, Y))
    i_x_y_given_v = _clamp_mi(h_xv + h(V, Y) - h(V, X, Y) - h_v)
    i_x_z_given_v = _clamp_mi(h_xv + h(V, Z) - h(V, X, Z) - h_v)
    rs_raw = i_y_u_given_v - i_z_u_given_v
    rl = i_x_uy - i_x_y_given_v + i_x_z_given_v
    return rs_raw, rj, max(0.0, rl)


def ref_rate_corner(rates_nats, test_channel, **extras):
    rs_raw, rj, rl = rates_nats
    conv = InfoUnit.BITS.from_nats
    return RateCorner(conv(max(0.0, rs_raw)), conv(rj), conv(rl),
                      test_channel=test_channel,
                      extras={"rs_unclamped": conv(rs_raw),
                              "u_size": test_channel.num_outputs, **extras})


def ref_pareto_filter(corners):
    if not corners:
        return []
    pts = np.array([[c.rs, c.rj, c.rl] for c in corners], dtype=float)
    order = np.lexsort((pts[:, 2], pts[:, 1], -pts[:, 0]))
    kept = []
    stair_rj = []   # strictly increasing
    stair_rl = []   # strictly decreasing
    for i in order:
        rs, rj, rl = pts[i]
        pos = bisect.bisect_right(stair_rj, rj) - 1
        if pos >= 0 and stair_rl[pos] <= rl:
            continue
        kept.append(corners[i])
        j = bisect.bisect_left(stair_rj, rj)
        while j < len(stair_rj) and stair_rl[j] >= rl:
            stair_rj.pop(j)
            stair_rl.pop(j)
        stair_rj.insert(j, rj)
        stair_rl.insert(j, rl)
    return kept


def ref_sweep_region(model, config):
    sizes = config.sizes_for(model.n_xt)

    def corner(matrix, param):
        return ref_rate_corner(ref_one_aux_rates_nats(model, matrix),
                               Channel(matrix), param=param)

    corners = []
    if model.n_xt == 2 and config.beta_grid_step:
        corners = [corner(np.array([[1.0 - b, b], [b, 1.0 - b]]), float(b))
                   for b in _beta_grid(config.beta_grid_step)]

    rng = np.random.default_rng(config.seed)
    if config.random_samples and sizes:
        per, rem = divmod(config.random_samples, len(sizes))
        counter = 0
        for si, u in enumerate(sizes):
            for _ in range(per + (1 if si < rem else 0)):
                corners.append(corner(rng.dirichlet(np.ones(u), size=model.n_xt), counter))
                counter += 1

    filtered = ref_pareto_filter(corners)
    meta = {"model_hash": model.content_hash(), "seed": config.seed,
            "sampler": {"random_samples": config.random_samples,
                        "beta_grid_step": config.beta_grid_step,
                        "u_sizes": list(sizes)},
            "verdict": model.verdict,
            "corners_sampled": len(corners)}
    return RegionBoundary(filtered, InfoUnit.BITS, metadata=meta)


def ref_two_aux_random_search(model, n_pairs, seed=0):
    # the stacked draw order: every |U| in [1, 4], every |V| in [1, 3], then
    # for each (|U|, |V|) in ascending order the U-channels of its pairs and
    # then their V-channels, each pair in index order; a size pair no pair
    # has draws nothing
    rng = np.random.default_rng(seed)
    us = rng.integers(1, 5, size=n_pairs).tolist()
    vs = rng.integers(1, 4, size=n_pairs).tolist()
    drawn = [None] * n_pairs
    for u, v in itertools.product(range(1, 5), range(1, 4)):
        members = [idx for idx in range(n_pairs) if (us[idx], vs[idx]) == (u, v)]
        if not members:
            continue
        tus = rng.dirichlet(np.ones(u), size=(len(members), model.n_xt))
        tvs = rng.dirichlet(np.ones(v), size=(len(members), u))
        for idx, tu, tv in zip(members, tus, tvs):
            drawn[idx] = tu, tv
    return [ref_rate_corner(ref_two_aux_rates_nats(model, tu, tv), Channel(tu),
                            param=idx, v_size=tv.shape[1])
            for idx, (tu, tv) in enumerate(drawn)]


@pytest.mark.parametrize("model_fn", [hsm_model, discrete_degraded_model, ternary_model])
def test_batched_sweep_matches_per_sample_reference(model_fn):
    m = model_fn()
    n_sizes = m.n_xt + 3
    plans = [
        dict(random_samples=600, beta_grid_step=1e-2),                # beta grid on
        dict(random_samples=600, beta_grid_step=None),                # beta grid off
        dict(random_samples=301, beta_grid_step=5e-2, u_sizes=(2, 4)),
        dict(random_samples=2 * n_sizes + 3, beta_grid_step=1e-1),    # rem = 3
        dict(random_samples=n_sizes - 2, beta_grid_step=None),        # some sizes draw none
        dict(random_samples=0, beta_grid_step=1e-2),
        dict(random_samples=0, beta_grid_step=None),
    ]
    for k, plan in enumerate(plans):
        cfg = SamplerConfig(seed=30 + k, **plan)
        if not (cfg.random_samples or (m.n_xt == 2 and cfg.beta_grid_step)):
            # a plan that samples nothing is refused, not made an empty region
            with pytest.raises(ValueError, match="samples nothing"):
                sweep_region(m, cfg)
            continue
        got, ref = sweep_region(m, cfg), ref_sweep_region(m, cfg)
        assert got.to_csv_text() == ref.to_csv_text()
        assert json.dumps(got.to_json_dict(), sort_keys=True) == \
            json.dumps(ref.to_json_dict(), sort_keys=True)
        assert got.metadata["corners_sampled"] == ref.metadata["corners_sampled"]


def test_batched_two_aux_search_matches_per_pair_reference():
    def without_rs_raw(extras):
        return {k: v for k, v in extras.items() if k != "rs_unclamped"}

    # the oracle sums the six-axis joint, the library pairwise informations
    # along the chain, so rates agree to rounding (zero-cell models too); the
    # sampled channels and every other field are identical
    # with 5 pairs at most 5 of the 12 size pairs occur; a draw for an
    # empty one would shift every later group's channels
    for model, seed, n_pairs in ((discrete_degraded_model(), 50, 600),
                                 (degraded_model(), 51, 600),
                                 (hsm_model(), 52, 300),
                                 (ternary_model(), 53, 300),
                                 (discrete_degraded_model(), 55, 5),
                                 (ternary_model(), 56, 5)):
        got = two_aux_random_search(model, n_pairs, seed=seed)
        ref = ref_two_aux_random_search(model, n_pairs, seed=seed)
        for g, r in zip(got, ref, strict=True):
            assert g.as_tuple() == pytest.approx(r.as_tuple(), abs=1e-14, rel=0)
            assert g.extras["rs_unclamped"] == pytest.approx(r.extras["rs_unclamped"],
                                                             abs=1e-14, rel=0)
            assert without_rs_raw(g.extras) == without_rs_raw(r.extras)
            assert g.test_channel.matrix.tolist() == r.test_channel.matrix.tolist()
        groups = {(c.test_channel.num_outputs, c.extras["v_size"]) for c in got}
        if n_pairs > 100:
            assert groups == set(itertools.product(range(1, 5), range(1, 4)))
        else:
            assert len(groups) < 4 * 3


def test_array_pareto_keeps_reference_corners_in_order():
    # coarse rounding gives many exact ties; shuffled copies put the tied
    # corners in different input orders
    rng = np.random.default_rng(54)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        pts = [_corner(*np.round(rng.random(3), 1)) for _ in range(n)]
        pts += [_corner(*pts[i].as_tuple()) for i in rng.integers(0, n, size=n // 3)]
        pts = [pts[i] for i in rng.permutation(len(pts))]
        got, ref = pareto_filter(pts), ref_pareto_filter(pts)
        assert len(got) == len(ref)
        assert all(g is r for g, r in zip(got, ref))
    assert pareto_filter([]) == []


def test_batched_kernels_reject_malformed_stacks():
    m = hsm_model()
    good = np.array([[0.3, 0.7], [0.6, 0.4]])
    mass_two = np.ones((2, 2))     # rows sum to 2: not a channel
    with pytest.raises(MalformedJointError):
        _rates(m, np.stack([good, good, mass_two]))
    with pytest.raises(MalformedJointError):
        _rates(m, np.stack([good, mass_two]), np.ones((2, 2, 1)))
    for _ in range(2):   # a stack of one raises on every call
        with pytest.raises(MalformedJointError):
            _rates(m, mass_two[None])
        with pytest.raises(MalformedJointError):
            _rates(m, mass_two[None], np.ones((1, 2, 1)))
        with pytest.raises(MalformedJointError):     # U's joints are fine, V's have mass 2
            _rates(m, good[None], mass_two[None])
    with pytest.raises(MalformedJointError):
        _mi2_nats(np.stack([np.full((2, 2), 0.25), np.full((2, 2), 0.5)]))

    for bad, what in ((mass_two, "do not sum"), (np.array([[1.5, -0.5], [0.5, 0.5]]), "negative"),
                      (np.array([[np.nan, 1.0], [0.5, 0.5]]), "non-finite"),
                      (np.array([[0.5, 0.5], [0.5, 0.5 + 1e-11]]), "rows \\[3\\]")):
        with pytest.raises(InvalidDistributionError, match=what):
            _channel_stack(np.stack([good, bad]))
    ok = _channel_stack(np.stack([good, np.array([[1.0, -1e-13], [0.5, 0.5]])]))
    assert not ok.flags.writeable and ok.min() == 0.0


def test_region_contains_matches_loop():
    def ref_region_contains(boundary, point, tol=1e-9):
        rs, rj, rl = point
        for c in boundary.corners:
            if rs <= c.rs + tol and rj >= c.rj - tol and rl >= c.rl - tol:
                return True
        return False

    m = hsm_model()
    b = sweep_region(m, SamplerConfig(random_samples=200, beta_grid_step=5e-2, seed=55))
    rng = np.random.default_rng(56)
    probes = [tuple(rng.random(3)) for _ in range(300)]
    tol = 1e-9
    for c in b.corners:
        # exactly at the tolerance, and one step beyond it
        probes.append((c.rs + tol, c.rj - tol, c.rl - tol))
        probes.append((np.nextafter(c.rs + tol, np.inf), c.rj - tol, c.rl - tol))
        probes.append((c.rs, np.nextafter(c.rj - tol, -np.inf), c.rl))
        probes.append((c.rs, c.rj, np.nextafter(c.rl - tol, -np.inf)))
    outcomes = []
    for p in probes:
        got = region_contains(b, p)
        assert got is ref_region_contains(b, p, tol)
        outcomes.append(got)
    assert any(outcomes) and not all(outcomes)
    assert region_contains(RegionBoundary([], InfoUnit.BITS), (0.0, 0.0, 0.0)) is False


def test_rates_in_blocks_match_one_pass(monkeypatch):
    m = discrete_degraded_model()
    rng = np.random.default_rng(57)
    tu = _channel_stack(rng.dirichlet(np.ones(3), size=(10, 2)))
    tv = _channel_stack(rng.dirichlet(np.ones(2), size=(10, 3)))
    whole = (_rates(m, tu), _rates(m, tu, tv))
    monkeypatch.setattr("authcap.regions._blocks",
                        lambda rows, row_cells, cells: [slice(lo, lo + 3) for lo in range(0, rows, 3)])
    # the last block has one row, which goes through the same array path
    assert _rates(m, tu).tobytes() == whole[0].tobytes()
    assert _rates(m, tu, tv).tobytes() == whole[1].tobytes()
    # at most 2^22 cells a block, and at least one row
    assert _blocks(5, 1 << 21) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert _blocks(2, 1 << 23) == [slice(0, 1), slice(1, 2)]
    assert _blocks(0, 8) == []


def test_rates_memory_does_not_grow_with_the_stack():
    # 20,000 rows score in cache-sized blocks: the kernel's buffers are a
    # block's, not the stack's (scored whole, |U| = 5 peaked at 21 MB)
    m = hsm_model()
    rng = np.random.default_rng(58)
    for u in (1, 5):
        tu = rng.dirichlet(np.ones(u), size=(20_000, 2))
        tv = rng.dirichlet(np.ones(3), size=(20_000, u))
        for stacks in ((tu,), (tu, tv)):
            tracemalloc.start()
            try:
                _rates(m, *stacks)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * 2**20, f"|U| = {u}, {len(stacks)} stacks: {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("kwargs, error, match", [
    ({"n_pairs": -5}, ValueError, "n_pairs"),
])
def test_two_aux_search_rejects_bad_sizes(kwargs, error, match):
    with pytest.raises(error, match=match):
        two_aux_random_search(degraded_model(), **kwargs)


def test_two_aux_search_zero_pairs():
    assert two_aux_random_search(degraded_model(), 0) == []


# Channels on a 3-symbol alphabet against the binary source and enrollment
# alphabets of hsm_model; a test channel is checked where the chain is closed.
@pytest.mark.parametrize("call, match", [
    (lambda m: eval_one_aux(m, Channel.identity(3)),
     "test channel expects 3 inputs, enrollment alphabet has 2"),
    (lambda m: eval_two_aux(m, Channel.identity(3), Channel.constant(3)),
     "test channel expects 3 inputs, enrollment alphabet has 2"),
    (lambda m: eval_two_aux(m, Channel.bsc(0.1), Channel.constant(3)),
     "test_v input alphabet must equal test_u output alphabet"),
    (lambda m: AuthModel(m.px, Channel.identity(3), m.ac_y, m.ac_z),
     "ec expects 3 inputs, source has 2"),
    (lambda m: AuthModel(m.px, m.ec, Channel.identity(3), m.ac_z),
     "ac_y expects 3 inputs, source has 2"),
    (lambda m: AuthModel(m.px, m.ec, m.ac_y, Channel.identity(3)),
     "ac_z expects 3 inputs, source has 2"),
], ids=["one-aux-test", "two-aux-test-u", "two-aux-test-v", "ec", "ac_y", "ac_z"])
def test_a_channel_on_the_wrong_alphabet_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call(hsm_model())


def test_auth_model_verdict_is_computed_not_passed():
    args = (DiscreteDistribution.uniform(2), Channel.bsc(0.1), Channel.bsc(0.1),
            Channel.bsc(0.26))
    with pytest.raises(TypeError):
        AuthModel(*args, verdict=None)
    with pytest.raises(ValueError, match="classifier_trials"):
        AuthModel(*args, classifier_trials=0)
    assert AuthModel(*args, classifier_trials=500).verdict.relation is Relation.DEGRADED_Z_WRT_Y


# ---------------------------------------------------------------------------
# The rate kernel, its entropy sum and compare_regions as they were before
# V's unused joints were dropped, the entropy sum was negated once and a's
# dominated corners were skipped, kept verbatim (renamed, reading the same
# private model laws, with the entropy's mask dropping exact zeros only,
# as the library's does, and with I(X;Z) recomputed through the old entropy
# rather than read from the model), so that the faster code is pinned to the
# same bits.
# ---------------------------------------------------------------------------

def ref_entropy_nats(p, axis=None):
    p = np.asarray(p, dtype=float)
    h = np.add.reduce(-(p * np.log(np.where(p > 0.0, p, 1.0))), axis=axis)
    return float(h) if axis is None else h


def ref_mi2_nats(j):
    return _clamp_mi(ref_entropy_nats(j.sum(axis=-1), axis=-1)
                     + ref_entropy_nats(j.sum(axis=-2), axis=-1)
                     - ref_entropy_nats(j, axis=(-2, -1)))


def ref_chain_laws(model, tests):
    p_xa = model._p_xa
    p_xt = p_xa.sum(axis=0)
    p_au = p_xt[:, None] * tests
    p_xu = p_xa @ tests
    return (p_xa, p_xt, p_au, p_au.sum(axis=1), p_xu,
            model.ac_y.matrix.T @ p_xu, model.ac_z.matrix.T @ p_xu)


def ref_one_aux_infos_nats(laws):
    _, _, p_au, _, p_xu, p_yu, p_zu = laws
    joints = (p_au, p_yu, p_zu, p_xu)
    infos = [None] * len(joints)
    for rows in {j.shape[1] for j in joints}:
        which = [k for k, j in enumerate(joints) if j.shape[1] == rows]
        for k, mi in zip(which, ref_mi2_nats(np.array([joints[k] for k in which]))):
            infos[k] = mi
    return tuple(infos)


def ref_rates_nats(model, tu, tv=None):
    i_xz = ref_mi2_nats(model.px.probs[:, None] * model.ac_z.matrix)
    i_u_xt, i_u_y, i_u_z, i_u_x = ref_one_aux_infos_nats(ref_chain_laws(model, tu))
    rs_raw = i_u_y - i_u_z
    rj = _clamp_mi(i_u_xt - i_u_y)
    rl = i_u_x - i_u_y + i_xz
    if tv is not None:
        _, i_v_y, i_v_z, _ = ref_one_aux_infos_nats(ref_chain_laws(model, tu @ tv))
        d = i_v_y - i_v_z
        rs_raw, rl = rs_raw - d, rl + d
    return rs_raw, rj, np.where(rl > 0.0, rl, 0.0)


def ref_rates(model, tu, tv=None):
    out = np.empty((len(tu), 4))
    rs_raw, rj, rl = ref_rates_nats(model, tu, tv)
    out[:] = np.array([np.where(rs_raw > 0.0, rs_raw, 0.0), rj, rl, rs_raw]).T
    return InfoUnit.BITS.from_nats(out)


def ref_compare_regions(a, b):
    if a.unit != b.unit:
        raise ValueError(f"unit mismatch: {a.unit.value} vs {b.unit.value}")
    if not a.corners:
        return 0.0
    if not b.corners:
        return float("inf")
    pa = np.array([c.as_tuple() for c in a.corners], dtype=float).reshape(-1, 3)
    pb = np.array([c.as_tuple() for c in b.corners], dtype=float).reshape(-1, 3)
    worst = -np.inf
    for lo in range(0, len(pa), 4096):
        chunk = pa[lo:lo + 4096]
        slack = np.maximum(
            chunk[:, None, 0] - pb[None, :, 0],
            np.maximum(pb[None, :, 1] - chunk[:, None, 1],
                       pb[None, :, 2] - chunk[:, None, 2]))
        worst = max(worst, float(slack.min(axis=1).max()))
    return max(0.0, worst)


BIT_MODELS = [hsm_model, degraded_model, discrete_degraded_model, ternary_model,
              four_row_counts_model]


def _channels_with_one_hot_rows(rng, n, inputs, outputs):
    """n random channels; every third is one-hot, so joints get exact zeros."""
    m = rng.dirichlet(np.ones(outputs), size=(n, inputs))
    m[::3] = np.eye(outputs)[rng.integers(0, outputs, size=(len(m[::3]), inputs))]
    return _channel_stack(m)


@pytest.mark.parametrize("model_fn", BIT_MODELS)
def test_rates_match_four_joint_kernel_bit_for_bit(model_fn):
    m = model_fn()
    rng = np.random.default_rng(61)
    for u in range(1, m.n_xt + 4):
        tu = _channels_with_one_hot_rows(rng, 2_000, m.n_xt, u)
        assert _rates(m, tu).tobytes() == ref_rates(m, tu).tobytes()
        for i in range(4):
            one = tu[i:i + 1]
            assert _rates(m, one).tobytes() == ref_rates(m, one).tobytes()
        for v in (1, 2, 3):
            tv = _channels_with_one_hot_rows(rng, 2_000, u, v)
            # a constant V (v = 1) gives U's one-auxiliary rows
            ref = ref_rates(m, tu, None if v == 1 else tv)
            assert _rates(m, tu, tv).tobytes() == ref.tobytes()
            for i in range(4):
                pair = tu[i:i + 1], tv[i:i + 1]
                ref = ref_rates(m, pair[0], None if v == 1 else pair[1])
                assert _rates(m, *pair).tobytes() == ref.tobytes()
    assert np.asarray(m.i_xz_nats()).tobytes() == np.asarray(
        ref_mi2_nats(m.px.probs[:, None] * m.ac_z.matrix)).tobytes()


@pytest.mark.parametrize("model_fn", BIT_MODELS)
def test_eval_two_aux_constant_v_matches_four_joint_kernel_bit_for_bit(model_fn):
    m = model_fn()
    rng = np.random.default_rng(62)
    for u in range(1, m.n_xt + 4):
        for matrix in _channels_with_one_hot_rows(rng, 6, m.n_xt, u):
            tu = Channel(matrix)
            for v, index in ((1, 0), (2, 1), (3, 0), (3, 2)):
                one_hot = np.zeros((u, v))
                one_hot[:, index] = 1.0
                c = eval_two_aux(m, tu, Channel(one_hot), max_u=u)
                got = np.array([*c.as_tuple(), c.extras["rs_unclamped"]])
                ref = ref_rates(m, tu.matrix[None], None if v == 1 else one_hot[None])[0]
                assert got.tobytes() == ref.tobytes()
                assert c.extras["v_channel"] == one_hot.tolist()


def _joint_stack(rng, b, r, c, zeros):
    """b random joints over r x c cells with about a `zeros` share of exact
    zero cells (a row left all zero keeps its first cell)."""
    j = rng.dirichlet(np.ones(r * c), size=b)
    j[rng.random(j.shape) < zeros] = 0.0
    j[:, 0] += j.sum(axis=1) == 0.0
    return (j / j.sum(axis=1, keepdims=True)).reshape(b, r, c)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 4), st.integers(1, 300), st.integers(1, 20),
       st.lists(st.integers(1, 20), min_size=4, max_size=4), st.sampled_from([0.0, 0.3, 0.8]),
       st.integers(0, 2**32 - 1))
@example(s=3, b=5, c=1, rows=[8, 20, 8, 1], zeros=0.3, seed=0)      # c = 1, r >= 8
@example(s=4, b=2, c=20, rows=[7, 20, 1, 7], zeros=0.3, seed=1)     # r * c above 128
@example(s=2, b=1, c=3, rows=[2, 9, 1, 1], zeros=0.0, seed=2)       # 6 and 27 cells
def test_infos_nats_matches_mi2_nats_per_row_count_group(s, b, c, rows, zeros, seed):
    # the stack-innermost kernel against the stack-major reduce it replaced,
    # bit for bit: r * c spans numpy's < 8, 8-128 and halving orders
    rng = np.random.default_rng(seed)
    rows = rows[:s]
    joints = [_joint_stack(rng, b, r, c, zeros) for r in rows]
    got = _infos_nats(*joints)
    assert got.shape == (s, b)
    for r in set(rows):
        which = [k for k in range(s) if rows[k] == r]
        want = _mi2_nats(np.array([joints[k] for k in which]))
        assert got[which].view(np.int64).tolist() == want.view(np.int64).tolist()


def _corner_bytes(c) -> bytes:
    """A corner's (rs, rj, rl, unclamped rs), as a `_rates` row's bytes."""
    return np.array([*c.as_tuple(), c.extras["rs_unclamped"]]).tobytes()


@pytest.mark.parametrize("model_fn", BIT_MODELS)
def test_eval_one_aux_matches_four_joint_kernel_bit_for_bit(model_fn):
    m = model_fn()
    rng = np.random.default_rng(64)
    for u in range(1, m.n_xt + 4):
        for matrix in _channels_with_one_hot_rows(rng, 12, m.n_xt, u):
            c = eval_one_aux(m, Channel(matrix))
            assert _corner_bytes(c) == ref_rates(m, matrix[None])[0].tobytes()
            assert all(type(r) is float for r in (*c.as_tuple(), c.extras["rs_unclamped"]))
            assert c.extras["u_size"] == u


@pytest.mark.parametrize("model_fn", BIT_MODELS)
def test_eval_two_aux_dirichlet_v_matches_four_joint_kernel_bit_for_bit(model_fn):
    m = model_fn()
    rng = np.random.default_rng(65)
    for u in range(1, m.n_xt + 4):
        for matrix in _channels_with_one_hot_rows(rng, 6, m.n_xt, u):
            for v in (1, 2, 3):
                tv = rng.dirichlet(np.ones(v), size=u)
                c = eval_two_aux(m, Channel(matrix), Channel(tv), max_u=u)
                ref = ref_rates(m, matrix[None], None if v == 1 else Channel(tv).matrix[None])[0]
                assert _corner_bytes(c) == ref.tobytes()
                assert (c.extras["u_size"], c.extras["v_size"]) == (u, v)
                assert c.extras["v_channel"] == Channel(tv).matrix.tolist()


@pytest.mark.parametrize("model_fn", BIT_MODELS)
def test_constant_v_gives_the_one_aux_rates_bit_for_bit(model_fn):
    # I(V;Y) = I(V;Z) = 0 for a V with one symbol: its corners are U's own,
    # for single pairs and stacks, one-hot rows included
    m = model_fn()
    rng = np.random.default_rng(66)
    for u in range(1, m.n_xt + 4):
        tu = _channels_with_one_hot_rows(rng, 300, m.n_xt, u)
        assert _rates(m, tu, np.ones((len(tu), u, 1))).tobytes() == _rates(m, tu).tobytes()
        for matrix in tu[:12]:
            one = eval_one_aux(m, Channel(matrix))
            two = eval_two_aux(m, Channel(matrix), Channel.constant(u), max_u=u)
            assert _hex_record(two)[0] == _hex_record(one)[0]


def test_two_aux_search_constant_v_corners_are_their_u_rows():
    # the |V| = 1 groups of a search give their U's one-auxiliary rows
    m = AuthModel.binary_symmetric(0.1, 0.1, 0.26)
    constant = [c for c in two_aux_random_search(m, 20_000, seed=41) if c.extras["v_size"] == 1]
    assert len(constant) == 6_676
    for u in range(1, 5):
        group = [c for c in constant if c.extras["u_size"] == u]
        rows = _rates(m, np.stack([c.test_channel.matrix for c in group]))
        assert [_corner_bytes(c) for c in group] == [r.tobytes() for r in rows]


def ternary_degraded_model():
    # |X| = |Xt| = |Y| = |Z| = 3 with no noiseless channel, so every joint is
    # dense; Z is Y through a symmetric channel, so the pair is degraded in
    # Y's favour
    ac_y = np.array([[0.7, 0.15, 0.15], [0.15, 0.7, 0.15], [0.15, 0.15, 0.7]])
    w = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    return AuthModel(DiscreteDistribution([0.3, 0.3, 0.4]),
                     Channel([[0.85, 0.1, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]]),
                     Channel(ac_y), Channel(ac_y @ w), classifier_trials=2_000)


HISTORY_MODELS = BIT_MODELS + [ternary_degraded_model]


def _record(c):
    return _corner_bytes(c), [c.extras.get(k) for k in ("u_size", "v_size", "v_channel")]


def _sweep_config(u, seed):
    return SamplerConfig(random_samples=40, beta_grid_step=0.05, u_sizes=(u,), seed=seed)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, len(HISTORY_MODELS) - 1), u=st.integers(1, 4), v=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       sweeps=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 1)), max_size=3))
@example(k=0, u=2, v=2, seed=0, sweeps=[(0, 0), (10, 1)])
def test_call_history_does_not_change_a_bit(k, u, v, seed, sweeps):
    # the same (U, V) pairs, some U repeated and up to six from a seed-0
    # sweep's front, on a fresh model in one call order, on a fresh model in
    # the other with sweeps run before the drawn calls (seed 0 sweeps that
    # front, seed 1 another, so a second sweep replaces the first one's
    # front record), and through the stacked kernel, which reads no front
    # record; |V| = 1 is the constant V
    model_fn = HISTORY_MODELS[k]
    rng = np.random.default_rng(seed)
    m = model_fn()
    front = [c.test_channel.matrix for c in sweep_region(model_fn(), _sweep_config(u, 0)).corners
             if c.test_channel.num_outputs == u][:6]
    tus = _channels_with_one_hot_rows(rng, 6, m.n_xt, u)
    tus = [Channel(t) for t in [*tus, *tus[:3], *front]]
    tvs = [Channel(t) for t in rng.dirichlet(np.ones(v), size=(len(tus), u))]

    def records(model, two_first, sweeps=()):
        out = []
        for i, (tu, tv) in enumerate(zip(tus, tvs)):
            for _, sweep_seed in (s for s in sweeps if s[0] == i):
                sweep_region(model, _sweep_config(u, sweep_seed))
            if two_first:
                two = eval_two_aux(model, tu, tv, max_u=u)
            one = eval_one_aux(model, tu)
            if not two_first:
                two = eval_two_aux(model, tu, tv, max_u=u)
            out += [_record(one), _record(two)]
        return out

    fresh = records(m, two_first=False)
    assert records(model_fn(), two_first=True, sweeps=sweeps) == fresh
    su, sv = (np.stack([c.matrix for c in cs]) for cs in (tus, tvs))
    stacked = zip(_rates(m, su), _rates(m, su, sv))
    assert [r.tobytes() for pair in stacked for r in pair] == [b for b, _ in fresh]


def _hex_record(c):
    return ([r.hex() for r in (*c.as_tuple(), c.extras["rs_unclamped"])],
            [c.extras.get(k) for k in ("u_size", "v_size", "v_channel")])


@settings(max_examples=30, deadline=None)
@given(k=st.integers(0, len(HISTORY_MODELS) - 1), beta_grid=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_front_corners_on_the_sweeping_model_match_a_fresh_model(k, beta_grid, seed):
    # each front corner of a sweep over |U| = 1 ... |Xt| + 3, scored on the
    # model that swept (its front record) and on a fresh model (the kernel):
    # eval_one_aux, then eval_two_aux with a constant V and a Dirichlet V
    model_fn = HISTORY_MODELS[k]
    m, fresh = model_fn(), model_fn()
    config = SamplerConfig(random_samples=120, beta_grid_step=0.01 if beta_grid else 0.0,
                           seed=seed)
    front = sweep_region(m, config).corners
    tests = [c.test_channel for c in front]
    assert {t.num_outputs for t in tests} <= set(config.sizes_for(m.n_xt))
    rng = np.random.default_rng(seed)
    vs = [Channel(rng.dirichlet(np.ones(v), size=t.num_outputs))
          for t, v in zip(tests, rng.integers(1, 4, size=len(tests)).tolist())]

    def records(model):
        out = []
        for tu, tv in zip(tests, vs):
            u = tu.num_outputs
            out.append(_hex_record(eval_one_aux(model, tu)))
            out += [_hex_record(eval_two_aux(model, tu, v, max_u=max(4, u)))
                    for v in (Channel.constant(u), tv)]
        return out

    assert records(m) == records(fresh)
    # on the sweeping model each corner's own rates come back from both
    # single-corner evaluators, bit for bit
    for c in front:
        u = c.test_channel.num_outputs
        own = _hex_record(c)[0]
        assert _hex_record(eval_one_aux(m, c.test_channel))[0] == own
        assert _hex_record(eval_two_aux(m, c.test_channel, Channel.constant(u),
                                        max_u=max(4, u)))[0] == own
    # the sweeping model reads every front channel from its record, and a
    # constant V runs no kernel: no stack of one is scored, where a fresh
    # model scores U once per call
    for model, runs in ((m, 0), (fresh, 2 * len(tests))):
        with _single_kernel_runs() as calls:
            for t in tests:
                eval_one_aux(model, t)
                eval_two_aux(model, t, Channel.constant(t.num_outputs),
                             max_u=max(4, t.num_outputs))
        assert len(calls) == runs
    assert fresh._front_rates is None


@contextlib.contextmanager
def _single_kernel_runs():
    """A list that gets one entry per `_infos_nats` call on a stack of one
    while the block runs: each single channel the kernel scores."""
    calls, kernel = [], _infos_nats

    def counted(*joints):
        if len(joints[0]) == 1:
            calls.append(joints[0].shape)
        return kernel(*joints)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("authcap.regions._infos_nats", counted)
        yield calls


def test_kernel_path_keeps_the_enrollment_alphabet_check():
    # a channel scored by the kernel leaves nothing behind that would let a
    # byte twin of another shape skip `_chain_laws`' alphabet check
    m = hsm_model()   # |Xt| = 2
    wide = Channel([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    eval_one_aux(m, wide)
    twin = wide.matrix.reshape(1, 3, 2)   # the bytes of the scored 2 x 3 channel
    assert twin.tobytes() == wide.matrix.tobytes()
    for _ in range(2):
        with pytest.raises(ValueError, match="enrollment alphabet has 2"):
            _rates(m, twin)


def test_threads_sharing_a_fresh_model_get_its_bits():
    # four threads score the same channels on one model, in different
    # orders; every corner must still be the one a fresh model gives
    rng = np.random.default_rng(74)
    stack = _channel_stack(rng.dirichlet(np.ones(3), size=(300, 2)))
    expected = [r.tobytes() for r in _rates(hsm_model(), stack)]   # the stacked kernel
    tests = [Channel(t) for t in stack]
    shared, results, errors = hsm_model(), {}, []

    def work(k):
        try:
            order = [*range(k, len(tests), 2), *range(len(tests))]
            results[k] = [(i, _corner_bytes(eval_one_aux(shared, tests[i]))) for i in order]
        except Exception as e:   # surfaced by the assertion below
            errors.append(e)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and errors == []
    for k in range(4):
        assert len(results[k]) == len(tests[k::2]) + len(tests)
        assert all(got == expected[i] for i, got in results[k])


def test_front_record_keeps_every_check():
    m = hsm_model()   # |Xt| = 2
    front = sweep_region(m, SamplerConfig(random_samples=200, beta_grid_step=0.0,
                                          u_sizes=(3,), seed=7))
    wide = front.corners[0].test_channel.matrix   # 2 x 3, a front row
    with _single_kernel_runs() as calls:
        eval_one_aux(m, Channel(wide))
    assert m._front_rates.index is not None and calls == []   # read from the record
    twin = wide.reshape(1, 3, 2)   # the bytes of that front row
    assert twin.tobytes() == wide.tobytes()
    for _ in range(2):
        with pytest.raises(ValueError, match="enrollment alphabet has 2"):
            _rates(m, twin)
        with pytest.raises(ValueError, match="enrollment alphabet has 2"):
            _single_rates(m, twin[0])   # the single-corner path skips no check for it


def test_a_model_keeps_only_the_last_sweeps_record():
    # a sweep's record holds its front's matrices and rates (1.0 MB
    # for the front of 20,501 rows); the next sweep drops it before it
    # allocates, so that sweep peaks no higher than the first, and after a
    # 50-sample sweep the model holds under 0.1 MB more than before any sweep
    m = hsm_model()
    sweep_region(hsm_model(), SamplerConfig(random_samples=50, seed=1))   # warm-up
    big = SamplerConfig(random_samples=20_000, beta_grid_step=1e-3, seed=2)
    small = SamplerConfig(random_samples=50, beta_grid_step=0.0, seed=3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep_region(m, big)   # the region goes, the record stays
        held_big, peak_big = (x - before for x in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        sweep_region(m, big)
        peak_again = tracemalloc.get_traced_memory()[1] - before
        small_front = sweep_region(m, small).corners
        held_small = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held_big > 0.9 * 2**20
    assert peak_again < peak_big + held_big / 2
    assert held_small < 0.1 * 2**20
    # the record's matrices are its front's own, not copies or stacks
    assert len(m._front_rates.tests) == len(small_front)
    assert all(t is c.test_channel.matrix for t, c in zip(m._front_rates.tests, small_front))
    # and its (K, 4) rows are the front corners' rates
    assert m._front_rates.rates.tobytes() == b"".join(_corner_bytes(c) for c in small_front)
    # after a 100,000-sample sweep whose region is dropped, the model keeps
    # only its front's record (1.8 MB), not every sampled test channel (5 MB)
    m = degraded_model()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep_region(m, SamplerConfig(random_samples=100_000, beta_grid_step=1e-3, seed=40))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2.5 * 2**20, f"held {held / 2**20:.2f} MB"


def test_front_record_shared_by_threads():
    # for each of three fresh fronts, four threads score its corners on the
    # model that swept it, in different orders, racing to build its index;
    # every corner must be the one the stacked kernel gives on a fresh model
    m = hsm_model()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            tests = [c.test_channel for c in sweep_region(m, SamplerConfig(
                random_samples=600, beta_grid_step=0.0, u_sizes=(3,), seed=seed)).corners]
            stack = np.stack([t.matrix for t in tests])
            expected = [r.tobytes() for r in _rates(hsm_model(), stack)]
            results, errors = {}, []

            def work(k):
                try:
                    order = [*range(k, len(tests), 4), *range(len(tests))]
                    results[k] = [(i, _corner_bytes(eval_one_aux(m, tests[i]))) for i in order]
                except Exception as e:   # surfaced by the assertion below
                    errors.append(e)

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            with _single_kernel_runs() as calls:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
            assert not any(th.is_alive() for th in threads) and errors == []
            for k in range(4):
                assert len(results[k]) == len(tests[k::4]) + len(tests)
                assert all(got == expected[i] for i, got in results[k])
            assert calls == []   # every corner came from the front record
    finally:
        sys.setswitchinterval(interval)
    assert sys.getswitchinterval() == interval


def test_compare_regions_matches_dense_pass_bit_for_bit():
    # coarse rounding gives exact ties and duplicates; shrunk copies of
    # corners (by 0, one ulp or a little) give dominated points, in a and b
    rng = np.random.default_rng(63)

    def corners(n, decimals):
        pts = np.round(rng.random((n, 3)), decimals)
        dup = pts[rng.integers(0, n, size=n // 4)]
        step = rng.choice([0.0, 1e-3, np.finfo(float).eps], size=(len(dup), 3))
        worse = np.nextafter(dup - step * [1, -1, -1], dup + [-1, 1, 1])
        return [_corner(*p) for p in rng.permutation(np.concatenate([pts, dup, worse]))]

    seen_zero = seen_positive = False
    for _ in range(60):
        decimals = int(rng.integers(1, 4))
        a = RegionBoundary(corners(int(rng.integers(1, 400)), decimals), InfoUnit.BITS)
        b = RegionBoundary(corners(int(rng.integers(1, 400)), decimals), InfoUnit.BITS)
        for x, y in ((a, b), (b, a), (a, a), (a, RegionBoundary(a.corners + b.corners,
                                                                InfoUnit.BITS))):
            got, ref = compare_regions(x, y), ref_compare_regions(x, y)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
            seen_zero |= got == 0.0
            seen_positive |= got > 0.0
    assert seen_zero and seen_positive
    # more corners than one 4,096-row chunk of the dense pass
    a = RegionBoundary(corners(5_000, 2), InfoUnit.BITS)
    b = RegionBoundary(corners(50, 2), InfoUnit.BITS)
    assert np.float64(compare_regions(a, b)).tobytes() == \
        np.float64(ref_compare_regions(a, b)).tobytes()
    # more corners in b than one block has cells: one row a block
    a = RegionBoundary(corners(9, 1), InfoUnit.BITS)
    b = RegionBoundary(corners(_COMPARE_CELLS, 2), InfoUnit.BITS)
    for x, y in ((a, b), (b, a)):
        assert compare_regions(x, y).hex() == ref_compare_regions(x, y).hex()


# Few distinct values, both zeros among them, so that drawn regions hold exact
# ties, duplicated corners and signed-zero slacks.
RATES = st.one_of(st.sampled_from([0.0, -0.0, 0.125, 0.5, 1.0]), st.floats(-2.0, 2.0))
CORNERS = st.lists(st.tuples(RATES, RATES, RATES), min_size=1, max_size=40)


def _bits(points):
    return RegionBoundary([_corner(*p) for p in points], InfoUnit.BITS)


@settings(max_examples=300, deadline=None)
@given(a=CORNERS, b=CORNERS, cells=st.integers(1, 64))
@example(a=[(0.0, 0.0, 0.0)], b=[(-0.0, -0.0, -0.0)], cells=1)
@example(a=[(1.0, 0.5, 0.5)] * 7, b=[(1.0, 0.5, 0.5)] * 3, cells=6)
def test_compare_regions_in_blocks_matches_dense_oracle(a, b, cells):
    # a block budget of `cells` gives one row a block once |b| exceeds it,
    # and leaves a last short block when |front of a| is not a multiple of
    # the row count; b moved to one rs makes which 2 x _COMPARE_NEAR of its
    # corners bound a corner's slack say nothing about how close they come
    one_rs = _bits([(b[0][0], rj, rl) for _, rj, rl in b])
    a, b = _bits(a), _bits(b)
    union = RegionBoundary(a.corners + b.corners, InfoUnit.BITS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("authcap.regions._COMPARE_CELLS", cells)
        for x, y in ((a, b), (b, a), (a, a), (a, union), (a, one_rs), (one_rs, a)):
            assert compare_regions(x, y).hex() == ref_compare_regions(x, y).hex()


def _sorted_bounds(a, b):
    """`_slack_bounds` of a's corners against b, as compare_regions takes them."""
    pa, pb = _corner_rates(a.corners, "a"), _corner_rates(b.corners, "b")
    pb = pb[np.argsort(pb[:, 0])]
    return _slack_bounds(pa, *pb.T.copy())


def test_compare_regions_exact_where_the_bound_is_loose_ties_or_rules_out_all():
    rng = np.random.default_rng(67)
    x = np.round(rng.random(40), 2)
    # a's 40-corner front lies below 17 decoys in rs that leave it 4 bits
    # of slack; only b's last corner, outside every window, dominates it
    front = _bits(np.stack([x, x, np.full(40, 0.5)], axis=1).tolist())
    decoys = np.stack([np.linspace(1.5, 1.9, 17), np.full(17, 5.0), rng.random(17)], axis=1)
    behind = _bits([*decoys.tolist(), (2.0, -1.0, -1.0)])
    assert len(behind.corners) > 2 * _COMPARE_NEAR
    assert (_sorted_bounds(front, behind) > 3.0).all()
    assert ref_compare_regions(front, behind) == 0.0
    # the same, plus a corner above all of b: its exact slack, 1 bit, is
    # the result and is met only after every loose row
    above = _bits([*np.stack([x, x, np.full(40, 0.5)], axis=1).tolist(), (3.0, 0.0, 0.0)])
    assert ref_compare_regions(above, behind) == 1.0
    # a loose row first, whose exact slack, 0.25, the next row's tight bound
    # exceeds by one ulp of 2.25
    edge = _bits([*decoys.tolist(), (2.0, 0.75, 0.75)])
    ulp_above = _bits([(0.1, 0.5, 0.5), (np.nextafter(2.25, 3.0), 0.75, 0.75)])
    tight, loose = sorted(_sorted_bounds(ulp_above, edge).tolist())
    assert tight == 0.25 + 2**-51 and loose > 4.0
    assert ref_compare_regions(ulp_above, edge) == 0.25 + 2**-51
    # two front corners with the same exact slack as their bound: the second
    # block's bound equals the running maximum
    tie = _bits([(1.0, 0.5, 0.25), (1.0, 0.25, 0.5)])
    one = _bits([(0.75, 0.5, 0.5)])
    assert _sorted_bounds(tie, one).tolist() == [0.25, 0.25]
    # every corner of b dominates every corner of a, some with zero slacks:
    # every bound is at most 0, so no block is compared
    low = np.round(rng.random((30, 3)) * 0.5, 1) * [1, -1, -1] + [0, 1, 1]
    high = np.round(rng.random((30, 3)) * 0.5, 1) * [1, -1, -1] + [0.5, 0.5, 0.5]
    below, over = _bits(low.tolist()), _bits(high.tolist())
    assert (_sorted_bounds(below, over) <= 0.0).all()
    # b at one rs, far more corners than a window holds
    flat = _bits(np.stack([np.full(60, 0.5), *rng.random((2, 60))], axis=1).tolist())
    scattered = _bits(np.round(rng.random((50, 3)), 1).tolist())
    pairs = ((front, behind), (above, behind), (behind, front), (ulp_above, edge),
             (tie, one), (one, tie),
             (below, over), (over, below), (scattered, flat), (flat, scattered))
    for cells in (1, 2, 3, 5, 16, 40, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("authcap.regions._COMPARE_CELLS", cells)
            for a, b in pairs:
                assert compare_regions(a, b).hex() == ref_compare_regions(a, b).hex()


def test_compare_regions_edge_rules():
    a, b = _bits([(0.9, 0.0, 0.0)]), _bits([(0.1, 0.5, 0.5)])
    assert compare_regions(a, b) == 0.8
    empty = RegionBoundary([], InfoUnit.BITS)
    assert compare_regions(empty, b) == 0.0
    assert compare_regions(a, empty) == math.inf
    with pytest.raises(ValueError, match="unit mismatch"):
        compare_regions(a, RegionBoundary([], InfoUnit.NATS))
    # a NaN slack makes its row's minimum NaN, which max() then drops, so a
    # pair with a non-finite corner would read as contained
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="region b has a non-finite rate"):
            compare_regions(a, _bits([(0.1, 0.5, 0.5), bad]))
        with pytest.raises(ValueError, match="region a has a non-finite rate"):
            compare_regions(_bits([bad, (0.9, 0.0, 0.0)]), b)
        with pytest.raises(ValueError, match="region b has a non-finite rate"):
            compare_regions(empty, _bits([bad]))


def test_compare_regions_memory_does_not_grow_with_both_sizes():
    # one full 300 x 50,000 slack table is 114 MB; the blocked pass peaks at
    # about 6 MB.  Bounding all of a 100,000-row a in one pass would peak
    # near 50 MB; in blocks, a's 100,000 x 3 rate array (2.3 MB) is about
    # half of the 4.6 MB peak
    rng = np.random.default_rng(0)
    x = np.sort(rng.random(300))
    line = _bits(np.stack([x, x, x], axis=1).tolist())
    wide = _bits(rng.random((50_000, 3)).tolist())
    # mostly dominated: each of the 20 corners of `few` dominates all but
    # the first 100 corners of `many`
    low = rng.random((100_000, 3)) * [0.5, -0.5, -0.5] + [0.0, 1.0, 1.0]
    low[:100] = rng.random((100, 3))
    many = _bits(low.tolist())
    few = _bits((rng.random((20, 3)) * [0.5, -0.5, -0.5] + [0.5, 0.5, 0.5]).tolist())
    for a, b in ((line, wide), (many, few)):
        tracemalloc.start()
        try:
            compare_regions(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# Corners built in one batch against the per-row code they replaced
# ---------------------------------------------------------------------------

def ref_front(rates, params, stacks=()):
    # `_front` as it built corners one row at a time: a bisect over the
    # stacks' starts for each kept row's channel, and one `_rate_corner` each
    kept = _pareto_indices(rates)
    starts = list(itertools.accumulate((len(s) for s in stacks), initial=0))
    corners = []
    for i in kept:
        channel = None
        if stacks:
            g = bisect.bisect_right(starts, i) - 1
            channel = Channel._of_checked(stacks[g][i - starts[g]])
        corners.append(_rate_corner(rates[i].tolist(), channel, param=params[i]))
    return corners


def _fields(c):
    """A corner's rates, its extras in key order (floats as hex, with each
    value's type) and its test channel's shape, dtype, bytes and write flag."""
    def value(v):
        return (type(v), v.hex() if type(v) is float else v)

    channel = None
    if c.test_channel is not None:
        m = c.test_channel.matrix
        channel = (m.shape, m.dtype.str, m.tobytes(), m.flags.writeable)
    return ([value(r) for r in c.as_tuple()], [(k, value(v)) for k, v in c.extras.items()],
            channel)


def test_front_builds_the_corners_of_the_per_row_code():
    import authcap.binary as binary_module
    import authcap.gaussian as gaussian_module
    import authcap.regions as regions_module

    fronts = []

    def checked(front):
        def check(rates, params, stacks=()):
            got = front(rates, params, stacks)
            ref = ref_front(rates, params, stacks)
            assert [_fields(c) for c in got] == [_fields(c) for c in ref]
            fronts.append(len(got))
            return got
        return check

    def recorded(rates):
        def record(model, tests, **kw):
            out = rates(model, tests, **kw)
            swept.append((tests, out))
            return out
        return record

    with pytest.MonkeyPatch.context() as mp:
        for module in (binary_module, gaussian_module):
            mp.setattr(module, "_front", checked(module._front))
        # a sweep builds its front's corners itself, from the stacks it
        # hands `_rates` and the rates it gets back
        mp.setattr(regions_module, "_rates", recorded(regions_module._rates))
        for model_fn in BIT_MODELS:
            for step in (1e-2, None):
                model, swept = model_fn(), []
                got = sweep_region(model, SamplerConfig(random_samples=400, beta_grid_step=step,
                                                        seed=71)).corners
                params = (_beta_grid(step) if step and model.n_xt == 2 else []) + [*range(400)]
                ref = ref_front(np.concatenate([r for _, r in swept]), params,
                                [t for t, _ in swept])
                assert [_fields(c) for c in got] == [_fields(c) for c in ref]
                fronts.append(len(got))
        binary_module.closed_form_region(binary_module.BinaryModelParams(0.1, 0.5, 0.2))
        gaussian_module.parametric_region(gaussian_module.GaussianModelParams(7 / 8, 4 / 5, 2 / 3))
    assert len(fronts) == 2 * len(BIT_MODELS) + 2 and min(fronts) > 1


def test_two_aux_search_builds_the_corners_of_the_per_pair_code():
    # the same draws, each group's rates from `_rates`, and one
    # `_rate_corner` per pair as the search built them before
    for model, seed, n_pairs in ((discrete_degraded_model(), 72, 400), (ternary_model(), 73, 200)):
        rng = np.random.default_rng(seed)
        us = rng.integers(1, 5, size=n_pairs)
        vs = rng.integers(1, 4, size=n_pairs)
        ref = [None] * n_pairs
        for u, v in itertools.product(range(1, 5), range(1, 4)):
            members = [idx for idx in range(n_pairs) if (us[idx], vs[idx]) == (u, v)]
            if not members:
                continue
            tu = _channel_stack(rng.dirichlet(np.ones(u), size=(len(members), model.n_xt)))
            tv = _channel_stack(rng.dirichlet(np.ones(v), size=(len(members), u)))
            for idx, test, rates in zip(members, tu, _rates(model, tu, tv).tolist()):
                ref[idx] = _rate_corner(rates, Channel._of_checked(test), param=idx, v_size=v)
        got = two_aux_random_search(model, n_pairs, seed=seed)
        assert [_fields(c) for c in got] == [_fields(c) for c in ref]
