import bisect
import itertools
import json
import math
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
    region_contains,
    sweep_region,
    two_aux_random_search,
)
from authcap.infotheory import (
    LN2,
    ZERO_EPS,
    InvalidDistributionError,
    MalformedJointError,
    _blocks,
    _channel_stack,
    _clamp_mi,
    _entropy_nats,
    _mi2_nats,
)
from authcap.regions import _COMPARE_CELLS, CardinalityError, _beta_grid, _rates, build_joint


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
        assert abs(one.rs - two.rs) <= 1e-12
        assert abs(one.rj - two.rj) <= 1e-12
        assert abs(one.rl - two.rl) <= 1e-12


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


def test_pareto_filter_matches_quadratic_reference():
    # staircase implementation vs a direct all-pairs scan; coarse rounding
    # forces plenty of exact ties
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


def ref_two_aux_random_search(model, n_pairs, seed=0, max_u=4, max_v=3):
    # the stacked draw order: every |U|, every |V|, then for each (|U|, |V|)
    # in ascending order the U-channels of its pairs and then their
    # V-channels, each pair in index order; a size pair no pair has draws
    # nothing
    rng = np.random.default_rng(seed)
    us = rng.integers(1, max_u + 1, size=n_pairs).tolist()
    vs = rng.integers(1, max_v + 1, size=n_pairs).tolist()
    drawn = [None] * n_pairs
    for u, v in itertools.product(range(1, max_u + 1), range(1, max_v + 1)):
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
    # with 5 pairs and max_u = 5, at most 5 of the 15 size pairs occur; a
    # draw for an empty one would shift every later group's channels
    for model, seed, n_pairs, max_u in ((discrete_degraded_model(), 50, 600, 4),
                                        (degraded_model(), 51, 600, 4),
                                        (hsm_model(), 52, 300, 5),
                                        (ternary_model(), 53, 300, 5),
                                        (discrete_degraded_model(), 55, 5, 5),
                                        (ternary_model(), 56, 5, 5)):
        got = two_aux_random_search(model, n_pairs, seed=seed, max_u=max_u)
        ref = ref_two_aux_random_search(model, n_pairs, seed=seed, max_u=max_u)
        for g, r in zip(got, ref, strict=True):
            assert g.as_tuple() == pytest.approx(r.as_tuple(), abs=1e-14, rel=0)
            assert g.extras["rs_unclamped"] == pytest.approx(r.extras["rs_unclamped"],
                                                             abs=1e-14, rel=0)
            assert without_rs_raw(g.extras) == without_rs_raw(r.extras)
            assert g.test_channel.matrix.tolist() == r.test_channel.matrix.tolist()
        groups = {(c.test_channel.num_outputs, c.extras["v_size"]) for c in got}
        if n_pairs > 100:
            assert groups == set(itertools.product(range(1, max_u + 1), range(1, 4)))
        else:
            assert len(groups) < max_u * 3


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
    for c in b.corners:
        for tol in (0.0, 1e-9, 1e-6):
            # exactly at the tolerance, and one step beyond it
            probes.append((c.rs + tol, c.rj - tol, c.rl - tol))
            probes.append((np.nextafter(c.rs + tol, np.inf), c.rj - tol, c.rl - tol))
            probes.append((c.rs, np.nextafter(c.rj - tol, -np.inf), c.rl))
            probes.append((c.rs, c.rj, np.nextafter(c.rl - tol, -np.inf)))
    outcomes = []
    for tol in (0.0, 1e-9, 1e-6):
        for p in probes:
            got = region_contains(b, p, tol=tol)
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
                        lambda rows, row_cells: [slice(lo, lo + 3) for lo in range(0, rows, 3)])
    assert np.array_equal(_rates(m, tu), whole[0])
    assert np.array_equal(_rates(m, tu, tv), whole[1])
    # at most 2^22 cells a block, and at least one row
    assert _blocks(5, 1 << 21) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert _blocks(2, 1 << 23) == [slice(0, 1), slice(1, 2)]
    assert _blocks(0, 8) == []


@pytest.mark.parametrize("kwargs, error, match", [
    ({"n_pairs": -5}, ValueError, "n_pairs"),
    ({"n_pairs": 10, "max_u": 0}, CardinalityError, "max_u"),
    ({"n_pairs": 10, "max_v": 0}, CardinalityError, "max_v"),
])
def test_two_aux_search_rejects_bad_sizes(kwargs, error, match):
    with pytest.raises(error, match=match):
        two_aux_random_search(degraded_model(), **kwargs)


def test_two_aux_search_zero_pairs():
    assert two_aux_random_search(degraded_model(), 0) == []


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
# private model laws, and with I(X;Z) recomputed through the old entropy
# rather than read from the model), so that the faster code is pinned to the
# same bits.
# ---------------------------------------------------------------------------

def ref_entropy_nats(p, axis=None):
    p = np.asarray(p, dtype=float)
    h = np.add.reduce(-(p * np.log(np.where(p > ZERO_EPS, p, 1.0))), axis=axis)
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


BIT_MODELS = [hsm_model, degraded_model, discrete_degraded_model, ternary_model]


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
            assert _rates(m, tu, tv).tobytes() == ref_rates(m, tu, tv).tobytes()
            for i in range(4):
                pair = tu[i:i + 1], tv[i:i + 1]
                assert _rates(m, *pair).tobytes() == ref_rates(m, *pair).tobytes()
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
                c = eval_two_aux(m, tu, Channel.constant(u, v, index), max_u=u)
                got = np.array([*c.as_tuple(), c.extras["rs_unclamped"]])
                ref = ref_rates(m, tu.matrix[None], one_hot[None])[0]
                assert got.tobytes() == ref.tobytes()
                assert c.extras["v_channel"] == one_hot.tolist()


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
    # the row count
    a, b = _bits(a), _bits(b)
    union = RegionBoundary(a.corners + b.corners, InfoUnit.BITS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("authcap.regions._COMPARE_CELLS", cells)
        for x, y in ((a, b), (b, a), (a, a), (a, union)):
            assert compare_regions(x, y).hex() == ref_compare_regions(x, y).hex()


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
    for bad in ((math.nan,) * 3, (0.1, math.nan, 0.5), (0.1, 0.5, math.inf), (-math.inf, 0.0, 0.0)):
        with pytest.raises(ValueError, match="region b has a non-finite rate"):
            compare_regions(a, _bits([(0.1, 0.5, 0.5), bad]))
        with pytest.raises(ValueError, match="region a has a non-finite rate"):
            compare_regions(_bits([bad, (0.9, 0.0, 0.0)]), b)
        with pytest.raises(ValueError, match="region b has a non-finite rate"):
            compare_regions(empty, _bits([bad]))


def test_compare_regions_memory_does_not_grow_with_both_sizes():
    # one full 300 x 50,000 slack table is 114 MB; the blocked pass peaks at
    # about 6 MB
    rng = np.random.default_rng(0)
    x = np.sort(rng.random(300))
    a = _bits(np.stack([x, x, x], axis=1).tolist())
    b = _bits(rng.random((50_000, 3)).tolist())
    tracemalloc.start()
    try:
        compare_regions(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
