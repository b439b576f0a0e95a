import itertools
import math

import numpy as np
import pytest

from authcap import (
    AuthModel,
    Channel,
    InfoUnit,
    RateCorner,
    RegionBoundary,
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
from authcap.regions import CardinalityError, build_joint


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


def test_sweep_unsupported_class():
    reversed_model = AuthModel.binary_symmetric(0.1, 0.26, 0.1,
                                                classifier_trials=500)
    with pytest.raises(UnsupportedClassError):
        sweep_region(reversed_model, SamplerConfig(random_samples=10, seed=0))


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
    return RateCorner(rs, rj, rl, InfoUnit.BITS)


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
