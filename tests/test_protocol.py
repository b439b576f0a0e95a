import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from authcap import (
    AuthModel,
    Channel,
    Codebook,
    DiscreteDistribution,
    SimConfig,
    SimLimitError,
    authenticate,
    enroll,
    exact_leakage,
    generate_codebook,
    run_simulation,
    wilson_interval,
)
from authcap.infotheory import LN2, _entropy_nats, _mi2_nats
from authcap.protocol import (_MAX_CELLS, ProtocolTables, SimReport, _all_sequences, _blocks,
                              _check_exact, _encoder_hits, _encoder_kernel, _gf64_mul,
                              _hash_indices, _product_law, _sample_through, hash_index)


def hb(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def hsm_model(p=0.1, q=0.5, eps=0.2):
    return AuthModel.binary_hsm(p, q, eps, classifier_trials=500)


def noiseless_model():
    return AuthModel(hsm_model().px, Channel.bsc(0.0), Channel.bsc(0.0),
                     Channel.bsc(0.5), classifier_trials=500)


def hand_codebook(model, test, codewords, bins, m_s, m_j, gamma, hash_a=3, hash_b=5):
    t = ProtocolTables(model, test)
    codewords = np.asarray(codewords)
    key_of = np.array([hash_index(hash_a, hash_b, i, m_s)
                       for i in range(len(codewords))])
    rates = {"r_j": math.log2(m_j), "r_s": math.log2(m_s), "i_xt_u": t.i_xt_u,
             "i_y_u": t.i_y_u, "i_z_u": t.i_z_u, "i_xz": t.i_xz}
    return Codebook(codewords, np.asarray(bins), key_of, hash_a, hash_b,
                    m_s, m_j, gamma, 0, rates, t)


# ---------------------------------------------------------------------------
# Brute-force leakage oracle: plain dict accumulation over all sequences,
# with information densities computed from probability products rather than
# the library's per-symbol log tables.
# ---------------------------------------------------------------------------

def brute_force_leakage(codebook, model, test):
    n = codebook.n
    px = model.px.probs
    ec = model.ec.matrix
    acz = model.ac_z.matrix
    tmat = test.matrix
    p_xtz = np.zeros((2, 2))
    p_u = np.zeros(tmat.shape[1])
    for x in range(2):
        for a in range(2):
            for u in range(tmat.shape[1]):
                p_u[u] += px[x] * ec[x, a] * tmat[a, u]
            for z in range(2):
                p_xtz[a, z] += px[x] * ec[x, a] * acz[x, z]

    thr = codebook.rates["i_xt_u"] + codebook.gamma

    def encoder_dist(xt):
        hits = []
        for i, cw in enumerate(codebook.codewords):
            p_cond = math.prod(tmat[xt[t], cw[t]] for t in range(n))
            if p_cond <= 0.0:
                continue
            p_marg = math.prod(p_u[cw[t]] for t in range(n))
            if math.log2(p_cond / p_marg) / n <= thr:
                hits.append(i)
        dist = {}
        if not hits:
            dist[(0, 0)] = 1.0
        else:
            for i in hits:
                key = (int(codebook.key_of[i]), int(codebook.bin_of[i]))
                dist[key] = dist.get(key, 0.0) + 1.0 / len(hits)
        return dist

    def entropy(d):
        return -sum(v * math.log2(v) for v in d.values() if v > 0)

    seqs = list(itertools.product((0, 1), repeat=n))
    p_sjz = {}
    for xt in seqs:
        e = encoder_dist(xt)
        for z in seqs:
            w = math.prod(p_xtz[xt[t], z[t]] for t in range(n))
            for (s, j), pe in e.items():
                k = (s, j, z)
                p_sjz[k] = p_sjz.get(k, 0.0) + w * pe

    def marg(keys, which):
        out = {}
        for k, v in keys.items():
            kk = tuple(k[i] for i in which)
            out[kk] = out.get(kk, 0.0) + v
        return out

    secrecy = (entropy(marg(p_sjz, (0,))) + entropy(marg(p_sjz, (1, 2)))
               - entropy(p_sjz))
    p_jz = marg(p_sjz, (1, 2))
    mu = 0.0
    for j, z in p_jz:
        for s in range(codebook.m_s):
            mu += abs(p_sjz.get((s, j, z), 0.0) - p_jz[(j, z)] / codebook.m_s)

    # privacy: accumulate P(x^n, j, z^n) directly
    p_xjz = {}
    for x in seqs:
        px_seq = math.prod(px[x[t]] for t in range(n))
        for xt in seqs:
            w1 = math.prod(ec[x[t], xt[t]] for t in range(n))
            if w1 == 0.0:
                continue
            e = marg_encoder_j(encoder_dist(xt))
            for z in seqs:
                w2 = math.prod(acz[x[t], z[t]] for t in range(n))
                if w2 == 0.0:
                    continue
                for j, pe in e.items():
                    k = (x, j, z)
                    p_xjz[k] = p_xjz.get(k, 0.0) + px_seq * w1 * w2 * pe
    privacy = (entropy(marg(p_xjz, (0,))) + entropy(marg(p_xjz, (1, 2)))
               - entropy(p_xjz)) / n
    return secrecy, privacy, mu


def marg_encoder_j(dist):
    out = {}
    for (s, j), v in dist.items():
        out[j] = out.get(j, 0.0) + v
    return out


# ---------------------------------------------------------------------------
# Codebook generation
# ---------------------------------------------------------------------------

def _log2_ratio_oracle(cond, marg):
    """log2 cond - log2 marg straight from numpy: nan where a conditioning
    marginal is zero, -inf where cond is 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log2(cond) - np.log2(marg)


def _conditional_oracle(joint, axis):
    """joint / its sum over `axis` (kept), nan where that sum is zero."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return joint / joint.sum(axis=axis, keepdims=True)


def test_tables_match_one_aux_inputs():
    # the simulator's information rates, conditional informations and
    # per-symbol tables are the ones the one-auxiliary evaluator's chain
    # implies: cross-check them against an explicit five-axis joint and
    # against the corner's rate differences
    from authcap import (DiscreteDistribution, conditional_mutual_information, eval_one_aux,
                         mutual_information)
    from authcap.regions import build_joint

    rng = np.random.default_rng(29)
    ternary = AuthModel(DiscreteDistribution(rng.dirichlet(np.ones(2))),
                        Channel(rng.dirichlet(np.ones(3), size=2)),
                        Channel.bsc(0.1), Channel.bsc(0.26))
    for m in (hsm_model(), ternary) * 10:
        u = int(rng.integers(1, m.n_xt + 4))
        test = Channel(rng.dirichlet(np.ones(u), size=m.n_xt))
        t = ProtocolTables(m, test)
        j = build_joint(m, test)
        # axes (U, Xt, X, Y, Z)
        assert t.i_xt_u == pytest.approx(mutual_information(j, [1], [0]), abs=1e-12)
        assert t.i_y_u == pytest.approx(mutual_information(j, [3], [0]), abs=1e-12)
        assert t.i_z_u == pytest.approx(mutual_information(j, [4], [0]), abs=1e-12)
        assert t.i_xz == pytest.approx(mutual_information(j, [2], [4]), abs=1e-12)
        corner = eval_one_aux(m, test)
        assert corner.extras["rs_unclamped"] == pytest.approx(t.i_y_u - t.i_z_u, abs=1e-12)
        assert corner.rj == pytest.approx(max(0.0, t.i_xt_u - t.i_y_u), abs=1e-12)

        # the diagnostic events' thresholds: I(X;U|Z) and I(Xt;U|X)
        assert t.i_x_u_given_z == pytest.approx(
            conditional_mutual_information(j, [2], [0], [4]), abs=1e-12)
        assert t.i_xt_u_given_x == pytest.approx(
            conditional_mutual_information(j, [1], [0], [2]), abs=1e-12)

        # P(y|u), and the B_n and K_n densities log2 P(x|u,z)/P(x|z) and
        # log2 P(xt|u,x)/P(xt|x), where the joint makes them finite
        np.testing.assert_allclose(t.ch_y_u, _conditional_oracle(j.marginal([0, 3]), 1),
                                   rtol=0, atol=1e-12)
        for table, (u_a_c, a_c) in ((t.bn_table, ([0, 2, 4], [2, 4])),
                                    (t.kn_table, ([0, 1, 2], [1, 2]))):
            want = _log2_ratio_oracle(_conditional_oracle(j.marginal(u_a_c), 1),
                                      _conditional_oracle(j.marginal(a_c), 0)[None])
            finite = np.isfinite(want)
            np.testing.assert_allclose(table[finite], want[finite], rtol=0, atol=1e-12)
            assert np.all(table[want == -np.inf] == -np.inf)


def test_codebook_size_formula():
    m = hsm_model()
    cfg = SimConfig(n=8, test_channel=Channel.bsc(0.1), gamma=0.05, seed=0,
                    trials=1)
    book = generate_codebook(m, cfg)
    i_xt_u = 1 - hb(0.1)
    assert book.size == math.ceil(2 ** (8 * (i_xt_u + 0.1)))
    assert book.codewords.shape == (book.size, 8)


def test_rate_defaults_round_to_powers_of_two():
    m = hsm_model()
    cfg = SimConfig(n=10, test_channel=Channel.identity(2), gamma=0.1, seed=0,
                    trials=1)
    book = generate_codebook(m, cfg)
    r_j = book.rates["r_j"]
    r_s = book.rates["r_s"]
    assert book.m_j == 2 ** max(0, round(10 * r_j))
    assert book.m_s == 2 ** max(0, round(10 * r_s))
    # key rate is negative at this operating point, so the key set is trivial
    assert r_s < 0 and book.m_s == 1


def test_bijective_binning():
    m = noiseless_model()
    cfg = SimConfig(n=4, test_channel=Channel.identity(2), gamma=0.5, seed=1,
                    trials=1, bijective_bins=True)
    book = generate_codebook(m, cfg)
    assert book.m_j == book.size
    assert np.array_equal(book.bin_of, np.arange(book.size))
    # each bin holds exactly one codeword
    assert all(book.bin_members(j).size == 1 for j in range(book.m_j))


def test_uniform_bin_expected_occupancy():
    m = hsm_model()
    cfg = SimConfig(n=6, test_channel=Channel.bsc(0.1), gamma=0.1, seed=2,
                    trials=1)
    book = generate_codebook(m, cfg)
    counts = np.bincount(book.bin_of, minlength=book.m_j)
    assert counts.sum() == book.size
    assert abs(counts.mean() - book.size / book.m_j) <= 1e-12


def test_codebook_cap():
    m = hsm_model()
    cfg = SimConfig(n=10, test_channel=Channel.identity(2), gamma=0.1, seed=0,
                    trials=1, max_codebook_size=100)
    with pytest.raises(SimLimitError):
        generate_codebook(m, cfg)


def test_simulator_caps_reject_before_allocating(monkeypatch):
    # each size is just above its cap; nothing of that size is allocated
    m = hsm_model()
    with pytest.raises(ValueError, match="max_codebook_size") as err:
        SimConfig(n=4, test_channel=Channel.bsc(0.1), max_codebook_size=0)
    assert not isinstance(err.value, SimLimitError)
    SimConfig(n=32, test_channel=Channel.bsc(0.1), trials=_MAX_CELLS // 32)
    with pytest.raises(SimLimitError, match="trials x n"):
        SimConfig(n=32, test_channel=Channel.bsc(0.1), trials=_MAX_CELLS // 32 + 1)

    # key and bin counts 2^7 against max_codebook_size 2^6
    for ro, what in (((0.5, 7 / 8), "m_s"), ((7 / 8, 0.25), "m_j")):
        with pytest.raises(SimLimitError, match=what):
            generate_codebook(m, SimConfig(n=8, test_channel=Channel.bsc(0.1), trials=1,
                                           rate_overrides=ro, max_codebook_size=64))
    # a codebook of just over _MAX_CELLS / n codewords, under max_codebook_size
    n, i_xt_u = 33, ProtocolTables(m, Channel.bsc(0.1)).i_xt_u
    gamma = (math.log2(_MAX_CELLS // n) + 0.01 - n * i_xt_u) / (2 * n)
    with pytest.raises(SimLimitError, match="codebook size"):
        generate_codebook(m, SimConfig(n=n, test_channel=Channel.bsc(0.1), gamma=gamma,
                                       trials=1, max_codebook_size=1 << 40))

    # exact leakage: 2^13 x 2^13 and 2^10 x 2^16 encoder laws (2^26 cells)
    monkeypatch.setattr("authcap.protocol._sample_through", pytest.fail)
    for n, ro in ((13, (0.75, 0.25)), (10, (1.0, 0.6))):
        cfg = SimConfig(n=n, test_channel=Channel.bsc(0.1), gamma=0.1, trials=10,
                        rate_overrides=ro, exact_leakage_limit=13)
        with pytest.raises(SimLimitError, match="exact leakage"):
            exact_leakage(generate_codebook(m, cfg), m, cfg)
        with pytest.raises(SimLimitError, match="exact leakage"):
            run_simulation(m, cfg)     # before any trial is sampled


def test_simulator_rejects_non_finite_settings():
    # NaN passes `gamma <= 0`; a non-finite override reached math.ceil or
    # the 2^r_j bin count before SimConfig checked either
    for kw in ({"gamma": math.nan}, {"gamma": math.inf}, {"gamma": -math.inf},
               {"rate_overrides": (math.nan, 0.0)}, {"rate_overrides": (0.5, math.inf)},
               {"rate_overrides": (-math.inf, 0.25)}):
        with pytest.raises(ValueError, match="gamma|rate_overrides") as err:
            SimConfig(n=4, test_channel=Channel.bsc(0.1), **kw)
        assert not isinstance(err.value, SimLimitError)
    SimConfig(n=4, test_channel=Channel.bsc(0.1), gamma=0.05, rate_overrides=(0.5, 0.0))


def test_codebook_deterministic():
    m = hsm_model()
    cfg = SimConfig(n=6, test_channel=Channel.bsc(0.1), gamma=0.1, seed=7,
                    trials=1)
    a = generate_codebook(m, cfg)
    b = generate_codebook(m, cfg)
    assert np.array_equal(a.codewords, b.codewords)
    assert np.array_equal(a.bin_of, b.bin_of)
    assert (a.hash_a, a.hash_b) == (b.hash_a, b.hash_b)


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def test_hash_range_and_determinism():
    for i in range(50):
        v = hash_index(0x9E3779B97F4A7C15, 0x12345, i, 16)
        assert 0 <= v < 16
        assert v == hash_index(0x9E3779B97F4A7C15, 0x12345, i, 16)
    assert hash_index(12345, 999, 7, 1) == 0


def test_hash_two_universal_bound():
    rng = np.random.default_rng(3)
    n_idx, m_s, draws = 64, 8, 400
    pair_count = n_idx * (n_idx - 1) // 2
    fractions = []
    for _ in range(draws):
        a = 0
        while a == 0:
            a = int(rng.integers(1, 1 << 63))
        b = int(rng.integers(0, 1 << 63))
        keys = [hash_index(a, b, i, m_s) for i in range(n_idx)]
        collisions = sum(1 for i in range(n_idx) for k in range(i + 1, n_idx)
                         if keys[i] == keys[k])
        fractions.append(collisions / pair_count)
    mean = float(np.mean(fractions))
    sigma = float(np.std(fractions)) / math.sqrt(draws)
    assert mean <= 1.0 / m_s + 3.0 * sigma + 1e-12


def test_hash_indices_match_scalar_gf64_mul():
    # the vectorised hash against the scalar carry-less product, over all 64
    # bits (m_s = 2^64) and truncated, on 2^16 indices per random (a, b)
    rng = np.random.default_rng(21)
    count = 1 << 16
    for _ in range(4):
        a, b = ((int(hi) << 32) | int(lo) for hi, lo in rng.integers(1, 1 << 32, size=(2, 2)))
        full = np.array([_gf64_mul(a, i) ^ b for i in range(count)], dtype=np.uint64)
        assert np.array_equal(_hash_indices(a, b, count, 1 << 64), full.astype(np.int64))
        for m_s in (1, 8, 1 << 20):
            got = _hash_indices(a, b, count, m_s)
            assert got.dtype == np.int64
            assert np.array_equal(got, (full & np.uint64(m_s - 1)).astype(np.int64))
    assert _hash_indices(3, 5, 0, 8).shape == (0,)
    assert _hash_indices(3, 5, 1, 8).tolist() == [hash_index(3, 5, 0, 8)]
    book = generate_codebook(hsm_model(), SimConfig(n=8, test_channel=Channel.bsc(0.1), seed=3,
                                                    trials=1, rate_overrides=(0.5, 0.25)))
    assert book.key_of.tolist() == [hash_index(book.hash_a, book.hash_b, i, book.m_s)
                                    for i in range(book.size)]


# ---------------------------------------------------------------------------
# Enroll / authenticate
# ---------------------------------------------------------------------------

def test_enroll_selects_matching_codeword():
    m = noiseless_model()
    cws = np.array([[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0]])
    book = hand_codebook(m, Channel.identity(2), cws, [0, 1, 2], m_s=4, m_j=3,
                         gamma=0.5)
    j, s, failed = enroll(book, np.array([1, 1, 0, 0]),
                          rng=np.random.default_rng(0))
    assert not failed
    assert j == 1
    assert s == int(book.key_of[1])


def test_enroll_no_qualifier_fallback():
    m = noiseless_model()
    cws = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
    book = hand_codebook(m, Channel.identity(2), cws, [0, 1], m_s=4, m_j=2,
                         gamma=0.5)
    j, s, failed = enroll(book, np.array([1, 0, 1, 0]),
                          rng=np.random.default_rng(0))
    assert failed and (j, s) == (0, 0)


def test_enroll_length_check():
    m = noiseless_model()
    book = hand_codebook(m, Channel.identity(2), np.zeros((1, 4), dtype=int),
                         [0], m_s=2, m_j=1, gamma=0.5)
    with pytest.raises(ValueError):
        enroll(book, np.array([0, 1]))


def test_encoder_failure_rate_identity_leaning():
    m = hsm_model()
    cfg = SimConfig(n=8, test_channel=Channel.bsc(0.05), gamma=0.1, seed=4,
                    trials=10_000)
    rep = run_simulation(m, cfg, monte_carlo_only=True)
    assert rep.encoder_failure_rate < 0.05


def test_authenticate_empty_bin_fails():
    m = noiseless_model()
    cws = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
    book = hand_codebook(m, Channel.identity(2), cws, [0, 0], m_s=4, m_j=2,
                         gamma=0.5)
    s_hat, failed = authenticate(book, np.array([0, 1, 0, 1]), 1)
    assert failed and s_hat == 0
    with pytest.raises(ValueError):
        authenticate(book, np.array([0, 1, 0, 1]), 5)


def test_noiseless_bijective_recovery():
    m = noiseless_model()
    cfg = SimConfig(n=6, test_channel=Channel.identity(2), gamma=0.4, seed=5,
                    trials=2_000, bijective_bins=True, rate_overrides=(1.4, 0.5))
    rep = run_simulation(m, cfg)
    assert rep.m_s == 8
    assert rep.error_prob == 0.0
    assert rep.codeword_error_rate == 0.0


def test_membership_density_forms_agree():
    # per-symbol log-ratio sums match the n-normalised definition computed
    # from full sequence probabilities
    m = hsm_model()
    cfg = SimConfig(n=6, test_channel=Channel.bsc(0.1), gamma=0.1, seed=6,
                    trials=1)
    book = generate_codebook(m, cfg)
    t = book.tables
    rng = np.random.default_rng(7)
    for _ in range(50):
        xt = rng.integers(0, 2, size=6)
        y = rng.integers(0, 3, size=6)
        for cw in book.codewords[rng.integers(0, book.size, size=5)]:
            sum_form = t.tn_table[xt, cw].sum() / 6
            p_cond = math.prod(cfg.test_channel.matrix[xt[i], cw[i]] for i in range(6))
            p_marg = math.prod(t.p_u[cw[i]] for i in range(6))
            if p_cond > 0:
                assert abs(sum_form - math.log2(p_cond / p_marg) / 6) <= 1e-12
            py_cond = math.prod(t.ch_y_u[cw[i], y[i]] for i in range(6))
            py_marg = math.prod(t.p_y[y[i]] for i in range(6))
            if py_cond > 0 and py_marg > 0:
                sum_a = t.an_table[cw, y].sum() / 6
                assert abs(sum_a - math.log2(py_cond / py_marg) / 6) <= 1e-12


# ---------------------------------------------------------------------------
# Exact leakage
# ---------------------------------------------------------------------------

def ref_encoder_hits(codebook, seqs):
    """The encoder test as a gather-sum of per-symbol densities, with
    zero-posterior pairs (-inf) excluded by the finiteness mask."""
    dens = codebook.tables.tn_table[seqs[:, None, :], codebook.codewords[None, :, :]].sum(axis=2)
    rows, cols = np.nonzero(np.isfinite(dens) & (dens <= codebook.encoder_threshold()))
    return rows, cols, np.bincount(rows, minlength=len(seqs))


def ref_exact_leakage(codebook, model):
    """exact_leakage with the pair law P(xt^n, z^n) and P(xt^n | x^n) formed
    as Kronecker powers of the per-symbol laws (4^n-cell tables)."""
    n, t = codebook.n, codebook.tables
    m_s, m_j = codebook.m_s, codebook.m_j
    seqs = _all_sequences(n)
    enc = _encoder_kernel(codebook, seqs)
    p_sjz = enc.T @ _product_law(t.p_xtz, n)
    cube = p_sjz.reshape(m_s, m_j, len(seqs))
    p_jz = cube.sum(axis=0)
    p_z = p_jz.sum(axis=0)
    enc_j = enc.reshape(len(seqs), m_s, m_j).sum(axis=1)
    p_j_given_x = _product_law(model.ec.matrix, n) @ enc_j
    h_j_given_x = float(np.sum(_product_law(model.px.probs, n)
                               * _entropy_nats(p_j_given_x, axis=1)))
    h_j_given_z = _entropy_nats(p_jz) - _entropy_nats(p_z)
    return {
        "secrecy_leakage_bits": _mi2_nats(cube.reshape(m_s, -1)) / LN2,
        "privacy_leakage_rate_bits": max(0.0, n * t.i_xz + (h_j_given_z - h_j_given_x) / LN2) / n,
        "mu_n": float(np.abs(cube - p_jz[None, :, :] / m_s).sum()),
        "table_mass": float(p_sjz.sum()),
        "z_marginal_gap": float(np.max(np.abs(p_z - _product_law(t.p_z, n)))),
    }


def test_encoder_hits_match_gather_sum():
    # test channels with zero cells, where a -inf density must never qualify
    zero_ternary = Channel(np.array([[0.7, 0.3, 0.0], [0.0, 0.2, 0.8]]))
    rng = np.random.default_rng(17)
    checked = 0
    for model, test in ((hsm_model(), Channel.identity(2)), (hsm_model(), zero_ternary),
                        (AuthModel.binary_hsm(0.02, 0.2, 0.3, classifier_trials=500),
                         Channel.identity(2))):
        for n, gamma, seed in ((4, 0.3, 0), (8, 0.1, 1), (10, 0.05, 2)):
            book = generate_codebook(model, SimConfig(n=n, test_channel=test, gamma=gamma,
                                                      seed=seed, trials=1))
            assert not np.isfinite(book.tables.tn_table).all()
            for seqs in (_all_sequences(n), rng.integers(0, 2, size=(300, n))):
                got, ref = _encoder_hits(book, seqs), ref_encoder_hits(book, seqs)
                for g, r in zip(got, ref):
                    assert np.array_equal(g, r)
                checked += int(ref[2].sum())
    assert checked > 0


def test_exact_leakage_matches_kronecker_reference():
    # the asymmetric model has non-symmetric per-symbol laws, so a transposed
    # law in the mode products shows
    workload = AuthModel.binary_hsm(0.02, 0.2, 0.3, classifier_trials=500)
    asymmetric = AuthModel(DiscreteDistribution(np.array([0.3, 0.7])),
                           Channel(np.array([[0.9, 0.1], [0.2, 0.8]])), Channel.bsc(0.1),
                           Channel(np.array([[0.8, 0.2], [0.35, 0.65]])), classifier_trials=500)
    p_xtz = ProtocolTables(asymmetric, Channel.bsc(0.1)).p_xtz
    assert not np.allclose(p_xtz, p_xtz.T)
    for m in (workload, asymmetric):
        for n in range(1, 11):
            for test, ro in ((Channel.identity(2), None), (Channel.bsc(0.1), (0.5, 2.0 / n))):
                cfg = SimConfig(n=n, test_channel=test, gamma=0.05, seed=n, trials=1,
                                rate_overrides=ro)
                book = generate_codebook(m, cfg)
                got, ref = exact_leakage(book, m, cfg), ref_exact_leakage(book, m)
                for key, value in ref.items():
                    assert abs(got[key] - value) <= 1e-12, (n, key)


def test_exact_leakage_at_n13():
    # the 4^13 pair law is never formed: only the 2^13 x m_s m_j encoder law
    m = hsm_model()
    cfg = SimConfig(n=13, test_channel=Channel.bsc(0.45), gamma=0.05, seed=14, trials=1,
                    rate_overrides=(0.25, 0.25), exact_leakage_limit=13)
    book = generate_codebook(m, cfg)
    assert (book.m_s, book.m_j) == (8, 8)
    _check_exact(book, cfg)
    got = exact_leakage(book, m, cfg)
    assert abs(got["table_mass"] - 1.0) <= 1e-10
    assert got["z_marginal_gap"] <= 1e-10
    assert 0.0 <= got["secrecy_leakage_bits"] <= math.log2(book.m_s)
    assert 0.0 <= got["mu_n"] <= 2.0

def test_exact_leakage_against_brute_force():
    m = hsm_model()
    test = Channel.bsc(0.1)
    cfg = SimConfig(n=3, test_channel=test, gamma=0.2, seed=8, trials=1,
                    rate_overrides=(1.0, 1.0 / 3.0))
    book = generate_codebook(m, cfg)
    assert book.m_s == 2
    got = exact_leakage(book, m, cfg)
    secrecy, privacy, mu = brute_force_leakage(book, m, test)
    assert got["secrecy_leakage_bits"] == pytest.approx(secrecy, abs=1e-10)
    assert got["privacy_leakage_rate_bits"] == pytest.approx(privacy, abs=1e-10)
    assert got["mu_n"] == pytest.approx(mu, abs=1e-10)


def test_exact_leakage_trivial_key():
    m = hsm_model()
    cfg = SimConfig(n=5, test_channel=Channel.identity(2), gamma=0.1, seed=9,
                    trials=1)
    book = generate_codebook(m, cfg)
    assert book.m_s == 1
    got = exact_leakage(book, m, cfg)
    assert got["secrecy_leakage_bits"] == 0.0
    assert got["mu_n"] == 0.0


def test_exact_leakage_independent_eavesdropper():
    # eps = 1/2 decouples the observed sequence: I(S;J,Z^n) = I(S;J)
    m = hsm_model(eps=0.5)
    test = Channel.bsc(0.1)
    cfg = SimConfig(n=3, test_channel=test, gamma=0.2, seed=10, trials=1,
                    rate_overrides=(1.0, 1.0 / 3.0))
    book = generate_codebook(m, cfg)
    got = exact_leakage(book, m, cfg)
    secrecy, privacy, mu = brute_force_leakage(book, m, test)
    assert got["secrecy_leakage_bits"] == pytest.approx(secrecy, abs=1e-10)
    assert got["privacy_leakage_rate_bits"] == pytest.approx(privacy, abs=1e-10)
    assert got["mu_n"] == pytest.approx(mu, abs=1e-10)


def test_exact_leakage_invariants():
    m = hsm_model()
    cfg = SimConfig(n=6, test_channel=Channel.bsc(0.1), gamma=0.1, seed=11,
                    trials=1, rate_overrides=(0.8, 1.0 / 3.0))
    book = generate_codebook(m, cfg)
    got = exact_leakage(book, m, cfg)
    assert abs(got["table_mass"] - 1.0) <= 1e-10
    assert got["z_marginal_gap"] <= 1e-10
    assert 0.0 <= got["mu_n"] <= 2.0
    assert got["secrecy_leakage_bits"] <= math.log2(book.m_s) + 1e-9
    assert got["privacy_leakage_rate_bits"] >= 0.0


def test_exact_leakage_limit():
    m = hsm_model()
    cfg = SimConfig(n=11, test_channel=Channel.bsc(0.1), gamma=0.1, seed=12,
                    trials=1, exact_leakage_limit=10)
    book = generate_codebook(m, cfg)
    with pytest.raises(SimLimitError):
        exact_leakage(book, m, cfg)


def test_exact_leakage_peak_memory_is_a_small_multiple_of_its_table():
    # the simulate benchmark's model and test channel at n = 12: a 2^21-cell
    # (16 MB) encoder law.  The tracemalloc peak measured 4.28 tables while the
    # encoder law lived to the end and mu_n took two deviation tables, and
    # 3.27 once it is freed after its two contractions and the deviation is
    # taken in place; the bound sits between the two.
    m = AuthModel.binary_hsm(0.02, 0.2, 0.3, classifier_trials=500)
    cfg = SimConfig(n=12, test_channel=Channel.identity(2), gamma=0.05, seed=0, trials=1,
                    exact_leakage_limit=12)
    book = generate_codebook(m, cfg)
    table_bytes = ((book.m_s * book.m_j) << cfg.n) * 8
    tracemalloc.start()
    try:
        exact_leakage(book, m, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * table_bytes, f"peak {peak / table_bytes:.2f} tables"


def test_product_law_and_encoder_kernel_match_loops():
    # references: per-symbol products over the enumerated sequences, and the
    # per-sequence encoder law; both fast forms must match them bit for bit
    m = hsm_model()
    for n in range(1, 11):
        seqs = _all_sequences(n)
        for law in (m.px.probs, m.ec.matrix, ProtocolTables(m, Channel.bsc(0.1)).p_xtz):
            ref = np.ones((len(seqs),) * law.ndim)
            for t in range(n):
                ref *= (law[seqs[:, t]] if law.ndim == 1
                        else law[seqs[:, t][:, None], seqs[None, :, t]])
            assert np.array_equal(_product_law(law, n), ref)

    generated = generate_codebook(m, SimConfig(n=8, test_channel=Channel.bsc(0.1), gamma=0.1,
                                               seed=3, trials=1, rate_overrides=(0.5, 0.25)))
    # identity test channel: only exact matches qualify, so most rows fall back
    hand = hand_codebook(m, Channel.identity(2), [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 1]],
                         [0, 1, 1], m_s=2, m_j=2, gamma=0.1)
    for book in (generated, hand):
        seqs = _all_sequences(book.n)
        dens = book.tables.tn_table[seqs[:, None, :], book.codewords[None, :, :]].sum(axis=2)
        sj_code = book.key_of * book.m_j + book.bin_of
        ref = np.zeros((len(seqs), book.m_s * book.m_j))
        for i in range(len(seqs)):
            q = np.flatnonzero(np.isfinite(dens[i]) & (dens[i] <= book.encoder_threshold()))
            if q.size == 0:
                ref[i, 0] = 1.0
            else:
                ref[i] = np.bincount(sj_code[q], minlength=ref.shape[1]) / q.size
        assert np.array_equal(_encoder_kernel(book, seqs), ref)


def test_injective_binning_leaks_key():
    # destroying the compression (one codeword per bin) exposes the key:
    # leakage jumps to ~H(S), strictly above uniform binning at modest M_J
    m = hsm_model()
    test = Channel.bsc(0.1)
    uniform_leaks, injective_leaks = [], []
    for seed in range(5):
        cfg_u = SimConfig(n=6, test_channel=test, gamma=0.1, seed=seed, trials=1,
                          rate_overrides=(0.4, 1.0 / 6.0))
        book_u = generate_codebook(m, cfg_u)
        assert book_u.m_s == 2 and book_u.m_j < book_u.size
        uniform_leaks.append(exact_leakage(book_u, m, cfg_u)["secrecy_leakage_bits"])

        cfg_i = SimConfig(n=6, test_channel=test, gamma=0.1, seed=seed, trials=1,
                          rate_overrides=(0.4, 1.0 / 6.0), bijective_bins=True)
        book_i = generate_codebook(m, cfg_i)
        injective_leaks.append(exact_leakage(book_i, m, cfg_i)["secrecy_leakage_bits"])
    assert np.mean(injective_leaks) > np.mean(uniform_leaks) + 0.1


# ---------------------------------------------------------------------------
# Per-trial reference: the encoder, the decoder and the trial loop as they
# were before the simulator ran them over blocks of trials
# ---------------------------------------------------------------------------

def ref_enroll_index(codebook, x_tilde_seq, rng) -> int:
    """Index of the selected codeword, or -1 when none qualifies."""
    t = codebook.tables
    dens = t.tn_table[np.asarray(x_tilde_seq)[None, :], codebook.codewords].sum(axis=1)
    qualify = np.isfinite(dens) & (dens <= codebook.encoder_threshold())
    hits = np.flatnonzero(qualify)
    if hits.size == 0:
        return -1
    if hits.size == 1:
        return int(hits[0])
    return int(rng.choice(hits))


def ref_decode(codebook, y_seq, j):
    """(key, failed, hit_count, decoded_index or -1)."""
    t = codebook.tables
    members = codebook.bin_members(j)
    if members.size == 0:
        return 0, True, 0, -1
    dens = t.an_table[codebook.codewords[members], np.asarray(y_seq)[None, :]].sum(axis=1)
    qualify = dens >= codebook.decoder_threshold()
    hits = np.flatnonzero(qualify)
    if hits.size != 1:
        return 0, True, int(hits.size), -1
    idx = int(members[hits[0]])
    return int(codebook.key_of[idx]), False, 1, idx


def ref_run_simulation(model, config):
    """run_simulation(..., monte_carlo_only=True) with one trial at a time."""
    codebook = generate_codebook(model, config)
    t = codebook.tables
    rng = np.random.default_rng([config.seed, 1])

    n, trials = config.n, config.trials
    xs = _sample_through(rng, model.px.probs[None, :],
                         np.zeros((trials, n), dtype=np.int64))
    xts = _sample_through(rng, model.ec.matrix, xs)
    ys = _sample_through(rng, model.ac_y.matrix, xs)
    zs = _sample_through(rng, model.ac_z.matrix, xs)

    thr_b = n * (t.i_x_u_given_z - config.gamma)
    thr_k = n * (t.i_xt_u_given_x - config.gamma)

    errors = enc_fail = dec_fail = ambig = cw_err = bn_hits = kn_hits = 0
    trace = [] if config.collect_trace else None
    for i in range(trials):
        idx = ref_enroll_index(codebook, xts[i], rng)
        if idx < 0:
            enc_fail += 1
            j, s = 0, 0
        else:
            j, s = int(codebook.bin_of[idx]), int(codebook.key_of[idx])
            cw = codebook.codewords[idx]
            if t.bn_table[cw, xs[i], zs[i]].sum() >= thr_b:
                bn_hits += 1
            if t.kn_table[cw, xts[i], xs[i]].sum() >= thr_k:
                kn_hits += 1
        s_hat, failed, hits, decoded = ref_decode(codebook, ys[i], j)
        if failed:
            dec_fail += 1
            if hits > 1:
                ambig += 1
        if decoded != idx:
            cw_err += 1
        if s_hat != s:
            errors += 1
        if trace is not None:
            trace.append((i, j, s, s_hat, idx < 0, failed, hits > 1, s_hat != s))

    lo, hi = wilson_interval(errors, trials)
    return SimReport(
        n=n, seed=config.seed, gamma=config.gamma, trials=trials,
        codebook_size=codebook.size, m_s=codebook.m_s, m_j=codebook.m_j,
        rates=codebook.rates, bijective_bins=config.bijective_bins,
        error_prob=errors / trials, error_count=errors,
        wilson_low=lo, wilson_high=hi,
        encoder_failure_rate=enc_fail / trials,
        decoder_failure_rate=dec_fail / trials,
        decoder_ambiguity_rate=ambig / trials,
        codeword_error_rate=cw_err / trials,
        bn_rate=bn_hits / trials, kn_rate=kn_hits / trials,
        exact_computed=False, trace=trace,
    )


TERNARY_TEST = Channel(np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]))


def test_batched_simulation_matches_per_trial_reference():
    m = hsm_model()
    configs = [
        # 4096 codewords: 2,000 trials span 20 blocks
        SimConfig(n=10, test_channel=Channel.identity(2), gamma=0.1, seed=0, trials=2_000,
                  collect_trace=True),
        SimConfig(n=8, test_channel=Channel.bsc(0.1), gamma=0.1, seed=1, trials=500,
                  bijective_bins=True, collect_trace=True),
        # 512 bins for 148 codewords: bin 0, the fallback bin, is empty
        SimConfig(n=6, test_channel=Channel.identity(2), gamma=0.1, seed=1, trials=500,
                  rate_overrides=(1.5, 0.5), collect_trace=True),
        SimConfig(n=6, test_channel=TERNARY_TEST, gamma=0.1, seed=2, trials=500,
                  collect_trace=True),
        SimConfig(n=8, test_channel=Channel.bsc(0.05), gamma=0.02, seed=3, trials=500,
                  rate_overrides=(0.5, 0.25), collect_trace=True),
    ]
    totals = {"blocks": 0, "fallback": 0, "empty": 0, "ambiguous": 0}
    for cfg in configs:
        ref = ref_run_simulation(m, cfg)
        got = run_simulation(m, cfg, monte_carlo_only=True)
        assert json.dumps(got.to_json_dict(), sort_keys=True) == \
            json.dumps(ref.to_json_dict(), sort_keys=True)
        assert got.trace_csv_text() == ref.trace_csv_text()

        book = generate_codebook(m, cfg)
        totals["blocks"] = max(totals["blocks"], len(_blocks(cfg.trials, book.size * book.n)))
        totals["fallback"] += sum(row[4] for row in ref.trace)
        totals["empty"] += sum(book.bin_members(row[1]).size == 0 for row in ref.trace)
        totals["ambiguous"] += sum(row[6] for row in ref.trace)
    # every path of the encoder and the decoder was reached
    assert totals["blocks"] >= 2 and min(totals.values()) > 0


def test_enroll_authenticate_match_per_sequence_reference():
    # one call at a time: no, one or several qualifying codewords (a uniform
    # draw), and empty bins, unique and ambiguous decodes
    m = hsm_model()
    rng = np.random.default_rng(31)
    seen = set()
    for test, ro in ((Channel.bsc(0.1), None), (Channel.identity(2), (1.5, 0.5)),
                     (TERNARY_TEST, None)):
        book = generate_codebook(m, SimConfig(n=6, test_channel=test, gamma=0.1, seed=1,
                                              trials=1, rate_overrides=ro))
        for _ in range(200):
            x = rng.integers(0, 2, size=6)
            y = rng.integers(0, m.ac_y.num_outputs, size=6)
            j = int(rng.integers(0, book.m_j))
            seed = int(rng.integers(0, 1 << 16))
            ref_rng = np.random.default_rng(seed)
            idx = ref_enroll_index(book, x, ref_rng)
            want = (0, 0, True) if idx < 0 else (int(book.bin_of[idx]),
                                                 int(book.key_of[idx]), False)
            assert enroll(book, x, rng=np.random.default_rng(seed)) == want
            drew = ref_rng.random() != np.random.default_rng(seed).random()
            seen.add("drawn" if drew else "fallback" if idx < 0 else "single")

            s_hat, failed, hits, _ = ref_decode(book, y, j)
            assert authenticate(book, y, j) == (s_hat, failed)
            seen.add("empty bin" if book.bin_members(j).size == 0 else f"{min(hits, 2)} typical")
    assert seen == {"drawn", "fallback", "single", "empty bin", "0 typical", "1 typical",
                    "2 typical"}


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def test_single_codeword_book_zero_error():
    m = noiseless_model()
    book = hand_codebook(m, Channel.identity(2), np.array([[0, 1, 0, 1]]),
                         [0], m_s=1, m_j=1, gamma=0.5)
    j, s, failed = enroll(book, np.array([0, 1, 0, 1]))
    s_hat, dec_failed = authenticate(book, np.array([0, 1, 0, 1]), j)
    assert s_hat == s == 0


def test_run_simulation_deterministic():
    m = hsm_model()
    cfg = SimConfig(n=6, test_channel=Channel.bsc(0.1), gamma=0.1, seed=13,
                    trials=300)
    a = run_simulation(m, cfg)
    b = run_simulation(m, cfg)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == \
        json.dumps(b.to_json_dict(), sort_keys=True)


def test_run_simulation_limit_guard():
    m = hsm_model()
    cfg = SimConfig(n=12, test_channel=Channel.bsc(0.1), gamma=0.1, seed=0,
                    trials=10, max_codebook_size=1 << 22)
    with pytest.raises(SimLimitError):
        run_simulation(m, cfg)
    rep = run_simulation(m, cfg, monte_carlo_only=True)
    assert not rep.exact_computed


def test_trial_trace():
    m = hsm_model()
    cfg = SimConfig(n=5, test_channel=Channel.bsc(0.1), gamma=0.1, seed=14,
                    trials=50, collect_trace=True)
    rep = run_simulation(m, cfg, monte_carlo_only=True)
    assert len(rep.trace) == 50
    text = rep.trace_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(rep.TRACE_COLUMNS)
    assert len(lines) == 51
    # trace is excluded from the JSON payload
    assert "trace" not in rep.to_json_dict()
    untr = run_simulation(m, SimConfig(n=5, test_channel=Channel.bsc(0.1),
                                       gamma=0.1, seed=14, trials=50),
                          monte_carlo_only=True)
    with pytest.raises(ValueError):
        untr.trace_csv_text()


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
