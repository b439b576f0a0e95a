import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from authcap.protocol import (_MAX_CELLS, _TILE_CELLS, ProtocolTables, SimReport,
                              _all_sequences, _blocks, _check_exact, _decode_block,
                              _encoder_hits, _encoder_kernel, _gf64_mul, _hash_indices, _pick,
                              _product_law, _sample_through)
from authcap.regions import _chain_laws, _infos_nats
from oracles import build_joint, hash_index, ref_sample_through


def hb(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def hsm_model(p=0.1, q=0.5, eps=0.2):
    return AuthModel.binary_hsm(p, q, eps, classifier_trials=500)


def noiseless_model():
    return AuthModel(hsm_model().px, Channel.bsc(0.0), Channel.bsc(0.0),
                     Channel.bsc(0.5), classifier_trials=500)


def _bin_members(book, j):
    """Indices of the codewords in bin j, from the codebook's bin index."""
    order, edges = book._bin_index
    return order[edges[j]:edges[j + 1]]


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

        # the four density tables log2 P(b|u)/P(b), and the B_n and K_n
        # densities log2 P(x|u,z)/P(x|z) and log2 P(xt|u,x)/P(xt|x) as their
        # differences, where the joint makes them finite
        for table, b in ((t.tn_table.T, 1), (t.x_table, 2), (t.an_table, 3), (t.z_table, 4)):
            want = _log2_ratio_oracle(_conditional_oracle(j.marginal([0, b]), 1),
                                      j.marginal([b])[None])
            finite = np.isfinite(want)
            np.testing.assert_allclose(table[finite], want[finite], rtol=0, atol=1e-12)
            assert np.all(table[want == -np.inf] == -np.inf)
        bn = t.x_table[:, :, None] - t.z_table[:, None, :]          # [u, x, z]
        kn = t.tn_table.T[:, :, None] - t.x_table[:, None, :]       # [u, xt, x]
        for table, (u_a_c, a_c) in ((bn, ([0, 2, 4], [2, 4])), (kn, ([0, 1, 2], [1, 2]))):
            want = _log2_ratio_oracle(_conditional_oracle(j.marginal(u_a_c), 1),
                                      _conditional_oracle(j.marginal(a_c), 0)[None])
            finite = np.isfinite(want)
            np.testing.assert_allclose(table[finite], want[finite], rtol=0, atol=1e-12)
            assert np.all(table[want == -np.inf] == -np.inf)


def _weights_channel(inputs, outputs):
    """`inputs` rows of small integer weights (zeros are common), normalised;
    an all-zero row becomes uniform."""
    row = st.lists(st.integers(0, 4), min_size=outputs, max_size=outputs)
    return st.lists(row, min_size=inputs, max_size=inputs).map(
        lambda rows: Channel(np.array([[x / sum(r) if sum(r) else 1 / len(r) for x in r]
                                       for r in rows])))


BINARY_MODELS = st.tuples(_weights_channel(1, 2), _weights_channel(2, 2),
                          st.integers(2, 3).flatmap(lambda ny: _weights_channel(2, ny)),
                          _weights_channel(2, 2),
                          st.integers(1, 3).flatmap(lambda nu: _weights_channel(2, nu)))


@settings(deadline=None, max_examples=60)
@given(case=BINARY_MODELS, seed=st.integers(0, 2 ** 16))
def test_density_tables_follow_the_markov_identities(case, seed):
    # B_n's and K_n's densities are differences of the 2-D density tables,
    # each table averages to its joint's information, and the densities
    # run_simulation gathers are finite on every enrolled trial
    px, ec, acy, acz, test = case
    m = AuthModel(DiscreteDistribution(px.matrix[0]), ec, acy, acz, classifier_trials=50)
    t = ProtocolTables(m, test)
    j = build_joint(m, test)          # axes (U, Xt, X, Y, Z)
    with np.errstate(invalid="ignore"):   # -inf - -inf off the reachable cells
        bn = t.x_table[:, :, None] - t.z_table[:, None, :]          # [u, x, z]
        kn = t.tn_table.T[:, :, None] - t.x_table[:, None, :]       # [u, xt, x]
    for table, (u_a_c, a_c) in ((bn, ([0, 2, 4], [2, 4])), (kn, ([0, 1, 2], [1, 2]))):
        reachable = j.marginal(u_a_c) > 0
        want = _log2_ratio_oracle(_conditional_oracle(j.marginal(u_a_c), 1),
                                  _conditional_oracle(j.marginal(a_c), 0)[None])
        np.testing.assert_allclose(table[reachable], want[reachable], rtol=0, atol=1e-12)

    laws = [law[0] for law in _chain_laws(m, test.matrix[None])]
    infos = _infos_nats(*(law[None] for law in laws))
    for law, table, info in zip(laws, (t.tn_table, t.an_table.T, t.z_table.T, t.x_table.T),
                                infos):
        cells = law > 0
        assert abs(np.sum(law[cells] * table[cells]) - info[0] / LN2) <= 1e-12
        # -inf on the joint's zeros, 0 where a marginal is zero
        margins = np.outer(law.sum(axis=1), law.sum(axis=0)) > 0
        np.testing.assert_array_equal(table == -np.inf, ~cells & margins)
        assert np.all(table[~margins] == 0.0)

    cfg = SimConfig(n=4, test_channel=test, gamma=0.05, seed=seed, trials=200)
    book = generate_codebook(m, cfg)
    rng = np.random.default_rng(seed)
    xs = _sample_through(rng, m.px.probs[None, :], np.zeros((cfg.trials, cfg.n), dtype=np.int64))
    xts = _sample_through(rng, m.ec.matrix, xs)
    zs = _sample_through(rng, m.ac_z.matrix, xs)
    idx = _pick(_encoder_hits(book, xts), np.arange(len(xts)), rng)
    enrolled = idx >= 0
    cws = book.codewords[idx[enrolled]]
    x_dens = t.x_table[cws, xs[enrolled]]
    assert np.all(np.isfinite((x_dens - t.z_table[cws, zs[enrolled]]).sum(axis=1)))
    assert np.all(np.isfinite((t.tn_table[xts[enrolled], cws] - x_dens).sum(axis=1)))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 40), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_sample_through_matches_the_gathered_table_sampler(n_in, n_out, trials, n, seed):
    # the per-boundary count against the old (trials, n, |out| - 1) table:
    # the same draws, the same outputs and dtype, and the generator left in
    # the same state
    g = np.random.default_rng(seed)
    rows = g.dirichlet(np.ones(n_out), size=n_in)
    rows[g.random(n_in) < 0.3] = np.eye(n_out)[g.integers(0, n_out)]   # one-hot rows
    inputs = g.integers(0, n_in, size=(trials, n))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = _sample_through(rng, rows, inputs), ref_sample_through(ref_rng, rows, inputs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert rng.random() == ref_rng.random()


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
    assert all(_bin_members(book, j).size == 1 for j in range(book.m_j))


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


def test_exact_check_counts_the_table_of_sequences():
    # 2-codeword, 1 x 1 codes: the 2^n-cell encoder law fits the cap up to
    # n = 25, the 2^n x n table of sequences only up to n = 20 (2^25 x 25
    # int64 is 6.25 GiB); the check itself allocates neither
    m = hsm_model()
    for n, fits in ((20, True), (21, False), (25, False)):
        cfg = SimConfig(n=n, test_channel=Channel.bsc(0.5), gamma=0.01, trials=1,
                        rate_overrides=(0, 0), exact_leakage_limit=25)
        book = generate_codebook(m, cfg)
        assert (book.size, book.m_s, book.m_j) == (2, 1, 1)
        if fits:
            _check_exact(book, cfg)
        else:
            with pytest.raises(SimLimitError, match=f"exact leakage at n={n}"):
                _check_exact(book, cfg)


def test_encoder_table_is_capped(monkeypatch):
    # a BSC(0.5) test channel makes every density 0: all 16 x 16 pairs pass.
    # An exact run holds the table of all 2^n sequences at once; a
    # Monte-Carlo-only run tests one trial block at a time (here 4 x 16 pairs)
    m = hsm_model()
    cfg = SimConfig(n=4, test_channel=Channel.bsc(0.5), gamma=0.5, trials=16,
                    rate_overrides=(0, 0))
    book = generate_codebook(m, cfg)
    assert book.size == 16 and _encoder_hits(book, _all_sequences(4))[2].sum() == 256
    want = json.dumps(run_simulation(m, cfg, monte_carlo_only=True).to_json_dict())
    monkeypatch.setattr("authcap.protocol._MAX_CELLS", 256)
    run_simulation(m, cfg)
    monkeypatch.setattr("authcap.protocol._MAX_CELLS", 255)
    monkeypatch.setattr("authcap.protocol._blocks", lambda rows, cells: [
        slice(lo, lo + 4) for lo in range(0, rows, 4)])
    with pytest.raises(SimLimitError, match="pairs pass the encoder test"):
        run_simulation(m, cfg)
    got = run_simulation(m, cfg, monte_carlo_only=True)
    assert got.encoder_failure_rate == 0.0 and json.dumps(got.to_json_dict()) == want


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


def test_enroll_authenticate_reject_out_of_alphabet_symbols():
    # an out-of-alphabet symbol has an all-zero one-hot row, so it adds nothing
    # to any codeword's encoder density, and the decoder's flat gather would
    # read a neighbouring table cell: both calls check the alphabets
    m = AuthModel.binary_hsm(0.02, 0.2, 0.3, classifier_trials=500)
    book = generate_codebook(m, SimConfig(n=10, test_channel=Channel.identity(2), gamma=0.05,
                                          seed=0, trials=1))
    assert (m.n_xt, m.ac_y.num_outputs) == (2, 3)
    for bad in (5, 2, -1):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            enroll(book, [bad] + [0] * 9)
    for bad in (3, -1):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            authenticate(book, [0] * 9 + [bad], 0)
    enroll(book, [1] * 10)
    authenticate(book, [2] * 10, 0)


def test_enroll_authenticate_reject_non_integer_symbols():
    # a fractional symbol has an all-zero one-hot row, so it would score 0
    # against every codeword: both calls reject it, and read an integral
    # float as the integer it holds
    m = AuthModel.binary_hsm(0.02, 0.2, 0.3, classifier_trials=500)
    book = generate_codebook(m, SimConfig(n=10, test_channel=Channel.identity(2), gamma=0.05,
                                          seed=0, trials=1))
    for bad in ([0.5] * 10, [0] * 9 + [1.5], [math.nan] * 10, ["0"] * 10):
        with pytest.raises(ValueError, match="symbols must be integers"):
            enroll(book, bad)
        with pytest.raises(ValueError, match="symbols must be integers"):
            authenticate(book, bad, 0)
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        authenticate(book, [math.inf] * 10, 0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.integers(0, 2, size=10), rng.integers(0, 3, size=10)
        j = int(rng.integers(0, book.m_j))
        assert (enroll(book, x.astype(float), rng=np.random.default_rng(1))
                == enroll(book, x.tolist(), rng=np.random.default_rng(1)))
        assert authenticate(book, y.astype(float), j) == authenticate(book, y.tolist(), j)


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
    p_uy = build_joint(m, cfg.test_channel).marginal([0, 3])
    ch_y_u, p_y = p_uy / p_uy.sum(axis=1, keepdims=True), p_uy.sum(axis=0)
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
            py_cond = math.prod(ch_y_u[cw[i], y[i]] for i in range(6))
            py_marg = math.prod(p_y[y[i]] for i in range(6))
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
    enc = _encoder_kernel(codebook, *_encoder_hits(codebook, seqs))
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
    shapes = set()   # (one-row block, some pair qualifies)
    for model, test in ((hsm_model(), Channel.identity(2)), (hsm_model(), zero_ternary),
                        (AuthModel.binary_hsm(0.02, 0.2, 0.3, classifier_trials=500),
                         Channel.identity(2))):
        for n, gamma, seed in ((4, 0.3, 0), (8, 0.1, 1), (10, 0.05, 2)):
            book = generate_codebook(model, SimConfig(n=n, test_channel=test, gamma=gamma,
                                                      seed=seed, trials=1))
            assert not np.isfinite(book.tables.tn_table).all()
            every = _all_sequences(n)
            hit = ref_encoder_hits(book, every)[2] > 0
            # blocks of one row and blocks where no pair qualifies
            blocks = (every, rng.integers(0, 2, size=(300, n)), every[hit][:1],
                      every[~hit][:1], every[~hit])
            for seqs in (b for b in blocks if len(b)):
                got, ref = _encoder_hits(book, seqs), ref_encoder_hits(book, seqs)
                for g, r in zip(got, ref):
                    assert np.array_equal(g, r)
                checked += int(ref[2].sum())
                shapes.add((len(seqs) == 1, bool(ref[2].sum())))
    assert checked > 0
    assert shapes >= {(True, True), (True, False), (False, False)}


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


def ternary_model():
    return AuthModel(DiscreteDistribution.uniform(3), Channel.identity(3), Channel.identity(3),
                     Channel.identity(3), classifier_trials=500)


@pytest.mark.parametrize("call, match", [
    (lambda: ProtocolTables(hsm_model(), Channel.identity(3)),
     "test channel expects 3 inputs, enrollment alphabet has 2"),
    (lambda: generate_codebook(ternary_model(), SimConfig(n=2, test_channel=Channel.identity(3))),
     "requires binary source, enrollment, and eavesdropper alphabets"),
    (lambda: SimConfig(n=0, test_channel=Channel.bsc(0.1)), "blocklength n must be >= 1"),
    (lambda: SimConfig(n=4, test_channel=Channel.bsc(0.1), trials=0), "trials must be >= 1"),
    # the blocklength is checked once, by _check_exact, before any trial
    (lambda: run_simulation(hsm_model(), SimConfig(n=11, test_channel=Channel.bsc(0.1),
                                                   trials=1, exact_leakage_limit=10)),
     "n=11 exceeds exact enumeration limit 10; pass monte_carlo_only=True"),
], ids=["tables-test-on-3-symbols", "ternary-model", "n-0", "trials-0", "n-over-limit"])
def test_simulator_rejects_a_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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
    # encoder law lived to the end and mu_n took two deviation tables, 3.27
    # once it was freed after its two contractions and the deviation was taken
    # in place, and 2.50 since the contractions overwrite the encoder law and
    # one buffer of its size; the bound sits a quarter table above that.
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
    assert peak <= 2.75 * table_bytes, f"peak {peak / table_bytes:.2f} tables"


def test_product_law_and_encoder_kernel_match_loops():
    # references: per-symbol products over the enumerated sequences, and the
    # per-sequence encoder law; both fast forms must match them bit for bit.
    # The sequences are pinned to itertools.product order.
    for n in range(1, 14):
        ref = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
        got = _all_sequences(n)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
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
        assert np.array_equal(_encoder_kernel(book, *_encoder_hits(book, seqs)), ref)


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
    members = _bin_members(codebook, j)
    if members.size == 0:
        return 0, True, 0, -1
    dens = t.an_table[codebook.codewords[members], np.asarray(y_seq)[None, :]].sum(axis=1)
    qualify = dens >= codebook.decoder_threshold()
    hits = np.flatnonzero(qualify)
    if hits.size != 1:
        return 0, True, int(hits.size), -1
    idx = int(members[hits[0]])
    return int(codebook.key_of[idx]), False, 1, idx


def decode_inputs(model, book, trials, seed):
    """(ys, bins): authentication sequences drawn along the chain, with the
    helper bins their enrollments chose; a third of the trials go to bin 0,
    the fallback bin, and a sixth to uniformly drawn bins (some empty)."""
    rng = np.random.default_rng(seed)
    xs = _sample_through(rng, model.px.probs[None, :], np.zeros((trials, book.n), dtype=np.int64))
    ys = _sample_through(rng, model.ac_y.matrix, xs)
    idx = _pick(_encoder_hits(book, _sample_through(rng, model.ec.matrix, xs)),
                np.arange(trials), rng)
    bins = np.where(idx < 0, 0, book.bin_of[idx])
    bins[:trials // 3] = 0
    bins[trials // 3:trials // 2] = rng.integers(0, book.m_j, size=trials // 2 - trials // 3)
    return ys, rng.permutation(bins)


@pytest.mark.parametrize("budgets", [None, (256, 64)], ids=["default-tiles", "tiny-tiles"])
def test_decode_block_matches_per_trial_reference(budgets, monkeypatch):
    # the grouped decoder against ref_decode, one trial at a time, on
    # bijective bins, an m_j = 1 code (r_j = 0) whose one bin spans several
    # tiles, a fallback bin 0 holding more trials than a group, empty bins,
    # and -inf decoder cells (a noiseless model with an identity test
    # channel, at a low threshold).  Tiny tiles cut every bin of over 8
    # trials or 8 members.
    if budgets:
        monkeypatch.setattr("authcap.protocol._TILE_CELLS", budgets[0])
        monkeypatch.setattr("authcap.protocol._GROUP_CELLS", budgets[1])
    hsm = hsm_model()
    codes = [
        (hsm, SimConfig(n=8, test_channel=Channel.bsc(0.1), gamma=0.1, seed=1, trials=1,
                        bijective_bins=True)),
        (hsm, SimConfig(n=6 if budgets else 10, test_channel=Channel.identity(2), gamma=0.1,
                        seed=2, trials=1, rate_overrides=(0.0, 0.25))),
        (hsm, SimConfig(n=6, test_channel=Channel.identity(2), gamma=0.1, seed=1, trials=1,
                        rate_overrides=(1.5, 0.5))),
        # threshold 0.4 bits: one -inf cell must sink a row whose other cells hold 3
        (noiseless_model(), SimConfig(n=4, test_channel=Channel.identity(2), gamma=0.9, seed=5,
                                      trials=1, rate_overrides=(1.0, 0.5))),
    ]
    seen = set()
    for seed, (model, cfg) in enumerate(codes):
        book = generate_codebook(model, cfg)
        ys, bins = decode_inputs(model, book, 600, seed)
        decoded, hits = _decode_block(book, ys, bins)
        for i in range(len(bins)):
            _, _, ref_hits, ref_idx = ref_decode(book, ys[i], bins[i])
            assert (hits[i], decoded[i]) == (ref_hits, ref_idx), (cfg, i)
            seen.add("empty bin" if _bin_members(book, bins[i]).size == 0
                     else f"{min(ref_hits, 2)} typical")
        if book.m_j == book.size:
            seen.add("bijective")
        if book.m_j == 1 and book.size > (budgets[0] if budgets else _TILE_CELLS) // (3 * book.n):
            seen.add("bin over a tile")
        if np.isinf(book.tables.an_table).any():
            seen.add("-inf cells")
        if np.count_nonzero(bins == 0) > 64:
            seen.add("crowded bin 0")
    assert seen == {"empty bin", "0 typical", "1 typical", "2 typical", "bijective",
                    "bin over a tile", "-inf cells", "crowded bin 0"}


def test_decode_block_peak_memory_follows_its_tiles():
    # an m_j = 1 code of 2^15 codewords at n = 16: the codewords take 4 MB and
    # a gather of every trial's in-bin densities would take 4 MB per trial.
    # The tiles cap what one call holds at a small multiple of the tile budget
    # (measured 1.67); the codebook's cached bin index and decoder table are
    # built first
    m = hsm_model()
    rng = np.random.default_rng(9)
    book = hand_codebook(m, Channel.bsc(0.1), rng.integers(0, 2, size=(1 << 15, 16)),
                         np.zeros(1 << 15, dtype=np.int64), m_s=2, m_j=1, gamma=0.1)
    ys = rng.integers(0, 3, size=(300, 16))
    bins = np.zeros(300, dtype=np.int64)
    book._bin_index, book._decoder_table
    tile_bytes = _TILE_CELLS * 8
    tracemalloc.start()
    try:
        _decode_block(book, ys, bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert book.codewords.nbytes >= 8 * tile_bytes
    assert peak <= 2.5 * tile_bytes, f"peak {peak / tile_bytes:.2f} tile budgets"


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
    # B_n and K_n densities log2 P(x|u,z)/P(x|z) [u, x, z] and
    # log2 P(xt|u,x)/P(xt|x) [u, xt, x], from the five-axis joint
    j5 = build_joint(model, config.test_channel)
    bn_table, kn_table = (_log2_ratio_oracle(_conditional_oracle(j5.marginal(u_a_c), 1),
                                             _conditional_oracle(j5.marginal(a_c), 0)[None])
                          for u_a_c, a_c in (([0, 2, 4], [2, 4]), ([0, 1, 2], [1, 2])))

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
            if bn_table[cw, xs[i], zs[i]].sum() >= thr_b:
                bn_hits += 1
            if kn_table[cw, xts[i], xs[i]].sum() >= thr_k:
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
EXACT_FIELDS = ("exact_computed", "exact_secrecy_leakage_bits",
                "exact_privacy_leakage_rate_bits", "mu_n", "checks")


def monte_carlo_fields(report) -> str:
    return json.dumps({k: v for k, v in report.to_json_dict().items()
                       if k not in EXACT_FIELDS}, sort_keys=True)


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
        # with exact leakage the trials read the table of all 2^n sequences
        exact = run_simulation(m, cfg)
        assert exact.exact_computed
        assert monte_carlo_fields(exact) == monte_carlo_fields(ref)
        assert exact.trace_csv_text() == ref.trace_csv_text()

        book = generate_codebook(m, cfg)
        totals["blocks"] = max(totals["blocks"], len(_blocks(cfg.trials, book.size * book.n)))
        totals["fallback"] += sum(row[4] for row in ref.trace)
        totals["empty"] += sum(_bin_members(book, row[1]).size == 0 for row in ref.trace)
        totals["ambiguous"] += sum(row[6] for row in ref.trace)
    # every path of the encoder and the decoder was reached
    assert totals["blocks"] >= 2 and min(totals.values()) > 0


def test_simulation_exact_fields_equal_a_direct_exact_leakage():
    # run_simulation reads the encoder table its trials read; a direct
    # exact_leakage call (perfbench's layer probe) builds its own: both give
    # the same bits on the simulate benchmark's code and a ternary test channel
    m = AuthModel.binary_hsm(0.02, 0.2, 0.3, classifier_trials=500)
    for test in (Channel.identity(2), TERNARY_TEST):
        for seed in range(3):
            cfg = SimConfig(n=10, test_channel=test, gamma=0.05, seed=seed, trials=2000)
            report = run_simulation(m, cfg)
            ex = exact_leakage(generate_codebook(m, cfg), m, cfg)
            got = (report.exact_secrecy_leakage_bits, report.exact_privacy_leakage_rate_bits,
                   report.mu_n, report.checks["table_mass"], report.checks["z_marginal_gap"])
            want = (ex["secrecy_leakage_bits"], ex["privacy_leakage_rate_bits"], ex["mu_n"],
                    ex["table_mass"], ex["z_marginal_gap"])
            assert [v.hex() for v in got] == [v.hex() for v in want]


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
            seen.add("empty bin" if _bin_members(book, j).size == 0 else f"{min(hits, 2)} typical")
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
