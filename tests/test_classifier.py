import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from authcap import (
    Certainty,
    Channel,
    Relation,
    classify_ac,
    is_less_noisy,
    is_more_capable,
    is_stochastically_degraded,
)
from authcap.classifier import (
    CONCAVITY_TOL,
    DEFAULT_GRID_RESOLUTION,
    DEGRADED_RESIDUAL_TOL,
    _binary_certificate,
    _degraded_by_lp,
    _degradedness_lp,
    _halves,
    _info_gap,
    _mi_batch,
    _simplex_grid,
    _sorted_distinct,
)
from authcap.infotheory import (
    LN2,
    MASS_TOL,
    AlphabetMismatchError,
    JointDistribution,
    mutual_information,
)


def mi_input(p, matrix):
    """I(P; channel output) in nats, computed independently of the module."""
    p = np.asarray(p, dtype=float)
    out = p @ matrix
    h_out = -sum(v * math.log(v) for v in out if v > 0)
    h_rows = np.array([-sum(v * math.log(v) for v in row if v > 0) for row in matrix])
    return h_out - float(p @ h_rows)


def test_degraded_bsc_pair():
    v = is_stochastically_degraded(Channel.bsc(0.26), Channel.bsc(0.1))
    assert v.relation is Relation.DEGRADED_Z_WRT_Y
    assert v.certainty is Certainty.EXACT
    assert v.residual <= 1e-9
    assert np.max(np.abs(v.witness.matrix - Channel.bsc(0.2).matrix)) <= 1e-7


def test_degraded_self():
    c = Channel(np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]]))
    v = is_stochastically_degraded(c, c)
    assert v.relation is Relation.DEGRADED_Z_WRT_Y
    assert v.residual <= 1e-9
    # witness composes back to the candidate
    assert np.max(np.abs(c.matrix @ v.witness.matrix - c.matrix)) <= 1e-9


def test_degraded_infeasible_both_ways():
    a = is_stochastically_degraded(Channel.bec(0.5), Channel.bsc(0.2))
    b = is_stochastically_degraded(Channel.bsc(0.2), Channel.bec(0.5))
    assert a.relation is Relation.UNORDERED
    assert b.relation is Relation.UNORDERED
    # the certified lower bound on every post-channel's residual, and the
    # LP's optimum
    assert a.residual > 1e-9
    assert b.residual > 1e-9
    assert _degraded_by_lp(Channel.bec(0.5), Channel.bsc(0.2)).details["best_residual"] > 1e-9
    assert _degraded_by_lp(Channel.bsc(0.2), Channel.bec(0.5)).details["best_residual"] > 1e-9


def with_row_0_repeated(channel):
    """The channel on three inputs, input 0 copied to input 1: degradedness
    is unchanged, and only the LP decides it."""
    return Channel(np.vstack([channel.matrix[:1], channel.matrix]))


@pytest.mark.parametrize("d", [1e-8, 3e-8])
def test_degraded_only_when_the_witness_composes_back(d):
    # BSC(eps) is BEC(q) followed by a post-channel iff q <= 2 eps.  At
    # q = 2 eps + d the best post-channel misses by about d, yet the LP's
    # objective falls within its solver's feasibility tolerance (about 1e-7)
    # and once read as t <= 1e-9
    bsc, bec = Channel.bsc(0.3), Channel.bec(0.6 + d)
    for candidate, reference in ((bsc, bec),
                                 (with_row_0_repeated(bsc), with_row_0_repeated(bec))):
        v = is_stochastically_degraded(candidate, reference)
        assert v.relation is Relation.UNORDERED, (d, v)
    # at q = 2 eps exactly both paths find a post-channel
    for candidate, reference in ((Channel.bsc(0.3), Channel.bec(0.6)),
                                 (with_row_0_repeated(Channel.bsc(0.3)),
                                  with_row_0_repeated(Channel.bec(0.6)))):
        v = is_stochastically_degraded(candidate, reference)
        assert v.relation is Relation.DEGRADED_Z_WRT_Y
        assert np.max(np.abs(reference.matrix @ v.witness.matrix - candidate.matrix)) \
            == v.residual <= 1e-9


@pytest.mark.parametrize("d, degraded", [(2e-9, True), (3e-9, False)])
def test_binary_degradedness_in_the_band_left_to_the_lp(monkeypatch, d, degraded):
    # BSC(0.05) is BEC(q) followed by a post-channel iff q <= 0.1.  Just
    # above, the Bayes-risk gap is within n_c * DEGRADED_RESIDUAL_TOL, so the
    # exact refutation leaves the pair to the LP, which decides it
    from authcap import classifier

    verdicts = []

    def spy(candidate, reference):
        verdicts.append(_degraded_by_lp(candidate, reference))
        return verdicts[-1]

    monkeypatch.setattr(classifier, "_degraded_by_lp", spy)
    v = is_stochastically_degraded(Channel.bsc(0.05), Channel.bec(0.1 + d))
    assert len(verdicts) == 1 and v is verdicts[0]
    assert v.relation is (Relation.DEGRADED_Z_WRT_Y if degraded else Relation.UNORDERED)


def test_degraded_witness_residual_randomized():
    rng = np.random.default_rng(0)
    for _ in range(25):
        ref = Channel(rng.dirichlet(np.ones(3), size=2))
        post = Channel(rng.dirichlet(np.ones(2), size=3))
        cand = Channel(ref.matrix @ post.matrix)
        v = is_stochastically_degraded(cand, ref)
        assert v.relation is Relation.DEGRADED_Z_WRT_Y
        assert np.max(np.abs(ref.matrix @ v.witness.matrix - cand.matrix)) <= 1e-9


def test_less_noisy_self():
    c = Channel.bsc(0.23)
    v = is_less_noisy(c, c, trials=500, seed=0)
    assert v.relation is Relation.LESS_NOISY_Y_OVER_Z
    assert v.certainty is Certainty.EXACT


def test_less_noisy_bec_over_bsc():
    v = is_less_noisy(Channel.bec(0.5), Channel.bsc(0.2), trials=20_000, seed=1)
    assert v.certainty is Certainty.EXACT
    assert v.details["pairs_checked"] == 0


def test_less_noisy_beyond_binary_inputs_is_statistical_evidence():
    # the three-input embedding of a less-noisy binary pair: no certificate,
    # so every grid pair and then every drawn pair is checked
    v = is_less_noisy(with_row_0_repeated(Channel.bec(0.5)),
                      with_row_0_repeated(Channel.bsc(0.2)), trials=3000)
    assert v.relation is Relation.LESS_NOISY_Y_OVER_Z
    assert v.certainty is Certainty.STATISTICAL_EVIDENCE
    assert v.details["pairs_checked"] == math.comb(len(_simplex_grid(3)), 2) + 3000 == 7095


def test_less_noisy_refuted_reversed():
    v = is_less_noisy(Channel.bsc(0.2), Channel.bec(0.5), trials=20_000, seed=1)
    assert v.certainty is Certainty.COUNTEREXAMPLE
    assert v.note == "midpoint concavity violated on grid pair"
    # the witness pair re-checks by direct evaluation
    p1, p2 = np.asarray(v.witness["p1"]), np.asarray(v.witness["p2"])
    mid = 0.5 * (p1 + p2)

    def f(p):
        return mi_input(p, Channel.bsc(0.2).matrix) - mi_input(p, Channel.bec(0.5).matrix)

    assert f(mid) - 0.5 * (f(p1) + f(p2)) < -1e-10


def exact_curvature(better, worse, p):
    """f''(p) for the input law (1 - p, p), f = I(P;better) - I(P;worse), in
    exact rational arithmetic from the channel entries."""
    total = Fraction(0)
    for matrix, sign in ((worse.matrix, 1), (better.matrix, -1)):
        for u, v in zip(*([Fraction(x) for x in row] for row in matrix.tolist())):
            if u != v:
                total += sign * (v - u) ** 2 / (u + p * (v - u))
    return total


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3])
def test_certificate_boundary_bec_over_bsc(eps):
    # BEC(q) is less noisy than BSC(eps) iff q <= 4 eps (1 - eps); every
    # bisection step must be decided exactly (one sampled pair could never
    # give EXACT or a refutation past the grid)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        q = 0.5 * (lo + hi)
        v = is_less_noisy(Channel.bec(q), Channel.bsc(eps), trials=1, seed=0)
        if v.certainty is Certainty.EXACT:
            lo = q
        else:
            assert v.certainty is Certainty.COUNTEREXAMPLE, (q, v)
            hi = q
    assert abs(lo - 4 * eps * (1 - eps)) <= 1e-12


def test_certificate_bsc_pairs():
    # BSC(b) is BSC(a) followed by a BSC, so degraded, for a <= b <= 1/2
    for a in np.linspace(0.0, 0.5, 11):
        for b in np.linspace(0.0, 0.5, 11):
            v = is_less_noisy(Channel.bsc(a), Channel.bsc(b), trials=1, seed=0)
            if a <= b:
                assert v.certainty is Certainty.EXACT, (a, b)
                assert v.details["pairs_checked"] == 0
            else:
                assert v.certainty is Certainty.COUNTEREXAMPLE, (a, b)


def test_certificate_identical_channels():
    rng = np.random.default_rng(12)
    channels = [Channel.bec(0.3), Channel.identity(2), Channel(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])),
                Channel(np.array([[0.5, 0.25, 0.25], [0.125, 0.125, 0.75]]))]
    channels += [Channel(rng.dirichlet(np.ones(n), size=2)) for n in range(1, 9)]
    for c in channels:
        v = is_less_noisy(c, c, trials=1, seed=0)
        assert v.certainty is Certainty.EXACT
        assert v.relation is Relation.LESS_NOISY_Y_OVER_Z


def test_certificate_witness_below_concavity_tol():
    # BSC(0.2 + d) against BSC(0.2): the grid's worst midpoint gap is about
    # -1.4 d (-1.39e-9 at d = 1e-9), so at d = 1e-11 no grid pair shows the
    # violation beyond CONCAVITY_TOL, and the witness is the certificate's
    v = is_less_noisy(Channel.bsc(0.2 + 1e-11), Channel.bsc(0.2), trials=1, seed=0)
    assert v.certainty is Certainty.COUNTEREXAMPLE
    p = v.witness["p"]
    assert p[0] == 1.0 - p[1]
    exact = exact_curvature(Channel.bsc(0.2 + 1e-11), Channel.bsc(0.2), Fraction(p[1]))
    assert exact > 0 and v.witness["second_derivative"] == float(exact)


def test_certificate_refutes_below_float_resolution():
    # one ulp above the BEC/BSC threshold, f''(1/2) rounds to 0.0 in floats
    # while exactly it is about 1.2e-16; the de Casteljau midpoint finds it
    eps = 0.015
    better, worse = Channel.bec(np.nextafter(4 * eps * (1 - eps), 1.0)), Channel.bsc(eps)
    certainty, witness = _binary_certificate(better, worse)
    assert certainty is Certainty.COUNTEREXAMPLE
    exact = exact_curvature(better, worse, Fraction(witness["p"][1]))
    assert 0 < exact < 1e-15 and witness["second_derivative"] == float(exact)


def test_certificate_float_composed_degraded_pairs():
    # worse = better @ post rounds: the outputs input 0 never reaches get a
    # few 1e-17 more mass in worse, so exactly f''(p) > 0 near p = 0 (the
    # second pair's reaches 0.25 at p = 2^-53); composed back within
    # MASS_TOL, both pairs are degraded, hence less noisy
    cases = [([[0.5, 0.5], [0.0, 1.0]], [[0, 1, 0], [4, 0, 1]]),
             ([[1.0, 0.0], [0.5, 0.5]], [[0, 0, 0, 1], [6, 5, 6, 0]])]
    for rows, weights in cases:
        better = Channel(np.array(rows))
        post = np.array([[x / sum(r) for x in r] for r in weights])
        worse = Channel(better.matrix @ post)
        assert exact_curvature(better, worse, Fraction(2) ** -53) > 0
        certainty, proof = _binary_certificate(better, worse)
        assert certainty is Certainty.EXACT
        assert proof["residual"] <= MASS_TOL
        composed = better.matrix @ proof["post_channel"].matrix
        assert np.max(np.abs(composed - worse.matrix)) == proof["residual"]
        v = is_less_noisy(better, worse, trials=1, seed=0)
        assert v.certainty is Certainty.EXACT and v.details["pairs_checked"] == 0
        assert np.array_equal(v.witness.matrix, proof["post_channel"].matrix)
        assert v.residual == proof["residual"]


def bernstein_value(coeffs, x):
    m = len(coeffs) - 1
    return sum(c * math.comb(m, k) * x ** k * (1 - x) ** (m - k) for k, c in enumerate(coeffs))


def test_halves_matches_exact_subdivision():
    # each half, divided by 2^m, is the polynomial on [0, 1/2] or [1/2, 1]
    # mapped onto [0, 1]
    rng = np.random.default_rng(21)
    for m in range(6):
        coeffs = [int(x) for x in rng.integers(-50, 50, size=m + 1)]
        left, right = _halves(coeffs)
        for x in (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1)):
            assert bernstein_value(left, x) == 2 ** m * bernstein_value(coeffs, x / 2)
            assert bernstein_value(right, x) == 2 ** m * bernstein_value(coeffs, (1 + x) / 2)


def sampled_concavity_gap(better, worse, seed, trials=2_000):
    """Smallest midpoint-concavity gap over the deterministic grid pairs and
    `trials` flat random pairs, as the sampler evaluates it."""
    rng = np.random.default_rng(seed)
    grid = _simplex_grid(2)
    first, second = np.triu_indices(len(grid), 1)
    p1 = np.vstack([grid[first], rng.dirichlet(np.ones(2), size=trials)])
    p2 = np.vstack([grid[second], rng.dirichlet(np.ones(2), size=trials)])
    mid = _info_gap(0.5 * (p1 + p2), better, worse)
    return float(np.min(mid - 0.5 * (_info_gap(p1, better, worse) + _info_gap(p2, better, worse))))


def _binary_channel(outputs):
    """Two rows of small integer weights (zeros and equal likelihood ratios
    are common), normalised; an all-zero row becomes uniform."""
    row = st.lists(st.integers(0, 6), min_size=outputs, max_size=outputs)
    return st.tuples(row, row).map(
        lambda rows: Channel(np.array([[x / sum(r) if sum(r) else 1 / len(r) for x in r]
                                       for r in rows])))


BINARY_PAIRS = st.integers(1, 4).flatmap(lambda ny: st.integers(1, 4).flatmap(
    lambda nz: st.tuples(_binary_channel(ny), _binary_channel(nz), st.booleans(),
                         st.lists(st.lists(st.integers(0, 6), min_size=nz, max_size=nz),
                                  min_size=ny, max_size=ny))))


@settings(deadline=None, max_examples=300)
@given(case=BINARY_PAIRS, seed=st.integers(0, 2 ** 16))
def test_certificate_agrees_with_sampler(case, seed):
    better, worse, degrade, post = case
    if degrade:
        # worse = better followed by a post-channel: always less noisy
        post = np.array([[x / sum(r) if sum(r) else 1 / len(r) for x in r] for r in post])
        worse = Channel(better.matrix @ post)
    certainty, witness = _binary_certificate(better, worse)
    gap = sampled_concavity_gap(better, worse, seed)
    if certainty is Certainty.EXACT:
        assert gap >= -CONCAVITY_TOL
    if gap < -CONCAVITY_TOL:
        assert certainty is Certainty.COUNTEREXAMPLE
    if degrade:
        assert certainty is not Certainty.COUNTEREXAMPLE
    if certainty is Certainty.COUNTEREXAMPLE:
        p = witness["p"]
        assert p[0] == 1.0 - p[1]
        exact = exact_curvature(better, worse, Fraction(p[1]))
        assert exact > 0 and witness["second_derivative"] == float(exact)



def exact_bayes_gap(candidate, reference, prior):
    """R_candidate(prior) - R_reference(prior), R_M(pi) = sum_c
    max(pi M[0, c], (1 - pi) M[1, c]), in exact rational arithmetic."""
    def risk(matrix):
        return sum(max(prior * Fraction(a), (1 - prior) * Fraction(b))
                   for a, b in zip(*matrix.tolist()))
    return risk(candidate.matrix) - risk(reference.matrix)


def max_exact_bayes_gap(candidate, reference):
    """The largest exact Bayes gap over [0, 1]: at an end or at an exact
    kink b / (a + b) of either channel's columns (a, b)."""
    priors = {Fraction(0), Fraction(1)}
    for matrix in (candidate.matrix, reference.matrix):
        priors |= {Fraction(b) / (Fraction(a) + Fraction(b))
                   for a, b in zip(*matrix.tolist()) if a + b > 0}
    return max(exact_bayes_gap(candidate, reference, p) for p in priors)


@settings(deadline=None, max_examples=200)
@given(case=BINARY_PAIRS, swap=st.booleans())
def test_lp_free_degradedness_agrees_with_lp(case, swap):
    better, worse, degrade, post = case
    if degrade:
        # worse = better followed by a post-channel, composed in floats
        post = np.array([[x / sum(r) if sum(r) else 1 / len(r) for x in r] for r in post])
        worse = Channel(better.matrix @ post)
    candidate, reference = (better, worse) if swap else (worse, better)
    v = is_stochastically_degraded(candidate, reference)
    lp = _degraded_by_lp(candidate, reference)
    bound = candidate.num_outputs * Fraction(DEGRADED_RESIDUAL_TOL)
    if not 0 < max_exact_bayes_gap(candidate, reference) <= bound:
        assert v.relation is lp.relation
    if degrade and not swap:
        assert v.relation is Relation.DEGRADED_Z_WRT_Y
    if v.relation is Relation.DEGRADED_Z_WRT_Y:
        residual = np.max(np.abs(reference.matrix @ v.witness.matrix - candidate.matrix))
        assert residual == v.residual <= 1e-9
    elif "bayes_risk_gap" in v.details:
        gap = exact_bayes_gap(candidate, reference, Fraction(v.details["prior"]))
        assert gap > bound
        assert v.details["bayes_risk_gap"] == float(gap)
        assert lp.relation is Relation.UNORDERED and lp.details["best_residual"] > 1e-9


# Modules `import authcap` and a shipped model build never run: the LP and the
# more-capable search (scipy), np.unique's masked-array check (numpy.ma), the
# sampler of an undecided pair (numpy.random), the content hash (hashlib), and
# the closed forms and the simulator.
UNUSED_BY_A_BUILD = ("scipy", "numpy.ma", "numpy.random", "hashlib", "authcap.binary",
                     "authcap.gaussian", "authcap.protocol")


def test_import_and_model_builds_load_only_what_they_use():
    # every shipped binary or discrete config, in a fresh interpreter: the
    # degradedness test needs no LP for two inputs, a less-noisy verdict no
    # more-capable search, and a certificate-decided pair no random draw
    code = """if True:
        import json, sys
        from pathlib import Path
        from authcap import AuthModel, Channel, DiscreteDistribution
        built = []
        for path in sorted(Path(sys.argv[1]).glob("*.json")):
            c = json.loads(path.read_text())
            if "binary" in c:
                b = c["binary"]
                AuthModel.binary_hsm(b["p"], b["q"], b["eps"])
            elif "px" in c:
                AuthModel(DiscreteDistribution(c["px"]), Channel(c["ec"]),
                          Channel(c["ac_y"]), Channel(c["ac_z"]))
            else:
                continue
            built.append(path.stem)
        print(json.dumps([built, sorted(sys.modules)]))
    """
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, str(root / "configs")],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    built, loaded = json.loads(proc.stdout)
    assert built == ["binary", "discrete_degraded", "keyed"]
    assert [m for m in loaded
            if any(m == u or m.startswith(u + ".") for u in UNUSED_BY_A_BUILD)] == []


@settings(deadline=None, max_examples=300)
@given(values=st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1.0, 1e-300, -1e-300]),
                       max_size=80),
       shift=st.sampled_from([0.0, -0.0, 0.1]))
def test_sorted_distinct_matches_np_unique_byte_for_byte(values, shift):
    x = np.array(values, dtype=float) + shift
    got, ref = _sorted_distinct(x), np.unique(x)
    # tobytes also tells 0.0 from -0.0
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def test_refuted_binary_pair_draws_nothing(monkeypatch):
    # the certificate refutes BSC(0.2) over BEC(0.5) (configs/binary.json's
    # reverse direction), so no random pair is drawn and the seed is moot
    def no_generator(seed):
        raise AssertionError("a random generator was created")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    first, second = (is_less_noisy(Channel.bsc(0.2), Channel.bec(0.5), seed=seed)
                     for seed in (0, 10 ** 6))
    assert first.relation is Relation.UNORDERED
    assert first.certainty is Certainty.COUNTEREXAMPLE
    # verdict, witness and pairs_checked alike
    assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())


def test_more_capable_examples():
    c = Channel(np.array([[0.8, 0.2], [0.3, 0.7]]))
    v = is_more_capable(c, Channel.constant(2))
    assert v.certainty is Certainty.STATISTICAL_EVIDENCE
    v2 = is_more_capable(c, c)
    assert v2.certainty is Certainty.STATISTICAL_EVIDENCE
    v3 = is_more_capable(Channel.bec(0.5), Channel.bsc(0.2))
    assert v3.certainty is Certainty.STATISTICAL_EVIDENCE
    v4 = is_more_capable(Channel.bsc(0.2), Channel.bec(0.5))
    assert v4.certainty is Certainty.COUNTEREXAMPLE
    p = np.asarray(v4.witness["p"])
    assert mi_input(p, Channel.bsc(0.2).matrix) - mi_input(p, Channel.bec(0.5).matrix) < -1e-9


def test_classify_less_noisy_pair():
    v = classify_ac(Channel.bec(0.5), Channel.bsc(0.2), trials=20_000, seed=2)
    assert v.relation is Relation.LESS_NOISY_Y_OVER_Z
    assert v.certainty is Certainty.EXACT
    assert v.details["reverse_refuted"] is True
    # roles swapped: the pair is less noisy in the eavesdropper's favor
    v = classify_ac(Channel.bsc(0.2), Channel.bec(0.5))
    assert v.relation is Relation.LESS_NOISY_Z_OVER_Y
    assert v.certainty is Certainty.EXACT
    assert v.details["reverse_refuted"] is True


def test_classify_degraded_pairs_both_roles():
    v = classify_ac(Channel.bsc(0.1), Channel.bsc(0.26), trials=500, seed=0)
    assert v.relation is Relation.DEGRADED_Z_WRT_Y
    assert v.residual <= 1e-9
    v_swapped = classify_ac(Channel.bsc(0.26), Channel.bsc(0.1), trials=500, seed=0)
    assert v_swapped.relation is Relation.DEGRADED_Y_WRT_Z


def test_trial_count_checked_before_any_verdict():
    # a degraded pair is decided before the sampler, yet the count is checked
    with pytest.raises(ValueError, match="classifier_trials"):
        classify_ac(Channel.bsc(0.1), Channel.bsc(0.26), trials=-3)
    with pytest.raises(ValueError, match="classifier_trials"):
        is_less_noisy(Channel.bec(0.5), Channel.bsc(0.2), trials=0)


def test_classify_equivalent_channels_tie_break():
    c = Channel.bsc(0.15)
    v = classify_ac(c, c, trials=500, seed=0)
    assert v.relation is Relation.DEGRADED_Z_WRT_Y
    assert "equivalent" in v.note


def test_classify_more_capable_only():
    # erasure 0.7 vs crossover 0.2: beyond the less-noisy threshold
    # 4*0.2*0.8 = 0.64 but under the capacity threshold H_b(0.2) = 0.722
    v = classify_ac(Channel.bec(0.7), Channel.bsc(0.2), trials=20_000, seed=3)
    assert v.relation is Relation.MORE_CAPABLE_Y
    assert v.certainty is Certainty.STATISTICAL_EVIDENCE
    v = classify_ac(Channel.bsc(0.2), Channel.bec(0.7))
    assert v.relation is Relation.MORE_CAPABLE_Z
    assert v.certainty is Certainty.STATISTICAL_EVIDENCE


def test_classify_unordered():
    # erasure above H_b(0.2): neither direction is more capable
    v = classify_ac(Channel.bec(0.8), Channel.bsc(0.2), trials=20_000, seed=4)
    assert v.relation is Relation.UNORDERED


def test_classify_bec_over_bsc_known_answers():
    # BEC(q) against BSC(eps): degraded iff q <= 2 eps, less noisy iff
    # q <= 4 eps (1 - eps), more capable iff q <= H_b(eps).  Grid points lie
    # at least 0.02 from every threshold.  Above H_b(eps) every test runs, so
    # only a band of 0.1 there is sampled.
    ordered = (Relation.DEGRADED_Z_WRT_Y, Relation.LESS_NOISY_Y_OVER_Z, Relation.MORE_CAPABLE_Y)
    checked = {r: 0 for r in ordered + (None,)}
    for eps in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        h = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
        thresholds = (2 * eps, 4 * eps * (1 - eps), h)
        for q in np.arange(1, 34) * 0.03:
            if q > h + 0.1 or min(abs(q - t) for t in thresholds) < 0.02:
                continue
            expected = next((r for r, t in zip(ordered, thresholds) if q <= t), None)
            got = classify_ac(Channel.bec(q), Channel.bsc(eps)).relation
            if expected is None:
                assert got not in ordered, (q, eps, got)
            else:
                assert got is expected, (q, eps, got)
            checked[expected] += 1
    assert min(checked.values()) >= 5


def test_degraded_implies_less_noisy_not_refuted():
    pairs = [(Channel.bsc(0.1), Channel.bsc(0.26)),
             (Channel.bsc(0.05), Channel.bsc(0.4))]
    for y, z in pairs:
        assert is_stochastically_degraded(z, y).relation is Relation.DEGRADED_Z_WRT_Y
        assert is_less_noisy(y, z, trials=20_000, seed=5).certainty \
            is Certainty.EXACT


def test_less_noisy_implies_more_capable():
    pairs = [(Channel.bec(0.5), Channel.bsc(0.2)),
             (Channel.bsc(0.1), Channel.bsc(0.26))]
    for y, z in pairs:
        assert is_less_noisy(y, z, trials=5_000, seed=6).certainty \
            is Certainty.EXACT
        assert is_more_capable(y, z).certainty is Certainty.STATISTICAL_EVIDENCE


def test_classifier_deterministic():
    a = classify_ac(Channel.bec(0.5), Channel.bsc(0.2), trials=2_000, seed=7)
    b = classify_ac(Channel.bec(0.5), Channel.bsc(0.2), trials=2_000, seed=7)
    assert a.to_json_dict() == b.to_json_dict()


def test_alphabet_mismatch():
    three = Channel(np.full((3, 2), 0.5))
    with pytest.raises(AlphabetMismatchError):
        is_stochastically_degraded(Channel.bsc(0.1), three)
    with pytest.raises(AlphabetMismatchError):
        is_less_noisy(Channel.bsc(0.1), three, trials=10, seed=0)
    with pytest.raises(AlphabetMismatchError):
        classify_ac(Channel.bsc(0.1), three)


def test_mi_batch_matches_explicit_joint():
    # the batched kernel against mutual_information on each input law's
    # explicit (input, output) joint, including laws with zero entries
    rng = np.random.default_rng(33)
    for k, n_out in ((2, 2), (3, 4), (4, 3)):
        matrix = rng.dirichlet(np.ones(n_out), size=k)
        matrix[0, 0] = 0.0          # an exact zero and a tiny but real mass
        matrix[-1, -1] = 1e-9
        matrix /= matrix.sum(axis=1, keepdims=True)
        p = rng.dirichlet(np.ones(k), size=50)
        p[0] = np.eye(k)[0]
        batch = _mi_batch(p, matrix)
        for row, value in zip(p, batch):
            joint = JointDistribution(row[:, None] * matrix)
            assert value == pytest.approx(
                LN2 * mutual_information(joint, [0], [1]), abs=1e-12)


def ref_degradedness_lp(candidate, reference):
    """The per-entry loop `_degradedness_lp` replaced, kept verbatim."""
    na = reference.num_inputs
    nb = reference.num_outputs
    nc = candidate.num_outputs
    nvar = nb * nc + 1
    rows = []
    rhs = []
    for a in range(na):
        for c in range(nc):
            coeff = np.zeros(nvar)
            for b in range(nb):
                coeff[b * nc + c] = reference.matrix[a, b]
            coeff[-1] = -1.0
            rows.append(coeff.copy())
            rhs.append(candidate.matrix[a, c])
            coeff2 = -coeff
            coeff2[-1] = -1.0
            rows.append(coeff2)
            rhs.append(-candidate.matrix[a, c])
    a_eq = np.zeros((nb, nvar))
    for b in range(nb):
        a_eq[b, b * nc:(b + 1) * nc] = 1.0
    return np.array(rows), np.array(rhs), a_eq


def test_degradedness_lp_matches_loop_bit_for_bit():
    rng = np.random.default_rng(5)

    def random_channel(outputs):
        return Channel(rng.dirichlet(np.ones(outputs), size=3))

    pairs = [(Channel.bsc(0.26), Channel.bsc(0.1)), (Channel.bsc(0.1), Channel.bsc(0.26)),
             (Channel.bec(0.4), Channel.bsc(0.2)), (Channel.bsc(0.2), Channel.bec(0.4)),
             (random_channel(4), random_channel(5)), (random_channel(5), random_channel(4))]
    for candidate, reference in pairs:
        for got, ref in zip(_degradedness_lp(candidate, reference),
                            ref_degradedness_lp(candidate, reference)):
            # tobytes also tells 0.0 from -0.0
            assert got.shape == ref.shape
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()


def ref_compositions(total, parts):
    """The recursive composition generator `_simplex_grid` replaced, kept
    verbatim."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in ref_compositions(total - head, parts - 1):
            yield (head,) + rest


def test_simplex_grid_matches_recursive_compositions():
    for k in range(1, 8):
        m = round(1.0 / DEFAULT_GRID_RESOLUTION)
        while m > 1 and math.comb(m + k - 1, k - 1) > 100:
            m -= 1
        ref = np.array([np.array(c, dtype=float) / m for c in ref_compositions(m, k)])
        got = _simplex_grid(k)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref), k


def ref_witness_json(verdict):
    """The witness conversion `classify_ac` used inline, kept verbatim."""
    if isinstance(verdict.witness, dict):
        return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in verdict.witness.items()}
    return None


def ref_verdict_json(verdict):
    """`ChannelOrderVerdict.to_json_dict` as it converted witnesses inline,
    kept verbatim, dumped with sorted keys."""
    w = verdict.witness
    if isinstance(w, Channel):
        w = w.matrix.tolist()
    elif isinstance(w, dict):
        w = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in w.items()}
    return json.dumps({"relation": verdict.relation.value, "certainty": verdict.certainty.value,
                       "witness": w, "residual": verdict.residual, "note": verdict.note,
                       "details": verdict.details}, sort_keys=True)


def test_verdict_json_matches_inline_conversion():
    y, z = Channel.bec(0.5), Channel.bsc(0.2)
    degraded = classify_ac(Channel.bsc(0.1), Channel.bsc(0.26), trials=500, seed=0)
    refuted = is_less_noisy(z, y, trials=2_000, seed=1)
    less_noisy = classify_ac(y, z, trials=2_000, seed=2)
    unordered = classify_ac(Channel.bec(0.8), z, trials=2_000, seed=4)
    assert isinstance(degraded.witness, Channel)
    assert isinstance(refuted.witness["p1"], np.ndarray)
    assert less_noisy.relation is Relation.LESS_NOISY_Y_OVER_Z
    assert unordered.relation is Relation.UNORDERED
    for v in (degraded, refuted, less_noisy, unordered):
        assert json.dumps(v.to_json_dict(), sort_keys=True) == ref_verdict_json(v)

    # the sub-verdict witnesses classify_ac stores, against the inline form
    reverse = is_less_noisy(z, y, trials=2_000, seed=3)
    assert json.dumps(less_noisy.details["reverse_witness"]) == \
        json.dumps(ref_witness_json(reverse))
    gap_y, gap_z = is_more_capable(Channel.bec(0.8), z), is_more_capable(z, Channel.bec(0.8))
    assert json.dumps(unordered.witness, sort_keys=True) == json.dumps(
        {"y_gap_witness": ref_witness_json(gap_y), "z_gap_witness": ref_witness_json(gap_z)},
        sort_keys=True)
