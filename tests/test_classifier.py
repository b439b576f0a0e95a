import json
import math

import numpy as np
import pytest

from authcap import (
    Certainty,
    Channel,
    InfoUnit,
    Relation,
    classify_ac,
    is_less_noisy,
    is_more_capable,
    is_stochastically_degraded,
)
from authcap.classifier import DEFAULT_GRID_RESOLUTION, _degradedness_lp, _mi_batch, _simplex_grid
from authcap.infotheory import AlphabetMismatchError, JointDistribution, mutual_information


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
    assert a.details["best_residual"] > 1e-9
    assert b.details["best_residual"] > 1e-9


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
    assert v.certainty is Certainty.STATISTICAL_EVIDENCE


def test_less_noisy_bec_over_bsc():
    v = is_less_noisy(Channel.bec(0.5), Channel.bsc(0.2), trials=20_000, seed=1)
    assert v.certainty is Certainty.STATISTICAL_EVIDENCE


def test_less_noisy_refuted_reversed():
    v = is_less_noisy(Channel.bsc(0.2), Channel.bec(0.5), trials=20_000, seed=1)
    assert v.certainty is Certainty.COUNTEREXAMPLE
    # the witness pair re-checks by direct evaluation
    p1, p2 = np.asarray(v.witness["p1"]), np.asarray(v.witness["p2"])
    mid = 0.5 * (p1 + p2)

    def f(p):
        return mi_input(p, Channel.bsc(0.2).matrix) - mi_input(p, Channel.bec(0.5).matrix)

    assert f(mid) - 0.5 * (f(p1) + f(p2)) < -1e-10


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
    assert v.certainty is Certainty.STATISTICAL_EVIDENCE
    assert v.details["reverse_refuted"] is True


def test_classify_degraded_pairs_both_roles():
    v = classify_ac(Channel.bsc(0.1), Channel.bsc(0.26), trials=500, seed=0)
    assert v.relation is Relation.DEGRADED_Z_WRT_Y
    assert v.residual <= 1e-9
    v_swapped = classify_ac(Channel.bsc(0.26), Channel.bsc(0.1), trials=500, seed=0)
    assert v_swapped.relation is Relation.DEGRADED_Y_WRT_Z


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
            is Certainty.STATISTICAL_EVIDENCE


def test_less_noisy_implies_more_capable():
    pairs = [(Channel.bec(0.5), Channel.bsc(0.2)),
             (Channel.bsc(0.1), Channel.bsc(0.26))]
    for y, z in pairs:
        assert is_less_noisy(y, z, trials=5_000, seed=6).certainty \
            is Certainty.STATISTICAL_EVIDENCE
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
                mutual_information(joint, [0], [1], unit=InfoUnit.NATS), abs=1e-12)


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
