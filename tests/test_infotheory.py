import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from authcap import (
    Channel,
    DiscreteDistribution,
    InfoUnit,
    JointDistribution,
    binary_entropy,
    binary_entropy_inverse,
    conditional_mutual_information,
    convolve,
    entropy,
    mutual_information,
)
from authcap.infotheory import (
    InvalidDistributionError,
    AlphabetMismatchError,
    MalformedJointError,
    LN2,
    NEGATIVE_MI_TOL,
    _clamp_mi,
    _entropy_nats,
    _pairwise_sum,
    _running_sum,
)
from oracles import compose_channels


def hb(x):
    """Independent binary entropy oracle (bits)."""
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def test_unit_round_trip():
    for unit in InfoUnit:
        assert InfoUnit.parse(unit.value) is unit
    assert InfoUnit.BITS.from_nats(LN2) == 1.0
    assert InfoUnit.NATS.from_nats(7.25) == 7.25
    assert InfoUnit.parse("NATS") is InfoUnit.NATS
    with pytest.raises(ValueError):
        InfoUnit.parse("dits")


def test_entropy_examples():
    assert entropy(DiscreteDistribution([0.5, 0.5])) == pytest.approx(1.0, abs=1e-14)
    assert entropy(DiscreteDistribution([1.0, 0.0])) == 0.0
    # high-precision oracle evaluation of -sum p log2 p
    expected = -(0.26 * math.log2(0.26) + 0.74 * math.log2(0.74))
    assert entropy(DiscreteDistribution([0.26, 0.74])) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.8267, abs=5e-5)


def test_distribution_validation():
    with pytest.raises(InvalidDistributionError):
        DiscreteDistribution([0.5, 0.6])
    with pytest.raises(InvalidDistributionError):
        DiscreteDistribution([-0.1, 1.1])
    with pytest.raises(InvalidDistributionError):
        Channel([[0.5, 0.4], [0.5, 0.5]])
    # non-finite entries: a NaN mass check compares False, so it must be
    # rejected on its own
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([bad, 1.0])
        with pytest.raises(InvalidDistributionError):
            Channel([[bad, 1.0], [0.5, 0.5]])
        with pytest.raises(InvalidDistributionError):
            JointDistribution(np.array([[bad, 0.5], [0.25, 0.25]]))


def test_mutual_information_examples():
    # product of two fair bits
    prod = JointDistribution(np.full((2, 2), 0.25))
    assert mutual_information(prod, [0], [1]) == 0.0
    # perfectly correlated fair bits
    corr = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_information(corr, [0], [1]) == pytest.approx(1.0, abs=1e-14)
    # uniform input through a symmetric channel: 1 - H_b(0.1)
    j = JointDistribution(0.5 * Channel.bsc(0.1).matrix)
    assert mutual_information(j, [0], [1]) == pytest.approx(1 - hb(0.1), abs=1e-12)
    assert 1 - hb(0.1) == pytest.approx(0.5310, abs=5e-5)


def test_mutual_information_errors():
    j = JointDistribution(np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        mutual_information(j, [0], [0])
    with pytest.raises(IndexError):
        mutual_information(j, [0], [2])
    bad = JointDistribution(np.full((2, 2), 0.25))
    bad.probs = np.full((2, 2), 0.5)  # bypass validation: mass 2
    with pytest.raises(MalformedJointError):
        mutual_information(bad, [0], [1])


def test_conditional_mi_examples():
    rng = np.random.default_rng(0)
    # C independent of (A, B): I(A;B|C) = I(A;B)
    ab = rng.dirichlet(np.ones(4)).reshape(2, 2)
    j = JointDistribution(ab[:, :, None] * np.array([0.3, 0.7])[None, None, :])
    assert conditional_mutual_information(j, [0], [1], [2]) == pytest.approx(
        mutual_information(JointDistribution(ab), [0], [1]), abs=1e-12)
    # Markov A - C - B gives zero
    pc = np.array([0.4, 0.6])
    pa_c = rng.dirichlet(np.ones(2), size=2)
    pb_c = rng.dirichlet(np.ones(2), size=2)
    markov = pc[None, None, :] * pa_c.T[:, None, :] * pb_c.T[None, :, :]
    assert conditional_mutual_information(JointDistribution(markov), [0], [1], [2]) \
        == pytest.approx(0.0, abs=1e-12)


def test_conditional_mi_binary_model_value():
    # I(Xt;U|Y) for U = Xt, enrollment BSC(0.1), main BEC(0.5): brute-force
    # joint enumeration oracle, cross-checked against the closed form at beta=0.
    p, q = 0.1, 0.5
    ec = Channel.bsc(p).matrix
    bec = Channel.bec(q).matrix
    joint = np.zeros((2, 2, 2, 3))  # (U, Xt, X, Y)
    for x in range(2):
        for a in range(2):
            for y in range(3):
                joint[a, a, x, y] += 0.5 * ec[x, a] * bec[x, y]
    j = JointDistribution(joint)
    val = conditional_mutual_information(j, [1], [0], [3])
    closed = q + (1 - q) * hb(p) - hb(0.0)
    assert val == pytest.approx(closed, abs=1e-12)
    assert val == pytest.approx(0.7345, abs=5e-5)


def test_compose_channels():
    c = Channel(np.array([[0.2, 0.8], [0.7, 0.3]]))
    assert np.allclose(compose_channels(Channel.identity(2), c).matrix, c.matrix)
    composed = compose_channels(Channel.bsc(0.1), Channel.bsc(0.2))
    assert np.max(np.abs(composed.matrix - Channel.bsc(0.26).matrix)) <= 1e-14
    const = compose_channels(c, Channel.constant(2))
    assert np.allclose(const.matrix, 1.0)
    with pytest.raises(AlphabetMismatchError):
        compose_channels(Channel.bec(0.5), Channel.bsc(0.1))


def test_binary_entropy_toolkit():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.2) == pytest.approx(hb(0.2), abs=1e-15)
    assert hb(0.2) == pytest.approx(0.7219, abs=5e-5)
    with pytest.raises(ValueError):
        binary_entropy(1.2)

    assert binary_entropy_inverse(1.0) == 0.5
    assert binary_entropy_inverse(0.0) == 0.0
    assert binary_entropy_inverse(hb(0.26)) == pytest.approx(0.26, abs=1e-10)
    with pytest.raises(ValueError):
        binary_entropy_inverse(1.5)

    assert convolve(0.5, 0.37) == 0.5
    assert convolve(0.0, 0.37) == 0.37
    assert convolve(0.1, 0.2) == pytest.approx(0.26, abs=1e-16)
    with pytest.raises(ValueError):
        convolve(-0.1, 0.5)


def test_binary_entropy_inverse_round_trip():
    xs = np.linspace(0.0, 0.5, 501)
    for x in xs:
        assert abs(binary_entropy_inverse(binary_entropy(x)) - x) <= 1e-9
    for h in np.linspace(0.0, 1.0, 501):
        assert abs(binary_entropy(binary_entropy_inverse(h)) - h) <= 1e-10


def test_convolve_associativity():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b, c = rng.random(3)
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert abs(left - right) <= 1e-14


def test_compose_bsc_matches_convolve():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = rng.random(2)
        composed = compose_channels(Channel.bsc(a), Channel.bsc(b)).matrix
        assert np.max(np.abs(composed - Channel.bsc(convolve(a, b)).matrix)) <= 1e-14


def test_chain_rule_on_random_joints():
    rng = np.random.default_rng(3)
    for _ in range(200):
        shape = tuple(rng.integers(2, 5, size=2))
        j = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        h_ab = entropy(DiscreteDistribution(j.ravel()))
        h_a = entropy(DiscreteDistribution(j.sum(axis=1)))
        # conditional entropy accumulated row by row, the independent route
        h_b_given_a = 0.0
        for row in j:
            pa = row.sum()
            if pa > 0:
                h_b_given_a -= sum(v * math.log2(v / pa) for v in row if v > 0)
        assert abs(h_ab - (h_a + h_b_given_a)) <= 1e-12


def test_mi_symmetry_and_bounds():
    rng = np.random.default_rng(4)
    for _ in range(200):
        shape = tuple(rng.integers(2, 5, size=2))
        arr = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        j = JointDistribution(arr)
        jt = JointDistribution(arr.T)
        i_ab = mutual_information(j, [0], [1])
        assert abs(i_ab - mutual_information(jt, [0], [1])) <= 1e-12
        h_a = entropy(DiscreteDistribution(arr.sum(axis=1)))
        h_b = entropy(DiscreteDistribution(arr.sum(axis=0)))
        assert i_ab <= min(h_a, h_b) + 1e-12


def test_joint_marginal_idempotence():
    rng = np.random.default_rng(5)
    ab = rng.dirichlet(np.ones(6)).reshape(2, 3)
    pc = np.array([0.2, 0.8])
    j = JointDistribution(ab[:, :, None] * pc[None, None, :])
    # dropping and re-attaching the independent axis reproduces the joint
    back = j.marginal([0, 1])[:, :, None] * j.marginal([2])[None, None, :]
    assert np.max(np.abs(back - j.probs)) <= 1e-14
    assert j.probs.shape == (2, 3, 2)


def ref_entropy_nats(p):
    """The masked whole-array branch `_entropy_nats` had, kept verbatim but
    for its mask, which now drops exact zeros only."""
    p = np.asarray(p, dtype=float)
    q = p[p > 0.0]
    return float(-(q * np.log(q)).sum())


# cells: exact zeros, masses of at most 1e-15, and ordinary masses
CELLS = st.one_of(st.just(0.0), st.floats(0.0, 1e-15), st.floats(1e-12, 1.0))


@settings(deadline=None, max_examples=300)
@given(rows=st.integers(1, 4), cells=st.lists(CELLS, min_size=1, max_size=300))
def test_entropy_nats_matches_masked_sum(rows, cells):
    # the masked sum drops the zero cells, the whole-array sum keeps them
    # (as zero terms), so numpy's pairwise blocks start at other cells and
    # the last bits can move once there are 8 or more cells; below that both
    # sum the same nonzero terms in the same order
    p = np.array(cells)
    if p.sum() > 0:
        p = p / p.sum()
    got = _entropy_nats(p)
    assert isinstance(got, float)
    ref = ref_entropy_nats(p)
    assert abs(got - ref) <= 1e-14
    if p.size < 8:
        assert got == ref

    table = p[:len(p) - len(p) % rows].reshape(rows, -1)
    for got, row in zip(_entropy_nats(table, axis=-1), table):
        ref = ref_entropy_nats(row)
        assert abs(got - ref) <= 1e-14
        if row.size < 8:
            assert got == ref


def ref_negating_entropy_nats(p, axis=None):
    """`_entropy_nats` as it was, negating every term before the sum, kept
    verbatim but for its mask, which now drops exact zeros only."""
    p = np.asarray(p, dtype=float)
    h = np.add.reduce(-(p * np.log(np.where(p > 0.0, p, 1.0))), axis=axis)
    return float(h) if axis is None else h


def test_entropy_nats_matches_per_term_negation_bit_for_bit():
    # sums of 1 to 1,000 cells (numpy's pairwise blocks start at 8 and 128)
    # over every axis choice, C-ordered and transposed; cells are ordinary
    # masses, exact +0.0 and -0.0, masses of at most 1e-15 and ones, and some
    # tables are all zeros of both signs, whose entropy must stay +0.0
    rng = np.random.default_rng(60)
    kinds = np.array([0.0, -0.0, 1.0, 1e-16, 1e-300])
    checked = 0
    for n in [*range(1, 20), 100, 127, 128, 129, 1000]:
        for shape in ((n,), (3, n), (n, 3), (2, n, 3), (5, 2, n)):
            for zeros_only in (False, True):
                x = rng.random(shape) * kinds[rng.integers(0, len(kinds), size=shape)]
                if zeros_only:
                    x = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
                for table in (x, x.T):
                    axes = [None, *range(table.ndim)]
                    if table.ndim > 1:
                        axes.append((-2, -1))
                    for axis in axes:
                        got = np.asarray(_entropy_nats(table, axis=axis))
                        ref = np.asarray(ref_negating_entropy_nats(table, axis=axis))
                        assert got.tobytes() == ref.tobytes()
                        checked += 1
    assert checked > 1000
    for p in ([1.0, 0.0], [1.0, -0.0], [0.0, 1.0, 0.0], [1.0]):
        assert math.copysign(1.0, _entropy_nats(p)) == 1.0
        assert math.copysign(1.0, entropy(DiscreteDistribution(p))) == 1.0


def _signed_terms(rng, k, n):
    """A (k, n) table of terms: signed values over 60 orders of magnitude
    with exact +0.0 and -0.0 mixed in, a column of -0.0 only, a column of
    zeros of both signs, and a column whose terms cancel in pairs."""
    x = rng.standard_normal((k, n)) * np.exp(rng.uniform(-70.0, 70.0, (k, n)))
    x[rng.random((k, n)) < 0.3] = 0.0
    x[rng.random((k, n)) < 0.2] = -0.0
    if n > 1:
        x[:, 0] = -0.0
        x[:, 1] = np.where(rng.random(k) < 0.5, -0.0, 0.0)
    if n > 2:
        x[:, 2] = rng.random(k)
        x[1::2, 2] = -x[0:k - 1:2, 2]
    return x


def test_pairwise_sum_follows_add_reduce_over_a_contiguous_axis():
    # every k from 1 to 300 crosses numpy's orders: left to right below 8
    # terms, eight interleaved partial sums up to 128, halving above; the
    # terms lie along the leading axis, numpy's along a contiguous last one
    rng = np.random.default_rng(70)
    for k in range(1, 301):
        for n in (1, 2, 5):
            x = _signed_terms(rng, k, n)
            want = np.add.reduce(np.ascontiguousarray(x.T), axis=-1)
            got = _pairwise_sum(x, np.empty(n))
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (k, n)


def test_running_sum_follows_add_reduce_over_a_strided_axis():
    # numpy sums an axis that is not its innermost loop row by row
    rng = np.random.default_rng(71)
    for k in range(1, 301):
        for n in (2, 5):
            x = _signed_terms(rng, k, n)
            want = np.add.reduce(x, axis=0)
            got = _running_sum(x, np.empty(n))
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (k, n)


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 1), (4, 1), (7, 1)])
def test_constant_channel_is_read_only_one_hot(shape):
    ch = Channel.constant(shape[0])
    assert ch.matrix.tobytes() == Channel(np.ones(shape)).matrix.tobytes()
    assert ch.matrix.shape == shape and ch.matrix.dtype == np.float64
    assert not ch.matrix.flags.writeable
    with pytest.raises(ValueError):
        ch.matrix[0, 0] = 0.5


@pytest.mark.parametrize("args", [(0,), (-1,), (-2,), (-7,), (-(1 << 40),)])
def test_constant_channel_rejects_empty_matrix(args):
    with pytest.raises(InvalidDistributionError, match="nonempty"):
        Channel.constant(*args)


def _clamped(value):
    """("ok", bytes of the clamped value) or ("raise", the error's message)."""
    try:
        return "ok", np.asarray(_clamp_mi(value), dtype=float).tobytes()
    except MalformedJointError as e:
        return "raise", str(e)


TOL = NEGATIVE_MI_TOL


@settings(deadline=None, max_examples=500)
@given(x=st.one_of(
    st.floats(),   # NaN, infinities, subnormals and both zeros included
    st.floats(min_value=-4 * TOL, max_value=4 * TOL),
    st.sampled_from([0.0, -0.0, math.nan, -math.inf, -TOL, math.nextafter(-TOL, 0.0),
                     math.nextafter(-TOL, -1.0), -1e-300, 5e-324])))
def test_clamp_mi_float_and_one_element_array_agree(x):
    # the float path skips numpy; it must give the array path's bytes, and
    # its error with the same message, for floats and numpy scalars alike
    ref = _clamped(np.array([x]))
    assert _clamped(x) == _clamped(np.float64(x)) == ref
    assert ref[0] == ("raise" if x < -TOL else "ok")
    if ref[0] == "ok":
        assert type(_clamp_mi(x)) is float and type(_clamp_mi(np.float64(x))) is float
        assert math.copysign(1.0, _clamp_mi(x)) == 1.0   # -0.0 and NaN clamp to +0.0
