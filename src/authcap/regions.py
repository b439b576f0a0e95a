"""Authentication-system model, achievable rate triples, and Pareto frontiers.

A model is a source plus an enrollment channel and the two
authentication-channel marginals (main decoder's and eavesdropper's).  Rate
corners (secret-key, storage, privacy-leakage) are evaluated by closing the
chain auxiliary - enrollment observation - source - (main, eavesdropper)
over a test channel, either with one auxiliary variable (the computable
form for degraded / less-noisy channel pairs) or with two auxiliaries at
tiny alphabets (numerical evidence that one suffices).  Both come from the
pairwise informations of one kernel: a two-auxiliary corner is the
one-auxiliary corner of U with rs lowered and rl raised by
I(V;Y) - I(V;Z), which a less-noisy pair keeps nonnegative for every V.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .classifier import DEFAULT_TRIALS, ChannelOrderVerdict, Relation, classify_ac
from .infotheory import (
    Channel,
    DiscreteDistribution,
    InfoUnit,
    JointDistribution,
    LN2,
    _blocks,
    _channel_stack,
    _clamp_mi,
    _jsonable,
    _mi2_nats,
)

DOMINANCE_TOL = 1e-9
_COMPARE_CELLS = 1 << 16   # cells per compare_regions buffer: 512 KB of float64

Y_FAVOR = (Relation.DEGRADED_Z_WRT_Y, Relation.LESS_NOISY_Y_OVER_Z)
Z_FAVOR = (Relation.DEGRADED_Y_WRT_Z, Relation.LESS_NOISY_Z_OVER_Y)


class UnsupportedClassError(ValueError):
    """The channel-pair ordering does not select a computable region."""


class CardinalityError(ValueError):
    """An auxiliary alphabet exceeds its cap."""


@dataclass
class AuthModel:
    """Source, enrollment channel, and the two authentication-channel marginals.

    Only marginals enter: the region depends on the pair law solely through
    them, so no joint main/eavesdropper conditional is accepted.  The
    channel-pair ordering is classified once at construction, and the
    source-side laws every corner reuses (joint of source and enrollment
    observation, marginal of the latter, I(X;Z)) are computed once.
    """

    px: DiscreteDistribution
    ec: Channel
    ac_y: Channel
    ac_z: Channel
    verdict: ChannelOrderVerdict = field(init=False)
    classifier_trials: int = DEFAULT_TRIALS
    classifier_seed: int = 0

    def __post_init__(self):
        nx = len(self.px)
        for name, ch in (("ec", self.ec), ("ac_y", self.ac_y), ("ac_z", self.ac_z)):
            if ch.num_inputs != nx:
                raise ValueError(f"{name} expects {ch.num_inputs} inputs, source has {nx}")
        self._p_xa = self.px.probs[:, None] * self.ec.matrix
        self._p_xa.setflags(write=False)
        self._p_xt = self._p_xa.sum(axis=0)
        self._p_xt.setflags(write=False)
        self._i_xz = _mi2_nats(self.px.probs[:, None] * self.ac_z.matrix)
        self.verdict = classify_ac(self.ac_y, self.ac_z,
                                   trials=self.classifier_trials, seed=self.classifier_seed)

    @property
    def nx(self) -> int:
        return len(self.px)

    @property
    def n_xt(self) -> int:
        return self.ec.num_outputs

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for a in (self.px.probs, self.ec.matrix, self.ac_y.matrix, self.ac_z.matrix):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
            h.update(repr(a.shape).encode())
        return h.hexdigest()

    def i_xz_nats(self) -> float:
        return self._i_xz

    @staticmethod
    def binary_hsm(p: float, q: float, eps: float, **kwargs) -> "AuthModel":
        """Uniform binary source, symmetric enrollment noise p, erasure-q main
        channel, symmetric eavesdropper noise eps."""
        return AuthModel(DiscreteDistribution.uniform(2), Channel.bsc(p),
                         Channel.bec(q), Channel.bsc(eps), **kwargs)

    @staticmethod
    def binary_symmetric(p: float, eps_y: float, eps_z: float, **kwargs) -> "AuthModel":
        """Uniform binary source with symmetric channels everywhere."""
        return AuthModel(DiscreteDistribution.uniform(2), Channel.bsc(p),
                         Channel.bsc(eps_y), Channel.bsc(eps_z), **kwargs)


def _require_y_favor(model: AuthModel, what: str):
    """Unless the pair is degraded or less noisy in the main channel's favor,
    raise UnsupportedClassError naming the verdict and `what` needs one."""
    relation = model.verdict.relation
    if relation not in Y_FAVOR:
        raise UnsupportedClassError(
            f"{what} needs a degraded or less-noisy pair in the main channel's favor; "
            f"classifier found {relation.value}")


class _ChainLaws(NamedTuple):
    """Pairwise laws of the chain U - Xt - X - (Y, Z) for a stack of test
    channels; the laws after p_xt have a leading stack axis."""

    p_xa: np.ndarray   # joint (X, Xt)
    p_xt: np.ndarray   # marginal of Xt
    p_au: np.ndarray   # joints (Xt, U)
    p_xu: np.ndarray   # joints (X, U)
    p_yu: np.ndarray   # joints (Y, U)
    p_zu: np.ndarray   # joints (Z, U)


def _chain_laws(model: AuthModel, tests: np.ndarray) -> _ChainLaws:
    """Close the chain over a stack tests[b, xt, u] of test-channel matrices
    on the enrollment alphabet."""
    p_xa, p_xt = model._p_xa, model._p_xt
    p_au = p_xt[:, None] * tests
    p_xu = p_xa @ tests
    return _ChainLaws(p_xa, p_xt, p_au, p_xu,
                      model.ac_y.matrix.T @ p_xu, model.ac_z.matrix.T @ p_xu)


@dataclass
class RateCorner:
    """Achievable (secret-key, storage, privacy-leakage) triple, in the unit
    its builder gives (see RegionBoundary)."""

    rs: float
    rj: float
    rl: float
    test_channel: Channel = None
    extras: dict = field(default_factory=dict)

    def as_tuple(self):
        return (self.rs, self.rj, self.rl)


@dataclass
class RegionBoundary:
    """Pareto-filtered corner set with reproducibility metadata.  `unit` is
    the one record of the corners' unit, set by the builder: bits for
    discrete and binary models, nats for Gaussian ones."""

    corners: list
    unit: InfoUnit
    metadata: dict = field(default_factory=dict)

    def to_unit(self, unit: InfoUnit) -> "RegionBoundary":
        """This region in `unit`: itself, or a copy with every rate and the
        unclamped key rate times ln 2 (bits to nats) or 1 / ln 2."""
        if unit == self.unit:
            return self
        k = LN2 if unit == InfoUnit.NATS else 1.0 / LN2

        def scaled(c):
            extras = {key: v * k if key == "rs_unclamped" else v for key, v in c.extras.items()}
            return replace(c, rs=c.rs * k, rj=c.rj * k, rl=c.rl * k, extras=extras)

        return RegionBoundary([scaled(c) for c in self.corners], unit, dict(self.metadata))

    def to_csv_text(self) -> str:
        meta = self.metadata
        lines = [
            "# version=%s config_hash=%s seed=%s" % (
                meta.get("version", ""), meta.get("config_hash", ""), meta.get("seed", "")),
            "rs,rj,rl,unit,param,u_size,test_channel",
        ]
        for c in self.corners:
            u_size, tc = "", ""
            if c.test_channel is not None:
                u_size = c.test_channel.num_outputs
                tc = ";".join(repr(float(v)) for v in c.test_channel.matrix.ravel())
            lines.append(",".join([
                repr(float(c.rs)), repr(float(c.rj)), repr(float(c.rl)),
                self.unit.value, str(c.extras.get("param", "")), str(u_size), tc,
            ]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        corners = []
        for c in self.corners:
            d = {"rs": float(c.rs), "rj": float(c.rj), "rl": float(c.rl), **_jsonable(c.extras)}
            if c.test_channel is not None:
                d["test_channel"] = _jsonable(c.test_channel)
            corners.append(d)
        return {"unit": self.unit.value, "metadata": _jsonable(self.metadata),
                "corners": corners}


# ---------------------------------------------------------------------------
# Rate evaluation
# ---------------------------------------------------------------------------

def _infos_nats(*joints):
    """Mutual information in nats between the row and column variables of
    each stack of joints j[b, rows, cols], an array over the stack per
    argument; stacks with the same number of rows go through one
    `_mi2_nats` call, so when all share it (the usual case) the joints are
    stacked once and the result is one array with a row per argument."""
    row_counts = {j.shape[1] for j in joints}
    if len(row_counts) == 1:
        return _mi2_nats(np.array(joints))
    infos = [None] * len(joints)
    for rows in row_counts:
        which = [k for k, j in enumerate(joints) if j.shape[1] == rows]
        for k, mi in zip(which, _mi2_nats(np.array([joints[k] for k in which]))):
            infos[k] = mi
    return infos


def _rates_nats(model: AuthModel, tu: np.ndarray, tv: np.ndarray = None):
    """(rs_raw, rj, rl) in nats, each an array over a stack tu[b, xt, u] of
    test channels, or over pairs of it and a stack tv[b, u, v] of channels
    from U to a second auxiliary V.

    Every one-auxiliary quantity reduces to the pairwise mutual
    informations I(U;Xt), I(U;Y), I(U;Z) and I(U;X) along the chain, so
    only small 2-D joints are formed.  Along V - U - Xt - X - (Y, Z),
    I(U;Y|V) = I(U;Y) - I(V;Y), I(X;Y|V) = I(X;Y) - I(V;Y) and
    I(X;U,Y) = I(X;Y) + I(U;X) - I(U;Y), and the same with Z in place of Y.
    So a two-auxiliary corner is the one-auxiliary corner of its U with rs
    lowered and rl raised by d = I(V;Y) - I(V;Z), V being reached from Xt
    through tu @ tv; of V's joints only those with Y and Z are formed.
    """
    laws = _chain_laws(model, tu)
    i_u_xt, i_u_y, i_u_z, i_u_x = _infos_nats(laws.p_au, laws.p_yu, laws.p_zu, laws.p_xu)
    rs_raw = i_u_y - i_u_z
    rj = _clamp_mi(i_u_xt - i_u_y)
    rl = i_u_x - i_u_y + model.i_xz_nats()
    if tv is not None:
        p_xv = laws.p_xa @ (tu @ tv)
        i_v_y, i_v_z = _infos_nats(model.ac_y.matrix.T @ p_xv, model.ac_z.matrix.T @ p_xv)
        d = i_v_y - i_v_z
        rs_raw, rl = rs_raw - d, rl + d
    return rs_raw, rj, np.where(rl > 0.0, rl, 0.0)


def _rates(model: AuthModel, tu: np.ndarray, tv: np.ndarray = None) -> np.ndarray:
    """Rates of a stack tu[b, xt, u] of test channels, one-auxiliary, or
    two-auxiliary with tv[b, u, v] the channels to V: a (B, 4) array of
    (rs clamped at 0, rj, rl, unclamped rs) in bits.  Evaluated in blocks
    of at most 2^22 cells of the pairwise joints a row needs: those of U,
    and of V if given, with Xt, Y, Z and X."""
    stacks = (tu,) if tv is None else (tu, tv)
    row_cells = sum(s.shape[2] for s in stacks) * (
        model.n_xt + model.ac_y.num_outputs + model.ac_z.num_outputs + model.nx)
    out = np.empty((len(tu), 4))
    for blk in _blocks(len(tu), row_cells):
        rs_raw, rj, rl = _rates_nats(model, *(s[blk] for s in stacks))
        out[blk, 0] = np.where(rs_raw > 0.0, rs_raw, 0.0)
        out[blk, 1], out[blk, 2], out[blk, 3] = rj, rl, rs_raw
    return InfoUnit.BITS.from_nats(out)


def _rate_corner(rates, test_channel: Channel = None, **extras) -> RateCorner:
    """Corner from one row (rs, rj, rl, unclamped rs) of a `_rates` array;
    the unclamped key rate and, given a test channel, |U| go into the
    extras."""
    rs, rj, rl, rs_raw = rates
    sizes = {} if test_channel is None else {"u_size": test_channel.num_outputs}
    return RateCorner(rs, rj, rl, test_channel=test_channel,
                      extras={"rs_unclamped": rs_raw, **sizes, **extras})


def _front(rates: np.ndarray, params, stacks=()) -> list:
    """Corners of the rows of a (B, 4) `_rates` array that no other row
    dominates, in `_pareto_indices` order.  Row i gets param params[i] and,
    if `stacks` is given, the test channel of row i of the `_channel_stack`
    results `stacks` laid end to end; only kept rows get a Channel."""
    starts = list(itertools.accumulate((len(s) for s in stacks), initial=0))

    def test_channel(i):
        g = bisect.bisect_right(starts, i) - 1
        return Channel._of_checked(stacks[g][i - starts[g]])

    return [_rate_corner(rates[i].tolist(), test_channel(i) if stacks else None,
                         param=params[i])
            for i in _pareto_indices(rates)]


def eval_one_aux(model: AuthModel, test: Channel) -> RateCorner:
    """Rate corner in bits for a single auxiliary obtained through `test`.

    rs = I(U;Y) - I(U;Z) clamped at 0 (equals I(Y;U|Z) when the
    eavesdropper's channel is a degraded version of the main one),
    rj = I(U;Xt) - I(U;Y), rl = I(U;X) - I(U;Y) + I(X;Z).
    """
    if test.num_inputs != model.n_xt:
        raise ValueError(f"test channel expects {test.num_inputs} inputs, "
                         f"enrollment alphabet has {model.n_xt}")
    if test.num_outputs > model.n_xt + 3:
        raise CardinalityError(
            f"|U| = {test.num_outputs} exceeds cap {model.n_xt + 3}")
    _require_y_favor(model, "one-auxiliary evaluation")

    return _rate_corner(_rates(model, test.matrix[None])[0].tolist(), test)


def eval_two_aux(model: AuthModel, test_u: Channel, test_v: Channel,
                 max_u: int = 4, max_v: int = 3) -> RateCorner:
    """Rate corner in bits for the two-auxiliary chain V - U - Xt - X - (Y, Z).

    rs = I(U;Y|V) - I(U;Z|V), rj = I(U;Xt) - I(U;Y) and
    rl = I(X;U,Y) - I(X;Y|V) + I(X;Z|V): the corner of eval_one_aux(test_u)
    with rs lowered and rl raised by I(V;Y) - I(V;Z).  Alphabets beyond
    `max_u`/`max_v` raise CardinalityError.  With a constant V this
    collapses to eval_one_aux within rounding.
    """
    if test_u.num_inputs != model.n_xt:
        raise ValueError("test_u input alphabet does not match enrollment observations")
    if test_v.num_inputs != test_u.num_outputs:
        raise ValueError("test_v input alphabet must equal test_u output alphabet")
    if test_u.num_outputs > max_u or test_v.num_outputs > max_v:
        raise CardinalityError(
            f"auxiliary caps exceeded: |U|={test_u.num_outputs} (max {max_u}), "
            f"|V|={test_v.num_outputs} (max {max_v})")

    rates = _rates(model, test_u.matrix[None], test_v.matrix[None])[0]
    return _rate_corner(rates.tolist(), test_u, v_size=test_v.num_outputs,
                        v_channel=test_v.matrix.tolist())


def build_joint(model: AuthModel, test: Channel,
                degraded_witness: Channel = None) -> JointDistribution:
    """Five-axis joint (U, Xt, X, Y, Z) under the auxiliary chain.

    By default the two authentication observations are coupled independently
    given the source (the region only sees marginals).  Passing the
    intermediate channel of a degradedness certificate couples the
    eavesdropper's observation through the main one instead, which realises
    the full Markov chain used by degraded-order properties.
    """
    z = (model.ac_z.matrix[None, None, :, None, :] if degraded_witness is None
         else degraded_witness.matrix[None, None, None, :, :])
    return JointDistribution(test.matrix.T[:, :, None, None, None]
                             * model._p_xa.T[None, :, :, None, None]
                             * model.ac_y.matrix[None, None, :, :, None]
                             * z)


def zero_key_region(model: AuthModel) -> RegionBoundary:
    """Degenerate region in bits: zero key, any storage, leakage floor I(X;Z)."""
    i_xz = InfoUnit.BITS.from_nats(model.i_xz_nats())
    corner = RateCorner(0.0, 0.0, i_xz,
                        test_channel=Channel.constant(model.n_xt),
                        extras={"param": "zero_key", "u_size": 1})
    return RegionBoundary([corner], InfoUnit.BITS,
                          metadata={"region": "zero_key", "model_hash": model.content_hash(),
                                    "verdict": model.verdict})


# ---------------------------------------------------------------------------
# Pareto machinery
# ---------------------------------------------------------------------------

def _pareto_indices(rates: np.ndarray) -> list:
    """Indices of the rows (rs, rj, rl, ...) of `rates` that no other row
    dominates in (higher rs, lower rj, lower rl), in (-rs, rj, rl) order;
    of exact ties, the first row is kept."""
    order = np.lexsort((rates[:, 2], rates[:, 1], -rates[:, 0]))
    kept = []
    stair_rj = []   # strictly increasing
    stair_rl = []   # strictly decreasing
    for i, (rs, rj, rl) in zip(order.tolist(), rates[order, :3].tolist()):
        pos = bisect.bisect_right(stair_rj, rj) - 1
        if pos >= 0 and stair_rl[pos] <= rl:
            continue
        kept.append(i)
        j = bisect.bisect_left(stair_rj, rj)
        while j < len(stair_rj) and stair_rl[j] >= rl:
            stair_rj.pop(j)
            stair_rl.pop(j)
        stair_rj.insert(j, rj)
        stair_rl.insert(j, rl)
    return kept


def _corner_rates(corners) -> np.ndarray:
    return np.array([c.as_tuple() for c in corners], dtype=float).reshape(-1, 3)


def pareto_filter(corners):
    """Remove corners dominated in (higher rs, lower rj, lower rl).

    Deterministic: corners are sorted by (-rs, rj, rl) first, so the result
    does not depend on input order; exact ties collapse to the first sorted
    representative.  Idempotent.
    """
    return [corners[i] for i in _pareto_indices(_corner_rates(corners))]


def region_contains(boundary: RegionBoundary, point, tol: float = DOMINANCE_TOL) -> bool:
    """Whether (rs, rj, rl), in the boundary's unit (`RegionBoundary.unit`),
    is achievable per some corner of the boundary."""
    rs, rj, rl = point
    c = _corner_rates(boundary.corners)
    return bool(np.any((rs <= c[:, 0] + tol) & (rj >= c[:, 1] - tol) & (rl >= c[:, 2] - tol)))


def compare_regions(a: RegionBoundary, b: RegionBoundary) -> float:
    """One-sided excess of region a over region b.

    For each corner of a, the smallest dominance slack any corner of b
    leaves; the maximum of those (clamped at 0) is returned.  0 means every
    corner of a is dominated by b within floating tolerance; a non-finite
    rate in either region raises ValueError.  Only the corners of a's own
    Pareto front are compared, which is exact: fl(x - y) is monotone in each
    argument, so a corner that another corner of a dominates never leaves a
    larger smallest slack.  They are compared in blocks of at most
    _COMPARE_CELLS slacks, so memory does not grow with |a| x |b|.
    """
    if a.unit != b.unit:
        raise ValueError(f"unit mismatch: {a.unit.value} vs {b.unit.value}")
    pa, pb = _corner_rates(a.corners), _corner_rates(b.corners)
    for name, p in (("a", pa), ("b", pb)):
        if not np.isfinite(p).all():
            raise ValueError(f"region {name} has a non-finite rate")
    if not len(pa):
        return 0.0
    if not len(pb):
        return float("inf")
    pa = pa[_pareto_indices(pa)]
    rs, rj, rl = pb.T.copy()
    # blocks of a's front against all of b, in two reused cache-sized buffers
    rows = max(1, _COMPARE_CELLS // len(rs))
    s, t = np.empty((2, min(rows, len(pa)), len(rs)))
    worst = -np.inf
    for lo in range(0, len(pa), rows):
        blk = pa[lo:lo + rows]
        sb, tb = s[:len(blk)], t[:len(blk)]
        np.subtract(rj, blk[:, 1, None], out=sb)
        np.maximum(sb, np.subtract(rl, blk[:, 2, None], out=tb), out=sb)
        np.maximum(sb, np.subtract(blk[:, 0, None], rs, out=tb), out=sb)
        worst = max(worst, float(sb.min(axis=1).max()))
    return max(0.0, worst)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _beta_grid(step: float) -> list:
    """Symmetric test-channel crossovers 0, step, 2 step, ... below 1/2, then 1/2."""
    betas = np.arange(0.0, 0.5, step).tolist()
    betas.append(0.5)
    return betas


def _bsc_stack(betas) -> np.ndarray:
    """Checked stack of the binary symmetric test channels of crossovers `betas`."""
    b = np.asarray(betas, dtype=float)
    return _channel_stack(np.stack([1.0 - b, b, b, 1.0 - b], axis=1).reshape(-1, 2, 2))


@dataclass
class SamplerConfig:
    """Test-channel sampling plan for sweep_region.

    The structured family (symmetric test channels on a beta grid) only
    applies to binary enrollment alphabets, and a `beta_grid_step` of 0 or
    less (or None) turns it off; random samples draw each channel row from
    the flat Dirichlet measure, sweeping the auxiliary size.
    """

    random_samples: int = 100_000
    beta_grid_step: float = 1e-3
    u_sizes: tuple = None
    seed: int = 0

    def sizes_for(self, n_xt: int) -> tuple:
        if self.u_sizes is not None:
            return tuple(self.u_sizes)
        return tuple(range(1, n_xt + 4))


def sweep_region(model: AuthModel, config: SamplerConfig = None) -> RegionBoundary:
    """Union over sampled test channels, Pareto-filtered, in bits.

    Deterministic given the sampler seed.  Raises UnsupportedClassError when
    the classifier verdict does not favor the main channel, CardinalityError
    for auxiliary sizes outside [1, |Xt| + 3], and ValueError for a negative
    sample count, random samples with no auxiliary size, or a plan with
    neither a beta grid row nor a random one, before anything is sampled.
    """
    if config is None:
        config = SamplerConfig()
    _require_y_favor(model, "region sweep")
    sizes = config.sizes_for(model.n_xt)
    cap = model.n_xt + 3
    if any(not 1 <= u <= cap for u in sizes):
        raise CardinalityError(f"auxiliary sizes u_sizes={list(sizes)} outside [1, {cap}]")
    if config.random_samples < 0:
        raise ValueError(f"random_samples={config.random_samples} is negative")
    beta_grid = model.n_xt == 2 and (config.beta_grid_step or 0.0) > 0.0
    if config.random_samples and not sizes:
        raise ValueError(f"random_samples={config.random_samples} with no u_sizes to draw")
    if not (beta_grid or config.random_samples):
        raise ValueError("the plan samples nothing: no beta grid and no random samples")

    # One checked stack of test channels per group (the beta grid, then each
    # |U|) and the param of each row; the draws take the numbers one
    # rng.dirichlet per sample would.
    stacks, params = [], []
    if beta_grid:
        params = _beta_grid(config.beta_grid_step)
        stacks.append(_bsc_stack(params))
    rng = np.random.default_rng(config.seed)
    if config.random_samples:
        per, rem = divmod(config.random_samples, len(sizes))
        for si, u in enumerate(sizes):
            k = per + (1 if si < rem else 0)
            if k:
                stacks.append(_channel_stack(rng.dirichlet(np.ones(u), size=(k, model.n_xt))))
        params += range(config.random_samples)

    rates = np.concatenate([_rates(model, tests) for tests in stacks])
    corners = _front(rates, params, stacks)

    meta = {"model_hash": model.content_hash(), "seed": config.seed,
            "sampler": {"random_samples": config.random_samples,
                        "beta_grid_step": config.beta_grid_step,
                        "u_sizes": list(sizes)},
            "verdict": model.verdict,
            "corners_sampled": len(rates)}
    return RegionBoundary(corners, InfoUnit.BITS, metadata=meta)


def two_aux_random_search(model: AuthModel, n_pairs: int, seed: int = 0,
                          max_u: int = 4, max_v: int = 3):
    """Random (U, V) test-channel pairs for the two-auxiliary region.

    Draw order: every pair's |U| (one `rng.integers` call over the pairs),
    then every pair's |V| (one more); then, for each (|U|, |V|) that occurs,
    in ascending order, the U-channels of its pairs (one `rng.dirichlet`
    call, the pairs in index order) and then their V-channels (one more).
    Each group is evaluated as one stack.  Returns the raw corner list in
    bits, in pair order (not Pareto-filtered) so containment checks can
    cover every sampled pair.  Raises CardinalityError for max_u or max_v
    below 1 and ValueError for a negative n_pairs, before anything is
    drawn.
    """
    _require_y_favor(model, "two-auxiliary search")
    if max_u < 1 or max_v < 1:
        raise CardinalityError(f"auxiliary sizes max_u={max_u}, max_v={max_v} must be >= 1")
    if n_pairs < 0:
        raise ValueError(f"n_pairs={n_pairs} is negative")
    rng = np.random.default_rng(seed)
    us = rng.integers(1, max_u + 1, size=n_pairs)
    vs = rng.integers(1, max_v + 1, size=n_pairs)
    # pairs by |U|, then |V|, then index; a group starts where either size
    # changes, the first at 0, so np.split's first piece is empty
    order = np.lexsort((vs, us))
    starts = np.flatnonzero(np.diff(us[order], prepend=0) | np.diff(vs[order], prepend=0))
    corners = [None] * n_pairs
    for indices in np.split(order, starts)[1:]:
        u, v = int(us[indices[0]]), int(vs[indices[0]])
        tu = _channel_stack(rng.dirichlet(np.ones(u), size=(len(indices), model.n_xt)))
        tv = _channel_stack(rng.dirichlet(np.ones(v), size=(len(indices), u)))
        for idx, test, rates in zip(indices.tolist(), tu, _rates(model, tu, tv).tolist()):
            corners[idx] = _rate_corner(rates, Channel._of_checked(test),
                                        param=idx, v_size=v)
    return corners
