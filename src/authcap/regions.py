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
import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .classifier import DEFAULT_TRIALS, ChannelOrderVerdict, Relation, classify_ac
from .infotheory import (
    Channel,
    DiscreteDistribution,
    InfoUnit,
    LN2,
    _blocks,
    _channel_stack,
    _clamp_mi,
    _jsonable,
    _mi2_nats,
    _pairwise_sum,
    _positive,
    _running_sum,
    _xlogx,
)

_MAX_U, _MAX_V = 4, 3      # auxiliary caps of the two-auxiliary search
# compare_regions bounds each corner of a's smallest slack by the corners of
# b nearest it in rs, and compares exactly, block by block in descending bound
# order, only until a block's largest bound is at most the running maximum (or
# 0): a bound is a minimum of the same slack floats over part of b, so no later
# corner can raise the result.  So few rows are compared that two buffers of
# 2^14 cells (128 KB of float64 each) do.
_COMPARE_CELLS = 1 << 14   # cells per compare_regions buffer
_COMPARE_NEAR = 8          # corners of b on each side of a corner's rs that bound its slack
_PARETO_ROWS = 1 << 12     # sorted rows _pareto_indices turns into Python floats at once
# _rates scores a stack in blocks of 2^16 cells of chain joints (512 KB of
# float64).  While it runs, `_infos_nats` holds a buffer of a block's cells
# and marginals and their p log p, up to about five times the joints, so a
# cache-sized block keeps it in cache and its memory off the stack's size.
_RATE_CELLS = 1 << 16

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
    observation, marginal of the latter, I(X;Z)) are computed once.  A
    private record keeps the rates of the last `sweep_region` front's
    corners with their test channels (`_FrontRates`).
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
        self._front_rates = None
        self.verdict = classify_ac(self.ac_y, self.ac_z,
                                   trials=self.classifier_trials, seed=self.classifier_seed)

    @property
    def nx(self) -> int:
        return len(self.px)

    @property
    def n_xt(self) -> int:
        return self.ec.num_outputs

    def content_hash(self) -> str:
        import hashlib   # here, not at module level: a model build never hashes

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


@dataclass
class BinaryModelParams:
    """Parameters (p, q, eps) of `AuthModel.binary_hsm` plus the beta grid
    step of its closed form, checked without loading `authcap.binary`."""

    p: float
    q: float
    eps: float
    beta_step: float = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"enrollment crossover p={self.p} outside [0, 1/2]")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"erasure probability q={self.q} outside [0, 1]")
        if not 0.0 <= self.eps <= 0.5:
            raise ValueError(f"eavesdropper crossover eps={self.eps} outside [0, 1/2]")
        if not 0.0 < self.beta_step <= 0.5:
            raise ValueError(f"beta_step={self.beta_step} outside (0, 1/2]")

    def model(self, **kwargs) -> AuthModel:
        return AuthModel.binary_hsm(self.p, self.q, self.eps, **kwargs)


def _require_y_favor(verdict: ChannelOrderVerdict, what: str):
    """Unless the pair is degraded or less noisy in the main channel's favor,
    raise UnsupportedClassError naming the verdict and `what` needs one."""
    relation = verdict.relation
    if relation not in Y_FAVOR:
        raise UnsupportedClassError(
            f"{what} needs a degraded or less-noisy pair in the main channel's favor; "
            f"classifier found {relation.value}")


class _ChainLaws(NamedTuple):
    """The four joints of U with the other variables of the chain
    U - Xt - X - (Y, Z) for a stack of test channels, each with a leading
    stack axis, in the order `_infos_nats(*laws)` scores them."""

    p_au: np.ndarray   # joints (Xt, U)
    p_yu: np.ndarray   # joints (Y, U)
    p_zu: np.ndarray   # joints (Z, U)
    p_xu: np.ndarray   # joints (X, U)


def _chain_laws(model: AuthModel, tests: np.ndarray) -> _ChainLaws:
    """Close the chain over a stack tests[b, xt, u] of test-channel matrices
    on the enrollment alphabet (ValueError if not): the one builder of the
    chain laws, for a sweep's stacks, a single corner's stack of one, V's
    composite channels and the simulator's tables alike."""
    if tests.shape[-2] != model.n_xt:
        raise ValueError(f"test channel expects {tests.shape[-2]} inputs, "
                         f"enrollment alphabet has {model.n_xt}")
    p_xu = model._p_xa @ tests
    return _ChainLaws(model._p_xt[:, None] * tests, model.ac_y.matrix.T @ p_xu,
                      model.ac_z.matrix.T @ p_xu, p_xu)


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
    each stack of joints j[b, rows, cols] (all with the same B), as an
    array with a row per argument, in the bits `_mi2_nats` gives the
    joints of one shape stacked.

    Each group of S joints of one shape, r rows by c columns, is copied
    once into a buffer with the stack innermost: r*c cells, then the r row
    marginals, then the c column marginals, each an S*B vector.  `_xlogx`
    runs once over every group's buffer, and every sum is an elementwise
    add of whole vectors along the leading axis, in the order np.add.reduce
    takes over the stack-major joints: `_pairwise_sum` for the row
    marginals, the cells and the three sums of p log p (numpy reduces a
    contiguous last axis), `_running_sum` for the column marginals (a
    strided axis, row by row), except at c = 1, where that axis is
    contiguous too.  So numpy's cost per joint row becomes a cost per
    term, and one path serves every shape."""
    b = len(joints[0])
    groups = {}
    for k, j in enumerate(joints):
        groups.setdefault(j.shape[1:], []).append(k)
    infos = np.empty((len(joints), b))   # rows in group order
    row = 0
    for (r, c), ks in groups.items():
        n = len(ks) * b
        buf = np.empty((r * c + r + c, n))
        cells = buf[:r * c].reshape(r, c, len(ks), b)
        for at, k in enumerate(ks):
            cells[:, :, at] = joints[k].transpose(1, 2, 0)
        cells = cells.reshape(r, c, n)
        _pairwise_sum(cells.swapaxes(0, 1), buf[r * c:r * c + r])
        (_pairwise_sum if c == 1 else _running_sum)(cells, buf[r * c + r:])
        x = _xlogx(buf)
        del buf, cells   # p is spent; freeing it makes room for the sums' partials
        mi = infos[row:row + len(ks)].reshape(n)
        s_rows, s_cols = np.empty((2, n))
        _pairwise_sum(x[:r * c], mi)
        _pairwise_sum(x[r * c:r * c + r], s_rows)
        _pairwise_sum(x[r * c + r:], s_cols)
        s_rows += s_cols
        mi -= s_rows
        row += len(ks)
        del x            # before the next group's buffer is allocated
    infos = _clamp_mi(infos)
    if len(groups) == 1:
        return infos
    return infos[np.argsort([k for ks in groups.values() for k in ks])]


class _FrontRates:
    """The rates of a sweep's front: row k of the (K, 4) bit array `rates`
    for read-only matrix tests[k], the test channel of the front's corner
    k.  `index` (a row's bytes to its row) is built on the first lookup and
    set only once complete, so a concurrent lookup sees all of it or builds
    its own."""

    __slots__ = ("rates", "tests", "index")

    def __init__(self, rates: np.ndarray, tests: list):
        self.rates, self.tests, self.index = rates, tests, None

    def lookup(self, row: bytes):
        """The rates of the front row with these bytes, as a list of floats,
        or None."""
        index = self.index
        if index is None:
            index = self.index = {t.tobytes(): k for k, t in enumerate(self.tests)}
        k = index.get(row)
        return None if k is None else self.rates[k].tolist()


def _rates_nats(model: AuthModel, tu: np.ndarray, tv: np.ndarray = None):
    """(rs clamped at 0, rj, rl, unclamped rs) in nats, each an array over a
    stack tu[b, xt, u] of test channels, or over pairs of it and a stack
    tv[b, u, v] of channels from U to a second auxiliary V.  Every
    information is `_infos_nats` over `_chain_laws`.

    Every one-auxiliary quantity reduces to the pairwise mutual
    informations I(U;Xt), I(U;Y), I(U;Z) and I(U;X) along the chain, so
    only small 2-D joints are formed.  Along V - U - Xt - X - (Y, Z),
    I(U;Y|V) = I(U;Y) - I(V;Y), I(X;Y|V) = I(X;Y) - I(V;Y) and
    I(X;U,Y) = I(X;Y) + I(U;X) - I(U;Y), and the same with Z in place of Y.
    So a two-auxiliary corner is the one-auxiliary corner of its U with rs
    lowered and rl raised by d = I(V;Y) - I(V;Z), V being reached from Xt
    through the composite test channel tu @ tv, whose chain laws give V's
    joints with Y and Z.  A V with one symbol is constant, so
    I(V;Y) = I(V;Z) = 0 and d is exactly 0: its rows are U's one-auxiliary
    rows, and no kernel runs for V.
    """
    if tv is not None and tv.shape == (len(tu), tu.shape[2], 1):
        tv = None
    i_u_xt, i_u_y, i_u_z, i_u_x = _infos_nats(*_chain_laws(model, tu))
    rs_raw = i_u_y - i_u_z
    rj = _clamp_mi(i_u_xt - i_u_y)
    rl = i_u_x - i_u_y + model.i_xz_nats()
    if tv is not None:
        i_v_y, i_v_z = _infos_nats(*_chain_laws(model, tu @ tv)[1:3])
        d = i_v_y - i_v_z
        rs_raw, rl = rs_raw - d, rl + d
    return _positive(rs_raw), rj, _positive(rl), rs_raw


def _rates(model: AuthModel, tu: np.ndarray, tv: np.ndarray = None) -> np.ndarray:
    """Rates of a stack tu[b, xt, u] of test channels, one-auxiliary, or
    two-auxiliary with tv[b, u, v] the channels to V: a (B, 4) array of
    (rs clamped at 0, rj, rl, unclamped rs) in bits.  Evaluated in blocks
    of at most `_RATE_CELLS` cells of the pairwise joints a row needs:
    those of U, and of V if given, with Xt, Y, Z and X."""
    stacks = (tu,) if tv is None else (tu, tv)
    row_cells = sum(s.shape[2] for s in stacks) * (
        model.n_xt + model.ac_y.num_outputs + model.ac_z.num_outputs + model.nx)
    out = np.empty((len(tu), 4))
    for blk in _blocks(len(tu), row_cells, _RATE_CELLS):
        out[blk, 0], out[blk, 1], out[blk, 2], out[blk, 3] = _rates_nats(
            model, *(s[blk] for s in stacks))
    return InfoUnit.BITS.from_nats(out)


def _single_rates(model: AuthModel, tu: np.ndarray, tv: np.ndarray = None) -> list:
    """The rates (rs clamped at 0, rj, rl, unclamped rs) in bits of one test
    channel tu, or of it with a channel tv from U to V, as floats.  With no
    V or a constant one, a channel on the enrollment alphabet (so a byte
    twin of another shape still meets `_chain_laws`' check) is looked up
    among the last sweep's front rows (`model._front_rates`), which the
    batched pass gave in the same bits; any other is `_rates_nats` on a
    stack of one."""
    front = model._front_rates
    if front is not None and tu.shape[0] == model.n_xt and (tv is None or tv.shape[1] == 1):
        rates = front.lookup(tu.tobytes())
        if rates is not None:
            return rates
    rates = _rates_nats(model, tu[None], None if tv is None else tv[None])
    return [float(r[0]) / LN2 for r in rates]


def _rate_corner(rates, test_channel: Channel = None, **extras) -> RateCorner:
    """Corner from one row (rs, rj, rl, unclamped rs) of a `_rates` array;
    the unclamped key rate and, given a test channel, |U| go into the
    extras."""
    rs, rj, rl, rs_raw = rates
    sizes = {} if test_channel is None else {"u_size": test_channel.num_outputs}
    return RateCorner(rs, rj, rl, test_channel=test_channel,
                      extras={"rs_unclamped": rs_raw, **sizes, **extras})


def _corners(rows: list, params, tests=None, v_size: int = None) -> list:
    """`_rate_corner` of each row (rs, rj, rl, unclamped rs) of a `_rates`
    array's `.tolist()`, row k with param params[k] and, given `tests`, the
    test channel over read-only matrix tests[k] and, given `v_size`, that
    |V|: the same corners, extras in the same key order, built in one pass."""
    if tests is None:
        return [RateCorner(rs, rj, rl, None, {"rs_unclamped": raw, "param": p})
                for (rs, rj, rl, raw), p in zip(rows, params)]
    if v_size is None:
        return [RateCorner(rs, rj, rl, Channel._of_checked(t),
                           {"rs_unclamped": raw, "u_size": t.shape[1], "param": p})
                for (rs, rj, rl, raw), p, t in zip(rows, params, tests)]
    return [RateCorner(rs, rj, rl, Channel._of_checked(t),
                       {"rs_unclamped": raw, "u_size": t.shape[1], "param": p, "v_size": v_size})
            for (rs, rj, rl, raw), p, t in zip(rows, params, tests)]


def _stack_rows(stacks, rows) -> list:
    """Row i of the stacks laid end to end, for each i in `rows`, as
    read-only matrices: one gather per stack that holds any of them."""
    rows = np.asarray(rows, dtype=np.intp)
    out = [None] * len(rows)
    lo = 0
    for s in stacks:
        hit = np.flatnonzero((rows >= lo) & (rows < lo + len(s)))
        if len(hit):
            got = s[rows[hit] - lo]
            got.setflags(write=False)
            for k, m in zip(hit.tolist(), got):
                out[k] = m
        lo += len(s)
    return out


def _front(rates: np.ndarray, params, stacks=()) -> list:
    """Corners of the rows of a (B, 4) `_rates` array that no other row
    dominates, in `_pareto_indices` order.  Row i gets param params[i] and,
    if `stacks` is given, the test channel of row i of the `_channel_stack`
    results `stacks` laid end to end; only kept rows get a Channel."""
    kept = _pareto_indices(rates)
    return _corners(rates[kept].tolist(), [params[i] for i in kept],
                    _stack_rows(stacks, kept) if stacks else None)


def eval_one_aux(model: AuthModel, test: Channel) -> RateCorner:
    """Rate corner in bits for a single auxiliary obtained through `test`.

    rs = I(U;Y) - I(U;Z) clamped at 0 (equals I(Y;U|Z) when the
    eavesdropper's channel is a degraded version of the main one),
    rj = I(U;Xt) - I(U;Y), rl = I(U;X) - I(U;Y) + I(X;Z).
    """
    if test.num_outputs > model.n_xt + 3:
        raise CardinalityError(
            f"|U| = {test.num_outputs} exceeds cap {model.n_xt + 3}")
    _require_y_favor(model.verdict, "one-auxiliary evaluation")

    return _rate_corner(_single_rates(model, test.matrix), test)


def eval_two_aux(model: AuthModel, test_u: Channel, test_v: Channel,
                 max_u: int = _MAX_U) -> RateCorner:
    """Rate corner in bits for the two-auxiliary chain V - U - Xt - X - (Y, Z).

    rs = I(U;Y|V) - I(U;Z|V), rj = I(U;Xt) - I(U;Y) and
    rl = I(X;U,Y) - I(X;Y|V) + I(X;Z|V): the corner of eval_one_aux(test_u)
    with rs lowered and rl raised by I(V;Y) - I(V;Z), V's informations being
    those of the composite test channel Xt -> V, test_u @ test_v.  Alphabets
    beyond |U| = `max_u` or |V| = _MAX_V raise CardinalityError.  A V with
    one symbol carries no information, so with it this is
    eval_one_aux(test_u) exactly, bit for bit, read from the model's record
    for a channel on the last sweep's front.
    """
    if test_v.num_inputs != test_u.num_outputs:
        raise ValueError("test_v input alphabet must equal test_u output alphabet")
    if test_u.num_outputs > max_u or test_v.num_outputs > _MAX_V:
        raise CardinalityError(
            f"auxiliary caps exceeded: |U|={test_u.num_outputs} (max {max_u}), "
            f"|V|={test_v.num_outputs} (max {_MAX_V})")

    return _rate_corner(_single_rates(model, test_u.matrix, test_v.matrix), test_u,
                        v_size=test_v.num_outputs, v_channel=test_v.matrix.tolist())


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
    of exact ties, the first row is kept.  The sorted rows are read as
    Python floats _PARETO_ROWS at a time, so the lists live at once stay
    that small however many rows there are."""
    order = np.lexsort((rates[:, 2], rates[:, 1], -rates[:, 0]))
    kept = []
    stair_rj = []   # strictly increasing
    stair_rl = []   # strictly decreasing
    for lo in range(0, len(order), _PARETO_ROWS):
        chunk = order[lo:lo + _PARETO_ROWS]
        for i, (rj, rl) in zip(chunk.tolist(), rates[chunk, 1:3].tolist()):
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


def _corner_rates(corners, what: str) -> np.ndarray:
    """The (rs, rj, rl) rows of `corners`; ValueError naming `what` if a rate
    is not finite (a NaN breaks the Pareto order and every slack)."""
    rates = np.fromiter(itertools.chain.from_iterable(c.as_tuple() for c in corners),
                        float, count=3 * len(corners)).reshape(-1, 3)
    if not np.isfinite(rates).all():
        raise ValueError(f"{what} has a non-finite rate")
    return rates


def pareto_filter(corners):
    """Remove corners dominated in (higher rs, lower rj, lower rl).

    Deterministic: corners are sorted by (-rs, rj, rl) first, so the result
    does not depend on input order; exact ties collapse to the first sorted
    representative.  Idempotent.  A non-finite rate raises ValueError.
    """
    return [corners[i] for i in _pareto_indices(_corner_rates(corners, "the corner list"))]


def _slack_bounds(pa: np.ndarray, rs: np.ndarray, rj: np.ndarray, rl: np.ndarray):
    """For each corner (rs, rj, rl) of pa, the smallest dominance slack the
    2 x _COMPARE_NEAR corners of b nearest it in rs leave, b's columns given
    sorted by rs: one `searchsorted` and one gather.  A minimum over part of
    b, so never below the corner's smallest slack over all of b."""
    near = np.searchsorted(rs, pa[:, 0])[:, None] + np.arange(-_COMPARE_NEAR, _COMPARE_NEAR)
    np.clip(near, 0, len(rs) - 1, out=near)
    slack = np.subtract(rj[near], pa[:, 1, None])
    np.maximum(slack, np.subtract(rl[near], pa[:, 2, None]), out=slack)
    np.maximum(slack, np.subtract(pa[:, 0, None], rs[near]), out=slack)
    return slack.min(axis=1)


def compare_regions(a: RegionBoundary, b: RegionBoundary) -> float:
    """One-sided excess of region a over region b.

    For each corner of a, the smallest dominance slack any corner of b
    leaves; the maximum of those (clamped at 0) is returned.  0 means every
    corner of a is dominated by b within floating tolerance; a non-finite
    rate in either region raises ValueError.

    Every corner of a is bounded, and only those that can set the maximum
    are compared exactly.  Both steps are exact:
    - each corner's smallest slack over the 2 x _COMPARE_NEAR corners of b
      nearest it in rs (`_slack_bounds`, in blocks of a quarter of
      _COMPARE_CELLS slacks) bounds its exact one from above, since every
      slack is the same float however it is reached;
    - the exact pass takes the corners in descending bound order and stops
      at the first block whose largest bound is at most max(running
      maximum, 0): no later corner can raise the clamped result.  A corner
      whose bound is at most 0 is never compared.
    The exact pass runs in blocks of at most _COMPARE_CELLS slacks, in two
    buffers allocated once, so no slack table grows with |a| or |a| x |b|.
    """
    if a.unit != b.unit:
        raise ValueError(f"unit mismatch: {a.unit.value} vs {b.unit.value}")
    pa, pb = _corner_rates(a.corners, "region a"), _corner_rates(b.corners, "region b")
    if not len(pa):
        return 0.0
    if not len(pb):
        return float("inf")
    rs, rj, rl = pb[np.argsort(pb[:, 0])].T.copy()   # b's columns in rs order
    rows = max(1, _COMPARE_CELLS // 4 // (2 * _COMPARE_NEAR))
    bound = np.concatenate([_slack_bounds(pa[lo:lo + rows], rs, rj, rl)
                            for lo in range(0, len(pa), rows)])
    live = np.argsort(-bound)[:np.count_nonzero(bound > 0.0)]
    if not len(live):
        return 0.0
    pa, bound = pa[live], bound[live].tolist()
    # blocks of a's live corners against all of b, in two reused cache-sized buffers
    rows = max(1, _COMPARE_CELLS // len(rs))
    s, t = np.empty((2, min(rows, len(pa)), len(rs)))
    worst = -np.inf
    for lo in range(0, len(pa), rows):
        if bound[lo] <= max(worst, 0.0):
            break
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

    In place of the previous sweep's record, the model keeps the front's
    (K, 4) rate rows with their read-only matrices, which the front's test
    channels wrap (`_FrontRates`): the model's one cache.  `eval_one_aux`,
    and `eval_two_aux` with a constant V, on a front corner's test channel
    read its rates there instead of running the kernel again.
    """
    if config is None:
        config = SamplerConfig()
    _require_y_favor(model.verdict, "region sweep")
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

    model._front_rates = None   # the last front's record goes before this sweep allocates
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
    kept = _pareto_indices(rates)
    tests = _stack_rows(stacks, kept)
    # the record outlives this call, so it holds the front's rows and
    # matrices (its corners' own), not every sampled row or stack
    front = rates[kept]
    corners = _corners(front.tolist(), [params[i] for i in kept], tests)
    model._front_rates = _FrontRates(front, tests)

    meta = {"model_hash": model.content_hash(), "seed": config.seed,
            "sampler": {"random_samples": config.random_samples,
                        "beta_grid_step": config.beta_grid_step,
                        "u_sizes": list(sizes)},
            "verdict": model.verdict,
            "corners_sampled": len(rates)}
    return RegionBoundary(corners, InfoUnit.BITS, metadata=meta)


def two_aux_random_search(model: AuthModel, n_pairs: int, seed: int = 0):
    """Random (U, V) test-channel pairs for the two-auxiliary region.

    Draw order: every pair's |U| in [1, _MAX_U] (one `rng.integers` call
    over the pairs), then every pair's |V| in [1, _MAX_V] (one more); then,
    for each (|U|, |V|) that occurs, in ascending order, the U-channels of
    its pairs (one `rng.dirichlet` call, the pairs in index order) and then
    their V-channels (one more).
    Each group is evaluated as one stack.  Returns the raw corner list in
    bits, in pair order (not Pareto-filtered) so containment checks can
    cover every sampled pair.  Raises ValueError for a negative n_pairs,
    before anything is drawn.
    """
    _require_y_favor(model.verdict, "two-auxiliary search")
    if n_pairs < 0:
        raise ValueError(f"n_pairs={n_pairs} is negative")
    rng = np.random.default_rng(seed)
    us = rng.integers(1, _MAX_U + 1, size=n_pairs)
    vs = rng.integers(1, _MAX_V + 1, size=n_pairs)
    # pairs by |U|, then |V|, then index; a group starts where either size
    # changes, the first at 0, so np.split's first piece is empty
    order = np.lexsort((vs, us))
    starts = np.flatnonzero(np.diff(us[order], prepend=0) | np.diff(vs[order], prepend=0))
    corners = [None] * n_pairs
    for indices in np.split(order, starts)[1:]:
        u, v = int(us[indices[0]]), int(vs[indices[0]])
        tu = _channel_stack(rng.dirichlet(np.ones(u), size=(len(indices), model.n_xt)))
        tv = _channel_stack(rng.dirichlet(np.ones(v), size=(len(indices), u)))
        indices = indices.tolist()
        for idx, corner in zip(indices, _corners(_rates(model, tu, tv).tolist(), indices, tu, v)):
            corners[idx] = corner
    return corners
