"""Partial-order classification of a pair of channels sharing an input alphabet.

Three orderings are tested, strongest first:

  degraded      one channel equals the other followed by some post-channel;
                decided exactly by linear feasibility over the post-channel.
  less noisy    I(W;B) >= I(W;C) for every auxiliary W through the input;
                equivalent to concavity of P -> I(P;B) - I(P;C) on the input
                simplex, so midpoint-concavity violations are exact
                refutation certificates while absence of violations is only
                statistical evidence.
  more capable  I(P;B) >= I(P;C) for every input law; tested by grid
                minimisation of the gap plus local refinement.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .infotheory import AlphabetMismatchError, Channel, _entropy_nats, _jsonable

DEGRADED_RESIDUAL_TOL = 1e-9
CONCAVITY_TOL = 1e-10
MORE_CAPABLE_TOL = 1e-9

DEFAULT_TRIALS = 20_000
DEFAULT_GRID_RESOLUTION = 1.0 / 64.0

# Deterministic simplex grids are capped at this many points so the number of
# midpoint pairs stays manageable on non-binary alphabets.
_GRID_POINT_CAP = 100


class Relation(enum.Enum):
    DEGRADED_Z_WRT_Y = "degraded_Z_wrt_Y"
    DEGRADED_Y_WRT_Z = "degraded_Y_wrt_Z"
    LESS_NOISY_Y_OVER_Z = "less_noisy_Y_over_Z"
    LESS_NOISY_Z_OVER_Y = "less_noisy_Z_over_Y"
    MORE_CAPABLE_Y = "more_capable_Y"
    MORE_CAPABLE_Z = "more_capable_Z"
    UNORDERED = "unordered"


class Certainty(enum.Enum):
    EXACT = "exact"
    COUNTEREXAMPLE = "counterexample"
    STATISTICAL_EVIDENCE = "statistical_evidence"


@dataclass
class ChannelOrderVerdict:
    """Outcome of an ordering test.

    For degraded verdicts, ``witness`` is the intermediate channel and
    ``residual`` its max-abs composition error.  For refutations, ``witness``
    is a dict holding the violating input distribution(s) so the violation can
    be re-checked by direct evaluation.
    """

    relation: Relation
    certainty: Certainty
    witness: object = None
    residual: float = None
    note: str = ""
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation.value,
            "certainty": self.certainty.value,
            "witness": _jsonable(self.witness),
            "residual": self.residual,
            "note": self.note,
            "details": self.details,
        }


def _check_same_input(a: Channel, b: Channel):
    if a.num_inputs != b.num_inputs:
        raise AlphabetMismatchError(
            f"input alphabets differ: {a.num_inputs} vs {b.num_inputs}"
        )


def _mi_batch(p: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """I(X;B) = H(B) - H(B|X) in nats for a batch of input distributions
    (rows of p)."""
    return _entropy_nats(p @ matrix, axis=1) - p @ _entropy_nats(matrix, axis=1)


def _info_gap(p: np.ndarray, better: Channel, worse: Channel) -> np.ndarray:
    """f(P) = I(P;better) - I(P;worse) in nats for each row P of p; the
    less-noisy test checks its concavity, the more-capable test its sign."""
    return _mi_batch(p, better.matrix) - _mi_batch(p, worse.matrix)


def _simplex_grid(k: int) -> np.ndarray:
    """Points c/m of the k-simplex, c running over the compositions of m into
    k parts in lexicographic order, with m = 1/DEFAULT_GRID_RESOLUTION
    lowered until there are at most _GRID_POINT_CAP points.  The parts of a
    composition are the gaps between k - 1 bars placed among m + k - 1 slots
    (stars and bars)."""
    m = max(1, round(1.0 / DEFAULT_GRID_RESOLUTION))
    while m > 1 and math.comb(m + k - 1, k - 1) > _GRID_POINT_CAP:
        m -= 1
    bars = np.array(list(itertools.combinations(range(m + k - 1), k - 1)), dtype=int)
    return (np.diff(bars, axis=1, prepend=-1, append=m + k - 1) - 1) / m


def _degradedness_lp(candidate: Channel, reference: Channel):
    """(A_ub, b_ub, A_eq) of the LP that minimises t over the post-channel W
    (nb*nc variables, row-major) then t, W >= 0: for each (a, c), row-major,
    the rows (ref @ W)[a, c] - t <= cand[a, c] and
    -(ref @ W)[a, c] - t <= -cand[a, c]; and each row of W summing to 1."""
    nb, nc = reference.num_outputs, candidate.num_outputs
    m = np.kron(reference.matrix, np.eye(nc))
    t = np.full((len(m), 1), -1.0)
    a_ub = np.stack([np.hstack([m, t]), np.hstack([-m, t])], axis=1).reshape(-1, nb * nc + 1)
    cand = candidate.matrix.ravel()
    b_ub = np.stack([cand, -cand], axis=1).ravel()
    a_eq = np.hstack([np.kron(np.eye(nb), np.ones(nc)), np.zeros((nb, 1))])
    return a_ub, b_ub, a_eq


def is_stochastically_degraded(candidate: Channel, reference: Channel) -> ChannelOrderVerdict:
    """Test whether `candidate` equals some post-channel applied to `reference`.

    Solved as a linear program over the post-channel entries minimising the
    max-abs composition residual; residual <= 1e-9 counts as degraded and the
    witness channel is returned.  The verdict uses the convention that the
    candidate plays the Z role and the reference the Y role.
    """
    _check_same_input(candidate, reference)
    nb = reference.num_outputs
    nc = candidate.num_outputs
    a_ub, b_ub, a_eq = _degradedness_lp(candidate, reference)
    cost = np.zeros(nb * nc + 1)
    cost[-1] = 1.0

    from scipy import optimize

    res = optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(nb),
                           bounds=[(0, None)] * len(cost), method="highs")
    if not res.success:
        return ChannelOrderVerdict(Relation.UNORDERED, Certainty.EXACT,
                                   note="degradedness LP did not converge",
                                   details={"lp_status": res.status})

    t = float(res.x[-1])
    if t <= DEGRADED_RESIDUAL_TOL:
        w = np.clip(res.x[:-1].reshape(nb, nc), 0.0, None)
        w /= w.sum(axis=1, keepdims=True)
        witness = Channel(w)
        residual = float(np.max(np.abs(reference.matrix @ w - candidate.matrix)))
        return ChannelOrderVerdict(Relation.DEGRADED_Z_WRT_Y, Certainty.EXACT,
                                   witness=witness, residual=residual)
    return ChannelOrderVerdict(Relation.UNORDERED, Certainty.EXACT,
                               residual=t,
                               note="no intermediate channel within tolerance",
                               details={"best_residual": t})


def is_less_noisy(better: Channel, worse: Channel, trials: int = DEFAULT_TRIALS,
                  seed: int = 0) -> ChannelOrderVerdict:
    """Test whether `better` is less noisy than `worse`.

    Checks midpoint concavity of f(P) = I(P;better) - I(P;worse) on pairs
    drawn from a deterministic simplex grid and `trials` flat-simplex random
    pairs.  A violation beyond tolerance refutes the relation with a
    re-checkable counterexample pair; no violation yields statistical
    evidence only.
    """
    _check_same_input(better, worse)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = better.num_inputs

    def gap(pairs_a, pairs_b):
        f_m = _info_gap(0.5 * (pairs_a + pairs_b), better, worse)
        return f_m - 0.5 * (_info_gap(pairs_a, better, worse) + _info_gap(pairs_b, better, worse))

    grid = _simplex_grid(k)
    idx = np.array(list(itertools.combinations(range(len(grid)), 2)))
    rng = np.random.default_rng(seed)

    def batches():
        # Deterministic grid pairs first so refutations are seed-independent;
        # random pairs are drawn only while no violation has been found.
        if len(idx) > 0:
            yield grid[idx[:, 0]], grid[idx[:, 1]], "grid pair"
        for done in range(0, trials, 5000):
            m = min(5000, trials - done)
            p1 = rng.dirichlet(np.ones(k), size=m)
            yield p1, rng.dirichlet(np.ones(k), size=m), "sampled pair"

    checked = 0
    for p1, p2, what in batches():
        g = gap(p1, p2)
        checked += len(g)
        j = int(np.argmin(g))
        if g[j] < -CONCAVITY_TOL:
            return ChannelOrderVerdict(
                Relation.UNORDERED, Certainty.COUNTEREXAMPLE,
                witness={"p1": p1[j], "p2": p2[j], "concavity_gap": float(g[j])},
                note=f"midpoint concavity violated on {what}",
                details={"pairs_checked": checked})

    return ChannelOrderVerdict(Relation.LESS_NOISY_Y_OVER_Z,
                               Certainty.STATISTICAL_EVIDENCE,
                               note="no concavity violation found",
                               details={"pairs_checked": checked})


def is_more_capable(better: Channel, worse: Channel) -> ChannelOrderVerdict:
    """Test whether I(P;better) >= I(P;worse) for every input law P.

    Minimises the gap over a simplex grid and refines locally (Nelder-Mead in
    softmax coordinates).  A strictly negative minimum is a counterexample;
    otherwise the verdict is statistical evidence.
    """
    _check_same_input(better, worse)
    grid = _simplex_grid(better.num_inputs)
    vals = _info_gap(grid, better, worse)
    j = int(np.argmin(vals))
    best_p, best_v = grid[j], float(vals[j])

    def objective(logits):
        w = np.exp(logits - logits.max())
        return float(_info_gap((w / w.sum())[None, :], better, worse)[0])

    from scipy import optimize

    x0 = np.log(best_p + 1e-9)
    res = optimize.minimize(objective, x0, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    if res.fun < best_v:
        w = np.exp(res.x - res.x.max())
        best_p, best_v = w / w.sum(), float(res.fun)

    if best_v < -MORE_CAPABLE_TOL:
        return ChannelOrderVerdict(
            Relation.UNORDERED, Certainty.COUNTEREXAMPLE,
            witness={"p": best_p, "gap": best_v},
            note="input law with negative information gap",
            details={"grid_points": len(grid)})
    return ChannelOrderVerdict(Relation.MORE_CAPABLE_Y,
                               Certainty.STATISTICAL_EVIDENCE,
                               details={"grid_points": len(grid), "min_gap": best_v})


def classify_ac(ac_y: Channel, ac_z: Channel, trials: int = DEFAULT_TRIALS,
                seed: int = 0) -> ChannelOrderVerdict:
    """Strongest verified ordering between the two authentication channels.

    Runs degradedness both ways, then less-noisy both ways, then
    more-capable; strength order is degraded > less noisy > more capable >
    unordered.  Equivalent channels (degraded both ways) tie-break to
    degraded_Z_wrt_Y with a note.
    """
    _check_same_input(ac_y, ac_z)

    d_zy = is_stochastically_degraded(ac_z, ac_y)
    d_yz = is_stochastically_degraded(ac_y, ac_z)
    if d_zy.relation is Relation.DEGRADED_Z_WRT_Y:
        note = ""
        if d_yz.relation is Relation.DEGRADED_Z_WRT_Y:
            note = "equivalent channels (degraded both ways); reporting degraded_Z_wrt_Y"
        return ChannelOrderVerdict(Relation.DEGRADED_Z_WRT_Y, Certainty.EXACT,
                                   witness=d_zy.witness, residual=d_zy.residual,
                                   note=note)
    if d_yz.relation is Relation.DEGRADED_Z_WRT_Y:
        return ChannelOrderVerdict(Relation.DEGRADED_Y_WRT_Z, Certainty.EXACT,
                                   witness=d_yz.witness, residual=d_yz.residual)

    ln_y = is_less_noisy(ac_y, ac_z, trials=trials, seed=seed)
    ln_z = is_less_noisy(ac_z, ac_y, trials=trials, seed=seed + 1)
    if ln_y.certainty is Certainty.STATISTICAL_EVIDENCE:
        details = {"reverse_refuted": ln_z.certainty is Certainty.COUNTEREXAMPLE,
                   "reverse_witness": _jsonable(ln_z.witness)}
        return ChannelOrderVerdict(Relation.LESS_NOISY_Y_OVER_Z,
                                   Certainty.STATISTICAL_EVIDENCE,
                                   note=ln_y.note, details=details)
    if ln_z.certainty is Certainty.STATISTICAL_EVIDENCE:
        details = {"reverse_refuted": True, "reverse_witness": _jsonable(ln_y.witness)}
        return ChannelOrderVerdict(Relation.LESS_NOISY_Z_OVER_Y,
                                   Certainty.STATISTICAL_EVIDENCE,
                                   note=ln_z.note, details=details)

    mc_y = is_more_capable(ac_y, ac_z)
    mc_z = is_more_capable(ac_z, ac_y)
    if mc_y.certainty is Certainty.STATISTICAL_EVIDENCE:
        return ChannelOrderVerdict(Relation.MORE_CAPABLE_Y,
                                   Certainty.STATISTICAL_EVIDENCE,
                                   details=mc_y.details)
    if mc_z.certainty is Certainty.STATISTICAL_EVIDENCE:
        return ChannelOrderVerdict(Relation.MORE_CAPABLE_Z,
                                   Certainty.STATISTICAL_EVIDENCE,
                                   details=mc_z.details)

    return ChannelOrderVerdict(
        Relation.UNORDERED, Certainty.COUNTEREXAMPLE,
        witness={"y_gap_witness": _jsonable(mc_y.witness),
                 "z_gap_witness": _jsonable(mc_z.witness)},
        note="both directions refuted for every tested ordering")

