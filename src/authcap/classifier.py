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

from .infotheory import AlphabetMismatchError, Channel, _entropy_nats

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
        w = self.witness
        if isinstance(w, Channel):
            w = w.matrix.tolist()
        elif isinstance(w, dict):
            w = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in w.items()}
        return {
            "relation": self.relation.value,
            "certainty": self.certainty.value,
            "witness": w,
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


def _simplex_grid(k: int, resolution: float) -> np.ndarray:
    """Deterministic grid on the k-simplex, capped at _GRID_POINT_CAP points."""
    m = max(1, round(1.0 / resolution))
    while m > 1 and math.comb(m + k - 1, k - 1) > _GRID_POINT_CAP:
        m -= 1
    pts = [np.array(c, dtype=float) / m
           for c in _compositions(m, k)]
    return np.array(pts)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def is_stochastically_degraded(candidate: Channel, reference: Channel) -> ChannelOrderVerdict:
    """Test whether `candidate` equals some post-channel applied to `reference`.

    Solved as a linear program over the post-channel entries minimising the
    max-abs composition residual; residual <= 1e-9 counts as degraded and the
    witness channel is returned.  The verdict uses the convention that the
    candidate plays the Z role and the reference the Y role.
    """
    _check_same_input(candidate, reference)
    na = reference.num_inputs
    nb = reference.num_outputs
    nc = candidate.num_outputs

    # Variables: W (nb*nc, row-major) then t.  Minimise t subject to
    # |(ref @ W - cand)[a, c]| <= t, W rows summing to 1, W >= 0.
    nvar = nb * nc + 1
    cost = np.zeros(nvar)
    cost[-1] = 1.0

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
    a_ub = np.array(rows)
    b_ub = np.array(rhs)

    a_eq = np.zeros((nb, nvar))
    for b in range(nb):
        a_eq[b, b * nc:(b + 1) * nc] = 1.0
    b_eq = np.ones(nb)

    from scipy import optimize

    res = optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                           bounds=[(0, None)] * (nb * nc) + [(0, None)],
                           method="highs")
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
        mid = 0.5 * (pairs_a + pairs_b)
        f_a = _mi_batch(pairs_a, better.matrix) - _mi_batch(pairs_a, worse.matrix)
        f_b = _mi_batch(pairs_b, better.matrix) - _mi_batch(pairs_b, worse.matrix)
        f_m = _mi_batch(mid, better.matrix) - _mi_batch(mid, worse.matrix)
        return f_m - 0.5 * (f_a + f_b)

    # Deterministic grid pairs first so refutations are seed-independent.
    grid = _simplex_grid(k, DEFAULT_GRID_RESOLUTION)
    idx = np.array(list(itertools.combinations(range(len(grid)), 2)))
    checked = 0
    if len(idx) > 0:
        g = gap(grid[idx[:, 0]], grid[idx[:, 1]])
        checked += len(idx)
        j = int(np.argmin(g))
        if g[j] < -CONCAVITY_TOL:
            return ChannelOrderVerdict(
                Relation.UNORDERED, Certainty.COUNTEREXAMPLE,
                witness={"p1": grid[idx[j, 0]], "p2": grid[idx[j, 1]],
                         "concavity_gap": float(g[j])},
                note="midpoint concavity violated on grid pair",
                details={"pairs_checked": checked})

    rng = np.random.default_rng(seed)
    batch = 5000
    done = 0
    while done < trials:
        m = min(batch, trials - done)
        p1 = rng.dirichlet(np.ones(k), size=m)
        p2 = rng.dirichlet(np.ones(k), size=m)
        g = gap(p1, p2)
        checked += m
        j = int(np.argmin(g))
        if g[j] < -CONCAVITY_TOL:
            return ChannelOrderVerdict(
                Relation.UNORDERED, Certainty.COUNTEREXAMPLE,
                witness={"p1": p1[j], "p2": p2[j], "concavity_gap": float(g[j])},
                note="midpoint concavity violated on sampled pair",
                details={"pairs_checked": checked})
        done += m

    return ChannelOrderVerdict(Relation.LESS_NOISY_Y_OVER_Z,
                               Certainty.STATISTICAL_EVIDENCE,
                               note="no concavity violation found",
                               details={"pairs_checked": checked})


def is_more_capable(better: Channel, worse: Channel,
                    grid_resolution: float = DEFAULT_GRID_RESOLUTION) -> ChannelOrderVerdict:
    """Test whether I(P;better) >= I(P;worse) for every input law P.

    Minimises the gap over a simplex grid and refines locally (Nelder-Mead in
    softmax coordinates).  A strictly negative minimum is a counterexample;
    otherwise the verdict is statistical evidence.
    """
    _check_same_input(better, worse)
    k = better.num_inputs

    def gap_one(p):
        p = np.atleast_2d(p)
        return float(_mi_batch(p, better.matrix)[0] - _mi_batch(p, worse.matrix)[0])

    grid = _simplex_grid(k, grid_resolution)
    vals = _mi_batch(grid, better.matrix) - _mi_batch(grid, worse.matrix)
    j = int(np.argmin(vals))
    best_p, best_v = grid[j], float(vals[j])

    def objective(logits):
        w = np.exp(logits - logits.max())
        return gap_one(w / w.sum())

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
                seed: int = 0,
                grid_resolution: float = DEFAULT_GRID_RESOLUTION) -> ChannelOrderVerdict:
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
                   "reverse_witness": _witness_json(ln_z)}
        return ChannelOrderVerdict(Relation.LESS_NOISY_Y_OVER_Z,
                                   Certainty.STATISTICAL_EVIDENCE,
                                   note=ln_y.note, details=details)
    if ln_z.certainty is Certainty.STATISTICAL_EVIDENCE:
        details = {"reverse_refuted": True, "reverse_witness": _witness_json(ln_y)}
        return ChannelOrderVerdict(Relation.LESS_NOISY_Z_OVER_Y,
                                   Certainty.STATISTICAL_EVIDENCE,
                                   note=ln_z.note, details=details)

    mc_y = is_more_capable(ac_y, ac_z, grid_resolution=grid_resolution)
    mc_z = is_more_capable(ac_z, ac_y, grid_resolution=grid_resolution)
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
        witness={"y_gap_witness": _witness_json(mc_y), "z_gap_witness": _witness_json(mc_z)},
        note="both directions refuted for every tested ordering")


def _witness_json(verdict: ChannelOrderVerdict):
    if isinstance(verdict.witness, dict):
        return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in verdict.witness.items()}
    return None
