"""Partial-order classification of a pair of channels sharing an input alphabet.

Three orderings are tested, strongest first:

  degraded      one channel equals the other followed by some post-channel.
                For a binary input that is Blackwell's order of two
                dichotomies: an exactly evaluated Bayes-risk gap refutes it
                and a shadow coupling builds the post-channel, with no LP;
                larger inputs, and the narrow band of gaps that neither
                settles, are decided by linear feasibility over the
                post-channel.
  less noisy    I(W;B) >= I(W;C) for every auxiliary W through the input;
                equivalent to concavity of P -> I(P;B) - I(P;C) on the input
                simplex.  For a binary input that is a sign condition on one
                integer polynomial, decided exactly in both directions; for
                larger inputs midpoint-concavity violations are exact
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
from fractions import Fraction

import numpy as np

from .infotheory import MASS_TOL, AlphabetMismatchError, Channel, _entropy_nats, _jsonable

DEGRADED_RESIDUAL_TOL = 1e-9
CONCAVITY_TOL = 1e-10
MORE_CAPABLE_TOL = 1e-9

DEFAULT_TRIALS = 20_000
DEFAULT_GRID_RESOLUTION = 1.0 / 64.0

# Deterministic simplex grids are capped at this many points so the number of
# midpoint pairs stays manageable on non-binary alphabets.
_GRID_POINT_CAP = 100

# The binary-input less-noisy certificate splits [0, 1] into dyadic halves
# down to width 2^-_CERTIFICATE_DEPTH before it leaves a pair undecided.
_CERTIFICATE_DEPTH = 12

# Input laws (1 - p, p) at which the certificate looks for f''(p) > 0 in
# floating point: a uniform grid, plus points approaching each end, where
# the 1/q terms of f'' are largest.  All are dyadic, so f'' is then
# evaluated exactly at the best one.
_SEARCH_POINTS = np.concatenate([np.arange(1, 1024) / 1024.0, 2.0 ** -np.arange(11, 54),
                                 1.0 - 2.0 ** -np.arange(11, 54)])


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

    For degraded verdicts, and less-noisy ones proved by degradedness,
    ``witness`` is the intermediate channel and ``residual`` its max-abs
    composition error.  For refutations, ``witness`` is a dict holding the
    violating input distribution(s) so the violation can be re-checked by
    direct evaluation.
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


def _check_trials(trials: int):
    """ValueError unless the sampler's trial count is at least 1; the
    message names the field that sets it, AuthModel.classifier_trials."""
    if trials < 1:
        raise ValueError(f"classifier_trials must be >= 1, got {trials}")


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


def _bayes_risks(matrix: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """R_M(pi) = sum_c max(pi M[0, c], (1 - pi) M[1, c]), the Bayes
    probability of guessing a binary input with prior (pi, 1 - pi) from the
    output of M, at each prior pi."""
    return np.maximum(priors[:, None] * matrix[0], (1.0 - priors)[:, None] * matrix[1]).sum(axis=1)


def _bayes_risk_gap(candidate: Channel, reference: Channel):
    """(gap, prior): the largest R_candidate(pi) - R_reference(pi) over
    pi in [0, 1], as a Fraction evaluated exactly at its float arg-max
    `prior` (entries are dyadic).  The difference is piecewise linear with
    kinks at pi = b / (a + b) for the columns (a, b) of either channel, so
    those and the ends are the only priors tried."""
    stacked = np.concatenate([candidate.matrix, reference.matrix], axis=1)
    mass = stacked.sum(axis=0)
    kinks = np.divide(stacked[1], mass, out=np.zeros_like(mass), where=mass > 0)
    priors = np.concatenate([[0.0, 1.0], kinks])
    gaps = _bayes_risks(candidate.matrix, priors) - _bayes_risks(reference.matrix, priors)
    prior = Fraction(float(priors[int(np.argmax(gaps))]))

    def risk(matrix):
        return sum(max(prior * Fraction(a), (1 - prior) * Fraction(b))
                   for a, b in zip(*matrix.tolist()))

    return risk(candidate.matrix) - risk(reference.matrix), prior


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D float array, by the same sort and adjacent-difference
    mask, without np.unique's masked-array check, which imports numpy.ma."""
    s = np.sort(x)
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _shadow_post_channel(candidate: Channel, reference: Channel) -> np.ndarray:
    """Post-channel W with reference @ W = candidate for binary inputs, when
    one exists, built as a left-curtain martingale coupling (Beiglboeck &
    Juillet 2016).

    Column c of a channel is an atom of mass a + b at position b / (a + b).
    The candidate's atoms, in increasing position, each take from what is
    left of the reference's atoms the slice of its own mass, contiguous in
    position order (a quantile slice), whose mean is its own position: its
    shadow.  W[j, c] is the share of reference atom j that candidate atom c
    took; a reference column of zero mass gets a uniform row.
    When the candidate is no garbling of the reference some shadow does not
    exist, its start is clamped, and W misses; the caller checks it.
    """
    ref, cand = reference.matrix, candidate.matrix
    nb, nc = ref.shape[1], cand.shape[1]
    ref_mass, cand_mass = ref.sum(axis=0), cand.sum(axis=0)
    ref_pos = np.divide(ref[1], ref_mass, out=np.zeros(nb), where=ref_mass > 0)
    cand_pos = np.divide(cand[1], cand_mass, out=np.zeros(nc), where=cand_mass > 0)
    order = np.argsort(ref_pos, kind="stable")
    left, pos = ref_mass[order], ref_pos[order]
    taken = np.zeros((nb, nc))
    for c in np.argsort(cand_pos, kind="stable"):
        m = cand_mass[c]
        if m <= 0.0:
            continue
        # quantile coordinate u in [0, total]; F(u) integrates the quantile
        # function, so F(s + m) - F(s) = m * (mean of the slice [s, s + m]),
        # nondecreasing and piecewise linear in s with kinks at cum and cum - m
        cum = np.concatenate([[0.0], np.cumsum(left)])
        first = np.concatenate([[0.0], np.cumsum(left * pos)])
        starts = _sorted_distinct(np.clip(np.concatenate([cum, cum - m]), 0.0,
                                          max(cum[-1] - m, 0.0)))
        means = np.maximum.accumulate(np.interp(starts + m, cum, first)
                                      - np.interp(starts, cum, first))
        s = np.interp(cand[1, c], means, starts)
        piece = np.diff(np.clip(cum, s, s + m))
        taken[order, c] = piece
        left = np.maximum(left - piece, 0.0)
    rows = taken.sum(axis=1, keepdims=True)
    return np.divide(taken, rows, out=np.full((nb, nc), 1.0 / nc), where=rows > 0)


def _composition_residual(candidate: Channel, reference: Channel, w: np.ndarray) -> float:
    """max |reference @ w - candidate|."""
    return float(np.max(np.abs(reference.matrix @ w - candidate.matrix)))


def _degraded_by_lp(candidate: Channel, reference: Channel) -> ChannelOrderVerdict:
    """Degradedness by the LP that minimises the max-abs composition
    residual t over post-channels.  The verdict is degraded only when the
    solver's post-channel itself composes back within
    DEGRADED_RESIDUAL_TOL: at HiGHS's default feasibility tolerance (1e-7)
    t can fall below the tolerance while the post-channel misses by 1e-8,
    so the LP also runs at feasibility tolerances of 1e-10, at which it
    finds post-channels that do compose back."""
    nb = reference.num_outputs
    nc = candidate.num_outputs
    a_ub, b_ub, a_eq = _degradedness_lp(candidate, reference)
    cost = np.zeros(nb * nc + 1)
    cost[-1] = 1.0

    from scipy import optimize

    res = optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(nb),
                           bounds=[(0, None)] * len(cost), method="highs",
                           options={"primal_feasibility_tolerance": 1e-10,
                                    "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        return ChannelOrderVerdict(Relation.UNORDERED, Certainty.EXACT,
                                   note="degradedness LP did not converge",
                                   details={"lp_status": res.status})

    t = float(res.x[-1])
    w = np.clip(res.x[:-1].reshape(nb, nc), 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    residual = _composition_residual(candidate, reference, w)
    if residual <= DEGRADED_RESIDUAL_TOL:
        return ChannelOrderVerdict(Relation.DEGRADED_Z_WRT_Y, Certainty.EXACT,
                                   witness=Channel(w), residual=residual)
    return ChannelOrderVerdict(Relation.UNORDERED, Certainty.EXACT,
                               residual=t,
                               note="no intermediate channel within tolerance",
                               details={"best_residual": t, "witness_residual": residual})


def is_stochastically_degraded(candidate: Channel, reference: Channel) -> ChannelOrderVerdict:
    """Test whether `candidate` equals some post-channel applied to `reference`.

    The verdict uses the convention that the candidate plays the Z role and
    the reference the Y role; a degraded verdict carries the post-channel
    as witness and its max-abs composition residual, at most
    DEGRADED_RESIDUAL_TOL.

    A binary input is Blackwell's comparison of two dichotomies and needs
    no LP.  A post-channel never raises the Bayes probability R(pi) of
    `_bayes_risks`, and one within residual t raises it by at most
    n_c * t, so a gap max_pi R_candidate - R_reference above
    n_c * DEGRADED_RESIDUAL_TOL, evaluated exactly, refutes degradedness:
    UNORDERED, EXACT, with residual gap / n_c, a lower bound on every
    post-channel's residual, and details {"bayes_risk_gap", "prior"}.
    Otherwise the shadow coupling of `_shadow_post_channel` is the witness
    when it composes back within tolerance.  What is left (a gap in
    (0, n_c * DEGRADED_RESIDUAL_TOL]) and every larger input go to
    `_degraded_by_lp`.
    """
    _check_same_input(candidate, reference)
    if candidate.num_inputs != 2:
        return _degraded_by_lp(candidate, reference)
    nc = candidate.num_outputs
    gap, prior = _bayes_risk_gap(candidate, reference)
    if gap > nc * Fraction(DEGRADED_RESIDUAL_TOL):
        return ChannelOrderVerdict(Relation.UNORDERED, Certainty.EXACT,
                                   residual=float(gap / nc),
                                   note="Bayes risk gap exceeds what a post-channel within "
                                        "tolerance allows",
                                   details={"bayes_risk_gap": float(gap), "prior": float(prior)})
    w = _shadow_post_channel(candidate, reference)
    residual = _composition_residual(candidate, reference, w)
    if residual <= DEGRADED_RESIDUAL_TOL:
        return ChannelOrderVerdict(Relation.DEGRADED_Z_WRT_Y, Certainty.EXACT,
                                   witness=Channel(w), residual=residual)
    return _degraded_by_lp(candidate, reference)


def _curvature_terms(better: Channel, worse: Channel):
    """f''(p) = sum_h c_h / (scale * (a_h (1 - p) + b_h p)) for the binary
    input law (1 - p, p) and f = I(P;better) - I(P;worse), with integers c_h,
    a_h, b_h and scale: returns ([(c_h, a_h, b_h), ...], scale).

    An output column (u, v) adds -(v - u)^2 / (u (1 - p) + v p) for
    `better` and + for `worse`.  Entries are dyadic rationals, so the
    largest denominator `scale` makes them integers.  A column is k (a, b)
    with a, b coprime; columns with equal (a, b), that is equal likelihood
    ratio, merge into one term with c = (sum of -+k) (b - a)^2.  Columns
    with u = v and terms with c = 0 drop out."""
    stacked = np.concatenate([better.matrix, worse.matrix], axis=1)
    ratios = [x.as_integer_ratio() for x in stacked.ravel().tolist()]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    n = stacked.shape[1]
    weights = {}
    for col, (u, v) in enumerate(zip(ints[:n], ints[n:])):
        if u != v:
            k = math.gcd(u, v)
            key = (u // k, v // k)
            weights[key] = weights.get(key, 0) + (k if col >= better.num_outputs else -k)
    return [(w * (b - a) ** 2, a, b) for (a, b), w in weights.items() if w], scale


def _times_linear(poly: list, a: int, b: int) -> list:
    """poly * (a s + b t) for a form homogeneous in (s, t), stored as the
    coefficients of s^m, s^(m-1) t, ..., t^m."""
    return [a * x + b * y for x, y in zip(poly + [0], [0] + poly)]


def _form_value(poly: list, s: int, t: int) -> int:
    """Value at (s, t) of a form stored as in `_times_linear`."""
    m = len(poly) - 1
    return sum(c * s ** (m - k) * t ** k for k, c in enumerate(poly))


def _halves(b: list):
    """De Casteljau at 1/2: the Bernstein coefficients on [0, 1/2] and on
    [1/2, 1] of the polynomial with Bernstein coefficients b on [0, 1], both
    times 2^m.  Pairwise sums stand in for midpoints, so integers stay
    integers."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [x + y for x, y in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    m = len(left) - 1
    return ([x << (m - k) for k, x in enumerate(left)],
            [x << k for k, x in enumerate(reversed(right))])


def _binary_certificate(better: Channel, worse: Channel):
    """Exact less-noisy decision for a binary input, in integer arithmetic.

    With f''(p) from `_curvature_terms`, g(p) = sum_h c_h prod_{j != h} L_j(p)
    (L_h = a_h (1 - p) + b_h p > 0 on (0, 1)) has the sign of f'', so
    `better` is less noisy than `worse` iff g <= 0 on [0, 1] (van Dijk
    1997).  Returns (certainty, witness):
      EXACT, None           every Bernstein coefficient of g is <= 0 on each
                            piece of a de Casteljau subdivision (g = 0
                            counts);
      COUNTEREXAMPLE, w     g(p) > 0 exactly at a dyadic p, found by a float
                            search over _SEARCH_POINTS or as a subdivision
                            midpoint; w = {"p": (1 - p, p),
                            "second_derivative": f''(p) rounded from its
                            exact value};
      EXACT, d              in place of such a refutation, when the shadow
                            coupling composes `better` into `worse` within
                            MASS_TOL; d = {"post_channel", "residual"};
      None, None            undecided after _CERTIFICATE_DEPTH halvings.
    A pair degraded to within MASS_TOL, the accuracy a Channel holds its
    rows to, is less noisy.  Its exact refutation is the rounding's: a
    float product `better.matrix @ post` can leave the outputs that one
    input never reaches with 1e-17 more mass in `worse`, and f'' then
    grows as 1e-17 / p towards an end of [0, 1].
    """
    terms, scale = _curvature_terms(better, worse)
    g, prod = [], [1]         # g and prod_h L_h as forms in (1 - p, p)
    for c, a, b in terms:
        g = [x + c * y for x, y in zip(_times_linear(g, a, b), prod)]
        prod = _times_linear(prod, a, b)

    def refutation(w):
        post = _shadow_post_channel(worse, better)
        residual = _composition_residual(worse, better, post)
        if residual <= MASS_TOL:
            return Certainty.EXACT, {"post_channel": Channel(post), "residual": residual}
        return Certainty.COUNTEREXAMPLE, w

    def witness(p: float):
        num, den = p.as_integer_ratio()
        value = _form_value(g, den - num, num)
        if value <= 0:
            return None
        # the form is den^(n-1) g(p), the product den^n prod_h L_h(p)
        f2 = Fraction(den * value, scale * _form_value(prod, den - num, num))
        return {"p": np.array([1.0 - p, p]), "second_derivative": float(f2)}

    # f'' in floats: term h is c/((a + b) scale), at most 1 in magnitude,
    # over a convex combination of a/(a + b) and b/(a + b), which is >= 1/2
    # at one end and so never 0
    t = np.array([(c / ((a + b) * scale), a / (a + b), b / (a + b))
                  for c, a, b in terms]).reshape(-1, 3)
    f2 = (t[:, 0] / (t[:, 1] + _SEARCH_POINTS[:, None] * (t[:, 2] - t[:, 1]))).sum(axis=1)
    j = int(np.argmax(f2))
    if f2[j] > 0 and (w := witness(float(_SEARCH_POINTS[j]))):
        return refutation(w)

    m = len(g) - 1
    bernstein = [x * math.factorial(k) * math.factorial(m - k) for k, x in enumerate(g)]
    stack = [(bernstein, 0, 0)]     # coefficients on [i 2^-depth, (i + 1) 2^-depth]
    while stack:
        b, depth, i = stack.pop()
        if all(x <= 0 for x in b):
            continue
        if depth == _CERTIFICATE_DEPTH:
            return None, None
        left, right = _halves(b)
        if left[-1] > 0:          # g > 0 at the midpoint
            return refutation(witness((2 * i + 1) / 2.0 ** (depth + 1)))
        stack += [(left, depth + 1, 2 * i), (right, depth + 1, 2 * i + 1)]
    return Certainty.EXACT, None


def is_less_noisy(better: Channel, worse: Channel, trials: int = DEFAULT_TRIALS,
                  seed: int = 0) -> ChannelOrderVerdict:
    """Test whether `better` is less noisy than `worse`.

    A binary input is decided by `_binary_certificate` first.  A proof is
    Certainty.EXACT with no pair checked; for a pair degraded within
    MASS_TOL it carries the post-channel and its residual.  A refutation is a
    counterexample: its witness is the deterministic grid's worst midpoint
    pair when that pair violates concavity beyond CONCAVITY_TOL, else the
    certificate's law (1 - p, p) with f''(p) > 0.  Only a larger input, or
    a binary pair the certificate leaves undecided, reaches the sampler:
    midpoint concavity of f(P) = I(P;better) - I(P;worse) on the grid pairs
    and `trials` flat-simplex random pairs (from `seed`).  A violation
    beyond tolerance refutes the relation with a re-checkable
    counterexample pair; no violation yields statistical evidence only.
    """
    _check_same_input(better, worse)
    _check_trials(trials)
    k = better.num_inputs
    certainty, witness = _binary_certificate(better, worse) if k == 2 else (None, None)
    if certainty is Certainty.EXACT:
        proof = ({"note": "f'' <= 0 on [0, 1] by exact Bernstein certificate"} if witness is None
                 else {"witness": witness["post_channel"], "residual": witness["residual"],
                       "note": "degraded within MASS_TOL, so less noisy"})
        return ChannelOrderVerdict(Relation.LESS_NOISY_Y_OVER_Z, Certainty.EXACT,
                                   details={"pairs_checked": 0}, **proof)
    if certainty is not None:
        trials = 0

    def gap(pairs_a, pairs_b):
        f_m = _info_gap(0.5 * (pairs_a + pairs_b), better, worse)
        return f_m - 0.5 * (_info_gap(pairs_a, better, worse) + _info_gap(pairs_b, better, worse))

    grid = _simplex_grid(k)
    first, second = np.triu_indices(len(grid), 1)    # itertools.combinations order

    def batches():
        # Deterministic grid pairs first so refutations are seed-independent;
        # random pairs are drawn only while no violation has been found.
        if len(first) > 0:
            yield grid[first], grid[second], "grid pair"
        if trials == 0:
            return
        rng = np.random.default_rng(seed)
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

    if certainty is Certainty.COUNTEREXAMPLE:
        return ChannelOrderVerdict(Relation.UNORDERED, Certainty.COUNTEREXAMPLE,
                                   witness=witness,
                                   note="f''(p) > 0 at a dyadic p, evaluated exactly",
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
    degraded_Z_wrt_Y with a note.  A less-noisy verdict carries the
    certainty of `is_less_noisy`: exact for a binary input, so `trials` and
    `seed` act only for larger inputs or a binary pair its certificate
    leaves undecided.
    """
    _check_same_input(ac_y, ac_z)
    _check_trials(trials)

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
    if ln_y.relation is Relation.LESS_NOISY_Y_OVER_Z:
        details = {"reverse_refuted": ln_z.certainty is Certainty.COUNTEREXAMPLE,
                   "reverse_witness": _jsonable(ln_z.witness)}
        return ChannelOrderVerdict(Relation.LESS_NOISY_Y_OVER_Z, ln_y.certainty,
                                   note=ln_y.note, details=details)
    if ln_z.relation is Relation.LESS_NOISY_Y_OVER_Z:
        details = {"reverse_refuted": True, "reverse_witness": _jsonable(ln_y.witness)}
        return ChannelOrderVerdict(Relation.LESS_NOISY_Z_OVER_Y, ln_z.certainty,
                                   note=ln_z.note, details=details)

    mc_y = is_more_capable(ac_y, ac_z)
    if mc_y.certainty is Certainty.STATISTICAL_EVIDENCE:
        return ChannelOrderVerdict(Relation.MORE_CAPABLE_Y,
                                   Certainty.STATISTICAL_EVIDENCE,
                                   details=mc_y.details)
    mc_z = is_more_capable(ac_z, ac_y)
    if mc_z.certainty is Certainty.STATISTICAL_EVIDENCE:
        return ChannelOrderVerdict(Relation.MORE_CAPABLE_Z,
                                   Certainty.STATISTICAL_EVIDENCE,
                                   details=mc_z.details)

    return ChannelOrderVerdict(
        Relation.UNORDERED, Certainty.COUNTEREXAMPLE,
        witness={"y_gap_witness": _jsonable(mc_y.witness),
                 "z_gap_witness": _jsonable(mc_z.witness)},
        note="both directions refuted for every tested ordering")

