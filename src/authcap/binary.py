"""Closed-form rate region for the binary model and its bounding machinery.

Model: uniform binary source, symmetric enrollment noise with crossover p,
erasure-q main authentication channel, symmetric eavesdropper channel with
crossover eps, and a symmetric test channel with crossover beta.  All rates
are in bits.

The privacy-leakage constant is H(X|Z) = H_b(eps) for this model; the
generic one-auxiliary evaluator is the cross-checking oracle for that choice
(see tests), and the two code paths must agree to 1e-9 per coordinate.

If Y is less noisy than Z (q <= 4 eps (1 - eps)), I(Xt;Y|U) >= I(Xt;Z|U), so
the key rate I(U;Y) - I(U;Z) = [I(Xt;Y) - I(Xt;Z)] - [I(Xt;Y|U) - I(Xt;Z|U)]
peaks at beta = 0 (U = Xt), a grid point: the region is the beta grid alone.
"""

from __future__ import annotations

import numpy as np

from .classifier import DEFAULT_TRIALS, classify_ac
from .infotheory import (
    Channel,
    InfoUnit,
    binary_entropy,
    binary_entropy_inverse,
    convolve,
    _entropy_nats,
    _positive,
    LN2,
)
from .regions import (
    AuthModel,
    BinaryModelParams,
    RateCorner,
    RegionBoundary,
    Y_FAVOR,
    _beta_grid,
    _bsc_stack,
    _chain_laws,
    _front,
    _rate_corner,
)

ENTROPY_BOUND_SLACK = 1e-9


def _closed_form_rates(params: BinaryModelParams, betas) -> np.ndarray:
    """Closed-form rates at the test-channel crossovers `betas`, in bits: a
    (B, 4) array of (rs, rj, rl, unclamped rs) rows, as `_rates` gives.

    rs = H_b(beta*p*eps) - (1-q) H_b(beta*p) - q, clamped at 0
    rj = q + (1-q) H_b(beta*p) - H_b(beta), clamped at 0
    rl = 1 + q - q H_b(beta*p) - H_b(eps)
    """
    def h_b(x):
        return _entropy_nats(np.stack([x, 1.0 - x], -1), axis=-1) / LN2

    beta = np.asarray(betas, dtype=float)
    p, q, eps = params.p, params.q, params.eps
    bp = beta * (1.0 - p) + (1.0 - beta) * p
    h_bp = h_b(bp)
    rs_raw = h_b(bp * (1.0 - eps) + (1.0 - bp) * eps) - (1.0 - q) * h_bp - q
    rj = q + (1.0 - q) * h_bp - h_b(beta)
    rl = 1.0 + q - q * h_bp - h_b(eps)
    return np.stack([_positive(rs_raw), _positive(rj), rl, rs_raw], axis=-1)


def closed_form_corner(params: BinaryModelParams, beta: float) -> RateCorner:
    """Closed-form corner at test-channel crossover beta, in bits (see
    `_closed_form_rates`)."""
    if not 0.0 <= beta <= 0.5:
        raise ValueError(f"beta={beta} outside [0, 1/2]")
    return _rate_corner(_closed_form_rates(params, [beta])[0].tolist(),
                        Channel.bsc(beta), param=float(beta))


def closed_form_region(params: BinaryModelParams, classifier_trials: int = DEFAULT_TRIALS,
                       classifier_seed: int = 0) -> RegionBoundary:
    """Closed-form boundary swept over the beta grid, Pareto-filtered, in bits.

    Nothing off the grid is searched: the grid holds beta = 0, where the key
    rate of a less-noisy pair peaks (see the module docstring).

    The main-vs-eavesdropper ordering is verified by the classifier rather
    than assumed; a failed check is attached as a warning in the metadata,
    not raised.  For this binary-input pair the less-noisy test is an exact
    certificate, so the verdict holds with Certainty.EXACT for q <=
    4 eps (1 - eps), and `classifier_trials`/`classifier_seed` act only if
    the certificate leaves the pair undecided.
    """
    verdict = classify_ac(Channel.bec(params.q), Channel.bsc(params.eps),
                          trials=classifier_trials, seed=classifier_seed)
    warning = None
    if verdict.relation not in Y_FAVOR:
        warning = (f"classifier verdict {verdict.relation.value}: main channel not "
                   f"verified stronger; closed form may not be the capacity region")

    betas = _beta_grid(params.beta_step)
    meta = {"params": {"p": params.p, "q": params.q, "eps": params.eps,
                       "beta_step": params.beta_step},
            "verdict": verdict,
            "classifier_warning": warning}
    corners = _front(_closed_form_rates(params, betas), betas, [_bsc_stack(betas)])
    return RegionBoundary(corners, InfoUnit.BITS, metadata=meta)


def convolution_bounds(lam: float, p: float, eps: float):
    """(lower, mid, upper) with lower = (lam*p - eps)/(1-2 eps),
    mid = lam*p*eps, upper = 1/2; lower <= mid <= upper holds on the stated
    domain with equality throughout at lam = 1/2."""
    if not 0.0 <= lam <= 0.5:
        raise ValueError(f"lam={lam} outside [0, 1/2]")
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"p={p} outside [0, 1/2]")
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps={eps} outside [0, 1/2); the lower bound degenerates at 1/2")
    lp = convolve(lam, p)
    lower = (lp - eps) / (1.0 - 2.0 * eps)
    mid = convolve(lp, eps)
    return lower, mid, 0.5


def entropy_convolution_check(model: AuthModel, test: Channel) -> bool:
    """Entropy-convolution consistency check for a binary model.

    Computes H(X|U), H(Z|U), H(Xt|U) from the joint and verifies, within
    1e-9 slack, that (a) H(Z|U) >= H_b(H_b^{-1}(H(X|U)) * eps), and (b) with
    lam defined through H(X|U) = H_b(lam * p), H(Xt|U) <= H_b(lam).

    Both are the entropy-convolution bound applied along the generative
    direction of the chain, where the channel noise is independent of the
    auxiliary; (a) is tight exactly for symmetric test channels, which is
    what ties the closed-form sweep to the generic evaluator.
    """
    p, eps = _binary_params(model)
    laws = _chain_laws(model, test.matrix[None])
    h_u = _entropy_nats(laws.p_au.sum(axis=1)[0])
    h_x_u, h_z_u, h_a_u = ((_entropy_nats(j[0]) - h_u) / LN2
                           for j in (laws.p_xu, laws.p_zu, laws.p_au))

    m = binary_entropy_inverse(min(1.0, max(0.0, h_x_u)))
    if h_z_u < binary_entropy(convolve(m, eps)) - ENTROPY_BOUND_SLACK:
        return False

    if p >= 0.5 - 1e-12:
        lam = 0.5
    else:
        lam = min(0.5, max(0.0, (m - p) / (1.0 - 2.0 * p)))
    return h_a_u <= binary_entropy(lam) + ENTROPY_BOUND_SLACK


def _binary_params(model: AuthModel):
    """Extract (p, eps) from a binary symmetric-enrollment / symmetric-
    eavesdropper model, validating the structure."""
    if model.nx != 2 or model.n_xt != 2 or model.ac_z.num_outputs != 2:
        raise ValueError("model alphabets must be binary")
    if np.max(np.abs(model.px.probs - 0.5)) > 1e-12:
        raise ValueError("source must be uniform binary")
    ec = model.ec.matrix
    if abs(ec[0, 1] - ec[1, 0]) > 1e-12:
        raise ValueError("enrollment channel must be symmetric")
    acz = model.ac_z.matrix
    if abs(acz[0, 1] - acz[1, 0]) > 1e-12:
        raise ValueError("eavesdropper channel must be symmetric")
    return float(ec[0, 1]), float(acz[0, 1])
