"""Closed-form rate region for the binary model.

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
    _entropy_nats,
    _positive,
    LN2,
)
from .regions import (
    BinaryModelParams,
    RateCorner,
    RegionBoundary,
    Y_FAVOR,
    _beta_grid,
    _bsc_stack,
    _front,
    _rate_corner,
)


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

