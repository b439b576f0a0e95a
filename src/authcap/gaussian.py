"""Parametric rate region for the scalar Gaussian model, in nats.

The source, enrollment observation, and both authentication observations are
jointly Gaussian with unit variances; squared correlation coefficients
(rho1_sq, rho2_sq, rho3_sq) parameterise the enrollment, main, and
eavesdropper channels.  The auxiliary variable splits the enrollment
observation into independent Gaussian parts of variance (1 - alpha) and
alpha, which turns the region into a one-parameter family over
alpha in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import Certainty, ChannelOrderVerdict, Relation
from .infotheory import InfoUnit, _positive
from .regions import (Y_FAVOR, RateCorner, RegionBoundary, UnsupportedClassError, _front,
                      _rate_corner, _require_y_favor)


@dataclass
class GaussianModelParams:
    """Squared correlation coefficients and the alpha sweep settings."""

    rho1_sq: float
    rho2_sq: float
    rho3_sq: float
    alpha_grid: int = 400
    alpha_min: float = 1e-6

    def __post_init__(self):
        for name in ("rho1_sq", "rho2_sq", "rho3_sq"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name}={v} outside [0, 1)")
        if self.alpha_grid < 1:
            raise ValueError("alpha_grid must be >= 1")
        if not 0.0 < self.alpha_min <= 1.0:
            raise ValueError(f"alpha_min={self.alpha_min} outside (0, 1]")

    def verdict(self) -> ChannelOrderVerdict:
        """The exact channel-pair ordering: Z degraded w.r.t. Y if
        rho2_sq > rho3_sq, else (equal correlations too) Y w.r.t. Z."""
        relation = (Relation.DEGRADED_Z_WRT_Y if self.rho2_sq > self.rho3_sq
                    else Relation.DEGRADED_Y_WRT_Z)
        return ChannelOrderVerdict(
            relation, Certainty.EXACT,
            note="jointly Gaussian observations are always ordered by squared correlation")

    def vsm(self) -> "GaussianModelParams":
        """Visible-source variant: enrollment made (numerically) noiseless."""
        return GaussianModelParams(1.0 - 1e-9, self.rho2_sq, self.rho3_sq,
                                   self.alpha_grid, self.alpha_min)


def _check_alpha(alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1]")


def _parametric_rates(params: GaussianModelParams, alphas) -> np.ndarray:
    """Parametric rates at the splits `alphas`, in nats, for
    rho2_sq > rho3_sq: a (B, 4) array of (rs, rj, rl, unclamped rs) rows,
    as `_rates` gives.

    rs = 1/2 log((a c3 + 1 - c3)/(a c2 + 1 - c2)) with c_k = rho1_sq rho_k_sq,
         clamped at 0
    rj = 1/2 log((a c2 + 1 - c2)/a)
    rl = 1/2 log((a c2 + 1 - c2)/((a rho1_sq + 1 - rho1_sq)(1 - rho3_sq)))
    """
    alpha = np.asarray(alphas, dtype=float)
    c2 = params.rho1_sq * params.rho2_sq
    c3 = params.rho1_sq * params.rho3_sq
    top2 = alpha * c2 + 1.0 - c2
    top3 = alpha * c3 + 1.0 - c3
    rs_raw = 0.5 * np.log(top3 / top2)
    rj = 0.5 * np.log(top2 / alpha)
    rl = 0.5 * np.log(top2 / ((alpha * params.rho1_sq + 1.0 - params.rho1_sq)
                              * (1.0 - params.rho3_sq)))
    return np.stack([_positive(rs_raw), rj, rl, rs_raw], axis=-1)


def parametric_corner(params: GaussianModelParams, alpha: float) -> RateCorner:
    """Parametric corner at a given alpha, nats, for rho2_sq > rho3_sq (see
    `_parametric_rates`)."""
    _require_y_favor(params.verdict(), "the Gaussian closed form")
    _check_alpha(alpha)
    return _rate_corner(_parametric_rates(params, [alpha])[0].tolist(), param=float(alpha))


def zero_key_region_gaussian(params: GaussianModelParams) -> RegionBoundary:
    """Zero-key region in nats for rho2_sq <= rho3_sq: leakage floor
    1/2 log(1/(1 - rho3_sq)) with any nonnegative storage."""
    if params.verdict().relation in Y_FAVOR:
        raise UnsupportedClassError(
            f"rho2_sq={params.rho2_sq} > rho3_sq={params.rho3_sq}: the main channel "
            f"dominates; use parametric_region")
    rl = 0.5 * math.log(1.0 / (1.0 - params.rho3_sq))
    corner = RateCorner(0.0, 0.0, rl, extras={"param": "zero_key"})
    return RegionBoundary([corner], InfoUnit.NATS,
                          metadata={"region": "zero_key", "params": _params_dict(params)})


def parametric_region(params: GaussianModelParams) -> RegionBoundary:
    """Log-spaced alpha sweep on (alpha_min, 1], Pareto-filtered, in nats."""
    _require_y_favor(params.verdict(), "the Gaussian closed form")
    alphas = np.geomspace(params.alpha_min, 1.0, params.alpha_grid)
    meta = {"params": _params_dict(params),
            "alpha_grid": params.alpha_grid, "alpha_min": params.alpha_min}
    return RegionBoundary(_front(_parametric_rates(params, alphas), alphas.tolist()),
                          InfoUnit.NATS, metadata=meta)


def figure_curves(params: GaussianModelParams) -> dict:
    """Per-alpha (rj, rs, rl) curves for the given parameters and their
    noiseless-enrollment overlay, used for the storage-rate projections."""
    _require_y_favor(params.verdict(), "the Gaussian closed form")
    alphas = np.geomspace(params.alpha_min, 1.0, params.alpha_grid)
    out = {"alpha": alphas}
    for tag, prm in (("hsm", params), ("vsm", params.vsm())):
        rs, rj, rl, _ = _parametric_rates(prm, alphas).T
        out[tag] = {"rj": rj, "rs": rs, "rl": rl, "rho1_sq": prm.rho1_sq}
    return out


def _params_dict(params: GaussianModelParams) -> dict:
    return {"rho1_sq": params.rho1_sq, "rho2_sq": params.rho2_sq,
            "rho3_sq": params.rho3_sq}
