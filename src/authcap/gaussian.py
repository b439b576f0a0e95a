"""Parametric rate region for the scalar Gaussian model, in nats.

The source, enrollment observation, and both authentication observations are
jointly Gaussian with unit variances; squared correlation coefficients
(rho1_sq, rho2_sq, rho3_sq) parameterise the enrollment, main, and
eavesdropper channels.  The auxiliary variable splits the enrollment
observation into independent Gaussian parts of variance (1 - alpha) and
alpha, which turns the region into a one-parameter family over
alpha in (0, 1].

An independent covariance-determinant oracle for the mutual informations is
provided so the closed forms can be cross-checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import Certainty, ChannelOrderVerdict, Relation
from .infotheory import InfoUnit
from .regions import RateCorner, RegionBoundary, UnsupportedClassError, _front, _rate_corner

VAR_NAMES = ("U", "Xt", "X", "Y", "Z")

PSD_TOL = -1e-10
SINGULAR_TOL = 1e-12


class WrongDirectionError(UnsupportedClassError):
    """The main/eavesdropper strength ordering does not match the formula."""


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


@dataclass
class CovarianceMatrix:
    """Covariance of (U, Xt, X, Y, Z); unit diagonal except the U entry."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(VAR_NAMES), len(VAR_NAMES)):
            raise ValueError(f"expected {len(VAR_NAMES)}x{len(VAR_NAMES)} matrix")
        if np.max(np.abs(m - m.T)) > 1e-14:
            raise ValueError("covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(m)) < PSD_TOL:
            raise ValueError("covariance must be positive semidefinite")
        self.matrix = m

    def index(self, name: str) -> int:
        return VAR_NAMES.index(name)

    def block(self, names) -> np.ndarray:
        idx = [self.index(n) for n in names]
        return self.matrix[np.ix_(idx, idx)]


def _check_alpha(alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1]")


def build_covariance(params: GaussianModelParams, alpha: float) -> CovarianceMatrix:
    """Covariance of (U, Xt, X, Y, Z) with Var(U) = 1 - alpha.

    Xt = U + Theta with independent Theta of variance alpha; X, Y, Z follow
    with independent unit-filling noises, so Xt, X, Y, Z all have unit
    variance and the chain U - Xt - X - (Y, Z) holds.
    """
    _check_alpha(alpha)
    r1 = math.sqrt(params.rho1_sq)
    r2 = math.sqrt(params.rho2_sq)
    r3 = math.sqrt(params.rho3_sq)
    vu = 1.0 - alpha
    m = np.array([
        [vu,      vu,      r1 * vu, r1 * r2 * vu, r1 * r3 * vu],
        [vu,      1.0,     r1,      r1 * r2,      r1 * r3],
        [r1 * vu, r1,      1.0,     r2,           r3],
        [r1 * r2 * vu, r1 * r2, r2, 1.0,          r2 * r3],
        [r1 * r3 * vu, r1 * r3, r3, r2 * r3,      1.0],
    ])
    return CovarianceMatrix(m)


def gaussian_mi(cov: CovarianceMatrix, vars_a, vars_b) -> float:
    """I(A;B) = 1/2 log(det S_A det S_B / det S_AB) in nats.

    A degenerate block (determinant below tolerance, e.g. the auxiliary at
    alpha = 1) carries no information and yields 0 rather than an error; a
    singular joint with nonsingular blocks is reported as an error since the
    information diverges.
    """
    a = list(vars_a)
    b = list(vars_b)
    if set(a) & set(b):
        raise ValueError(f"variable sets {a} and {b} overlap")
    det_a = np.linalg.det(cov.block(a))
    det_b = np.linalg.det(cov.block(b))
    if det_a <= SINGULAR_TOL or det_b <= SINGULAR_TOL:
        return 0.0
    det_ab = np.linalg.det(cov.block(a + b))
    if det_ab <= SINGULAR_TOL:
        raise ValueError("joint block is singular: mutual information diverges")
    return max(0.0, 0.5 * math.log(det_a * det_b / det_ab))


def closed_form_mis(params: GaussianModelParams, alpha: float) -> dict:
    """The four chain mutual informations as explicit formulas, nats."""
    _check_alpha(alpha)
    r1sq = params.rho1_sq
    c2 = params.rho1_sq * params.rho2_sq
    c3 = params.rho1_sq * params.rho3_sq
    return {
        "i_xt_u": 0.5 * math.log(1.0 / alpha),
        "i_x_u": 0.5 * math.log(1.0 / (alpha * r1sq + 1.0 - r1sq)),
        "i_y_u": 0.5 * math.log(1.0 / (alpha * c2 + 1.0 - c2)),
        "i_z_u": 0.5 * math.log(1.0 / (alpha * c3 + 1.0 - c3)),
    }


def _check_direction(params: GaussianModelParams):
    if params.verdict().relation is not Relation.DEGRADED_Z_WRT_Y:
        raise WrongDirectionError(
            f"rho2_sq={params.rho2_sq} <= rho3_sq={params.rho3_sq}: the eavesdropper "
            f"dominates, so the key rate is zero and only the zero-key region applies")


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
    return np.stack([np.where(rs_raw > 0.0, rs_raw, 0.0), rj, rl, rs_raw], axis=-1)


def parametric_corner(params: GaussianModelParams, alpha: float) -> RateCorner:
    """Parametric corner at a given alpha, nats, for rho2_sq > rho3_sq (see
    `_parametric_rates`)."""
    _check_direction(params)
    _check_alpha(alpha)
    return _rate_corner(_parametric_rates(params, [alpha])[0].tolist(), param=float(alpha))


def zero_key_region_gaussian(params: GaussianModelParams) -> RegionBoundary:
    """Zero-key region in nats for rho2_sq <= rho3_sq: leakage floor
    1/2 log(1/(1 - rho3_sq)) with any nonnegative storage."""
    if params.verdict().relation is Relation.DEGRADED_Z_WRT_Y:
        raise WrongDirectionError(
            f"rho2_sq={params.rho2_sq} > rho3_sq={params.rho3_sq}: the main channel "
            f"dominates; use parametric_region")
    rl = 0.5 * math.log(1.0 / (1.0 - params.rho3_sq))
    corner = RateCorner(0.0, 0.0, rl, extras={"param": "zero_key"})
    return RegionBoundary([corner], InfoUnit.NATS,
                          metadata={"region": "zero_key", "params": _params_dict(params)})


def parametric_region(params: GaussianModelParams) -> RegionBoundary:
    """Log-spaced alpha sweep on (alpha_min, 1], Pareto-filtered, in nats."""
    _check_direction(params)
    alphas = np.geomspace(params.alpha_min, 1.0, params.alpha_grid)
    meta = {"params": _params_dict(params),
            "alpha_grid": params.alpha_grid, "alpha_min": params.alpha_min}
    return RegionBoundary(_front(_parametric_rates(params, alphas), alphas.tolist()),
                          InfoUnit.NATS, metadata=meta)


def figure_curves(params: GaussianModelParams) -> dict:
    """Per-alpha (rj, rs, rl) curves for the given parameters and their
    noiseless-enrollment overlay, used for the storage-rate projections."""
    _check_direction(params)
    alphas = np.geomspace(params.alpha_min, 1.0, params.alpha_grid)
    out = {"alpha": alphas}
    for tag, prm in (("hsm", params), ("vsm", params.vsm())):
        rs, rj, rl, _ = _parametric_rates(prm, alphas).T
        out[tag] = {"rj": rj, "rs": rs, "rl": rl, "rho1_sq": prm.rho1_sq}
    return out


def covariance_mc_diagnostic(params: GaussianModelParams, alpha: float,
                             n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Max-abs gap between the analytic covariance and an empirical one
    sampled from the generative equations; a sanity diagnostic only."""
    _check_alpha(alpha)
    rng = np.random.default_rng(seed)
    r1 = math.sqrt(params.rho1_sq)
    r2 = math.sqrt(params.rho2_sq)
    r3 = math.sqrt(params.rho3_sq)
    u = math.sqrt(1.0 - alpha) * rng.standard_normal(n_samples)
    xt = u + math.sqrt(alpha) * rng.standard_normal(n_samples)
    x = r1 * xt + math.sqrt(1.0 - params.rho1_sq) * rng.standard_normal(n_samples)
    y = r2 * x + math.sqrt(1.0 - params.rho2_sq) * rng.standard_normal(n_samples)
    z = r3 * x + math.sqrt(1.0 - params.rho3_sq) * rng.standard_normal(n_samples)
    emp = np.cov(np.stack([u, xt, x, y, z]), bias=True)
    return float(np.max(np.abs(emp - build_covariance(params, alpha).matrix)))


def _params_dict(params: GaussianModelParams) -> dict:
    return {"rho1_sq": params.rho1_sq, "rho2_sq": params.rho2_sq,
            "rho3_sq": params.rho3_sq}
