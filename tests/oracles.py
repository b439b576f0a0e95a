"""Independent references that only the tests call, in the order of their
old homes in `authcap`: the chain joint and region membership (regions), the
covariance oracle (gaussian), the convolution bounds and entropy-convolution
check (binary), the channel cascade (infotheory), and the scalar key hash,
the gathered-table sampler and the one-symbol-per-pass mode products
(protocol)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from authcap.gaussian import GaussianModelParams, _check_alpha
from authcap.infotheory import (LN2, AlphabetMismatchError, Channel, JointDistribution,
                                _entropy_nats, binary_entropy, binary_entropy_inverse, convolve)
from authcap.protocol import _gf64_mul
from authcap.regions import AuthModel, RegionBoundary, _chain_laws, _corner_rates

DOMINANCE_TOL = 1e-9
VAR_NAMES = ("U", "Xt", "X", "Y", "Z")
PSD_TOL = -1e-10
SINGULAR_TOL = 1e-12
ENTROPY_BOUND_SLACK = 1e-9


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


def region_contains(boundary: RegionBoundary, point) -> bool:
    """Whether (rs, rj, rl), in the boundary's unit (`RegionBoundary.unit`),
    is achievable per some corner of the boundary, within DOMINANCE_TOL."""
    rs, rj, rl = point
    c = _corner_rates(boundary.corners, "the boundary")
    tol = DOMINANCE_TOL
    return bool(np.any((rs <= c[:, 0] + tol) & (rj >= c[:, 1] - tol) & (rl >= c[:, 2] - tol)))


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


def covariance_mc_diagnostic(params: GaussianModelParams, alpha: float) -> float:
    """Max-abs gap between the analytic covariance and an empirical one from
    10^6 samples (seed 0) of the generative equations; a sanity diagnostic
    only."""
    _check_alpha(alpha)
    n_samples = 1_000_000
    rng = np.random.default_rng(0)
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


def compose_channels(first: Channel, second: Channel) -> Channel:
    """Cascade first then second: out(c|a) = sum_b second(c|b) first(b|a)."""
    if first.num_outputs != second.num_inputs:
        raise AlphabetMismatchError(
            f"first has {first.num_outputs} outputs, second expects {second.num_inputs} inputs"
        )
    return Channel(first.matrix @ second.matrix)


def hash_index(a: int, b: int, index: int, m_s: int) -> int:
    """Affine GF(2^64) hash of a codeword index truncated to [0, m_s)."""
    return (_gf64_mul(a, index) ^ b) & (m_s - 1)


def ref_sample_through(rng, rows: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Per-symbol categorical sampling of channel outputs given inputs, as
    `protocol._sample_through` did it: a (..., |out| - 1) table of each
    symbol's cdf boundaries, compared with its draw and summed."""
    cdf = np.cumsum(rows, axis=1)
    r = rng.random(inputs.shape)
    return (r[..., None] >= cdf[inputs][..., :-1]).sum(axis=-1)


def ref_mode_products(table: np.ndarray, per_symbol: np.ndarray, n: int) -> np.ndarray:
    """sum over a^n of table[a^n, c] * prod_t per_symbol[a_t, b_t], as a
    (c, b^n) matrix, as `protocol._mode_products` took it before it worked in
    blocks: one symbol per pass, each pass contracting the leading symbol of
    a copy of `table` (rows in `_all_sequences` order) with the square
    per-symbol law and appending its image last."""
    src = np.array(table, dtype=float)
    for _ in range(n):
        src = (src.reshape(len(per_symbol), -1).T @ per_symbol).reshape(-1)
    return src.reshape(table.shape[1], -1)
