"""Desk-scale random-binning scheme: codebook, typicality encoder, binning,
universal hashing, decoder, Monte-Carlo error estimation, and exact small-n
leakage accounting.

Blocklengths stay tiny (exact leakage enumerates all binary sequences), so
measured leakages are finite-n values, not the vanishing asymptotic ones.
Typicality thresholds are information-density sums in bits per block:

  encoder set: sum_t log2 P(u_t|xt_t)/P(u_t) <= n (I(Xt;U) + gamma),
               restricted to codewords of positive posterior probability
  decoder set: sum_t log2 P(y_t|u_t)/P(y_t)  >= n (I(Y;U) - gamma)

Key extraction hashes the chosen codeword index with an affine map over
GF(2^64) truncated to log2(M_S) bits, a 2-universal family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .infotheory import Channel, LN2, _blocks, _clamp_mi, _entropy_nats, _jsonable, _mi2_nats
from .regions import AuthModel, _chain_laws, _infos_nats

WILSON_Z_95 = 1.959963984540054

_MASK64 = (1 << 64) - 1
_GF64_REDUCTION = 0x1B  # x^64 = x^4 + x^3 + x + 1

# Cap on the cells of any one table the simulator allocates (trial
# sequences, codewords, exact-leakage laws): 256 MB of float64.
_MAX_CELLS = 1 << 25


class SimLimitError(ValueError):
    """A configured simulator cap (blocklength, codebook size) or the cell
    cap on the simulator's tables was exceeded."""


def _gf64_mul(a: int, b: int) -> int:
    """Carry-less product in GF(2^64)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        hi = a >> 63
        a = (a << 1) & _MASK64
        if hi:
            a ^= _GF64_REDUCTION
    return r


def hash_index(a: int, b: int, index: int, m_s: int) -> int:
    """Affine GF(2^64) hash of a codeword index truncated to [0, m_s)."""
    return (_gf64_mul(a, index) ^ b) & (m_s - 1)


def _hash_indices(a: int, b: int, count: int, m_s: int) -> np.ndarray:
    """hash_index(a, b, i, m_s) for i in range(count), as int64.  The product
    a * i is the XOR of the shifts a * x^k (reduced) over the set bits k of i,
    so one pass per index bit covers every index."""
    idx = np.arange(count, dtype=np.uint64)
    out = np.full(count, b, dtype=np.uint64)
    shift = a
    for k in range(max(count - 1, 0).bit_length()):
        bit = (idx >> np.uint64(k)) & np.uint64(1)
        out ^= -bit & np.uint64(shift)   # -bit is all ones where bit k of i is set
        shift = _gf64_mul(shift, 2)
    return (out & np.uint64(m_s - 1)).astype(np.int64)


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z_95
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials
                         + z * z / (4.0 * trials * trials)) / denom
    return (min(phat, max(0.0, center - half)), max(phat, min(1.0, center + half)))


def _conditional(joint: np.ndarray, marg: np.ndarray) -> np.ndarray:
    """joint / marg with cells of zero marginal set to 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(marg > 0, joint / marg, 0.0)


def _log_ratio(cond: np.ndarray, marg: np.ndarray) -> np.ndarray:
    """log2 cond - log2 marg with zero-marginal cells zeroed (unreachable)."""
    marg = np.broadcast_to(marg, cond.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log2(cond) - np.log2(marg)
    return np.where(marg <= 0.0, 0.0, out)


class ProtocolTables:
    """Per-symbol laws and information-density tables derived from a model
    and a test channel; everything downstream reads these."""

    def __init__(self, model: AuthModel, test: Channel):
        if test.num_inputs != model.n_xt:
            raise ValueError("test channel must act on the enrollment alphabet")
        px = model.px.probs
        ec = model.ec.matrix
        acy = model.ac_y.matrix
        acz = model.ac_z.matrix
        t = test.matrix

        self.nu = test.num_outputs
        laws = _chain_laws(model, t[None])
        p_xa, p_xu, p_yu = laws.p_xa, laws.p_xu[0], laws.p_yu[0]
        self.p_u = laws.p_au.sum(axis=1)[0]

        self.ch_y_u = _conditional(p_yu.T, self.p_u[:, None])     # P(y|u)
        self.p_y = px @ acy
        self.p_z = px @ acz
        self.p_xtz = p_xa.T @ acz                  # joint (Xt, Z)

        self.tn_table = _log_ratio(t, self.p_u[None, :])          # [xt, u]
        self.an_table = _log_ratio(self.ch_y_u, self.p_y[None, :])  # [u, y]

        i_xt_u, i_y_u, i_z_u, i_x_u = (float(v[0]) for v in _infos_nats(
            laws.p_au, laws.p_yu, laws.p_zu, laws.p_xu))
        self.i_xt_u, self.i_y_u, self.i_z_u, self.i_xz = (
            v / LN2 for v in (i_xt_u, i_y_u, i_z_u, model.i_xz_nats()))
        # Along U - Xt - X - Z, I(U;Z|X) = 0 and I(U;X|Xt) = 0, so the chain
        # rule gives I(X;U|Z) = I(U;X) - I(U;Z) and I(Xt;U|X) = I(U;Xt) - I(U;X).
        self.i_x_u_given_z = _clamp_mi(i_x_u - i_z_u) / LN2
        self.i_xt_u_given_x = _clamp_mi(i_xt_u - i_x_u) / LN2

        # Diagnostic sets: source-vs-auxiliary densities given the
        # eavesdropper's symbol, and enrollment-noise densities.
        p_uxz = p_xu.T[:, :, None] * acz[None, :, :]     # (U, X, Z)
        cond_x_uz = _conditional(p_uxz, p_uxz.sum(axis=1)[:, None, :])
        cond_x_z = _conditional(px[:, None] * acz, self.p_z[None, :])
        self.bn_table = _log_ratio(cond_x_uz, cond_x_z[None, :, :])

        p_uax = t.T[:, :, None] * p_xa.T[None, :, :]     # (U, Xt, X)
        cond_a_ux = _conditional(p_uax, p_uax.sum(axis=1)[:, None, :])
        self.kn_table = _log_ratio(cond_a_ux, ec.T[None, :, :])


@dataclass
class SimConfig:
    """Simulation settings; rates default to the scheme's own settings
    (storage I(Xt;U|Y) + 4 gamma, key I(Y;U) - I(Z;U) - 6 gamma, codebook
    size 2^{n (I(Xt;U) + 2 gamma)}), with M_S and M_J rounded to integer
    powers of two.  rate_overrides = (r_j_bits, r_s_bits) replaces the two
    rates for experiments outside the region."""

    n: int
    test_channel: Channel
    gamma: float = 0.1
    rate_overrides: tuple = None
    seed: int = 0
    exact_leakage_limit: int = 10
    trials: int = 10_000
    max_codebook_size: int = 1 << 20
    bijective_bins: bool = False
    collect_trace: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength n must be >= 1")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.rate_overrides is not None and not all(map(math.isfinite, self.rate_overrides)):
            raise ValueError(f"rate_overrides must be finite, got {self.rate_overrides}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_codebook_size < 1:
            raise ValueError(f"max_codebook_size must be >= 1, got {self.max_codebook_size}")
        if self.trials * self.n > _MAX_CELLS:
            raise SimLimitError(f"trials x n = {self.trials * self.n} sequence cells "
                                f"exceeds the cap of {_MAX_CELLS}")


@dataclass
class Codebook:
    """Realised code: i.i.d. codewords, uniform bin map, and hash parameters."""

    codewords: np.ndarray
    bin_of: np.ndarray
    key_of: np.ndarray
    hash_a: int
    hash_b: int
    m_s: int
    m_j: int
    gamma: float
    seed: int
    rates: dict
    tables: ProtocolTables

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def n(self) -> int:
        return self.codewords.shape[1]

    @cached_property
    def _bin_index(self):
        """(order, edges): bin j's members are order[edges[j]:edges[j + 1]]."""
        order = np.argsort(self.bin_of, kind="stable")
        return order, np.searchsorted(self.bin_of[order], np.arange(self.m_j + 1))

    @cached_property
    def _density_matrix(self) -> np.ndarray:
        """B with one_hot(xt^n) @ B = the encoder information densities
        against every codeword: B[(t, a), c] = tn_table[a, u_ct].  A
        zero-posterior pair (tn_table -inf) is replaced by a finite penalty
        that alone puts any row containing it above the encoder threshold."""
        tn = self.tables.tn_table
        finite = np.isfinite(tn)
        penalty = max(self.encoder_threshold(), 0.0) + self.n * np.abs(tn[finite]).max() + 1.0
        b = np.where(finite, tn, penalty)[:, self.codewords]        # (a, c, t)
        return b.transpose(2, 0, 1).reshape(-1, self.size)

    def bin_members(self, j: int) -> np.ndarray:
        order, edges = self._bin_index
        return order[edges[j]:edges[j + 1]]

    def encoder_threshold(self) -> float:
        return self.n * (self.rates["i_xt_u"] + self.gamma)

    def decoder_threshold(self) -> float:
        return self.n * (self.rates["i_y_u"] - self.gamma)


def _require_binary(model: AuthModel):
    if model.n_xt != 2 or model.nx != 2 or model.ac_z.num_outputs != 2:
        raise ValueError("desk-scale simulation requires binary source, "
                         "enrollment, and eavesdropper alphabets")


def _power_of_two(what: str, exponent: float, cap: int) -> int:
    """2^round(exponent), at least 1; SimLimitError above `cap`, checked
    before the power is formed."""
    e = max(0, round(exponent)) if math.isfinite(exponent) else math.inf
    if e > math.log2(cap):
        raise SimLimitError(f"{what} 2^{exponent:.2f} exceeds max_codebook_size {cap}")
    return 1 << e


def generate_codebook(model: AuthModel, config: SimConfig) -> Codebook:
    """Draw the code: 2^{n (I(Xt;U) + 2 gamma)} i.i.d. codewords from the
    auxiliary marginal, uniform bins, and a random affine hash over GF(2^64)
    with nonzero multiplier.  Deterministic given config.seed."""
    _require_binary(model)
    t = ProtocolTables(model, config.test_channel)

    exponent = config.n * (t.i_xt_u + 2.0 * config.gamma)
    cap = min(config.max_codebook_size, _MAX_CELLS // config.n)
    if exponent > math.log2(cap):
        raise SimLimitError(f"codebook size 2^{exponent:.2f} exceeds cap {cap}")
    size = max(1, math.ceil(2.0 ** exponent))

    r_j = t.i_xt_u - t.i_y_u + 4.0 * config.gamma
    r_s = t.i_y_u - t.i_z_u - 6.0 * config.gamma
    if config.rate_overrides is not None:
        r_j, r_s = config.rate_overrides
    m_s = _power_of_two("key count m_s", config.n * r_s, config.max_codebook_size)
    m_j = size if config.bijective_bins else _power_of_two(
        "bin count m_j", config.n * r_j, config.max_codebook_size)

    rng = np.random.default_rng(config.seed)
    codewords = rng.choice(t.nu, size=(size, config.n), p=t.p_u)
    bin_of = np.arange(size) if config.bijective_bins else rng.integers(0, m_j, size=size)

    hash_a = 0
    while hash_a == 0:
        hash_a = (int(rng.integers(0, 1 << 32)) << 32) | int(rng.integers(0, 1 << 32))
    hash_b = (int(rng.integers(0, 1 << 32)) << 32) | int(rng.integers(0, 1 << 32))
    key_of = _hash_indices(hash_a, hash_b, size, m_s)

    rates = {"r_j": r_j, "r_s": r_s, "i_xt_u": t.i_xt_u, "i_y_u": t.i_y_u,
             "i_z_u": t.i_z_u, "i_xz": t.i_xz}
    return Codebook(codewords, bin_of, key_of, hash_a, hash_b, m_s, m_j,
                    config.gamma, config.seed, rates, t)


def _encoder_hits(codebook: Codebook, seqs: np.ndarray):
    """(rows, cols, hits): the (sequence, codeword) pairs of the block `seqs`
    that pass the encoder test, in row-major order, and the count per row."""
    one_hot = seqs[:, :, None] == np.arange(len(codebook.tables.tn_table))
    dens = one_hot.reshape(len(seqs), -1) @ codebook._density_matrix
    rows, cols = np.nonzero(dens <= codebook.encoder_threshold())
    return rows, cols, np.bincount(rows, minlength=len(seqs))


def _enroll_block(codebook: Codebook, seqs: np.ndarray, rng) -> np.ndarray:
    """Selected codeword per sequence, -1 where none qualifies.  One draw of
    rng.integers over the rows with several qualifiers, in row order, takes
    the same numbers as one rng.choice among the qualifiers per row."""
    _, cols, hits = _encoder_hits(codebook, seqs)
    pick = np.cumsum(hits) - hits             # each row's first qualifier
    pick[hits > 1] += rng.integers(0, hits[hits > 1])
    idx = np.full(len(seqs), -1)
    idx[hits > 0] = cols[pick[hits > 0]]
    return idx


def enroll(codebook: Codebook, x_tilde_seq, rng=None):
    """Map an enrollment observation to (bin index, key, encoder_failed).

    Collects the codewords whose information density with the observation
    stays below the encoder threshold (zero-posterior codewords excluded)
    and picks one uniformly at random; with no qualifier the fallback output
    is bin 0, key 0, flagged as a failure.
    """
    x = np.asarray(x_tilde_seq)
    if x.shape != (codebook.n,):
        raise ValueError(f"expected a length-{codebook.n} sequence")
    idx = _enroll_block(codebook, x[None, :], rng or np.random.default_rng(codebook.seed))[0]
    if idx < 0:
        return 0, 0, True
    return int(codebook.bin_of[idx]), int(codebook.key_of[idx]), False


def _decode_block(codebook: Codebook, ys: np.ndarray, bins: np.ndarray):
    """(decoded codeword or -1, count of in-bin codewords passing the decoder
    test) per observation `ys` with helper bin `bins`; decoded when unique."""
    order, edges = codebook._bin_index
    sizes = edges[bins + 1] - edges[bins]
    trial = np.repeat(np.arange(len(bins)), sizes)
    shift = edges[bins] - (np.cumsum(sizes) - sizes)  # bin start less the trial's first slot
    members = order[np.arange(trial.size) + shift[trial]]
    dens = codebook.tables.an_table[codebook.codewords[members], ys[trial]].sum(axis=1)
    typical = dens >= codebook.decoder_threshold()
    hits = np.bincount(trial[typical], minlength=len(bins))
    decoded = np.full(len(bins), -1)
    decoded[trial[typical]] = members[typical]    # kept where the member is unique
    return np.where(hits == 1, decoded, -1), hits


def authenticate(codebook: Codebook, y_seq, j: int):
    """Recover the key from the authentication observation and the helper
    bin index; anything but a unique in-bin typical codeword is a failure
    with fallback key 0."""
    y = np.asarray(y_seq)
    if y.shape != (codebook.n,):
        raise ValueError(f"expected a length-{codebook.n} sequence")
    if not 0 <= j < codebook.m_j:
        raise ValueError(f"bin index {j} outside [0, {codebook.m_j})")
    idx = _decode_block(codebook, y[None, :], np.array([j]))[0][0]
    return (0, True) if idx < 0 else (int(codebook.key_of[idx]), False)


def _all_sequences(n: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)


def _product_law(per_symbol: np.ndarray, n: int) -> np.ndarray:
    """Product law over length-n binary sequences in `_all_sequences` order,
    as the n-fold Kronecker power of `per_symbol`: a vector for a per-symbol
    vector, a (row sequence, column sequence) matrix for a 2x2 law."""
    out = np.ones((1,) * per_symbol.ndim)
    for _ in range(n):
        out = np.kron(out, per_symbol)
    return out


def _mode_products(table: np.ndarray, per_symbol: np.ndarray, n: int) -> np.ndarray:
    """sum over a^n of table[a^n, c] * prod_t per_symbol[a_t, b_t], as a
    (c, b^n) matrix: `table` has rows indexed by sequences in `_all_sequences`
    order, and each of the n symbols is contracted with the per-symbol law in
    turn, so the n-fold product law is never formed."""
    out = table.reshape(per_symbol.shape[:1] * n + table.shape[1:])
    for _ in range(n):   # contracts the leading symbol, appends its image last
        out = np.tensordot(out, per_symbol, axes=(0, 0))
    return out.reshape(table.shape[1], -1)


def _encoder_kernel(codebook: Codebook, seqs: np.ndarray) -> np.ndarray:
    """Exact encoder law P(s, j | xt-sequence), with the uniform choice among
    qualifying codewords marginalised; rows indexed by sequence, columns by
    the combined code s * m_j + j."""
    sj_code = codebook.key_of * codebook.m_j + codebook.bin_of
    ncols = codebook.m_s * codebook.m_j
    out = np.zeros((len(seqs), ncols))
    for blk in _blocks(len(seqs), codebook.size * codebook.n):
        rows, cols, hits = _encoder_hits(codebook, seqs[blk])
        counts = np.bincount(rows * ncols + sj_code[cols],
                             minlength=hits.size * ncols).reshape(hits.size, ncols)
        counts[hits == 0, 0] = 1   # fallback (s, j) = (0, 0)
        out[blk] = counts / np.maximum(hits, 1)[:, None]
    return out


def _check_exact(codebook: Codebook, config: SimConfig):
    """SimLimitError unless exact leakage is within the enumeration limit and
    its 2^n x m_s m_j encoder law fits in _MAX_CELLS."""
    n = codebook.n
    if n > config.exact_leakage_limit:
        raise SimLimitError(f"n={n} exceeds exact enumeration limit "
                            f"{config.exact_leakage_limit}")
    cells = (codebook.m_s * codebook.m_j) << n
    if cells > _MAX_CELLS:
        raise SimLimitError(f"exact leakage at n={n} needs a table of 2^{math.log2(cells):g} "
                            f"cells, over the cap of {_MAX_CELLS}")


def exact_leakage(codebook: Codebook, model: AuthModel, config: SimConfig) -> dict:
    """Exact secrecy leakage I(S; J, Z^n), privacy leakage I(X^n; J, Z^n)/n,
    and the key-uniformity distance mu_n, by enumeration over all binary
    sequences.

    Secrecy side: P(s, j, z^n) = sum over xt-sequences of the pair law
    P(xt^n, z^n) (per-symbol joint, since the eavesdropper's observation is
    conditionally independent of the enrollment one given the source) times
    the exact encoder law, taken one symbol at a time (`_mode_products`).
    Privacy side uses
    I(X^n; J, Z^n) = n I(X;Z) + H(J|Z^n) - H(J|X^n), valid because the
    helper is conditionally independent of the eavesdropper's sequence given
    the source sequence.
    """
    _require_binary(model)
    _check_exact(codebook, config)
    n = codebook.n
    t = codebook.tables
    seqs = _all_sequences(n)
    m_s, m_j = codebook.m_s, codebook.m_j
    # The encoder law is freed once both its contractions are taken, and
    # mu_n's deviation table is made in place, so fewer tables of the
    # encoder law's size are alive at once.
    enc = _encoder_kernel(codebook, seqs)
    enc_j = enc.reshape(len(seqs), m_s, m_j).sum(axis=1)
    p_sjz = _mode_products(enc, t.p_xtz, n)     # (m_s * m_j, 2^n)
    del enc
    table_mass = float(p_sjz.sum())

    cube = p_sjz.reshape(m_s, m_j, len(seqs))
    p_jz = cube.sum(axis=0)
    p_z = p_jz.sum(axis=0)
    p_z_product = _product_law(t.p_z, n)
    z_marginal_gap = float(np.max(np.abs(p_z - p_z_product)))

    secrecy = _mi2_nats(cube.reshape(m_s, -1)) / LN2
    dev = cube - p_jz[None, :, :] / m_s
    np.abs(dev, out=dev)
    mu_n = float(dev.sum())
    del dev

    p_j_given_x = _mode_products(enc_j, model.ec.matrix.T, n)   # (m_j, 2^n)
    p_x_seq = _product_law(model.px.probs, n)
    h_j_given_x = float(np.sum(p_x_seq * _entropy_nats(p_j_given_x, axis=0)))
    h_j_given_z = _entropy_nats(p_jz) - _entropy_nats(p_z)
    privacy_total = n * t.i_xz + (h_j_given_z - h_j_given_x) / LN2

    return {
        "secrecy_leakage_bits": secrecy,
        "privacy_leakage_rate_bits": max(0.0, privacy_total) / n,
        "mu_n": mu_n,
        "table_mass": table_mass,
        "z_marginal_gap": z_marginal_gap,
    }


@dataclass
class SimReport:
    """Measured protocol statistics; exact fields are None above the
    enumeration limit or when the run is Monte-Carlo only."""

    n: int
    seed: int
    gamma: float
    trials: int
    codebook_size: int
    m_s: int
    m_j: int
    rates: dict
    bijective_bins: bool
    error_prob: float
    error_count: int
    wilson_low: float
    wilson_high: float
    encoder_failure_rate: float
    decoder_failure_rate: float
    decoder_ambiguity_rate: float
    codeword_error_rate: float
    bn_rate: float
    kn_rate: float
    exact_computed: bool
    exact_secrecy_leakage_bits: float = None
    exact_privacy_leakage_rate_bits: float = None
    mu_n: float = None
    checks: dict = field(default_factory=dict)
    trace: list = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {k: _jsonable(v) for k, v in self.__dict__.items() if k != "trace"}

    TRACE_COLUMNS = ("trial", "j", "s", "s_hat", "encoder_failed",
                     "decoder_failed", "ambiguous", "error")

    def trace_csv_text(self) -> str:
        if self.trace is None:
            raise ValueError("run with collect_trace=True to record a trace")
        lines = [",".join(self.TRACE_COLUMNS)]
        lines.extend(",".join(str(int(v)) for v in row) for row in self.trace)
        return "\n".join(lines) + "\n"


def _sample_through(rng, rows: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Per-symbol categorical sampling of channel outputs given inputs."""
    cdf = np.cumsum(rows, axis=1)
    r = rng.random(inputs.shape)
    return (r[..., None] >= cdf[inputs][..., :-1]).sum(axis=-1)


def run_simulation(model: AuthModel, config: SimConfig,
                   monte_carlo_only: bool = False) -> SimReport:
    """Generate a codebook, measure error statistics over Monte-Carlo
    enrollment/authentication trials, and (within the enumeration limit)
    attach exact leakage figures.  Deterministic given config.seed."""
    _require_binary(model)
    if config.n > config.exact_leakage_limit and not monte_carlo_only:
        raise SimLimitError(
            f"n={config.n} exceeds exact limit {config.exact_leakage_limit}; "
            f"pass monte_carlo_only=True to skip exact leakage")

    codebook = generate_codebook(model, config)
    if not monte_carlo_only:
        _check_exact(codebook, config)
    t = codebook.tables
    rng = np.random.default_rng([config.seed, 1])

    n, trials = config.n, config.trials
    xs = _sample_through(rng, model.px.probs[None, :],
                         np.zeros((trials, n), dtype=np.int64))
    xts = _sample_through(rng, model.ec.matrix, xs)
    ys = _sample_through(rng, model.ac_y.matrix, xs)
    zs = _sample_through(rng, model.ac_z.matrix, xs)

    thr_b = n * (t.i_x_u_given_z - config.gamma)
    thr_k = n * (t.i_xt_u_given_x - config.gamma)

    blocks = []
    for blk in _blocks(trials, codebook.size * codebook.n):
        idx = _enroll_block(codebook, xts[blk], rng)
        j = np.where(idx < 0, 0, codebook.bin_of[idx])
        blocks.append((idx, j, *_decode_block(codebook, ys[blk], j)))
    idx, j, decoded, hits = map(np.concatenate, zip(*blocks))

    enrolled = idx >= 0
    s = np.where(enrolled, codebook.key_of[idx], 0)
    s_hat = np.where(decoded >= 0, codebook.key_of[decoded], 0)
    cws = codebook.codewords[idx[enrolled]]
    bn = t.bn_table[cws, xs[enrolled], zs[enrolled]].sum(axis=1) >= thr_b
    kn = t.kn_table[cws, xts[enrolled], xs[enrolled]].sum(axis=1) >= thr_k
    errors = int(np.count_nonzero(s_hat != s))
    trace = (np.column_stack((np.arange(trials), j, s, s_hat, ~enrolled, decoded < 0,
                              hits > 1, s_hat != s)).tolist() if config.collect_trace else None)

    def share(mask) -> float:
        return int(np.count_nonzero(mask)) / trials

    lo, hi = wilson_interval(errors, trials)
    report = SimReport(
        n=n, seed=config.seed, gamma=config.gamma, trials=trials,
        codebook_size=codebook.size, m_s=codebook.m_s, m_j=codebook.m_j,
        rates=codebook.rates, bijective_bins=config.bijective_bins,
        error_prob=errors / trials, error_count=errors,
        wilson_low=lo, wilson_high=hi,
        encoder_failure_rate=share(~enrolled), decoder_failure_rate=share(decoded < 0),
        decoder_ambiguity_rate=share(hits > 1), codeword_error_rate=share(decoded != idx),
        bn_rate=share(bn), kn_rate=share(kn),
        exact_computed=False, trace=trace,
    )

    if not monte_carlo_only:
        ex = exact_leakage(codebook, model, config)
        report.exact_computed = True
        report.exact_secrecy_leakage_bits = ex["secrecy_leakage_bits"]
        report.exact_privacy_leakage_rate_bits = ex["privacy_leakage_rate_bits"]
        report.mu_n = ex["mu_n"]
        report.checks = {"table_mass": ex["table_mass"],
                         "z_marginal_gap": ex["z_marginal_gap"]}
    return report
