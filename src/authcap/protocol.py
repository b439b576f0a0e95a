"""Desk-scale random-binning scheme: codebook, typicality encoder, binning,
universal hashing, decoder, Monte-Carlo error estimation, and exact small-n
leakage accounting.

Blocklengths stay tiny (exact leakage enumerates all binary sequences), so
measured leakages are finite-n values, not the vanishing asymptotic ones.
Typicality tests are sums of the information densities
i(u;b) = log2 P(u,b)/(P(u)P(b)) of U's joints along U - Xt - X - (Y, Z),
against thresholds in bits per block:

  encoder set: sum_t i(u_t;xt_t) <= n (I(Xt;U) + gamma),
               restricted to codewords of positive posterior probability
  decoder set: sum_t i(u_t;y_t)  >= n (I(Y;U) - gamma)
  B_n:         sum_t i(u_t;x_t) - i(u_t;z_t)  >= n (I(X;U|Z) - gamma)
  K_n:         sum_t i(u_t;xt_t) - i(u_t;x_t) >= n (I(Xt;U|X) - gamma)

B_n and K_n are diagnostic sets: by the Markov chain their densities equal
log2 P(x|u,z)/P(x|z) and log2 P(xt|u,x)/P(xt|x), and their thresholds
I(X;U|Z) = I(U;X) - I(U;Z) and I(Xt;U|X) = I(U;Xt) - I(U;X).

Key extraction hashes the chosen codeword index with an affine map over
GF(2^64) truncated to log2(M_S) bits, a 2-universal family.
"""

from __future__ import annotations

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

# The encoder's density buffer, reused block to block, holds four density
# matrices (so the matmul's packing of that matrix, once per block, stays a
# small share of its work), but at least _ENCODER_CELLS (1 MB of float64,
# half the per-core L2 of the 2-vCPU Xeon VM it was tuned on) and at most
# 2^22 cells.
_ENCODER_CELLS = 1 << 17
# Cap on each side of a decoder tile (trials and members against the one-hot
# width, and trials against members): 512 KB of float64.
_TILE_CELLS = 1 << 16
# Expected cells of a decoder tile, trials against the members of their
# bins: a group of g trials spans about g * size / trials members, so g is
# the square root of _GROUP_CELLS * trials / size (126 trials, two bins, on
# the simulate benchmark's code).
_GROUP_CELLS = 1 << 14


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


def _hash_indices(a: int, b: int, count: int, m_s: int) -> np.ndarray:
    """The affine GF(2^64) hash (a * i) XOR b of each codeword index i in
    range(count), truncated to its low log2(m_s) bits, as int64.  The product
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


def _density(joint: np.ndarray) -> np.ndarray:
    """Information density log2 P(a,b) / (P(a) P(b)) of a joint [a, b]: -inf
    where the joint is 0, and 0 where a marginal is 0 (unreachable)."""
    marg = joint.sum(axis=1)[:, None] * joint.sum(axis=0)[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(marg > 0.0, np.log2(joint / marg), 0.0)


class ProtocolTables:
    """Per-symbol laws, and the information densities of U's four joints
    along the chain, derived from a model and a test channel; everything
    downstream reads these."""

    def __init__(self, model: AuthModel, test: Channel):
        acz = model.ac_z.matrix
        self.nu = test.num_outputs
        laws = _chain_laws(model, test.matrix[None])
        p_au, p_yu, p_zu, p_xu = (j[0] for j in laws)
        self.p_u = p_au.sum(axis=0)
        self.p_z = model.px.probs @ acz
        self.p_xtz = model._p_xa.T @ acz      # joint (Xt, Z)

        self.tn_table = _density(p_au)        # [xt, u]
        self.an_table = _density(p_yu).T      # [u, y]
        self.x_table = _density(p_xu).T       # [u, x]
        self.z_table = _density(p_zu).T       # [u, z]

        i_xt_u, i_y_u, i_z_u, i_x_u = (float(v[0]) for v in _infos_nats(*laws))
        self.i_xt_u, self.i_y_u, self.i_z_u, self.i_xz = (
            v / LN2 for v in (i_xt_u, i_y_u, i_z_u, model.i_xz_nats()))
        # Along U - Xt - X - Z, I(U;Z|X) = 0 and I(U;X|Xt) = 0, so the chain
        # rule gives I(X;U|Z) = I(U;X) - I(U;Z) and I(Xt;U|X) = I(U;Xt) - I(U;X).
        self.i_x_u_given_z = _clamp_mi(i_x_u - i_z_u) / LN2
        self.i_xt_u_given_x = _clamp_mi(i_xt_u - i_x_u) / LN2


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

    @cached_property
    def _decoder_table(self) -> np.ndarray:
        """an_table with each zero-probability pair (-inf) replaced by a finite
        penalty that alone puts any row containing it below the decoder
        threshold."""
        an = self.tables.an_table
        finite = np.isfinite(an)
        penalty = min(self.decoder_threshold(), 0.0) - self.n * np.abs(an[finite]).max() - 1.0
        return np.where(finite, an, penalty)

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
        raise SimLimitError(f"{what} 2^{exponent:g} exceeds max_codebook_size {cap}")
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
        raise SimLimitError(f"codebook size 2^{exponent:g} exceeds cap {cap}")
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
    """(rows, cols, hits): the (sequence, codeword) pairs of `seqs` that pass
    the encoder test, in row-major order, and the count per row; SimLimitError
    past _MAX_CELLS pairs.  The densities of each block of rows go into one
    buffer (see _ENCODER_CELLS) and its test into one mask, both reused.
    Few pairs pass (0.1% on the benchmark's code): a block's flat mask indices
    split by divmod cost a tenth of a 2-D `np.nonzero`."""
    size = codebook.size
    cells = min(max(_ENCODER_CELLS, 4 * codebook._density_matrix.size), 1 << 22)
    step = max(1, cells // size)
    dens = np.empty((min(step, len(seqs)), size))
    mask = np.empty(dens.shape, dtype=bool)
    eye = np.eye(len(codebook.tables.tn_table), dtype=bool)   # one-hot rows by symbol
    flat, count = [], 0
    for lo in range(0, len(seqs), step):
        one_hot = np.take(eye, seqs[lo:lo + step], axis=0)
        rows = len(one_hot)
        np.matmul(one_hot.reshape(rows, -1), codebook._density_matrix, out=dens[:rows])
        np.less_equal(dens[:rows], codebook.encoder_threshold(), out=mask[:rows])
        flat.append(np.flatnonzero(mask[:rows]) + lo * size)
        count += len(flat[-1])
        if count > _MAX_CELLS:
            raise SimLimitError(f"over {_MAX_CELLS} sequence-codeword pairs pass the encoder test")
    del dens, mask
    flat = np.concatenate(flat)   # frees the blocks' indices before the split
    rows, cols = np.divmod(flat, size)
    return rows, cols, np.bincount(rows, minlength=len(seqs))


def _observation(seq, n: int, alphabet: int) -> np.ndarray:
    """`seq` as an int64 array; ValueError unless it holds n integral
    symbols (integers, or floats with integral values) in [0, alphabet)."""
    x = np.asarray(seq)
    if x.shape != (n,):
        raise ValueError(f"expected a length-{n} sequence")
    if not (x.dtype.kind in "biu" or x.dtype.kind == "f" and np.array_equal(x, np.trunc(x))):
        raise ValueError(f"symbols must be integers, got non-integral {x.dtype} values")
    if not (0 <= x.min() and x.max() < alphabet):
        raise ValueError(f"symbols must lie in [0, {alphabet}), got {x.min()} to {x.max()}")
    return x.astype(np.int64)


def _pick(table, rows, rng) -> np.ndarray:
    """Selected codeword per `_encoder_hits` table row in `rows`, -1 where
    none qualifies.  One rng.integers draw over the rows with several
    qualifiers takes the same numbers as one rng.choice among them per row."""
    hit_rows, cols, hits = table
    hits = hits[rows]
    pick = np.searchsorted(hit_rows, rows)     # each row's first qualifier
    pick[hits > 1] += rng.integers(0, hits[hits > 1])
    idx = np.full(len(hits), -1)
    idx[hits > 0] = cols[pick[hits > 0]]
    return idx


def enroll(codebook: Codebook, x_tilde_seq, rng=None):
    """Map an enrollment observation to (bin index, key, encoder_failed).

    Collects the codewords whose information density with the observation
    stays below the encoder threshold (zero-posterior codewords excluded)
    and picks one uniformly at random; with no qualifier the fallback output
    is bin 0, key 0, flagged as a failure.
    """
    x = _observation(x_tilde_seq, codebook.n, len(codebook.tables.tn_table))
    idx = _pick(_encoder_hits(codebook, x[None, :]), [0],
                rng or np.random.default_rng(codebook.seed))[0]
    if idx < 0:
        return 0, 0, True
    return int(codebook.bin_of[idx]), int(codebook.key_of[idx]), False


def _decode_block(codebook: Codebook, ys: np.ndarray, bins: np.ndarray):
    """(decoded codeword or -1, count of in-bin codewords passing the decoder
    test) per observation `ys` with helper bin `bins`; decoded when unique.

    The trials are taken in bin order, in groups cut at bin boundaries (a bin
    with more trials than a group is cut into several); each trial is decoded
    on its own, so their order within a bin does not matter.  A group's bins
    hold contiguous members in the bin index, scored in tiles capped at
    _TILE_CELLS on every side: one matmul of the trials' one-hot y rows by
    the members' per-symbol decoder-table rows, with the cells that pair a
    trial with another bin's member masked out."""
    order, edges = codebook._bin_index
    table = codebook._decoder_table
    width = codebook.n * table.shape[1]
    threshold = codebook.decoder_threshold()
    group = max(1, min(math.isqrt(_GROUP_CELLS * len(bins) // codebook.size), _TILE_CELLS // width))
    tile = max(1, _TILE_CELLS // max(width, group))

    by_bin = np.argsort(bins)
    sorted_bins = bins[by_bin]
    one_hot = np.take(np.eye(table.shape[1], dtype=bool), ys[by_bin], axis=0).reshape(len(bins), -1)
    hits = np.zeros(len(bins), dtype=np.int64)
    found = np.full(len(bins), -1)    # a passing member, kept where it is the only one
    start = 0
    while start < len(bins):
        stop = min(start + group, len(bins))
        if stop < len(bins):          # cut at the start of the bin the group ends in
            cut = np.searchsorted(sorted_bins, sorted_bins[stop])
            stop = cut if cut > start else stop
        rows = slice(start, stop)
        first, last = sorted_bins[start], sorted_bins[stop - 1]
        lo, hi = edges[first], edges[last + 1]
        for c0 in range(lo, hi, tile):
            members = order[c0:min(c0 + tile, hi)]
            dens = one_hot[rows] @ table[codebook.codewords[members]].reshape(len(members), -1).T
            passed = dens >= threshold
            if first != last:
                passed &= codebook.bin_of[members] == sorted_bins[rows, None]
            count = passed.sum(axis=1)
            pick = members[passed.argmax(axis=1)]
            if c0 > lo:                # keep an earlier tile's pick where this one has none
                pick = np.where(count > 0, pick, found[rows])
                count += hits[rows]
            hits[rows], found[rows] = count, pick
        start = stop
    decoded = np.empty_like(found)
    decoded[by_bin] = np.where(hits == 1, found, -1)
    out = np.empty_like(hits)
    out[by_bin] = hits
    return decoded, out


def authenticate(codebook: Codebook, y_seq, j: int):
    """Recover the key from the authentication observation and the helper
    bin index; anything but a unique in-bin typical codeword is a failure
    with fallback key 0."""
    y = _observation(y_seq, codebook.n, codebook.tables.an_table.shape[1])
    if not 0 <= j < codebook.m_j:
        raise ValueError(f"bin index {j} outside [0, {codebook.m_j})")
    idx = _decode_block(codebook, y[None, :], np.array([j]))[0][0]
    return (0, True) if idx < 0 else (int(codebook.key_of[idx]), False)


def _all_sequences(n: int) -> np.ndarray:
    """The 2^n binary sequences as rows, in counting order (first symbol most
    significant)."""
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _sequence_index(seqs: np.ndarray) -> np.ndarray:
    """Row of each binary sequence in `_all_sequences` order: its inverse."""
    return seqs @ (1 << np.arange(seqs.shape[1] - 1, -1, -1))


def _product_law(per_symbol: np.ndarray, n: int) -> np.ndarray:
    """Product law over length-n binary sequences in `_all_sequences` order,
    as the n-fold Kronecker power of `per_symbol`: a vector for a per-symbol
    vector, a (row sequence, column sequence) matrix for a 2x2 law."""
    out = np.ones(())
    for _ in range(n):   # axes (a_1, [b_1,] ..., a_n, [b_n])
        out = np.multiply.outer(out, per_symbol)
    k = per_symbol.ndim
    rows_then_cols = [axis for d in range(k) for axis in range(d, k * n, k)]
    return out.transpose(rows_then_cols).reshape([size ** n for size in per_symbol.shape])


def _mode_products(table: np.ndarray, per_symbol: np.ndarray, n: int) -> np.ndarray:
    """sum over a^n of table[a^n, c] * prod_t per_symbol[a_t, b_t], as a
    (c, b^n) matrix: `table` has rows indexed by sequences in `_all_sequences`
    order, and each of the n symbols is contracted with the square per-symbol
    law in turn, so the n-fold product law is never formed.  The contractions
    go back and forth between `table`, which is overwritten, and one buffer
    of its size; the result is a view of one of the two."""
    src, dst = table, np.empty_like(table)
    for _ in range(n):   # contracts the leading symbol, appends its image last
        np.matmul(src.reshape(len(per_symbol), -1).T, per_symbol,
                  out=dst.reshape(-1, len(per_symbol)))
        src, dst = dst, src
    return src.reshape(table.shape[1], -1)


def _encoder_kernel(codebook: Codebook, rows, cols, hits) -> np.ndarray:
    """Exact encoder law P(s, j | xt-sequence) from the `_encoder_hits` table of all
    sequences, counted straight into floats, with the uniform choice among qualifiers
    marginalised; rows by sequence, columns by the code s * m_j + j."""
    ncols = codebook.m_s * codebook.m_j
    out = np.bincount(rows * ncols + (codebook.key_of * codebook.m_j + codebook.bin_of)[cols],
                      np.ones(rows.size), hits.size * ncols).reshape(hits.size, ncols)
    out[hits == 0, 0] = 1.0   # fallback (s, j) = (0, 0)
    out /= np.maximum(hits, 1)[:, None]
    return out


def _check_exact(codebook: Codebook, config: SimConfig):
    """SimLimitError unless exact leakage is within the enumeration limit and
    its 2^n x m_s m_j encoder law and 2^n x n sequences fit in _MAX_CELLS."""
    n = codebook.n
    if n > config.exact_leakage_limit:
        raise SimLimitError(f"n={n} exceeds exact enumeration limit "
                            f"{config.exact_leakage_limit}; pass monte_carlo_only=True "
                            f"to skip exact leakage")
    cells = max(codebook.m_s * codebook.m_j, n) << n
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
    return _exact_leakage(codebook, model, _encoder_hits(codebook, _all_sequences(codebook.n)))


def _exact_leakage(codebook: Codebook, model: AuthModel, table) -> dict:
    """exact_leakage from the `_encoder_hits` table of all 2^n sequences."""
    n = codebook.n
    t = codebook.tables
    m_s, m_j = codebook.m_s, codebook.m_j
    # The encoder law is contracted in place (its one buffer is freed on
    # return), and mu_n's deviation table is made in place, so at most two
    # tables of the encoder law's size are alive at once.
    enc = _encoder_kernel(codebook, *table)
    enc_j = enc.reshape(-1, m_s, m_j).sum(axis=1)
    p_sjz = _mode_products(enc, t.p_xtz, n)     # (m_s * m_j, 2^n), overwrites enc
    del enc
    table_mass = float(p_sjz.sum())

    cube = p_sjz.reshape(m_s, m_j, -1)
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
    """Per-symbol categorical sampling of channel outputs given inputs: one
    uniform draw per symbol, whose output is the number of the input row's
    cdf boundaries (all but the last) at or below it, counted boundary by
    boundary rather than over a gathered table of every boundary."""
    cdf = np.cumsum(rows, axis=1)
    r = rng.random(inputs.shape)
    out = np.zeros(inputs.shape, dtype=np.intp)
    for bound in cdf[:, :-1].T:
        out += r >= bound[inputs]
    return out


def run_simulation(model: AuthModel, config: SimConfig,
                   monte_carlo_only: bool = False) -> SimReport:
    """Generate a codebook, measure error statistics over Monte-Carlo
    enrollment/authentication trials, and (within the enumeration limit)
    attach exact leakage figures.  Deterministic given config.seed."""
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

    table = None if monte_carlo_only else _encoder_hits(codebook, _all_sequences(n))
    idx = np.concatenate([
        _pick(_encoder_hits(codebook, xts[blk]), np.arange(len(xts[blk])), rng)
        if table is None else _pick(table, _sequence_index(xts[blk]), rng)
        for blk in _blocks(trials, codebook.size * codebook.n)])
    j = np.where(idx < 0, 0, codebook.bin_of[idx])
    decoded, hits = _decode_block(codebook, ys, j)

    enrolled = idx >= 0
    s = np.where(enrolled, codebook.key_of[idx], 0)
    s_hat = np.where(decoded >= 0, codebook.key_of[decoded], 0)
    cws = codebook.codewords[idx[enrolled]]
    # Every gathered density is finite: an enrolled codeword has positive
    # posterior given xt, xt and z are drawn from x, so P(u,xt), P(u,x) and
    # P(u,z) are positive on each symbol.
    x_dens = t.x_table[cws, xs[enrolled]]
    bn = (x_dens - t.z_table[cws, zs[enrolled]]).sum(axis=1) >= thr_b
    kn = (t.tn_table[xts[enrolled], cws] - x_dens).sum(axis=1) >= thr_k
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
        ex = _exact_leakage(codebook, model, table)
        report.exact_computed = True
        report.exact_secrecy_leakage_bits = ex["secrecy_leakage_bits"]
        report.exact_privacy_leakage_rate_bits = ex["privacy_leakage_rate_bits"]
        report.mu_n = ex["mu_n"]
        report.checks = {"table_mass": ex["table_mass"],
                         "z_marginal_gap": ex["z_marginal_gap"]}
    return report
