"""Exact finite-alphabet information measures and the binary-entropy toolkit.

This module owns every entropy and mutual-information kernel of the
package; regions, binary, protocol and classifier call these, not copies.
Everything is computed in nats internally; the public measures return
bits.  Only exact zeros are dropped before a logarithm is taken
(0 log 0 = 0 by continuity); every positive mass, however small, keeps its
term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# Mass / row-sum validation tolerance.
MASS_TOL = 1e-12

# Mutual informations this far below zero indicate a malformed joint.
NEGATIVE_MI_TOL = 1e-9


class InvalidDistributionError(ValueError):
    """A probability vector or matrix violates nonnegativity or total mass."""


class AlphabetMismatchError(ValueError):
    """Operands disagree on an alphabet size."""


class MalformedJointError(ValueError):
    """A joint produced an information measure more negative than tolerance."""


class InfoUnit(enum.Enum):
    """Information unit; conversion factor between the two is ln 2."""

    BITS = "bits"
    NATS = "nats"

    def from_nats(self, value: float) -> float:
        return value / LN2 if self is InfoUnit.BITS else value

    @staticmethod
    def parse(name: str) -> "InfoUnit":
        try:
            return InfoUnit(name.lower())
        except ValueError:
            raise ValueError(f"unknown unit {name!r}; expected 'bits' or 'nats'")


def _as_readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check_entries(p: np.ndarray, what: str):
    """Reject non-finite entries and entries below -MASS_TOL."""
    if not np.all(np.isfinite(p)):
        raise InvalidDistributionError(f"non-finite {what} entry")
    if np.any(p < -MASS_TOL):
        raise InvalidDistributionError(f"negative {what} entry: min={p.min()}")


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p cell by cell, 0 where p <= 0, in one float temporary
    the size of p (the logarithm is taken and multiplied in place)."""
    t = np.where(p > 0.0, p, 1.0)
    np.log(t, out=t)
    t *= p
    return t


def _running_sum(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = x[0] + x[1] + ... over x's leading axis, elementwise, left to
    right from numpy's identity 0.0 (so an all -0.0 sum comes out +0.0),
    as np.add.reduce sums an axis that is not its innermost loop.  Under 8
    terms that is one np.add.reduce over the leading axis: it sums left to
    right whichever loop numpy picks (a contiguous axis of fewer than 8
    terms too)."""
    if len(x) < 8:
        return np.add.reduce(x, axis=0, out=out)
    np.add(x[0], 0.0, out=out)
    for t in x[1:]:
        out += t
    return out


def _pairwise_sum(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = the sum over x's leading axis of k terms, elementwise, in the
    order np.add.reduce sums a contiguous last axis of k terms, so in the
    same bits: left to right for k < 8; for k <= 128 eight interleaved
    partial sums r0..r7, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the k mod 8 leftover terms in order; above 128 the sum of the two
    halves numpy splits at (k // 2 rounded down to a multiple of 8)."""
    k = len(x)
    if k < 8:
        return np.add.reduce(x, axis=0, out=out)   # left to right, as _running_sum
    if k > 128:
        h = k // 2 - k // 2 % 8
        _pairwise_sum(x[:h], out)
        out += _pairwise_sum(x[h:], np.empty_like(out))
        return out
    tail = k - k % 8
    r = x[:8] if tail == 8 else x[:8] + x[8:16]
    for lo in range(16, tail, 8):
        r += x[lo:lo + 8]
    # r0+r1, r2+r3, r4+r5, r6+r7, then their pairs, as two-term reduces,
    # which start from 0.0 as numpy's sum does
    r = np.add.reduce(r.reshape(4, 2, *r.shape[1:]), axis=1)
    r = np.add.reduce(r.reshape(2, 2, *r.shape[1:]), axis=1)
    if tail == k:
        return np.add(r[0], r[1], out=out)
    terms = np.empty((1 + k - tail, *out.shape))
    np.add(r[0], r[1], out=terms[0])
    terms[1:] = x[tail:]
    return _running_sum(terms, out)


def _entropy_nats(p: np.ndarray, axis: int = None):
    """Shannon entropy in nats of the whole array (a float), or of each
    slice along ``axis`` (an array: the batched form).  The sum is negated
    once rather than term by term, which rounds the same; subtracting it
    from 0.0 rather than negating keeps a zero entropy at +0.0."""
    h = 0.0 - np.add.reduce(_xlogx(np.asarray(p, dtype=float)), axis=axis)
    return float(h) if axis is None else h


def _jsonable(v):
    """v with numpy arrays and scalars, channels and verdicts (anything with
    a ``to_json_dict``) turned into JSON types, recursing into dicts."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, Channel):
        return v.matrix.tolist()
    if hasattr(v, "to_json_dict"):
        return v.to_json_dict()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _channel_stack(matrices) -> np.ndarray:
    """Read-only copy of a stack m[..., inputs, outputs] of row-stochastic
    matrices, checked as Channel checks one (finite entries, none below
    -MASS_TOL, every row summing to 1 within MASS_TOL) and clipped at 0.
    Rows in errors are counted across the stack."""
    m = np.asarray(matrices, dtype=float)
    _check_entries(m, "channel")
    bad = np.abs(m.sum(axis=-1) - 1.0) > MASS_TOL
    if np.any(bad):
        raise InvalidDistributionError(
            f"rows {np.flatnonzero(bad).tolist()} do not sum to 1 within {MASS_TOL}"
        )
    return _as_readonly(np.clip(m, 0.0, None))


def _blocks(rows: int, row_cells: int, cells: int = 1 << 22) -> list:
    """Slices of `rows` rows in blocks of at most `cells` cells (by default
    2^22, 32 MB of float64) when each row takes `row_cells` cells."""
    step = max(1, cells // row_cells)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


@dataclass
class DiscreteDistribution:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidDistributionError("probs must be a nonempty 1-D vector")
        _check_entries(p, "probability")
        total = p.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidDistributionError(f"mass {total} is not 1 within {MASS_TOL}")
        self.probs = _as_readonly(np.clip(p, 0.0, None))

    def __len__(self) -> int:
        return self.probs.size

    @staticmethod
    def uniform(n: int) -> "DiscreteDistribution":
        return DiscreteDistribution(np.full(n, 1.0 / n))


@dataclass
class Channel:
    """Row-stochastic matrix; rows indexed by input symbol, columns by output."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise InvalidDistributionError("channel matrix must be 2-D and nonempty")
        self.matrix = _channel_stack(m)

    @classmethod
    def _of_checked(cls, matrix: np.ndarray) -> "Channel":
        """Channel over a read-only matrix that passes Channel's checks by
        construction (one matrix of a `_channel_stack` result, or a one-hot
        matrix), which is not checked again."""
        channel = object.__new__(cls)
        channel.matrix = matrix
        return channel

    @property
    def num_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def bsc(p: float) -> "Channel":
        """Binary symmetric channel with crossover probability p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"crossover probability {p} outside [0, 1]")
        return Channel(np.array([[1.0 - p, p], [p, 1.0 - p]]))

    @staticmethod
    def bec(q: float) -> "Channel":
        """Binary erasure channel; output alphabet is (0, 1, erasure)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"erasure probability {q} outside [0, 1]")
        return Channel(np.array([[1.0 - q, 0.0, q], [0.0, 1.0 - q, q]]))

    @staticmethod
    def identity(n: int) -> "Channel":
        return Channel(np.eye(n))

    @staticmethod
    def constant(num_inputs: int) -> "Channel":
        """Channel with one output symbol: the all-ones column.  Raises
        InvalidDistributionError for an empty matrix."""
        if num_inputs < 1:
            raise InvalidDistributionError("channel matrix must be 2-D and nonempty")
        m = np.ones((num_inputs, 1))
        m.setflags(write=False)
        return Channel._of_checked(m)


@dataclass
class JointDistribution:
    """Dense joint law over several finite axes."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        _check_entries(p, "joint")
        total = p.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidDistributionError(f"joint mass {total} is not 1 within {MASS_TOL}")
        self.probs = _as_readonly(np.clip(p, 0.0, None))

    @property
    def ndim(self) -> int:
        return self.probs.ndim

    def marginal(self, keep) -> np.ndarray:
        """Marginal array over the kept axes, in their original order."""
        keep = tuple(keep)
        self._check_axes(keep)
        drop = tuple(i for i in range(self.ndim) if i not in keep)
        out = self.probs.sum(axis=drop) if drop else np.array(self.probs)
        # sum() preserves the relative order of kept axes, which is what we want
        return out

    def _check_axes(self, axes):
        for a in axes:
            if not 0 <= a < self.ndim:
                raise IndexError(f"axis {a} out of range for {self.ndim}-axis joint")
        if len(set(axes)) != len(tuple(axes)):
            raise ValueError(f"repeated axis in {tuple(axes)}")


def entropy(d: DiscreteDistribution) -> float:
    """H(d) = -sum p log2 p in bits, with 0 log 0 = 0."""
    return _entropy_nats(d.probs) / LN2


def _positive(x):
    """x where above 0, else +0.0 (also for -0.0 and NaN): a float for a
    float (without numpy, in the same bits) or a 0-d array, else an array."""
    if isinstance(x, float):
        return float(x) if x > 0.0 else 0.0
    clamped = np.where(x > 0.0, x, 0.0)
    return clamped if clamped.ndim else float(clamped)


def _clamp_mi(value_nats):
    """A mutual information (a float, or an array of them) clamped at 0 by
    `_positive`; MalformedJointError if any is below -NEGATIVE_MI_TOL."""
    worst = value_nats if isinstance(value_nats, float) else np.asarray(value_nats).min()
    if worst < -NEGATIVE_MI_TOL:
        raise MalformedJointError(
            f"mutual information {worst} nats below -{NEGATIVE_MI_TOL}; joint is malformed"
        )
    return _positive(value_nats)


def _mi2_nats(j: np.ndarray):
    """Mutual information in nats between the row and column variables of a
    2-D joint array (a float), or of each joint of a stack j[..., rows, cols]
    (an array).  With S the sum of p log p over the rows' marginal, the
    columns' marginal or the cells, it is S_cells - (S_rows + S_cols): the
    bits of H(rows) + H(cols) - H(cells) once clamped, as negating every
    operand of a rounded sum or difference negates its result.  The cells
    are summed over the flattened trailing axes, a view of a contiguous
    stack, so no temporary beyond `_xlogx`'s is made.  The package scores
    stacks with `regions._infos_nats`, in the same bits; the tests hold it
    to this function."""
    s_rows = np.add.reduce(_xlogx(np.add.reduce(j, axis=-1)), axis=-1)
    s_cols = np.add.reduce(_xlogx(np.add.reduce(j, axis=-2)), axis=-1)
    s_cells = np.add.reduce(_xlogx(j.reshape(*j.shape[:-2], -1)), axis=-1)
    return _clamp_mi(s_cells - (s_rows + s_cols))


def mutual_information(j: JointDistribution, axes_a, axes_b) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) in bits over disjoint axis sets of the joint."""
    axes_a, axes_b = tuple(axes_a), tuple(axes_b)
    j._check_axes(axes_a + axes_b)
    if set(axes_a) & set(axes_b):
        raise ValueError(f"axis sets {axes_a} and {axes_b} overlap")
    h_a, h_b, h_ab = (_entropy_nats(j.marginal(k)) for k in (axes_a, axes_b, axes_a + axes_b))
    return _clamp_mi(h_a + h_b - h_ab) / LN2


def conditional_mutual_information(j: JointDistribution, axes_a, axes_b, axes_c) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C) in bits."""
    axes_a, axes_b, axes_c = tuple(axes_a), tuple(axes_b), tuple(axes_c)
    j._check_axes(axes_a + axes_b + axes_c)
    sa, sb, sc = set(axes_a), set(axes_b), set(axes_c)
    if sa & sb or sa & sc or sb & sc:
        raise ValueError("axis sets must be pairwise disjoint")
    h_ac, h_bc, h_abc, h_c = (_entropy_nats(j.marginal(k)) for k in (
        axes_a + axes_c, axes_b + axes_c, axes_a + axes_b + axes_c, axes_c))
    return _clamp_mi(h_ac + h_bc - h_abc - h_c) / LN2


def binary_entropy(x: float) -> float:
    """H_b(x) = -x log2 x - (1-x) log2(1-x) in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    v = 0.0
    if x > 0.0:
        v -= x * math.log(x)
    if 1.0 - x > 0.0:
        v -= (1.0 - x) * math.log(1.0 - x)
    return v / LN2


def binary_entropy_inverse(h: float) -> float:
    """Unique x in [0, 1/2] with H_b(x) = h (h in bits), by bisection."""
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"binary entropy value {h} outside [0, 1]")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def convolve(a: float, b: float) -> float:
    """Binary convolution a(1-b) + (1-a)b."""
    if not 0.0 <= a <= 1.0 or not 0.0 <= b <= 1.0:
        raise ValueError(f"convolution arguments ({a}, {b}) outside [0, 1]")
    return a * (1.0 - b) + (1.0 - a) * b
