"""Exact finite-alphabet information measures and the binary-entropy toolkit.

This module owns every entropy and mutual-information kernel of the
package; regions, binary, protocol and classifier call these, not copies.
Everything is computed in nats internally; unit conversion happens at the
API boundary.  Probabilities below ``ZERO_EPS`` are treated as exact zeros
before any logarithm is taken (0 log 0 = 0 by continuity).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# Probabilities below this are exact zeros for entropy purposes.
ZERO_EPS = 1e-15

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

    def to_nats(self, value: float) -> float:
        return value * LN2 if self is InfoUnit.BITS else value

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
    """p log p cell by cell, 0 where p <= ZERO_EPS, in one float temporary
    the size of p (the logarithm is taken and multiplied in place)."""
    t = np.where(p > ZERO_EPS, p, 1.0)
    np.log(t, out=t)
    t *= p
    return t


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


def _blocks(rows: int, row_cells: int) -> list:
    """Slices of `rows` rows in blocks of at most 2^22 cells (32 MB of
    float64) when each row takes `row_cells` cells."""
    step = max(1, (1 << 22) // row_cells)
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
    def constant(num_inputs: int, num_outputs: int = 1, index: int = 0) -> "Channel":
        """Channel whose output is the fixed symbol `index` regardless of input.
        Raises InvalidDistributionError for an empty matrix and ValueError
        for `index` outside [0, num_outputs)."""
        if num_inputs < 1 or num_outputs < 1:
            raise InvalidDistributionError("channel matrix must be 2-D and nonempty")
        if not 0 <= index < num_outputs:
            raise ValueError(f"output index {index} outside [0, {num_outputs})")
        m = np.zeros((num_inputs, num_outputs))
        m[:, index] = 1.0
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
    def axes(self) -> tuple:
        """Alphabet size of each axis."""
        return self.probs.shape

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


def entropy(d: DiscreteDistribution, unit: InfoUnit = InfoUnit.BITS) -> float:
    """H(d) = -sum p log p, with 0 log 0 = 0."""
    return unit.from_nats(_entropy_nats(d.probs))


def _clamp_mi(value_nats):
    """A mutual information (a float, or an array of them) clamped at 0;
    MalformedJointError if any is below -NEGATIVE_MI_TOL."""
    value_nats = np.asarray(value_nats)
    worst = value_nats.min()
    if worst < -NEGATIVE_MI_TOL:
        raise MalformedJointError(
            f"mutual information {worst} nats below -{NEGATIVE_MI_TOL}; joint is malformed"
        )
    clamped = np.where(value_nats > 0.0, value_nats, 0.0)
    return clamped if clamped.ndim else float(clamped)


def _mi2_nats(j: np.ndarray):
    """Mutual information in nats between the row and column variables of a
    2-D joint array (a float), or of each joint of a stack j[..., rows, cols]
    (an array).  With S the sum of p log p over the rows' marginal, the
    columns' marginal or the cells, it is S_cells - (S_rows + S_cols): the
    bits of H(rows) + H(cols) - H(cells) once clamped, as negating every
    operand of a rounded sum or difference negates its result.  The cells
    are summed over the flattened trailing axes, a view of a contiguous
    stack, so no temporary beyond `_xlogx`'s is made."""
    s_rows = np.add.reduce(_xlogx(np.add.reduce(j, axis=-1)), axis=-1)
    s_cols = np.add.reduce(_xlogx(np.add.reduce(j, axis=-2)), axis=-1)
    s_cells = np.add.reduce(_xlogx(j.reshape(*j.shape[:-2], -1)), axis=-1)
    return _clamp_mi(s_cells - (s_rows + s_cols))


def mutual_information(j: JointDistribution, axes_a, axes_b,
                       unit: InfoUnit = InfoUnit.BITS) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) over disjoint axis sets of the joint."""
    axes_a, axes_b = tuple(axes_a), tuple(axes_b)
    j._check_axes(axes_a + axes_b)
    if set(axes_a) & set(axes_b):
        raise ValueError(f"axis sets {axes_a} and {axes_b} overlap")
    h_a, h_b, h_ab = (_entropy_nats(j.marginal(k)) for k in (axes_a, axes_b, axes_a + axes_b))
    return unit.from_nats(_clamp_mi(h_a + h_b - h_ab))


def conditional_mutual_information(j: JointDistribution, axes_a, axes_b, axes_c,
                                   unit: InfoUnit = InfoUnit.BITS) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)."""
    axes_a, axes_b, axes_c = tuple(axes_a), tuple(axes_b), tuple(axes_c)
    j._check_axes(axes_a + axes_b + axes_c)
    sa, sb, sc = set(axes_a), set(axes_b), set(axes_c)
    if sa & sb or sa & sc or sb & sc:
        raise ValueError("axis sets must be pairwise disjoint")
    h_ac, h_bc, h_abc, h_c = (_entropy_nats(j.marginal(k)) for k in (
        axes_a + axes_c, axes_b + axes_c, axes_a + axes_b + axes_c, axes_c))
    return unit.from_nats(_clamp_mi(h_ac + h_bc - h_abc - h_c))


def compose_channels(first: Channel, second: Channel) -> Channel:
    """Cascade first then second: out(c|a) = sum_b second(c|b) first(b|a)."""
    if first.num_outputs != second.num_inputs:
        raise AlphabetMismatchError(
            f"first has {first.num_outputs} outputs, second expects {second.num_inputs} inputs"
        )
    return Channel(first.matrix @ second.matrix)


def binary_entropy(x: float, unit: InfoUnit = InfoUnit.BITS) -> float:
    """H_b(x) = -x log x - (1-x) log(1-x)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    v = 0.0
    if x > ZERO_EPS:
        v -= x * math.log(x)
    if 1.0 - x > ZERO_EPS:
        v -= (1.0 - x) * math.log(1.0 - x)
    return unit.from_nats(v)


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
