"""Discrete joint distributions over (X, C, D).

X is a detector bin index (0..n_x-1), C an experimental choice label, and D a
detection outcome label, possibly including the distinguished loss label
``LOSS`` for trials where the partner particle is never detected. The single
currency of the package is the nonnegative, normalized table p(x, c, d) held
in a :class:`JointDistribution`; every analysis (marginals, conditionals,
audits, feasibility checks) is a function of that table.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

__all__ = [
    "LOSS",
    "JointDistribution",
    "OutcomeSpace",
    "coarse_grain",
    "conditional_x_given_d",
    "total_variation",
    "validate",
]

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidChoiceProbability,
    NegativeMass,
    NotNormalized,
    ShapeMismatch,
    UnmappedLabel,
    ZeroConditioningMass,
)

#: Canonical label for the loss outcome (trials with no partner detection).
LOSS = "LOSS"

#: Normalization tolerance for exactly constructed tables.
NORMALIZATION_TOL = 1e-12

#: Most events a sampled table may count. ``p = counts / n`` and ``p * n``
#: each round by at most half an ulp, so ``p * n`` is within c * 2**-52 of
#: each count c, and up to this cap ``rint(p * n)`` gives back the counts.
MAX_SAMPLES = 2**51


def unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, every field in field order, made without ``__init__``. That
    sets each field and runs any ``__post_init__``, and checks nothing
    else: so a ``Verdict`` or an ``AuditReport``, which have no
    ``__post_init__``, equals its constructor-made twin. For an
    ``EventLog`` or a ``JointDistribution``, each caller states why its
    fields would pass those checks and are kept there as they would be."""
    made = object.__new__(cls)
    vars(made).update(fields)
    return made


def check_int(value, what: str, least: int) -> int:
    """``value`` as an ``int`` when it is an integer (a numpy one too; a bool
    is not) of at least ``least``, else ``InvalidArgument`` naming ``what``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    bound = {0: "a non-negative integer", 1: "a positive integer"}.get(
        least, f"an integer of at least {least}"
    )
    raise InvalidArgument(f"{what} must be {bound}, got {value!r}")


def check_real(value, what: str) -> float:
    """``value`` as a ``float`` when it is a real number (numpy's too; not a
    bool or a string), else ``InvalidArgument``; past float range, +-inf."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidArgument(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer or fraction past the float range
        return math.inf if value > 0 else -math.inf


def check_choice_probability(q) -> float:
    """``q`` as a ``float`` in the open interval (0, 1): a non-real raises
    ``InvalidArgument``, a real outside it ``InvalidChoiceProbability``."""
    q = check_real(q, "q")
    if not 0.0 < q < 1.0:
        raise InvalidChoiceProbability(q)
    return q


def check_distribution(values, n: int, what: str) -> np.ndarray:
    """``values`` as a float array of shape ``(n,)``, finite, nonnegative and
    summing to 1 within 1e-9, else ``InvalidArgument`` naming ``what``."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise InvalidArgument(f"{what} must have shape ({n},), got {arr.shape}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidArgument(f"{what} must be finite and nonnegative")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise InvalidArgument(f"{what} must be normalized, sums to {float(arr.sum())}")
    return arr


@dataclass(frozen=True)
class OutcomeSpace:
    """Label sets for the three axes.

    X bins are 0..n_x-1 for an integer ``n_x`` (kept as an ``int``). Choice
    and detection labels are sequences of strings, not a bare string, that hold
    no NUL (``csv`` writes none before Python 3.11); the loss label, if
    present, must appear exactly once in ``d_values``. The properties
    derived from the labels are computed on first access and kept on the
    instance, outside equality, hashing and repr.
    """

    n_x: int
    c_values: tuple[str, ...] = ("erase", "preserve")
    d_values: tuple[str, ...] = ("D1", "D2")

    def __post_init__(self):
        object.__setattr__(self, "n_x", check_int(self.n_x, "bin count", 2))
        # A single detection label is legal: total coarse-graining produces it.
        for axis, noun, least in (("c_values", "choice", 2), ("d_values", "detection", 1)):
            labels = getattr(self, axis)
            if not isinstance(labels, str):
                labels = tuple(labels)
            if isinstance(labels, str) or not all(isinstance(v, str) for v in labels):
                raise InvalidArgument(f"{axis} must be a sequence of strings, got {labels!r}")
            if any("\x00" in v for v in labels):
                raise InvalidArgument(f"{axis} may not hold NUL, got {labels!r}")
            if len(labels) < least:
                raise InvalidArgument(f"need at least {least} {noun} label{'s' * (least > 1)}")
            if len(set(labels)) != len(labels):
                raise InvalidArgument(f"duplicate {noun} labels in {labels}")
            object.__setattr__(self, axis, labels)
        if LOSS in self.c_values:
            raise InvalidArgument("loss label is reserved for the detection axis")

    @cached_property
    def n_c(self) -> int:
        return len(self.c_values)

    @cached_property
    def n_d(self) -> int:
        return len(self.d_values)

    @cached_property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_x, self.n_c, self.n_d)

    @cached_property
    def has_loss(self) -> bool:
        return LOSS in self.d_values

    @cached_property
    def loss_index(self) -> int | None:
        return self.d_values.index(LOSS) if self.has_loss else None

    @cached_property
    def detected_indices(self) -> tuple[int, ...]:
        """Indices of the non-loss detection outcomes, in axis order."""
        return tuple(i for i, d in enumerate(self.d_values) if d != LOSS)

    def c_index(self, label: str) -> int:
        try:
            return self.c_values.index(label)
        except ValueError:
            raise InvalidArgument(f"unknown choice label {label!r}") from None

    def d_index(self, label: str) -> int:
        try:
            return self.d_values.index(label)
        except ValueError:
            raise InvalidArgument(f"unknown detection label {label!r}") from None


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A table p(x, c, d) of shape (n_x, n_c, n_d), exact or sampled.

    ``JointDistribution(space, p)`` is exact: construction only checks the
    shape and keeps a read-only float copy of ``p``; call :func:`validate`
    to enforce nonnegativity and normalization. ``JointDistribution(space,
    counts=counts)`` is estimated from events and made from their counts
    alone, which need an integer dtype (not bool), the space's shape, no
    negative entry and a total from 1 to ``MAX_SAMPLES``. They are kept as
    a read-only ``intp`` copy, ``n_samples`` is their sum and ``p`` is
    ``counts / n_samples``; an exact table's ``counts`` and ``n_samples``
    are None.

    Two tables are equal when their spaces, sample counts and every entry
    of ``p`` are; anything kept on a table for sampling it is not compared.
    Tables are not hashable.
    """

    space: OutcomeSpace
    p: np.ndarray | None = None
    counts: np.ndarray | None = None
    n_samples: int | None = field(init=False, default=None)

    def __post_init__(self):
        if (self.p is None) == (self.counts is None):
            raise InvalidArgument("give a table p or its event counts, not both or neither")
        given = np.asarray(self.p if self.counts is None else self.counts)
        if given.shape != self.space.shape:
            raise ShapeMismatch(given.shape, self.space.shape)
        if self.counts is None:
            table = given.astype(float)
        else:
            # a float would be truncated and a bool is not a count
            if given.dtype.kind not in "iu":
                raise InvalidArgument(f"counts must be integers, got dtype {given.dtype}")
            counts = given.astype(np.intp)
            # summed as floats, which cannot wrap and are exact up to the cap
            total = counts.sum(dtype=float)
            if counts.min() < 0 or not 0 < total <= MAX_SAMPLES:
                raise InvalidArgument("counts must be nonnegative with a total from 1 to 2**51")
            n = int(total)
            counts.setflags(write=False)
            object.__setattr__(self, "counts", counts)
            object.__setattr__(self, "n_samples", n)
            table = counts / n
        table.setflags(write=False)
        object.__setattr__(self, "p", table)

    def __eq__(self, other):
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return (
            self.space == other.space
            and self.n_samples == other.n_samples
            and np.array_equal(self.p, other.p)
        )

    __hash__ = None


def validate(joint: JointDistribution) -> JointDistribution:
    """Raise on the first violated table invariant: sign, then normalization;
    return the table when it has none.

    A table made from counts is valid by construction and returned at once:
    each ``p = c / n`` is nonnegative and within 2**-53 of c / n relatively,
    so the exact sum is within 2**-53 of 1, and numpy's pairwise sum of the
    contiguous table adds at most (26 + log2(cells / 128)) * 2**-53 more,
    under 5e-15 at 10**6 cells and far below ``NORMALIZATION_TOL``.
    """
    if joint.counts is not None:
        return joint
    table = joint.p
    if np.any(table < 0):
        x, c, d = np.unravel_index(int(np.argmax(table < 0)), table.shape)
        raise NegativeMass(
            int(x), joint.space.c_values[c], joint.space.d_values[d], float(table[x, c, d])
        )
    total = float(table.sum())
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise NotNormalized(total)
    return joint


def conditional_x_given_d(joint: JointDistribution, d: str) -> np.ndarray:
    """p(x | D = d), normalized over bins."""
    di = joint.space.d_index(d)
    slice_xd = joint.p[:, :, di].sum(axis=1)
    mass = float(slice_xd.sum())
    if mass <= 0.0:
        raise ZeroConditioningMass(d)
    return slice_xd / mass


def total_variation(a: np.ndarray, b: np.ndarray) -> float:
    """Half the L1 distance between two distributions on a shared axis."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatch(a.shape, b.shape)
    return 0.5 * float(np.abs(a - b).sum())


def coarse_grain(joint: JointDistribution, mapping: Mapping[str, str]) -> JointDistribution:
    """Merge fine detection outcomes into coarse channels.

    ``mapping`` sends each fine detection label to its coarse label; the
    loss label, when mapped, must map to itself. The (X, C) marginal is
    untouched: only the detection axis is regrouped. Coarse labels keep the
    order of their first appearance along the fine detection axis. A
    sampled table's counts are summed, so its coarse table is the estimate
    from the same events with their detections relabelled.
    """
    if mapping.get(LOSS, LOSS) != LOSS:
        raise InvalidArgument("the loss label must map to itself")
    coarse_labels: list[str] = []
    for d in joint.space.d_values:
        if d not in mapping:
            raise UnmappedLabel(d)
        g = mapping[d]
        if g not in coarse_labels:
            coarse_labels.append(g)
    space = OutcomeSpace(joint.space.n_x, joint.space.c_values, tuple(coarse_labels))
    fine = joint.p if joint.counts is None else joint.counts
    table = np.zeros(space.shape, dtype=fine.dtype)
    for di, d in enumerate(joint.space.d_values):
        table[:, :, coarse_labels.index(mapping[d])] += fine[:, :, di]
    if joint.counts is None:
        return JointDistribution(space, table)
    return JointDistribution(space, counts=table)
