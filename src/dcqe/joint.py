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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    InvalidArgument,
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


@dataclass(frozen=True)
class OutcomeSpace:
    """Label sets for the three axes.

    X bins are the integers 0..n_x-1. Choice and detection labels are
    strings; the loss label, if present, must appear exactly once in
    ``d_values``.
    """

    n_x: int
    c_values: tuple[str, ...] = ("erase", "preserve")
    d_values: tuple[str, ...] = ("D1", "D2")

    def __post_init__(self):
        object.__setattr__(self, "c_values", tuple(self.c_values))
        object.__setattr__(self, "d_values", tuple(self.d_values))
        if self.n_x < 2:
            raise InvalidArgument(f"need at least 2 position bins, got {self.n_x}")
        if len(self.c_values) < 2:
            raise InvalidArgument("need at least 2 choice labels")
        # A single detection label is legal: total coarse-graining produces it.
        if len(self.d_values) < 1:
            raise InvalidArgument("need at least 1 detection label")
        if len(set(self.c_values)) != len(self.c_values):
            raise InvalidArgument(f"duplicate choice labels in {self.c_values}")
        if len(set(self.d_values)) != len(self.d_values):
            raise InvalidArgument(f"duplicate detection labels in {self.d_values}")
        if LOSS in self.c_values:
            raise InvalidArgument("loss label is reserved for the detection axis")

    @property
    def n_c(self) -> int:
        return len(self.c_values)

    @property
    def n_d(self) -> int:
        return len(self.d_values)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_x, self.n_c, self.n_d)

    @property
    def has_loss(self) -> bool:
        return LOSS in self.d_values

    @property
    def loss_index(self) -> int | None:
        return self.d_values.index(LOSS) if self.has_loss else None

    @property
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
    """A table p(x, c, d) of shape (n_x, n_c, n_d).

    Construction only checks the shape and that ``n_samples`` is None or a
    positive integer (a bool is not one), kept as an ``int``; call
    :func:`validate` to enforce nonnegativity and normalization. Empirical
    estimates carry the sample count in ``n_samples`` so downstream
    tolerances can be scaled; exact constructions leave it ``None``.

    Two tables are equal when their spaces, sample counts and every entry
    of ``p`` are; anything kept on a table for sampling it is not compared.
    Tables are not hashable.
    """

    space: OutcomeSpace
    p: np.ndarray
    n_samples: int | None = None

    def __post_init__(self):
        n = self.n_samples
        if n is not None:
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
                raise InvalidArgument(f"sample count must be a positive integer, got {n!r}")
            object.__setattr__(self, "n_samples", int(n))
        table = np.asarray(self.p, dtype=float)
        if table.shape != self.space.shape:
            raise ShapeMismatch(table.shape, self.space.shape)
        table = table.copy()
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
    return the table when it has none."""
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
    order of their first appearance along the fine detection axis.
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
    table = np.zeros(space.shape)
    for di, d in enumerate(joint.space.d_values):
        table[:, :, coarse_labels.index(mapping[d])] += joint.p[:, :, di]
    return JointDistribution(space, table, n_samples=joint.n_samples)
