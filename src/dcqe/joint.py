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

from dataclasses import dataclass, field
from typing import Iterable, Mapping

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

_AXIS_INDEX = {"x": 0, "c": 1, "d": 2}


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        if self.d_values.count(LOSS) > 1:
            raise InvalidArgument("loss label may appear at most once")
        if LOSS in self.c_values:
            raise InvalidArgument("loss label is reserved for the detection axis")

    @property
    def x_bins(self) -> tuple[int, ...]:
        return tuple(range(self.n_x))

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


@dataclass(frozen=True)
class JointDistribution:
    """A table p(x, c, d) of shape (n_x, n_c, n_d).

    Construction only checks the shape; call :func:`validate` to enforce
    nonnegativity and normalization. Empirical estimates carry the sample
    count in ``n_samples`` so downstream tolerances can be scaled; exact
    constructions leave it ``None``.
    """

    space: OutcomeSpace
    p: np.ndarray
    n_samples: int | None = None

    def __post_init__(self):
        table = np.asarray(self.p, dtype=float)
        if table.shape != self.space.shape:
            raise ShapeMismatch(table.shape, self.space.shape)
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "p", table)

    @property
    def is_empirical(self) -> bool:
        return self.n_samples is not None


@dataclass(frozen=True)
class CoarseGraining:
    """Partition of fine detection labels into coarse channels.

    The loss label, when present, must map to itself.
    """

    partition: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "partition", tuple(tuple(p) for p in self.partition))
        fine = [f for f, _ in self.partition]
        if len(set(fine)) != len(fine):
            raise InvalidArgument("a fine label maps to more than one coarse label")
        for f, g in self.partition:
            if f == LOSS and g != LOSS:
                raise InvalidArgument("the loss label must map to itself")

    @classmethod
    def from_dict(cls, mapping: Mapping[str, str]) -> "CoarseGraining":
        return cls(tuple(mapping.items()))

    @classmethod
    def from_groups(cls, groups: Mapping[str, Iterable[str]]) -> "CoarseGraining":
        """Build from {coarse_label: [fine labels]}."""
        pairs = []
        for coarse, fines in groups.items():
            for f in fines:
                pairs.append((f, coarse))
        return cls(tuple(pairs))

    def image(self, d: str) -> str:
        for f, g in self.partition:
            if f == d:
                return g
        raise UnmappedLabel(d)


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


def _axes_to_indices(axes) -> tuple[int, ...]:
    if isinstance(axes, str):
        names = tuple(axes.lower())
    else:
        names = tuple(str(a).lower() for a in axes)
    if not names:
        raise InvalidArgument("marginal needs at least one axis to keep")
    if len(set(names)) != len(names):
        raise InvalidArgument(f"duplicate axes in {names}")
    try:
        kept = tuple(sorted(_AXIS_INDEX[n] for n in names))
    except KeyError as exc:
        raise InvalidArgument(f"unknown axis {exc.args[0]!r}; use 'x', 'c', 'd'") from None
    return kept


def marginal(joint: JointDistribution, axes) -> np.ndarray:
    """Sum the table over the dropped axes.

    ``axes`` names the axes to keep, e.g. ``"c"``, ``"cd"`` or ``("x", "d")``.
    The result's axes follow the canonical (x, c, d) order regardless of the
    order given.
    """
    kept = _axes_to_indices(axes)
    dropped = tuple(i for i in range(3) if i not in kept)
    return joint.p.sum(axis=dropped) if dropped else joint.p.copy()


def conditional_x_given_d(joint: JointDistribution, d: str) -> np.ndarray:
    """p(x | D = d), normalized over bins."""
    di = joint.space.d_index(d)
    slice_xd = joint.p[:, :, di].sum(axis=1)
    mass = float(slice_xd.sum())
    if mass <= 0.0:
        raise ZeroConditioningMass(d)
    return slice_xd / mass


def conditional_x_given_c(joint: JointDistribution, c: str) -> np.ndarray:
    """p(x | C = c) over all detection outcomes, loss included."""
    ci = joint.space.c_index(c)
    slice_xc = joint.p[:, ci, :].sum(axis=1)
    mass = float(slice_xc.sum())
    if mass <= 0.0:
        raise ZeroConditioningMass(c)
    return slice_xc / mass


def total_variation(a: np.ndarray, b: np.ndarray) -> float:
    """Half the L1 distance between two distributions on a shared axis."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatch(a.shape, b.shape)
    return 0.5 * float(np.abs(a - b).sum())


def coarse_grain(joint: JointDistribution, graining: CoarseGraining) -> JointDistribution:
    """Merge fine detection outcomes into coarse channels.

    The (X, C) marginal is untouched: only the detection axis is regrouped.
    Coarse labels keep the order of their first appearance along the fine
    detection axis.
    """
    mapping = dict(graining.partition)
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
