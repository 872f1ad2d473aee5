"""Classical region-conditioned routing.

A purely classical processor watches the screen coordinate and routes the
partner particle by whether x falls inside a chosen region: inside goes to
D1, outside to D2. Conditioning on the detector then redraws the region
and its complement as "images", while the unconditioned screen marginal
stays exactly the base distribution. The recorded choice coincides with
the detection outcome, so the choice is a deterministic function of X:
conditional structure without any retroactive physics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyLog, InvalidArgument, ShapeMismatch
from .events import EventLog
from .joint import JointDistribution, OutcomeSpace


@dataclass(frozen=True)
class RegionMask:
    """Per-bin membership of the routing region.

    Degenerate masks (all inside or all outside) would starve one detector
    and are rejected.
    """

    n_x: int
    member: np.ndarray

    def __post_init__(self):
        member = np.asarray(self.member, dtype=bool).copy()
        if member.shape != (self.n_x,):
            raise InvalidArgument(
                f"mask shape {member.shape} does not match {self.n_x} bins"
            )
        if bool(member.all()) or not bool(member.any()):
            raise InvalidArgument("mask must contain at least one bin and exclude another")
        member.setflags(write=False)
        object.__setattr__(self, "member", member)

    @classmethod
    def from_bits(cls, bits) -> "RegionMask":
        """Build from an iterable of 0/1 values."""
        arr = np.asarray(list(bits), dtype=int)
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise InvalidArgument("mask bits must be 0 or 1")
        return cls(n_x=arr.size, member=arr.astype(bool))

    @property
    def inside_bins(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.nonzero(self.member)[0])

    @property
    def outside_bins(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.nonzero(~self.member)[0])


def route_by_region(mask: RegionMask, base_x) -> JointDistribution:
    """Joint law of region-conditioned routing over a base distribution.

    Bins inside the mask put their mass at D1, outside at D2, and the
    recorded choice equals the detection outcome. The X marginal is the
    base distribution bin-for-bin.
    """
    base = np.asarray(base_x, dtype=float)
    if base.shape != (mask.n_x,):
        raise ShapeMismatch(base.shape, (mask.n_x,))
    if np.any(base < 0) or not np.all(np.isfinite(base)):
        raise InvalidArgument("base distribution must be finite and nonnegative")
    if abs(float(base.sum()) - 1.0) > 1e-9:
        raise InvalidArgument(f"base distribution sums to {float(base.sum())}")
    space = OutcomeSpace(mask.n_x, ("D1", "D2"), ("D1", "D2"))
    table = np.zeros(space.shape)
    table[:, 0, 0] = base * mask.member
    table[:, 1, 1] = base * ~mask.member
    return JointDistribution(space, table)


def coincidence_image(log: EventLog) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin event counts conditioned on each of the two detectors.

    Returns the histograms for the first and second non-loss detection
    labels, in axis order; loss events, if any, are not counted. For logs
    of region-routed trials the two histograms draw the region and its
    complement.
    """
    if len(log) == 0:
        raise EmptyLog("no events to histogram")
    space = log.space
    detected = space.detected_indices
    if len(detected) != 2:
        raise InvalidArgument(
            f"need exactly 2 non-loss detection labels, got {len(detected)}"
        )
    first, second = log.counts().sum(axis=1).T[list(detected)].astype(np.int64)
    return first, second
