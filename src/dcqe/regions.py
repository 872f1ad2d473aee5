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

import numpy as np

from .errors import InvalidArgument, ShapeMismatch
from .joint import JointDistribution, OutcomeSpace


def route_by_region(mask, base_x) -> JointDistribution:
    """Joint law of region-conditioned routing over a base distribution.

    ``mask`` holds one 0/1 bit per bin. Bins marked 1 put their mass at D1,
    bins marked 0 at D2, and the recorded choice equals the detection
    outcome. A mask holding every bin or none would starve one detector
    and is rejected. The X marginal is the base distribution bin-for-bin.
    """
    bits = np.asarray(mask)
    if bits.ndim != 1 or not np.isin(bits, (0, 1)).all():
        raise InvalidArgument("mask bits must be 0 or 1")
    member = bits == 1
    if bool(member.all()) or not bool(member.any()):
        raise InvalidArgument("mask must contain at least one bin and exclude another")
    base = np.asarray(base_x, dtype=float)
    if base.shape != member.shape:
        raise ShapeMismatch(base.shape, member.shape)
    if np.any(base < 0) or not np.all(np.isfinite(base)):
        raise InvalidArgument("base distribution must be finite and nonnegative")
    if abs(float(base.sum()) - 1.0) > 1e-9:
        raise InvalidArgument(f"base distribution sums to {float(base.sum())}")
    space = OutcomeSpace(member.size, ("D1", "D2"), ("D1", "D2"))
    table = np.zeros(space.shape)
    table[:, 0, 0] = base * member
    table[:, 1, 1] = base * ~member
    return JointDistribution(space, table)

