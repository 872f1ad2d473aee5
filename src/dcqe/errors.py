"""Semantic exception hierarchy. Every domain failure raises one of these."""

from __future__ import annotations

__all__ = [
    "AllMassLost",
    "DcqeError",
    "DegenerateLossMass",
    "EmptyLog",
    "InfeasibleLossRate",
    "InsufficientOutcomes",
    "InvalidArgument",
    "InvalidChoiceProbability",
    "NegativeMass",
    "NoLossOutcome",
    "NotNormalized",
    "ShapeMismatch",
    "UnbalancedPorts",
    "UnmappedLabel",
    "ZeroConditioningMass",
]


class DcqeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(DcqeError, ValueError):
    """An input violates a constructor or operation contract."""


class NegativeMass(DcqeError):
    """A joint table entry is negative."""

    def __init__(self, x: int, c: str, d: str, value: float):
        self.x, self.c, self.d, self.value = x, c, d, value
        super().__init__(f"negative probability mass {value!r} at (x={x}, c={c!r}, d={d!r})")


class NotNormalized(DcqeError):
    """A joint table does not sum to 1 within tolerance."""

    def __init__(self, total: float):
        self.total = total
        super().__init__(f"table mass sums to {total!r}, expected 1")


class ZeroConditioningMass(DcqeError):
    """Conditioning on an outcome that carries no probability mass."""

    def __init__(self, d: str):
        self.d = d
        super().__init__(f"cannot condition on outcome {d!r}: it has zero mass")


class ShapeMismatch(DcqeError):
    """Two distributions do not share a support axis."""

    def __init__(self, shape_a, shape_b):
        self.shape_a, self.shape_b = shape_a, shape_b
        super().__init__(f"support shapes differ: {shape_a} vs {shape_b}")


class AllMassLost(DcqeError):
    """A choice whose detected (non-loss) mass is zero; routing is undefined."""

    def __init__(self, c: str):
        self.c = c
        super().__init__(f"choice {c!r} has no detected events; routing undefined")


class InsufficientOutcomes(DcqeError):
    """Fewer than two non-loss outcomes carry mass; no conditional pair exists."""


class UnmappedLabel(DcqeError):
    """A fine-grained detection label has no coarse image."""

    def __init__(self, d: str):
        self.d = d
        super().__init__(f"no coarse-graining image for detection label {d!r}")


class EmptyLog(DcqeError):
    """An event log with no records where at least one is required."""


class InvalidChoiceProbability(DcqeError, ValueError):
    """Choice probability q outside the open interval (0, 1)."""

    def __init__(self, q: float):
        self.q = q
        super().__init__(f"choice probability must satisfy 0 < q < 1, got {q!r}")


class UnbalancedPorts(DcqeError):
    """Passive-choice output ports are not equiprobable for the given fringe model."""

    def __init__(self, imbalance: float):
        self.imbalance = imbalance
        super().__init__(
            f"output ports unbalanced: sum(envelope * cos(theta)) = {imbalance!r}, expected 0"
        )


class InfeasibleLossRate(DcqeError):
    """Requested loss rate lies outside the feasible interval for the targets."""

    def __init__(self, p: float, bounds: tuple[float, float]):
        self.p = p
        self.bounds = bounds
        super().__init__(
            f"loss rate {p!r} infeasible; feasible interval is [{bounds[0]!r}, {bounds[1]!r}]"
        )


class NoLossOutcome(DcqeError):
    """The outcome space carries no loss label, so selection analysis is undefined."""


class DegenerateLossMass(DcqeError):
    """Loss mass is 0 or 1; conditioning on detection is degenerate."""

    def __init__(self, mass: float):
        self.mass = mass
        super().__init__(f"loss mass {mass!r} leaves no nondegenerate detected fraction")
