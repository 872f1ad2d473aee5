"""Exact joint tables for delayed-choice arrangements, from fringe models.

The screen is n_x bins. Bin x sits at phase

    theta(x) = 2*pi*cycles*(x + 0.5)/n_x + phase0

so integer ``cycles`` wrap the phase a whole number of times across the
screen and the half-bin shift samples bin centers. A fringe profile is

    p(x)  proportional to  envelope(x) * (1 + visibility*cos(theta(x) + phase_offset)),

normalized over bins. ``phase_offset`` distinguishes detector ports:
complementary ports of a lossless splitter differ by pi.

Each builder turns a fringe model into the full joint law of (X, C, D) for
one way of implementing the erase/preserve choice, and each one trips a
different structural check:

* ``build_kim``: the choice is the branch taken at the partner's splitters.
  Fine-grained detectors show fringes but routing is stochastic; pooling
  the two erase-side detectors restores deterministic routing and the
  pooled fringes cancel to the envelope.
* ``build_mach_zehnder``: the choice inserts or removes the recombining
  splitter. Both detectors fire under both settings, so routing is never
  deterministic; conditional fringes survive at reduced contrast.
* ``build_polarization``: erasure projects the partner onto a diagonal
  basis and discards failures, so the choice routes deterministically at
  the cost of a loss channel.
* ``build_passive_choice``: nothing is chosen at all; the detection outcome
  itself plays the role of the choice, which ties C to X.

``route_by_region`` builds a fifth, classical table from a bin distribution:
x inside a chosen region routes to D1, outside to D2, and the choice recorded
is that outcome. Conditioning on D redraws the region as an "image" while the
X marginal stays the base: conditional structure without retroactive physics.
"""

from __future__ import annotations

__all__ = [
    "ARCHITECTURE_KINDS",
    "DEFAULT_CYCLES",
    "DEFAULT_N_X",
    "DEFAULT_Q",
    "DEFAULT_VISIBILITY",
    "ArchitectureSpec",
    "FringeModel",
    "build_kim",
    "build_mach_zehnder",
    "build_passive_choice",
    "build_polarization",
    "default_fringe_model",
    "fringe_profile",
    "kim_coarse_graining",
    "route_by_region",
]

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ShapeMismatch, UnbalancedPorts
from .joint import (
    LOSS,
    JointDistribution,
    OutcomeSpace,
    check_choice_probability,
    check_distribution,
    check_int,
    check_real,
    validate,
)

#: Default model parameters shared by the command-line tools.
DEFAULT_N_X = 64
DEFAULT_CYCLES = 4.0
DEFAULT_VISIBILITY = 1.0
DEFAULT_Q = 0.5

#: Port balance required where a builder hardwires a 50/50 split.
BALANCE_TOL = 1e-9


@dataclass(frozen=True)
class FringeModel:
    """Geometry and contrast of one interference pattern.

    ``n_x`` is an integer and ``cycles``, ``phase0`` and ``visibility``
    are real numbers (numpy's too; not bools or strings), kept as ``int``
    and ``float``. ``envelope`` takes nonnegative per-bin weights (default
    flat), kept normalized to sum 1 as a tuple of floats, so equal models
    compare and hash equal; :meth:`envelope_distribution` is its array.
    """

    n_x: int
    cycles: float
    phase0: float = 0.0
    visibility: float = 1.0
    envelope: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_x", check_int(self.n_x, "bin count", 2))
        for name in ("cycles", "phase0", "visibility"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if not math.isfinite(self.cycles) or self.cycles < 0:
            raise InvalidArgument(f"cycles must be finite and nonnegative, got {self.cycles}")
        if not math.isfinite(self.phase0):
            raise InvalidArgument(f"phase0 must be finite, got {self.phase0}")
        if not 0.0 <= self.visibility <= 1.0:
            raise InvalidArgument(f"visibility must lie in [0, 1], got {self.visibility}")
        if self.envelope is not None:
            env = np.asarray(self.envelope, dtype=float)
            if env.shape != (self.n_x,):
                raise InvalidArgument(f"envelope shape {env.shape} does not match {self.n_x} bins")
            if np.any(env < 0) or not np.all(np.isfinite(env)):
                raise InvalidArgument("envelope weights must be finite and nonnegative")
            total = float(env.sum())
            if total <= 0:
                raise InvalidArgument("envelope has no weight")
            object.__setattr__(self, "envelope", tuple((env / total).tolist()))

    def phases(self) -> np.ndarray:
        """theta(x) for every bin center."""
        x = np.arange(self.n_x, dtype=float)
        return 2.0 * math.pi * self.cycles * (x + 0.5) / self.n_x + self.phase0

    def envelope_distribution(self) -> np.ndarray:
        """The normalized envelope; flat when none was given."""
        if self.envelope is None:
            return np.full(self.n_x, 1.0 / self.n_x)
        return np.array(self.envelope)


def fringe_profile(model: FringeModel, phase_offset: float = 0.0) -> np.ndarray:
    """Normalized bin distribution of one pattern.

    Every weight is nonnegative as computed: the envelope is, and
    1 + V*cos(theta) is for V in [0, 1] in floating point too. ``nan``
    weights, from phases past float range, are rejected.
    """
    weights = model.envelope_distribution() * (
        1.0 + model.visibility * np.cos(model.phases() + phase_offset)
    )
    total = float(weights.sum())
    if not math.isfinite(total):
        raise InvalidArgument("fringe profile has non-finite weights; the phases overflow")
    if total <= 0.0:
        raise InvalidArgument("fringe profile has no mass; envelope and contrast cancel")
    return weights / total


def default_fringe_model(
    n_x: int = DEFAULT_N_X,
    cycles: float = DEFAULT_CYCLES,
    phase0: float = 0.0,
    visibility: float = DEFAULT_VISIBILITY,
) -> FringeModel:
    return FringeModel(n_x=n_x, cycles=cycles, phase0=phase0, visibility=visibility)


def build_kim(m: FringeModel) -> JointDistribution:
    """Four-detector arrangement with an internal 50/50 branch choice.

    The branch (erase vs preserve arm) is taken with probability 1/2 each,
    independent of X, and each arm ends in one of two detectors: D1/D2 see
    the opposite-phase fringe pair, D3/D4 the bare envelope. Every detector
    carries probability 1/4. Lossless.
    """
    space = OutcomeSpace(m.n_x, ("erase", "preserve"), ("D1", "D2", "D3", "D4"))
    env = m.envelope_distribution()
    table = np.zeros(space.shape)
    table[:, 0, 0] = fringe_profile(m, 0.0) / 4.0
    table[:, 0, 1] = fringe_profile(m, math.pi) / 4.0
    table[:, 1, 2] = env / 4.0
    table[:, 1, 3] = env / 4.0
    return validate(JointDistribution(space, table))


def kim_coarse_graining() -> dict[str, str]:
    """Pool the erase-arm and preserve-arm detector pairs into channels."""
    return {"D1": "D_erase", "D2": "D_erase", "D3": "D_preserve", "D4": "D_preserve"}


def build_mach_zehnder(m: FringeModel, q: float) -> JointDistribution:
    """Interferometer whose recombining splitter is inserted (erase, with
    probability q) or removed (preserve).

    With the splitter in, the two output ports carry the opposite-phase
    fringe pair; with it out, each port fires with probability 1/2 at every
    bin. Both ports fire under both settings. Lossless.
    """
    q = check_choice_probability(q)
    space = OutcomeSpace(m.n_x, ("erase", "preserve"), ("D1", "D2"))
    env = m.envelope_distribution()
    mod = m.visibility * np.cos(m.phases())
    table = np.zeros(space.shape)
    table[:, 0, 0] = q * env * (1.0 + mod) / 2.0
    table[:, 0, 1] = q * env * (1.0 - mod) / 2.0
    table[:, 1, 0] = (1.0 - q) * env / 2.0
    table[:, 1, 1] = (1.0 - q) * env / 2.0
    return validate(JointDistribution(space, table))


def build_polarization(m: FringeModel, q: float) -> JointDistribution:
    """Eraser built from a polarization projection with intrinsic loss.

    The choice is external with P(erase) = q, independent of X. Preserving
    always detects at D_preserve with the envelope profile. Erasing
    projects the partner with per-bin success probability
    (1 + V*cos(theta))/2; failures land on the loss outcome. The erase
    channel therefore shows fringes, and with a flat balanced envelope
    exactly half the erase mass is lost, P(LOSS) = q/2.
    """
    q = check_choice_probability(q)
    space = OutcomeSpace(m.n_x, ("erase", "preserve"), ("D_erase", "D_preserve", LOSS))
    env = m.envelope_distribution()
    success = (1.0 + m.visibility * np.cos(m.phases())) / 2.0
    table = np.zeros(space.shape)
    table[:, 0, 0] = q * env * success
    table[:, 0, 2] = q * env * (1.0 - success)
    table[:, 1, 1] = (1.0 - q) * env
    return validate(JointDistribution(space, table))


def build_passive_choice(m: FringeModel) -> JointDistribution:
    """No chooser at all: the detection outcome is read back as the choice.

    The two ports carry the opposite-phase fringe pair, so the recorded
    "choice" is correlated with X by construction. Requires balanced ports
    (envelope-weighted mean of cos(theta) equal to zero) so each port fires
    with probability exactly 1/2.
    """
    env = m.envelope_distribution()
    cos = np.cos(m.phases())
    imbalance = float(np.dot(env, cos))
    if abs(imbalance) > BALANCE_TOL:
        raise UnbalancedPorts(imbalance)
    space = OutcomeSpace(m.n_x, ("D1", "D2"), ("D1", "D2"))
    mod = m.visibility * cos
    table = np.zeros(space.shape)
    table[:, 0, 0] = env * (1.0 + mod) / 2.0
    table[:, 1, 1] = env * (1.0 - mod) / 2.0
    return validate(JointDistribution(space, table))


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
    base = check_distribution(base, member.size, "base distribution")
    space = OutcomeSpace(member.size, ("D1", "D2"), ("D1", "D2"))
    table = np.zeros(space.shape)
    table[:, 0, 0] = base * member
    table[:, 1, 1] = base * ~member
    return JointDistribution(space, table)


#: Each architecture kind's builder, and whether it takes a choice probability q.
_BUILDERS = {
    "kim": (build_kim, False),
    "mach_zehnder": (build_mach_zehnder, True),
    "polarization": (build_polarization, True),
    "passive_choice": (build_passive_choice, False),
}

ARCHITECTURE_KINDS = tuple(_BUILDERS)

#: Architectures whose choice probability q is a free parameter.
Q_REQUIRED = tuple(kind for kind, (_, takes_q) in _BUILDERS.items() if takes_q)


@dataclass(frozen=True)
class ArchitectureSpec:
    """A named arrangement plus its fringe model and choice probability.

    ``q`` is required for the two arrangements with an external tunable
    choice (mach_zehnder, polarization) and must be omitted for the others:
    the kim branch probability is fixed at 1/2 by its splitters, and the
    passive arrangement has no choice to tune. A given ``q`` is kept as a
    ``float``.
    """

    kind: str
    fringe: FringeModel
    q: float | None = None

    def __post_init__(self):
        if self.kind not in _BUILDERS:
            raise InvalidArgument(
                f"unknown architecture {self.kind!r}; expected one of {ARCHITECTURE_KINDS}"
            )
        if _BUILDERS[self.kind][1]:
            if self.q is None:
                raise InvalidArgument(f"architecture {self.kind!r} requires q")
            object.__setattr__(self, "q", check_choice_probability(self.q))
        elif self.q is not None:
            raise InvalidArgument(f"architecture {self.kind!r} has no tunable choice probability")

    def build(self) -> JointDistribution:
        builder, _ = _BUILDERS[self.kind]
        return builder(self.fringe) if self.q is None else builder(self.fringe, self.q)
