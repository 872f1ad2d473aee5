"""Exact joint tables for four delayed-choice arrangements.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidChoiceProbability, UnbalancedPorts
from .fringes import FringeModel, fringe_profile
from .joint import LOSS, JointDistribution, OutcomeSpace, validate

#: Default model parameters shared by the command-line tools.
DEFAULT_N_X = 64
DEFAULT_CYCLES = 4.0
DEFAULT_VISIBILITY = 1.0
DEFAULT_Q = 0.5

#: Port balance required where a builder hardwires a 50/50 split.
BALANCE_TOL = 1e-9

ARCHITECTURE_KINDS = ("kim", "mach_zehnder", "polarization", "passive_choice")

#: Architectures whose choice probability q is a free parameter.
Q_REQUIRED = ("mach_zehnder", "polarization")


def default_fringe_model(
    n_x: int = DEFAULT_N_X,
    cycles: float = DEFAULT_CYCLES,
    phase0: float = 0.0,
    visibility: float = DEFAULT_VISIBILITY,
) -> FringeModel:
    return FringeModel(n_x=n_x, cycles=cycles, phase0=phase0, visibility=visibility)


def _check_q(q: float) -> float:
    try:
        q = float(q)
    except OverflowError:  # an integer or fraction past the float range
        q = math.inf if q > 0 else -math.inf
    if not 0.0 < q < 1.0:
        raise InvalidChoiceProbability(q)
    return q


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
    q = _check_q(q)
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
    q = _check_q(q)
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
    imbalance = m.port_imbalance()
    if abs(imbalance) > BALANCE_TOL:
        raise UnbalancedPorts(imbalance)
    space = OutcomeSpace(m.n_x, ("D1", "D2"), ("D1", "D2"))
    env = m.envelope_distribution()
    mod = m.visibility * np.cos(m.phases())
    table = np.zeros(space.shape)
    table[:, 0, 0] = env * (1.0 + mod) / 2.0
    table[:, 1, 1] = env * (1.0 - mod) / 2.0
    return validate(JointDistribution(space, table))


@dataclass(frozen=True)
class ArchitectureSpec:
    """A named arrangement plus its fringe model and choice probability.

    ``q`` is required for the two arrangements with an external tunable
    choice (mach_zehnder, polarization) and must be omitted for the others:
    the kim branch probability is fixed at 1/2 by its splitters, and the
    passive arrangement has no choice to tune.
    """

    kind: str
    fringe: FringeModel
    q: float | None = None

    def __post_init__(self):
        if self.kind not in ARCHITECTURE_KINDS:
            raise InvalidArgument(
                f"unknown architecture {self.kind!r}; expected one of {ARCHITECTURE_KINDS}"
            )
        if self.kind in Q_REQUIRED:
            if self.q is None:
                raise InvalidArgument(f"architecture {self.kind!r} requires q")
            _check_q(self.q)
        elif self.q is not None:
            raise InvalidArgument(
                f"architecture {self.kind!r} has no tunable choice probability"
            )

    def build(self) -> JointDistribution:
        if self.kind == "kim":
            return build_kim(self.fringe)
        if self.kind == "mach_zehnder":
            return build_mach_zehnder(self.fringe, self.q)
        if self.kind == "polarization":
            return build_polarization(self.fringe, self.q)
        return build_passive_choice(self.fringe)
