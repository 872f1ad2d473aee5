"""Parametric interference profiles on a discrete screen.

The screen is n_x bins. Bin x sits at phase

    theta(x) = 2*pi*cycles*(x + 0.5)/n_x + phase0

so integer ``cycles`` wrap the phase a whole number of times across the
screen and the half-bin shift samples bin centers. A fringe profile is

    p(x)  proportional to  envelope(x) * (1 + visibility*cos(theta(x) + phase_offset)),

normalized over bins. ``phase_offset`` distinguishes detector ports:
complementary ports of a lossless splitter differ by pi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NotNormalized

#: Unit-norm tolerance for path amplitudes.
AMPLITUDE_TOL = 1e-12


@dataclass(frozen=True)
class FringeModel:
    """Geometry and contrast of one interference pattern.

    ``envelope`` accepts nonnegative per-bin weights (default flat) and is
    stored normalized to sum 1, making it directly usable as the no-fringe
    bin distribution.
    """

    n_x: int
    cycles: float
    phase0: float = 0.0
    visibility: float = 1.0
    envelope: np.ndarray | None = None

    def __post_init__(self):
        if self.n_x < 2:
            raise InvalidArgument(f"need at least 2 bins, got {self.n_x}")
        if not math.isfinite(self.cycles) or self.cycles < 0:
            raise InvalidArgument(f"cycles must be finite and nonnegative, got {self.cycles}")
        if not math.isfinite(self.phase0):
            raise InvalidArgument(f"phase0 must be finite, got {self.phase0}")
        if not 0.0 <= self.visibility <= 1.0:
            raise InvalidArgument(f"visibility must lie in [0, 1], got {self.visibility}")
        if self.envelope is not None:
            env = np.asarray(self.envelope, dtype=float).copy()
            if env.shape != (self.n_x,):
                raise InvalidArgument(
                    f"envelope shape {env.shape} does not match {self.n_x} bins"
                )
            if np.any(env < 0) or not np.all(np.isfinite(env)):
                raise InvalidArgument("envelope weights must be finite and nonnegative")
            total = float(env.sum())
            if total <= 0:
                raise InvalidArgument("envelope has no weight")
            env = env / total
            env.setflags(write=False)
            object.__setattr__(self, "envelope", env)

    def phases(self) -> np.ndarray:
        """theta(x) for every bin center."""
        x = np.arange(self.n_x, dtype=float)
        return 2.0 * math.pi * self.cycles * (x + 0.5) / self.n_x + self.phase0

    def envelope_distribution(self) -> np.ndarray:
        """The normalized envelope; flat when none was given."""
        if self.envelope is None:
            return np.full(self.n_x, 1.0 / self.n_x)
        return np.asarray(self.envelope)

    def port_imbalance(self) -> float:
        """Envelope-weighted mean of cos(theta).

        Zero means the two opposite-phase ports of a splitter carry equal
        mass; builders that hardwire a 50/50 port split require this.
        """
        return float(np.dot(self.envelope_distribution(), np.cos(self.phases())))


def fringe_profile(model: FringeModel, phase_offset: float = 0.0) -> np.ndarray:
    """Normalized bin distribution of one pattern.

    Tiny negative weights from rounding at full visibility are clamped to
    zero before normalizing; ``nan`` weights, from phases past float range,
    are rejected.
    """
    weights = model.envelope_distribution() * (
        1.0 + model.visibility * np.cos(model.phases() + phase_offset)
    )
    weights = np.maximum(weights, 0.0)
    total = float(weights.sum())
    if not math.isfinite(total):
        raise InvalidArgument("fringe profile has non-finite weights; the phases overflow")
    if total <= 0.0:
        raise InvalidArgument("fringe profile has no mass; envelope and contrast cancel")
    return weights / total


@dataclass(frozen=True)
class TwoPathState:
    """Two path amplitudes entangled with partner (idler) states.

    ``amp1`` and ``amp2`` are the path amplitudes; their squared moduli must
    sum to one. ``idler_overlap`` is the inner product of the two idler
    states tagging the paths: modulus 0 means perfect which-path
    information, modulus 1 means none.
    """

    amp1: complex
    amp2: complex
    idler_overlap: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "amp1", complex(self.amp1))
        object.__setattr__(self, "amp2", complex(self.amp2))
        object.__setattr__(self, "idler_overlap", complex(self.idler_overlap))
        total = abs(self.amp1) ** 2 + abs(self.amp2) ** 2
        if abs(total - 1.0) > AMPLITUDE_TOL:
            raise NotNormalized(total)
        if abs(self.idler_overlap) > 1.0 + AMPLITUDE_TOL:
            raise InvalidArgument(
                f"idler overlap modulus {abs(self.idler_overlap)} exceeds 1"
            )

    @property
    def coherence(self) -> float:
        """Fringe contrast the state supports: 2*|amp1|*|amp2|*|overlap|."""
        return 2.0 * abs(self.amp1) * abs(self.amp2) * abs(self.idler_overlap)

    @property
    def fringe_phase_shift(self) -> float:
        """Pattern shift: arg(overlap) + arg(amp2) - arg(amp1)."""
        if self.coherence == 0.0:
            return 0.0
        return (
            cmath.phase(self.idler_overlap)
            + cmath.phase(self.amp2)
            - cmath.phase(self.amp1)
        )


def reduced_signal_distribution(state: TwoPathState, model: FringeModel) -> np.ndarray:
    """Screen distribution after tracing out the idler.

    Bin x receives envelope(x) times the squared norm of
    amp1*|i1> + amp2*exp(i*theta(x))*|i2>, which works out to

        1 + visibility * coherence * cos(theta(x) + fringe_phase_shift)

    inside the envelope. Zero overlap returns the bare envelope: perfect
    which-path information leaves no interference in the marginal. The
    model's own visibility acts as an instrumental contrast on top of what
    the state supports.
    """
    contrast = model.visibility * state.coherence
    weights = model.envelope_distribution() * (
        1.0 + contrast * np.cos(model.phases() + state.fringe_phase_shift)
    )
    weights = np.maximum(weights, 0.0)
    total = float(weights.sum())
    if total <= 0.0:
        raise InvalidArgument("signal distribution has no mass")
    return weights / total
