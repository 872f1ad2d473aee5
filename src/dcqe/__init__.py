"""Finite probability tools for delayed-choice eraser statistics.

The package centers on one object, a joint distribution P(X, C, D) over
screen bin X, choice setting C, and detection label D, and one question:
which of the four structural properties

* independence of X and C,
* losslessness (no LOSS label carrying mass),
* deterministic routing D = f(C),
* distinct detector conditionals p(x | d),

does a given table satisfy? No table satisfies all four, and the audit in
:mod:`dcqe.audit` reports which ones fail, with explicit witnesses. Joint
tables come from the standard eraser architectures (:mod:`dcqe.architectures`),
from interference models directly (:mod:`dcqe.fringes`), from Monte Carlo
event logs (:mod:`dcqe.events`), or from files (:mod:`dcqe.io`). The
:mod:`dcqe.feasibility` module treats the loss loophole quantitatively:
exact bounds on the loss rate, explicit witness tables, and an exact
rational feasibility decision. :mod:`dcqe.regions` holds the classical
region-routing construction that reproduces conditional fringes by
selection alone.
"""

from .architectures import (
    ARCHITECTURE_KINDS,
    DEFAULT_CYCLES,
    DEFAULT_N_X,
    DEFAULT_Q,
    DEFAULT_VISIBILITY,
    ArchitectureSpec,
    build_kim,
    build_mach_zehnder,
    build_passive_choice,
    build_polarization,
    default_fringe_model,
    kim_coarse_graining,
)
from .audit import (
    ALL_CHECKS,
    AuditReport,
    Verdict,
    audit,
    check_deterministic_routing,
    check_distinct_conditionals,
    check_independence,
    check_lossless,
    default_tolerance,
)
from .errors import (
    AllMassLost,
    DcqeError,
    DegenerateLossMass,
    EmptyLog,
    InfeasibleLossRate,
    InsufficientOutcomes,
    InvalidArgument,
    InvalidChoiceProbability,
    NegativeMass,
    NoLossOutcome,
    NotNormalized,
    ShapeMismatch,
    UnbalancedPorts,
    UnmappedLabel,
    ZeroConditioningMass,
)
from .events import CHUNK_TRIALS, EventLog, estimate_from_events, sample_events
from .feasibility import (
    FeasibilityResult,
    LossFeasibilityProblem,
    berkson_gap,
    check_feasible,
    construct_witness,
    loss_bounds,
    worst_case_erase_conditional,
)
from .fringes import FringeModel, fringe_profile
from .joint import (
    LOSS,
    CoarseGraining,
    JointDistribution,
    OutcomeSpace,
    coarse_grain,
    conditional_x_given_c,
    conditional_x_given_d,
    marginal,
    total_variation,
    validate,
)
from .regions import RegionMask, coincidence_image, route_by_region

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "ARCHITECTURE_KINDS",
    "AllMassLost",
    "ArchitectureSpec",
    "AuditReport",
    "CHUNK_TRIALS",
    "CoarseGraining",
    "DEFAULT_CYCLES",
    "DEFAULT_N_X",
    "DEFAULT_Q",
    "DEFAULT_VISIBILITY",
    "DcqeError",
    "DegenerateLossMass",
    "EmptyLog",
    "EventLog",
    "FeasibilityResult",
    "FringeModel",
    "InfeasibleLossRate",
    "InsufficientOutcomes",
    "InvalidArgument",
    "InvalidChoiceProbability",
    "JointDistribution",
    "LOSS",
    "LossFeasibilityProblem",
    "NegativeMass",
    "NoLossOutcome",
    "NotNormalized",
    "OutcomeSpace",
    "RegionMask",
    "ShapeMismatch",
    "UnbalancedPorts",
    "UnmappedLabel",
    "Verdict",
    "ZeroConditioningMass",
    "audit",
    "berkson_gap",
    "build_kim",
    "build_mach_zehnder",
    "build_passive_choice",
    "build_polarization",
    "check_deterministic_routing",
    "check_distinct_conditionals",
    "check_feasible",
    "check_independence",
    "check_lossless",
    "coarse_grain",
    "coincidence_image",
    "conditional_x_given_c",
    "conditional_x_given_d",
    "construct_witness",
    "default_fringe_model",
    "default_tolerance",
    "estimate_from_events",
    "fringe_profile",
    "kim_coarse_graining",
    "loss_bounds",
    "marginal",
    "route_by_region",
    "sample_events",
    "total_variation",
    "validate",
    "worst_case_erase_conditional",
]
