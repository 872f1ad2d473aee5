"""Structural checks on joint distributions.

Four properties of a delayed-choice arrangement can be read off its joint
table: independence of the bin statistics from the choice setting (X and C
independent), losslessness (no mass on the loss outcome), deterministic
routing (the choice fixes the detection outcome), and distinctness (some
pair of detectors sees different conditional bin distributions). They are
jointly unsatisfiable: enforce the first three and every detector conditional
collapses onto the X marginal, so distinctness fails. The audit runs all
four and reports which fail; ``no_go_consistent`` records that at least one
did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllMassLost, InsufficientOutcomes, InvalidArgument
from .joint import (
    JointDistribution,
    RoutingMap,
    total_variation,
    validate,
)

#: Check names, in report order.
CHECK_INDEPENDENCE = "independence"
CHECK_LOSSLESS = "lossless"
CHECK_ROUTING = "deterministic_routing"
CHECK_DISTINCT = "distinct_conditionals"

ALL_CHECKS = (CHECK_INDEPENDENCE, CHECK_LOSSLESS, CHECK_ROUTING, CHECK_DISTINCT)

#: Loss mass above this is a real loss channel regardless of sample noise.
LOSSLESS_TOL = 1e-12

#: Default deviation tolerance for exactly constructed tables.
ANALYTIC_TOL = 1e-9


def default_tolerance(joint: JointDistribution) -> float:
    """Deviation tolerance matched to the table's provenance.

    Exact tables get a tight analytic tolerance; empirical tables get a
    three-sigma-style allowance shrinking with the sample count.
    """
    if joint.n_samples is None:
        return ANALYTIC_TOL
    return 3.0 / math.sqrt(joint.n_samples)


@dataclass(frozen=True)
class IndependenceVerdict:
    """Is the (X, C) marginal a product of its marginals?

    ``witness`` is the (x, c_label) cell of largest deviation; ties resolve
    to the lexicographically first cell. Choices carrying no mass cannot
    witness dependence and are listed in ``skipped_choices``.
    """

    holds: bool
    max_deviation: float
    witness: tuple[int, str]
    skipped_choices: tuple[str, ...]
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "max_deviation": self.max_deviation,
            "witness": {"x": self.witness[0], "c": self.witness[1]},
            "skipped_choices": list(self.skipped_choices),
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class LosslessVerdict:
    """Does every trial end in a real detection?"""

    holds: bool
    loss_mass: float
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "loss_mass": self.loss_mass,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class RoutingVerdict:
    """Does the choice fix the detection outcome?

    Judged on detected events only. On success ``routing`` carries the
    extracted choice-to-detector map; on failure ``counterexample`` names a
    choice and two detectors it reaches, (c, d, d'). ``max_stray_mass`` is
    the largest conditional mass any choice puts outside its modal detector.
    Zero-mass choices are skipped and listed.
    """

    holds: bool
    routing: RoutingMap | None
    counterexample: tuple[str, str, str] | None
    max_stray_mass: float
    skipped_choices: tuple[str, ...]
    tolerance: float

    def as_dict(self) -> dict:
        ce = None
        if self.counterexample is not None:
            ce = {
                "c": self.counterexample[0],
                "d": self.counterexample[1],
                "d_prime": self.counterexample[2],
            }
        return {
            "holds": self.holds,
            "routing": self.routing.as_dict() if self.routing is not None else None,
            "counterexample": ce,
            "max_stray_mass": self.max_stray_mass,
            "skipped_choices": list(self.skipped_choices),
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class DistinctnessVerdict:
    """Does some pair of detectors see different bin distributions?

    ``gap`` is the largest total variation over pairs of positive-mass
    detectors; ``pair`` the maximizing (d, d') and ``bin_set`` the bins
    where p(x|d) exceeds p(x|d'), which realize the gap as a probability
    difference. Ties resolve to the first pair in detector axis order.
    """

    holds: bool
    gap: float
    pair: tuple[str, str]
    bin_set: tuple[int, ...]
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "gap": self.gap,
            "witness": {
                "bin_set": list(self.bin_set),
                "d": self.pair[0],
                "d_prime": self.pair[1],
                "gap": self.gap,
            },
            "tolerance": self.tolerance,
        }


def check_independence(joint: JointDistribution, tol: float | None = None) -> IndependenceVerdict:
    """Compare the (X, C) marginal against the product of its marginals."""
    if tol is None:
        tol = default_tolerance(joint)
    p_xc = joint.p.sum(axis=2)
    p_x = p_xc.sum(axis=1)
    p_c = p_xc.sum(axis=0)
    deviation = np.abs(p_xc - np.outer(p_x, p_c))
    x, c = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
    worst = float(deviation[x, c])
    skipped = tuple(
        joint.space.c_values[ci] for ci in range(joint.space.n_c) if p_c[ci] <= 0.0
    )
    return IndependenceVerdict(
        holds=worst <= tol,
        max_deviation=worst,
        witness=(int(x), joint.space.c_values[c]),
        skipped_choices=skipped,
        tolerance=tol,
    )


def check_lossless(joint: JointDistribution) -> LosslessVerdict:
    """Total mass on the loss outcome must be zero.

    The tolerance is fixed rather than sample-scaled: a loss channel is a
    structural feature of the arrangement, and any sampled mass at all
    means the channel exists.
    """
    li = joint.space.loss_index
    loss_mass = 0.0 if li is None else float(joint.p[:, :, li].sum())
    return LosslessVerdict(holds=loss_mass <= LOSSLESS_TOL, loss_mass=loss_mass, tolerance=LOSSLESS_TOL)


def check_deterministic_routing(joint: JointDistribution, tol: float | None = None) -> RoutingVerdict:
    """Extract the modal detector per choice and measure stray mass.

    Routing is judged after conditioning on detection (D != LOSS), so a
    lossy arrangement can still route deterministically. A choice with
    positive mass that is entirely lost leaves routing undefined and is an
    error; a choice with no mass at all is skipped and noted. Modal ties
    resolve to the first detector in axis order.
    """
    if tol is None:
        tol = default_tolerance(joint)
    space = joint.space
    detected = list(space.detected_indices)
    assignments: list[tuple[str, str]] = []
    skipped: list[str] = []
    max_stray = -1.0
    worst: tuple[str, str, str] | None = None
    for ci, c in enumerate(space.c_values):
        mass_c = float(joint.p[:, ci, :].sum())
        if mass_c <= 0.0:
            skipped.append(c)
            continue
        mass_d = joint.p[:, ci, :].sum(axis=0)[detected] if detected else np.zeros(0)
        total = float(mass_d.sum())
        if total <= 0.0:
            raise AllMassLost(c)
        cond = mass_d / total
        target = int(np.argmax(cond))
        stray = float(1.0 - cond[target])
        assignments.append((c, space.d_values[detected[target]]))
        if stray > max_stray:
            max_stray = stray
            runner_up = np.array(cond, copy=True)
            runner_up[target] = -1.0
            second = int(np.argmax(runner_up)) if cond.size > 1 else target
            worst = (c, space.d_values[detected[target]], space.d_values[detected[second]])
    if not assignments:
        raise AllMassLost(space.c_values[0])
    holds = max_stray <= tol
    return RoutingVerdict(
        holds=holds,
        routing=RoutingMap(tuple(assignments)) if holds else None,
        counterexample=None if holds else worst,
        max_stray_mass=max_stray,
        skipped_choices=tuple(skipped),
        tolerance=tol,
    )


def check_distinct_conditionals(joint: JointDistribution, tol: float | None = None) -> DistinctnessVerdict:
    """Largest pairwise total variation among detector conditionals.

    Distinctness asks whether ANY pair of detectors separates, so the gap
    is a maximum over pairs of positive-mass non-loss detectors; fewer than
    two of those leaves nothing to compare.
    """
    if tol is None:
        tol = default_tolerance(joint)
    space = joint.space
    conditionals: list[tuple[str, np.ndarray]] = []
    for di in space.detected_indices:
        slice_xd = joint.p[:, :, di].sum(axis=1)
        mass = float(slice_xd.sum())
        if mass > 0.0:
            conditionals.append((space.d_values[di], slice_xd / mass))
    if len(conditionals) < 2:
        raise InsufficientOutcomes(
            f"need at least 2 detectors with positive mass, found {len(conditionals)}"
        )
    gap = -1.0
    pair = (conditionals[0][0], conditionals[1][0])
    bin_set: tuple[int, ...] = ()
    for i in range(len(conditionals)):
        for j in range(i + 1, len(conditionals)):
            tv = total_variation(conditionals[i][1], conditionals[j][1])
            if tv > gap:
                gap = tv
                pair = (conditionals[i][0], conditionals[j][0])
                diff = conditionals[i][1] - conditionals[j][1]
                bin_set = tuple(int(x) for x in np.nonzero(diff > 0)[0])
    return DistinctnessVerdict(
        holds=gap > tol,
        gap=float(gap),
        pair=pair,
        bin_set=bin_set,
        tolerance=tol,
    )


@dataclass(frozen=True)
class AuditReport:
    """Bundled verdicts of the four structural checks on one table."""

    independence: IndependenceVerdict
    lossless: LosslessVerdict
    deterministic_routing: RoutingVerdict
    distinct_conditionals: DistinctnessVerdict
    tolerance: float
    n_samples: int | None = None

    @property
    def holds_all(self) -> bool:
        return (
            self.independence.holds
            and self.lossless.holds
            and self.deterministic_routing.holds
            and self.distinct_conditionals.holds
        )

    @property
    def violations(self) -> tuple[str, ...]:
        """Names of the failed checks, in report order."""
        out = []
        for name, verdict in (
            (CHECK_INDEPENDENCE, self.independence),
            (CHECK_LOSSLESS, self.lossless),
            (CHECK_ROUTING, self.deterministic_routing),
            (CHECK_DISTINCT, self.distinct_conditionals),
        ):
            if not verdict.holds:
                out.append(name)
        return tuple(out)

    @property
    def no_go_consistent(self) -> bool:
        """True iff not all four checks hold; true for every valid table."""
        return not self.holds_all

    def as_dict(self) -> dict:
        return {
            "independence": self.independence.as_dict(),
            "lossless": self.lossless.as_dict(),
            "deterministic_routing": self.deterministic_routing.as_dict(),
            "distinct_conditionals": self.distinct_conditionals.as_dict(),
            "violations": list(self.violations),
            "no_go_consistent": self.no_go_consistent,
            "tolerance": self.tolerance,
            "n_samples": self.n_samples,
        }


def audit(joint: JointDistribution, tol: float | None = None) -> AuditReport:
    """Validate the table, run all four checks, and bundle the verdicts."""
    validate(joint)
    if tol is None:
        tol = default_tolerance(joint)
    if not 0.0 < tol < math.inf:
        raise InvalidArgument(f"tolerance must be finite and positive, got {tol}")
    return AuditReport(
        independence=check_independence(joint, tol),
        lossless=check_lossless(joint),
        deterministic_routing=check_deterministic_routing(joint, tol),
        distinct_conditionals=check_distinct_conditionals(joint, tol),
        tolerance=tol,
        n_samples=joint.n_samples,
    )
