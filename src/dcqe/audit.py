"""Structural checks on joint distributions.

Four properties of a delayed-choice arrangement can be read off its joint
table: independence of the bin statistics from the choice setting (X and C
independent), losslessness (no mass on the loss outcome), deterministic
routing (the choice fixes the detection outcome), and distinctness (some
pair of detectors sees different conditional bin distributions). They are
jointly unsatisfiable: enforce the first three and every detector conditional
collapses onto the X marginal, so distinctness fails. The audit runs all
four, each giving one :class:`Verdict`, and reports which fail;
``no_go_consistent`` records that at least one did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllMassLost, InsufficientOutcomes, InvalidArgument
from .joint import JointDistribution, total_variation, validate

#: Check names, in report order.
CHECK_INDEPENDENCE = "independence"
CHECK_LOSSLESS = "lossless"
CHECK_ROUTING = "deterministic_routing"
CHECK_DISTINCT = "distinct_conditionals"

ALL_CHECKS = (CHECK_INDEPENDENCE, CHECK_LOSSLESS, CHECK_ROUTING, CHECK_DISTINCT)

#: Report key of the statistic each check compares with its tolerance.
STATISTIC_KEYS = {
    CHECK_INDEPENDENCE: "max_deviation",
    CHECK_LOSSLESS: "loss_mass",
    CHECK_ROUTING: "max_stray_mass",
    CHECK_DISTINCT: "gap",
}


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
class Verdict:
    """Outcome of one structural check on one table.

    ``statistic`` is the number the check compares with ``tolerance``;
    ``detail`` holds the check's witness fields as they appear in the
    report, with JSON-native values only.
    """

    check: str
    holds: bool
    statistic: float
    tolerance: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            STATISTIC_KEYS[self.check]: self.statistic,
            "tolerance": self.tolerance,
            **self.detail,
        }


def check_independence(joint: JointDistribution, tol: float | None = None) -> Verdict:
    """Compare the (X, C) marginal against the product of its marginals.

    The statistic is the largest cell deviation and ``witness`` its
    (x, c) cell; ties resolve to the lexicographically first cell. Choices
    carrying no mass cannot witness dependence and are listed in
    ``skipped_choices``.
    """
    if tol is None:
        tol = default_tolerance(joint)
    p_xc = joint.p.sum(axis=2)
    p_x = p_xc.sum(axis=1)
    p_c = p_xc.sum(axis=0)
    deviation = np.abs(p_xc - np.outer(p_x, p_c))
    x, c = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
    worst = float(deviation[x, c])
    skipped = [joint.space.c_values[ci] for ci in range(joint.space.n_c) if p_c[ci] <= 0.0]
    detail = {"witness": {"x": int(x), "c": joint.space.c_values[c]}, "skipped_choices": skipped}
    return Verdict(CHECK_INDEPENDENCE, worst <= tol, worst, tol, detail)


def check_lossless(joint: JointDistribution) -> Verdict:
    """Total mass on the loss outcome must be zero.

    The tolerance is fixed rather than sample-scaled: a loss channel is a
    structural feature of the arrangement, and any sampled mass at all
    means the channel exists.
    """
    li = joint.space.loss_index
    loss_mass = 0.0 if li is None else float(joint.p[:, :, li].sum())
    return Verdict(CHECK_LOSSLESS, loss_mass <= LOSSLESS_TOL, loss_mass, LOSSLESS_TOL)


def check_deterministic_routing(joint: JointDistribution, tol: float | None = None) -> Verdict:
    """Extract the modal detector per choice and measure stray mass.

    Routing is judged after conditioning on detection (D != LOSS), so a
    lossy arrangement can still route deterministically. The statistic is
    the largest conditional mass any choice puts outside its modal
    detector. On success ``routing`` maps each choice to its detector; on
    failure ``counterexample`` names the worst choice and two detectors it
    reaches. A choice with positive mass that is entirely lost leaves
    routing undefined and is an error; a choice with no mass at all is
    listed in ``skipped_choices``. Modal ties resolve to the first detector
    in axis order.
    """
    if tol is None:
        tol = default_tolerance(joint)
    space = joint.space
    detected = list(space.detected_indices)
    routing: dict[str, str] = {}
    skipped: list[str] = []
    max_stray = -1.0
    worst: dict[str, str] | None = None
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
        routing[c] = space.d_values[detected[target]]
        if stray > max_stray:
            max_stray = stray
            runner_up = np.array(cond, copy=True)
            runner_up[target] = -1.0
            second = int(np.argmax(runner_up)) if cond.size > 1 else target
            worst = {"c": c, "d": routing[c], "d_prime": space.d_values[detected[second]]}
    if not routing:
        raise AllMassLost(space.c_values[0])
    holds = max_stray <= tol
    detail = {
        "routing": routing if holds else None,
        "counterexample": None if holds else worst,
        "skipped_choices": skipped,
    }
    return Verdict(CHECK_ROUTING, holds, max_stray, tol, detail)


def check_distinct_conditionals(joint: JointDistribution, tol: float | None = None) -> Verdict:
    """Largest pairwise total variation among detector conditionals.

    Distinctness asks whether ANY pair of detectors separates, so the gap
    is a maximum over pairs of positive-mass non-loss detectors; fewer than
    two of those leaves nothing to compare. ``witness`` names the
    maximizing pair (d, d') and the ``bin_set`` where p(x|d) exceeds
    p(x|d'), which realizes the gap as a probability difference. Ties
    resolve to the first pair in detector axis order.
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
    bin_set: list[int] = []
    for i in range(len(conditionals)):
        for j in range(i + 1, len(conditionals)):
            tv = total_variation(conditionals[i][1], conditionals[j][1])
            if tv > gap:
                gap = tv
                pair = (conditionals[i][0], conditionals[j][0])
                diff = conditionals[i][1] - conditionals[j][1]
                bin_set = [int(x) for x in np.nonzero(diff > 0)[0]]
    gap = float(gap)
    witness = {"bin_set": bin_set, "d": pair[0], "d_prime": pair[1], "gap": gap}
    return Verdict(CHECK_DISTINCT, gap > tol, gap, tol, {"witness": witness})


@dataclass(frozen=True)
class AuditReport:
    """The four verdicts on one table, each in the field named by its check."""

    independence: Verdict
    lossless: Verdict
    deterministic_routing: Verdict
    distinct_conditionals: Verdict
    tolerance: float
    n_samples: int | None = None

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        """The four verdicts, in ``ALL_CHECKS`` order."""
        return tuple(getattr(self, check) for check in ALL_CHECKS)

    @property
    def violations(self) -> tuple[str, ...]:
        """Names of the failed checks, in report order."""
        return tuple(v.check for v in self.verdicts if not v.holds)

    @property
    def no_go_consistent(self) -> bool:
        """True iff not all four checks hold; true for every valid table."""
        return bool(self.violations)

    def as_dict(self) -> dict:
        doc = {v.check: v.as_dict() for v in self.verdicts}
        doc.update(
            violations=list(self.violations),
            no_go_consistent=self.no_go_consistent,
            tolerance=self.tolerance,
            n_samples=self.n_samples,
        )
        return doc


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
